"""Command-line driver: scripts, one-shot subcommands, and the builtin
example suites.

Every script command of `dsl.COMMANDS` is also a one-shot subcommand
(`oracle` as `oracle-check`) whose options are the command's fields;
`_HANDLERS` maps each keyword to the function that runs it.

Exit status: 0 when every command succeeds and every verification
passes, 1 on a verification failure, 2 on a lex/parse/semantic error,
an invalid option or a refused run (`series.Refusal`), 3 on an internal
error (an exception the program did not anticipate).  Every error
reaches `main`, which prints its one `error:` line and picks the status.
JSON reports are byte-identical for identical (script, seed, trials):
elapsed time is shown on the human side only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
import dataclasses
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, Sequence

from hilbcalc.dsl import (
    COMMANDS,
    DslError,
    Script,
    command_keyword,
    format_command,
    format_form,
    join_signed_terms,
    parse_text,
)
from hilbcalc.oracle import DEFAULT_CHECK_DEGREE, verify_series
from hilbcalc.polyring import LinearForm, PolyIdeal
from hilbcalc.presentation import (
    COMPLETE_INTERSECTION_2,
    HILBERT_BURCH,
    CyclicModule,
    closed_form_family,
    determinantal_check_module,
    module_table,
    series_of_cyclic,
    series_of_resolution,
)
from hilbcalc.series import (
    MAX_SHIFT,
    Refusal,
    hilbert_coefficients,
    series_dimension,
)
from hilbcalc.superficial import (
    CERTIFIED,
    DEFAULT_TRIALS,
    depth,
    find_superficial_sequence,
    superficial_chain,
)
from hilbcalc.theorem import (
    MAXIMAL_TIMES_PRIME_CELLS,
    RESOLUTION_FAMILY_CELLS,
    TWO_PRIME_PRODUCT_CELLS,
    NotAdmissible,
    run_maximal_times_prime_suite,
    run_two_prime_product_suite,
    verify_depth_sensitivity,
)

SCHEMA_VERSION = 1
EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_LANGUAGE = 2
EXIT_INTERNAL = 3

DEFAULT_MAX_DEGREE = 64


@dataclass(frozen=True)
class Options:
    seed: int = 0
    trials: int = DEFAULT_TRIALS
    max_degree: int = DEFAULT_MAX_DEGREE
    as_json: bool = False
    quiet: bool = False


# ---------------------------------------------------------------------------
# rendering helpers


class TooLongToPrint(Refusal):
    """A computed integer has more digits than the interpreter converts to
    text.  The run is refused with exit 2, not reported as a failed check."""


def _int_text(n: int) -> str:
    """str(n), refusing an integer past the interpreter's digit limit (the
    only ValueError str raises on an int)."""
    try:
        return str(n)
    except ValueError:
        raise TooLongToPrint(
            f"a result has more than {sys.get_int_max_str_digits()} digits, "
            "the interpreter's limit for printing an integer"
        ) from None


def format_t_polynomial(coeffs: Sequence[int]) -> str:
    terms: list[tuple[int, str]] = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = _int_text(abs(c))
        if k == 0:
            body = mag
        elif k == 1:
            body = "t" if mag == "1" else f"{mag}*t"
        else:
            body = f"t^{k}" if mag == "1" else f"{mag}*t^{k}"
        terms.append((c, body))
    return join_signed_terms(terms)


def _mark(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _forms_text(forms, variables, empty: str = "(none)") -> str:
    return "; ".join(format_form(f, variables) for f in forms) if forms else empty


def _header(opts: Options) -> str:
    return f"seed {opts.seed}, trials {opts.trials}, max degree {opts.max_degree}"


def _dim_json(value):
    return value if isinstance(value, int) else "-infinity"


def _forms_json(forms) -> list[list[str]]:
    return [[str(c) for c in f.coefficients] for f in forms]


def _report(kind: str, opts: Options, **fields) -> dict:
    """A schema-1 report: the head every kind shares, then `fields`."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "seed": opts.seed,
        "trials": opts.trials,
        "max_degree": opts.max_degree,
        **fields,
    }


# ---------------------------------------------------------------------------
# script execution


class _Env:
    def __init__(self, script: Script):
        self.variables = script.variables
        d = len(self.variables)
        self.ideals: dict[str, PolyIdeal] = {
            name: PolyIdeal(d, list(decl.generators))
            for name, decl in script.ideals().items()
        }
        self.modules: dict[str, CyclicModule] = {
            name: CyclicModule(d, self.ideals[decl.ideal_name], decl.shift)
            for name, decl in script.modules().items()
        }
        self.groups: dict[str, tuple[LinearForm, ...]] = {
            name: decl.forms for name, decl in script.form_groups().items()
        }


# Each handler returns its entry's result fields and its human line, both
# built from the objects it computed; execute_script adds the identifying
# fields and the line's "<command> <module> ...:" label.


def _run_series(env: _Env, cmd, opts: Options) -> tuple[dict, str]:
    M = env.modules[cmd.module]
    S = series_of_cyclic(M)
    dim = _dim_json(series_dimension(S))
    numerator = list(S.numerator.coeffs)
    fields = {
        "ring_dim": M.ring_dim,
        "shift": M.shift,
        "numerator": numerator,
        "dimension": dim,
        "ok": True,
    }
    num = format_t_polynomial(numerator)
    return fields, f"({num}) / (1-t)^{M.ring_dim}, dimension {dim}"


def _run_coeffs(env: _Env, cmd, opts: Options) -> tuple[dict, str]:
    T = module_table(env.modules[cmd.module])
    dim = _dim_json(T.dim)
    fields = {"dimension": dim, "table": list(T.coeffs), "ok": True}
    table = ", ".join(map(_int_text, T.coeffs))
    return fields, f"dimension {dim}, e = ({table})"


def _run_depth(env: _Env, cmd, opts: Options) -> tuple[dict, str]:
    M = env.modules[cmd.module]
    cert = depth(M, seed=opts.seed, trials=opts.trials)
    fields = {
        "depth": cert.depth,
        "exact": cert.is_exact,
        "stop": cert.stop_evidence,
        "chain": _forms_json(cert.chain),
        "failed_trials": cert.failed_trials,
        "ok": True,
    }
    how = (
        "exact: chain reached dimension zero"
        if cert.is_exact
        else f"probabilistic: candidates ran out, trials {cert.failed_trials}"
    )
    chain = _forms_text(cert.chain, env.variables, empty="(empty)")
    return fields, f"{cert.depth} ({how}), chain {chain}"


def _run_superficial(env: _Env, cmd, opts: Options) -> tuple[dict, str]:
    M = env.modules[cmd.module]
    forms = env.groups[cmd.forms]
    reports, _ = superficial_chain(M, list(forms))
    steps = [
        {
            "superficial": r.is_superficial,
            "regular": r.colon_equal,
            "socle_length": r.socle_length,
        }
        for r in reports
    ]
    ok = all(r.is_superficial for r in reports)
    socles = ", ".join(
        "-" if r.socle_length is None else str(r.socle_length) for r in reports
    )
    return {"steps": steps, "ok": ok}, f"socle lengths ({socles}): {_mark(ok)}"


def _run_admissible(env: _Env, cmd, opts: Options) -> tuple[dict, str]:
    M = env.modules[cmd.module]
    forms = env.groups[cmd.forms]
    cert = find_superficial_sequence(
        M, list(forms), seed=opts.seed, trials=opts.trials
    )
    ok = cert.verdict == CERTIFIED
    fields = {
        "verdict": cert.verdict,
        "witness": None if cert.witness is None else _forms_json(cert.witness),
        "trials_used": cert.trials_used,
        "ok": ok,
    }
    witness = _forms_text(cert.witness, env.variables)
    return fields, (
        f"{cert.verdict}, witness {witness}, "
        f"trials used {cert.trials_used}: {_mark(ok)}"
    )


def _run_verify(env: _Env, cmd, opts: Options) -> tuple[dict, str]:
    M = env.modules[cmd.module]
    forms = env.groups[cmd.forms]
    try:
        rep = verify_depth_sensitivity(
            M, list(forms), cmd.index, seed=opts.seed, trials=opts.trials
        )
    except NotAdmissible as exc:
        cert = exc.certificate
        fields = {"verdict": cert.verdict, "trials_used": cert.trials_used, "ok": False}
        return fields, f"{cert.verdict}: {_mark(False)}"
    fields = {
        "s": rep.s,
        "e_module": rep.e_module,
        "e_quotient": rep.e_quotient,
        "parity_ok": rep.parity_ok,
        "equality": rep.equality,
        "depth": rep.depth_value,
        "depth_exact": rep.depth_exact,
        "equivalence_ok": rep.equivalence_ok,
        "defects": list(rep.defect_lengths),
        "ok": rep.ok,
    }
    exact = "exact" if rep.depth_exact else "probabilistic"
    missed = "VIOLATED" if rep.depth_exact else "unproven"
    return fields, (
        f"e_{rep.i} {_int_text(rep.e_module)} -> {_int_text(rep.e_quotient)}, "
        f"equality {'yes' if rep.equality else 'no'}, "
        f"depth {rep.depth_value} ({exact}), "
        f"parity {'ok' if rep.parity_ok else 'VIOLATED'}, "
        f"equivalence {'ok' if rep.equivalence_ok else missed}: {_mark(rep.ok)}"
    )


def _run_oracle(env: _Env, cmd, opts: Options) -> tuple[dict, str]:
    if cmd.degree > opts.max_degree:
        detail = (
            f"oracle degree {cmd.degree} exceeds --max-degree "
            f"{opts.max_degree}; raise the bound to run this check"
        )
        fields = {"ok": False, "skipped": "truncation", "detail": detail}
        return fields, f"{detail}: {_mark(False)}"
    check = verify_series(env.modules[cmd.module], max_degree=cmd.degree)
    tail = (
        "all degrees agree"
        if check.ok
        else f"first mismatch at degree {check.first_mismatch}"
    )
    fields = {"ok": check.ok, "first_mismatch": check.first_mismatch}
    return fields, f"{tail}: {_mark(check.ok)}"


_HANDLERS = {
    "series": _run_series,
    "coeffs": _run_coeffs,
    "depth": _run_depth,
    "superficial": _run_superficial,
    "admissible": _run_admissible,
    "verify": _run_verify,
    "oracle": _run_oracle,
}


def execute_script(script: Script, opts: Options) -> tuple[dict, list[str]]:
    """Run every command once; return the schema-1 report and its human lines."""
    env = _Env(script)
    entries: list[dict] = []
    lines = [_header(opts)]
    for cmd in script.commands():
        keyword = command_keyword(cmd)
        # the identifying fields are the command's own, with index as i
        entry = {"command": keyword}
        for name, value in dataclasses.asdict(cmd).items():
            entry["i" if name == "index" else name] = value
        try:
            result, text = _HANDLERS[keyword](env, cmd, opts)
        except Refusal as exc:
            raise type(exc)(f"{keyword} {cmd.module}: {exc}") from None
        except ValueError as exc:
            result = {"error": str(exc), "ok": False}
            label = f"{keyword} {cmd.module}"
            text = f"error: {exc}: {_mark(False)}"
        else:
            label = format_command(cmd)
        entry.update(result)
        entries.append(entry)
        lines.append(f"{label}: {text}")
    status = "pass" if all(e["ok"] for e in entries) else "fail"
    lines.append(f"status: {status}")
    return _report("run", opts, commands=entries, status=status), lines


# ---------------------------------------------------------------------------
# builtin example suites


_FAMILY_DETAILS = {
    COMPLETE_INTERSECTION_2: "difference and convolution forms",
    HILBERT_BURCH: "determinantal closed form",
}


def _convolution_table(k: int, l: int) -> tuple[int, ...]:
    return tuple(
        sum(math.comb(k, j + 1) * math.comb(l, i - j + 1) for j in range(i + 1))
        for i in range(k + l - 1)
    )


def paper_examples_report(opts: Options) -> tuple[dict, list[str]]:
    """Run the builtin catalogue once; return the schema-1 report and its
    human lines, both built from each cell as it is computed."""
    instances = [
        closed_form_family(case, **params) for case, params in RESOLUTION_FAMILY_CELLS
    ]
    needed = max(max(map(max, inst.presentation.steps)) for inst in instances)
    lines = [_header(opts)]
    if opts.max_degree < needed:
        detail = (
            f"truncation degree {opts.max_degree} is below the largest "
            f"generator twist {needed} of the resolution families; "
            f"rerun with --max-degree >= {needed}"
        )
        report = _report(
            "paper-examples",
            opts,
            status="fail",
            truncation={"needed_degree": needed, "detail": detail},
            cells=[],
        )
        return report, lines + [detail, "status: fail"]

    cells: list[dict] = []

    def add(example, params, ok, failed=(), **fields) -> None:
        """Add one cell and its human line, then a line per check in `failed`."""
        params = dict(params)
        cells.append({"example": example, "params": params, "ok": ok, **fields})
        text = ", ".join(f"{k}={v}" for k, v in sorted(params.items()))
        lines.append(f"{example} [{text}]: {_mark(ok)}")
        for c in failed:
            detail = f" ({c.detail})" if c.detail else ""
            lines.append(f"    failed: {c.name}{detail}")

    for inst in instances:
        got = hilbert_coefficients(series_of_resolution(inst.presentation))
        ok = got == inst.expected
        if inst.case == COMPLETE_INTERSECTION_2:
            params = dict(inst.params)
            convolution = _convolution_table(params["k"], params["l"])
            ok = ok and tuple(inst.expected.coeffs) == convolution
        detail = _FAMILY_DETAILS.get(inst.case, "")
        add(inst.case, inst.params, ok, table=list(got.coeffs), detail=detail)

    got = module_table(determinantal_check_module(seed=opts.seed))
    add(
        "hilbert-burch-minors",
        {"m": 2, "d": 3},
        got == closed_form_family(HILBERT_BURCH, d=3, m=2).expected,
        table=list(got.coeffs),
        detail="generic 2x3 minors through the Groebner pipeline",
    )
    suites = [
        run_maximal_times_prime_suite(d, s, seed=opts.seed, trials=opts.trials)
        for d, s in MAXIMAL_TIMES_PRIME_CELLS
    ] + [
        run_two_prime_product_suite(r, s, seed=opts.seed, trials=opts.trials)
        for r, s in TWO_PRIME_PRODUCT_CELLS
    ]
    for suite in suites:
        failed = [c for c in suite.checks if not c.ok]
        checks = [{"name": c.name, "ok": c.ok} for c in suite.checks]
        add(suite.name, suite.params, suite.ok, failed, checks=checks)
    status = "pass" if all(c["ok"] for c in cells) else "fail"
    passed = sum(1 for c in cells if c["ok"])
    report = _report("paper-examples", opts, status=status, cells=cells)
    return report, lines + [f"{passed}/{len(cells)} cells pass", f"status: {status}"]


# ---------------------------------------------------------------------------
# argument handling


@contextmanager
def quiet_broken_pipe():
    """Print inside the block.  A reader that closes standard output early
    ends the printing quietly: the rest of the output is dropped, and fd 1
    then points at the null device so the flush at exit finds no broken
    pipe."""
    try:
        yield
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _finish(report: dict, lines: list[str], opts: Options, t0: float) -> int:
    """Print the report (the human lines with the time since t0); return
    its exit status."""
    elapsed = time.perf_counter() - t0
    with quiet_broken_pipe():
        if opts.as_json:
            print(json.dumps(report, indent=2, sort_keys=True))
        elif not opts.quiet:
            for line in lines:
                print(line)
            print(f"elapsed {elapsed:.2f}s")
    return EXIT_OK if report["status"] == "pass" else EXIT_VERIFICATION


def _options_from(args: argparse.Namespace) -> Options:
    return Options(
        seed=args.seed,
        trials=args.trials,
        max_degree=args.max_degree,
        as_json=args.json,
        quiet=args.quiet,
    )


def _check_fragment(text: str, what: str) -> str:
    if ";" in text or "#" in text:
        raise DslError(f"{what} must be a bare literal without ';' or '#'", 1, 1)
    return text


def _oneshot_script(args: argparse.Namespace) -> tuple[str, list[tuple[str, int, int]]]:
    """The script a one-shot subcommand runs, and where each option value
    sits in it: (option, start, end) character offsets."""
    cls = COMMANDS[args.keyword]
    names = [field.name for field in dataclasses.fields(cls)]
    lines: list[str] = []
    spans: list[tuple[str, int, int]] = []

    def statement(head: str, option: Optional[str] = None, value: str = "") -> None:
        if option is not None:
            start = sum(len(line) + 1 for line in lines) + len(head)
            spans.append((option, start, start + len(_check_fragment(value, option))))
        lines.append(f"{head}{value};")

    statement("ring ", "--ring", args.ring)
    statement("ideal I = ", "--ideal", args.ideal)
    if args.shift:
        statement("module M = R/I shift ", "--shift", str(args.shift))
    else:
        statement("module M = R/I")
    if "forms" in names:
        statement("forms F = ", "--forms", args.forms)
    named = {"module": "M", "forms": "F"}
    cmd = cls(*(named[n] if n in named else getattr(args, n) for n in names))
    statement(format_command(cmd))
    return "\n".join(lines), spans


def _option_error(exc: DslError, text: str, spans: list[tuple[str, int, int]]) -> str:
    """A language error in a one-shot script, placed in the option value it
    came from; an error outside every value keeps its script position."""
    if exc.line < 1:
        return str(exc)
    lines = text.split("\n")
    at = sum(len(line) + 1 for line in lines[: exc.line - 1]) + exc.column - 1
    for option, start, end in spans:
        if at == end:
            # the ';' closing the statement is not part of the value
            message = exc.message.replace("unexpected ';'", "unexpected end of value", 1)
            return f"{option}: {message}"
        if start <= at < end:
            return f"{option}, column {at - start + 1}: {exc.message}"
    return str(exc)


def _int_at_least(low: int, high: Optional[int] = None):
    """An argparse type: an integer no smaller than `low` (and, given
    `high`, no larger than it)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value

    return parse


# Subcommand name -> (the script command it runs one-shot, None for the
# two that are no script command; its help line), in the order help
# lists them.
_SUBCOMMANDS: dict[str, tuple[Optional[str], str]] = {
    "run": (None, "execute a script file"),
    "paper-examples": (None, "run the builtin closed-form example suites"),
    "series": ("series", "Hilbert series numerator and dimension"),
    "coeffs": ("coeffs", "full coefficient table (e_0, ..., e_D)"),
    "depth": ("depth", "depth certificate: chain of regular forms plus stop reason"),
    "superficial": ("superficial", "audit a given chain of forms step by step"),
    "admissible": (
        "admissible",
        "search for a certified superficial system of parameters",
    ),
    "verify": (
        "verify",
        "the depth-sensitivity check for e_i along given forms (-i N)",
    ),
    "oracle-check": (
        "oracle",
        "compare series expansion against brute-force graded dimensions",
    ),
}


def build_parser(only: Optional[str] = None) -> argparse.ArgumentParser:
    """The command-line parser.  Given `only`, a subcommand name, it
    builds that subcommand alone: enough to parse an argv that starts with
    it, including the top-level usage line of an "unrecognized arguments"
    error.  Help, a missing or an unknown subcommand need the full build."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--trials", type=_int_at_least(1), default=DEFAULT_TRIALS)
    common.add_argument(
        "--max-degree", type=_int_at_least(0, MAX_SHIFT), default=DEFAULT_MAX_DEGREE
    )
    common.add_argument("--json", action="store_true")
    common.add_argument("--quiet", action="store_true")

    inline = argparse.ArgumentParser(add_help=False)
    inline.add_argument("--ring", required=True, help="space-separated variables")
    inline.add_argument("--ideal", required=True, help="comma-separated generators")
    inline.add_argument("--shift", type=_int_at_least(0, MAX_SHIFT), default=0)

    parser = argparse.ArgumentParser(
        prog="hilbcalc",
        description="Exact Hilbert coefficients, superficial sequences, "
        "and depth sensitivity checks.",
    )
    # A metavar would rename the action in the "required" and "invalid
    # choice" errors, which only the full build can reach; the single
    # subcommand build needs it to print every choice in its usage line.
    metavar = None if only is None else "{" + ",".join(_SUBCOMMANDS) + "}"
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar=metavar)

    for name, (keyword, help_line) in _SUBCOMMANDS.items():
        if only is not None and name != only:
            continue
        if keyword is None:
            command = sub.add_parser(name, parents=[common], help=help_line)
            if name == "run":
                command.add_argument("script", help="path to a script")
            continue
        names = {field.name for field in dataclasses.fields(COMMANDS[keyword])}
        oneshot = sub.add_parser(name, parents=[common, inline], help=help_line)
        oneshot.set_defaults(keyword=keyword)
        if "forms" in names:
            oneshot.add_argument("--forms", required=True, help="comma-separated forms")
        if "index" in names:
            oneshot.add_argument(
                "-i", "--index", type=_int_at_least(0), required=True
            )
        if "degree" in names:
            oneshot.add_argument(
                "--degree", type=_int_at_least(0, MAX_SHIFT), default=DEFAULT_CHECK_DEGREE
            )

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # no option precedes the subcommand, so a leading "--" ends none
    if argv[:1] == ["--"]:
        del argv[0]
    # most calls name a subcommand first: build only that one
    only = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    parser = build_parser(only)
    # no option precedes the subcommand but help (argparse takes "--h"
    # for --help): say so rather than read the option's value as the name
    lead = argv[0].split("=", 1)[0] if argv else ""
    if lead.startswith("-") and not "--help".startswith(lead) and lead != "-h":
        parser.error(
            f"option {lead} precedes the subcommand; options follow the subcommand"
        )
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (DslError, Refusal) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LANGUAGE
    except Exception as exc:  # SystemExit and KeyboardInterrupt pass through
        message = ": ".join([type(exc).__name__, " ".join(str(exc).split())])
        print(f"error: internal: {message}", file=sys.stderr)
        return EXIT_INTERNAL


def _dispatch(args: argparse.Namespace) -> int:
    opts = _options_from(args)
    t0 = time.perf_counter()
    if args.subcommand == "paper-examples":
        return _finish(*paper_examples_report(opts), opts, t0)
    if args.subcommand == "run":
        try:
            with open(args.script, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise Refusal(f"cannot read {args.script}: {exc}") from None
        script = parse_text(text)
    else:
        text, spans = _oneshot_script(args)
        try:
            script = parse_text(text)
        except DslError as exc:
            raise Refusal(_option_error(exc, text, spans)) from None
    return _finish(*execute_script(script, opts), opts, t0)


if __name__ == "__main__":
    sys.exit(main())
