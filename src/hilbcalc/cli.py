"""Command-line driver: scripts, one-shot subcommands, and the builtin
example suites.

Exit status: 0 when every command succeeds and every verification
passes, 1 on a verification failure, 2 on a lex/parse/semantic error
or an invalid option.
JSON reports are byte-identical for identical (script, seed, trials):
elapsed time is shown on the human side only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from hilbcalc.dsl import (
    AdmissibleCmd,
    CoeffsCmd,
    DepthCmd,
    DslError,
    FormsDecl,
    IdealDecl,
    ModuleDecl,
    OracleCmd,
    Script,
    SeriesCmd,
    SuperficialCmd,
    VerifyCmd,
    format_form,
    parse_text,
)
from hilbcalc.oracle import DEFAULT_CHECK_DEGREE, verify_series
from hilbcalc.polyring import LinearForm, PolyIdeal
from hilbcalc.presentation import (
    COMPLETE_INTERSECTION_2,
    HILBERT_BURCH,
    HYPERSURFACE,
    SHIFTED_FREE,
    CyclicModule,
    closed_form_family,
    determinantal_check_module,
    module_table,
    series_of_resolution,
)
from hilbcalc.series import (
    binomial,
    expand,
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
from hilbcalc.presentation import series_of_cyclic
from hilbcalc.theorem import (
    BadIndex,
    NotAdmissible,
    run_maximal_times_prime_suite,
    run_two_prime_product_suite,
    verify_depth_sensitivity,
)

SCHEMA_VERSION = 1
EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_LANGUAGE = 2

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


def format_t_polynomial(coeffs: Sequence[int]) -> str:
    if not any(coeffs):
        return "0"
    pieces: list[str] = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        elif k == 1:
            body = "t" if mag == 1 else f"{mag}*t"
        else:
            body = f"t^{k}" if mag == 1 else f"{mag}*t^{k}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"{'+' if c > 0 else '-'} {body}")
    return " ".join(pieces)


def _dim_json(value):
    return value if isinstance(value, int) else "-infinity"


def _form_json(form: LinearForm) -> list[str]:
    return [str(c) for c in form.coefficients]


def _forms_json(forms) -> list[list[str]]:
    return [_form_json(f) for f in forms]


# ---------------------------------------------------------------------------
# script execution


class _Env:
    def __init__(self, script: Script):
        self.variables = script.variables
        d = len(self.variables)
        self.ring_dim = d
        self.ideals: dict[str, PolyIdeal] = {}
        self.modules: dict[str, CyclicModule] = {}
        self.groups: dict[str, tuple[LinearForm, ...]] = {}
        for stmt in script.statements:
            if isinstance(stmt, IdealDecl):
                self.ideals[stmt.name] = PolyIdeal(d, list(stmt.generators))
            elif isinstance(stmt, ModuleDecl):
                self.modules[stmt.name] = CyclicModule(
                    d, self.ideals[stmt.ideal_name], stmt.shift
                )
            elif isinstance(stmt, FormsDecl):
                self.groups[stmt.name] = stmt.forms


def _run_series(env: _Env, cmd: SeriesCmd, opts: Options) -> dict:
    M = env.modules[cmd.module]
    S = series_of_cyclic(M)
    return {
        "command": "series",
        "module": cmd.module,
        "ring_dim": M.ring_dim,
        "shift": M.shift,
        "numerator": list(S.numerator.coeffs),
        "dimension": _dim_json(series_dimension(S)),
        "ok": True,
    }


def _run_coeffs(env: _Env, cmd: CoeffsCmd, opts: Options) -> dict:
    M = env.modules[cmd.module]
    T = module_table(M)
    return {
        "command": "coeffs",
        "module": cmd.module,
        "dimension": T.dim,
        "table": list(T.coeffs),
        "ok": True,
    }


def _run_depth(env: _Env, cmd: DepthCmd, opts: Options) -> dict:
    M = env.modules[cmd.module]
    cert = depth(M, seed=opts.seed, trials=opts.trials)
    return {
        "command": "depth",
        "module": cmd.module,
        "depth": cert.depth,
        "exact": cert.is_exact,
        "stop": cert.stop_evidence,
        "chain": _forms_json(cert.chain),
        "failed_trials": cert.failed_trials,
        "ok": True,
    }


def _run_superficial(env: _Env, cmd: SuperficialCmd, opts: Options) -> dict:
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
    return {
        "command": "superficial",
        "module": cmd.module,
        "forms": cmd.forms,
        "steps": steps,
        "ok": all(r.is_superficial for r in reports),
    }


def _run_admissible(env: _Env, cmd: AdmissibleCmd, opts: Options) -> dict:
    M = env.modules[cmd.module]
    forms = env.groups[cmd.forms]
    cert = find_superficial_sequence(
        M, list(forms), seed=opts.seed, trials=opts.trials
    )
    return {
        "command": "admissible",
        "module": cmd.module,
        "forms": cmd.forms,
        "verdict": cert.verdict,
        "witness": None if cert.witness is None else _forms_json(cert.witness),
        "trials_used": cert.trials_used,
        "ok": cert.verdict == CERTIFIED,
    }


def _run_verify(env: _Env, cmd: VerifyCmd, opts: Options) -> dict:
    M = env.modules[cmd.module]
    forms = env.groups[cmd.forms]
    entry = {
        "command": "verify",
        "module": cmd.module,
        "forms": cmd.forms,
        "i": cmd.index,
    }
    try:
        rep = verify_depth_sensitivity(
            M, list(forms), cmd.index, seed=opts.seed, trials=opts.trials
        )
    except NotAdmissible as exc:
        entry.update(
            verdict=exc.certificate.verdict,
            trials_used=exc.certificate.trials_used,
            ok=False,
        )
        return entry
    except BadIndex as exc:
        entry.update(error=str(exc), ok=False)
        return entry
    entry.update(
        s=rep.s,
        e_module=rep.e_module,
        e_quotient=rep.e_quotient,
        parity_ok=rep.parity_ok,
        equality=rep.equality,
        depth=rep.depth_value,
        depth_exact=rep.depth_exact,
        equivalence_ok=rep.equivalence_ok,
        defects=list(rep.defect_lengths),
        ok=rep.parity_ok and rep.equivalence_ok,
    )
    return entry


def _run_oracle(env: _Env, cmd: OracleCmd, opts: Options) -> dict:
    M = env.modules[cmd.module]
    entry = {"command": "oracle", "module": cmd.module, "degree": cmd.degree}
    if cmd.degree > opts.max_degree:
        entry.update(
            ok=False,
            skipped="truncation",
            detail=(
                f"oracle degree {cmd.degree} exceeds --max-degree "
                f"{opts.max_degree}; raise the bound to run this check"
            ),
        )
        return entry
    check = verify_series(M, max_degree=cmd.degree)
    entry.update(
        ok=check.ok,
        first_mismatch=check.first_mismatch,
    )
    return entry


_HANDLERS = {
    SeriesCmd: _run_series,
    CoeffsCmd: _run_coeffs,
    DepthCmd: _run_depth,
    SuperficialCmd: _run_superficial,
    AdmissibleCmd: _run_admissible,
    VerifyCmd: _run_verify,
    OracleCmd: _run_oracle,
}


def execute_script(script: Script, opts: Options) -> dict:
    env = _Env(script)
    entries: list[dict] = []
    for cmd in script.commands():
        handler = _HANDLERS[type(cmd)]
        try:
            entries.append(handler(env, cmd, opts))
        except ValueError as exc:
            entries.append(
                {
                    "command": type(cmd).__name__.removesuffix("Cmd").lower(),
                    "error": str(exc),
                    "ok": False,
                }
            )
    status = "pass" if all(e["ok"] for e in entries) else "fail"
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "run",
        "seed": opts.seed,
        "trials": opts.trials,
        "max_degree": opts.max_degree,
        "commands": entries,
        "status": status,
    }


# ---------------------------------------------------------------------------
# human rendering


def _human_entry(entry: dict, env: Optional[_Env]) -> str:
    kind = entry.get("command")
    mark = "PASS" if entry["ok"] else "FAIL"
    if "error" in entry:
        return f"{kind} {entry.get('module', '?')}: error: {entry['error']}: {mark}"
    variables = env.variables if env else ()

    def forms_text(rows: list[list[str]]) -> str:
        if not rows or not variables:
            return "(none)"
        rendered = []
        for row in rows:
            from fractions import Fraction

            form = LinearForm(tuple(Fraction(x) for x in row))
            rendered.append(format_form(form, variables))
        return "; ".join(rendered)

    if kind == "series":
        num = format_t_polynomial(entry["numerator"])
        return (
            f"series {entry['module']}: ({num}) / (1-t)^{entry['ring_dim']}, "
            f"dimension {entry['dimension']}"
        )
    if kind == "coeffs":
        table = ", ".join(str(c) for c in entry["table"])
        return f"coeffs {entry['module']}: dimension {entry['dimension']}, e = ({table})"
    if kind == "depth":
        how = (
            "exact: chain reached dimension zero"
            if entry["exact"]
            else f"probabilistic: {entry['failed_trials']} candidates failed"
        )
        chain = forms_text(entry["chain"]) if entry["chain"] else "(empty)"
        return f"depth {entry['module']}: {entry['depth']} ({how}), chain {chain}"
    if kind == "superficial":
        socles = ", ".join(str(s["socle_length"]) for s in entry["steps"])
        return (
            f"superficial {entry['module']} {entry['forms']}: "
            f"socle lengths ({socles}): {mark}"
        )
    if kind == "admissible":
        return (
            f"admissible {entry['module']} {entry['forms']}: {entry['verdict']}, "
            f"witness {forms_text(entry['witness'])}, "
            f"trials used {entry['trials_used']}: {mark}"
        )
    if kind == "verify":
        if "verdict" in entry:
            return (
                f"verify {entry['module']} {entry['forms']} i={entry['i']}: "
                f"{entry['verdict']}: {mark}"
            )
        exact = "exact" if entry["depth_exact"] else "probabilistic"
        return (
            f"verify {entry['module']} {entry['forms']} i={entry['i']}: "
            f"e_{entry['i']} {entry['e_module']} -> {entry['e_quotient']}, "
            f"equality {'yes' if entry['equality'] else 'no'}, "
            f"depth {entry['depth']} ({exact}), "
            f"parity {'ok' if entry['parity_ok'] else 'VIOLATED'}, "
            f"equivalence {'ok' if entry['equivalence_ok'] else 'VIOLATED'}: {mark}"
        )
    if kind == "oracle":
        if entry.get("skipped"):
            return f"oracle {entry['module']} {entry['degree']}: {entry['detail']}: {mark}"
        tail = (
            "all degrees agree"
            if entry["ok"]
            else f"first mismatch at degree {entry['first_mismatch']}"
        )
        return f"oracle {entry['module']} {entry['degree']}: {tail}: {mark}"
    return f"{kind}: {mark}"


def render_run_report(report: dict, env: Optional[_Env]) -> list[str]:
    lines = [
        f"seed {report['seed']}, trials {report['trials']}, "
        f"max degree {report['max_degree']}"
    ]
    lines.extend(_human_entry(e, env) for e in report["commands"])
    lines.append(f"status: {report['status']}")
    return lines


# ---------------------------------------------------------------------------
# builtin example suites


def _family_cell(instance, extra_ok: bool = True, detail: str = "") -> dict:
    got = hilbert_coefficients(series_of_resolution(instance.presentation))
    ok = got == instance.expected and extra_ok
    return {
        "example": instance.case,
        "params": {k: v for k, v in instance.params},
        "table": list(got.coeffs),
        "ok": ok,
        "detail": detail,
    }


def _convolution_table(k: int, l: int) -> tuple[int, ...]:
    return tuple(
        sum(binomial(k, j + 1) * binomial(l, i - j + 1) for j in range(i + 1))
        for i in range(k + l - 1)
    )


def paper_examples_report(opts: Options) -> dict:
    instances = []
    for r in range(0, 9):
        instances.append(closed_form_family(SHIFTED_FREE, d=6, r=r))
    for k in range(1, 9):
        instances.append(closed_form_family(HYPERSURFACE, d=6, k=k))
    for k in range(1, 9):
        for l in range(1, 9):
            instances.append(closed_form_family(COMPLETE_INTERSECTION_2, d=6, k=k, l=l))
    for m in range(1, 7):
        instances.append(closed_form_family(HILBERT_BURCH, d=6, m=m))

    needed = max(
        max(max(step) for step in inst.presentation.steps) for inst in instances
    )
    if opts.max_degree < needed:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "paper-examples",
            "seed": opts.seed,
            "trials": opts.trials,
            "max_degree": opts.max_degree,
            "status": "fail",
            "truncation": {
                "needed_degree": needed,
                "detail": (
                    f"truncation degree {opts.max_degree} is below the largest "
                    f"generator twist {needed} of the resolution families; "
                    f"rerun with --max-degree >= {needed}"
                ),
            },
            "cells": [],
        }

    cells: list[dict] = []
    for inst in instances:
        if inst.case == COMPLETE_INTERSECTION_2:
            params = dict(inst.params)
            agree = (
                tuple(inst.expected.coeffs)
                == _convolution_table(params["k"], params["l"])
            )
            cell = _family_cell(
                inst, extra_ok=agree, detail="difference and convolution forms"
            )
        elif inst.case == HILBERT_BURCH:
            params = dict(inst.params)
            m = params["m"]
            formula = tuple(
                (i + 1) * binomial(m + 1, i + 2) for i in range(m)
            )
            cell = _family_cell(
                inst,
                extra_ok=tuple(inst.expected.coeffs) == formula,
                detail="determinantal closed form",
            )
        else:
            cell = _family_cell(inst)
        probe = expand(series_of_resolution(inst.presentation), needed)
        cell["ok"] = cell["ok"] and all(c >= 0 for c in probe)
        cells.append(cell)

    minors = determinantal_check_module(seed=opts.seed)
    got = module_table(minors)
    cells.append(
        {
            "example": "hilbert-burch-minors",
            "params": {"m": 2, "d": 3},
            "table": list(got.coeffs),
            "ok": tuple(got.coeffs)
            == tuple((i + 1) * binomial(3, i + 2) for i in range(2)),
            "detail": "generic 2x3 minors through the Groebner pipeline",
        }
    )

    for d in range(2, 7):
        for s in range(1, d):
            suite = run_maximal_times_prime_suite(
                d, s, seed=opts.seed, trials=opts.trials
            )
            cells.append(
                {
                    "example": suite.name,
                    "params": {k: v for k, v in suite.params},
                    "ok": suite.ok,
                    "checks": [
                        {"name": c.name, "ok": c.ok} for c in suite.checks
                    ],
                }
            )
    for s in range(2, 6):
        for r in range(1, s):
            suite = run_two_prime_product_suite(
                r, s, seed=opts.seed, trials=opts.trials
            )
            cells.append(
                {
                    "example": suite.name,
                    "params": {k: v for k, v in suite.params},
                    "ok": suite.ok,
                    "checks": [
                        {"name": c.name, "ok": c.ok} for c in suite.checks
                    ],
                }
            )

    status = "pass" if all(c["ok"] for c in cells) else "fail"
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "paper-examples",
        "seed": opts.seed,
        "trials": opts.trials,
        "max_degree": opts.max_degree,
        "status": status,
        "cells": cells,
    }


def render_paper_examples(report: dict) -> list[str]:
    lines = [
        f"seed {report['seed']}, trials {report['trials']}, "
        f"max degree {report['max_degree']}"
    ]
    if "truncation" in report:
        lines.append(report["truncation"]["detail"])
        lines.append(f"status: {report['status']}")
        return lines
    for cell in report["cells"]:
        params = ", ".join(f"{k}={v}" for k, v in sorted(cell["params"].items()))
        mark = "PASS" if cell["ok"] else "FAIL"
        lines.append(f"{cell['example']} [{params}]: {mark}")
        if not cell["ok"] and "checks" in cell:
            for c in cell["checks"]:
                if not c["ok"]:
                    lines.append(f"    failed: {c['name']}")
    counts = (
        sum(1 for c in report["cells"] if c["ok"]),
        len(report["cells"]),
    )
    lines.append(f"{counts[0]}/{counts[1]} cells pass")
    lines.append(f"status: {report['status']}")
    return lines


# ---------------------------------------------------------------------------
# argument handling


def _emit(report: dict, opts: Options, lines: list[str], elapsed: float) -> None:
    if opts.as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    elif not opts.quiet:
        for line in lines:
            print(line)
        print(f"elapsed {elapsed:.2f}s")


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


def _oneshot_script(args: argparse.Namespace, command: str) -> str:
    parts = [f"ring {_check_fragment(args.ring, '--ring')};"]
    parts.append(f"ideal I = {_check_fragment(args.ideal, '--ideal')};")
    shift = getattr(args, "shift", 0)
    tail = f" shift {shift}" if shift else ""
    parts.append(f"module M = R/I{tail};")
    needs_forms = command in ("superficial", "admissible", "verify")
    if needs_forms:
        parts.append(f"forms F = {_check_fragment(args.forms, '--forms')};")
    if command == "verify":
        parts.append(f"verify M F i={args.index};")
    elif command in ("superficial", "admissible"):
        parts.append(f"{command} M F;")
    elif command == "oracle-check":
        parts.append(f"oracle M {args.degree};")
    else:
        parts.append(f"{command} M;")
    return "\n".join(parts)


def _execute_text(text: str, opts: Options) -> int:
    t0 = time.perf_counter()
    try:
        script = parse_text(text)
        env = _Env(script)
    except DslError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LANGUAGE
    report = execute_script(script, opts)
    elapsed = time.perf_counter() - t0
    _emit(report, opts, render_run_report(report, env), elapsed)
    return EXIT_OK if report["status"] == "pass" else EXIT_VERIFICATION


def _default_seed() -> int:
    raw = os.environ.get("HILBCALC_SEED")
    if raw is None or raw == "":
        return 0
    try:
        return int(raw)
    except ValueError:
        raise SystemExit(f"error: HILBCALC_SEED must be an integer, got {raw!r}")


def _at_least_one(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser(default_seed: int) -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=default_seed)
    common.add_argument("--trials", type=_at_least_one, default=DEFAULT_TRIALS)
    common.add_argument("--max-degree", type=int, default=DEFAULT_MAX_DEGREE)
    common.add_argument("--json", action="store_true")
    common.add_argument("--quiet", action="store_true")

    inline = argparse.ArgumentParser(add_help=False)
    inline.add_argument("--ring", required=True, help="space-separated variables")
    inline.add_argument("--ideal", required=True, help="comma-separated generators")
    inline.add_argument("--shift", type=int, default=0)

    with_forms = argparse.ArgumentParser(add_help=False)
    with_forms.add_argument("--forms", required=True, help="comma-separated forms")

    parser = argparse.ArgumentParser(
        prog="hilbcalc",
        description="Exact Hilbert coefficients, superficial sequences, "
        "and depth sensitivity checks.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    run = sub.add_parser("run", parents=[common], help="execute a script file")
    run.add_argument("script", help="path to a script")

    sub.add_parser(
        "paper-examples",
        parents=[common],
        help="run the builtin closed-form example suites",
    )

    for name in ("series", "coeffs", "depth"):
        sub.add_parser(name, parents=[common, inline])
    for name in ("superficial", "admissible"):
        sub.add_parser(name, parents=[common, inline, with_forms])
    verify = sub.add_parser("verify", parents=[common, inline, with_forms])
    verify.add_argument("-i", "--index", type=int, required=True)
    oracle = sub.add_parser("oracle-check", parents=[common, inline])
    oracle.add_argument("--degree", type=int, default=DEFAULT_CHECK_DEGREE)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser(_default_seed())
    args = parser.parse_args(argv)
    opts = _options_from(args)

    if args.subcommand == "run":
        try:
            with open(args.script, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            print(f"error: cannot read {args.script}: {exc}", file=sys.stderr)
            return EXIT_LANGUAGE
        return _execute_text(text, opts)

    if args.subcommand == "paper-examples":
        t0 = time.perf_counter()
        report = paper_examples_report(opts)
        elapsed = time.perf_counter() - t0
        _emit(report, opts, render_paper_examples(report), elapsed)
        return EXIT_OK if report["status"] == "pass" else EXIT_VERIFICATION

    try:
        text = _oneshot_script(args, args.subcommand)
    except DslError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LANGUAGE
    return _execute_text(text, opts)


if __name__ == "__main__":
    sys.exit(main())
