"""The four benchmark workloads: input generation, the timed call, the check.

Each workload turns one corpus seed into inputs (``prepare``), makes one
call into hilbcalc's public API (``call``), and checks what came back
(``check``).  Only ``call`` is timed.  The checks use references the timed
code path does not produce: closed-form tables computed here, the
``ok``/``parity_ok`` verdicts each operation carries, and (in ``run.py``)
the output digests recorded in ``reference.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from math import comb
from pathlib import Path

# 9 shifted-free + 8 hypersurface + 64 complete-intersection + 6
# Hilbert-Burch families, 1 minors cell, 15 maximal-times-prime and 10
# two-prime-product suites: the cells of `hilbcalc paper-examples`.
PAPER_CELLS = 113

SWEEP_COUNT = 100
SWEEP_D_MAX = 6
SWEEP_DEPTH_TRIALS = 64

COEFF_BOUND = 5
QUADRIC_VARS = 8
QUADRIC_COUNT = 4
ORACLE_VARS = 4
ORACLE_QUADRICS = 2
ORACLE_DEGREE = 9


@dataclass(frozen=True)
class Outcome:
    """Operations attempted and failed in one sample, and the output digest."""

    attempted: int
    failed: int
    digest: str


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli(argv: list[str]) -> tuple[int, str]:
    from hilbcalc import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _json_or_none(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


def quadric_literal(rng: random.Random, names: list[str]) -> str:
    """A quadric with every coefficient drawn from randint(-5, 5), in the
    DSL polynomial grammar; all-zero draws are redrawn."""
    while True:
        terms = []
        for a, b in itertools.combinations_with_replacement(range(len(names)), 2):
            c = rng.randint(-COEFF_BOUND, COEFF_BOUND)
            if c:
                mono = f"{names[a]}^2" if a == b else f"{names[a]}*{names[b]}"
                terms.append(f"{'-' if c < 0 else '+'} {abs(c)}*{mono}")
        if terms:
            return " ".join(terms).removeprefix("+ ")


def _variables(n: int) -> list[str]:
    return [f"x{i + 1}" for i in range(n)]


# ---------------------------------------------------------------------------
# paper-examples: cli.main(["paper-examples", ...]); one operation per cell


class PaperExamples:
    name = "paper-examples"
    operations = PAPER_CELLS

    def prepare(self, seed: int, workdir: Path):
        return ["paper-examples", "--json", "--seed", str(seed)]

    def call(self, argv):
        return _cli(argv)

    def check(self, argv, output) -> Outcome:
        code, text = output
        report = _json_or_none(text)
        cells = report.get("cells", []) if isinstance(report, dict) else []
        # an empty or short cell list is a refusal: its missing cells fail
        failed = sum(1 for c in cells if c.get("ok") is not True)
        failed += max(PAPER_CELLS - len(cells), 0)
        if code != 0:
            failed = max(failed, 1)
        return Outcome(max(PAPER_CELLS, len(cells)), failed, _digest(text.encode()))


# ---------------------------------------------------------------------------
# random-sweep: theorem.run_random_sensitivity_suite; one operation per
# verified (module, ssop, index) instance


class RandomSweep:
    name = "random-sweep"
    operations = SWEEP_COUNT

    def prepare(self, seed: int, workdir: Path):
        return seed

    def call(self, seed):
        from hilbcalc import theorem

        return theorem.run_random_sensitivity_suite(
            count=SWEEP_COUNT,
            seed=seed,
            d_max=SWEEP_D_MAX,
            depth_trials=SWEEP_DEPTH_TRIALS,
        )

    def check(self, seed, result) -> Outcome:
        rows = []
        failed = 0
        for x in result.instances:
            r = x.report
            if not r.parity_ok or (not r.equivalence_ok and r.depth_exact):
                failed += 1
            rows.append(
                [
                    x.seed, x.ring_dim, x.generator_exponents, x.i, r.s,
                    r.e_module, r.e_quotient, r.parity_ok, r.equality,
                    r.depth_value, r.depth_exact, r.equivalence_ok,
                    r.defect_lengths,
                ]
            )
        attempted = len(rows)
        if attempted < SWEEP_COUNT:
            failed += SWEEP_COUNT - attempted
            attempted = SWEEP_COUNT
        tuples = [rows, result.attempts, result.skipped_uncertified]
        return Outcome(attempted, failed, _digest(json.dumps(tuples).encode()))


# ---------------------------------------------------------------------------
# quadrics: cli.main(["run", script, ...]) on four generic quadrics in eight
# variables; one operation per script command


def complete_intersection_table(c: int) -> list[int]:
    """e_i of R/(c generic quadrics): h = (1 + t)^c, so e_i = C(c, i) 2^(c-i)."""
    return [comb(c, i) * 2 ** (c - i) for i in range(c + 1)]


class Quadrics:
    name = "quadrics"
    operations = 1

    def prepare(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        names = _variables(QUADRIC_VARS)
        gens = ", ".join(quadric_literal(rng, names) for _ in range(QUADRIC_COUNT))
        script = workdir / f"quadrics-{seed}.hc"
        script.write_text(
            f"ring {' '.join(names)};\nideal I = {gens};\nmodule M = R/I;\ncoeffs M;\n",
            encoding="utf-8",
        )
        return ["run", str(script), "--json", "--seed", str(seed)]

    def call(self, argv):
        return _cli(argv)

    def check(self, argv, output) -> Outcome:
        code, text = output
        report = _json_or_none(text)
        commands = report.get("commands", []) if isinstance(report, dict) else []
        expected = complete_intersection_table(QUADRIC_COUNT)
        good = [
            c
            for c in commands
            if c.get("ok") is True
            and c.get("table") == expected
            and c.get("dimension") == QUADRIC_VARS - QUADRIC_COUNT
        ]
        failed = 1 if code != 0 or len(commands) != 1 or len(good) != 1 else 0
        return Outcome(1, failed, _digest(text.encode()))


# ---------------------------------------------------------------------------
# oracle-check: cli.main(["oracle-check", ...]) on two generic quadrics in
# four variables; one operation per degree compared


class OracleCheck:
    name = "oracle-check"
    operations = ORACLE_DEGREE + 1

    def prepare(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        names = _variables(ORACLE_VARS)
        ideal = ", ".join(quadric_literal(rng, names) for _ in range(ORACLE_QUADRICS))
        return [
            "oracle-check", "--ring", " ".join(names), "--ideal", ideal,
            "--degree", str(ORACLE_DEGREE), "--json", "--seed", str(seed),
        ]

    def call(self, argv):
        return _cli(argv)

    def check(self, argv, output) -> Outcome:
        code, text = output
        degrees = ORACLE_DEGREE + 1
        report = _json_or_none(text)
        commands = report.get("commands", []) if isinstance(report, dict) else []
        entry = commands[0] if len(commands) == 1 else {}
        if code == 0 and entry.get("ok") is True and entry.get("first_mismatch") is None:
            failed = 0
        elif isinstance(entry.get("first_mismatch"), int):
            # degrees below the first mismatch agreed; the rest are unknown
            failed = degrees - entry["first_mismatch"]
        else:
            failed = degrees
        return Outcome(degrees, failed, _digest(text.encode()))


WORKLOADS = {
    w.name: w for w in (PaperExamples(), RandomSweep(), Quadrics(), OracleCheck())
}

