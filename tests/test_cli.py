"""End-to-end exit-status and report contracts for the driver."""

import argparse
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from hilbcalc import cli, theorem
from hilbcalc.cli import (
    EXIT_INTERNAL,
    _HANDLERS,
    build_parser,
    format_t_polynomial,
    main,
)
from hilbcalc.dsl import COMMANDS
from hilbcalc.monomial import MAX_PIVOT_NESTING
from hilbcalc.superficial import (
    PROBABLY_NOT_ADMISSIBLE,
    STOP_DIMENSION_ZERO,
    STOP_TRIALS_EXHAUSTED,
    AdmissibilityCertificate,
    DepthCertificate,
)
from hilbcalc.theorem import (
    MAXIMAL_TIMES_PRIME_CELLS,
    RESOLUTION_FAMILY_CELLS,
    TWO_PRIME_PRODUCT_CELLS,
)

FIXTURE = """\
ring x1 x2 y1;
ideal I = x1*y1, x2*y1;
module M = R/I;
forms F = y1 - x1;
series M;
coeffs M;
depth M;
superficial M F;
admissible M F;
verify M F i=1;
oracle M 10;
"""


@pytest.fixture()
def fixture_path(tmp_path):
    p = tmp_path / "fixture.hc"
    p.write_text(FIXTURE)
    return str(p)


# The full human output, pinned line for line; the `elapsed` line is
# dropped because it varies.
GOLDEN_RUN = """\
seed 0, trials 32, max degree 64
series M: (1 - 2*t^2 + t^3) / (1-t)^3, dimension 2
coeffs M: dimension 2, e = (1, -1, -1)
depth M: 1 (probabilistic: candidates ran out, trials 32), chain x1 + y1
superficial M F: socle lengths (0): PASS
admissible M F: certified, witness -x1 + y1, trials used 0: PASS
verify M F i=1: e_1 -1 -> -1, equality yes, depth 1 (exact), parity ok, equivalence ok: PASS
oracle M 10: all degrees agree: PASS
verify M: error: index 5 outside 0 <= i < 2: FAIL
status: fail
"""

GOLDEN_TRUNCATION = """\
seed 0, trials 32, max degree 4
truncation degree 4 is below the largest generator twist 16 of the resolution families; rerun with --max-degree >= 16
status: fail
"""


def _without_elapsed(out: str) -> str:
    lines = out.splitlines(keepends=True)
    return "".join(line for line in lines if not line.startswith("elapsed "))


def invoke(capsys, *args):
    code = main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


class TestRun:
    def test_fixture_passes(self, capsys, fixture_path):
        code, out, err = invoke(capsys, "run", fixture_path)
        assert code == 0
        assert "e = (1, -1, -1)" in out
        assert "status: pass" in out
        assert err == ""

    def test_json_report(self, capsys, fixture_path):
        code, out, _ = invoke(capsys, "run", fixture_path, "--json")
        assert code == 0
        report = json.loads(out)
        assert report["schema_version"] == 1
        assert report["kind"] == "run"
        assert report["status"] == "pass"
        by_kind = {e["command"]: e for e in report["commands"]}
        assert by_kind["coeffs"]["table"] == [1, -1, -1]
        assert by_kind["verify"]["equality"] is True
        assert by_kind["verify"]["depth"] == 1
        assert by_kind["verify"]["equivalence_ok"] is True
        # rationals travel as strings
        assert all(
            isinstance(c, str) for row in by_kind["depth"]["chain"] for c in row
        )

    def test_json_byte_identical(self, capsys, fixture_path):
        _, first, _ = invoke(capsys, "run", fixture_path, "--json")
        _, second, _ = invoke(capsys, "run", fixture_path, "--json")
        assert first == second

    def test_semantic_error_exits_2(self, capsys, tmp_path):
        p = tmp_path / "bad.hc"
        p.write_text("ring x;\nmodule M = R/J;\nseries M;\n")
        code, out, err = invoke(capsys, "run", str(p))
        assert code == 2
        assert "2:14" in err
        assert "J" in err
        assert out == ""

    def test_parse_error_exits_2(self, capsys, tmp_path):
        p = tmp_path / "bad.hc"
        p.write_text("ring x; ideal I = ;\n")
        code, _, err = invoke(capsys, "run", str(p))
        assert code == 2
        assert "expected" in err

    def test_huge_shift_exits_2(self, capsys, tmp_path):
        # the dense numerator of a shift this large overflowed into a
        # traceback with exit 1
        p = tmp_path / "shift.hc"
        p.write_text(
            "ring x;\nideal I = x;\nmodule M = R/I shift 99999999999999999999;\n"
            "series M;\n"
        )
        code, out, err = invoke(capsys, "run", str(p))
        assert code == 2
        assert out == ""
        assert err == (
            "error: 3:22: shift 99999999999999999999 is above 1000000, "
            "the largest a series numerator holds\n"
        )

    def test_huge_oracle_degree_exits_2(self, capsys, tmp_path):
        # the oracle counted every degree up to the literal and ended in an
        # internal MemoryError (exit 3)
        p = tmp_path / "oracle.hc"
        p.write_text("ring x;\nideal I = x^2;\nmodule M = R/I;\noracle M 99999999999;\n")
        code, out, err = invoke(capsys, "run", str(p), "--max-degree", "1000000")
        assert code == 2
        assert out == ""
        assert err == (
            "error: 4:10: oracle degree 99999999999 is above 1000000, "
            "the largest a series numerator holds\n"
        )

    def test_literal_past_the_digit_limit_exits_2(self, capsys, tmp_path):
        # int() of the literal raised ValueError: exit 3, "error: internal"
        limit = sys.get_int_max_str_digits()
        p = tmp_path / "huge.hc"
        p.write_text(f"ring x;\nideal I = x^2 + 1/{'7' * (limit + 1)}*x^2;\n")
        code, out, err = invoke(capsys, "run", str(p))
        assert code == 2
        assert out == ""
        assert err == (
            f"error: 2:17: a literal has {limit + 1} digits, more than {limit}, "
            "the interpreter's limit for reading an integer\n"
        )

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "run", str(tmp_path / "absent.hc"))
        assert code == 2
        assert "cannot read" in err

    def test_file_that_is_not_utf8_exits_2(self, capsys, tmp_path):
        # the decode error used to end in exit 3, "error: internal"
        p = tmp_path / "latin.hc"
        p.write_bytes(b"ring x;\nideal I = x\xff;\n")
        code, out, err = invoke(capsys, "run", str(p))
        assert code == 2
        assert out == ""
        assert err == (
            f"error: cannot read {p}: 'utf-8' codec can't decode byte 0xff "
            "in position 19: invalid start byte\n"
        )

    def test_non_admissible_verify_exits_1(self, capsys, tmp_path):
        p = tmp_path / "nonadm.hc"
        p.write_text(
            "ring x1 x2 y1; ideal I = x1*y1, x2*y1; module M = R/I;\n"
            "forms F = x2; verify M F i=1;\n"
        )
        code, out, _ = invoke(capsys, "run", str(p), "--trials", "8")
        assert code == 1
        assert "probably-not-admissible" in out
        assert "status: fail" in out

    def test_human_lines_golden(self, capsys, tmp_path):
        p = tmp_path / "golden.hc"
        p.write_text(FIXTURE + "verify M F i=5;\n")
        code, out, _ = invoke(capsys, "run", str(p))
        assert code == 1
        assert _without_elapsed(out) == GOLDEN_RUN

    def test_quiet_silences_stdout(self, capsys, fixture_path):
        code, out, _ = invoke(capsys, "run", fixture_path, "--quiet")
        assert code == 0
        assert out == ""


class TestOneShot:
    RING = ("--ring", "x1 x2 y1", "--ideal", "x1*y1, x2*y1")

    def test_series(self, capsys):
        code, out, _ = invoke(capsys, "series", *self.RING)
        assert code == 0
        assert "(1 - 2*t^2 + t^3) / (1-t)^3" in out

    def test_coeffs_with_shift(self, capsys):
        code, out, _ = invoke(
            capsys, "coeffs", "--ring", "x1 x2", "--ideal", "x1^2", "--shift", "1"
        )
        assert code == 0
        assert "dimension 1" in out

    def test_zero_module_coeffs_json(self, capsys):
        code, out, _ = invoke(
            capsys, "coeffs", "--ring", "x y", "--ideal", "x^0", "--json"
        )
        assert code == 0
        (entry,) = json.loads(out)["commands"]
        assert entry["dimension"] == "-infinity"
        assert entry["table"] == []

    @pytest.mark.parametrize(
        "ring, ideal, numerator",
        [
            ("x", "x^2000", {0: 1, 2000: -1}),
            ("x y", "x^495, y^2", {0: 1, 2: -1, 495: -1, 497: 1}),
            (
                "x y z",
                "x^700*y, y^700*z, z^700*x",
                {0: 1, 701: -3, 1401: 3, 2100: -1},
            ),
        ],
    )
    def test_high_power_series_json(self, capsys, ring, ideal, numerator):
        # all once a RecursionError traceback; the first two have pairwise
        # coprime generators, and the third takes 7 pivot steps, 3 of them splits
        code, out, _ = invoke(capsys, "series", "--ring", ring, "--ideal", ideal, "--json")
        assert code == 0
        (entry,) = json.loads(out)["commands"]
        expected = [0] * (max(numerator) + 1)
        for power, c in numerator.items():
            expected[power] = c
        assert entry["numerator"] == expected

    @pytest.mark.parametrize("extra, status", [(0, 0), (1, 2)])
    def test_walk_nesting_limit(self, capsys, extra, status):
        # two generators sharing n - 1 variables nest n - 1 splits, so
        # n = MAX_PIVOT_NESTING + 1 runs and one more is refused
        n = MAX_PIVOT_NESTING + 1 + extra
        ring = " ".join(f"x{i}" for i in range(n + 1))
        ideal = "*".join(f"x{i}" for i in range(n)) + ", " + "*".join(
            f"x{i}" for i in range(1, n + 1)
        )
        code, out, err = invoke(capsys, "series", "--ring", ring, "--ideal", ideal, "--json")
        assert code == status
        if status:
            assert err.startswith("error: series M: a monomial ideal of 2 generators")
            assert f"may nest {n - 1} pivot splits" in err
        else:
            (entry,) = json.loads(out)["commands"]
            # x0*g and g*x_n for g = x1*...*x_(n-1)
            assert entry["numerator"] == [1] + [0] * (n - 1) + [-2, 1]

    def test_depth(self, capsys):
        code, out, _ = invoke(capsys, "depth", *self.RING)
        assert code == 0
        assert "depth M: 1" in out

    def test_superficial(self, capsys):
        code, out, _ = invoke(
            capsys, "superficial", *self.RING, "--forms", "y1 - x1"
        )
        assert code == 0
        assert "socle lengths (0)" in out

    def test_superficial_failed_step_prints_a_dash(self, capsys):
        args = ("--ring", "x y", "--ideal", "x^2", "--forms", "x, y")
        code, out, _ = invoke(capsys, "superficial", *args)
        assert code == 1
        assert "socle lengths (-, 0): FAIL" in out
        _, out, _ = invoke(capsys, "superficial", *args, "--json")
        (entry,) = json.loads(out)["commands"]
        assert [step["socle_length"] for step in entry["steps"]] == [None, 0]

    def test_admissible(self, capsys):
        code, out, _ = invoke(
            capsys, "admissible", *self.RING, "--forms", "y1 - x1"
        )
        assert code == 0
        assert "certified" in out

    RATIONAL_FORMS = (
        "admissible", "--ring", "x y z", "--ideal", "x*z, y*z",
        "--forms", "1/2*x - z, 3*y + 1/7*z",
    )

    def test_admissible_rational_forms(self, capsys):
        code, out, _ = invoke(capsys, *self.RATIONAL_FORMS, "--json")
        assert code == 0
        (entry,) = json.loads(out)["commands"]
        assert entry["verdict"] == "certified"
        assert entry["witness"] == [["1/2", "0", "-1"], ["0", "3", "1/7"]]
        code, out, _ = invoke(capsys, *self.RATIONAL_FORMS)
        assert code == 0
        assert _without_elapsed(out) == (
            "seed 0, trials 32, max degree 64\n"
            "admissible M F: certified, witness 1/2*x - z; 3*y + 1/7*z, "
            "trials used 0: PASS\n"
            "status: pass\n"
        )

    def test_admissible_not_ssop_has_null_witness(self, capsys):
        code, out, _ = invoke(
            capsys, "admissible", "--ring", "x y", "--ideal", "x*y",
            "--forms", "x", "--json",
        )
        assert code == 1
        (entry,) = json.loads(out)["commands"]
        assert entry["verdict"] == "not-ssop"
        assert entry["witness"] is None
        code, out, _ = invoke(
            capsys, "admissible", "--ring", "x y", "--ideal", "x*y", "--forms", "x"
        )
        assert code == 1
        assert "not-ssop, witness (none)" in out

    def test_verify(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", *self.RING, "--forms", "y1 - x1", "-i", "1"
        )
        assert code == 0
        assert "equality yes" in out

    def test_verify_failure_exit(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", *self.RING, "--forms", "x2", "-i", "1",
            "--trials", "8",
        )
        assert code == 1

    SIX_CYCLE = (
        "--ring", "a b c d e f", "--ideal", "a*b, b*c, c*d, d*e, e*f, f*a",
        "--forms", "a+2*b-c+3*d+e-2*f, 2*a-b+c+d-3*e+f", "-i", "1",
    )

    def test_verify_on_the_six_cycle(self, capsys):
        # depth R/I(C_6) = 2 = s - i, so e_1 keeps its value; the default
        # trials find the chain on six variables
        code, out, _ = invoke(capsys, "verify", *self.SIX_CYCLE)
        assert code == 0
        assert "depth 2 (exact)" in out

    @pytest.mark.parametrize(
        "stop, code, verdict",
        [
            (STOP_TRIALS_EXHAUSTED, 0, "equivalence unproven: PASS"),
            (STOP_DIMENSION_ZERO, 1, "equivalence VIOLATED: FAIL"),
        ],
    )
    def test_equivalence_miss_counts_on_an_exact_depth_only(
        self, capsys, monkeypatch, stop, code, verdict
    ):
        # a depth from exhausted trials is only a lower bound: a miss
        # against it is unproven, not a counterexample
        monkeypatch.setattr(
            theorem, "depth", lambda M, seed, trials: DepthCertificate(0, (), stop, 0)
        )
        status, out, _ = invoke(capsys, "verify", *self.SIX_CYCLE)
        assert status == code
        assert verdict in out
        status, out, _ = invoke(capsys, "verify", *self.SIX_CYCLE, "--json")
        assert status == code
        (entry,) = json.loads(out)["commands"]
        assert (entry["depth"], entry["equality"], entry["equivalence_ok"]) == (
            0, True, False
        )
        assert entry["depth_exact"] is (stop == STOP_DIMENSION_ZERO)
        assert entry["ok"] is (code == 0)

    def test_oracle_check(self, capsys):
        code, out, _ = invoke(capsys, "oracle-check", *self.RING, "--degree", "8")
        assert code == 0
        assert "all degrees agree" in out

    def test_oracle_check_at_degree_400(self, capsys):
        # the standard-monomial count of a monomial ideal stays fast at
        # high degree
        code, out, _ = invoke(
            capsys, "oracle-check", "--ring", "x y z", "--ideal", "x^2",
            "--degree", "400", "--max-degree", "400",
        )
        assert code == 0
        assert "all degrees agree" in out

    def test_oracle_truncation_skip(self, capsys):
        code, out, _ = invoke(
            capsys, "oracle-check", *self.RING,
            "--degree", "100", "--max-degree", "10",
        )
        assert code == 1
        assert "exceeds" in out

    def test_inline_fragment_injection_rejected(self, capsys):
        code, _, err = invoke(
            capsys, "series", "--ring", "x1", "--ideal", "x1; depth M"
        )
        assert code == 2
        assert "bare literal" in err

    def test_inline_parse_error(self, capsys):
        code, _, err = invoke(capsys, "series", "--ring", "x1", "--ideal", "x1 +")
        assert code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(
                ["series", "--ring", "x1", "--ideal", "x1 +"],
                "error: --ideal: unexpected end of value (expected a ring variable)\n",
                id="ideal-end",
            ),
            pytest.param(
                ["verify", "--ring", "x y", "--ideal", "x*y", "--forms", "x^2", "-i", "0"],
                "error: --forms, column 1: form must have degree exactly 1, got [2]\n",
                id="forms",
            ),
            pytest.param(
                ["series", "--ring", "x y", "--ideal", "x*y,\n y@"],
                "error: --ideal, column 8: illegal character '@'\n",
                id="ideal-second-line",
            ),
            pytest.param(
                ["series", "--ring", "x R", "--ideal", "x"],
                "error: --ring, column 3: R names the ambient ring and cannot be a variable\n",
                id="ring",
            ),
            # was placed at the ideal's name in the generated script (2:7)
            pytest.param(
                ["series", "--ring", "x y", "--ideal", "0*x"],
                "error: --ideal, column 1: every generator of I cancels to zero\n",
                id="zero-ideal",
            ),
        ],
    )
    def test_language_errors_name_the_option(self, capsys, argv, message):
        code, _, err = invoke(capsys, *argv)
        assert code == 2
        assert err == message

    def test_coeffs_of_a_large_shift(self, capsys):
        # (R/(xy))(-r) has h-polynomial t^r (1 + t), so e_i = C(r, i) + C(r+1, i)
        r = 1000
        code, out, _ = invoke(
            capsys, "coeffs", "--ring", "x y", "--ideal", "x*y", "--shift", str(r), "--json"
        )
        assert code == 0
        (entry,) = json.loads(out)["commands"]
        assert entry["dimension"] == 1
        assert entry["table"] == [math.comb(r, i) + math.comb(r + 1, i) for i in range(r + 2)]

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(
                ["depth", "--trials", "0"], "--trials: must be at least 1", id="0"
            ),
            pytest.param(
                ["depth", "--trials", "-1"], "--trials: must be at least 1", id="-1"
            ),
            pytest.param(
                ["coeffs", "--max-degree", "-1"],
                "--max-degree: must be at least 0",
                id="max-degree",
            ),
            pytest.param(
                ["coeffs", "--shift", "-1"], "--shift: must be at least 0", id="shift"
            ),
            pytest.param(
                ["series", "--shift", "99999999999999999999"],
                "--shift: must be at most 1000000, got 99999999999999999999",
                id="huge-shift",
            ),
            pytest.param(
                ["verify", "--forms", "x", "-i", "-1"],
                "-i/--index: must be at least 0, got -1",
                id="index",
            ),
            pytest.param(
                ["oracle-check", "--degree", "-1"],
                "--degree: must be at least 0",
                id="degree",
            ),
            # degrees this large ended in an internal MemoryError (exit 3)
            pytest.param(
                ["oracle-check", "--degree", "99999999999", "--max-degree", "1000000"],
                "--degree: must be at most 1000000, got 99999999999",
                id="huge-degree",
            ),
            pytest.param(
                ["oracle-check", "--degree", "9", "--max-degree", "99999999999999"],
                "--max-degree: must be at most 1000000, got 99999999999999",
                id="huge-max-degree",
            ),
        ],
    )
    def test_trials_below_one_exits_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--ring", "x y", "--ideal", "x*y", *argv[1:]])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_zero_denominator_exits_2(self, capsys):
        code, _, err = invoke(capsys, "coeffs", "--ring", "x", "--ideal", "1/0*x")
        assert code == 2
        assert "zero denominator" in err

    def test_huge_exponent_exits_2(self, capsys):
        # the dense series numerator cannot hold this exponent; it used to
        # end in an internal OverflowError
        code, out, err = invoke(
            capsys, "series", "--ring", "x", "--ideal", "x^99999999999999999999"
        )
        assert code == 2
        assert out == ""
        assert err == (
            "error: --ideal, column 3: exponent 99999999999999999999 is above "
            "1000000, the largest a series numerator holds\n"
        )

    def test_accumulated_exponent_exits_2(self, capsys):
        # each literal is in range; the term's exponent of x is not
        code, out, err = invoke(
            capsys, "series", "--ring", "x y", "--ideal", "x^600000*x^600000*y, y^2"
        )
        assert code == 2
        assert out == ""
        assert err == (
            "error: --ideal, column 10: exponent of x reaches 1200000 in one term, "
            "above 1000000, the largest a series numerator holds\n"
        )

    @pytest.mark.parametrize(
        "ideal, column",
        [("{n}*x", 1), ("x^{n}", 3), ("x + 1/{n}*x", 5)],
        ids=["coefficient", "exponent", "denominator"],
    )
    def test_literal_past_the_digit_limit_exits_2(self, capsys, ideal, column):
        # int() of the literal raised ValueError: exit 3, "error: internal"
        limit = sys.get_int_max_str_digits()
        ideal = ideal.format(n="7" * (limit + 1))
        code, out, err = invoke(capsys, "series", "--ring", "x", "--ideal", ideal)
        assert code == 2
        assert out == ""
        assert err == (
            f"error: --ideal, column {column}: a literal has {limit + 1} digits, "
            f"more than {limit}, the interpreter's limit for reading an integer\n"
        )

    @pytest.mark.parametrize("as_json", [False, True])
    def test_coefficient_past_the_digit_limit_exits_2(self, capsys, as_json):
        # some e_i of this table have more digits than int prints by
        # default; this used to be reported as a failed check (exit 1)
        argv = ["coeffs", "--ring", "x y", "--ideal", "x^20000*y, y^3"]
        code, out, err = invoke(capsys, *argv, *(["--json"] if as_json else []))
        assert code == 2
        assert out == ""
        assert err == (
            f"error: coeffs M: a result has more than {sys.get_int_max_str_digits()} "
            "digits, the interpreter's limit for printing an integer\n"
        )

    def test_internal_error_exits_3(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "series_of_cyclic", fail)
        code, out, err = invoke(capsys, "series", "--ring", "x", "--ideal", "x")
        assert code == EXIT_INTERNAL == 3
        assert out == ""
        assert err == "error: internal: RuntimeError: boom\n"

    def test_interrupt_is_not_an_internal_error(self, capsys, monkeypatch):
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "series_of_cyclic", interrupt)
        with pytest.raises(KeyboardInterrupt):
            main(["series", "--ring", "x", "--ideal", "x"])


class TestSeedHandling:
    def test_env_seed_default(self, capsys, monkeypatch):
        monkeypatch.setenv("HILBCALC_SEED", "7")
        _, out, _ = invoke(
            capsys, "depth", "--ring", "x1 x2", "--ideal", "x1*x2"
        )
        assert out.startswith("seed 7,")

    def test_flag_supersedes_env(self, capsys, monkeypatch):
        monkeypatch.setenv("HILBCALC_SEED", "7")
        _, out, _ = invoke(
            capsys, "depth", "--ring", "x1 x2", "--ideal", "x1*x2", "--seed", "3"
        )
        assert out.startswith("seed 3,")

    def test_bad_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("HILBCALC_SEED", "not-a-number")
        with pytest.raises(SystemExit) as exc:
            main(["depth", "--ring", "x1", "--ideal", "x1"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: HILBCALC_SEED must be an integer, got 'not-a-number'\n"


class TestPaperExamples:
    def test_full_sweep_passes(self, capsys):
        code, out, _ = invoke(capsys, "paper-examples")
        assert code == 0
        assert "status: pass" in out
        assert "113/113 cells pass" in out

    def test_truncation_guard(self, capsys):
        code, out, _ = invoke(capsys, "paper-examples", "--max-degree", "4")
        assert code == 1
        assert "truncation degree 4" in out
        assert "--max-degree >= 16" in out
        assert _without_elapsed(out) == GOLDEN_TRUNCATION

    def test_passing_human_output_is_one_line_per_cell(self, capsys):
        def cell(example, params):
            text = ", ".join(f"{k}={v}" for k, v in sorted(params.items()))
            return f"{example} [{text}]: PASS"

        expected = ["seed 0, trials 32, max degree 64"]
        expected += [cell(case, params) for case, params in RESOLUTION_FAMILY_CELLS]
        expected.append(cell("hilbert-burch-minors", {"d": 3, "m": 2}))
        expected += [
            cell("maximal-times-prime", {"d": d, "s": s})
            for d, s in MAXIMAL_TIMES_PRIME_CELLS
        ]
        expected += [
            cell("two-prime-product", {"r": r, "s": s})
            for r, s in TWO_PRIME_PRODUCT_CELLS
        ]
        expected += ["113/113 cells pass", "status: pass"]
        code, out, _ = invoke(capsys, "paper-examples", "--seed", "0")
        assert code == 0
        assert _without_elapsed(out) == "".join(line + "\n" for line in expected)

    def test_a_failed_check_prints_its_detail(self, capsys, monkeypatch):
        broken = theorem.SuiteResult(
            "two-prime-product",
            (("r", 1), ("s", 2)),
            (
                theorem.CheckResult("dimension", True, "2"),
                theorem.CheckResult("table", False, "got (1, 2)"),
                theorem.CheckResult("certified[i=0]", False),
            ),
        )
        monkeypatch.setattr(
            cli, "run_two_prime_product_suite", lambda r, s, seed, trials: broken
        )
        code, out, _ = invoke(capsys, "paper-examples", "--seed", "0")
        assert code == 1
        block = (
            "two-prime-product [r=1, s=2]: FAIL\n"
            "    failed: table (got (1, 2))\n"
            "    failed: certified[i=0]\n"
        )
        assert out.count(block) == len(TWO_PRIME_PRODUCT_CELLS)
        assert out.count("    failed: ") == 2 * len(TWO_PRIME_PRODUCT_CELLS)
        assert "103/113 cells pass\nstatus: fail\n" in out

        code, out, _ = invoke(capsys, "paper-examples", "--seed", "0", "--json")
        assert code == 1
        report = json.loads(out)
        entries = [c for cell in report["cells"] for c in cell.get("checks", ())]
        assert {"table", "certified[i=0]"} <= {c["name"] for c in entries}
        assert all(set(c) == {"name", "ok"} for c in entries)

    def test_json_enumerates_cells(self, capsys):
        code, out, _ = invoke(capsys, "paper-examples", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["kind"] == "paper-examples"
        examples = {c["example"] for c in report["cells"]}
        assert examples == {
            "shifted-free",
            "hypersurface",
            "complete-intersection-2",
            "hilbert-burch",
            "hilbert-burch-minors",
            "maximal-times-prime",
            "two-prime-product",
        }
        suite = next(
            c for c in report["cells"] if c["example"] == "maximal-times-prime"
        )
        check_names = {c["name"] for c in suite["checks"]}
        assert any(n.startswith("sensitivity[i=") for n in check_names)

    def test_uncertified_trials_fail_without_traceback(self, capsys, monkeypatch):
        # one trial is one random draw after the fixed prefix, which
        # certifies every cell
        code, full, _ = invoke(capsys, "paper-examples", "--trials", "1", "--json")
        assert code == 0
        # a search that certifies nothing leaves the ssops uncertified; the
        # suites record that as failed checks instead of raising
        monkeypatch.setattr(
            theorem,
            "find_superficial_sequence",
            lambda M, fs, seed, trials: AdmissibilityCertificate(
                PROBABLY_NOT_ADMISSIBLE, None, trials
            ),
        )
        code, out, err = invoke(capsys, "paper-examples", "--trials", "1", "--json")
        assert code == 1
        assert err == ""
        report = json.loads(out)
        assert report["status"] == "fail"
        failed = {
            c["name"]
            for cell in report["cells"]
            for c in cell.get("checks", ())
            if not c["ok"]
        }
        assert any(n.startswith("sensitivity[i=") for n in failed)
        names = [
            [c["name"] for c in cell.get("checks", ())] for cell in report["cells"]
        ]
        assert names == [
            [c["name"] for c in cell.get("checks", ())]
            for cell in json.loads(full)["cells"]
        ]


# argv whose output must not depend on how much of the parser main builds:
# help, usage and every kind of argparse error, at each level.
PARSER_GOLDEN_ARGV = [
    [],
    ["-h"],
    ["bogus"],
    ["--seed", "3", "run", "f.hc"],
    ["run"],
    ["run", "--help"],
    ["oracle-check", "-h"],
    ["series"],
    ["run", "f.hc", "--trials", "0"],
    ["run", "f.hc", "extra"],
    ["paper-examples", "--bogus"],
    ["series", "--ring", "x y", "--ideal", "x^2", "--forms", "x"],
    ["verify", "--ring", "x y", "--ideal", "x*y", "--forms", "x"],
    ["series", "--ring", "x y", "--ideal", "x*y"],
    ["run", "f.hc", "--json"],
]


def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, _without_elapsed(out), err


class TestSingleSubcommandParser:
    @pytest.mark.parametrize("argv", PARSER_GOLDEN_ARGV, ids=" ".join)
    def test_output_matches_the_full_parser(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.delenv("HILBCALC_SEED", raising=False)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "f.hc").write_text(FIXTURE)
        full = build_parser(0)
        names = next(
            a for a in full._actions if isinstance(a, argparse._SubParsersAction)
        ).choices
        built = []

        def spy(default_seed, only=None):
            built.append(only)
            return build_parser(default_seed, only)

        monkeypatch.setattr(cli, "build_parser", spy)
        single = _outcome(capsys, argv)
        # the comparison means something only if main took the short path
        assert built == [argv[0] if argv and argv[0] in names else None]
        monkeypatch.setattr(
            cli, "build_parser", lambda default_seed, only=None: build_parser(default_seed)
        )
        assert _outcome(capsys, argv) == single

    @pytest.mark.parametrize(
        "argv, message",
        [
            ([], "the following arguments are required: subcommand\n"),
            (["bogus"], "argument subcommand: invalid choice: 'bogus'"),
        ],
    )
    def test_full_build_names_the_subcommand_argument(self, capsys, argv, message):
        # a metavar on the full build would rename the argument here
        code, _, err = _outcome(capsys, argv)
        assert code == 2
        assert message in err


class TestTopLevelParser:
    def test_help_describes_every_subcommand(self, capsys):
        code, out, _ = _outcome(capsys, ["-h"])
        assert code == 0
        flat = " ".join(out.split())
        for name, (_, help_line) in cli._SUBCOMMANDS.items():
            assert help_line
            assert f" {name} {help_line} " in flat

    def test_one_shot_help_is_worded_as_in_the_readme(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        table = readme.split("## Subcommands", 1)[1].split("\n## ", 1)[0]
        rows = {}
        for line in table.splitlines():
            if line.startswith("| `"):
                name, text = (cell.strip() for cell in line.strip("|").split("|"))
                rows[name.strip("`").split()[0]] = text.replace("`", "")
        for name, (keyword, help_line) in cli._SUBCOMMANDS.items():
            if keyword is not None:
                assert help_line == rows[name]

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["--seed", "3", "run", "f.hc"], "--seed"),
            (["--max-degree=4", "series"], "--max-degree"),
            (["--json"], "--json"),
            (["-x", "run"], "-x"),
        ],
    )
    def test_option_before_the_subcommand_is_named(self, capsys, argv, option):
        code, out, err = _outcome(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.endswith(
            f"error: option {option} precedes the subcommand; "
            "options follow the subcommand\n"
        )

    def test_help_abbreviation_still_prints_help(self, capsys):
        assert _outcome(capsys, ["--he"]) == _outcome(capsys, ["--help"])

    def test_leading_end_of_options_marker_is_dropped(self, capsys):
        demo = str(Path(__file__).parents[1] / "scripts" / "demo.hc")
        for extra in ([], ["--json"]):
            expected = _outcome(capsys, ["run", demo, *extra])
            assert expected[0] == 0
            assert _outcome(capsys, ["--", "run", demo, *extra]) == expected
        code, out, err = _outcome(capsys, ["--"])
        assert (code, out) == (2, "")
        assert "the following arguments are required: subcommand\n" in err


class TestCommandTable:
    def test_one_command_list_everywhere(self):
        """The handlers, the one-shot subcommands and the command table of
        docs/dsl.md all name exactly the script commands of dsl.COMMANDS."""
        keywords = set(COMMANDS)
        assert set(_HANDLERS) == keywords
        sub = next(
            a
            for a in build_parser(0)._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        oneshot = set(sub.choices) - {"run", "paper-examples"}
        assert oneshot == {"oracle-check" if k == "oracle" else k for k in keywords}
        doc = (Path(__file__).parents[1] / "docs" / "dsl.md").read_text()
        table = doc.split("## Commands", 1)[1].split("\n## ", 1)[0]
        documented = {
            line.split("`")[1].split()[0]
            for line in table.splitlines()
            if line.startswith("| `")
        }
        assert documented == keywords


def test_t_polynomial_formatting():
    assert format_t_polynomial([1, 0, -2, 1]) == "1 - 2*t^2 + t^3"
    assert format_t_polynomial([0, 1]) == "t"
    assert format_t_polynomial([-3]) == "-3"
    assert format_t_polynomial([0, 0]) == "0"
    assert format_t_polynomial([0, -2, 5]) == "-2*t + 5*t^2"


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-m", "hilbcalc", "series", "--ring", "x y", "--ideal", "x*y",
         "--json"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["status"] == "pass"


def test_deep_pivot_chain_in_bounded_memory():
    """x^N*y, x^N*z, y*z with N = 30000, in a child capped at 1.5 GB of
    address space.  Lowering x by one factor per split would walk N nodes,
    each with a numerator of up to N terms; a power pivot halves the
    distinct exponents of x instead."""
    n = 30000
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    cap = 1536 << 20
    done = subprocess.run(
        [sys.executable, "-m", "hilbcalc", "series", "--ring", "x y z", "--ideal",
         f"x^{n}*y, x^{n}*z, y*z", "--json"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert done.returncode == 0, done.stderr
    (entry,) = json.loads(done.stdout)["commands"]
    # 1 - t^2 - 2 t^(N+1) + 2 t^(N+2)
    assert entry["numerator"] == [1, 0, -1] + [0] * (n - 2) + [-2, 2]


def test_closed_stdout_ends_quietly():
    """A reader that stops after 10 bytes of a long report: the run still
    exits with its own status, with no internal error."""
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    child = subprocess.Popen(
        [sys.executable, "-m", "hilbcalc", "coeffs", "--ring", "x y z", "--ideal", "x^2",
         "--shift", "2000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": path},
    )
    try:
        assert len(child.stdout.read(10)) == 10
        child.stdout.close()
        stderr = child.stderr.read().decode()
        assert child.wait(timeout=60) == 0, stderr
    finally:
        child.kill()
        child.stderr.close()
    assert "internal" not in stderr
