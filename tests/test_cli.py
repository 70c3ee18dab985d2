"""End-to-end exit-status and report contracts for the driver."""

import json

import pytest

from hilbcalc.cli import format_t_polynomial, main

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
depth M: 1 (probabilistic: 32 candidates failed), chain x1 + y1
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

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "run", str(tmp_path / "absent.hc"))
        assert code == 2
        assert "cannot read" in err

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

    def test_admissible(self, capsys):
        code, out, _ = invoke(
            capsys, "admissible", *self.RING, "--forms", "y1 - x1"
        )
        assert code == 0
        assert "certified" in out

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

    def test_oracle_check(self, capsys):
        code, out, _ = invoke(capsys, "oracle-check", *self.RING, "--degree", "8")
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
                ["oracle-check", "--degree", "-1"],
                "--degree: must be at least 0",
                id="degree",
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
        with pytest.raises(SystemExit, match="HILBCALC_SEED"):
            main(["depth", "--ring", "x1", "--ideal", "x1"])
        capsys.readouterr()


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


def test_t_polynomial_formatting():
    assert format_t_polynomial([1, 0, -2, 1]) == "1 - 2*t^2 + t^3"
    assert format_t_polynomial([0, 1]) == "t"
    assert format_t_polynomial([-3]) == "-3"
    assert format_t_polynomial([0, 0]) == "0"
    assert format_t_polynomial([0, -2, 5]) == "-2*t + 5*t^2"
