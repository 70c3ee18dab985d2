"""Smoke tests for the two scripts under scripts/, run in-process."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from hilbcalc.theorem import (
    MAXIMAL_TIMES_PRIME_CELLS,
    RESOLUTION_FAMILY_CELLS,
    TWO_PRIME_PRODUCT_CELLS,
)

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, capsys, name, *args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return capsys.readouterr().out


def test_paper_tables_prints_the_catalogue(monkeypatch, capsys):
    out = run_script(monkeypatch, capsys, "paper_tables.py")
    rows = [line for line in out.splitlines() if " e = " in line]
    # one row per catalogue entry, plus the generic-minors row
    catalogue = (
        len(RESOLUTION_FAMILY_CELLS)
        + len(MAXIMAL_TIMES_PRIME_CELLS)
        + len(TWO_PRIME_PRODUCT_CELLS)
    )
    assert len(rows) == catalogue + 1
    assert all(row.endswith("[ok]") for row in rows)
    assert "MISMATCH" not in out


def test_paper_tables_ends_quietly_when_its_reader_closes():
    # `paper_tables.py | head` used to end in a BrokenPipeError traceback
    # with exit 1: the table is longer than one pipe buffer, so the script
    # is still printing when the reader goes
    src = SCRIPTS.parent / "src"
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    child = subprocess.Popen(
        [sys.executable, str(SCRIPTS / "paper_tables.py")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": path},
    )
    try:
        assert child.stdout.readline() == b"shifted-free:\n"
        child.stdout.close()
        stderr = child.stderr.read().decode()
        assert child.wait(timeout=60) == 0, stderr
    finally:
        child.kill()
        child.stderr.close()
    assert stderr == ""


def test_random_sweep_is_clean(monkeypatch, capsys):
    with pytest.raises(SystemExit) as exc:
        run_script(monkeypatch, capsys, "random_sweep.py", "--count", "10")
    assert exc.value.code == 0
    assert "overall: clean" in capsys.readouterr().out


@pytest.mark.parametrize(
    "args",
    [("--d-max", "2"), ("--count", "-5"), ("--count", "0"), ("--depth-trials", "0")],
)
def test_random_sweep_refuses_out_of_range_options(monkeypatch, capsys, args):
    # --d-max 2 used to end in a ValueError traceback, and --count -5 in a
    # clean report of no instances
    with pytest.raises(SystemExit) as exc:
        run_script(monkeypatch, capsys, "random_sweep.py", *args)
    assert exc.value.code == 2
    assert f"argument {args[0]}: must be at least" in capsys.readouterr().err
