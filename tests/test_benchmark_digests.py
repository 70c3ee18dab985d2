"""The benchmark's recorded outputs, replayed in process.

`perfbench/run.py` refuses a sample whose output digest differs from the
one recorded in `perfbench/reference.json`.  Replaying every corpus seed
of every workload here makes a change that moves an output byte fail the
test suite first, whichever seed it moves.  Each replay runs the workload's own `prepare`, `call`
and `check`, as a benchmark sample does, but in this process instead of
a fresh interpreter.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEEDS = range(32)


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _workloads()
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_replay_matches_the_recorded_digest(name, seed, tmp_path, monkeypatch):
    # a benchmark sample runs with HILBCALC_SEED removed from its environment
    monkeypatch.delenv("HILBCALC_SEED", raising=False)
    workload = WORKLOADS[name]
    inputs = workload.prepare(seed, tmp_path)
    outcome = workload.check(inputs, workload.call(inputs))
    assert outcome.failed == 0
    assert outcome.digest == REFERENCE[name][str(seed)]
