"""The benchmark's traced mode, run on corpus seed 0 of every workload.

The tracer rewrites hilbcalc's namespaces, so the run takes a fresh
interpreter.  It traces every workload twice, with the package caches
emptied before each one, and prints each pass's failed operations and
exact per-layer counts.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TRACED_RUN = """
import json, sys
from pathlib import Path

root, tmp = Path(sys.argv[1]), Path(sys.argv[2])
sys.path[:0] = [str(root / "src"), str(root / "perfbench"), str(root / "tests")]
from conftest import clear_memos
from tracing import Tracer, is_timing, layer_metrics
from workloads import WORKLOADS

tracer = Tracer()
tracer.install()
passes = []
for run in range(2):
    counts = {}
    for name, workload in WORKLOADS.items():
        clear_memos()
        tracer.spans.clear()
        tracer.kept.clear()
        inputs = workload.prepare(0, tmp)
        outcome = workload.check(inputs, workload.call(inputs))
        span_file = tmp / f"{name}-{run}.json"
        tracer.write(span_file)
        metrics = layer_metrics(span_file, 1.0)
        counts[name] = {k: v for k, v in metrics.items() if not is_timing(k)}
        counts[name]["failed"] = outcome.failed
    passes.append(counts)
print(json.dumps(passes))
"""


def test_traced_counts_repeat_and_reach_the_traced_layers(tmp_path):
    # a benchmark sample runs with HILBCALC_SEED removed from its environment
    env = {k: v for k, v in os.environ.items() if k != "HILBCALC_SEED"}
    done = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(ROOT), str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    first, second = json.loads(done.stdout)
    assert set(first) == {"paper-examples", "random-sweep", "quadrics", "oracle-check"}
    assert {name: c["failed"] for name, c in first.items()} == dict.fromkeys(first, 0)
    assert first == second
    assert all(c["presentation.series_of_cyclic.calls"] > 0 for c in first.values())
    for name in ("paper-examples", "random-sweep"):
        assert first[name]["superficial.depth.calls"] > 0
