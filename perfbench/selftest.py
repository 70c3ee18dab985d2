"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  Checks that
  * BENCHMARK.json names exactly the metrics run.py prints, with their units;
  * two traced runs on one seed give identical exact counts, per workload;
  * the dominant layer is the one the layer map in README.md states:
    int_rank holds at least 90% of oracle-check's traced self time and
    normal_form at least 80% of quadrics'.
Exits 1 on the first failed check.
"""

import json
import subprocess
import sys

from run import END_TO_END_UNITS, ROOT
from tracing import PER_LAYER, is_timing
from workloads import WORKLOADS

SEED = 7
DOMINANT = {
    "oracle-check": ("linalg.int_rank.self_rel", 0.90),
    "quadrics": ("polyring.normal_form.self_rel", 0.80),
}


def fail(message: str) -> None:
    print(f"FAIL {message}")
    sys.exit(1)


def traced(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        fail(f"{workload}: traced run exited {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        fail(f"{workload}: traced run reported failed operations")
    return {k: m["value"] for k, m in result["metrics"].items()}


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        fail("BENCHMARK.json workloads differ from workloads.py")
    if {(m["name"], m["unit"]) for m in spec["end_to_end"]} != set(END_TO_END_UNITS.items()):
        fail("BENCHMARK.json end_to_end metrics differ from run.py")
    if {(m["name"], m["unit"]) for m in spec["per_layer"]} != set(PER_LAYER):
        fail("BENCHMARK.json per_layer metrics differ from tracing.py")
    print("ok   BENCHMARK.json matches the metrics the benchmark prints")

    for workload in sorted(WORKLOADS):
        first, second = traced(workload), traced(workload)
        for name, value in first.items():
            if not is_timing(name) and second[name] != value:
                fail(f"{workload}: {name} is {value} then {second[name]}")
        print(f"ok   {workload}: two traced runs on seed {SEED} give identical counts")
        if workload in DOMINANT:
            name, floor = DOMINANT[workload]
            total = sum(v for k, v in first.items() if k.endswith(".self_rel"))
            share = first[name] / total
            if share < floor:
                fail(f"{workload}: {name} is {share:.1%} of self time, below {floor:.0%}")
            print(f"ok   {workload}: {name} is {share:.1%} of traced self time")


if __name__ == "__main__":
    main()
