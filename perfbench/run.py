"""hilbcalc benchmark: four workloads, each sample in a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads (see ``workloads.py`` and ``README.md``):
paper-examples, random-sweep, quadrics, oracle-check.

Inputs come from a corpus of CORPUS_SIZE seeds per workload whose output
digests were recorded in ``reference.json``; ``--seed`` picks the order in
which a run walks the corpus.  Samples run one at a time, each in its own
interpreter, so no process-global cache of the package survives from one
sample to the next.  Samples start until ``--seconds`` have passed.

With ``--trace 0`` the run reports the medians over its samples of
``wall_rel`` (the workload call's wall time over the duration of the
host-speed probe measured during the call, see ``probe.py``) and
``peak_rss_mb``, and the pairwise median of ``setup_s`` (child launch to
ready: start-up, ``import hilbcalc``, input generation).  The raw ``wall_s`` median is printed as well.  With
``--trace 1`` it alternates untraced and traced samples of the run's first
corpus input and reports the per-layer metrics of ``tracing.py``; their
exact counts must agree between the traced samples.

Every operation's output is checked after the clock stops.  The last
stdout line is the JSON result; the exit status is 1 when any operation
failed and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER, is_timing, layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.json"
CORPUS_SIZE = 32
SAMPLE_TIMEOUT_S = 120

END_TO_END_UNITS = {"wall_rel": "x", "setup_s": "s", "peak_rss_mb": "MB"}
UNITS = {**END_TO_END_UNITS, **dict(PER_LAYER)}


class BenchError(RuntimeError):
    """The benchmark itself could not run."""


def corpus_order(seed: int) -> list[int]:
    """The run's walk through the corpus, fixed by its seed."""
    order = list(range(CORPUS_SIZE))
    random.Random(seed).shuffle(order)
    return order


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "HILBCALC_SEED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


@contextlib.contextmanager
def scratch_dir(name: str):
    """A directory for scripts and span files, removed afterwards."""
    path = ROOT / ".perfbench-tmp" / name
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            path.parent.rmdir()


def run_sample(workload: str, seed: int, workdir: Path, span_file: Path | None = None) -> dict:
    """Run one sample in a fresh interpreter and return its record."""
    cmd = [sys.executable, str(CHILD), workload, str(seed), str(workdir)]
    if span_file is not None:
        cmd.append(str(span_file))
    launch_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=SAMPLE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} seed {seed}: sample exceeded {SAMPLE_TIMEOUT_S}s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.splitlines()[-5:])
        raise BenchError(f"{workload} seed {seed}: sample exited {proc.returncode}\n{tail}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    record = json.loads(lines[-1])
    record["seed"] = seed
    record["traced"] = span_file is not None
    record["setup_s"] = (record["ready_ns"] - launch_ns) / 1e9
    return record


def check_digest(record: dict, reference: dict) -> dict:
    """A sample whose output differs from the recorded one fails entirely."""
    if record["digest"] != reference.get(str(record["seed"])):
        print(
            f"output digest mismatch on corpus seed {record['seed']}",
            file=sys.stderr,
        )
        record["failed"] = record["attempted"]
    return record


def pairwise_median(values) -> float:
    """Hodges-Lehmann estimate: the median of the means of all pairs.

    Set-up times on a shared host fall into two modes (near 0.14 s and near
    0.21 s here) in a proportion that drifts; the plain median jumps from one
    mode to the other as the proportion crosses one half, while this
    estimate moves with the proportion and stays robust to outliers.
    """
    v = list(values)
    return statistics.median((a + b) / 2 for i, a in enumerate(v) for b in v[i:])


def plain_run(workload, order, seconds, workdir, reference) -> tuple[dict, list]:
    """End-to-end metrics: medians over samples walking the corpus."""
    samples: list[dict] = []
    start = time.monotonic()
    while not samples or time.monotonic() - start < seconds:
        seed = order[len(samples) % len(order)]
        samples.append(check_digest(run_sample(workload, seed, workdir), reference))
    metrics = {
        "wall_rel": statistics.median(s["wall_s"] / s["probe_s"] for s in samples),
        "setup_s": pairwise_median(s["setup_s"] for s in samples),
        "peak_rss_mb": statistics.median(s["peak_rss_kb"] for s in samples) / 1024,
    }
    return metrics, samples


def traced_run(workload, order, seconds, workdir, reference) -> tuple[dict, list]:
    """Per-layer metrics: untraced and traced samples of one input, alternating."""
    seed = order[0]
    plain: list[dict] = []
    traced: list[dict] = []
    layers: list[dict] = []
    start = time.monotonic()
    while not traced or time.monotonic() - start < seconds:
        plain.append(check_digest(run_sample(workload, seed, workdir), reference))
        span_file = workdir / f"spans-{len(traced)}.json"
        traced.append(check_digest(run_sample(workload, seed, workdir, span_file), reference))
        layers.append(layer_metrics(span_file, traced[-1]["probe_s"]))
        span_file.unlink()
    for name, _ in PER_LAYER:
        if not is_timing(name) and any(m[name] != layers[0][name] for m in layers):
            raise BenchError(f"{name} differs between traced samples of one input")
    metrics = {
        name: statistics.median(m[name] for m in layers) if is_timing(name) else layers[0][name]
        for name, _ in PER_LAYER
        if name != "trace.overhead_rel"
    }
    metrics["trace.overhead_rel"] = statistics.median(
        s["wall_s"] / s["probe_s"] for s in traced
    ) - statistics.median(s["wall_s"] / s["probe_s"] for s in plain)
    return metrics, plain + traced


def main() -> int:
    parser = argparse.ArgumentParser(description="hilbcalc benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "hilbcalc" / "__init__.py").is_file():
        print(f"error: no hilbcalc package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))[args.workload]
    run = traced_run if args.trace else plain_run
    try:
        with scratch_dir(f"run-{os.getpid()}") as workdir:
            metrics, samples = run(
                args.workload, corpus_order(args.seed), args.seconds, workdir, reference
            )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    for name, value in metrics.items():
        print(f"{name} {value} {UNITS[name]}")
    untraced = [s["wall_s"] for s in samples if not s["traced"]]
    print(f"wall_s {statistics.median(untraced)} s (untraced median, raw)")
    print(f"fail_ratio {failed / attempted} ({failed}/{attempted} operations, {len(samples)} samples)")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
