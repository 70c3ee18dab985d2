"""One benchmark sample in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD CORPUS_SEED WORKDIR [SPAN_FILE]

Imports hilbcalc, builds the workload's inputs from CORPUS_SEED (writing
any script under WORKDIR), then times the single workload call.  With
SPAN_FILE the public functions are wrapped first and the spans are written
there after the call.  The host-speed probe (``probe.py``) runs during the
call.  The last stdout line is one JSON object: the monotonic clock reading
when the sample was ready to run (`ready_ns`), `wall_s`, the probe's
`probe_s`, `peak_rss_kb`, and the checked `attempted`, `failed`, `digest`.

A call that raises counts all of its operations as failed; the exit status
is nonzero only when the sample could not be set up at all.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path

import hilbcalc  # noqa: F401  (set-up cost: the whole package)
import hilbcalc.cli  # noqa: F401

from probe import Probe
from tracing import Tracer
from workloads import WORKLOADS, Outcome


def main(argv: list[str]) -> None:
    name, seed, workdir = argv[0], int(argv[1]), Path(argv[2])
    span_file = Path(argv[3]) if len(argv) > 3 else None
    workload = WORKLOADS[name]
    inputs = workload.prepare(seed, workdir)
    tracer = None
    if span_file is not None:
        tracer = Tracer()
        tracer.install()
    ready_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    with Probe() as probe:
        start = time.perf_counter()
        try:
            output = workload.call(inputs)
            error = None
        except Exception:  # a raising operation is a failed operation
            output = None
            error = traceback.format_exc()
        wall_s = time.perf_counter() - start
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if error is None:
        outcome = workload.check(inputs, output)
    else:
        print(error, file=sys.stderr)
        outcome = Outcome(workload.operations, workload.operations, "raised")
    if tracer is not None:
        tracer.write(span_file)
    print(
        json.dumps(
            {
                "ready_ns": ready_ns,
                "wall_s": wall_s,
                "probe_s": probe.harmonic_s(),
                "peak_rss_kb": peak_rss_kb,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "digest": outcome.digest,
            }
        )
    )


if __name__ == "__main__":
    main(sys.argv[1:])
