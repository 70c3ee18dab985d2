"""Record the output digest of every corpus input into reference.json.

    python3 perfbench/record.py [WORKLOAD ...]

Run from the root of a source checkout.  Every recorded sample must pass
its own checks; the digests then pin the exact output bytes (or, for the
random sweep, the instance tuples) that later runs are compared against.
Re-record only on purpose: a changed digest means changed output.
"""

import json
import sys

from run import CORPUS_SIZE, REFERENCE, run_sample, scratch_dir
from workloads import WORKLOADS


def main(names: list[str]) -> int:
    reference = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    with scratch_dir("record") as workdir:
        for name in names or sorted(WORKLOADS):
            digests = {}
            for seed in range(CORPUS_SIZE):
                record = run_sample(name, seed, workdir)
                if record["failed"]:
                    print(f"{name} seed {seed}: {record['failed']} operations failed")
                    return 1
                digests[str(seed)] = record["digest"]
                print(f"{name} seed {seed}: {record['wall_s']:.3f}s", flush=True)
            reference[name] = digests
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
