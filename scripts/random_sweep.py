#!/usr/bin/env python3
"""Sweep random modules through the depth sensitivity verifier.

Larger and chattier than the acceptance gate: prints one line per
verified instance and a summary splitting equivalence mismatches into
hard failures (exact depth evidence) and probabilistic caveats.
"""

import argparse
import time

from hilbcalc.cli import _int_at_least
from hilbcalc.theorem import run_random_sensitivity_suite


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=_int_at_least(1), default=200)
    parser.add_argument("--seed", type=int, default=0)
    # the sampled modules have dimension >= 2, which needs 3 variables
    parser.add_argument("--d-max", type=_int_at_least(3), default=4)
    parser.add_argument("--depth-trials", type=_int_at_least(1), default=64)
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args()

    t0 = time.perf_counter()
    result = run_random_sensitivity_suite(
        count=args.count,
        seed=args.seed,
        d_max=args.d_max,
        depth_trials=args.depth_trials,
    )
    elapsed = time.perf_counter() - t0

    if args.verbose:
        for inst in result.instances:
            r = inst.report
            flag = "" if r.equivalence_ok else "  <-- mismatch"
            exact = "exact" if r.depth_exact else "prob."
            print(
                f"seed={inst.seed:<10} d={inst.ring_dim} s={r.s} i={r.i} "
                f"e {r.e_module:>3} -> {r.e_quotient:<3} "
                f"depth {r.depth_value} ({exact}) "
                f"defects {r.defect_lengths}{flag}"
            )

    n = len(result.instances)
    exact = sum(1 for x in result.instances if x.report.depth_exact)
    print(f"{n} instances in {elapsed:.1f}s "
          f"({result.attempts} modules sampled, {result.skipped_uncertified} skips)")
    print(f"depth evidence exact on {exact}/{n}")
    print(f"parity failures:       {len(result.parity_failures)}")
    print(f"equivalence failures:  {len(result.equivalence_failures)} (hard)")
    print(f"equivalence caveats:   {len(result.equivalence_warnings)} (probabilistic)")
    print("overall:", "clean" if result.ok else "FAILED")
    raise SystemExit(0 if result.ok else 1)


if __name__ == "__main__":
    main()
