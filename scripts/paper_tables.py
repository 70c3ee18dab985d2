#!/usr/bin/env python3
"""Print the coefficient table of every builtin catalogue entry.

Mirrors `hilbcalc paper-examples` (the same catalogue, from
hilbcalc.theorem) but lays the numbers out as tables instead of pass/fail
cells, one row per entry, each marked ok or MISMATCH against its closed
form.  Takes no options.  A reader that closes the output early (say,
`paper_tables.py | head`) ends it quietly, with exit status 0.
"""

from itertools import groupby

from hilbcalc.cli import quiet_broken_pipe
from hilbcalc.presentation import (
    HILBERT_BURCH,
    closed_form_family,
    determinantal_check_module,
    module_dimension,
    module_table,
    series_of_resolution,
)
from hilbcalc.series import hilbert_coefficients
from hilbcalc.theorem import (
    MAXIMAL_TIMES_PRIME_CELLS,
    RESOLUTION_FAMILY_CELLS,
    TWO_PRIME_PRODUCT_CELLS,
    maximal_times_prime_module,
    maximal_times_prime_table,
    two_prime_product_module,
    two_prime_product_table,
)


def row(tag: str, got, expected) -> str:
    agree = "ok" if got == expected else "MISMATCH"
    return f"  {tag:<18} e = {got.coeffs}  [{agree}]"


def main() -> None:
    for family, cells in groupby(RESOLUTION_FAMILY_CELLS, key=lambda c: c[0]):
        print(f"{family}:")
        for _, params in cells:
            inst = closed_form_family(family, **params)
            T = hilbert_coefficients(series_of_resolution(inst.presentation))
            tag = ", ".join(f"{k}={v}" for k, v in inst.params)
            print(row(tag, T, inst.expected))
        print()

    minors = determinantal_check_module()
    print("generic 2x3 minors through the Groebner pipeline:")
    expected = closed_form_family(HILBERT_BURCH, d=3, m=2).expected
    print(row(f"dim {module_dimension(minors)}", module_table(minors), expected))

    print("\nmaximal-ideal times prime, all 0 < s < d <= 6:")
    for d, s in MAXIMAL_TIMES_PRIME_CELLS:
        T = module_table(maximal_times_prime_module(d, s))
        print(row(f"d={d}, s={s}", T, maximal_times_prime_table(d, s)))

    print("\nproduct of two primes, all 0 < r < s <= 5:")
    for r, s in TWO_PRIME_PRODUCT_CELLS:
        T = module_table(two_prime_product_module(r, s))
        print(row(f"r={r}, s={s}", T, two_prime_product_table(r, s)))


if __name__ == "__main__":
    with quiet_broken_pipe():
        main()
