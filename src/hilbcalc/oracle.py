"""Brute-force graded dimension counts, independent of the series engine.

dim (R/I)_n is counted directly in each degree n.  For a monomial ideal
I it is the number of standard monomials of degree n, those no
generator divides.  For every other ideal it is the number of monomials
of degree n minus dim I_n, the rank of the degree-n Macaulay matrix on
the original generators, from linalg.macaulay_echelons.  No Groebner
basis and no series is computed, so agreement with `series_of_cyclic`
is meaningful evidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from operator import mul
from typing import Optional

from hilbcalc.linalg import macaulay_echelons, monomial_packing
from hilbcalc.monomial import Monomial
from hilbcalc.presentation import CyclicModule, series_of_cyclic
from hilbcalc.series import expand

DEFAULT_CHECK_DEGREE = 12


def _standard_counts(d: int, exps: frozenset[Monomial], top: int) -> list[int]:
    """The number of monomials of degree n = 0..top over d variables
    that no x^g with g in exps divides: the standard monomials.

    Those of degree n are x_i times those of degree n - 1 that no
    generator divides, as packed ints under the guard-bit divisor test of
    monomial_packing.  A generator of degree above top divides none of
    them and may not fit the fields, so it is dropped first."""
    steps, guards = monomial_packing(d, top)
    gens = [sum(map(mul, g, steps)) for g in exps if sum(g) <= top]
    counts = []
    level = {0}
    for n in range(top + 1):
        if n:
            level = {m + s for m in level for s in steps}
        level = {m for m in level if all((m | guards) - g & guards != guards for g in gens)}
        counts.append(len(level))
    return counts


def graded_profile(M: CyclicModule, max_degree: int) -> tuple[int, ...]:
    """Lengths of the degree pieces 0..max_degree of M, counted from
    scratch: standard monomials for a monomial ideal, otherwise the
    monomials of each degree minus the rank of the Macaulay rows (see
    the module docstring)."""
    I, d, s = M.ideal, M.ring_dim, M.shift
    top = max_degree - s
    if I.is_monomial:
        counts = _standard_counts(d, I.monomial_exponents(), top)
    else:
        counts = [
            comb(n + d - 1, n) - echelon.rank
            for n, echelon in enumerate(macaulay_echelons(d, I.generators, top))
        ]
    return tuple(counts[n - s] if n >= s else 0 for n in range(max_degree + 1))


def graded_dimension(M: CyclicModule, degree: int) -> int:
    """Length of the degree piece of M, counted from scratch.

    Unused by the package, whose checks read graded_profile; kept because
    the benchmark tracer wraps it by name."""
    return graded_profile(M, degree)[degree] if degree >= 0 else 0


@dataclass(frozen=True)
class SeriesCheck:
    ok: bool
    max_degree: int
    counted: tuple[int, ...]
    expanded: tuple[int, ...]
    first_mismatch: Optional[int]

    def __bool__(self) -> bool:
        return self.ok


def verify_series(M: CyclicModule, max_degree: int = DEFAULT_CHECK_DEGREE) -> SeriesCheck:
    """Compare the computed series of M against direct counts."""
    counted = graded_profile(M, max_degree)
    expanded = tuple(expand(series_of_cyclic(M), max_degree))
    mismatch = next(
        (n for n in range(max_degree + 1) if counted[n] != expanded[n]), None
    )
    return SeriesCheck(mismatch is None, max_degree, counted, expanded, mismatch)
