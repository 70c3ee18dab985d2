"""Brute-force graded dimension counts, independent of the series engine.

Monomial quotients are checked by literally counting standard monomials;
everything else goes through the rank of the degree-n multiplication
matrix on the original generators.  No Groebner bases, no series
recursion, so agreement with `series_of_cyclic` is meaningful evidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from hilbcalc.linalg import int_rank
from hilbcalc.polyring import (
    Monomial,
    PolyIdeal,
    clear_denominators,
    monomial_divides,
    monomial_mul,
)
from hilbcalc.presentation import CyclicModule, series_of_cyclic
from hilbcalc.series import expand

DEFAULT_CHECK_DEGREE = 12


@lru_cache(maxsize=None)
def monomials_of_degree(d: int, n: int) -> tuple[Monomial, ...]:
    """All exponent vectors of total degree n over d variables."""
    if n < 0:
        return ()
    if d == 0:
        return ((),) if n == 0 else ()
    if d == 1:
        return ((n,),)
    out = []
    for e in range(n + 1):
        for rest in monomials_of_degree(d - 1, n - e):
            out.append((e,) + rest)
    return tuple(out)


def _ideal_rank(I: PolyIdeal, n: int) -> int:
    """dim of the degree-n piece of I, by Macaulay matrix rank."""
    d = I.ring_dim
    targets = monomials_of_degree(d, n)
    cols = {m: j for j, m in enumerate(targets)}
    rows = []
    for g in I.generators:
        dg = g.degree()
        if dg > n:
            continue
        entries = clear_denominators(g.terms)[1].items()
        for m in monomials_of_degree(d, n - dg):
            row = [0] * len(targets)
            for mg, c in entries:
                row[cols[monomial_mul(m, mg)]] = c
            rows.append(row)
    return int_rank(rows)


def graded_dimension(M: CyclicModule, degree: int) -> int:
    """Length of the degree piece of M, counted from scratch."""
    n = degree - M.shift
    if n < 0:
        return 0
    I = M.ideal
    d = M.ring_dim
    total = len(monomials_of_degree(d, n))
    if I.is_zero:
        return total
    if I.is_monomial:
        gens = I.monomial_exponents()
        standard = sum(
            1
            for m in monomials_of_degree(d, n)
            if not any(monomial_divides(g, m) for g in gens)
        )
        return standard
    return total - _ideal_rank(I, n)


def graded_profile(M: CyclicModule, max_degree: int) -> tuple[int, ...]:
    return tuple(graded_dimension(M, n) for n in range(max_degree + 1))


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
