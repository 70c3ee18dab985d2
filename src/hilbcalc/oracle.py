"""Brute-force graded dimension counts, independent of the series engine.

Monomial quotients are checked by literally counting standard monomials.
For every other ideal I the degree-n piece of I is the span of the rows
x^a * g_j of the degree-n Macaulay matrix on the original generators, and
its dimension is the rank of those rows.  No Groebner basis and no series
is computed, so agreement with `series_of_cyclic` is meaningful evidence.

The ranks come from one walk over the degrees 0..N with one integer
echelon per degree.  Rows go in generator by generator, and within one
generator in the lex order of a.  A row that is dependent on the rows
before it is remembered for the next degree, and there every row
x^(a+e_i) * g_j above a remembered x^a * g_j is skipped without any
reduction.  This is exact because the row order is multiplicative: if
x^a * g_j is a combination of rows before it, x^(a+e_i) * g_j is x_i
times that combination, whose rows x^(b+e_i) * g_k all come before it
too (k < j, or k = j and b before a in lex order).  A skipped row is
then itself dependent and is remembered, so by induction the skipped
rows never change the span (the syzygy criterion of Faugere's F5, on
Macaulay matrices).  In the full degree-9 matrix of two generic quadrics
in four variables, 56 of 240 rows are dependent and take about 85% of
the reduction steps; the walk over the degrees 0..9 reduces one row to
zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from hilbcalc.linalg import IntEchelon
# monomials_of_degree lives in the exponent layer; it stays importable from
# here as part of the oracle's API
from hilbcalc.monomial import monomial_divides, monomial_mul, monomials_of_degree
from hilbcalc.polyring import PolyIdeal
from hilbcalc.presentation import CyclicModule, series_of_cyclic
from hilbcalc.series import expand

DEFAULT_CHECK_DEGREE = 12


def _ideal_ranks(I: PolyIdeal, top: int) -> list[int]:
    """dim I_n for n = 0..top, by one walk over the degrees that skips
    every row above a row already known to be dependent."""
    d = I.ring_dim
    units = [tuple(int(i == k) for i in range(d)) for k in range(d)]
    gens = [
        (g.homogeneous_degree(), g.nums.items())
        for g in I.generators
    ]
    # dead[j]: the multipliers a whose row x^a * g_j was dependent on the
    # rows before it in the previous degree
    dead: list[set] = [set() for _ in gens]
    ranks = []
    for n in range(top + 1):
        cols = {m: c for c, m in enumerate(monomials_of_degree(d, n))}
        echelon = IntEchelon()
        for j, (dg, terms) in enumerate(gens):
            known = {monomial_mul(a, x) for a in dead[j] for x in units}
            for a in monomials_of_degree(d, n - dg):
                if a not in known and not echelon.insert(
                    {cols[monomial_mul(a, m)]: c for m, c in terms}
                ):
                    known.add(a)
            dead[j] = known
        ranks.append(echelon.rank)
    return ranks


def graded_profile(M: CyclicModule, max_degree: int) -> tuple[int, ...]:
    """Lengths of the degree pieces 0..max_degree of M, counted from
    scratch: standard monomials for a monomial ideal, otherwise the
    monomials of each degree minus the rank of the Macaulay rows, from
    one walk over the degrees (see the module docstring)."""
    I, d, s = M.ideal, M.ring_dim, M.shift
    top = max_degree - s
    totals = [len(monomials_of_degree(d, n)) for n in range(top + 1)]
    if I.is_zero:
        counts = totals
    elif I.is_monomial:
        gens = I.monomial_exponents()
        counts = [
            sum(
                1
                for m in monomials_of_degree(d, n)
                if not any(monomial_divides(g, m) for g in gens)
            )
            for n in range(top + 1)
        ]
    else:
        counts = [t - r for t, r in zip(totals, _ideal_ranks(I, top))]
    return tuple(counts[n - s] if n >= s else 0 for n in range(max_degree + 1))


def graded_dimension(M: CyclicModule, degree: int) -> int:
    """Length of the degree piece of M, counted from scratch."""
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
