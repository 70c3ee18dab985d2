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
Macaulay matrices).

The same order lets every other row start from the previous degree's
work.  A multiplier a != 0 is x_i * b for the last variable x_i of a,
and the pivot row r_b that x^b * g_j became one degree lower is
c * x^b * g_j plus rows before it, with c != 0.  Times x_i, it is
c * x^a * g_j plus rows before x^a * g_j, which are in the span of the
echelon so far, so inserting x_i * r_b in place of the raw row gives the
same verdict and the same span; only at a = 0 does the raw generator row
go in.  The lifted row carries the reductions its divisor's row went
through one degree lower, so little is left to do: over corpus seeds
0-7 of the oracle-check benchmark (two generic quadrics in four
variables, degrees 0..9) the reduction steps, each a combination with a
stored pivot row, fell from 10582 for raw rows to 223.  Lifting through
the first variable of a instead leaves 7895.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
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
    every row above a row already known to be dependent and lifts every
    other row from the previous degree's pivot rows."""
    d = I.ring_dim
    units = [tuple(int(i == k) for i in range(d)) for k in range(d)]
    # the column of x^m is the int whose base-2^w digits are the exponents
    # of m, the first variable's the most significant: the columns of one
    # degree compare as their monomials do in lex order, and x_i * x^m is
    # x^m plus steps[i]
    w = top.bit_length()
    steps = [1 << w * (d - 1 - i) for i in range(d)]
    gens = [(g.homogeneous_degree(), g.nums) for g in I.generators]
    # dead[j]: the multipliers a whose row x^a * g_j was dependent on the
    # rows before it in the previous degree; pivots[j]: the pivot row each
    # other row x^a * g_j of the previous degree became
    dead: list[set] = [set() for _ in gens]
    pivots: list[dict] = [{} for _ in gens]
    ranks = []
    for n in range(top + 1):
        echelon = IntEchelon()
        for j, (dg, nums) in enumerate(gens):
            known = {monomial_mul(a, x) for a in dead[j] for x in units}
            lifted = {}
            for a in monomials_of_degree(d, n - dg):
                if a in known:
                    continue
                if n == dg:
                    # a = 0: the generator's own row
                    row = {sum(map(mul, m, steps)): c for m, c in nums.items()}
                else:
                    # x^a = x_i * x^b for the last variable x_i of x^a
                    i = d - 1
                    while not a[i]:
                        i -= 1
                    b = a[:i] + (a[i] - 1,) + a[i + 1 :]
                    step = steps[i]
                    row = {c + step: v for c, v in pivots[j][b].items()}
                pivot = echelon.insert(row)
                if pivot is None:
                    known.add(a)
                else:
                    lifted[a] = pivot
            dead[j], pivots[j] = known, lifted
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
