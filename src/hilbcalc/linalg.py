"""Exact linear algebra over the integers and rationals.

Kept deliberately small.  IntEchelon holds primitive ``{column: int}``
pivot rows and is the only elimination routine the package runs, and
macaulay_echelons is the one builder of Macaulay rows, from the
generators' integer numerators on monomials packed by monomial_packing.
The brute-force oracle reads each degree's rank; the depth screen reads
dim (R/I)_1 off the degree-one echelon and ranks a candidate's rows
against the degree-two echelon: in a copy of it when some pivot row has
two or more entries, and otherwise, as on a monomial ideal, in a fresh
echelon with the pivot columns deleted.  forms_independent inserts
linear forms.  int_rank
and FractionEchelon are no longer used by the package: they stay
because the benchmark tracer wraps them by name and the tests use them
as references.

macaulay_echelons walks the degrees 0..N with one echelon per degree.
The degree-n piece of an ideal I is the span of the rows x^a * g_j, and
rows go in generator by generator, and within one generator in the lex
order of a.  A row that is dependent on the rows before it is
remembered for the next degree, and there every row x^(a+e_i) * g_j
above a remembered x^a * g_j is skipped without any reduction.  This is
exact because the row order is multiplicative: if x^a * g_j is a
combination of rows before it, x^(a+e_i) * g_j is x_i times that
combination, whose rows x^(b+e_i) * g_k all come before it too (k < j,
or k = j and b before a in lex order).  A skipped row is then itself
dependent and is remembered, so by induction the skipped rows never
change the span (the syzygy criterion of Faugere's F5, on Macaulay
matrices).

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

from fractions import Fraction
from math import gcd
from operator import mul
from typing import Iterable, Iterator, Optional, Sequence


class IntEchelon:
    """Span of integer rows as primitive pivot rows keyed by last column.

    A row is a ``{column: entry}`` dict of its nonzeros.  insert reduces
    it against the stored pivot rows, always at its last (highest)
    nonzero column.  When the pivot row ``top`` for that column holds
    ``p`` there and the row holds ``q``, the row becomes ``a*row - b*top``
    with ``a = p/g``, ``b = q/g`` and ``g = gcd(p, q)``.  Before each step,
    and before it is stored, the row is divided by the gcd of its entries
    (its content).  The combination clears that column and touches only
    lower ones, because the pivot row ends there, so each row ends, after
    finitely many steps, as a new pivot row or as zero.  Each step
    replaces the row by a nonzero multiple of it plus a multiple of a
    stored row, which keeps the span over the rationals, and with it the
    rank; all arithmetic is on integers and exact, and the content
    division keeps entries small.

    IntEchelon(other.pivots) copies other's pivot dict and grows from
    other's span without changing it: the rows are shared, and insert
    never changes a stored row, it builds new ones or keeps the caller's.
    """

    __slots__ = ("pivots",)

    def __init__(self, pivots: Optional[dict[int, dict[int, int]]] = None):
        self.pivots: dict[int, dict[int, int]] = dict(pivots or {})

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def insert(self, row: dict[int, int]) -> Optional[dict[int, int]]:
        """Add a row to the span: the new primitive pivot row it became
        when it was independent, None when it was dependent.

        The new pivot row is a nonzero multiple of the row plus a
        combination of the pivot rows stored before it; callers may read
        it but must not change it.  The dict is consumed: it may be
        changed in place or stored.
        """
        while row:
            g = gcd(*row.values())
            if g > 1:
                row = {j: c // g for j, c in row.items()}
            col = max(row)
            top = self.pivots.get(col)
            if top is None:
                self.pivots[col] = row
                return row
            g = gcd(top[col], row[col])
            a, b = top[col] // g, row[col] // g
            reduced = {j: a * c for j, c in row.items()} if a != 1 else row
            for j, c in top.items():
                v = reduced.get(j, 0) - b * c
                if v:
                    reduced[j] = v
                else:
                    del reduced[j]
            row = reduced
        return None


def monomial_packing(d: int, top: int) -> tuple[list[int], int]:
    """(steps, guards) of the monomials of degree at most top over d
    variables packed into ints: x^m is the sum of m_i * steps[i], in
    fields of top.bit_length() + 1 bits, the first variable's the most
    significant.  The ints of one degree compare as their monomials do in
    lex order, and x_i * x^m is x^m + steps[i].  No exponent reaches the
    top bit of its field; guards sets those bits, and x^g divides x^m iff
    (m | guards) - g keeps every guard bit, since a field where g exceeds
    m borrows only from its own guard bit."""
    w = top.bit_length() + 1
    steps = [1 << w * (d - 1 - i) for i in range(d)]
    return steps, sum(steps) << w - 1


def macaulay_echelons(d: int, generators: Iterable, top: int) -> Iterator[IntEchelon]:
    """The echelons of the Macaulay rows x^a * g_j of degree n = 0..top,
    one per degree, each spanning the degree-n piece of the ideal.

    A generator is a homogeneous polynomial with integer numerators nums;
    rows and multipliers are packed by monomial_packing(d, top).  Rows
    above a known dependent row are skipped, and the others lifted from
    the previous degree's pivot rows (see the module docstring)."""
    steps, _ = monomial_packing(d, top)
    gens = [(g.homogeneous_degree(), g.nums) for g in generators]
    # dead[j]: the multipliers a whose row x^a * g_j was dependent on the
    # rows before it in the previous degree; pivots[j]: the pivot row each
    # other row x^a * g_j of the previous degree became
    dead: list[set[int]] = [set() for _ in gens]
    pivots: list[dict[int, dict[int, int]]] = [{} for _ in gens]
    for n in range(top + 1):
        echelon = IntEchelon()
        for j, (dg, nums) in enumerate(gens):
            known = {a + s for a in dead[j] for s in steps}
            if n == dg:
                # a = 0: the generator's own row
                above = {0: ({sum(map(mul, m, steps)): c for m, c in nums.items()}, 0)}
            else:
                # x^a = x_i * x^b for the last variable x_i of x^a: each a
                # comes once, from the b whose fields below x_i's are zero
                above = {
                    b + s: (row, s)
                    for b, row in pivots[j].items()
                    for s in steps
                    if not b & s - 1
                }
            lifted = {}
            for a in sorted(above):
                if a in known:
                    continue
                row, s = above[a]
                pivot = echelon.insert({c + s: v for c, v in row.items()})
                if pivot is None:
                    known.add(a)
                else:
                    lifted[a] = pivot
            dead[j], pivots[j] = known, lifted
        yield echelon


def int_rank(rows: Iterable[Sequence[int]]) -> int:
    """Rank of an integer matrix by sparse fraction-free row elimination.

    Every row goes into one IntEchelon; the rank is its pivot count.
    Unused by the package, which inserts its rows into IntEchelon
    directly; kept for the benchmark tracer and the tests.

    Pivoting on the last column suits Macaulay matrices whose columns
    list monomials lexicographically, so the last nonzero column is the
    lex-largest monomial: on the degree-8 matrix of three quadrics in
    five variables (630 x 495) it took 1.25 s against 3.2 s for
    first-column pivoting (CPython 3.11, 2-vCPU host).
    """
    echelon = IntEchelon()
    for entries in rows:
        echelon.insert({j: c for j, c in enumerate(entries) if c})
    return echelon.rank


# Unused by the package; kept for the benchmark tracer and the tests.
class FractionEchelon:
    """Reduced row echelon span of rational vectors, built incrementally."""

    def __init__(self, width: int):
        if width < 0:
            raise ValueError("width must be a natural")
        self.width = width
        self._rows: dict[int, list[Fraction]] = {}

    @property
    def rank(self) -> int:
        return len(self._rows)

    def reduce(self, vec: Sequence) -> list[Fraction]:
        """Residual of vec modulo the current span."""
        if len(vec) != self.width:
            raise ValueError("vector width mismatch")
        v = [Fraction(x) for x in vec]
        for col, row in self._rows.items():
            c = v[col]
            if c:
                for j in range(self.width):
                    if row[j]:
                        v[j] -= c * row[j]
        return v

    def insert(self, vec: Sequence) -> bool:
        """Add vec to the span; True when it was independent."""
        v = self.reduce(vec)
        for col, x in enumerate(v):
            if x:
                row = [y / x for y in v]
                # keep every stored row fully reduced so residuals are
                # independent of elimination order
                for other in self._rows.values():
                    c = other[col]
                    if c:
                        for j in range(self.width):
                            if row[j]:
                                other[j] -= c * row[j]
                self._rows[col] = row
                return True
        return False
