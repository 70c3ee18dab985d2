"""Exact linear algebra over the integers and rationals.

Kept deliberately small: one integer echelon, IntEchelon, holds primitive
``{column: int}`` pivot rows and is the only elimination routine the
package runs.  Polynomial rows are the generators' stored integer
numerators: the brute-force oracle inserts, degree by degree, each
Macaulay row its walk cannot already tell is dependent as x_i times the
pivot row insert returned for its divisor one degree lower (a
generator's own row in the generator's degree), and the depth
screen keeps the degree-two part of an ideal in one echelon and puts
each candidate's rows into a copy of its pivot dict.  forms_independent
inserts each linear form's stored numerators.  int_rank, the rank of a
whole matrix, and FractionEchelon, a reduced echelon form over the
rationals, are no longer used by the package: they stay because the
benchmark tracer wraps them by name and the tests use them as
references.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Optional, Sequence


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
