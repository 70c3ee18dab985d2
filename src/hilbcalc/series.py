"""Exact Hilbert series arithmetic for standard graded modules.

A series is a pair (ambient_dim, numerator) standing for the formal
power series numerator / (1 - t)^ambient_dim.  Coefficient extraction
at t = 1 goes through the substitution t -> u + 1 on integer
polynomials, never through numerical differentiation, so every value
produced here is exact.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Sequence, Union

DEFAULT_TRUNCATION = 64

# The largest module shift accepted.  Numerators are dense, so a module
# shifted by r carries at least r + 1 coefficients in every series.
MAX_SHIFT = 10**6


class Refusal(Exception):
    """A run refused as a whole: a size the program bounds, a script it
    cannot read, or a one-shot option that does not parse.  The command
    line prints the message and no report, and exits 2."""


class MixedAmbient(ValueError):
    """Signed combination of series over different ambient dimensions."""


# Dimension of the zero module, strictly below every integer.
MINUS_INFINITY = -math.inf

# Dimension of a graded module: a plain integer, or MINUS_INFINITY for 0.
Dim = Union[int, float]


def binomial(m: int, n: int) -> int:
    """Binomial coefficient with C(m, 0) = 1 and C(m, n) = 0 for m < n."""
    if not isinstance(m, int) or not isinstance(n, int) or m < 0 or n < 0:
        raise ValueError(f"binomial expects naturals, got ({m!r}, {n!r})")
    return math.comb(m, n)


_INT_ONLY = frozenset({int})


def _as_int(c) -> int:
    """c as an int: ints and Rationals of denominator 1, such as
    Fraction(4, 1), are accepted; anything else is a TypeError, never a
    truncation."""
    if isinstance(c, numbers.Rational) and c.denominator == 1:
        return int(c)
    raise TypeError(f"expected an integer, got {c!r}")


def _trimmed_ints(cs) -> tuple[int, ...]:
    """cs as a tuple of ints without trailing zeros.  A tuple of plain
    ints, what every kernel here builds, is trimmed without a copy of each
    entry."""
    if type(cs) is not tuple or not _INT_ONLY.issuperset(map(type, cs)):
        cs = tuple(map(_as_int, cs))
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    return cs if n == len(cs) else cs[:n]


@dataclass(frozen=True)
class IntPolynomial:
    """Dense univariate polynomial over the integers, trailing zeros trimmed."""

    coeffs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _trimmed_ints(self.coeffs))

    @classmethod
    def zero(cls) -> "IntPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls((1,))

    @classmethod
    def t_power(cls, r: int) -> "IntPolynomial":
        if r < 0:
            raise ValueError("t_power expects a natural exponent")
        return cls((0,) * r + (1,))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @property
    def degree(self) -> int:
        """Degree of a nonzero polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __getitem__(self, i: int) -> int:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(tuple(out))

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        out = list(a) + [0] * (len(b) - len(a))
        for i, c in enumerate(b):
            out[i] -= c
        return IntPolynomial(tuple(out))

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial(tuple(other * c for c in self.coeffs))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return IntPolynomial.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(tuple(out))

    __rmul__ = __mul__

    def times_t_power(self, r: int) -> "IntPolynomial":
        if r < 0:
            raise ValueError("shift exponent must be a natural")
        if self.is_zero:
            return self
        return IntPolynomial((0,) * r + self.coeffs)

    def times_one_minus_t(self, k: int = 1) -> "IntPolynomial":
        """Multiply by (1 - t)^k."""
        if k < 0:
            raise ValueError("exponent of (1 - t) must be a natural")
        p = self
        for _ in range(k):
            cs = list(p.coeffs) + [0]
            for i in range(len(cs) - 1, 0, -1):
                cs[i] -= cs[i - 1]
            p = IntPolynomial(tuple(cs))
        return p

    def taylor_at_one(self) -> tuple[int, ...]:
        """Coefficients of self written in powers of (t - 1), trimmed.

        The i-th one is the sum of C(j, i) c_j over the nonzero c_j.  Each
        nonzero term walks its row of binomials by the step C(j, i + 1) =
        C(j, i) (j - i) / (i + 1), so a sparse numerator such as a shifted
        one costs its number of terms times its length, with no binomial
        computed from scratch.
        """
        out = [0] * len(self.coeffs)
        for j, c in enumerate(self.coeffs):
            if c:
                for i in range(j + 1):
                    out[i] += c
                    c = c * (j - i) // (i + 1)
        while out and out[-1] == 0:
            out.pop()
        return tuple(out)


@dataclass(frozen=True, eq=False)
class HilbertSeries:
    """numerator / (1 - t)^ambient_dim as a formal power series."""

    ambient_dim: int
    numerator: IntPolynomial

    def __post_init__(self) -> None:
        if not isinstance(self.ambient_dim, int) or self.ambient_dim < 0:
            raise ValueError("ambient_dim must be a natural number")
        if not isinstance(self.numerator, IntPolynomial):
            object.__setattr__(self, "numerator", IntPolynomial(tuple(self.numerator)))

    @property
    def is_zero(self) -> bool:
        return self.numerator.is_zero

    @cached_property
    def _stripped(self) -> tuple[Dim, IntPolynomial, tuple]:
        """(dimension, h-polynomial, reduced key), from one walk that strips
        (1 - t) off the numerator as often as it divides it.

        p = (1 - t) q exactly when p(1), the last prefix sum of p, is zero,
        and then q is the other prefix sums; the steps run on plain lists.
        With k factors stripped the dimension is ambient_dim - k, and the
        key, the dimension with the numerator over all k gone, makes
        equality after cancelling common (1 - t) factors.  The h-polynomial
        is the quotient after min(k, ambient_dim) steps, so a series of
        negative dimension keeps its numerator over (1 - t)^0.
        """
        cs = self.numerator.coeffs
        if not cs:
            return MINUS_INFINITY, self.numerator, ("zero",)
        k, h = 0, None
        while True:
            if k == self.ambient_dim:
                h = IntPolynomial(tuple(cs))
            sums = list(accumulate(cs))
            if sums.pop():
                break
            cs, k = sums, k + 1
        s, cs = self.ambient_dim - k, tuple(cs)
        return s, IntPolynomial(cs) if h is None else h, (s, cs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HilbertSeries):
            return NotImplemented
        return self._stripped[2] == other._stripped[2]

    def __hash__(self) -> int:
        return hash(self._stripped[2])

    def __repr__(self) -> str:
        return f"HilbertSeries(d={self.ambient_dim}, h={list(self.numerator.coeffs)})"


@dataclass(frozen=True)
class CoefficientTable:
    """Hilbert coefficients e_0..e_D of a module, D the last nonzero index."""

    dim: Dim
    coeffs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _trimmed_ints(self.coeffs))

    def e(self, i: int) -> int:
        """e_i, with indices past the stored table reading as zero."""
        if i < 0:
            raise ValueError("coefficient index must be a natural")
        if i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def __len__(self) -> int:
        return len(self.coeffs)


def series_dimension(S: HilbertSeries) -> Dim:
    """Pole order of S at t = 1; the sentinel for the zero series."""
    return S._stripped[0]


def h_polynomial(S: HilbertSeries) -> IntPolynomial:
    """Numerator of S over (1 - t)^max(dim, 0); exact by construction."""
    return S._stripped[1]


def hilbert_coefficients(S: HilbertSeries) -> CoefficientTable:
    """Taylor coefficients of the reduced numerator at t = 1."""
    s, h, _ = S._stripped
    return CoefficientTable(s, h.taylor_at_one())


def shift(S: HilbertSeries, r: int) -> HilbertSeries:
    """Series of the same module with degrees shifted up by r."""
    if r < 0:
        raise ValueError("shift must be a natural")
    return HilbertSeries(S.ambient_dim, S.numerator.times_t_power(r))


def combine(terms: Sequence[tuple[int, HilbertSeries]]) -> HilbertSeries:
    """Signed sum of series sharing one ambient dimension."""
    if not terms:
        raise ValueError("combine requires at least one term")
    ambient = terms[0][1].ambient_dim
    total = IntPolynomial.zero()
    for sign, S in terms:
        if sign not in (1, -1):
            raise ValueError(f"signs must be +1 or -1, got {sign!r}")
        if S.ambient_dim != ambient:
            raise MixedAmbient(
                f"ambient dimensions differ: {S.ambient_dim} vs {ambient}"
            )
        total = total + sign * S.numerator
    return HilbertSeries(ambient, total)


def expand(S: HilbertSeries, max_degree: int = DEFAULT_TRUNCATION) -> list[int]:
    """Power series coefficients of S in degrees 0..max_degree.

    Dividing by (1 - t) takes prefix sums, so the numerator, cut or padded
    to max_degree + 1 terms, goes through ambient_dim prefix-sum passes.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be a natural")
    h = S.numerator.coeffs[: max_degree + 1]
    out = list(h) + [0] * (max_degree + 1 - len(h))
    for _ in range(S.ambient_dim):
        out = list(accumulate(out))
    return out


def coefficient(S: HilbertSeries, n: int) -> int:
    """The degree-n coefficient of S, expand(S, n)[n] without the others:
    the sum of h_j C(n - j + d - 1, d - 1) over the nonzero h_j, j <= n.
    Degrees below zero read as zero."""
    h, d = S.numerator.coeffs, S.ambient_dim
    if n < 0:
        return 0
    if d == 0:
        return h[n] if n < len(h) else 0
    return sum(
        c * math.comb(n - j + d - 1, d - 1) for j, c in enumerate(h[: n + 1]) if c
    )
