"""Multivariate polynomial arithmetic over the rationals.

A polynomial is stored as integer numerators {exponent tuple: int} over
one positive denominator, in lowest terms, so equal polynomials store
equal parts; `terms` is the {exponent tuple: Fraction} view for printing
and the public API.  A linear form keeps a tuple of numerators the same
way, viewed as `coefficients`.  Monomial orders are small strategy objects
producing sort keys, and the leading monomial has the smallest key, so
leading terms come from min() over the support and a heap pops them in
order.  Division and linear substitution work on the numerators, and one
gcd puts each result in lowest terms.  The Groebner engine is one
incremental Buchberger loop: generators enter one at a time, S-pairs are
skipped by the coprime and chain criteria and, for homogeneous input, by
an exact lower bound on the Hilbert function of the next stage's quotient,
read off a Hilbert numerator the loop keeps up to date.  Its coefficient
work is a kernel on monomials packed into single ints, one packing for
both orders: over the rationals it reduces fully and fraction-free, mod
2^31 - 1 it top-reduces only.  A run ends in leading monomials and their
Hilbert numerator, which is all the series needs; only `buchberger` (and
through it `initial_ideal` and `colon`) tail-reduces the rational run into
the reduced monic basis.  The mod-p numerator certifies a series, never an
initial ideal (see `presentation`).  Exponent arithmetic and the monomial
Hilbert numerator live in `monomial`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import add, le, mul, sub
from typing import Iterable, Optional, Sequence

from hilbcalc.linalg import IntEchelon
from hilbcalc.monomial import (
    Monomial,
    _numerator_of_monomial,
    minimalize_exponents,
    monomial_degree,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
    monomials_coprime,
)
from hilbcalc.series import HilbertSeries, IntPolynomial, coefficient


class RingMismatch(ValueError):
    """Operands live over different variable counts."""


class EmptySpan(ValueError):
    """A random draw was requested from an empty span."""


class MonomialOrder:
    """Base for term orders; subclasses provide key().

    Keys sort ascending from the top of the order down: the leading
    monomial of a support has the smallest key, so min() finds it, an
    ascending sort lists terms leading first, and a heap pops them in
    reduction order.
    """

    name = "order"

    def __init__(self, nvars: int):
        self.nvars = nvars

    def key(self, m: Monomial):
        raise NotImplementedError

    def cache_token(self) -> str:
        return f"{self.name}:{self.nvars}"


class DegRevLex(MonomialOrder):
    """Degree reverse lexicographic order, the default everywhere."""

    name = "degrevlex"

    def key(self, m: Monomial):
        return (-sum(m), m[::-1])


class EliminationOrder(MonomialOrder):
    """Block order putting one designated variable ahead of the rest.

    Any monomial containing the auxiliary variable beats every monomial
    that avoids it, so the auxiliary-free part of a Groebner basis
    generates the eliminated ideal.
    """

    name = "elim"

    def __init__(self, nvars: int, aux_index: int = 0):
        super().__init__(nvars)
        self.aux_index = aux_index

    def key(self, m: Monomial):
        a = self.aux_index
        rest = m[:a] + m[a + 1 :]
        return (-m[a], -sum(rest), rest[::-1])

    def cache_token(self) -> str:
        return f"{self.name}:{self.nvars}:{self.aux_index}"


def clear_denominators(coeffs: dict) -> tuple[int, dict]:
    """(den, ints) with den the lcm of the denominators of the int or
    Fraction values of coeffs and ints the same keys holding value * den."""
    for c in coeffs.values():
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"coefficients must be rational, got {type(c).__name__}")
    den = lcm(*(c.denominator for c in coeffs.values()))
    return den, {k: c.numerator * (den // c.denominator) for k, c in coeffs.items()}


def _lowest(nvars: int, nums: dict, den: int) -> "Polynomial":
    """The polynomial nums / den, for nonzero integer numerators and a
    nonzero den of either sign, in lowest terms."""
    g = gcd(den, *nums.values())
    if den < 0:
        g = -g
    if g != 1:
        den //= g
        nums = {m: v // g for m, v in nums.items()}
    p = object.__new__(Polynomial)
    p.nvars, p.nums, p.den, p._key, p._row = nvars, nums, den, None, None
    return p


class Polynomial:
    """Sparse polynomial over the rationals in a fixed number of variables.

    nums maps exponent tuples to nonzero integer numerators over den > 0,
    with gcd(den, *nums.values()) = 1; instances are not changed after
    construction.  The constructor takes {exponent tuple: int or Fraction}.
    """

    __slots__ = ("nvars", "nums", "den", "_key", "_row")

    def __init__(self, nvars: int, terms: Optional[dict] = None):
        terms = terms or {}
        for m, c in terms.items():
            if len(m) != nvars:
                raise RingMismatch(
                    f"exponent tuple of length {len(m)} in a ring of {nvars}"
                )
        self.nvars = nvars
        self.den, nums = clear_denominators(terms)
        self.nums = {tuple(m): c for m, c in nums.items() if c}
        self._key = self._row = None

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars)

    @classmethod
    def one(cls, nvars: int) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: 1})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Polynomial":
        if not 0 <= i < nvars:
            raise RingMismatch(f"variable index {i} out of range for {nvars}")
        exp = [0] * nvars
        exp[i] = 1
        return cls(nvars, {tuple(exp): 1})

    @classmethod
    def from_monomial(cls, nvars: int, m: Monomial, c=1) -> "Polynomial":
        return cls(nvars, {tuple(m): c})

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        """The coefficients as {exponent tuple: Fraction}, built on access."""
        den = self.den
        return {m: Fraction(v, den) for m, v in self.nums.items()}

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def __bool__(self) -> bool:
        return bool(self.nums)

    def canonical_key(self):
        if self._key is None:
            self._key = (self.den, tuple(sorted(self.nums.items())))
        return self._key

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.nvars, self.den, self.nums) == (other.nvars, other.den, other.nums)

    def __hash__(self) -> int:
        return hash((self.nvars, self.canonical_key()))

    def _check_ring(self, other: "Polynomial") -> None:
        if self.nvars != other.nvars:
            raise RingMismatch(f"{self.nvars} variables vs {other.nvars}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        out = {m: v * a for m, v in self.nums.items()} if a != 1 else dict(self.nums)
        for m, v in other.nums.items():
            v = out.get(m, 0) + v * b
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return _lowest(self.nvars, out, den)

    def __neg__(self) -> "Polynomial":
        return _lowest(self.nvars, {m: -v for m, v in self.nums.items()}, self.den)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.term_mul(other, (0,) * self.nvars)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        out: dict[Monomial, int] = {}
        for m1, c1 in self.nums.items():
            for m2, c2 in other.nums.items():
                m = monomial_mul(m1, m2)
                v = out.get(m, 0) + c1 * c2
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
        return _lowest(self.nvars, out, self.den * other.den)

    __rmul__ = __mul__

    def term_mul(self, c, m: Monomial) -> "Polynomial":
        """self times c x^m, for c an int or a Fraction."""
        a = c.numerator
        if not a:
            return Polynomial(self.nvars)
        out = {monomial_mul(m, m1): a * v for m1, v in self.nums.items()}
        return _lowest(self.nvars, out, self.den * c.denominator)

    def degree(self) -> int:
        if not self.nums:
            return -1
        return max(map(sum, self.nums))

    def homogeneous_degree(self) -> Optional[int]:
        """Common total degree of all terms, or None if mixed or zero."""
        degs = set(map(sum, self.nums))
        if len(degs) == 1:
            return degs.pop()
        return None

    @property
    def is_homogeneous(self) -> bool:
        return self.is_zero or self.homogeneous_degree() is not None

    def leading_monomial(self, order: MonomialOrder) -> Monomial:
        if not self.nums:
            raise ValueError("zero polynomial has no leading term")
        return min(self.nums, key=order.key)

    def leading(self, order: MonomialOrder) -> tuple[Monomial, Fraction]:
        """(leading monomial, its coefficient as in `terms`)."""
        m = self.leading_monomial(order)
        return m, Fraction(self.nums[m], self.den)

    def division_row(self, order: MonomialOrder) -> tuple[Monomial, int, tuple]:
        """Primitive integer multiple of self as (lm, lc, tail), lc > 0.

        Built once per order and kept on the polynomial, so a basis element
        that divides many times is converted once; tail holds the other
        terms as (monomial, int) pairs.
        """
        token = order.cache_token()
        if self._row is None or self._row[0] != token:
            lm = self.leading_monomial(order)
            nums = self.nums
            content = gcd(*nums.values())
            if nums[lm] < 0:
                content = -content
            tail = tuple((m, v // content) for m, v in nums.items() if m != lm)
            self._row = (token, (lm, nums[lm] // content, tail))
        return self._row[1]

    def monic(self, order: MonomialOrder) -> "Polynomial":
        c = self.nums[self.leading_monomial(order)]
        if c == self.den:
            return self
        return _lowest(self.nvars, self.nums, c)

    def is_term(self) -> bool:
        return len(self.nums) == 1

    def __repr__(self) -> str:
        if not self.nums:
            return "Polynomial(0)"
        terms = self.terms
        bits = []
        for m in sorted(terms, key=lambda m: (-monomial_degree(m), m)):
            bits.append(f"{terms[m]}*x^{list(m)}")
        return "Polynomial(" + " + ".join(bits) + ")"


@dataclass(frozen=True, init=False)
class LinearForm:
    """Nonzero homogeneous degree-one form sum (nums[i] / den) x_i.

    The integer numerators nums sit over den > 0 with
    gcd(den, *nums) = 1, so equal forms store equal parts.  The
    constructor takes a sequence of ints and Fractions; `coefficients`
    is the Fraction view, built on access.
    """

    nums: tuple[int, ...]
    den: int

    def __init__(self, coefficients: Sequence):
        den, nums = clear_denominators(dict(enumerate(coefficients)))
        self._set(list(nums.values()), den)

    @classmethod
    def from_numerators(cls, nums: Sequence[int], den: int) -> "LinearForm":
        """The form sum (nums[i] / den) x_i, for a nonzero den of either sign."""
        f = object.__new__(cls)
        f._set(nums, den)
        return f

    def _set(self, nums: Sequence[int], den: int) -> None:
        if not any(nums):
            raise ValueError("a linear form must have a nonzero coefficient")
        g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)
        object.__setattr__(self, "nums", tuple(v // g for v in nums))
        object.__setattr__(self, "den", den // g)

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.den) for v in self.nums)

    @property
    def nvars(self) -> int:
        return len(self.nums)

    def pivot(self) -> int:
        """Largest variable index carrying a nonzero coefficient."""
        return max(i for i, c in enumerate(self.nums) if c)

    def to_polynomial(self) -> Polynomial:
        return _lowest(len(self.nums), _linear_terms(self.nums), self.den)

    def scaled(self, c) -> "LinearForm":
        den, a = clear_denominators({0: c})
        if not a[0]:
            raise ValueError("cannot scale a form to zero")
        return LinearForm.from_numerators([a[0] * v for v in self.nums], self.den * den)


def _linear_terms(nums: Sequence[int]) -> dict[Monomial, int]:
    """{x_k: nums[k]} over the nonzero nums, keyed by exponent tuple."""
    n = len(nums)
    return {tuple(int(i == k) for i in range(n)): v for k, v in enumerate(nums) if v}


def form_combination(
    coeffs: Sequence, forms: Sequence[LinearForm]
) -> Optional[LinearForm]:
    """Linear combination of forms; None when it collapses to zero."""
    if not forms:
        raise EmptySpan("no forms to combine")
    n = forms[0].nvars
    cden, cnums = clear_denominators(dict(enumerate(coeffs)))
    den = lcm(*(f.den for f in forms))
    acc = [0] * n
    for c, f in zip(cnums.values(), forms):
        if f.nvars != n:
            raise RingMismatch("forms over different variable counts")
        c *= den // f.den
        for i, x in enumerate(f.nums):
            acc[i] += c * x
    return LinearForm.from_numerators(acc, cden * den) if any(acc) else None


def forms_independent(forms: Sequence[LinearForm]) -> bool:
    """True when the forms are linearly independent over the rationals."""
    echelon = IntEchelon()
    for f in forms:
        if not echelon.insert({j: c for j, c in enumerate(f.nums) if c}):
            return False
    return True


def _primitive_key(g: Polynomial) -> tuple:
    """The terms of the primitive integer multiple of g whose first term,
    in sorted order, is positive."""
    terms = sorted(g.nums.items())
    content = gcd(*g.nums.values())
    if terms[0][1] < 0:
        content = -content
    return tuple((m, c // content) for m, c in terms)


class PolyIdeal:
    """Homogeneous ideal given by explicit generators.

    Generators are homogeneous; the unit ideal and the zero ideal are
    both admitted so that colon and quotient constructions stay closed.
    """

    __slots__ = ("ring_dim", "generators", "_cached_key")

    def __init__(self, ring_dim: int, generators: Iterable[Polynomial] = ()):
        self.ring_dim = ring_dim
        gens: dict[tuple, Polynomial] = {}
        is_unit = False
        for g in generators:
            if not isinstance(g, Polynomial):
                raise TypeError("generators must be Polynomial instances")
            if g.nvars != ring_dim:
                raise RingMismatch(
                    f"generator over {g.nvars} variables in a ring of {ring_dim}"
                )
            if g.is_zero:
                continue
            degree = g.homogeneous_degree()
            if degree is None:
                raise ValueError("ideal generators must be homogeneous")
            if degree == 0:
                is_unit = True
                continue
            gens.setdefault(g.canonical_key(), g)
        self.generators = (Polynomial.one(ring_dim),) if is_unit else tuple(gens.values())
        self._cached_key = None

    @property
    def is_zero(self) -> bool:
        return not self.generators

    @property
    def is_unit(self) -> bool:
        return any(g.homogeneous_degree() == 0 for g in self.generators)

    @property
    def is_monomial(self) -> bool:
        return all(g.is_term() for g in self.generators)

    def monomial_exponents(self) -> frozenset[Monomial]:
        """Minimal generating exponents; only for monomial ideals."""
        if not self.is_monomial:
            raise ValueError("not a monomial ideal")
        return minimalize_exponents(next(iter(g.nums)) for g in self.generators)

    def canonical_key(self):
        """(ring_dim, sorted set of the generators' primitive forms).

        Each generator's numerators are divided by their content and
        signed so that its first term in sorted order is positive, so
        the key ignores the scale of every generator.  Series, depth
        screens and socle series do not change when a generator is
        multiplied by a nonzero scalar, so the memos keyed on it hit
        across scalings.
        """
        if self._cached_key is None:
            self._cached_key = (
                self.ring_dim,
                tuple(sorted({_primitive_key(g) for g in self.generators})),
            )
        return self._cached_key

    def __eq__(self, other) -> bool:
        # The same generators up to nonzero scalars, not ideal-theoretic
        # equality.
        if not isinstance(other, PolyIdeal):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        return hash(self.canonical_key())

    def __repr__(self) -> str:
        return f"PolyIdeal(d={self.ring_dim}, gens={len(self.generators)})"


def _over_one_den(nvars: int, terms: dict) -> Polynomial:
    """The polynomial with the terms {m: (c, d)}, each (c / d) x^m."""
    den = lcm(*{d for _, d in terms.values()})
    return _lowest(nvars, {m: c * (den // d) for m, (c, d) in terms.items()}, den)


def _divide(
    f: Polynomial,
    rows: Sequence[tuple[Monomial, int, tuple]],
    order: MonomialOrder,
    quotient: Optional[dict] = None,
) -> Polynomial:
    """Remainder of f under division by the divisor rows, leading term first.

    The pending terms are f's numerators over its den.  A heap pops the
    next pending monomial by order key; an entry whose term has cancelled
    is skipped.  Cancelling c x^m against the row with lm | m multiplies
    the pending row by a = lc/g and subtracts b = c/g times the shifted
    tail (g = gcd(c, lc)), then divides the pending row and den by their
    content.  A remainder term is kept as (c, den) of its moment, and one
    lcm and one gcd put the remainder over one denominator at the end.
    With one row, quotient collects the quotient by that row made monic
    the same way, keyed by shift.
    """
    key = order.key
    den, work = f.den, dict(f.nums)
    heap = [(key(m), m) for m in work]
    heapify(heap)
    remainder: dict[Monomial, tuple[int, int]] = {}
    while heap:
        m = heappop(heap)[1]
        c = work.pop(m, 0)
        if not c:
            continue
        for lm, lc, tail in rows:
            if all(map(le, lm, m)):
                break
        else:
            remainder[m] = c, den
            continue
        shift = tuple(map(sub, m, lm))
        g = gcd(c, lc)
        a, b = lc // g, c // g
        if quotient is not None:
            quotient[shift] = c, den
        if a != 1:
            den *= a
            work = {t: v * a for t, v in work.items()}
        for mt, ct in tail:
            mm = tuple(map(add, mt, shift))
            d = b * ct
            v = work.get(mm)
            if v is None:
                work[mm] = -d
                heappush(heap, (key(mm), mm))
            elif v == d:
                del work[mm]
            else:
                work[mm] = v - d
        if den != 1:
            k = gcd(den, *work.values())
            if k != 1:
                den //= k
                work = {t: v // k for t, v in work.items()}
    return _over_one_den(f.nvars, remainder)


def normal_form(
    f: Polynomial, basis: Sequence[Polynomial], order: Optional[MonomialOrder] = None
) -> Polynomial:
    """Remainder of f under multivariate division by basis."""
    order = order or DegRevLex(f.nvars)
    rows = []
    for g in basis:
        if g.is_zero:
            continue
        if g.nvars != f.nvars:
            raise RingMismatch("division across different rings")
        rows.append(g.division_row(order))
    return _divide(f, rows, order)


def _minimal(
    G: list, lms: list[Monomial], order: MonomialOrder
) -> tuple[list, list[Monomial]]:
    """The elements of G whose leading monomial no other one divides, with
    their leading monomials, lowest first (so a divisor precedes its
    multiples)."""
    keep: list[int] = []
    for i in sorted(range(len(G)), key=lambda i: order.key(lms[i]), reverse=True):
        if not any(monomial_divides(lms[k], lms[i]) for k in keep):
            keep.append(i)
    return [G[i] for i in keep], [lms[i] for i in keep]


class Uncertified(ArithmeticError):
    """A stage of a modular run missed the exact rational lower bound."""


# the prime of the modular kernel, the largest below 2^31
_PRIME = 2**31 - 1


class _PackedKernel:
    """Packed monomials and the basis elements of both kernels.

    Both orders the package defines are weight orders, so a monomial m
    with exponents e_i is one int K(m) = sum e_i w_i that sorts like
    `order.key` (Bachmann & Schoenemann 1998).  The low W = B d bits hold
    the exponents in B-bit fields, variable i at bit B i, and the weights
    put the order's leading criteria above them:

    - `DegRevLex`: K(m) = R(m) - deg(m) 2^W, degree first, then the
      fields from the last variable down;
    - `EliminationOrder` on variable a: K(m) = R(m) - deg'(m) 2^W -
      m[a] 2^(W + B), with deg' the degree in the other variables, so
      -m[a] comes first and -deg' next; the fields then compare the other
      exponents from the last variable down, m[a] being equal by then.

    Then:

    - ascending K is ascending `order.key`, so a heap pops bare ints in
      reduction order;
    - K(m u) = K(m) + K(u), so a shift is one addition;
    - R(m) = K(m) & (2^W - 1), and with `guards` the mask of the fields'
      top bits, lm divides m exactly when
      ((R(m) | guards) - R(lm)) & guards == guards: each field of m
      borrows from its own guard bit, and keeps it only if its exponent is
      at least lm's.

    The fields hold exponents up to `limit` = 2^(B-1) - 1, at first at
    least twice the sum of the generators' degrees.  Every monomial a
    reduction writes has degree at most that of the entering generator or
    of the S-pair lcm: under degrevlex it lies below them, and under the
    elimination order the generators are homogeneous, or homogeneous in
    the other variables as in `colon`, and m[a] falls along the order.
    So one degree check per generator and per S-pair guards the fields,
    and a degree past the limit doubles B and re-packs the basis.

    An element is (K(lm), R(lm), lc, tail): leading monomial lm with
    coefficient lc, and the other terms as (K(m), coefficient) pairs.
    """

    def __init__(self, order: MonomialOrder, gens: Sequence[Polynomial]):
        if type(order) is DegRevLex:
            self.aux = None
        elif type(order) is EliminationOrder:
            self.aux = a = order.aux_index
            if not (
                all(g.is_homogeneous for g in gens)
                or all(len({sum(m) - m[a] for m in g.nums}) <= 1 for g in gens)
            ):
                raise ValueError(
                    "an elimination run needs generators homogeneous in all "
                    "variables or in the non-eliminated ones"
                )
        else:
            raise TypeError(f"no packing for the {order.name} order")
        self.order = order
        self.nvars = order.nvars
        self._fit(max(2 * sum(g.degree() for g in gens), 1).bit_length() + 1)

    def _fit(self, B: int) -> None:
        """Set up B-bit fields."""
        d = self.nvars
        self.field = B
        self.limit = (1 << (B - 1)) - 1
        self.width = W = B * d
        self.mask = (1 << W) - 1
        self.guards = sum(1 << (B * i + B - 1) for i in range(d))
        self.shifts = tuple(B * i for i in range(d))
        weights = [(1 << s) - (1 << W) for s in self.shifts]
        if self.aux is not None:
            weights[self.aux] -= (1 << (W + B)) - (1 << W)
        self.weights = tuple(weights)

    def _pack(self, m: Monomial) -> int:
        return sum(map(mul, m, self.weights))

    def _unpack(self, k: int) -> Monomial:
        r, limit = k & self.mask, self.limit
        return tuple(r >> s & limit for s in self.shifts)

    def _element(self, lm: int, lc: int, tail: tuple) -> tuple:
        return lm, lm & self.mask, lc, tail

    def _room(self, n: int, G: list) -> None:
        """Make the fields hold exponents up to n: double B until they do,
        and re-pack the elements of G in place."""
        if n <= self.limit:
            return
        unpack = self._unpack
        rows = [
            (unpack(k), lc, [(unpack(m), c) for m, c in tail]) for k, _, lc, tail in G
        ]
        B = self.field
        while (1 << (B - 1)) - 1 < n:
            B *= 2
        self._fit(B)
        pack = self._pack
        G[:] = [
            self._element(pack(lm), lc, tuple((pack(m), c) for m, c in tail))
            for lm, lc, tail in rows
        ]

    def _shifts(self, G: list, i: int, j: int, top: Monomial) -> tuple[int, int]:
        """The packed cofactors top/lm(G[i]) and top/lm(G[j]) of the S-pair
        with lcm top, after making room for its degree."""
        self._room(monomial_degree(top), G)
        k = self._pack(top)
        return k - G[i][0], k - G[j][0]

    def lead(self, g: tuple) -> Monomial:
        return self._unpack(g[0])


class RationalKernel(_PackedKernel):
    """Exact integer coefficients for `_buchberger_run`.

    An element is the primitive integer multiple of a polynomial with
    lc > 0, fully reduced when it enters.  Reduction is fraction-free, as
    in `_divide`: cancelling c x^m against the first element whose leading
    monomial divides it multiplies the pending terms by a = lc/g and
    subtracts b = c/g times the shifted tail (g = gcd(c, lc)).  Once such a
    scaling has left a denominator above 1, each step divides the pending
    terms and the denominator by their common content.  A remainder term
    keeps the denominator of its moment, and one lcm and one gcd make the
    remainder primitive.  `reduced` tail-reduces a finished basis into the
    reduced monic basis.
    """

    exact = True

    def enter(self, f: Polynomial, G: list) -> Optional[tuple]:
        self._room(f.degree(), G)
        pack = self._pack
        return self._reduce({pack(m): v for m, v in f.nums.items()}, G)

    def spair(self, G: list, i: int, j: int, top: Monomial) -> Optional[tuple]:
        u, v = self._shifts(G, i, j, top)
        (_, _, ci, taili), (_, _, cj, tailj) = G[i], G[j]
        g = gcd(ci, cj)
        a, b = cj // g, ci // g
        work = {m + u: a * c for m, c in taili}
        for m, c in tailj:
            m += v
            w = work.get(m, 0) - b * c
            if w:
                work[m] = w
            else:
                del work[m]
        return self._reduce(work, G)

    def _reduce(self, work: dict, G: list) -> Optional[tuple]:
        """The element of the remainder of the integer terms work under
        division by G; None for zero."""
        mask, guards = self.mask, self.guards
        heap = list(work)
        heapify(heap)
        den = 1
        remainder: dict[int, tuple[int, int]] = {}
        while heap:
            m = heappop(heap)
            c = work.pop(m, 0)
            if not c:
                continue
            r = m & mask | guards
            for lm, rlm, lc, tail in G:
                if (r - rlm) & guards == guards:
                    break
            else:
                remainder[m] = c, den
                continue
            shift = m - lm
            g = gcd(c, lc)
            a, b = lc // g, c // g
            if a != 1:
                den *= a
                work = {t: v * a for t, v in work.items()}
            for mt, ct in tail:
                mm = mt + shift
                d = b * ct
                v = work.get(mm)
                if v is None:
                    work[mm] = -d
                    heappush(heap, mm)
                elif v == d:
                    del work[mm]
                else:
                    work[mm] = v - d
            if den != 1:
                k = gcd(den, *work.values())
                if k != 1:
                    den //= k
                    work = {t: v // k for t, v in work.items()}
        if not remainder:
            return None
        top = lcm(*{d for _, d in remainder.values()})
        terms = iter([(m, c * (top // d)) for m, (c, d) in remainder.items()])
        lm, lc = next(terms)
        tail = tuple(terms)
        content = gcd(lc, *(c for _, c in tail))
        if lc < 0:
            content = -content
        return self._element(lm, lc // content, tuple((m, c // content) for m, c in tail))

    def reduced(self, G: list) -> tuple[Polynomial, ...]:
        """The reduced monic basis from a minimal one: each element
        tail-reduced by the others, leading monomial first in the order."""
        unpack, out = self._unpack, []
        for i, (k, _, lc, tail) in enumerate(G):
            lm, _, lc, tail = self._reduce({k: lc, **dict(tail)}, G[:i] + G[i + 1 :])
            nums = {unpack(lm): lc}
            nums.update((unpack(m), c) for m, c in tail)
            out.append((lm, _lowest(self.nvars, nums, lc)))
        out.sort(key=lambda row: row[0])
        return tuple(g for _, g in out)


class ModPKernel(_PackedKernel):
    """Coefficients mod the prime 2^31 - 1 for `_buchberger_run`.

    A generator enters as its primitive integer numerators mod p, and an
    element is monic (lc = 1).  Only the leading term of a pending
    polynomial is reduced, by the first element whose leading monomial
    divides it.  The run's leading monomials are those of elements of the
    ideal mod p, so they bound the rational Hilbert function from above and
    certify a series only where they meet the rational lower bound (see
    `_buchberger_run`), never an initial ideal.
    """

    exact = False

    def enter(self, f: Polynomial, G: list) -> Optional[tuple]:
        self._room(f.degree(), G)
        content = gcd(*f.nums.values())
        pack = self._pack
        work = {pack(m): v // content % _PRIME for m, v in f.nums.items()}
        return self._top_reduce(work, G)

    def spair(self, G: list, i: int, j: int, top: Monomial) -> Optional[tuple]:
        u, v = self._shifts(G, i, j, top)
        work = {m + u: c for m, c in G[i][3]}
        for m, c in G[j][3]:
            m += v
            work[m] = (work.get(m, 0) - c) % _PRIME
        return self._top_reduce(work, G)

    def _top_reduce(self, work: dict, G: list) -> Optional[tuple]:
        """The residues work, top-reduced by G and made monic; None for zero.

        A heap pops the pending monomials in order; a residue that has
        cancelled to 0 stays in work until popped and is skipped.  Every
        monomial a reduction step writes lies below the popped one, so no
        monomial enters the heap twice.
        """
        mask, guards = self.mask, self.guards
        heap = list(work)
        heapify(heap)
        while heap:
            m = heappop(heap)
            c = work.pop(m)
            if not c:
                continue
            r = m & mask | guards
            for lm, rlm, _, tail in G:
                if (r - rlm) & guards == guards:
                    break
            else:
                inv = pow(c, -1, _PRIME)
                tail = tuple((t, v * inv % _PRIME) for t, v in work.items() if v)
                return self._element(m, 1, tail)
            shift = m - lm
            for mt, ct in tail:
                mm = mt + shift
                v = work.get(mm)
                if v is None:
                    work[mm] = -c * ct % _PRIME
                    heappush(heap, mm)
                else:
                    work[mm] = (v - c * ct) % _PRIME
        return None


def _buchberger_run(
    gens: Sequence[Polynomial], nvars: int, kernel: RationalKernel | ModPKernel
) -> tuple[list, Optional[IntPolynomial]]:
    """Incremental Buchberger with Hilbert-driven pruning.

    The generators enter one at a time, lowest degree first.  Each is
    reduced against the basis so far and dropped if it reduces to zero;
    otherwise a stage adds it and treats its S-pairs, lowest lcm degree
    first, under the coprime and chain criteria.  After stage k the basis
    is a Groebner basis of J = (f_1..f_k), cut down to its minimal part.
    The kernel does the coefficient work, entering a generator and
    reducing an S-pair, in the order `kernel.order`.  The result is the
    last minimal basis, as kernel elements lowest leading monomial first,
    and, when every generator is homogeneous, the Hilbert numerator of R
    modulo its leading monomials (None otherwise).

    For homogeneous generators the run keeps h, the numerator of R/L for
    the leading monomials L so far: adding an element with leading
    monomial m sets h(L + (m)) = h(L) - t^deg(m) h(L : m) (Bigatti 1997).
    Adding a form f of degree e to J has an exact lower bound: the sequence
    0 -> ((J:f)/J)(-e) -> (R/J)(-e) -> R/J -> R/(J+f) -> 0 gives

        H_{R/(J+f)}(n) >= H_{R/J}(n) - H_{R/J}(n - e),

    with H_{R/J} read off h at the start of the stage.  When a pair of lcm
    degree n comes up and the degree-n monomials outside L are exactly
    that many, L already spans LT(J+f) in degree n.  Every degree-n
    S-polynomial then reduces to zero, so the pair counts as treated and
    is skipped (Traverso 1996).  The reduced basis is unique, so the
    pruning changes only how many reductions it takes.

    A kernel that is not exact, `ModPKernel`, takes homogeneous
    generators, certifies its stages against that bound and raises
    Uncertified at the first miss.  Its leading monomials belong to
    elements of the ideal mod p, whose Macaulay matrices have at most
    their rational rank in each degree, so their Hilbert function is at
    least H_{R/(J+f)} over Q whatever the prime, and a pruning mistake
    mod p can only raise it further.  Over a certified J the bound is
    exact, so a stage whose numerator is (1 - t^e) times the previous one
    has the rational series, and a stage that ends anywhere above it
    cannot.  A stage therefore also stops at the first finished degree
    whose count exceeds the bound, and a generator that reduces to zero
    mod p misses it at once.  Only the series is certified, never the
    leading monomials themselves.
    """
    order = kernel.order
    graded = all(g.is_homogeneous for g in gens)
    G: list = []
    lms: list[Monomial] = []
    h = IntPolynomial.one()
    # untreated pairs of the current stage, with their priorities
    pairs: dict[tuple[int, int], tuple] = {}

    def add(g) -> None:
        nonlocal h
        m = kernel.lead(g)
        if graded:
            quotient = minimalize_exponents(
                tuple(a - b if a > b else 0 for a, b in zip(l, m)) for l in lms
            )
            h = h - _numerator_of_monomial(nvars, quotient).times_t_power(sum(m))
        G.append(g)
        lms.append(m)
        j = len(G) - 1
        for i in range(j):
            # the pair taken next is the one of largest priority: lowest lcm
            # degree first, then the lcm lowest in the order (the largest
            # key), then the earliest pair
            top = monomial_lcm(lms[i], m)
            pairs[i, j] = (-monomial_degree(top), order.key(top), -i, -j)

    for f in sorted((g for g in gens if not g.is_zero), key=Polynomial.degree):
        e = f.degree()
        # H(R/J) for the ideal J of the earlier stages
        before = HilbertSeries(nvars, h)
        r = kernel.enter(f, G)
        if r is not None:
            start = len(G)
            # (n, len(G)) -> whether the leading monomials span LT(J+f)_n
            spanned: dict[tuple[int, int], bool] = {}

            def spans(n: int) -> bool:
                state = (n, len(G))
                if state not in spanned:
                    bound = coefficient(before, n) - coefficient(before, n - e)
                    spanned[state] = coefficient(HilbertSeries(nvars, h), n) == bound
                return spanned[state]

            done: set[tuple[int, int]] = set()
            add(r)
            # degrees up to top are finished: the pairs come in rising lcm
            # degree, and a new element's pairs lie above its own degree
            top = e
            while pairs:
                i, j = max(pairs, key=pairs.__getitem__)
                n = -pairs.pop((i, j))[0]
                done.add((i, j))
                if not kernel.exact and n > top:
                    if not spans(top):
                        raise Uncertified(f"degree {top} above the bound")
                    top = n
                if monomials_coprime(lms[i], lms[j]):
                    continue
                if graded and spans(n):
                    continue
                # chain criterion: a third element dividing the lcm whose
                # pairs with both ends were already treated (in this stage,
                # or in an earlier one when both are older) makes this pair
                # redundant
                pair_lcm = monomial_lcm(lms[i], lms[j])
                if any(
                    k != i
                    and k != j
                    and monomial_divides(lms[k], pair_lcm)
                    and (max(i, k) < start or (min(i, k), max(i, k)) in done)
                    and (max(j, k) < start or (min(j, k), max(j, k)) in done)
                    for k in range(len(G))
                ):
                    continue
                r = kernel.spair(G, i, j, pair_lcm)
                if r is not None:
                    add(r)
            G, lms = _minimal(G, lms, order)
        if not kernel.exact:
            hb = before.numerator
            if h != hb - hb.times_t_power(e):
                raise Uncertified(f"stage of degree {e} above the bound")
    return G, h if graded else None


def _reduced_basis(
    gens: Sequence[Polynomial], nvars: int, order: MonomialOrder
) -> tuple[Polynomial, ...]:
    """The reduced monic Groebner basis of (gens): a rational run, then
    each element of its minimal basis tail-reduced by the others."""
    kernel = RationalKernel(order, gens)
    return kernel.reduced(_buchberger_run(gens, nvars, kernel)[0])


def buchberger(I: PolyIdeal, order: Optional[MonomialOrder] = None) -> tuple[Polynomial, ...]:
    """Reduced monic Groebner basis of I."""
    order = order or DegRevLex(I.ring_dim)
    if I.is_monomial:
        return tuple(
            Polynomial.from_monomial(I.ring_dim, m)
            for m in sorted(I.monomial_exponents(), key=order.key)
        )
    return _reduced_basis(I.generators, I.ring_dim, order)

def initial_ideal(I: PolyIdeal, order: Optional[MonomialOrder] = None) -> PolyIdeal:
    """Monomial ideal of leading terms of the reduced Groebner basis."""
    order = order or DegRevLex(I.ring_dim)
    gens = [
        Polynomial.from_monomial(I.ring_dim, g.leading_monomial(order))
        for g in buchberger(I, order)
    ]
    return PolyIdeal(I.ring_dim, gens)


def _exact_divide(p: Polynomial, f: Polynomial, order: MonomialOrder) -> Polynomial:
    """Quotient p / f for p a multiple of f."""
    quot: dict[Monomial, tuple[int, int]] = {}
    if _divide(p, [f.division_row(order)], order, quot):
        raise ArithmeticError("polynomial is not a multiple of the divisor")
    # quot is p / monic(f); p / f is that over lc(f) = nums[lm] / den
    lc = f.nums[f.leading_monomial(order)]
    quot = {m: (c * f.den, d * lc) for m, (c, d) in quot.items()}
    return _over_one_den(p.nvars, quot)


def _lift_adding_aux(p: Polynomial) -> Polynomial:
    return _lowest(p.nvars + 1, {(0,) + m: c for m, c in p.nums.items()}, p.den)


def colon(I: PolyIdeal, f: Polynomial) -> PolyIdeal:
    """Ideal quotient (I : f) for a single nonzero homogeneous f.

    Intersects I with (f) through one auxiliary variable, then divides
    the intersection generators by f.
    """
    if f.is_zero:
        raise ValueError("colon by zero is undefined")
    if f.nvars != I.ring_dim:
        raise RingMismatch("colon across different rings")
    if not f.is_homogeneous:
        raise ValueError("colon divisor must be homogeneous")
    if I.is_zero:
        return PolyIdeal(I.ring_dim, ())
    if I.is_unit:
        return PolyIdeal(I.ring_dim, (Polynomial.one(I.ring_dim),))
    if I.is_monomial and f.is_term():
        fm = next(iter(f.nums))
        gens = [
            Polynomial.from_monomial(I.ring_dim, tuple(max(a - b, 0) for a, b in zip(m, fm)))
            for m in I.monomial_exponents()
        ]
        return PolyIdeal(I.ring_dim, gens)
    d = I.ring_dim
    order = EliminationOrder(d + 1, aux_index=0)
    w = Polynomial.variable(d + 1, 0)
    lifted_f = _lift_adding_aux(f)
    J = [w * _lift_adding_aux(g) for g in I.generators]
    J.append(lifted_f - w * lifted_f)
    basis = _reduced_basis(J, d + 1, order)
    ambient_order = DegRevLex(d)
    gens = []
    for p in basis:
        if all(m[0] == 0 for m in p.nums):
            dropped = _lowest(d, {m[1:]: c for m, c in p.nums.items()}, p.den)
            gens.append(_exact_divide(dropped, f, ambient_order))
    return PolyIdeal(d, gens)


@dataclass(frozen=True)
class LinearElimination:
    """Substitution killing one variable along a linear form.

    Solving f = 0 for its pivot variable rewrites every polynomial into
    the ring on the remaining variables; degrees are preserved.  The
    pivot's replacement is the integer form rep over one den > 0,
    indexed by the surviving variables.
    """

    nvars: int
    pivot: int
    rep: tuple[int, ...]
    den: int

    @property
    def replacement(self) -> tuple[Fraction, ...]:
        """The replacement's coefficients as Fractions, built on access."""
        return tuple(Fraction(v, self.den) for v in self.rep)

    @cached_property
    def _integer_powers(self) -> list[dict[Monomial, int]]:
        """powers[e] holds rep^e as a {monomial: int} dict, grown on demand
        by map_polynomial and kept for every later call."""
        return [{(0,) * (self.nvars - 1): 1}, _linear_terms(self.rep)]

    def old_index(self, new_index: int) -> int:
        """Original ring index of a surviving variable."""
        return new_index if new_index < self.pivot else new_index + 1

    def map_polynomial(self, p: Polynomial) -> Polynomial:
        """Image of p with the pivot variable replaced, computed on integers.

        With p = sum (c_m/den) x^m and the replacement rep/L, the term of
        pivot exponent e maps to c_m L^(E-e) rep^e x^base over den L^E, E
        the largest pivot exponent in p; the integer numerators are summed
        in one dict and one gcd puts the image in lowest terms.  The image
        is the same exact rational polynomial, terms in the same order, as
        summing the Fraction products term by term.
        """
        if p.nvars != self.nvars:
            raise RingMismatch("polynomial is not in the eliminated ring")
        if not p.nums:
            return Polynomial(self.nvars - 1)
        pv, L = self.pivot, self.den
        powers = self._integer_powers
        rep = powers[1]
        E = max(m[pv] for m in p.nums)
        while len(powers) <= E:
            step: dict[Monomial, int] = {}
            for m1, c1 in powers[-1].items():
                for m2, c2 in rep.items():
                    m = tuple(map(add, m1, m2))
                    v = step.get(m, 0) + c1 * c2
                    if v:
                        step[m] = v
                    else:
                        step.pop(m, None)
            powers.append(step)
        scales = [L ** (E - e) for e in range(E + 1)]
        acc: dict[Monomial, int] = {}
        for m, c in p.nums.items():
            e = m[pv]
            base = m[:pv] + m[pv + 1 :]
            c *= scales[e]
            for m1, c1 in powers[e].items():
                m1 = tuple(map(add, base, m1))
                v = acc.get(m1, 0) + c * c1
                if v:
                    acc[m1] = v
                else:
                    del acc[m1]
        return _lowest(self.nvars - 1, acc, p.den * scales[0])

    def map_ideal(self, I: PolyIdeal) -> PolyIdeal:
        """Generators of I rewritten in the d-1 variable ring."""
        if I.ring_dim != self.nvars:
            raise RingMismatch("ideal is not in the eliminated ring")
        return PolyIdeal(self.nvars - 1, map(self.map_polynomial, I.generators))

    def map_form(self, g: LinearForm) -> Optional[LinearForm]:
        if g.nvars != self.nvars:
            raise RingMismatch("form is not in the eliminated ring")
        pv, L = self.pivot, self.den
        c = g.nums[pv]
        rest = g.nums[:pv] + g.nums[pv + 1 :]
        acc = [v * L + c * r for v, r in zip(rest, self.rep)]
        return LinearForm.from_numerators(acc, g.den * L) if any(acc) else None


def eliminate_form(f: LinearForm) -> LinearElimination:
    """Elimination data solving f = 0 for its pivot variable."""
    p = f.pivot()
    cp = f.nums[p]
    rep = [-c if cp > 0 else c for i, c in enumerate(f.nums) if i != p]
    g = gcd(cp, *rep)
    return LinearElimination(f.nvars, p, tuple(v // g for v in rep), abs(cp) // g)


def quotient_by_linear(I: PolyIdeal, f: LinearForm) -> PolyIdeal:
    """Generators of I rewritten in the d-1 variable ring along f = 0.

    Unused by the package, which calls LinearElimination.map_ideal;
    kept because the benchmark tracer wraps it by name."""
    if f.nvars != I.ring_dim:
        raise RingMismatch("form is not in the ideal's ring")
    return eliminate_form(f).map_ideal(I)
