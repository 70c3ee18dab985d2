"""Multivariate polynomial arithmetic over the rationals.

A polynomial is stored as integer numerators {exponent tuple: int} over
one positive denominator, in lowest terms, so equal polynomials store
equal parts; `terms` is the {exponent tuple: Fraction} view for printing
and the public API.  A linear form keeps a tuple of numerators the same
way, viewed as `coefficients`, and an ideal keeps each generator once,
as its primitive integer multiple.  The package has two monomial orders,
`DegRevLex` and `EliminationOrder`, whose sort keys put the leading
monomial first, so leading terms come from min() over the support.
Linear substitution works on the numerators, and one gcd puts each
result in lowest terms; a monomial ideal cut along a form of at most two
terms is mapped on its exponent tuples instead.  The Groebner engine is
one incremental Buchberger loop on homogeneous input: generators enter
one at a time, S-pairs are skipped by the coprime and chain criteria and
by an exact lower bound on the Hilbert function of the next stage's
quotient, read off a Hilbert numerator the loop keeps up to date.  The
loop and its kernels work on monomials packed into single ints, one
packing for each of the two orders: over the rationals the kernel
reduces fully and fraction-free, and the same loop is the plain division
of `normal_form` and of `colon`'s exact quotients; mod 2^31 - 1 it
top-reduces only.  A run ends in leading monomials and their Hilbert
numerator, which is all the series and `initial_ideal` need; only
`buchberger` and `colon` tail-reduce the rational run into the reduced
monic basis.  The mod-p numerator certifies a series, never an initial
ideal (see `presentation`).  Exponent arithmetic and the monomial
Hilbert numerator live in `monomial`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import add, itemgetter, mul
from typing import Iterable, Optional, Sequence

from hilbcalc.linalg import IntEchelon
from hilbcalc.monomial import (
    Monomial,
    minimalize_exponents,
    monomial_degree,
    monomial_mul,
    numerator_of_monomial,
)
from hilbcalc.series import HilbertSeries, IntPolynomial, coefficient


class RingMismatch(ValueError):
    """Operands live over different variable counts."""


class EmptySpan(ValueError):
    """A random draw was requested from an empty span."""


class DegRevLex:
    """Degree reverse lexicographic order, the default everywhere.

    Keys sort ascending from the top of the order down: the leading
    monomial of a support has the smallest key, so min() finds it and an
    ascending sort lists terms leading first.  The Groebner kernels pack
    this order and `EliminationOrder` into ints (`_PackedKernel`) and take
    no other order.
    """

    def __init__(self, nvars: int):
        self.nvars = nvars

    def key(self, m: Monomial):
        return (-sum(m), m[::-1])

    def cache_token(self) -> str:
        """The order and its ring; the benchmark's tracer keys calls by it."""
        return f"degrevlex:{self.nvars}"


class EliminationOrder:
    """Block order putting variable 0, the variable `colon` eliminates,
    ahead of the rest.

    Any monomial containing the auxiliary variable beats every monomial
    that avoids it, so the auxiliary-free part of a Groebner basis
    generates the eliminated ideal.  Keys sort as `DegRevLex`'s do.
    """

    def __init__(self, nvars: int):
        self.nvars = nvars

    def key(self, m: Monomial):
        rest = m[1:]
        return (-m[0], -sum(rest), rest[::-1])

    def cache_token(self) -> str:
        """The order, its ring and the eliminated variable; the benchmark's
        tracer keys calls by it."""
        return f"elim:{self.nvars}:0"


Order = DegRevLex | EliminationOrder


def clear_denominators(coeffs: dict) -> tuple[int, dict]:
    """(den, ints) with den the lcm of the denominators of the int or
    Fraction values of coeffs and ints the same keys holding value * den."""
    for c in coeffs.values():
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"coefficients must be rational, got {type(c).__name__}")
    den = lcm(*(c.denominator for c in coeffs.values()))
    return den, {k: c.numerator * (den // c.denominator) for k, c in coeffs.items()}


def _integer_polynomial(nvars: int, nums: dict) -> "Polynomial":
    """The polynomial with the nonzero integer numerators nums over den 1,
    for nums with no common factor."""
    p = object.__new__(Polynomial)
    p.nvars, p.nums, p.den = nvars, nums, 1
    return p


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
    p.nvars, p.nums, p.den = nvars, nums, den
    return p


class Polynomial:
    """Sparse polynomial over the rationals in a fixed number of variables.

    nums maps exponent tuples to nonzero integer numerators over den > 0,
    with gcd(den, *nums.values()) = 1; instances are not changed after
    construction.  The constructor takes {exponent tuple: int or Fraction}
    and refuses exponents that are negative or not ints.
    """

    __slots__ = ("nvars", "nums", "den")

    def __init__(self, nvars: int, terms: Optional[dict] = None):
        terms = terms or {}
        for m, c in terms.items():
            if len(m) != nvars:
                raise RingMismatch(
                    f"exponent tuple of length {len(m)} in a ring of {nvars}"
                )
            if not all(isinstance(e, int) for e in m):
                raise TypeError(f"exponents must be ints, got {tuple(m)}")
            if min(m, default=0) < 0:
                raise ValueError(f"negative exponent in {tuple(m)}")
        self.nvars = nvars
        self.den, nums = clear_denominators(terms)
        self.nums = {tuple(m): c for m, c in nums.items() if c}

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
    def from_monomial(cls, nvars: int, m: Monomial) -> "Polynomial":
        return cls(nvars, {tuple(m): 1})

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

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.nvars, self.den, self.nums) == (other.nvars, other.den, other.nums)

    def __hash__(self) -> int:
        return hash((self.nvars, self.den, frozenset(self.nums.items())))

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
        if g != 1:
            nums, den = [v // g for v in nums], den // g
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)

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
    if all(type(c) is int for c in coeffs):
        cden, cnums = 1, coeffs
    else:
        cden, cleared = clear_denominators(dict(enumerate(coeffs)))
        cnums = cleared.values()
    den = lcm(*(f.den for f in forms))
    acc = [0] * n
    for c, f in zip(cnums, forms):
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


class PolyIdeal:
    """Homogeneous ideal given by explicit generators, in normal form.

    Each generator is stored once, as its primitive integer multiple:
    content 1 over den 1, terms in sorted order with the first one
    positive, built from the generator's numerators with one sort and one
    content gcd.  Generators that are scalar multiples of each other
    collapse to the first.  Zero generators are dropped, and a constant
    one makes the unit ideal, generated by 1, so that colon and quotient
    constructions stay closed.  Series, depth screens, socle series and
    linear cuts see each generator only up to scale, so the normal form
    changes none of them.  The key, its hash and `is_monomial` are fixed
    at construction; the minimal exponents of a monomial ideal are worked
    out by the first `monomial_exponents` call and kept.
    """

    __slots__ = ("ring_dim", "generators", "is_monomial", "_key", "_hash", "_exponents")

    def __init__(self, ring_dim: int, generators: Iterable[Polynomial] = ()):
        gens: dict[tuple, Polynomial] = {}
        for g in generators:
            if not isinstance(g, Polynomial):
                raise TypeError("generators must be Polynomial instances")
            if g.nvars != ring_dim:
                raise RingMismatch(
                    f"generator over {g.nvars} variables in a ring of {ring_dim}"
                )
            if not g.nums:
                continue
            terms = sorted(g.nums.items())
            degree = sum(terms[0][0])
            if any(sum(m) != degree for m, _ in terms):
                raise ValueError("ideal generators must be homogeneous")
            content = gcd(*g.nums.values())
            if terms[0][1] < 0:
                content = -content
            key = tuple((m, c // content) for m, c in terms) if content != 1 else tuple(terms)
            if key not in gens:
                gens[key] = _integer_polynomial(ring_dim, dict(key))
        self._fix(ring_dim, gens)

    @classmethod
    def _of_monomials(cls, ring_dim: int, exps: Iterable[Monomial]) -> "PolyIdeal":
        """The ideal PolyIdeal(ring_dim, [x^m for m in exps]) builds, with no
        normal-form pass: x^m is already its own primitive multiple."""
        gens: dict[tuple, Polynomial] = {}
        for m in exps:
            key = ((m, 1),)
            if key not in gens:
                gens[key] = _integer_polynomial(ring_dim, {m: 1})
        ideal = object.__new__(cls)
        ideal._fix(ring_dim, gens)
        return ideal

    def _fix(self, ring_dim: int, gens: dict[tuple, Polynomial]) -> None:
        """Set the fields from the generators {normal-form terms: polynomial}."""
        one = (((0,) * ring_dim, 1),)
        if one in gens:
            gens = {one: gens[one]}
        self.ring_dim = ring_dim
        self.generators = tuple(gens.values())
        self.is_monomial = all(len(terms) == 1 for terms in gens)
        self._key = (ring_dim, tuple(sorted(gens)))
        self._hash = hash(self._key)
        self._exponents = None

    @property
    def is_zero(self) -> bool:
        return not self.generators

    @property
    def is_unit(self) -> bool:
        return any(g.homogeneous_degree() == 0 for g in self.generators)

    def monomial_exponents(self) -> frozenset[Monomial]:
        """Minimal generating exponents; only for monomial ideals.  Every
        call returns the frozenset the first call built."""
        if not self.is_monomial:
            raise ValueError("not a monomial ideal")
        if self._exponents is None:
            self._exponents = minimalize_exponents(
                next(iter(g.nums)) for g in self.generators
            )
        return self._exponents

    def canonical_key(self):
        """(ring_dim, sorted terms of the generators), the key behind
        `__eq__` and `__hash__`; the benchmark's tracer keys its facts by
        it.  Package caches key on the ideal itself."""
        return self._key

    def __eq__(self, other) -> bool:
        """The same generators in normal form, in any order: equality up
        to a nonzero scalar on each generator, not equality of ideals."""
        if not isinstance(other, PolyIdeal):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"PolyIdeal(d={self.ring_dim}, gens={len(self.generators)})"


def _over_one_den(nvars: int, terms: dict) -> Polynomial:
    """The polynomial with the terms {m: (c, d)}, each (c / d) x^m."""
    den = lcm(*{d for _, d in terms.values()})
    return _lowest(nvars, {m: c * (den // d) for m, (c, d) in terms.items()}, den)


def normal_form(
    f: Polynomial, basis: Sequence[Polynomial], order: Optional[Order] = None
) -> Polynomial:
    """Exact remainder of f under multivariate division by basis, each term
    divided by the first element whose leading monomial divides it.  The
    division is `RationalKernel`'s, so it takes the two orders the kernel
    packs (TypeError otherwise), and under an elimination order f and basis
    must be homogeneous in all variables or in the non-eliminated ones
    (ValueError otherwise)."""
    order = order or DegRevLex(f.nvars)
    divisors = []
    for g in basis:
        if g.is_zero:
            continue
        if g.nvars != f.nvars:
            raise RingMismatch("division across different rings")
        divisors.append(g)
    return RationalKernel(order, [f, *divisors]).divide(f, divisors)


def _minimal(G: list, kernel: RationalKernel | ModPKernel) -> list:
    """The elements of G whose leading monomial no other one divides, lowest
    leading monomial first (so a divisor precedes its multiples)."""
    keep: list = []
    for g in sorted(G, key=itemgetter(0), reverse=True):
        if not any(kernel.divides(k[0], g[0]) for k in keep):
            keep.append(g)
    return keep


class Uncertified(ArithmeticError):
    """A stage of a modular run missed the exact rational lower bound."""


# the prime of the modular kernel, the largest below 2^31
_PRIME = 2**31 - 1


class _PackedKernel:
    """Packed monomials, for both kernels' basis elements and for the pair
    loop of `_buchberger_run`, which compares and combines them as ints.

    Both orders the package defines are weight orders, so a monomial m
    with exponents e_i is one int K(m) = sum e_i w_i that sorts like
    `order.key` (Bachmann & Schoenemann 1998).  The low W = B d bits hold
    the exponents in B-bit fields, variable i at bit B i, and the weights
    put the order's leading criteria above them:

    - `DegRevLex`: K(m) = R(m) - deg(m) 2^W, degree first, then the
      fields from the last variable down;
    - `EliminationOrder`: K(m) = R(m) - deg(m) 2^W - m[0] 2^(W + B), so
      -m[0] comes first and -deg next, which for equal m[0] is -deg' with
      deg' the degree in the other variables; the fields then compare the
      other exponents from the last variable down, m[0] being equal by
      then.

    Then:

    - ascending K is ascending `order.key`, so a heap pops bare ints in
      reduction order;
    - K(m u) = K(m) + K(u), so a shift is one addition, and m and u are
      coprime exactly when K(lcm(m, u)) = K(m) + K(u);
    - deg(m) is the low B bits of -(K(m) >> W);
    - R(m) = K(m) & (2^W - 1), and with `guards` the mask of the fields'
      top bits, (R(m) | guards) - R(u) keeps the guard bit of exactly the
      fields where m's exponent is at least u's, above the difference of
      the two.  So u divides m when every guard bit stays, and the fields
      that keep theirs are R(m : u) for the colon m : u = m / gcd(m, u).
      Field d - 1 of R(m : u) times a 1 in every field sums the fields, so
      K(m : u) follows, and K(lcm(m, u)) = K(u) + K(m : u).

    The fields hold exponents up to `limit` = 2^(B-1) - 1, at first at
    least twice the sum of the generators' degrees, so the degree of a
    product of two fitting monomials stays below 2^B.  Every monomial a
    reduction writes has degree at most that of the entering generator, the
    dividend or the S-pair lcm: under degrevlex it lies below them, and
    under the elimination order the input is homogeneous, or homogeneous in
    the other variables as `normal_form` allows, and m[0] falls along the
    order.  So `room`, called by the run for each generator and each S-pair,
    guards the fields, and a degree past the limit doubles B and re-packs
    the basis; a division packs its dividend among the generators and needs
    no check.

    An element is (K(lm), R(lm), lc, tail): leading monomial lm with
    coefficient lc, and the other terms as (K(m), coefficient) pairs.
    """

    def __init__(self, order: Order, gens: Sequence[Polynomial]):
        self.elimination = type(order) is EliminationOrder
        if self.elimination:
            if not (
                all(g.is_homogeneous for g in gens)
                or all(len({sum(m) - m[0] for m in g.nums}) <= 1 for g in gens)
            ):
                raise ValueError(
                    "packing under an elimination order needs input homogeneous "
                    "in all variables or in the non-eliminated ones"
                )
        elif type(order) is not DegRevLex:
            raise TypeError(f"no packing for the {type(order).__name__} order")
        self.nvars = order.nvars
        self._fit(max(2 * sum(g.degree() for g in gens), 1).bit_length() + 1)

    def _fit(self, B: int) -> None:
        """Set up B-bit fields."""
        self.field = B
        self.limit = (1 << (B - 1)) - 1
        self.width = W = B * self.nvars
        self.mask = (1 << W) - 1
        self.shifts = tuple(range(0, W, B))
        self.ones = sum(1 << s for s in self.shifts)
        self.guards = self.ones << (B - 1)
        weights = [(1 << s) - (1 << W) for s in self.shifts]
        if self.elimination:
            weights[0] -= 1 << (W + B)
        self.weights = tuple(weights)

    def _pack(self, m: Monomial) -> int:
        return sum(map(mul, m, self.weights))

    def _unpack(self, k: int) -> Monomial:
        r, limit = k & self.mask, self.limit
        return tuple(r >> s & limit for s in self.shifts)

    def _element(self, lm: int, lc: int, tail: tuple) -> tuple:
        return lm, lm & self.mask, lc, tail

    def room(self, n: int, G: list) -> bool:
        """Make the fields hold exponents up to n: double B until they do,
        and re-pack the elements of G in place.  Whether it re-packed."""
        if n <= self.limit:
            return False
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
        return True

    def degree(self, k: int) -> int:
        """The degree of the monomial packed as k, below 2^B."""
        return -(k >> self.width) & ((1 << self.field) - 1)

    def divides(self, u: int, m: int) -> bool:
        """Whether u divides m."""
        mask, guards = self.mask, self.guards
        return ((m & mask | guards) - (u & mask)) & guards == guards

    def _colon(self, m: int, u: int) -> int:
        """The fields of m : u, exponents max(m_i - u_i, 0)."""
        diff = (m & self.mask | self.guards) - (u & self.mask)
        kept = diff & self.guards
        return diff & (kept - (kept >> (self.field - 1)))

    def colon(self, m: int, u: int) -> Monomial:
        """The exponent tuple of m : u."""
        return self._unpack(self._colon(m, u))

    def lcm(self, m: int, u: int) -> int:
        """K(lcm(m, u)) = K(u) + K(m : u)."""
        r = self._colon(m, u)
        B, W = self.field, self.width
        t = r * self.ones >> (W - B) & ((1 << B) - 1)
        if self.elimination:
            t += (r & self.limit) << B
        return u + r - (t << W)


class RationalKernel(_PackedKernel):
    """Exact integer coefficients for `_buchberger_run`, and the division of
    `normal_form` and `colon`.

    An element is the primitive integer multiple of a polynomial with
    lc > 0; in a run it is fully reduced when it enters.  Reduction is
    fraction-free (`_remainder`): cancelling c x^m against the first
    element whose leading monomial divides it multiplies the pending terms
    by a = lc/g and subtracts b = c/g times the shifted tail
    (g = gcd(c, lc)).  Once such a scaling has left a denominator above 1,
    each step divides the pending terms and the denominator by their common
    content.  A remainder term keeps the denominator of its moment; one lcm
    and one gcd make a run's remainder primitive, and `divide` puts a
    division's remainder over one denominator instead.  `reduced`
    tail-reduces a finished basis into the reduced monic basis.
    """

    exact = True

    def enter(self, f: Polynomial, G: list) -> Optional[tuple]:
        pack = self._pack
        return self._reduce({pack(m): v for m, v in f.nums.items()}, G)

    def spair(self, G: list, i: int, j: int, top: int) -> Optional[tuple]:
        (ki, _, ci, taili), (kj, _, cj, tailj) = G[i], G[j]
        u, v = top - ki, top - kj
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

    def divide(
        self, f: Polynomial, divisors: Sequence[Polynomial], quotient: Optional[dict] = None
    ) -> Polynomial:
        """Exact remainder of f under division by the nonzero divisors, tried
        in the order given, each as its unreduced primitive element.  With
        one divisor, quotient collects the quotient of f by that divisor as
        {shift: (c, d)}, each (c / d) x^shift."""
        pack, unpack = self._pack, self._unpack
        # reduced by nothing, a divisor comes out as its primitive element
        rows = [self._reduce({pack(m): v for m, v in g.nums.items()}, []) for g in divisors]
        # the loop starts from f's numerators, so its pairs are over f.den too
        steps = None if quotient is None else {}
        remainder = self._remainder({pack(m): v for m, v in f.nums.items()}, rows, steps)
        den = f.den
        if steps:
            # steps divide by g made monic, and g's lc is g.nums[lm] / g.den
            (g,) = divisors
            lc = g.nums[unpack(rows[0][0])]
            quotient.update(
                (unpack(u), (c * g.den, d * den * lc)) for u, (c, d) in steps.items()
            )
        return _over_one_den(
            self.nvars, {unpack(m): (c, d * den) for m, (c, d) in remainder.items()}
        )

    def _remainder(self, work: dict, G: list, quotient: Optional[dict] = None) -> dict:
        """The remainder of the integer terms work under division by G, as
        {K(m): (c, den)} in the order of the heap, leading term first.
        quotient, if given, collects the same pair for each reduced term,
        keyed by the packed shift m / lm of its divisor."""
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
            if quotient is not None:
                quotient[shift] = c, den
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
        return remainder

    def _reduce(self, work: dict, G: list) -> Optional[tuple]:
        """The element of the remainder of the integer terms work under
        division by G; None for zero."""
        remainder = self._remainder(work, G)
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
        content = gcd(*f.nums.values())
        pack = self._pack
        work = {pack(m): v // content % _PRIME for m, v in f.nums.items()}
        return self._top_reduce(work, G)

    def spair(self, G: list, i: int, j: int, top: int) -> Optional[tuple]:
        u, v = top - G[i][0], top - G[j][0]
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
    gens: Sequence[Polynomial], kernel: RationalKernel | ModPKernel
) -> tuple[list, IntPolynomial]:
    """Incremental Buchberger with Hilbert-driven pruning, on homogeneous
    generators.

    The generators enter one at a time, lowest degree first.  Each is
    reduced against the basis so far and dropped if it reduces to zero;
    otherwise a stage adds it and treats its S-pairs, lowest lcm degree
    first, under the coprime and chain criteria.  After stage k the basis
    is a Groebner basis of J = (f_1..f_k), cut down to its minimal part.
    The loop works on packed leading monomials K, the first field of each
    kernel element: the kernel supplies their lcm, divisor test, degree
    and colon, and makes room for a degree (`_PackedKernel`); it also does
    the coefficient work, entering a generator and reducing an S-pair.
    Untreated pairs sit in a heap keyed (deg lcm, -K(lcm), i, j), so the
    lowest lcm degree comes first, then the lcm lowest in the order, then
    the earliest pair.  The result is the last minimal basis, as kernel
    elements lowest leading monomial first, and the Hilbert numerator of
    R modulo its leading monomials.

    The run keeps h, the numerator of R/L for the leading monomials L so
    far: adding an element with leading monomial m sets
    h(L + (m)) = h(L) - t^deg(m) h(L : m) (Bigatti 1997).
    Adding a form f of degree e to J has an exact lower bound: the sequence
    0 -> ((J:f)/J)(-e) -> (R/J)(-e) -> R/J -> R/(J+f) -> 0 gives

        H_{R/(J+f)}(n) >= max(0, H_{R/J}(n) - H_{R/J}(n - e)),

    with H_{R/J} read off h at the start of the stage (a Hilbert function is
    never negative).  When a pair of lcm degree n comes up and the degree-n
    monomials outside L are exactly that many, L already spans LT(J+f) in
    degree n.  Every degree-n S-polynomial then reduces to zero, so the
    pair counts as treated and is skipped (Traverso 1996).  The reduced
    basis is unique, so the pruning changes only how many reductions it
    takes.

    A kernel that is not exact, `ModPKernel`, certifies its stages against
    that bound and raises Uncertified at the first miss.  Its leading
    monomials belong to elements of the ideal mod p, whose Macaulay
    matrices have at most their rational rank in each degree, so their
    Hilbert function is at least H_{R/(J+f)} over Q whatever the prime,
    and a pruning mistake mod p can only raise it further.  Over a
    certified J the bound is exact, so a stage whose numerator is
    (1 - t^e) times the previous one has the rational series, and a stage
    that ends anywhere above it cannot.  That comparison at the end of each
    stage is the certificate.  Only the series is certified, never the
    leading monomials themselves.
    """
    nvars = kernel.nvars
    G: list = []
    h = IntPolynomial.one()
    # untreated pairs of the current stage
    pairs: list[tuple[int, int, int, int]] = []

    def add(g) -> None:
        nonlocal h
        m = g[0]
        quotient = minimalize_exponents(kernel.colon(l[0], m) for l in G)
        h = h - numerator_of_monomial(nvars, quotient).times_t_power(kernel.degree(m))
        G.append(g)
        j = len(G) - 1
        for i in range(j):
            k = kernel.lcm(G[i][0], m)
            heappush(pairs, (kernel.degree(k), -k, i, j))

    for f in sorted((g for g in gens if not g.is_zero), key=Polynomial.degree):
        e = f.degree()
        # H(R/J) for the ideal J of the earlier stages
        before = HilbertSeries(nvars, h)
        kernel.room(e, G)
        r = kernel.enter(f, G)
        if r is not None:
            start = len(G)
            # (n, len(G)) -> whether the leading monomials span LT(J+f)_n
            spanned: dict[tuple[int, int], bool] = {}

            def spans(n: int) -> bool:
                state = (n, len(G))
                if state not in spanned:
                    bound = max(0, coefficient(before, n) - coefficient(before, n - e))
                    spanned[state] = coefficient(HilbertSeries(nvars, h), n) == bound
                return spanned[state]

            done: set[tuple[int, int]] = set()
            add(r)
            while pairs:
                n, key, i, j = heappop(pairs)
                pair_lcm = -key
                done.add((i, j))
                # coprime leading monomials: their lcm is their product
                if pair_lcm == G[i][0] + G[j][0]:
                    continue
                if spans(n):
                    continue
                # chain criterion: a third element dividing the lcm whose
                # pairs with both ends were already treated (in this stage,
                # or in an earlier one when both are older) makes this pair
                # redundant
                if any(
                    k != i
                    and k != j
                    and kernel.divides(G[k][0], pair_lcm)
                    and (max(i, k) < start or (min(i, k), max(i, k)) in done)
                    and (max(j, k) < start or (min(j, k), max(j, k)) in done)
                    for k in range(len(G))
                ):
                    continue
                if kernel.room(n, G):
                    # every K changed, their order did not: new keys, same heap
                    pairs[:] = [
                        (d, -kernel.lcm(G[a][0], G[b][0]), a, b) for d, _, a, b in pairs
                    ]
                    pair_lcm = kernel.lcm(G[i][0], G[j][0])
                r = kernel.spair(G, i, j, pair_lcm)
                if r is not None:
                    add(r)
            G = _minimal(G, kernel)
        if not kernel.exact:
            hb = before.numerator
            if h != hb - hb.times_t_power(e):
                raise Uncertified(f"stage of degree {e} above the bound")
    return G, h


def _reduced_basis(gens: Sequence[Polynomial], order: Order) -> tuple[Polynomial, ...]:
    """The reduced monic Groebner basis of (gens): a rational run, then
    each element of its minimal basis tail-reduced by the others."""
    kernel = RationalKernel(order, gens)
    return kernel.reduced(_buchberger_run(gens, kernel)[0])


def buchberger(I: PolyIdeal, order: Optional[Order] = None) -> tuple[Polynomial, ...]:
    """Reduced monic Groebner basis of I, leading monomial first in the
    order, from one rational run; a monomial ideal gets its minimal
    generators."""
    return _reduced_basis(I.generators, order or DegRevLex(I.ring_dim))


def initial_ideal(I: PolyIdeal, order: Optional[Order] = None) -> PolyIdeal:
    """Monomial ideal of leading terms of I, minimally generated by the
    leading monomials of a rational run's minimal basis, in the order
    `buchberger` lists its basis."""
    order = order or DegRevLex(I.ring_dim)
    kernel = RationalKernel(order, I.generators)
    leads = sorted(g[0] for g in _buchberger_run(I.generators, kernel)[0])
    return PolyIdeal._of_monomials(I.ring_dim, [kernel._unpack(k) for k in leads])


def _exact_divide(p: Polynomial, f: Polynomial, order: Order) -> Polynomial:
    """Quotient p / f for p a multiple of f."""
    quot: dict[Monomial, tuple[int, int]] = {}
    if RationalKernel(order, (p, f)).divide(p, [f], quot):
        raise ArithmeticError("polynomial is not a multiple of the divisor")
    return _over_one_den(p.nvars, quot)


def _lift(p: Polynomial, k: int) -> Polynomial:
    """p in k new variables, put ahead of its own."""
    return _lowest(p.nvars + k, {(0,) * k + m: c for m, c in p.nums.items()}, p.den)


def colon(I: PolyIdeal, f: Polynomial) -> PolyIdeal:
    """Ideal quotient (I : f) for a single nonzero homogeneous f.

    Intersects I with (f) through two auxiliary variables, then divides
    the intersection generators by f.  In k[w, v, x] the ideal
    J = (w g_j, (v - w) f) is homogeneous, and J meets k[v, x] in
    v (I cap (f)): setting w = v puts an element in I[v], setting w = 0
    puts it in v (f), and v is regular modulo I[v].  Under the order that
    eliminates w, the w-free part of J's reduced basis is therefore v h_j
    for the reduced basis h_j of I cap (f), because multiplying by v
    keeps the order and reducedness.  For a monomial I and a term f the
    reduced basis is the minimal generating set, so the result is too.
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
    d = I.ring_dim
    w, v = Polynomial.variable(d + 2, 0), Polynomial.variable(d + 2, 1)
    J = [w * _lift(g, 2) for g in I.generators] + [(v - w) * _lift(f, 2)]
    ambient_order = DegRevLex(d)
    gens = []
    for p in _reduced_basis(J, EliminationOrder(d + 2)):
        if all(m[0] == 0 for m in p.nums):
            # p = v h_j: drop w and v
            dropped = _lowest(d, {m[2:]: c for m, c in p.nums.items()}, p.den)
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

    @cached_property
    def _integer_powers(self) -> list[dict[Monomial, int]]:
        """powers[e] holds rep^e as a {monomial: int} dict, grown on demand
        by map_polynomial and kept for every later call."""
        return [{(0,) * (self.nvars - 1): 1}, _linear_terms(self.rep)]

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
        """Generators of I rewritten in the d-1 variable ring.

        When I is monomial and rep has at most one nonzero entry, the
        substitution is x_p -> 0 or x_p -> c x_q, and it maps each
        generator x^m to 0, when m has the pivot and rep is 0, or to a
        nonzero multiple of one monomial, x^m with its pivot exponent
        moved onto x_q.  The ideal keeps generators only up to scale, so
        those cuts run on the exponent tuples and give exactly the ideal,
        generator order included, that map_polynomial's images give; any
        other ideal or form goes through map_polynomial.
        """
        if I.ring_dim != self.nvars:
            raise RingMismatch("ideal is not in the eliminated ring")
        targets = [q for q, c in enumerate(self.rep) if c]
        if not (I.is_monomial and len(targets) <= 1):
            return PolyIdeal(self.nvars - 1, map(self.map_polynomial, I.generators))
        pv = self.pivot
        images = []
        for g in I.generators:
            (m,) = g.nums
            e, base = m[pv], m[:pv] + m[pv + 1 :]
            if e:
                if not targets:
                    continue
                q = targets[0]
                base = base[:q] + (base[q] + e,) + base[q + 1 :]
            images.append(base)
        return PolyIdeal._of_monomials(self.nvars - 1, images)

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
