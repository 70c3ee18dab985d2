"""Multivariate polynomial arithmetic over the rationals.

Polynomials are dictionaries mapping exponent tuples to nonzero Fraction
coefficients.  Monomial orders are small strategy objects producing sort
keys, and the leading monomial has the smallest key, so leading terms come
from min() over the support and a heap pops them in order.  Division is one
fraction-free kernel: the pending terms are integers over one common
denominator, each divisor contributes a primitive integer row computed once
per order, and only remainder and quotient terms become Fractions again.
Linear substitution works the same way: the image's numerators are
summed as integers over one denominator and divided once per term.
The Groebner engine is a plain Buchberger loop with the coprime and chain
criteria, always returning the reduced monic basis.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import add, le, sub
from typing import Iterable, Iterator, Optional, Sequence

Monomial = tuple[int, ...]


class RingMismatch(ValueError):
    """Operands live over different variable counts."""


class EmptySpan(ValueError):
    """A random draw was requested from an empty span."""


def monomial_degree(m: Monomial) -> int:
    return sum(m)


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    """Whether x^a divides x^b."""
    return all(map(le, a, b))


def monomial_div(a: Monomial, b: Monomial) -> Monomial:
    """Exponent vector of x^a / x^b; caller guarantees divisibility."""
    return tuple(map(sub, a, b))


def monomial_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def monomials_coprime(a: Monomial, b: Monomial) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def minimalize_exponents(exps: Iterable[Monomial]) -> frozenset[Monomial]:
    """Minimal generating exponents of a monomial ideal."""
    pool = sorted(set(exps), key=monomial_degree)
    kept: list[Monomial] = []
    for m in pool:
        if not any(monomial_divides(k, m) for k in kept):
            kept.append(m)
    return frozenset(kept)


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


def compare_monomials(a: Monomial, b: Monomial, order: MonomialOrder) -> int:
    """-1, 0 or 1 as a is below, equal to, or above b in the order."""
    if len(a) != order.nvars or len(b) != order.nvars:
        raise RingMismatch(
            f"monomials of lengths {len(a)}, {len(b)} under an order on "
            f"{order.nvars} variables"
        )
    ka, kb = order.key(a), order.key(b)
    if ka < kb:
        return 1
    if ka > kb:
        return -1
    return 0


def clear_denominators(coeffs: dict) -> tuple[int, dict]:
    """(den, ints) with den the lcm of the denominators of the rational
    values of coeffs and ints the same keys holding value * den."""
    den = lcm(*(c.denominator for c in coeffs.values()))
    return den, {k: c.numerator * (den // c.denominator) for k, c in coeffs.items()}


def _coerce_coeff(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficients must be rational, got {type(c).__name__}")


class Polynomial:
    """Sparse polynomial over the rationals in a fixed number of variables."""

    __slots__ = ("nvars", "terms", "_key", "_row")

    def __init__(self, nvars: int, terms: Optional[dict] = None):
        self.nvars = nvars
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for m, c in terms.items():
                if len(m) != nvars:
                    raise RingMismatch(
                        f"exponent tuple of length {len(m)} in a ring of {nvars}"
                    )
                c = _coerce_coeff(c)
                if c != 0:
                    clean[tuple(m)] = c
        self.terms = clean
        self._key = None
        self._row = None

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars)

    @classmethod
    def one(cls, nvars: int) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: Fraction(1)})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Polynomial":
        if not 0 <= i < nvars:
            raise RingMismatch(f"variable index {i} out of range for {nvars}")
        exp = [0] * nvars
        exp[i] = 1
        return cls(nvars, {tuple(exp): Fraction(1)})

    @classmethod
    def from_monomial(cls, nvars: int, m: Monomial, c=1) -> "Polynomial":
        return cls(nvars, {tuple(m): _coerce_coeff(c)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def canonical_key(self):
        if self._key is None:
            self._key = tuple(
                sorted((m, (c.numerator, c.denominator)) for m, c in self.terms.items())
            )
        return self._key

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.nvars, self.canonical_key()))

    def _check_ring(self, other: "Polynomial") -> None:
        if self.nvars != other.nvars:
            raise RingMismatch(f"{self.nvars} variables vs {other.nvars}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = out.get(m, 0) + c
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        p = Polynomial(self.nvars)
        p.terms = out
        return p

    def __neg__(self) -> "Polynomial":
        p = Polynomial(self.nvars)
        p.terms = {m: -c for m, c in self.terms.items()}
        return p

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coerce_coeff(other)
            if c == 0:
                return Polynomial.zero(self.nvars)
            p = Polynomial(self.nvars)
            p.terms = {m: a * c for m, a in self.terms.items()}
            return p
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = monomial_mul(m1, m2)
                v = out.get(m, 0) + c1 * c2
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
        p = Polynomial(self.nvars)
        p.terms = out
        return p

    __rmul__ = __mul__

    def term_mul(self, c: Fraction, m: Monomial) -> "Polynomial":
        p = Polynomial(self.nvars)
        p.terms = {monomial_mul(m, m1): c * c1 for m1, c1 in self.terms.items()}
        return p

    def degree(self) -> int:
        if not self.terms:
            return -1
        return max(monomial_degree(m) for m in self.terms)

    def homogeneous_degree(self) -> Optional[int]:
        """Common total degree of all terms, or None if mixed or zero."""
        degs = {monomial_degree(m) for m in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    @property
    def is_homogeneous(self) -> bool:
        return self.is_zero or self.homogeneous_degree() is not None

    def leading(self, order: MonomialOrder) -> tuple[Monomial, Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = min(self.terms, key=order.key)
        return m, self.terms[m]

    def division_row(self, order: MonomialOrder) -> tuple[Monomial, int, tuple]:
        """Primitive integer multiple of self as (lm, lc, tail), lc > 0.

        Built once per order and kept on the polynomial, so a basis element
        that divides many times is converted once; tail holds the other
        terms as (monomial, int) pairs.
        """
        token = order.cache_token()
        if self._row is None or self._row[0] != token:
            lm, _ = self.leading(order)
            _, ints = clear_denominators(self.terms)
            content = gcd(*ints.values())
            if ints[lm] < 0:
                content = -content
            lc = ints.pop(lm) // content
            tail = tuple((m, v // content) for m, v in ints.items())
            self._row = (token, (lm, lc, tail))
        return self._row[1]

    def monic(self, order: MonomialOrder) -> "Polynomial":
        _, c = self.leading(order)
        if c == 1:
            return self
        return self * (Fraction(1) / c)

    def is_term(self) -> bool:
        return len(self.terms) == 1

    def __repr__(self) -> str:
        if not self.terms:
            return "Polynomial(0)"
        bits = []
        for m in sorted(self.terms, key=lambda m: (-monomial_degree(m), m)):
            bits.append(f"{self.terms[m]}*x^{list(m)}")
        return "Polynomial(" + " + ".join(bits) + ")"


@dataclass(frozen=True)
class LinearForm:
    """Nonzero homogeneous degree-one form, stored as its coefficient vector."""

    coefficients: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        cs = tuple(_coerce_coeff(c) for c in self.coefficients)
        if not cs or all(c == 0 for c in cs):
            raise ValueError("a linear form must have a nonzero coefficient")
        object.__setattr__(self, "coefficients", cs)

    @property
    def nvars(self) -> int:
        return len(self.coefficients)

    def pivot(self) -> int:
        """Largest variable index carrying a nonzero coefficient."""
        for i in range(len(self.coefficients) - 1, -1, -1):
            if self.coefficients[i] != 0:
                return i
        raise AssertionError("unreachable: form validated nonzero")

    def to_polynomial(self) -> Polynomial:
        n = self.nvars
        terms = {}
        for i, c in enumerate(self.coefficients):
            if c != 0:
                exp = [0] * n
                exp[i] = 1
                terms[tuple(exp)] = c
        return Polynomial(n, terms)

    def scaled(self, c) -> "LinearForm":
        c = _coerce_coeff(c)
        if c == 0:
            raise ValueError("cannot scale a form to zero")
        return LinearForm(tuple(c * x for x in self.coefficients))


def form_combination(
    coeffs: Sequence, forms: Sequence[LinearForm]
) -> Optional[LinearForm]:
    """Linear combination of forms; None when it collapses to zero."""
    if not forms:
        raise EmptySpan("no forms to combine")
    n = forms[0].nvars
    acc = [Fraction(0)] * n
    for c, f in zip(coeffs, forms):
        c = _coerce_coeff(c)
        if f.nvars != n:
            raise RingMismatch("forms over different variable counts")
        for i, x in enumerate(f.coefficients):
            acc[i] += c * x
    if all(v == 0 for v in acc):
        return None
    return LinearForm(tuple(acc))


def forms_independent(forms: Sequence[LinearForm]) -> bool:
    if not forms:
        return True
    n = forms[0].nvars
    rows = [list(f.coefficients) for f in forms]
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        head = rows[rank][col]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / head
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank == len(forms)


class PolyIdeal:
    """Homogeneous ideal given by explicit generators.

    Generators are homogeneous; the unit ideal and the zero ideal are
    both admitted so that colon and quotient constructions stay closed.
    """

    __slots__ = ("ring_dim", "generators", "_cached_key")

    def __init__(self, ring_dim: int, generators: Iterable[Polynomial] = ()):
        self.ring_dim = ring_dim
        gens: list[Polynomial] = []
        seen = set()
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
            if not g.is_homogeneous:
                raise ValueError("ideal generators must be homogeneous")
            if g.homogeneous_degree() == 0:
                is_unit = True
                continue
            key = g.canonical_key()
            if key not in seen:
                seen.add(key)
                gens.append(g)
        if is_unit:
            gens = [Polynomial.one(ring_dim)]
        self.generators = tuple(gens)
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
        return minimalize_exponents(next(iter(g.terms)) for g in self.generators)

    def canonical_key(self):
        if self._cached_key is None:
            self._cached_key = (
                self.ring_dim,
                tuple(sorted(g.canonical_key() for g in self.generators)),
            )
        return self._cached_key

    def __eq__(self, other) -> bool:
        # Structural equality of generator sets, not ideal-theoretic equality.
        if not isinstance(other, PolyIdeal):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        return hash(self.canonical_key())

    def __repr__(self) -> str:
        return f"PolyIdeal(d={self.ring_dim}, gens={len(self.generators)})"


def _divide(
    f: Polynomial,
    rows: Sequence[tuple[Monomial, int, tuple]],
    order: MonomialOrder,
    quotient: Optional[dict] = None,
) -> Polynomial:
    """Remainder of f under division by the divisor rows, leading term first.

    The pending terms are integers over one common denominator den.  A
    heap pops the next pending monomial by order key; an entry whose term
    has cancelled is skipped.  Cancelling c x^m against the row with
    lm | m multiplies the pending row by a = lc/g and subtracts b = c/g
    times the shifted tail (g = gcd(c, lc)), then divides the pending row
    and den by their content.  With one row, quotient collects the
    quotient by that row, keyed by shift.
    """
    key = order.key
    den, work = clear_denominators(f.terms)
    heap = [(key(m), m) for m in work]
    heapify(heap)
    remainder: dict[Monomial, Fraction] = {}
    while heap:
        m = heappop(heap)[1]
        c = work.pop(m, 0)
        if not c:
            continue
        for lm, lc, tail in rows:
            if all(map(le, lm, m)):
                break
        else:
            remainder[m] = Fraction(c, den)
            continue
        shift = tuple(map(sub, m, lm))
        g = gcd(c, lc)
        a, b = lc // g, c // g
        if quotient is not None:
            quotient[shift] = Fraction(c, den * lc)
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
        k = gcd(den, *work.values())
        if k != 1:
            den //= k
            work = {t: v // k for t, v in work.items()}
    out = Polynomial(f.nvars)
    out.terms = remainder
    return out


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


def _spoly(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    lmf, lcf = f.leading(order)
    lmg, lcg = g.leading(order)
    top = monomial_lcm(lmf, lmg)
    return f.term_mul(Fraction(1) / lcf, monomial_div(top, lmf)) - g.term_mul(
        Fraction(1) / lcg, monomial_div(top, lmg)
    )


def _reduced_basis(
    gens: Sequence[Polynomial], nvars: int, order: MonomialOrder
) -> tuple[Polynomial, ...]:
    """Buchberger with the coprime and chain criteria; reduced monic output."""
    G: list[Polynomial] = []
    for g in gens:
        if not g.is_zero:
            G.append(g.monic(order))
    if not G:
        return ()

    lms = [g.leading(order)[0] for g in G]
    pairs: set[tuple[int, int]] = set()
    done: set[tuple[int, int]] = set()

    def push_pairs(j: int) -> None:
        for i in range(j):
            pairs.add((i, j))

    for j in range(len(G)):
        push_pairs(j)

    def pair_priority(p):
        # lowest lcm degree first, then the lcm lowest in the order (the
        # largest key), then the earliest pair
        m = monomial_lcm(lms[p[0]], lms[p[1]])
        return (-monomial_degree(m), order.key(m), -p[0], -p[1])

    while pairs:
        i, j = max(pairs, key=pair_priority)
        pairs.discard((i, j))
        done.add((i, j))
        if monomials_coprime(lms[i], lms[j]):
            continue
        pair_lcm = monomial_lcm(lms[i], lms[j])
        # chain criterion: a third element dividing the lcm whose pairs with
        # both ends were already treated makes this pair redundant
        skip = False
        for k in range(len(G)):
            if k in (i, j):
                continue
            if monomial_divides(lms[k], pair_lcm):
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik in done and pjk in done:
                    skip = True
                    break
        if skip:
            continue
        r = normal_form(_spoly(G[i], G[j], order), G, order)
        if r.is_zero:
            continue
        G.append(r.monic(order))
        lms.append(G[-1].leading(order)[0])
        push_pairs(len(G) - 1)

    # minimalize: drop elements whose leading monomial another one divides
    # (lowest leading monomial first, so a divisor comes before its multiples)
    keep: list[int] = []
    for i in sorted(range(len(G)), key=lambda i: order.key(lms[i]), reverse=True):
        if not any(monomial_divides(lms[k], lms[i]) for k in keep):
            keep.append(i)
    minimal = [G[i] for i in keep]
    # tail-reduce each against the others
    reduced = []
    for i, g in enumerate(minimal):
        others = [h for j, h in enumerate(minimal) if j != i]
        r = normal_form(g, others, order)
        reduced.append(r.monic(order))
    reduced.sort(key=lambda g: order.key(g.leading(order)[0]))
    return tuple(reduced)


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
        Polynomial.from_monomial(I.ring_dim, g.leading(order)[0])
        for g in buchberger(I, order)
    ]
    return PolyIdeal(I.ring_dim, gens)


def _exact_divide(p: Polynomial, f: Polynomial, order: MonomialOrder) -> Polynomial:
    """Quotient p / f for p a multiple of f."""
    row = f.division_row(order)
    quot: dict[Monomial, Fraction] = {}
    if _divide(p, [row], order, quot):
        raise ArithmeticError("polynomial is not a multiple of the divisor")
    # quot divides by the integer row, which is f times lc_row / lc_f
    scale = row[1] / f.terms[row[0]]
    out = Polynomial(p.nvars)
    out.terms = {m: c * scale for m, c in quot.items()}
    return out


def _lift_adding_aux(p: Polynomial) -> Polynomial:
    out = Polynomial(p.nvars + 1)
    out.terms = {(0,) + m: c for m, c in p.terms.items()}
    return out


def _drop_aux(p: Polynomial) -> Polynomial:
    out = Polynomial(p.nvars - 1)
    out.terms = {m[1:]: c for m, c in p.terms.items()}
    return out


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
        fm = next(iter(f.terms))
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
        if all(m[0] == 0 for m in p.terms):
            gens.append(_exact_divide(_drop_aux(p), f, ambient_order))
    return PolyIdeal(d, gens)


@dataclass(frozen=True)
class LinearElimination:
    """Substitution killing one variable along a linear form.

    Solving f = 0 for its pivot variable rewrites every polynomial into
    the ring on the remaining variables; degrees are preserved.
    """

    nvars: int
    pivot: int
    replacement: tuple[Fraction, ...]  # indexed by the surviving variables

    @cached_property
    def _integer_powers(self) -> tuple[int, list[dict[Monomial, int]]]:
        """(L, powers): the replacement is rep/L with rep an integer form,
        and powers[e] holds rep^e as a {monomial: int} dict, grown on demand
        by map_polynomial and kept for every later call."""
        n = self.nvars - 1
        L, ints = clear_denominators(dict(enumerate(self.replacement)))
        rep = {}
        for i, c in ints.items():
            if c:
                exp = [0] * n
                exp[i] = 1
                rep[tuple(exp)] = c
        return L, [{(0,) * n: 1}, rep]

    def old_index(self, new_index: int) -> int:
        """Original ring index of a surviving variable."""
        return new_index if new_index < self.pivot else new_index + 1

    def map_polynomial(self, p: Polynomial) -> Polynomial:
        """Image of p with the pivot variable replaced, computed on integers.

        With p = sum (c_m/den) x^m and the replacement rep/L, the term of
        pivot exponent e maps to c_m L^(E-e) rep^e x^base over den L^E, E
        the largest pivot exponent in p; the integer numerators are summed
        in one dict and each divided once.  The image is the same exact
        rational polynomial, terms in the same order, as summing the
        Fraction products term by term.
        """
        if p.nvars != self.nvars:
            raise RingMismatch("polynomial is not in the eliminated ring")
        image = Polynomial(self.nvars - 1)
        if not p.terms:
            return image
        pv = self.pivot
        L, powers = self._integer_powers
        rep = powers[1]
        E = max(m[pv] for m in p.terms)
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
        den, ints = clear_denominators(p.terms)
        scales = [L ** (E - e) for e in range(E + 1)]
        acc: dict[Monomial, int] = {}
        for m, c in ints.items():
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
        den *= scales[0]
        image.terms = {m: Fraction(v, den) for m, v in acc.items()}
        return image

    def map_form(self, g: LinearForm) -> Optional[LinearForm]:
        if g.nvars != self.nvars:
            raise RingMismatch("form is not in the eliminated ring")
        n = self.nvars - 1
        acc = [Fraction(0)] * n
        for i, c in enumerate(g.coefficients):
            if c == 0:
                continue
            if i == self.pivot:
                for j, r in enumerate(self.replacement):
                    acc[j] += c * r
            else:
                j = i if i < self.pivot else i - 1
                acc[j] += c
        if all(v == 0 for v in acc):
            return None
        return LinearForm(tuple(acc))


def eliminate_form(f: LinearForm) -> LinearElimination:
    """Elimination data solving f = 0 for its pivot variable."""
    p = f.pivot()
    cp = f.coefficients[p]
    replacement = tuple(
        -c / cp for i, c in enumerate(f.coefficients) if i != p
    )
    return LinearElimination(nvars=f.nvars, pivot=p, replacement=replacement)


def quotient_by_linear(I: PolyIdeal, f: LinearForm) -> PolyIdeal:
    """Generators of I rewritten in the d-1 variable ring along f = 0."""
    if f.nvars != I.ring_dim:
        raise RingMismatch("form is not in the ideal's ring")
    elim = eliminate_form(f)
    gens = []
    for g in I.generators:
        image = elim.map_polynomial(g)
        if not image.is_zero:
            gens.append(image)
    return PolyIdeal(I.ring_dim - 1, gens)


def random_linear_form(
    d: int,
    span: Optional[Sequence[LinearForm]] = None,
    seed: int = 0,
    bound: int = 100,
) -> LinearForm:
    """Deterministic pseudo-random form, optionally inside a given span."""
    if bound < 1:
        raise ValueError("coefficient bound must be positive")
    rng = random.Random(seed)
    if span is not None:
        if len(span) == 0:
            raise EmptySpan("cannot draw from an empty span")
        if not forms_independent(span):
            raise ValueError("span members must be linearly independent")
        for f in span:
            if f.nvars != d:
                raise RingMismatch("span member outside the ring")
        while True:
            cs = [rng.randint(-bound, bound) for _ in span]
            if any(cs):
                combo = form_combination(cs, span)
                assert combo is not None
                return combo
    if d < 1:
        raise EmptySpan("no variables to draw from")
    while True:
        cs = [rng.randint(-bound, bound) for _ in range(d)]
        if any(cs):
            return LinearForm(tuple(Fraction(c) for c in cs))
