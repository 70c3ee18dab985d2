"""Monomials as exponent tuples, and the Hilbert numerator of a monomial
quotient.

This is the layer below polynomials: the exponent arithmetic of
polynomial products and monomial ideals, and Bigatti's power pivot
recursion

    numerator(R/I) = t^k * numerator(R/(I : x^k)) + numerator(R/(I + (x^k)))

that gives the Hilbert series numerator of R/I for a monomial ideal I.
The series layer reads every monomial ideal here, and Buchberger keeps
the numerator of its partial leading ideals from those of their colons
by one leading monomial.  Both callers reach one `functools` cache of
the nodes of every walk, so a walk stops at the first node that an
earlier walk, of the same ideal or another, reached.
"""

from __future__ import annotations

from functools import cache
from operator import add, le
from typing import Iterable

from hilbcalc.series import IntPolynomial, Refusal

Monomial = tuple[int, ...]

# a level of the walk takes 2 of the interpreter's default 1000 frames (the
# cache wrapper and the function); under pytest about 470 levels fit
MAX_PIVOT_NESTING = 300


class TooDeep(Refusal):
    """A walk that could nest more than MAX_PIVOT_NESTING splits (exit 2)."""


def monomial_degree(m: Monomial) -> int:
    return sum(m)


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    """Whether x^a divides x^b."""
    return all(map(le, a, b))


def minimalize_exponents(exps: Iterable[Monomial]) -> frozenset[Monomial]:
    """Minimal generating exponents of a monomial ideal."""
    pool = sorted(set(exps), key=monomial_degree)
    kept: list[Monomial] = []
    for m in pool:
        if not any(monomial_divides(k, m) for k in kept):
            kept.append(m)
    return frozenset(kept)


def _pivot_step(d: int, exps: frozenset[Monomial]):
    """The numerator of a base case, or (k, I : x^k, I + (x^k)) for the split
    h(I) = t^k h(I : x^k) + h(I + (x^k)) (Bigatti 1997).

    x is the variable in the most generators and k the lower median of its
    distinct positive exponents, so each child, built minimal, keeps at most
    half of them, rounded up.  I : x^k is the m/x^k of the generators m with
    more than k factors x, the minimal ones among the other generators with
    x, their x removed, and the generators without x that none of those
    divides.  Nothing else divides across the parts: an element with x
    divides none without, and any other divisor would make the generator
    it came from divide a second one.
    """
    # the number of generators each variable divides
    counts = [len(exps) - column.count(0) for column in zip(*exps)]
    if max(counts, default=0) <= 1:
        # pairwise coprime generators (no variable shared) form a regular
        # sequence, so the numerator is the product of the (1 - t^deg m):
        # 1 for the zero ideal, and 0 for the unit ideal, generated by 1
        h = IntPolynomial.one()
        for m in exps:
            h = h - h.times_t_power(monomial_degree(m))
        return h
    v = counts.index(max(counts))
    powers = sorted({m[v] for m in exps} - {0})
    k = powers[(len(powers) - 1) // 2]
    # x divides two minimal generators, so a power of x among them has the
    # largest exponent, above k, and x^k is minimal in I + (x^k)
    plus = [m for m in exps if m[v] < k]
    plus.append((0,) * v + (k,) + (0,) * (d - v - 1))
    free = minimalize_exponents(m[:v] + (0,) + m[v + 1 :] for m in exps if 0 < m[v] <= k)
    colon = [m[:v] + (m[v] - k,) + m[v + 1 :] for m in exps if m[v] > k]
    colon += [m for m in exps if not m[v] and not any(monomial_divides(f, m) for f in free)]
    return k, free.union(colon), frozenset(plus)


def numerator_of_monomial(d: int, exps: frozenset[Monomial]) -> IntPolynomial:
    """Numerator of R/I for the monomial ideal minimally generated by exps.

    A split on x_v keeps at most half of E_v, the distinct positive
    exponents of x_v, rounded up, in each child, leaves x_v in at most one
    generator if |E_v| is 1, and gives no other variable a generator or an
    exponent.  So the splits nest at most the sum, over the x_v in two or
    more generators, of ceil(log2 |E_v|) + 1 deep, and an ideal where that
    passes MAX_PIVOT_NESTING is refused.
    """
    shared = [set(c) - {0} for c in zip(*exps) if len(c) - c.count(0) > 1]
    bound = sum((len(powers) - 1).bit_length() + 1 for powers in shared)
    if bound > MAX_PIVOT_NESTING:
        raise TooDeep(
            f"a monomial ideal of {len(exps)} generators in {d} variables may nest "
            f"{bound} pivot splits, above the {MAX_PIVOT_NESTING} the walk allows"
        )
    return _numerator_of_monomial(d, exps)


@cache
def _numerator_of_monomial(d: int, exps: frozenset[Monomial]) -> IntPolynomial:
    """The power pivot recursion behind `numerator_of_monomial`; every node
    a walk reaches is cached, so a later walk stops at the nodes it shares."""
    step = _pivot_step(d, exps)
    if isinstance(step, IntPolynomial):
        return step
    k, colon, plus = step
    return _numerator_of_monomial(d, colon).times_t_power(k) + _numerator_of_monomial(d, plus)
