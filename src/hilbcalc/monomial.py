"""Monomials as exponent tuples, and the Hilbert numerator of a monomial
quotient.

This is the layer below polynomials: the exponent arithmetic of
polynomial products and monomial ideals, and the pivot recursion

    numerator(R/I) = t * numerator(R/(I : x)) + numerator(R/(I + (x)))

that gives the Hilbert series numerator of R/I for a monomial ideal I.
The series layer reads every monomial ideal here, and Buchberger keeps
the numerator of its partial leading ideals from those of their colons
by one leading monomial, so both share one memo of numerators.
"""

from __future__ import annotations

from operator import add, le
from typing import Iterable

from hilbcalc.series import IntPolynomial

Monomial = tuple[int, ...]


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


# numerators of R/I for monomial ideals I, keyed on (d, minimal generating
# exponents of I)
_MONOMIAL_NUMERATORS: dict[tuple[int, frozenset[Monomial]], IntPolynomial] = {}


def _pivot_step(d: int, exps: frozenset[Monomial]):
    """The numerator of a base case, or the memo keys of the pivot split
    (I : x) and I + (x) whose numerators give t * h(I : x) + h(I + (x)).

    x is the variable in the most generators (Bigatti), and both children
    come out minimally generated.  I + (x) is x and the generators x does
    not divide.  I : x is the generators m/x of those x divides, which stay
    incomparable, and the generators without x that no m/x divides; none
    of those divides an m/x, since it would then divide m.
    """
    if not exps:
        return IntPolynomial.one()
    zero_exp = (0,) * d
    if zero_exp in exps:
        return IntPolynomial.zero()
    # the number of generators each variable divides
    counts = [len(exps) - column.count(0) for column in zip(*exps)]
    v = max(range(d), key=counts.__getitem__)
    if counts[v] <= 1:
        # pairwise coprime generators (no variable shared) form a regular
        # sequence, so the numerator is the product of the (1 - t^deg m)
        h = IntPolynomial.one()
        for m in exps:
            h = h - h.times_t_power(monomial_degree(m))
        return h
    # x divides two minimal generators, so x itself is not one
    plus = [m for m in exps if not m[v]]
    lowered = [m[:v] + (m[v] - 1,) + m[v + 1 :] for m in exps if m[v]]
    # only an m/x free of x can divide a generator without x
    free = [m for m in lowered if not m[v]]
    colon = lowered + [m for m in plus if not any(monomial_divides(f, m) for f in free)]
    plus.append(zero_exp[:v] + (1,) + zero_exp[v + 1 :])
    return (d, frozenset(colon)), (d, frozenset(plus))


def _numerator_of_monomial(d: int, exps: frozenset[Monomial]) -> IntPolynomial:
    """Numerator of R/I for the monomial ideal minimally generated by exps.

    Walks the pivot recursion with an explicit stack, so a chain of
    thousands of pivot steps needs no Python recursion; every node reached
    is memoised in _MONOMIAL_NUMERATORS.
    """
    memo = _MONOMIAL_NUMERATORS
    root = (d, exps)
    # entries are (node, None) before the node's step is taken and
    # (node, (colon, plus)) once both children sit above it on the stack
    stack = [(root, None)]
    while stack:
        node, split = stack.pop()
        if node in memo:
            continue
        if split is None:
            step = _pivot_step(*node)
            if isinstance(step, IntPolynomial):
                memo[node] = step
                continue
            colon, plus = step
            stack += [(node, step), (plus, None), (colon, None)]
        else:
            colon, plus = split
            memo[node] = memo[colon].times_t_power(1) + memo[plus]
    return memo[root]
