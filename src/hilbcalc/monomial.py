"""Monomials as exponent tuples, and the Hilbert numerator of a monomial
quotient.

This is the layer below polynomials: the exponent arithmetic the division
kernel and Buchberger's criteria use, the lex-ordered monomials of one
degree that the oracle and the depth screen index their columns by, and
the pivot recursion

    numerator(R/I) = t * numerator(R/(I : x)) + numerator(R/(I + (x)))

that gives the Hilbert series numerator of R/I for a monomial ideal I.
The series layer reads every non-monomial ideal through its initial ideal,
and Buchberger reads the Hilbert function of its partial leading ideals,
so both share one memo of numerators.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, le, sub
from typing import Iterable

from hilbcalc.series import IntPolynomial

Monomial = tuple[int, ...]


@lru_cache(maxsize=None)
def monomials_of_degree(d: int, n: int) -> tuple[Monomial, ...]:
    """All exponent vectors of total degree n over d variables, in
    ascending lex order."""
    if n < 0:
        return ()
    if d == 0:
        return ((),) if n == 0 else ()
    if d == 1:
        return ((n,),)
    out = []
    for e in range(n + 1):
        for rest in monomials_of_degree(d - 1, n - e):
            out.append((e,) + rest)
    return tuple(out)


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


# numerators of R/I for monomial ideals I, keyed on (d, minimal generating
# exponents of I)
_MONOMIAL_NUMERATORS: dict[tuple[int, frozenset[Monomial]], IntPolynomial] = {}


def _pivot_step(d: int, exps: frozenset[Monomial]):
    """The numerator of a base case, or the memo keys of the pivot split
    (I : x) and I + (x) whose numerators give t * h(I : x) + h(I + (x))."""
    if not exps:
        return IntPolynomial.one()
    zero_exp = (0,) * d
    if zero_exp in exps:
        return IntPolynomial.zero()
    if all(sum(1 for m in exps if m[i]) <= 1 for i in range(d)):
        # pairwise coprime generators (no variable shared) form a regular
        # sequence, so the numerator is the product of the (1 - t^deg m)
        h = IntPolynomial.one()
        for m in exps:
            h = h - h.times_t_power(monomial_degree(m))
        return h
    # two generators share a variable, so some generator is not a variable
    pivot_gen = next(m for m in sorted(exps) if monomial_degree(m) > 1)
    pivot_var = next(i for i, e in enumerate(pivot_gen) if e > 0)
    x = tuple(1 if i == pivot_var else 0 for i in range(d))
    colon_exps = minimalize_exponents(
        tuple(e - (1 if i == pivot_var and e > 0 else 0) for i, e in enumerate(m))
        for m in exps
    )
    plus_exps = minimalize_exponents(set(exps) | {x})
    return (d, colon_exps), (d, plus_exps)


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
