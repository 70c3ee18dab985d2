"""The pivot recursion for numerators of monomial quotients, checked
against the recursion it replaced."""

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import clear_memos
from hilbcalc.monomial import (
    _numerator_of_monomial,
    _pivot_step,
    minimalize_exponents,
    monomial_degree,
)
from hilbcalc.series import IntPolynomial


@st.composite
def monomial_ideals(draw):
    """(d, minimal generating exponents) in 1-6 variables, with mostly
    small exponents so that generators share variables often."""
    d = draw(st.integers(1, 6))
    exponent = st.sampled_from([0, 0, 0, 1, 1, 2, 3, 5])
    gens = draw(st.lists(st.tuples(*[exponent] * d), max_size=7))
    return d, minimalize_exponents(gens)


def reference_numerator(d: int, exps: frozenset, memo: dict) -> IntPolynomial:
    """The earlier recursion: pivot on the first variable of the first
    generator of degree above one in sorted order, and minimalize both
    children from scratch."""
    key = (d, exps)
    if key in memo:
        return memo[key]
    if not exps:
        h = IntPolynomial.one()
    elif (0,) * d in exps:
        h = IntPolynomial.zero()
    elif all(sum(1 for m in exps if m[i]) <= 1 for i in range(d)):
        h = IntPolynomial.one()
        for m in exps:
            h = h - h.times_t_power(monomial_degree(m))
    else:
        pivot_gen = next(m for m in sorted(exps) if monomial_degree(m) > 1)
        v = next(i for i, e in enumerate(pivot_gen) if e > 0)
        x = tuple(1 if i == v else 0 for i in range(d))
        colon = minimalize_exponents(
            tuple(e - (1 if i == v and e > 0 else 0) for i, e in enumerate(m))
            for m in exps
        )
        plus = minimalize_exponents(set(exps) | {x})
        h = reference_numerator(d, colon, memo).times_t_power(1) + reference_numerator(
            d, plus, memo
        )
    memo[key] = h
    return h


@settings(max_examples=200, deadline=None)
@given(monomial_ideals())
def test_pivot_children_are_minimal(ideal):
    stack, seen = [ideal], set()
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        step = _pivot_step(*node)
        if isinstance(step, IntPolynomial):
            continue
        for d, exps in step:
            assert exps == minimalize_exponents(exps)
            stack.append((d, exps))


@settings(max_examples=200, deadline=None)
@given(monomial_ideals())
def test_numerator_matches_earlier_recursion(ideal):
    clear_memos()
    assert _numerator_of_monomial(*ideal) == reference_numerator(*ideal, {})


def test_pivot_is_the_most_frequent_variable():
    # y lies in three generators, x and z in two each
    exps = frozenset({(1, 1, 0), (0, 1, 1), (1, 0, 1), (0, 2, 0)})
    colon, plus = _pivot_step(3, exps)
    assert plus == (3, frozenset({(1, 0, 1), (0, 1, 0)}))
    assert colon == (3, frozenset({(1, 0, 0), (0, 0, 1), (0, 1, 0)}))
