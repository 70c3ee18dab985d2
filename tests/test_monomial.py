"""The pivot recursion for numerators of monomial quotients, checked
against the recursion it replaced."""

import sys
from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import clear_memos
from hilbcalc import monomial
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
    stack, seen = [ideal[1]], set()
    while stack:
        exps = stack.pop()
        if exps in seen:
            continue
        seen.add(exps)
        step = _pivot_step(ideal[0], exps)
        if isinstance(step, IntPolynomial):
            continue
        k, colon, plus = step
        assert k > 0
        for child in (colon, plus):
            assert child == minimalize_exponents(child)
            stack.append(child)


@settings(max_examples=200, deadline=None)
@given(monomial_ideals())
def test_numerator_matches_earlier_recursion(ideal):
    clear_memos()
    assert _numerator_of_monomial(*ideal) == reference_numerator(*ideal, {})


@st.composite
def high_power_ideals(draw):
    """(d, minimal generating exponents) of up to 12 generators in 1-4
    variables with exponents up to 50, so that E_v is often large."""
    d = draw(st.integers(1, 4))
    gens = draw(st.lists(st.tuples(*[st.integers(0, 50)] * d), max_size=12))
    return d, minimalize_exponents(gens)


def walk_nesting(d: int, exps: frozenset) -> int:
    """The deepest nesting of a walk from an empty cache: the number of
    `_numerator_of_monomial` frames on the stack at a pivot step."""
    code = _numerator_of_monomial.__wrapped__.__code__
    deepest = 0

    def step(d, exps):
        nonlocal deepest
        frame, levels = sys._getframe(1), 0
        while frame is not None:
            levels += frame.f_code is code
            frame = frame.f_back
        deepest = max(deepest, levels)
        return _pivot_step(d, exps)

    clear_memos()
    with patch.object(monomial, "_pivot_step", step):
        _numerator_of_monomial(d, exps)
    return deepest


@settings(max_examples=300, deadline=None)
@given(high_power_ideals())
def test_walk_nesting_is_logarithmic_in_the_exponents(ideal):
    d, exps = ideal
    powers = [{m[v] for m in exps} - {0} for v in range(d)]
    logarithmic = sum((len(E) - 1).bit_length() + 1 for E in powers if E)
    # numerator_of_monomial refuses on the sum over the variables in two or
    # more generators only
    shared = sum(
        (len(E) - 1).bit_length() + 1
        for v, E in enumerate(powers)
        if sum(1 for m in exps if m[v]) > 1
    )
    assert walk_nesting(d, exps) <= shared + 1 <= logarithmic + 1


def test_pivot_is_the_most_frequent_variable():
    # y lies in three generators, x and z in two each; y's exponents are
    # 1 and 2, and the lower median is 1
    exps = frozenset({(1, 1, 0), (0, 1, 1), (1, 0, 1), (0, 2, 0)})
    k, colon, plus = _pivot_step(3, exps)
    assert k == 1
    assert plus == frozenset({(1, 0, 1), (0, 1, 0)})
    assert colon == frozenset({(1, 0, 0), (0, 0, 1), (0, 1, 0)})


def test_pivot_power_is_the_lower_median_exponent():
    # x lies in all four generators with exponents 1, 3, 4 and 7, and the
    # lower median is 3; in I : x^3, x^7 and x^4*y keep x^4 and x*y, while
    # x^3*z and x*z^2 lose their x, and z then divides z^2
    exps = frozenset({(7, 0, 0), (4, 1, 0), (3, 0, 1), (1, 0, 2)})
    k, colon, plus = _pivot_step(3, exps)
    assert k == 3
    assert plus == frozenset({(1, 0, 2), (3, 0, 0)})
    assert colon == frozenset({(4, 0, 0), (1, 1, 0), (0, 0, 1)})
