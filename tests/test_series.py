from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbcalc.series import (
    DEFAULT_TRUNCATION,
    MINUS_INFINITY,
    CoefficientTable,
    HilbertSeries,
    InexactDivision,
    IntPolynomial,
    MixedAmbient,
    binomial,
    coefficient,
    combine,
    expand,
    h_polynomial,
    hilbert_coefficients,
    series_dimension,
    shift,
)

small_ints = st.integers(min_value=-40, max_value=40)
int_polys = st.lists(small_ints, max_size=9).map(tuple).map(IntPolynomial)


def evaluate(p: IntPolynomial, x: int) -> int:
    """p(x) by Horner's rule."""
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def fitted_growth_order(S: HilbertSeries) -> int:
    # Independent read of the pole order: expand far out and take finite
    # differences until the tail vanishes.  The number of difference steps
    # needed equals the dimension.
    window = expand(S, 3 * (len(S.numerator.coeffs) + S.ambient_dim) + 12)
    tail = window[len(S.numerator.coeffs) + 1 :]
    steps = 0
    while any(tail):
        tail = [b - a for a, b in zip(tail, tail[1:])]
        steps += 1
        assert steps <= S.ambient_dim + 1
    return steps


class TestBinomial:
    def test_conventions(self):
        assert binomial(5, 0) == 1
        assert binomial(0, 0) == 1
        assert binomial(3, 5) == 0
        assert binomial(7, 2) == 21

    def test_rejects_negatives(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)
        with pytest.raises(ValueError):
            binomial(2, -3)

    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=60))
    def test_pascal(self, m, n):
        assert binomial(m, n) == binomial(m - 1, n - 1) + binomial(m - 1, n)


class TestIntPolynomial:
    def test_trims_trailing_zeros(self):
        assert IntPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
        assert IntPolynomial((0, 0)).is_zero

    def test_integral_coefficients_are_accepted(self):
        p = IntPolynomial([Fraction(4, 2), True, 0])
        assert p.coeffs == (2, 1)
        assert all(type(c) is int for c in p.coeffs)
        assert p == IntPolynomial((2, 1))

    @pytest.mark.parametrize("bad", [Fraction(1, 2), 2.9, 2.0, "3", None])
    def test_non_integer_coefficients_are_refused(self, bad):
        with pytest.raises(TypeError):
            IntPolynomial((1, bad))
        with pytest.raises(TypeError):
            HilbertSeries(1, [bad])
        with pytest.raises(TypeError):
            CoefficientTable(1, (bad,))

    def test_arithmetic(self):
        p = IntPolynomial((1, 1))
        assert (p * p).coeffs == (1, 2, 1)
        assert (p - p).is_zero
        assert (3 * p).coeffs == (3, 3)
        assert p.times_t_power(2).coeffs == (0, 0, 1, 1)

    def test_one_minus_t_round_trip(self):
        p = IntPolynomial((4, -1, 3))
        assert p.times_one_minus_t(3).div_one_minus_t(3) == p

    def test_inexact_division_raises(self):
        with pytest.raises(InexactDivision):
            IntPolynomial((1, 1)).div_one_minus_t()

    def test_negative_one_minus_t_exponent_raises(self):
        # both used to return the input unchanged
        p = IntPolynomial((1, 2, 3))
        with pytest.raises(ValueError):
            p.times_one_minus_t(-1)
        with pytest.raises(ValueError):
            p.div_one_minus_t(-1)
        with pytest.raises(ValueError):
            IntPolynomial.zero().div_one_minus_t(-2)

    def test_multiplicity_at_one(self):
        p = IntPolynomial((1, -2, 0, 1))  # 1 - 2t + t^3 = (1-t)^2 (1 + 2t... no:
        # (1 - t)^2 divides iff two exact divisions succeed; value checked below
        assert evaluate(p, 1) == 0
        assert p.multiplicity_at_one() == p.multiplicity_at_one()

    def test_taylor_at_one_matches_shift(self):
        # t^3 = ((t-1) + 1)^3
        assert IntPolynomial.t_power(3).taylor_at_one() == (1, 3, 3, 1)

    @given(int_polys, st.integers(min_value=-5, max_value=5))
    def test_taylor_evaluates(self, p, x):
        # p(x) recovered from the (t-1)-expansion at x-1
        taylor = p.taylor_at_one()
        acc = 0
        for c in reversed(taylor):
            acc = acc * (x - 1) + c
        assert acc == evaluate(p, x)

    @given(int_polys, int_polys, int_polys)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    @given(int_polys, st.integers(min_value=0, max_value=4))
    def test_division_inverts_multiplication(self, p, k):
        assert p.times_one_minus_t(k).div_one_minus_t(k) == p


class TestSeriesDimension:
    def test_specified_value(self):
        S = HilbertSeries(3, IntPolynomial((1, 0, -2, 1)))
        assert series_dimension(S) == 2
        assert fitted_growth_order(S) == 2

    def test_full_ring(self):
        S = HilbertSeries(4, IntPolynomial.one())
        assert series_dimension(S) == 4
        assert fitted_growth_order(S) == 4

    def test_zero_module(self):
        S = HilbertSeries(5, IntPolynomial.zero())
        assert series_dimension(S) is MINUS_INFINITY

    def test_finite_length(self):
        # h = (1-t)^3 (1 + t) over d = 3: a module of length 2
        h = IntPolynomial((1, 1)).times_one_minus_t(3)
        S = HilbertSeries(3, h)
        assert series_dimension(S) == 0
        assert fitted_growth_order(S) == 0

    def test_sentinel_ordering(self):
        assert MINUS_INFINITY < 0
        assert MINUS_INFINITY < -10
        assert MINUS_INFINITY <= MINUS_INFINITY
        assert not (MINUS_INFINITY > 3)
        assert not (0 <= MINUS_INFINITY)


class TestHPolynomial:
    def test_specified_value(self):
        S = HilbertSeries(3, IntPolynomial((1, 0, -2, 1)))
        assert h_polynomial(S).coeffs == (1, 1, -1)

    def test_expansion_agrees(self):
        S = HilbertSeries(3, IntPolynomial((1, 0, -2, 1)))
        reduced = HilbertSeries(2, h_polynomial(S))
        assert expand(S, 20) == expand(reduced, 20)

    def test_zero(self):
        assert h_polynomial(HilbertSeries(2, IntPolynomial.zero())).is_zero


class TestHilbertCoefficients:
    def test_specified_value(self):
        S = HilbertSeries(3, IntPolynomial((1, 0, -2, 1)))
        T = hilbert_coefficients(S)
        assert T.dim == 2
        assert T.coeffs == (1, -1, -1)

    def test_shifted_free_module(self):
        # R(-4) over d = 6
        S = shift(HilbertSeries(6, IntPolynomial.one()), 4)
        T = hilbert_coefficients(S)
        assert T.dim == 6
        assert all(T.e(i) == binomial(4, i) for i in range(12))

    def test_zero_module(self):
        T = hilbert_coefficients(HilbertSeries(3, IntPolynomial.zero()))
        assert T.dim is MINUS_INFINITY
        assert T.coeffs == ()

    def test_out_of_range_reads_zero(self):
        T = CoefficientTable(1, (3, 2))
        assert T.e(5) == 0
        with pytest.raises(ValueError):
            T.e(-1)

    def test_table_trims(self):
        assert CoefficientTable(2, (1, 0, 0)).coeffs == (1,)
        assert CoefficientTable(2, [Fraction(3), 0]).coeffs == (3,)


class TestRelativeCoefficient:
    def test_vanishing_below_codim(self):
        # R/p with p spanned by the first two of four variables: h = (1-t)^2
        S = HilbertSeries(4, IntPolynomial.one().times_one_minus_t(2))
        assert hilbert_coefficients(S) == CoefficientTable(2, (1,))
        assert [reference_relative_coefficient(S, i) for i in range(4)] == [0, 0, 1, 0]
        assert relative_coefficients_align(S, 8)

    def test_alignment_with_table(self):
        S = HilbertSeries(3, IntPolynomial((1, 0, -2, 1)))
        assert relative_coefficients_align(S, 12)


class TestShift:
    def test_free_module(self):
        S = HilbertSeries(5, IntPolynomial.one())
        T = hilbert_coefficients(shift(S, 3))
        assert T.dim == 5
        assert all(T.e(i) == binomial(3, i) for i in range(6))

    def test_convolution_identity(self):
        base = HilbertSeries(3, IntPolynomial((1, 0, -2, 1)))
        T = hilbert_coefficients(base)
        for r in range(0, 11):
            Tr = hilbert_coefficients(shift(base, r))
            for i in range(len(Tr.coeffs) + 2):
                assert Tr.e(i) == sum(binomial(r, j) * T.e(i - j) for j in range(i + 1))

    def test_e0_unchanged(self):
        base = HilbertSeries(3, IntPolynomial((1, 0, -2, 1)))
        assert hilbert_coefficients(shift(base, 1)).e(0) == 1

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            shift(HilbertSeries(2, IntPolynomial.one()), -1)


class TestCombine:
    def test_four_term_cancellation(self):
        # 0 -> R/pq -> R/p (+) R/q -> R/m -> 0 with p = (x1, x2), q = (y1)
        d = 3
        one = IntPolynomial.one()
        r_bar = HilbertSeries(d, IntPolynomial((1, 0, -2, 1)))
        r_mod_p = HilbertSeries(d, one.times_one_minus_t(2))
        r_mod_q = HilbertSeries(d, one.times_one_minus_t(1))
        r_mod_m = HilbertSeries(d, one.times_one_minus_t(3))
        total = combine([(1, r_bar), (-1, r_mod_p), (-1, r_mod_q), (1, r_mod_m)])
        assert total.is_zero

    def test_mixed_ambient_rejected(self):
        with pytest.raises(MixedAmbient):
            combine(
                [
                    (1, HilbertSeries(2, IntPolynomial.one())),
                    (-1, HilbertSeries(3, IntPolynomial.one())),
                ]
            )

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            combine([(2, HilbertSeries(2, IntPolynomial.one()))])


class TestSeriesEquality:
    def test_reduced_equality(self):
        a = HilbertSeries(3, IntPolynomial.one().times_one_minus_t(1))
        b = HilbertSeries(2, IntPolynomial.one())
        assert a == b
        assert hash(a) == hash(b)

    def test_distinct(self):
        a = HilbertSeries(2, IntPolynomial.one())
        b = HilbertSeries(2, IntPolynomial((1, 1)))
        assert a != b


class TestExpand:
    def test_polynomial_ring(self):
        S = HilbertSeries(3, IntPolynomial.one())
        assert expand(S, 5) == [binomial(n + 2, 2) for n in range(6)]

    def test_ambient_zero(self):
        S = HilbertSeries(0, IntPolynomial((2, 1)))
        assert expand(S, 4) == [2, 1, 0, 0, 0]

    def test_specified_module(self):
        S = HilbertSeries(3, IntPolynomial((1, 0, -2, 1)))
        assert expand(S, 6) == [1, 3, 4, 5, 6, 7, 8]


class TestPartialSums:
    def test_full_ring(self):
        S = HilbertSeries(2, IntPolynomial.one())
        T = hilbert_coefficients(S)
        assert sum(expand(S, 5)) == 21 == reference_partial_sum(T, 5)

    def test_at_degree_zero(self):
        S = HilbertSeries(3, IntPolynomial((1, 0, -2, 1)))
        T = hilbert_coefficients(S)
        assert sum(expand(S, 0)) == 1 == reference_partial_sum(T, 0)

    def test_threshold_reported(self):
        S = HilbertSeries(3, IntPolynomial((1, 0, -2, 1)))
        assert reference_partial_sum_threshold(S) == 0

    def test_window_past_threshold(self):
        S = HilbertSeries(3, IntPolynomial((1, 0, -2, 1)))
        T = hilbert_coefficients(S)
        t0 = reference_partial_sum_threshold(S)
        for n in range(t0, t0 + 21):
            assert sum(expand(S, n)) == reference_partial_sum(T, n)


def one_minus_t_power(k: int) -> IntPolynomial:
    """1 - t^k, the numerator factor of a quotient by a degree-k regular
    element."""
    return IntPolynomial((1,) + (0,) * (k - 1) + (-1,))


class TestRegularQuotient:
    def test_free_module_hypersurface(self):
        T = CoefficientTable(4, (1,))
        quotient = HilbertSeries(4, one_minus_t_power(3))
        out = hilbert_coefficients(quotient)
        assert out == CoefficientTable(3, (3, 3, 1))
        assert out == reference_regular_quotient_coeffs(T, 3)

    def test_degree_one_identity(self):
        # 1 + t - t^2 = 1 - (t - 1) - (t - 1)^2
        h = IntPolynomial((1, 1, -1))
        T = hilbert_coefficients(HilbertSeries(2, h))
        assert T == CoefficientTable(2, (1, -1, -1))
        out = hilbert_coefficients(HilbertSeries(2, h * one_minus_t_power(1)))
        assert out == CoefficientTable(1, (1, -1, -1))
        assert out == reference_regular_quotient_coeffs(T, 1)

    def test_successive_matches_convolution(self):
        quotient = HilbertSeries(4, one_minus_t_power(2) * one_minus_t_power(3))
        out = hilbert_coefficients(quotient)
        assert out == reference_regular_quotient_coeffs(
            reference_regular_quotient_coeffs(CoefficientTable(4, (1,)), 2), 3
        )
        for i in range(6):
            assert out.e(i) == sum(
                binomial(2, i - j + 1) * binomial(3, j + 1) for j in range(i + 1)
            )

    @settings(max_examples=40)
    @given(
        st.lists(small_ints, min_size=1, max_size=6),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=6),
    )
    def test_matches_series_level_quotient(self, hs, d_extra, k):
        # Multiplying the numerator by (1 - t^k) is the series-level quotient
        # by a degree-k regular element; the table transform must agree.
        h = IntPolynomial(tuple(hs))
        if h.is_zero:
            return
        s_dim = d_extra  # embed so that the module has positive dimension
        S = HilbertSeries(h.multiplicity_at_one() + s_dim, h)
        quotient = HilbertSeries(S.ambient_dim, h * one_minus_t_power(k))
        assert reference_regular_quotient_coeffs(
            hilbert_coefficients(S), k
        ) == hilbert_coefficients(quotient)


# ---------------------------------------------------------------------------
# the plain kernels the list-based ones replaced, kept as references


def reference_div_one_minus_t(p: IntPolynomial, k: int = 1) -> IntPolynomial:
    for _ in range(k):
        if p.is_zero:
            continue
        acc = 0
        q = []
        for c in p.coeffs:
            acc += c
            q.append(acc)
        if q[-1] != 0:
            raise InexactDivision("numerator not divisible by (1 - t)")
        p = IntPolynomial(tuple(q[:-1]))
    return p


def reference_multiplicity_at_one(p: IntPolynomial) -> int:
    k = 0
    while True:
        try:
            p = reference_div_one_minus_t(p)
        except InexactDivision:
            return k
        k += 1


def reference_taylor_at_one(p: IntPolynomial) -> tuple[int, ...]:
    out = []
    n = len(p.coeffs)
    for i in range(n):
        out.append(sum(binomial(j, i) * p.coeffs[j] for j in range(i, n)))
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def reference_expand(S: HilbertSeries, max_degree: int) -> list[int]:
    """h_j C(n - j + d - 1, d - 1) summed over j <= n, one degree at a time."""
    d, h = S.ambient_dim, S.numerator.coeffs
    if d == 0:
        return [h[n] if n < len(h) else 0 for n in range(max_degree + 1)]
    return [
        sum(h[j] * binomial(n - j + d - 1, d - 1) for j in range(min(n + 1, len(h))))
        for n in range(max_degree + 1)
    ]


def reference_relative_coefficient(S: HilbertSeries, i: int) -> int:
    h = S.numerator
    return sum(binomial(j, i) * h.coeffs[j] for j in range(i, len(h.coeffs)))


def relative_coefficients_align(S: HilbertSeries, top: int) -> bool:
    """The relative coefficients 0..top-1 of a nonzero S, the Taylor
    coefficients of its raw numerator at t = 1, against its table: zero
    below the number c of (1 - t) factors the table divides out, and
    (-1)^c e_{i-c} from c on."""
    T = hilbert_coefficients(S)
    c = S.ambient_dim - max(T.dim, 0)
    return all(
        reference_relative_coefficient(S, i)
        == (0 if i < c else (-1) ** c * T.e(i - c))
        for i in range(top)
    )


def reference_partial_sum(T: CoefficientTable, n: int) -> int:
    """The closed form of the lengths through degree n, read off the
    table of a nonzero module: the sum over i <= s of
    (-1)^i e_i C(n + s - i, s - i).  It holds from
    reference_partial_sum_threshold on."""
    s = T.dim
    return sum((-1) ** i * T.e(i) * binomial(n + s - i, s - i) for i in range(s + 1))


def reference_partial_sum_threshold(S: HilbertSeries) -> int:
    """The least n from which the partial sum closed form is guaranteed."""
    return h_polynomial(S).degree - series_dimension(S)


def reference_regular_quotient_coeffs(T: CoefficientTable, k: int) -> CoefficientTable:
    """The table of M/fM for f a degree-k regular element, from the table
    of a nonzero M of positive dimension."""
    return CoefficientTable(
        T.dim - 1,
        tuple(
            sum(binomial(k, j + 1) * T.e(n - j) for j in range(min(n, k - 1) + 1))
            for n in range(len(T.coeffs) + k - 1)
        ),
    )


@st.composite
def one_minus_t_multiples(draw):
    """(1 - t)^k h as raw coefficients, trailing zeros included, with k."""
    h = draw(st.lists(small_ints, max_size=8))
    k = draw(st.integers(0, 5))
    cs = IntPolynomial(tuple(h)).times_one_minus_t(k).coeffs
    return cs + (0,) * draw(st.integers(0, 3)), k


@st.composite
def numerators(draw):
    """Dense, sparse and shifted numerators."""
    kind = draw(st.sampled_from(["dense", "sparse", "shifted"]))
    if kind == "dense":
        return IntPolynomial(tuple(draw(st.lists(small_ints, max_size=12))))
    terms = draw(st.dictionaries(st.integers(0, 40), small_ints, max_size=4))
    r = draw(st.integers(0, 300)) if kind == "shifted" else 0
    return IntPolynomial(
        tuple(terms.get(j, 0) for j in range(max(terms, default=-1) + 1))
    ).times_t_power(r)


class TestKernelsAgainstReferences:
    @settings(max_examples=300, deadline=None)
    @given(numerators(), st.integers(0, 6), st.data())
    def test_expand_matches_reference(self, h, d, data):
        # max_degree runs from 0 to past the numerator's length, so the
        # numerator is both cut and padded; d = 0 expands to h itself
        max_degree = data.draw(st.integers(0, len(h.coeffs) + 8))
        S = HilbertSeries(d, h)
        assert expand(S, max_degree) == reference_expand(S, max_degree)

    @settings(max_examples=300, deadline=None)
    @given(one_minus_t_multiples(), st.integers(0, 7))
    def test_division_matches_reference(self, problem, k):
        cs, _ = problem
        p = IntPolynomial(cs)
        try:
            expected = reference_div_one_minus_t(p, k)
        except InexactDivision:
            with pytest.raises(InexactDivision):
                p.div_one_minus_t(k)
            return
        assert p.div_one_minus_t(k) == expected

    @settings(max_examples=300, deadline=None)
    @given(one_minus_t_multiples())
    def test_multiplicity_matches_reference(self, problem):
        cs, k = problem
        p = IntPolynomial(cs)
        if p.is_zero:
            with pytest.raises(ValueError):
                p.multiplicity_at_one()
            return
        m = p.multiplicity_at_one()
        assert m == reference_multiplicity_at_one(p)
        assert m >= k

    def test_zero_and_edge_cases(self):
        zero = IntPolynomial.zero()
        assert zero.div_one_minus_t(3) == zero
        assert IntPolynomial((2, -2)).div_one_minus_t(0) == IntPolynomial((2, -2))
        assert IntPolynomial((2, -2)).div_one_minus_t() == IntPolynomial((2,))
        with pytest.raises(InexactDivision):
            IntPolynomial((2, -2)).div_one_minus_t(2)
        assert IntPolynomial((5,)).multiplicity_at_one() == 0

    @settings(max_examples=200, deadline=None)
    @given(numerators(), st.integers(0, 8))
    def test_taylor_and_relative_coefficient_match_reference(self, p, i):
        assert p.taylor_at_one() == reference_taylor_at_one(p)
        if not p.is_zero:
            assert relative_coefficients_align(HilbertSeries(2, p), i + 1)


class TestCoefficient:
    @settings(max_examples=300, deadline=None)
    @given(numerators(), st.integers(0, 6), st.integers(0, 60))
    def test_matches_expand(self, h, d, n):
        S = HilbertSeries(d, h)
        assert coefficient(S, n) == expand(S, n)[n]

    def test_edges(self):
        S = HilbertSeries(3, IntPolynomial((1, 0, -2, 1)))
        assert [coefficient(S, n) for n in range(7)] == [1, 3, 4, 5, 6, 7, 8]
        assert coefficient(S, -1) == coefficient(S, -5) == 0
        assert coefficient(HilbertSeries(0, IntPolynomial((2, 1))), 3) == 0
        assert coefficient(HilbertSeries(4, IntPolynomial.zero()), 3) == 0
