"""The brute-force degree counter that everything else is measured against."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbcalc import polyring, presentation
from hilbcalc.oracle import (
    DEFAULT_CHECK_DEGREE,
    SeriesCheck,
    _ideal_rank,
    graded_dimension,
    graded_profile,
    monomials_of_degree,
    verify_series,
)
from hilbcalc.polyring import PolyIdeal, Polynomial
from hilbcalc.presentation import CyclicModule
from hilbcalc.series import binomial


def monomial_ideal(d, *exps):
    return PolyIdeal(d, [Polynomial.from_monomial(d, e) for e in exps])


def generic_quadrics(d, count, seed):
    """count quadrics in d variables, every coefficient from randint(-5, 5)."""
    rng = random.Random(seed)
    quadrics = monomials_of_degree(d, 2)
    return PolyIdeal(
        d,
        [
            Polynomial(d, {m: rng.randint(-5, 5) for m in quadrics})
            for _ in range(count)
        ],
    )


# two generic quadrics in four variables: a complete intersection with
# series (1 + t)^2 / (1 - t)^2, so 1, 4, 8, ..., 4n
QUADRICS = CyclicModule(4, generic_quadrics(4, 2, seed=0))
QUADRICS_PROFILE = (1,) + tuple(4 * n for n in range(1, 13))


class TestMonomialEnumeration:
    def test_counts_match_binomial(self):
        for d in range(1, 5):
            for n in range(8):
                assert len(monomials_of_degree(d, n)) == binomial(n + d - 1, d - 1)

    def test_edges(self):
        assert monomials_of_degree(0, 0) == ((),)
        assert monomials_of_degree(0, 2) == ()
        assert monomials_of_degree(1, 5) == ((5,),)
        assert monomials_of_degree(3, -1) == ()

    def test_no_duplicates(self):
        ms = monomials_of_degree(4, 6)
        assert len(set(ms)) == len(ms)


class TestGradedDimension:
    def test_full_ring(self):
        M = CyclicModule(3, PolyIdeal(3))
        assert [graded_dimension(M, n) for n in range(5)] == [1, 3, 6, 10, 15]

    def test_monomial_count_agrees_with_matrix_rank(self):
        # same ideal through both paths: standard-monomial count and
        # Macaulay rank on the generators
        I = monomial_ideal(3, (1, 0, 1), (0, 1, 1), (2, 0, 0))
        M = CyclicModule(3, I)
        for n in range(7):
            total = len(monomials_of_degree(3, n))
            assert graded_dimension(M, n) == total - _ideal_rank(I, n)

    def test_rational_coefficients(self):
        d = 2
        f = Polynomial(d, {(2, 0): Fraction(1, 2), (1, 1): Fraction(1, 3)})
        I = PolyIdeal(d, [f])
        M = CyclicModule(d, I)
        # principal degree-2 ideal: codimension one in each degree >= 2
        assert [graded_dimension(M, n) for n in range(5)] == [1, 2, 2, 2, 2]

    def test_shift_reindexes(self):
        base = CyclicModule(3, monomial_ideal(3, (1, 0, 1), (0, 1, 1)))
        shifted = CyclicModule(3, base.ideal, shift=2)
        p0 = graded_profile(base, 6)
        p2 = graded_profile(shifted, 8)
        assert p2[:2] == (0, 0)
        assert p2[2:] == p0[:7]

    def test_counts_without_groebner_bases(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the oracle must not compute a Groebner basis")

        monkeypatch.setattr(polyring, "buchberger", refuse)
        monkeypatch.setattr(presentation, "buchberger", refuse)
        with pytest.raises(AssertionError):
            presentation.series_of_cyclic(QUADRICS)
        assert graded_profile(QUADRICS, 6) == QUADRICS_PROFILE[:7]

    def test_unit_ideal_vanishes(self):
        M = CyclicModule(2, PolyIdeal(2, [Polynomial.one(2)]))
        assert graded_profile(M, 4) == (0, 0, 0, 0, 0)


class TestVerifySeries:
    def test_known_good_module(self):
        M = CyclicModule(3, monomial_ideal(3, (1, 0, 1), (0, 1, 1)))
        check = verify_series(M)
        assert check.ok and bool(check)
        assert check.first_mismatch is None
        assert check.counted == check.expanded

    def test_mismatch_reporting(self):
        check = SeriesCheck(
            ok=False,
            max_degree=2,
            counted=(1, 2, 3),
            expanded=(1, 2, 4),
            first_mismatch=2,
        )
        assert not check
        assert check.first_mismatch == 2

    def test_default_degree_on_complete_intersection(self):
        assert DEFAULT_CHECK_DEGREE == 12
        assert graded_profile(QUADRICS, DEFAULT_CHECK_DEGREE) == QUADRICS_PROFILE
        assert verify_series(QUADRICS, DEFAULT_CHECK_DEGREE).ok

    @settings(max_examples=25, deadline=None)
    @given(
        st.sets(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            max_size=4,
        )
    )
    def test_random_monomial_quotients(self, exps):
        exps = {e for e in exps if any(e)}
        I = monomial_ideal(2, *exps) if exps else PolyIdeal(2)
        assert verify_series(CyclicModule(2, I), max_degree=10)
