"""The brute-force degree counter that everything else is measured against."""

import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbcalc import polyring, presentation
from hilbcalc.linalg import IntEchelon, int_rank
from hilbcalc.monomial import monomial_divides, monomial_mul
from hilbcalc.oracle import (
    DEFAULT_CHECK_DEGREE,
    SeriesCheck,
    _standard_counts,
    graded_dimension,
    graded_profile,
    verify_series,
)
from hilbcalc.polyring import PolyIdeal, Polynomial, clear_denominators
from hilbcalc.presentation import CyclicModule
from hilbcalc.series import binomial


@lru_cache(maxsize=None)
def monomials_of_degree(d, n):
    """All exponent vectors of total degree n over d variables, in
    ascending lex order: the reference enumeration the tests index
    their columns and draw their monomials by.  The cache keeps the
    hypothesis properties that draw from it fast."""
    if n < 0:
        return ()
    if d == 0:
        return ((),) if n == 0 else ()
    if d == 1:
        return ((n,),)
    return tuple(
        (e,) + rest for e in range(n + 1) for rest in monomials_of_degree(d - 1, n - e)
    )


def _ideal_rank(I, n):
    """dim of the degree-n piece of I, by the rank of the full Macaulay
    matrix: every row x^a * g_j, none skipped.  The reference the
    oracle's degree walk is checked against."""
    d = I.ring_dim
    targets = monomials_of_degree(d, n)
    cols = {m: j for j, m in enumerate(targets)}
    rows = []
    for g in I.generators:
        dg = g.degree()
        if dg > n:
            continue
        entries = clear_denominators(g.terms)[1].items()
        for m in monomials_of_degree(d, n - dg):
            row = [0] * len(targets)
            for mg, c in entries:
                row[cols[monomial_mul(m, mg)]] = c
            rows.append(row)
    return int_rank(rows)


def _raw_walk_verdicts(I, top):
    """The oracle's walk with raw rows: the same order and the same skip
    rule, but every row x^a * g_j built from g_j.  Returns, insert by
    insert, whether the row was independent.  A lifted row of the
    package's walk is a nonzero multiple of the raw row plus rows before
    it, so it gets the same verdict."""
    d = I.ring_dim
    units = [tuple(int(i == k) for i in range(d)) for k in range(d)]
    dead = [set() for _ in I.generators]
    verdicts = []
    for n in range(top + 1):
        cols = {m: c for c, m in enumerate(monomials_of_degree(d, n))}
        echelon = IntEchelon()
        for j, g in enumerate(I.generators):
            known = {monomial_mul(a, x) for a in dead[j] for x in units}
            for a in monomials_of_degree(d, n - g.degree()):
                if a in known:
                    continue
                row = echelon.insert(
                    {cols[monomial_mul(a, m)]: c for m, c in g.nums.items()}
                )
                verdicts.append(row is not None)
                if row is None:
                    known.add(a)
            dead[j] = known
    return verdicts


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


@st.composite
def homogeneous_ideals(draw):
    """1-4 variables, 1-3 generators of degree 1-3 with rational
    coefficients, plus the product of two of them (which forces syzygies
    beyond the Koszul ones of the generators) and a scaled copy of one."""
    d = draw(st.integers(1, 4))
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=3)

    def form(deg):
        support = draw(
            st.lists(
                st.sampled_from(monomials_of_degree(d, deg)),
                min_size=1,
                max_size=4,
                unique=True,
            )
        )
        return Polynomial(d, {m: draw(coeff) for m in support})

    gens = [form(draw(st.integers(1, 3))) for _ in range(draw(st.integers(1, 3)))]
    gens = [g for g in gens if not g.is_zero]
    if gens:
        gens.append(gens[0] * gens[-1])
        gens.append(gens[-1] * draw(st.sampled_from([Fraction(-2), Fraction(3, 5)])))
    # the walk inserts rows generator by generator, so the order matters
    return PolyIdeal(d, draw(st.permutations(gens)))


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
        monkeypatch.setattr(presentation, "RationalKernel", refuse)
        # a complete intersection gets its series from a mod-p run, so the
        # guard refuses that kernel too
        monkeypatch.setattr(polyring, "ModPKernel", refuse)
        monkeypatch.setattr(presentation, "ModPKernel", refuse)
        with pytest.raises(AssertionError):
            presentation.series_of_cyclic(QUADRICS)
        assert graded_profile(QUADRICS, 6) == QUADRICS_PROFILE[:7]

    @settings(max_examples=100, deadline=None)
    @given(homogeneous_ideals())
    def test_walk_matches_full_matrix_rank(self, I):
        top = 7
        M = CyclicModule(I.ring_dim, I)
        profile = graded_profile(M, top)
        expected = tuple(
            len(monomials_of_degree(I.ring_dim, n)) - _ideal_rank(I, n)
            for n in range(top + 1)
        )
        assert profile == expected
        assert all(graded_dimension(M, n) == profile[n] for n in range(top + 1))

    @settings(max_examples=100, deadline=None)
    @given(homogeneous_ideals())
    def test_lifted_rows_get_the_raw_rows_verdicts(self, I):
        top = 7
        expected = _raw_walk_verdicts(I, top)
        recorded = []
        insert = IntEchelon.insert

        def recording(self, row):
            pivot = insert(self, row)
            recorded.append(pivot is not None)
            return pivot

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(IntEchelon, "insert", recording)
            graded_profile(CyclicModule(I.ring_dim, I), top)
        if I.is_monomial:
            # standard monomials are counted, no row is inserted
            assert recorded == []
        else:
            assert recorded == expected

    def test_five_variable_quadrics_to_degree_ten(self, monkeypatch):
        # three generic quadrics in five variables: a complete intersection
        # with series (1 + t)^3 / (1 - t)^2, so 1, 5, 12, then 8n - 4
        def refuse(*args, **kwargs):
            raise AssertionError("the oracle must not compute a Groebner basis")

        monkeypatch.setattr(polyring, "buchberger", refuse)
        monkeypatch.setattr(presentation, "RationalKernel", refuse)
        M = CyclicModule(5, generic_quadrics(5, 3, seed=0))
        assert graded_profile(M, 10) == (1, 5) + tuple(8 * n - 4 for n in range(2, 11))

    def test_degree_edges(self):
        for I in (QUADRICS.ideal, PolyIdeal(4), PolyIdeal(4, [Polynomial.one(4)])):
            M = CyclicModule(4, I, shift=2)
            assert graded_profile(M, -1) == ()
            assert graded_dimension(M, -3) == 0
            # degrees below the shift are empty
            assert graded_profile(M, 1) == (0, 0)
            assert graded_dimension(M, 1) == 0
        assert graded_profile(CyclicModule(4, PolyIdeal(4), shift=2), 4) == (0, 0, 1, 4, 10)
        assert graded_dimension(CyclicModule(4, QUADRICS.ideal, shift=2), 5) == 12

    def test_monomial_profile_to_degree_300(self):
        # R/(x^2) in three variables: x^0 or x^1 times the monomials of
        # degree n or n - 1 in y and z, so 2n + 1 in degree n
        M = CyclicModule(3, monomial_ideal(3, (2, 0, 0)))
        assert graded_profile(M, 300) == tuple(2 * n + 1 for n in range(301))

    def test_unit_ideal_vanishes(self):
        M = CyclicModule(2, PolyIdeal(2, [Polynomial.one(2)]))
        assert graded_profile(M, 4) == (0, 0, 0, 0, 0)


@st.composite
def monomial_generators(draw):
    """(d, exps, top): 0-4 variables and up to 5 exponent vectors of
    degree up to 6 against a top degree of 0-5, so generators of degree
    above top, the zero ideal (no exps) and the unit ideal (the zero
    vector) all occur."""
    d = draw(st.integers(0, 4))
    exps = draw(st.lists(st.tuples(*[st.integers(0, 6)] * d), max_size=5))
    exps = [e for e in exps if sum(e) <= 6]
    return d, frozenset(exps), draw(st.integers(0, 5))


class TestStandardCounts:
    @settings(max_examples=200, deadline=None)
    @given(monomial_generators())
    def test_packed_count_matches_the_reference_enumeration(self, problem):
        d, exps, top = problem
        expected = [
            sum(
                1
                for m in monomials_of_degree(d, n)
                if not any(monomial_divides(g, m) for g in exps)
            )
            for n in range(top + 1)
        ]
        assert _standard_counts(d, exps, top) == expected

    def test_edges(self):
        # the zero ideal counts every monomial, the unit ideal none, and
        # the ring of no variables is one-dimensional in degree zero
        assert _standard_counts(3, frozenset(), 4) == [1, 3, 6, 10, 15]
        assert _standard_counts(3, frozenset({(0, 0, 0)}), 4) == [0] * 5
        assert _standard_counts(0, frozenset(), 3) == [1, 0, 0, 0]
        # a generator of degree above top is dropped, not packed: x^9
        # overflows the 3-bit fields of top 2
        assert _standard_counts(2, frozenset({(9, 0), (0, 2)}), 2) == [1, 2, 2]


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
