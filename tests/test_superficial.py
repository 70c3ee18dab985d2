"""Superficiality, ssop, admissibility certification, and depth."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import clear_memos
from test_oracle import monomials_of_degree
from test_presentation import cut_ideals
from hilbcalc.linalg import FractionEchelon, IntEchelon
from hilbcalc.polyring import LinearForm, PolyIdeal, Polynomial, colon, eliminate_form
from hilbcalc.presentation import (
    CyclicModule,
    _series_of_ideal,
    module_dimension,
    series_of_cyclic,
)
from hilbcalc.sampling import (
    random_independent_forms,
    random_module,
    random_monomial_ideal,
)
from hilbcalc.series import HilbertSeries, IntPolynomial, series_dimension
from hilbcalc.superficial import (
    CERTIFIED,
    CUT_MEMO_SIZE,
    DEFAULT_TRIALS,
    NOT_SSOP,
    PROBABLY_NOT_ADMISSIBLE,
    DepthCertificate,
    QuotientChain,
    STOP_DIMENSION_ZERO,
    STOP_TRIALS_EXHAUSTED,
    SuperficialityReport,
    _combination_stream,
    _cut,
    _screen,
    _screen_passes,
    _superficiality,
    depth,
    find_superficial_sequence,
    is_regular,
    is_ssop,
    is_superficial,
    quotient_module,
    socle_series,
    superficial_chain,
)
from hilbcalc.theorem import two_prime_product_module


def screen_of(I: PolyIdeal):
    """_screen of I, as depth builds it."""
    return _screen(I)


def mono(d, *exps):
    return PolyIdeal(d, [Polynomial.from_monomial(d, e) for e in exps])


def lf(*cs):
    return LinearForm(tuple(Fraction(c) for c in cs))


def scaled(f: LinearForm, c) -> LinearForm:
    """The form c f, for a nonzero scalar c."""
    return LinearForm([c * v for v in f.coefficients])


def mp_module(d, s):
    """R/(maximal ideal times the prime of the first d-s variables)."""
    gens = []
    for a in range(d - s):
        for b in range(a, d):
            e = [0] * d
            e[a] += 1
            e[b] += 1
            gens.append(tuple(e))
    return CyclicModule(d, mono(d, *gens))


MP3 = mp_module(3, 1)
PQ = CyclicModule(3, mono(3, (1, 0, 1), (0, 1, 1)))  # vars x1, x2, y1
Z1 = lf(-1, 0, 1)


class TestSuperficialityReport:
    def test_consistency_enforced(self):
        with pytest.raises(ValueError):
            SuperficialityReport(True, False, None)
        with pytest.raises(ValueError):
            SuperficialityReport(False, False, 3)
        with pytest.raises(ValueError):
            SuperficialityReport(True, True, 2)

    def test_truthiness(self):
        assert SuperficialityReport(True, True, 0)
        assert not SuperficialityReport(False, False, None)


class TestIsSuperficial:
    def test_last_variable_on_mp(self):
        rep = is_superficial(MP3, lf(0, 0, 1))
        assert rep.is_superficial
        assert rep.socle_length == 2
        assert not rep.colon_equal

    def test_prime_member_fails(self):
        rep = is_superficial(MP3, lf(1, 0, 0))
        assert not rep.is_superficial
        assert rep.socle_length is None

    def test_dimension_zero_always_superficial(self):
        M = CyclicModule(2, mono(2, (1, 0), (0, 1)))
        rep = is_superficial(M, lf(1, 0))
        assert rep.is_superficial and rep.socle_length == 1
        rep2 = is_superficial(M, lf(3, -2))
        assert rep2.is_superficial

    def test_superficial_drops_dimension_by_one(self):
        for M, g in ((MP3, lf(0, 0, 1)), (PQ, Z1)):
            assert is_superficial(M, g)
            Q, _ = quotient_module(M, g)
            assert module_dimension(Q) == module_dimension(M) - 1

    def test_quotient_builds_one_elimination(self, monkeypatch):
        from hilbcalc import polyring, superficial

        built = []
        real = polyring.eliminate_form

        def counting(f):
            built.append(f)
            return real(f)

        monkeypatch.setattr(polyring, "eliminate_form", counting)
        monkeypatch.setattr(superficial, "eliminate_form", counting)
        Q, elim = quotient_module(PQ, Z1)
        assert built == [Z1]
        assert Q.ideal.canonical_key() == elim.map_ideal(PQ.ideal).canonical_key()

    def test_shift_invariant(self):
        shifted = CyclicModule(3, MP3.ideal, shift=2)
        assert is_superficial(shifted, lf(0, 0, 1)) == is_superficial(
            MP3, lf(0, 0, 1)
        )


class TestIsRegular:
    def test_variable_off_hypersurface(self):
        M = CyclicModule(2, mono(2, (2, 0)))
        assert is_regular(M, lf(0, 1))
        assert not is_regular(M, lf(1, 0))

    def test_mp_has_no_regular_form(self):
        candidates = [lf(1, 0, 0), lf(0, 1, 0), lf(0, 0, 1), lf(1, 1, 1), lf(1, -1, 2)]
        assert not any(is_regular(MP3, f) for f in candidates)

    def test_z1_regular_on_pq(self):
        assert is_regular(PQ, Z1)

    def test_agrees_with_literal_colon(self):
        # the definition: f regular iff (I : f) has the series of I
        cases = [
            (MP3, lf(0, 0, 1)),
            (MP3, lf(1, 0, 0)),
            (PQ, Z1),
            (PQ, lf(0, 1, 0)),
            (CyclicModule(2, mono(2, (2, 0))), lf(0, 1)),
        ]
        for M, f in cases:
            Q = colon(M.ideal, f.to_polynomial())
            literal = series_of_cyclic(CyclicModule(M.ring_dim, Q)) == series_of_cyclic(
                CyclicModule(M.ring_dim, M.ideal)
            )
            assert is_regular(M, f) == literal, (M, f)

    def test_regular_implies_superficial_with_zero_socle(self):
        rep = is_superficial(PQ, Z1)
        assert rep.is_superficial and rep.colon_equal and rep.socle_length == 0

    def test_socle_series_matches_colon_route(self):
        # series of (I:g)/I computed through the colon must equal the
        # quotient-route socle series up to the extra factor of t
        from hilbcalc.series import HilbertSeries

        for M, g in ((MP3, lf(0, 0, 1)), (MP3, lf(1, 0, 0)), (PQ, lf(0, 1, 0))):
            Q = colon(M.ideal, g.to_polynomial())
            SI = series_of_cyclic(CyclicModule(M.ring_dim, M.ideal))
            SQ = series_of_cyclic(CyclicModule(M.ring_dim, Q))
            direct = HilbertSeries(
                M.ring_dim, (SI.numerator - SQ.numerator).times_t_power(1)
            )
            assert socle_series(M, g) == direct


class TestIsSsop:
    def test_mp_last_variable(self):
        assert is_ssop(MP3, [lf(0, 0, 1)])

    def test_pq_pair(self):
        assert is_ssop(PQ, [lf(0, 1, 0), Z1])

    def test_insufficient_drop(self):
        M = CyclicModule(2, mono(2, (1, 1)))  # R/(x1 y1)
        assert not is_ssop(M, [lf(1, 0)])

    def test_dependent_family(self):
        assert not is_ssop(PQ, [Z1, scaled(Z1, 2)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            is_ssop(MP3, [])


class TestQuotientChain:
    def test_push_kills_the_cut_form(self):
        chain = QuotientChain((PQ,)).cut(Z1)
        assert chain.push(Z1) is None
        assert chain.push(scaled(Z1, 3)) is None
        # y1 is solved as x1 along z1 = y1 - x1
        assert chain.push(lf(0, 0, 1)) == lf(1, 0)
        assert chain.push(lf(0, 1, 0)) == lf(0, 1)

    def test_push_dies_only_on_the_span_of_the_cuts(self):
        chain = QuotientChain((PQ,)).cut(Z1).cut(lf(0, 1))
        assert chain.push(lf(2, 5, -2)) is None
        assert chain.push(lf(1, 0, 0)) == lf(1)

    def test_pull_puts_zeros_on_cut_variables(self):
        chain = QuotientChain((PQ,)).cut(lf(0, 1, 0))
        assert chain.pull(lf(2, 3)) == lf(2, 0, 3)
        chain = chain.cut(lf(0, 1))
        assert chain.pull(lf(5)) == lf(5, 0, 0)

    def test_pull_after_push_zeroes_cut_variables(self):
        chain = QuotientChain((PQ,)).cut(lf(0, 1, 0))
        assert chain.pull(chain.push(lf(4, -1, 7))) == lf(4, 0, 7)

    def test_modules_carry_shift(self):
        shifted = CyclicModule(3, PQ.ideal, shift=2)
        chain = QuotientChain((shifted,)).cut(Z1)
        assert [Q.ring_dim for Q in chain.modules] == [3, 2]
        assert chain.last.shift == 2
        assert len(chain.steps) == 1
        assert chain.modules[1] == quotient_module(shifted, Z1)[0]


def _random_case(s):
    rng = random.Random(s)
    M = random_module(rng, 4, min_dim=2)
    return M, random_independent_forms(rng, 4, module_dimension(M))


class TestSearchGolden:
    """Chains and witnesses pinned before the searches moved onto
    QuotientChain; a change in the candidate stream or in the pullback
    shows here as a different winner."""

    @pytest.mark.parametrize("seed", [0, 11])
    def test_pq(self, seed):
        assert depth(PQ, seed=seed).chain == (lf(1, 0, 1),)
        cert = find_superficial_sequence(PQ, [lf(0, 1, 0), Z1], seed=seed)
        assert cert.witness == (lf(-1, 0, 1), lf(0, 1, 0))

    def test_random_module_11(self):
        M, fs = _random_case(11)
        assert M.ideal.monomial_exponents() == {(0, 2, 0, 2), (1, 0, 0, 1), (2, 1, 0, 0)}
        cert = depth(M, seed=11)
        assert cert.chain == (lf(0, 0, 1, 0), lf(2, 3, 0, 2))
        assert cert.stop_evidence == STOP_DIMENSION_ZERO
        adm = find_superficial_sequence(M, fs, seed=11)
        assert adm.witness == (lf(-5, -5, -2, -2), lf(4, -5, 2, 0))
        assert adm.trials_used == 0

    def test_random_module_388(self):
        M, fs = _random_case(388)
        assert M.ideal.monomial_exponents() == {(0, 3, 1, 0), (1, 1, 1, 0), (2, 2, 0, 0)}
        cert = depth(M, seed=388)
        assert cert.chain == (lf(0, 0, 0, 1), lf(5, -3, 5, 0))
        assert cert.stop_evidence == STOP_TRIALS_EXHAUSTED
        adm = find_superficial_sequence(M, fs, seed=388)
        assert adm.witness == (lf(-3, -1, 3, -1), lf(1, -5, 0, -4), lf(-4, -1, 0, 0))
        assert adm.trials_used == 1


class TestSuperficialChain:
    def test_mp_single_step(self):
        reports, modules = superficial_chain(MP3, [lf(0, 0, 1)])
        assert reports[0].socle_length == 2
        assert modules[0].ring_dim == 2
        assert modules[0].ideal.monomial_exponents() == frozenset(
            {(2, 0), (1, 1), (0, 2)}
        )

    def test_dead_form_reported_honestly(self):
        # second form equals the first, so it dies after one step and
        # acts as zero on a still positive-dimensional module
        M = CyclicModule(2, PolyIdeal(2))
        reports, _ = superficial_chain(M, [lf(1, 0), lf(1, 0)])
        assert reports[0].is_superficial
        assert not reports[1].is_superficial

    def test_shift_carried(self):
        shifted = CyclicModule(3, MP3.ideal, shift=2)
        _, modules = superficial_chain(shifted, [lf(0, 0, 1)])
        assert modules[0].shift == 2


class TestFindSuperficialSequence:
    def test_sop_certifies(self):
        cert = find_superficial_sequence(MP3, [lf(0, 0, 1)])
        assert cert and cert.verdict == CERTIFIED
        assert cert.witness == (lf(0, 0, 1),)

    def test_recombination_reorders(self):
        # x2 itself is not superficial for PQ, so certification must
        # lean on z1 first; the witness still spans (x2, z1)
        cert = find_superficial_sequence(PQ, [lf(0, 1, 0), Z1])
        assert cert.verdict == CERTIFIED
        assert len(cert.witness) == 2
        from hilbcalc.polyring import forms_independent

        assert forms_independent(list(cert.witness))
        for w in cert.witness:
            assert not forms_independent([lf(0, 1, 0), Z1, w])

    def test_witness_forms_are_stepwise_superficial(self):
        cert = find_superficial_sequence(PQ, [lf(0, 1, 0), Z1])
        reports, _ = superficial_chain(PQ, list(cert.witness))
        assert all(r.is_superficial for r in reports)

    def test_not_ssop_on_dependent(self):
        cert = find_superficial_sequence(PQ, [Z1, scaled(Z1, 3)])
        assert cert.verdict == NOT_SSOP and cert.witness is None

    @pytest.mark.parametrize(
        "M, fs",
        [
            (CyclicModule(3, PolyIdeal(3)), [lf(1, 0, 0), lf(0, 1, 0), lf(1, 1, 0)]),
            (CyclicModule(3, PolyIdeal(3)), [lf(0, 0, 1), lf(1, 0, 0), lf(2, 0, -1)]),
        ],
    )
    def test_dependent_family_is_not_ssop_untried(self, M, fs):
        # is_ssop alone refuses it: the dependent form dies on the way down
        cert = find_superficial_sequence(M, fs)
        assert (cert.verdict, cert.witness, cert.trials_used) == (NOT_SSOP, None, 0)

    @pytest.mark.parametrize("fs", [[lf(1, 0)], [lf(1, 0), lf(2, 0)], [lf(1, 0), lf(0, 1)]])
    def test_forms_from_another_ring_raise(self, fs):
        with pytest.raises(ValueError):
            find_superficial_sequence(PQ, fs)

    def test_not_ssop_on_bad_drop(self):
        M = CyclicModule(2, mono(2, (1, 1)))
        cert = find_superficial_sequence(M, [lf(1, 0)])
        assert cert.verdict == NOT_SSOP

    def test_probably_not_admissible(self):
        # (x2) is an ssop for PQ but no scalar multiple is superficial,
        # so certification can only exhaust its budget: the one unit
        # vector of a one-form basis, then 8 random draws
        cert = find_superficial_sequence(PQ, [lf(0, 1, 0)], trials=8)
        assert cert.verdict == PROBABLY_NOT_ADMISSIBLE
        assert cert.trials_used == 9
        assert not cert

    def test_empty_input(self):
        cert = find_superficial_sequence(MP3, [])
        assert cert.verdict == CERTIFIED and cert.witness == ()

    @pytest.mark.parametrize("trials", [0, -4])
    def test_trials_below_one_refused(self, trials):
        with pytest.raises(ValueError, match="at least 1"):
            find_superficial_sequence(PQ, [lf(0, 1, 0)], trials=trials)

    def test_deterministic(self):
        a = find_superficial_sequence(PQ, [lf(0, 1, 0), Z1], seed=5)
        b = find_superficial_sequence(PQ, [lf(0, 1, 0), Z1], seed=5)
        assert a == b


class TestDepth:
    def test_mp_depth_zero(self):
        cert = depth(MP3)
        assert cert.depth == 0
        assert cert.stop_evidence == STOP_TRIALS_EXHAUSTED
        assert not cert.is_exact

    def test_pq_depth_one(self):
        cert = depth(PQ)
        assert cert.depth == 1
        assert is_regular(PQ, cert.chain[0])

    def test_free_module_full_depth(self):
        cert = depth(CyclicModule(3, PolyIdeal(3)))
        assert cert.depth == 3
        assert cert.stop_evidence == STOP_DIMENSION_ZERO
        assert cert.is_exact

    @pytest.mark.parametrize("trials", [0, -4])
    def test_trials_below_one_refused(self, trials):
        with pytest.raises(ValueError, match="at least 1"):
            depth(two_prime_product_module(1, 2), trials=trials)

    def test_hypersurface_exact_depth(self):
        M = CyclicModule(2, mono(2, (2, 0)))
        cert = depth(M)
        assert cert.depth == 1 and cert.is_exact

    def test_depth_at_most_dim(self):
        for M in (MP3, PQ, CyclicModule(3, PolyIdeal(3))):
            assert depth(M).depth <= module_dimension(M)

    def test_zero_module(self):
        M = CyclicModule(2, PolyIdeal(2, [Polynomial.one(2)]))
        cert = depth(M)
        assert cert.depth == 0 and cert.is_exact

    def test_chain_regular_in_original_ring(self):
        cert = depth(CyclicModule(3, PolyIdeal(3)))
        current = CyclicModule(3, PolyIdeal(3))
        for f in cert.chain:
            assert is_regular(current, f)
            break  # first link lives in the original ring by contract

    def test_deterministic_and_memoized(self):
        a = depth(PQ, seed=11)
        b = depth(PQ, seed=11)
        assert a is b
        c = depth(PQ, seed=12)
        assert c.depth == a.depth

    def test_depth_quotient_correspondence(self):
        # with one certified superficial form g and 1 < dim M:
        # depth M > 1 iff depth M/gM > 0
        cert = find_superficial_sequence(PQ, [Z1])
        Q, _ = quotient_module(PQ, cert.witness[0])
        assert (depth(PQ).depth > 1) == (depth(Q).depth > 0)

    def test_shift_invariant(self):
        shifted = CyclicModule(3, PQ.ideal, shift=3)
        assert depth(shifted).depth == depth(PQ).depth
        # the certificate is computed on the unshifted module and kept once
        assert depth(shifted) is depth(PQ)
        assert depth(CyclicModule(3, PQ.ideal, shift=7)) is depth(PQ)


def reference_depth(
    M: CyclicModule, seed: int = 0, trials: int = DEFAULT_TRIALS
) -> DepthCertificate:
    """The earlier depth loop, which tested every candidate with the
    screen and a cut, kept (without its memo) as the reference for the
    support rule on monomial ideals.  Its budget is the stream's: the
    k * k prefix is free, then `trials` random draws."""
    chain = QuotientChain((M.drop_shift(),))
    links: list[LinearForm] = []
    rng = random.Random(seed)
    while True:
        S = series_of_cyclic(chain.last)
        if S.is_zero or series_dimension(S) <= 0:
            cert = DepthCertificate(len(links), tuple(links), STOP_DIMENSION_ZERO, 0)
            break
        screen = screen_of(chain.last.ideal)
        k = chain.last.ring_dim
        budget = k * k + trials
        failures = 0
        found = None
        for coeffs in _combination_stream(k, rng, trials):
            f = LinearForm(coeffs)
            if _screen_passes(screen, f):
                cut = chain.cut(f)
                if cut.steps[-1].socle.is_zero:
                    found = f
                    break
            failures += 1
            if failures >= budget:
                break
        if found is None:
            cert = DepthCertificate(
                len(links), tuple(links), STOP_TRIALS_EXHAUSTED, trials
            )
            break
        links.append(chain.pull(found))
        chain = cut
    return cert


@st.composite
def monomial_modules(draw, d_min=2, d_max=4):
    """R/I for a nonzero monomial ideal I in d_min..d_max variables, no
    generator a unit."""
    d = draw(st.integers(d_min, d_max))
    exps = draw(
        st.sets(
            st.tuples(*[st.integers(0, 3)] * d).filter(any), min_size=1, max_size=5
        )
    )
    return CyclicModule(d, mono(d, *exps))


def form_on(d, support, coeffs):
    """The linear form with coeffs[k] on the k-th member of support."""
    nums = [0] * d
    for j, c in zip(sorted(support), coeffs):
        nums[j] = c
    return LinearForm(tuple(nums))


class TestSupportRule:
    """On a monomial ideal a linear form is a zerodivisor iff its support
    lies in the variable set of an associated prime; depth leans on it."""

    @settings(max_examples=80, deadline=None)
    @given(monomial_modules(), st.data())
    def test_verdict_depends_on_support_only(self, M, data):
        d = M.ring_dim
        support = data.draw(st.sets(st.integers(0, d - 1), min_size=1))
        nonzero = st.integers(-4, 4).filter(bool)
        coeffs = st.lists(nonzero, min_size=len(support), max_size=len(support))
        f = form_on(d, support, data.draw(coeffs))
        g = form_on(d, support, data.draw(coeffs))
        regular = is_regular(M, f)
        assert is_regular(M, g) is regular
        if regular:
            return
        # a zerodivisor support stays one on every nonempty subset
        ordered = sorted(support)
        for mask in range(1, 1 << len(ordered)):
            sub = [j for k, j in enumerate(ordered) if mask >> k & 1]
            assert not is_regular(M, form_on(d, sub, [f.nums[j] for j in sub]))

    @settings(max_examples=60, deadline=None)
    @given(
        monomial_modules(2, 5),
        st.integers(0, 3),
        st.integers(0, 2**16),
        st.integers(1, 40),
    )
    def test_depth_matches_the_full_test(self, M, r, seed, trials):
        shifted = CyclicModule(M.ring_dim, M.ideal, r)
        assert depth(shifted, seed, trials) == reference_depth(shifted, seed, trials)

    @pytest.mark.parametrize("seed", range(12))
    def test_depth_matches_the_full_test_on_sampled_modules(self, seed):
        rng = random.Random(seed)
        M = random_module(rng, rng.randint(3, 6), min_dim=1)
        for trials in (4, 64):
            assert depth(M, seed, trials) == reference_depth(M, seed, trials)

    def test_non_monomial_ideals_take_the_full_test(self):
        # x, y and x + y divide zero on R/(xy(x+y)(x-y)), yet x + 2y is
        # regular: the support rule holds for monomial ideals only
        x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        M = CyclicModule(2, PolyIdeal(2, [x * y * (x + y) * (x - y)]))
        for seed in range(4):
            cert = depth(M, seed)
            assert cert.depth == 1
            assert cert == reference_depth(M, seed)

    @staticmethod
    def screened(monkeypatch):
        """The candidates depth puts through the screen, in order."""
        from hilbcalc import superficial

        tested = []
        real = superficial._screen_passes
        monkeypatch.setattr(
            superficial, "_screen_passes", lambda s, f: tested.append(f) or real(s, f)
        )
        return tested

    def test_a_known_zerodivisor_support_is_not_tested_again(self, monkeypatch):
        # PQ = R/(x1*y1, x2*y1) has associated primes (y1) and (x1, x2):
        # x1 - x2 has the support of x1 + x2 and is rejected untested.  On
        # the quotient by x1 + y1 three candidates decide all 32.
        tested = self.screened(monkeypatch)
        cert = depth(PQ)
        assert (cert.chain, cert.failed_trials) == ((lf(1, 0, 1),), 32)
        assert tested == [
            *(lf(1, 0, 0), lf(0, 1, 0), lf(0, 0, 1), lf(1, 1, 0), lf(1, 0, 1)),
            *(lf(1, 0), lf(0, 1), lf(1, 1)),
        ]

    def test_full_support_zerodivisor_ends_the_step(self, monkeypatch):
        # (x^2, xy) = (x) cap (x, y)^2: x, y and x + y are zerodivisors, so
        # three candidates decide a billion
        tested = self.screened(monkeypatch)
        M = CyclicModule(2, mono(2, (2, 0), (1, 1)))
        cert = depth(M, trials=10**9)
        assert (cert.depth, cert.stop_evidence) == (0, STOP_TRIALS_EXHAUSTED)
        assert cert.failed_trials == 10**9
        assert tested == [lf(1, 0), lf(0, 1), lf(1, 1)]
        assert depth(M, trials=64) == reference_depth(M, trials=64)


def edge_ideal_module(n: int, cycle: bool) -> CyclicModule:
    """R/I(G) for the path x1 - x2 - ... - xn, closed into a cycle on
    request."""
    edges = [(a, a + 1) for a in range(n - 1)] + [(n - 1, 0)] * cycle
    return CyclicModule(n, mono(n, *(tuple(int(v in e) for v in range(n)) for e in edges)))


class TestEdgeIdealSeries:
    """R/I(G) is the Stanley-Reisner ring of the independence complex of G,
    so its series over (1 - t)^n has the numerator sum_j f_j t^j (1 - t)^(n - j),
    f_j the number of independent j-sets (Stanley, Combinatorics and
    Commutative Algebra, ch. II): C(n - j + 1, j) on the path P_n and
    n / (n - j) C(n - j, j) on the cycle C_n, j < n."""

    @staticmethod
    def independence_numerator(n: int, faces) -> IntPolynomial:
        total = IntPolynomial.zero()
        for j, f in enumerate(faces):
            total = total + f * IntPolynomial.t_power(j).times_one_minus_t(n - j)
        return total

    @pytest.mark.parametrize("n", range(3, 13))
    def test_paths(self, n):
        faces = [math.comb(n - j + 1, j) for j in range(n + 1)]
        S = series_of_cyclic(edge_ideal_module(n, False))
        assert (S.ambient_dim, S.numerator) == (n, self.independence_numerator(n, faces))

    @pytest.mark.parametrize("n", range(3, 13))
    def test_cycles(self, n):
        faces = [n * math.comb(n - j, j) // (n - j) for j in range(n)]
        S = series_of_cyclic(edge_ideal_module(n, True))
        assert (S.ambient_dim, S.numerator) == (n, self.independence_numerator(n, faces))


class TestTrialBudget:
    """`trials` counts random draws; the k units and k(k - 1) signed pairs
    in front of them are always tried."""

    @pytest.mark.parametrize("k", range(1, 7))
    @pytest.mark.parametrize("trials", [1, 5, DEFAULT_TRIALS])
    def test_stream_is_the_prefix_then_trials_draws(self, k, trials):
        stream = list(_combination_stream(k, random.Random(k), trials))
        assert len(stream) == k * k + trials
        assert all(any(c) for c in stream)
        assert stream[:k] == [tuple(int(i == j) for i in range(k)) for j in range(k)]
        pair = [0] * (k - 2) + [1, 1]
        assert all(sorted(map(abs, c)) == pair for c in stream[k : k * k])
        assert len(set(stream[: k * k])) == k * k

    def test_an_exhausted_step_tries_the_prefix_and_trials_draws(self, monkeypatch):
        # every product x_i x_j l with l = x + 2y + 3z: m is associated,
        # so no candidate is regular and all 9 + 5 reach the screen
        tested = TestSupportRule.screened(monkeypatch)
        xs = [Polynomial.variable(3, k) for k in range(3)]
        ell = xs[0] + 2 * xs[1] + 3 * xs[2]
        gens = [a * b * ell for a, b in itertools.combinations_with_replacement(xs, 2)]
        cert = depth(CyclicModule(3, PolyIdeal(3, gens)), trials=5)
        assert (cert.depth, cert.stop_evidence) == (0, STOP_TRIALS_EXHAUSTED)
        assert cert.failed_trials == 5
        assert len(tested) == 9 + 5

    @pytest.mark.parametrize("n", range(3, 11))
    def test_depth_of_paths_and_cycles(self, n):
        # depth R/I(P_n) = ceil(n / 3) (Morey 2010) and depth R/I(C_n) =
        # ceil((n - 1) / 3) (Jacques 2004): from six variables on, the
        # default trials must reach forms with more than two terms
        assert depth(edge_ideal_module(n, False)).depth == -(-n // 3)
        assert depth(edge_ideal_module(n, True)).depth == -(-(n - 1) // 3)


def reference_screen(I: PolyIdeal) -> tuple[FractionEchelon, int, dict, int]:
    """The earlier FractionEchelon screen, kept as the reference for the
    integer one."""
    d = I.ring_dim
    deg2 = monomials_of_degree(d, 2)
    index = {m: j for j, m in enumerate(deg2)}
    ech = FractionEchelon(len(deg2))
    lin = FractionEchelon(d)
    for g in I.generators:
        dg = g.homogeneous_degree()
        if dg == 1:
            vec = [Fraction(0)] * d
            for m, c in g.terms.items():
                vec[m.index(1)] = c
            lin.insert(vec)
            for k in range(d):
                row = [Fraction(0)] * len(deg2)
                for m, c in g.terms.items():
                    e = list(m)
                    e[k] += 1
                    row[index[tuple(e)]] = c
                ech.insert(row)
        elif dg == 2:
            row = [Fraction(0)] * len(deg2)
            for m, c in g.terms.items():
                row[index[m]] = c
            ech.insert(row)
    return ech, d - lin.rank, index, d


def reference_screen_passes(screen, f: LinearForm) -> bool:
    ech, expected, index, d = screen
    resid = FractionEchelon(len(index))
    for k in range(d):
        row = [Fraction(0)] * len(index)
        for j, c in enumerate(f.coefficients):
            if c:
                e = [0] * d
                e[j] += 1
                e[k] += 1
                row[index[tuple(e)]] += c
        resid.insert(ech.reduce(row))
    return resid.rank == expected


SCALES = (1, -1, Fraction(2, 3), Fraction(-7, 5), 10**15, -(10**15), Fraction(1, 10**15))


@st.composite
def screen_problems(draw):
    """(I, f) in 2-5 variables: linear generators and quadrics, the
    quadrics often products of a few small forms so that some candidates
    are zerodivisors, monomials and cubics, every generator and candidate
    scaled awkwardly.  An ideal of monomials and cubics alone has a base
    of single-entry rows (empty for cubics alone); the others mostly do
    not."""
    d = draw(st.integers(2, 5))
    small = st.lists(st.integers(-2, 2), min_size=d, max_size=d).filter(any)
    pool = [LinearForm(tuple(c)) for c in draw(st.lists(small, min_size=1, max_size=4))]
    deg2, deg3 = monomials_of_degree(d, 2), monomials_of_degree(d, 3)
    gens = []
    kinds = st.sampled_from(["linear", "product", "quadric", "monomial", "cubic"])
    for kind in draw(st.lists(kinds, max_size=4)):
        if kind == "linear":
            g = draw(st.sampled_from(pool)).to_polynomial()
        elif kind == "product":
            g = draw(st.sampled_from(pool)).to_polynomial() * draw(
                st.sampled_from(pool)
            ).to_polynomial()
        elif kind == "monomial":
            m = draw(st.sampled_from(monomials_of_degree(d, 1) + deg2 + deg3))
            g = Polynomial.from_monomial(d, m)
        elif kind == "cubic":
            # degree three only: nothing in the degree-two base
            support = draw(st.lists(st.sampled_from(deg3), min_size=1, max_size=4))
            g = Polynomial(d, {m: draw(st.integers(-3, 3)) for m in support})
        else:
            support = draw(st.lists(st.sampled_from(deg2), min_size=1, max_size=4))
            g = Polynomial(d, {m: draw(st.integers(-3, 3)) for m in support})
        gens.append(g * Fraction(draw(st.sampled_from(SCALES))))
    fractions = st.fractions(min_value=-3, max_value=3, max_denominator=5)
    if draw(st.booleans()):
        f = scaled(draw(st.sampled_from(pool)), draw(st.sampled_from(SCALES)))
    else:
        coeffs = draw(st.lists(fractions, min_size=d, max_size=d).filter(any))
        f = LinearForm(tuple(coeffs))
    return PolyIdeal(d, gens), f


def copy_screen_passes(screen, f: LinearForm) -> bool:
    """The rows x_k*f reduced in a copy of the whole base echelon, kept as
    the reference for the column-deleting branch of `_screen_passes`."""
    base, expected, steps, _ = screen
    nonzero = [(s, c) for s, c in zip(steps, f.nums) if c]
    grown = IntEchelon(base.pivots)
    for t in steps:
        grown.insert({s + t: c for s, c in nonzero})
    return grown.rank - base.rank == expected


class TestIntegerScreen:
    @settings(max_examples=300, deadline=None)
    @given(screen_problems())
    def test_verdict_agrees_with_fraction_screen(self, problem):
        I, f = problem
        screen, reference = screen_of(I), reference_screen(I)
        # expected is dim (R/I)_1: d minus the rank of the linear generators
        assert screen[1] == reference[1]
        verdict = _screen_passes(screen, f)
        assert verdict == reference_screen_passes(reference, f)
        # the branch is the base's shape, and both branches give the copy's verdict
        base = screen[0]
        assert screen[3] == all(len(row) == 1 for row in base.pivots.values())
        assert verdict == copy_screen_passes(screen, f)
        if I.is_monomial:
            assert screen[3]

    @pytest.mark.parametrize(
        "I",
        [
            mono(3, (1, 1, 0), (0, 2, 0)),
            mono(3, (1, 1, 0), (0, 0, 1)),
            mono(3, (2, 0, 0), (0, 1, 1), (1, 1, 1)),
            PolyIdeal(3, [Polynomial(3, {(1, 1, 1): 2, (0, 0, 3): -1})]),
        ],
        ids=["xy-y2", "xy-z", "x2-yz-xyz", "cubic"],
    )
    @pytest.mark.parametrize("coeffs", [(1, 0, 0), (0, 0, 1), (1, -1, 0), (1, 1, 1)])
    def test_single_entry_bases_agree_with_the_copy(self, I, coeffs):
        f = lf(*coeffs)
        screen = screen_of(I)
        assert screen[3]
        verdict = _screen_passes(screen, f)
        assert verdict == copy_screen_passes(screen, f)
        assert verdict == reference_screen_passes(reference_screen(I), f)

    @pytest.mark.parametrize(
        "coeffs, passes",
        [((1, 0, 0), False), ((0, 1, 0), False), ((1, -1, 0), True), ((0, 0, 1), True)],
    )
    def test_known_verdicts(self, coeffs, passes):
        # x0*x1 kills both factors; x2 is free, and x0 - x1 regular
        I = PolyIdeal(3, [Polynomial(3, {(1, 1, 0): Fraction(-5, 3)})])
        f = LinearForm(tuple(Fraction(c, 7) for c in coeffs))
        assert _screen_passes(screen_of(I), f) is passes
        assert reference_screen_passes(reference_screen(I), f) is passes

    def test_candidates_leave_the_base_unchanged(self):
        x = [Polynomial.variable(4, i) for i in range(4)]
        I = PolyIdeal(4, [x[0] * x[1] - x[2] * x[3] * Fraction(3, 2), x[0] + x[3] * 7])
        screen = screen_of(I)
        base = screen[0]
        before = {col: dict(row) for col, row in base.pivots.items()}
        for coeffs in ((1, 0, 0, 0), (0, 1, -1, 0), (Fraction(1, 2), 3, -2, 5)):
            _screen_passes(screen, LinearForm(coeffs))
        assert base.pivots == before


class TestScreen:
    @settings(max_examples=40, deadline=None)
    @given(
        st.sets(
            st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
            max_size=4,
        ),
        st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2)),
    )
    def test_rejection_is_sound(self, exps, coeffs):
        # the degree-two screen may only reject certified zerodivisors
        exps = {e for e in exps if any(e)}
        if not exps or not any(coeffs):
            return
        I = mono(3, *exps)
        M = CyclicModule(3, I)
        f = lf(*coeffs)
        screen = screen_of(I)
        if not _screen_passes(screen, f):
            assert not is_regular(M, f)


class TestCutMemo:
    @settings(max_examples=200, deadline=None)
    @given(screen_problems(), st.integers(0, 3), st.sampled_from(SCALES[1:]))
    def test_memo_matches_an_uncached_build(self, problem, r, c):
        I, f = problem
        clear_memos()
        M = CyclicModule(I.ring_dim, I, shift=r)
        Q, elim = quotient_module(M, f)
        expected = eliminate_form(f)
        assert elim == expected
        assert Q.ideal.generators == expected.map_ideal(I).generators
        assert (Q.ring_dim, Q.shift) == (I.ring_dim - 1, r)
        # a repeat is a hit on the same objects
        hits = _cut.cache_info().hits
        Q2, elim2 = quotient_module(M, f)
        assert _cut.cache_info().hits == hits + 1
        assert Q2 == Q and Q2.ideal is Q.ideal and elim2 is elim
        # so is the same ideal with its generators rescaled, and the hit
        # holds the generators an uncached cut of it gives
        J = PolyIdeal(I.ring_dim, [g * Fraction(c) for g in I.generators])
        Q3, _ = quotient_module(CyclicModule(I.ring_dim, J), f)
        assert _cut.cache_info().hits == hits + 2
        assert Q3.ideal.generators == expected.map_ideal(J).generators

    def test_repeats_build_no_elimination_and_the_memo_is_bounded(self, monkeypatch):
        from hilbcalc import superficial

        built = []
        real = superficial.eliminate_form
        monkeypatch.setattr(superficial, "eliminate_form", lambda f: built.append(f) or real(f))
        for _ in range(3):
            quotient_module(PQ, Z1)
        assert built == [Z1]
        forms = [lf(1, k, 1) for k in range(CUT_MEMO_SIZE + 1)]
        for f in forms:
            quotient_module(PQ, f)
        assert _cut.cache_info().currsize == CUT_MEMO_SIZE
        # the least recently used cut was evicted and is built again
        quotient_module(PQ, Z1)
        assert built[-1] == Z1 and len(built) == CUT_MEMO_SIZE + 3


@st.composite
def sweep_problems(draw):
    """(I, f) as the sweep's quotient walk meets them: a random monomial
    ideal, or one cut by one or two forms so that it is not monomial, and
    a random form in its ring."""
    if draw(st.booleans()):
        I = draw(cut_ideals())
    else:
        rng = random.Random(draw(st.integers(0, 2**32)))
        I = random_monomial_ideal(rng, rng.randint(2, 6))
    d = I.ring_dim
    coeffs = draw(st.lists(st.integers(-5, 5), min_size=d, max_size=d).filter(any))
    return I, LinearForm(coeffs)


class TestSocleStepMemo:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(screen_problems(), sweep_problems()), st.integers(0, 3))
    def test_step_matches_a_rebuilt_socle_series(self, problem, r):
        I, f = problem
        clear_memos()
        chain = QuotientChain((CyclicModule(I.ring_dim, I, shift=r),))
        cut = chain.cut(f)
        D = cut.steps[-1].socle
        report = is_superficial(chain.last, f)
        # a repeat reads the memo entry: the same objects, and no series
        info = _series_of_ideal.cache_info()
        cut2 = chain.cut(f)
        assert cut2.steps[-1].socle is D and cut2.last == cut.last
        assert is_superficial(chain.last, f) is report
        assert _series_of_ideal.cache_info() == info
        clear_memos()
        h2 = series_of_cyclic(cut.last.drop_shift()).numerator
        h1 = series_of_cyclic(chain.last.drop_shift()).numerator
        assert (D.ambient_dim, D.numerator) == (I.ring_dim - 1, h2 - h1)
        assert report == _superficiality(HilbertSeries(I.ring_dim - 1, h2 - h1))

    def test_nothing_is_computed_until_it_is_read(self):
        quotient_module(PQ, Z1)
        assert is_ssop(PQ, [Z1])
        step = _cut(PQ.ideal, Z1)
        assert QuotientChain((PQ,)).cut(Z1).steps[-1] is step
        assert "socle" not in vars(step) and "report" not in vars(step)
        report = is_superficial(PQ, Z1)
        assert "socle" in vars(step) and "report" in vars(step)
        assert report is step.report
        # a second caller gets the same objects with no series built
        info = _series_of_ideal.cache_info()
        assert socle_series(PQ, Z1) is step.socle
        assert is_superficial(PQ, Z1) is report
        assert _series_of_ideal.cache_info() == info

    def test_an_evicted_step_is_rebuilt_equal(self):
        chain = QuotientChain((PQ,))
        D = chain.cut(Z1).steps[-1].socle
        report = is_superficial(PQ, Z1)
        for k in range(CUT_MEMO_SIZE):
            chain.cut(lf(1, k, 1)).steps[-1].socle
        assert _cut.cache_info().currsize == CUT_MEMO_SIZE
        misses = _cut.cache_info().misses
        D2 = chain.cut(Z1).steps[-1].socle
        assert _cut.cache_info().misses == misses + 1
        assert D2 is not D and D2.numerator == D.numerator
        assert is_superficial(PQ, Z1) == report


class TestCutsGoThroughQuotientModule:
    """Every cut is taken by `quotient_module`, the benchmark tracer's
    layer, so no search or walk can bypass it."""

    @staticmethod
    def counted(monkeypatch) -> list:
        from hilbcalc import superficial

        calls = []
        real = superficial.quotient_module
        monkeypatch.setattr(
            superficial, "quotient_module", lambda M, f: calls.append(f) or real(M, f)
        )
        return calls

    @pytest.mark.parametrize(
        "search",
        [
            lambda M, fs: depth(M),
            lambda M, fs: find_superficial_sequence(M, fs),
            lambda M, fs: is_ssop(M, fs),
        ],
        ids=["depth", "find_superficial_sequence", "is_ssop"],
    )
    def test_the_searches_reach_it(self, monkeypatch, search):
        calls = self.counted(monkeypatch)
        M = two_prime_product_module(1, 2)
        search(M, random_independent_forms(random.Random(3), M.ring_dim, 2))
        assert calls

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_a_live_chain_cuts_once_per_form(self, monkeypatch, k):
        calls = self.counted(monkeypatch)
        fs = [lf(*(int(i == j) for i in range(3))) for j in range(k)]
        superficial_chain(PQ, fs)
        assert len(calls) == k
