"""The depth sensitivity statement on the worked families."""

from fractions import Fraction

import pytest

from hilbcalc import theorem
from hilbcalc.polyring import LinearForm
from hilbcalc.presentation import (
    BadParams,
    CyclicModule,
    module_dimension,
    module_table,
)
from hilbcalc.superficial import NOT_SSOP, PROBABLY_NOT_ADMISSIBLE, superficial_chain
from hilbcalc.theorem import (
    BadIndex,
    NotAdmissible,
    maximal_times_prime_module,
    maximal_times_prime_table,
    run_maximal_times_prime_suite,
    run_random_sensitivity_suite,
    run_two_prime_product_suite,
    two_prime_product_module,
    two_prime_product_table,
    verify_depth_sensitivity,
)


def var_form(d: int, index: int) -> LinearForm:
    return LinearForm(
        tuple(Fraction(1 if k == index else 0) for k in range(d))
    )


def z_form(r: int, s: int, j: int) -> LinearForm:
    coeffs = [Fraction(0)] * (r + s)
    coeffs[j - 1] = Fraction(-1)
    coeffs[s + j - 1] = Fraction(1)
    return LinearForm(tuple(coeffs))


class TestFamilyConstructors:
    def test_maximal_times_prime_small(self):
        M = maximal_times_prime_module(3, 1)
        assert module_dimension(M) == 1
        # generators are every product of {x1, x2} with a variable
        assert set(M.ideal.monomial_exponents()) == {
            (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1),
        }

    def test_maximal_times_prime_table(self):
        assert maximal_times_prime_table(3, 1).coeffs == (1, -2, -2)
        assert maximal_times_prime_table(2, 1).coeffs == (1, -1, -1)
        # s = 0 shows up for the terminal quotients
        assert maximal_times_prime_table(1, 0).coeffs == (2, 1)

    def test_tables_match_modules(self):
        for d in range(2, 6):
            for s in range(1, d):
                M = maximal_times_prime_module(d, s)
                assert module_table(M) == maximal_times_prime_table(d, s)

    def test_two_prime_product_small(self):
        M = two_prime_product_module(1, 2)
        assert module_dimension(M) == 2
        assert set(M.ideal.monomial_exponents()) == {(1, 0, 1), (0, 1, 1)}

    def test_two_prime_product_tables(self):
        assert two_prime_product_table(1, 2).coeffs == (1, -1, -1)
        assert two_prime_product_table(2, 3).coeffs == (1, -1, 0, 1)
        assert two_prime_product_table(1, 3).coeffs == (1, 0, 1, 1)
        for r in range(1, 4):
            for s in range(r + 1, 5):
                M = two_prime_product_module(r, s)
                assert module_table(M) == two_prime_product_table(r, s)

    def test_bad_params(self):
        with pytest.raises(BadParams):
            maximal_times_prime_module(3, 3)
        with pytest.raises(BadParams):
            maximal_times_prime_module(3, 0)
        with pytest.raises(BadParams):
            two_prime_product_module(2, 2)
        with pytest.raises(BadParams):
            two_prime_product_table(0, 3)


class TestVerifyWorkedValues:
    def test_strict_inequality_case(self):
        M = maximal_times_prime_module(3, 1)
        rep = verify_depth_sensitivity(M, [var_form(3, 2)], 0)
        assert rep.e_module == 1
        assert rep.e_quotient == 3
        assert rep.defect_lengths == (2,)
        assert rep.parity_ok
        assert not rep.equality
        assert rep.depth_value == 0
        assert rep.equivalence_ok

    def test_smallest_family_member(self):
        M = maximal_times_prime_module(2, 1)
        T = module_table(M)
        assert (T.e(0), T.e(1)) == (1, -1)
        rep = verify_depth_sensitivity(M, [var_form(2, 1)], 0)
        assert rep.e_quotient == 2
        assert rep.parity_ok and rep.equivalence_ok and not rep.equality

    def test_equality_case(self):
        M = two_prime_product_module(1, 2)
        rep = verify_depth_sensitivity(M, [z_form(1, 2, 1)], 1)
        assert rep.e_module == -1
        assert rep.e_quotient == -1
        assert rep.equality
        assert rep.depth_value == 1
        assert rep.depth_exact
        assert rep.equivalence_ok

    def test_mixed_sequence_case(self):
        M = two_prime_product_module(1, 2)
        rep = verify_depth_sensitivity(
            M, [var_form(3, 1), z_form(1, 2, 1)], 0
        )
        assert rep.e_module == 1
        assert rep.e_quotient == 2
        assert not rep.equality
        assert rep.equivalence_ok

    def test_shift_carries_through(self):
        base = maximal_times_prime_module(3, 1)
        M = CyclicModule(3, base.ideal, shift=2)
        rep = verify_depth_sensitivity(M, [var_form(3, 2)], 0)
        # e_0 on both sides is shift-invariant, so the whole verdict is
        assert rep.e_module == 1
        assert rep.e_quotient == 3
        assert rep.parity_ok and rep.equivalence_ok

    def test_index_validation(self):
        M = maximal_times_prime_module(3, 1)
        with pytest.raises(BadIndex):
            verify_depth_sensitivity(M, [var_form(3, 2)], 1)
        with pytest.raises(BadIndex):
            verify_depth_sensitivity(M, [var_form(3, 2)], -1)
        with pytest.raises(BadIndex):
            verify_depth_sensitivity(M, [var_form(3, 2), var_form(3, 1)], 0)
        zero_dim = CyclicModule(
            2, maximal_times_prime_module(3, 1).ideal.__class__(
                2, [var_form(2, 0).to_polynomial(), var_form(2, 1).to_polynomial()]
            )
        )
        with pytest.raises(BadIndex):
            verify_depth_sensitivity(zero_dim, [], 0)

    @pytest.mark.parametrize("depth_trials", [0, -3])
    def test_depth_trials_below_one_refused(self, depth_trials):
        # 0 used to fall back to trials and run 32 candidates silently
        M = two_prime_product_module(1, 2)
        with pytest.raises(ValueError, match="depth_trials must be at least 1"):
            verify_depth_sensitivity(M, [z_form(1, 2, 1)], 1, depth_trials=depth_trials)

    def test_depth_trials_default_to_trials(self, monkeypatch):
        searched = []
        search = theorem.depth

        def recording(M, seed, trials):
            searched.append(trials)
            return search(M, seed, trials)

        monkeypatch.setattr(theorem, "depth", recording)
        M = two_prime_product_module(1, 2)
        verify_depth_sensitivity(M, [z_form(1, 2, 1)], 1, trials=7)
        verify_depth_sensitivity(M, [z_form(1, 2, 1)], 1, trials=7, depth_trials=3)
        assert searched == [7, 3]

    def test_not_an_ssop_is_rejected(self):
        M = maximal_times_prime_module(3, 1)
        with pytest.raises(NotAdmissible) as exc:
            verify_depth_sensitivity(M, [var_form(3, 0)], 0)
        assert exc.value.certificate.verdict == NOT_SSOP

    def test_uncertifiable_sequence_is_rejected(self):
        M = two_prime_product_module(1, 2)
        # x2 alone spans no admissible direction: every combination
        # stays inside the x-block.  The unit vector and 8 draws fail.
        with pytest.raises(NotAdmissible) as exc:
            verify_depth_sensitivity(M, [var_form(3, 1)], 1, trials=8)
        assert exc.value.certificate.verdict == PROBABLY_NOT_ADMISSIBLE
        assert exc.value.certificate.trials_used == 9


class TestQuotientAudit:
    # one superficial quotient of a module of dimension s leaves e_j alone
    # below s - 1 and moves e_{s-1} by (-1)^(s-1) times the socle length
    def test_superficial_with_socle(self):
        M = maximal_times_prime_module(3, 1)
        assert module_dimension(M) == 1
        (report,), (after,) = superficial_chain(M, [var_form(3, 2)])
        assert report.is_superficial
        assert report.socle_length == 2
        assert (module_table(M).e(0), module_table(after).e(0)) == (1, 3)

    def test_regular_form_changes_nothing(self):
        M = two_prime_product_module(1, 2)
        assert module_dimension(M) == 2
        (report,), (after,) = superficial_chain(M, [z_form(1, 2, 1)])
        assert report.is_superficial
        assert report.socle_length == 0
        assert [module_table(after).e(j) for j in range(2)] == [
            module_table(M).e(j) for j in range(2)
        ]

    def test_even_dimension_sign(self):
        # s = 3: the correction enters with a plus sign at index 2
        M = maximal_times_prime_module(4, 3)
        assert module_dimension(M) == 3
        (report,), (after,) = superficial_chain(M, [var_form(4, 3)])
        assert report.is_superficial
        assert report.socle_length == 1
        before, quotient = module_table(M), module_table(after)
        assert [quotient.e(j) for j in range(2)] == [before.e(j) for j in range(2)]
        assert quotient.e(2) == before.e(2) + report.socle_length

    def test_rejects_non_superficial(self):
        M = maximal_times_prime_module(3, 1)
        (report,), _ = superficial_chain(M, [var_form(3, 0)])
        assert not report.is_superficial
        assert report.socle_length is None


class TestSuites:
    def test_maximal_times_prime_suite_passes(self):
        for d, s in [(3, 1), (4, 2), (5, 3)]:
            res = run_maximal_times_prime_suite(d, s)
            assert res.ok, res.checks

    def test_two_prime_product_suite_passes(self):
        for r, s in [(1, 2), (2, 3), (1, 3)]:
            res = run_two_prime_product_suite(r, s)
            assert res.ok, res.checks

    def test_suite_result_shape(self):
        res = run_maximal_times_prime_suite(3, 1)
        assert res.params == (("d", 3), ("s", 1))
        assert [c for c in res.checks if not c.ok] == []
        names = [c.name for c in res.checks]
        assert "table" in names
        assert "depth-zero-witness" in names
        assert "sensitivity[i=0]" in names

    def test_equality_only_at_top_index(self):
        res = run_two_prime_product_suite(2, 3)
        assert res.ok
        # the suite itself asserts equality iff i = s-1; spot-check the
        # recorded detail strings carry the coefficient movement
        details = {c.name: c.detail for c in res.checks}
        assert details["sensitivity[i=2]"].startswith("e_i 0 -> 0")


# (instance seed, i, depth_value, depth_exact) of every instance of
# run_random_sensitivity_suite(count=20, seed=S, d_max=6, depth_trials=64),
# recorded before depth judged monomial candidates by their support.
PINNED_DEPTHS = {
    4: [
        (506909419, 0, 3, True),
        (506909419, 1, 3, True),
        (506909419, 2, 3, True),
        (651328766, 0, 1, False),
        (651328766, 1, 1, True),
        (221547363, 0, 2, True),
        (221547363, 1, 2, True),
        (850528596, 0, 3, False),
        (850528596, 1, 3, True),
        (850528596, 2, 3, True),
        (850528596, 3, 3, True),
        (1028383521, 0, 4, True),
        (1028383521, 1, 4, True),
        (1028383521, 2, 4, True),
        (1028383521, 3, 4, True),
        (332800429, 0, 2, True),
        (332800429, 1, 2, True),
        (193488809, 0, 5, True),
        (193488809, 1, 5, True),
        (193488809, 2, 5, True),
        (193488809, 3, 5, True),
        (193488809, 4, 5, True),
    ],
    9: [
        (994300727, 0, 2, True),
        (994300727, 1, 2, True),
        (801681272, 0, 2, True),
        (801681272, 1, 2, True),
        (573666814, 0, 3, True),
        (573666814, 1, 3, True),
        (573666814, 2, 3, True),
        (297511125, 0, 2, True),
        (297511125, 1, 2, True),
        (399743235, 0, 3, True),
        (399743235, 1, 3, True),
        (399743235, 2, 3, True),
        (13819176, 0, 3, True),
        (13819176, 1, 3, True),
        (13819176, 2, 3, True),
        (726548507, 0, 0, False),
        (726548507, 1, 0, False),
        (995834408, 0, 1, False),
        (995834408, 1, 1, True),
        (173548139, 0, 4, True),
        (173548139, 1, 4, True),
        (173548139, 2, 4, True),
        (173548139, 3, 4, True),
    ],
}


class TestRandomSuite:
    @pytest.mark.parametrize("seed", sorted(PINNED_DEPTHS))
    def test_depth_certificates_pinned(self, seed):
        res = run_random_sensitivity_suite(count=20, seed=seed, d_max=6, depth_trials=64)
        got = [
            (x.seed, x.i, x.report.depth_value, x.report.depth_exact)
            for x in res.instances
        ]
        assert got == PINNED_DEPTHS[seed]

    def test_small_run_is_clean_and_deterministic(self):
        a = run_random_sensitivity_suite(count=6, seed=11)
        b = run_random_sensitivity_suite(count=6, seed=11)
        assert a == b
        assert a.ok
        assert not a.parity_failures
        assert not a.equivalence_failures

    def test_every_instance_is_parity_checked(self):
        res = run_random_sensitivity_suite(count=6, seed=3)
        assert len(res.instances) >= 6
        for inst in res.instances:
            assert inst.report.parity_ok
            assert 0 <= inst.report.i < inst.report.s

    def test_rejects_too_few_variables(self):
        with pytest.raises(ValueError):
            run_random_sensitivity_suite(count=1, d_max=2)
