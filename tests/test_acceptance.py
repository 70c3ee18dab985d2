"""Acceptance gate: the eight end-to-end claims, each timed and printed.

Run with -s to see the per-criterion lines as they pass.
"""

import random
import time
from functools import lru_cache

from hilbcalc.oracle import verify_series
from hilbcalc.presentation import (
    COMPLETE_INTERSECTION_2,
    HILBERT_BURCH,
    HYPERSURFACE,
    SHIFTED_FREE,
    CyclicModule,
    closed_form_family,
    determinantal_check_module,
    module_dimension,
    module_table,
    series_of_cyclic,
    series_of_resolution,
)
from hilbcalc.sampling import random_monomial_ideal
from hilbcalc.series import (
    HilbertSeries,
    binomial,
    expand,
    hilbert_coefficients,
    series_dimension,
    shift,
)
from hilbcalc.theorem import (
    MAXIMAL_TIMES_PRIME_CELLS,
    RESOLUTION_FAMILY_CELLS,
    TWO_PRIME_PRODUCT_CELLS,
    maximal_times_prime_module,
    run_maximal_times_prime_suite,
    run_random_sensitivity_suite,
    run_two_prime_product_suite,
    two_prime_product_module,
)
from test_series import (
    reference_partial_sum,
    reference_partial_sum_threshold,
    reference_regular_quotient_coeffs,
    relative_coefficients_align,
)

# shifted free modules beyond the catalogue's r <= 8, for the binomial tables
EXTRA_FREE_SHIFTS = (9, 10)


def _report(number: int, label: str, ok: bool, elapsed: float, cap: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {verdict} - {label} ({elapsed:.2f}s < {cap:.0f}s)")


@lru_cache(maxsize=1)
def _random_modules() -> tuple[CyclicModule, ...]:
    rng = random.Random(0)
    out = []
    for _ in range(100):
        d = rng.randint(1, 4)
        out.append(CyclicModule(d, random_monomial_ideal(rng, d)))
    return tuple(out)


def _family_instances(case: str):
    """The catalogue's instances of one resolution family, plus the
    shifted-free extras."""
    params = [p for c, p in RESOLUTION_FAMILY_CELLS if c == case]
    if case == SHIFTED_FREE:
        params += [{"d": 6, "r": r} for r in EXTRA_FREE_SHIFTS]
    return [closed_form_family(case, **p) for p in params]


@lru_cache(maxsize=1)
def _series_inventory() -> tuple[tuple[str, HilbertSeries], ...]:
    """Every module the concrete criteria touch, as (label, series)."""
    out: list[tuple[str, HilbertSeries]] = [
        (f"{inst.case}{dict(inst.params)}", series_of_resolution(inst.presentation))
        for case in (SHIFTED_FREE, HYPERSURFACE, COMPLETE_INTERSECTION_2, HILBERT_BURCH)
        for inst in _family_instances(case)
    ]
    out.append(("minors", series_of_cyclic(determinantal_check_module())))
    out += [
        (f"mp[d={d},s={s}]", series_of_cyclic(maximal_times_prime_module(d, s)))
        for d, s in MAXIMAL_TIMES_PRIME_CELLS
    ]
    out += [
        (f"pq[r={r},s={s}]", series_of_cyclic(two_prime_product_module(r, s)))
        for r, s in TWO_PRIME_PRODUCT_CELLS
    ]
    for idx, M in enumerate(_random_modules()):
        out.append((f"random[{idx}]", series_of_cyclic(M)))
    return tuple(out)


def test_1_shifted_free_tables():
    t0 = time.perf_counter()
    ok = True
    for inst in _family_instances(SHIFTED_FREE):
        r = dict(inst.params)["r"]
        T = hilbert_coefficients(series_of_resolution(inst.presentation))
        ok = ok and T == inst.expected
        for i in range(11):
            ok = ok and T.e(i) == binomial(r, i)
    elapsed = time.perf_counter() - t0
    _report(1, "shifted free modules match binomial tables", ok, elapsed, 1)
    assert ok
    assert elapsed < 1


def test_2_hypersurface_and_complete_intersection_tables():
    t0 = time.perf_counter()
    ok = True
    for inst in _family_instances(HYPERSURFACE):
        k = dict(inst.params)["k"]
        T = hilbert_coefficients(series_of_resolution(inst.presentation))
        ok = ok and T == inst.expected
        ok = ok and tuple(T.coeffs) == tuple(binomial(k, i + 1) for i in range(k))
    for inst in _family_instances(COMPLETE_INTERSECTION_2):
        params = dict(inst.params)
        k, l = params["k"], params["l"]
        T = hilbert_coefficients(series_of_resolution(inst.presentation))
        difference = tuple(
            binomial(k + l, i + 2) - binomial(k, i + 2) - binomial(l, i + 2)
            for i in range(k + l - 1)
        )
        convolution = tuple(
            sum(binomial(k, j + 1) * binomial(l, i - j + 1) for j in range(i + 1))
            for i in range(k + l - 1)
        )
        ok = ok and T == inst.expected
        ok = ok and tuple(T.coeffs) == difference
        ok = ok and difference == convolution
    elapsed = time.perf_counter() - t0
    _report(
        2,
        "hypersurface and codim-2 complete intersection closed forms agree",
        ok,
        elapsed,
        2,
    )
    assert ok
    assert elapsed < 2


def test_3_determinantal_tables_and_minors_pipeline():
    t0 = time.perf_counter()
    ok = True
    for inst in _family_instances(HILBERT_BURCH):
        m = dict(inst.params)["m"]
        T = hilbert_coefficients(series_of_resolution(inst.presentation))
        formula = tuple((i + 1) * binomial(m + 1, i + 2) for i in range(m))
        ok = ok and T == inst.expected
        ok = ok and tuple(T.coeffs) == formula
    minors = determinantal_check_module()
    ok = ok and module_dimension(minors) == 1
    expected = closed_form_family(HILBERT_BURCH, d=3, m=2).expected
    ok = ok and module_table(minors) == expected
    elapsed = time.perf_counter() - t0
    _report(
        3,
        "determinantal resolutions and the concrete minors pipeline match",
        ok,
        elapsed,
        10,
    )
    assert ok
    assert elapsed < 10


def test_4_maximal_times_prime_suite():
    t0 = time.perf_counter()
    ok = True
    for d, s in MAXIMAL_TIMES_PRIME_CELLS:
        suite = run_maximal_times_prime_suite(d, s)
        ok = ok and suite.ok
        covered = sum(1 for c in suite.checks if c.name.startswith("sensitivity[i="))
        ok = ok and covered == s
    elapsed = time.perf_counter() - t0
    _report(
        4,
        "product-with-maximal-ideal family verified at every index",
        ok,
        elapsed,
        60,
    )
    assert ok
    assert elapsed < 60


def test_5_two_prime_product_suite():
    t0 = time.perf_counter()
    ok = True
    for r, s in TWO_PRIME_PRODUCT_CELLS:
        suite = run_two_prime_product_suite(r, s)
        ok = ok and suite.ok
        covered = sum(1 for c in suite.checks if c.name.startswith("sensitivity[i="))
        ok = ok and covered == s
    elapsed = time.perf_counter() - t0
    _report(
        5,
        "two-prime-product family verified on both index branches",
        ok,
        elapsed,
        120,
    )
    assert ok
    assert elapsed < 120


def test_6_series_against_dimension_oracle():
    t0 = time.perf_counter()
    ok = True
    for M in _random_modules():
        check = verify_series(M, max_degree=12)
        ok = ok and check.ok
    elapsed = time.perf_counter() - t0
    _report(
        6,
        "100 random monomial quotients match brute-force dimensions",
        ok,
        elapsed,
        60,
    )
    assert ok
    assert elapsed < 60


def test_7_coefficient_identities_across_inventory():
    t0 = time.perf_counter()
    ok = True
    for label, S in _series_inventory():
        T = hilbert_coefficients(S)
        d = S.ambient_dim
        s = series_dimension(S)
        codim = d - s
        ok = ok and relative_coefficients_align(S, codim + len(T.coeffs) + 3)
        for r in range(11):
            Tr = hilbert_coefficients(shift(S, r))
            for i in range(len(Tr.coeffs) + 2):
                ok = ok and Tr.e(i) == sum(
                    binomial(r, j) * T.e(i - j) for j in range(i + 1)
                )
        if isinstance(s, int) and s >= 1:
            for k in range(1, 6):
                quotient = HilbertSeries(
                    d, S.numerator - S.numerator.times_t_power(k)
                )
                ok = ok and hilbert_coefficients(
                    quotient
                ) == reference_regular_quotient_coeffs(T, k)
        threshold = reference_partial_sum_threshold(S)
        for n in range(max(threshold, 0), threshold + 21):
            ok = ok and sum(expand(S, n)) == reference_partial_sum(T, n)
        assert ok, f"identity failure at {label}"
    elapsed = time.perf_counter() - t0
    _report(
        7,
        "coefficient identities hold across the full module inventory",
        ok,
        elapsed,
        30,
    )
    assert ok
    assert elapsed < 30


def test_8_randomized_depth_sensitivity():
    t0 = time.perf_counter()
    result = run_random_sensitivity_suite(count=50, seed=0, depth_trials=64)
    ok = (
        len(result.instances) >= 50
        and not result.parity_failures
        and not result.equivalence_failures
    )
    elapsed = time.perf_counter() - t0
    warnings = len(result.equivalence_warnings)
    label = "randomized instances: parity exact, equivalence clean"
    if warnings:
        label += f" ({warnings} probabilistic caveats)"
    _report(8, label, ok, elapsed, 600)
    assert ok
    assert elapsed < 600
