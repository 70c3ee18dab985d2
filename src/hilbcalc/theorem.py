"""Depth sensitivity of Hilbert coefficients, verified on concrete modules.

The statement under test, for M of dimension s, an index 0 <= i < s,
and an admissible ssop f_1..f_{s-i} of linear forms:

    (1)  i even  implies  e_i(M) <= e_i(M/(f)M)
    (2)  i odd   implies  e_i(M) >= e_i(M/(f)M)
    (3)  equality holds  iff  depth M >= s - i

verify_depth_sensitivity walks the certified superficial chain, audits
the step-by-step coefficient bookkeeping that drives (1) and (2), and
compares the equality case against an independently computed depth.
The two hand-built module families at the bottom reproduce every
closed-form table the suites pin down.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from hilbcalc.monomial import monomial_divides
from hilbcalc.polyring import LinearForm, PolyIdeal
from hilbcalc.presentation import (
    COMPLETE_INTERSECTION_2,
    HILBERT_BURCH,
    HYPERSURFACE,
    SHIFTED_FREE,
    BadParams,
    CyclicModule,
    module_dimension,
    module_table,
    series_of_cyclic,
)
from hilbcalc.sampling import random_independent_forms, random_module
from hilbcalc.series import (
    CoefficientTable,
    IntPolynomial,
    combine,
    hilbert_coefficients,
    series_dimension,
)
from hilbcalc.superficial import (
    CERTIFIED,
    DEFAULT_TRIALS,
    AdmissibilityCertificate,
    depth,
    find_superficial_sequence,
    is_regular,
    is_ssop,
    is_superficial,
    quotient_module,
    superficial_chain,
)


class BadIndex(ValueError):
    """Index or sequence length incompatible with the module dimension."""


class NotAdmissible(ValueError):
    """Certification failed; carries the certificate that says why."""

    def __init__(self, certificate: AdmissibilityCertificate):
        super().__init__(f"admissibility not certified: {certificate.verdict}")
        self.certificate = certificate


@dataclass(frozen=True)
class DepthSensitivityReport:
    """Everything the three assertions say about one (M, fs, i) instance.

    depth_exact records whether the depth side of the equivalence is
    deterministic: it is when the depth certificate bottomed out at
    dimension zero, or when its chain already reaches s - i.
    """

    i: int
    s: int
    e_module: int
    e_quotient: int
    parity_ok: bool
    equality: bool
    depth_value: int
    depth_exact: bool
    equivalence_ok: bool
    defect_lengths: tuple[int, ...]

    @property
    def ok(self) -> bool:
        """Parity holds, and so does the equivalence unless the depth is
        only a lower bound, against which a miss proves nothing."""
        return self.parity_ok and (self.equivalence_ok or not self.depth_exact)


def verify_depth_sensitivity(
    M: CyclicModule,
    fs: Sequence[LinearForm],
    i: int,
    seed: int = 0,
    trials: int = DEFAULT_TRIALS,
    depth_trials: Optional[int] = None,
) -> DepthSensitivityReport:
    """Run all three assertions for one module, index, and ssop.

    The ssop is first certified admissible (NotAdmissible otherwise);
    quotients then follow the certified witness.  The internal
    bookkeeping identities (coefficient stability before the last step,
    telescoping of the final defect) are theorems for certified chains,
    so their failure raises rather than reports.  The depth search runs
    depth_trials candidates per step, trials when it is None.
    """
    if depth_trials is None:
        depth_trials = trials
    elif depth_trials < 1:
        raise ValueError(f"depth_trials must be at least 1, got {depth_trials}")
    S = series_of_cyclic(M)
    s = series_dimension(S)
    if not isinstance(s, int) or s < 1:
        raise BadIndex("module must have positive dimension")
    if not 0 <= i < s:
        raise BadIndex(f"index {i} outside 0 <= i < {s}")
    n = s - i
    fs = tuple(fs)
    if len(fs) != n:
        raise BadIndex(f"need exactly {n} forms, got {len(fs)}")
    certificate = find_superficial_sequence(M, fs, seed=seed, trials=trials)
    if certificate.verdict != CERTIFIED:
        raise NotAdmissible(certificate)
    reports, modules = superficial_chain(M, list(certificate.witness))
    if not all(r.is_superficial for r in reports):
        raise RuntimeError("certified witness failed its re-check")
    defects = tuple(r.socle_length for r in reports)
    e_module = hilbert_coefficients(S).e(i)
    tables = [module_table(Q) for Q in modules]
    for j in range(n - 1):
        if tables[j].e(i) != e_module:
            raise RuntimeError(
                f"e_{i} moved at step {j + 1}, before the final quotient"
            )
    e_quotient = tables[-1].e(i)
    if e_module - e_quotient != (-1) ** (i + 1) * defects[-1]:
        raise RuntimeError("final defect does not telescope")
    parity_ok = (e_module <= e_quotient) if i % 2 == 0 else (e_module >= e_quotient)
    equality = e_module == e_quotient
    depth_cert = depth(M, seed=seed, trials=depth_trials)
    deep_enough = depth_cert.depth >= n
    return DepthSensitivityReport(
        i=i,
        s=s,
        e_module=e_module,
        e_quotient=e_quotient,
        parity_ok=parity_ok,
        equality=equality,
        depth_value=depth_cert.depth,
        depth_exact=depth_cert.is_exact or deep_enough,
        equivalence_ok=equality == deep_enough,
        defect_lengths=defects,
    )


def _sensitivity_or_none(
    M: CyclicModule, fs: Sequence[LinearForm], i: int, seed: int, trials: int
) -> Optional[DepthSensitivityReport]:
    """verify_depth_sensitivity's report, or None when fs is not certified
    admissible: the suites record that as a failed check."""
    try:
        return verify_depth_sensitivity(M, fs, i, seed=seed, trials=trials)
    except NotAdmissible:
        return None


def _sensitivity_detail(rep: Optional[DepthSensitivityReport]) -> str:
    if rep is None:
        return "not certified admissible"
    return f"e_i {rep.e_module} -> {rep.e_quotient}, defects {rep.defect_lengths}"


# ---------------------------------------------------------------------------
# the two hand-built families behind the golden tables


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class SuiteResult:
    name: str
    params: tuple[tuple[str, int], ...]
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def _variable_form(d: int, index: int) -> LinearForm:
    return LinearForm([int(k == index) for k in range(d)])


def _degree_one_socle_witness(I: PolyIdeal, index: int) -> bool:
    """Exactly check that variable `index` is a nonzero socle element of
    R/I, for monomial I: the variable is outside I but every product
    with a variable falls in."""
    d = I.ring_dim
    gens = I.monomial_exponents()
    v = tuple(1 if k == index else 0 for k in range(d))
    if any(monomial_divides(g, v) for g in gens):
        return False
    for k in range(d):
        prod = tuple(v[j] + (1 if j == k else 0) for j in range(d))
        if not any(monomial_divides(g, prod) for g in gens):
            return False
    return True


def maximal_times_prime_module(d: int, s: int) -> CyclicModule:
    """R/(m p) where m is the maximal ideal and p is generated by the
    first d-s variables; dimension s, depth 0."""
    if not 0 < s < d:
        raise BadParams("need 0 < s < d")
    gens = []
    for a in range(d - s):
        for b in range(a, d):
            e = [0] * d
            e[a] += 1
            e[b] += 1
            gens.append(tuple(e))
    return CyclicModule(d, PolyIdeal._of_monomials(d, gens))


def maximal_times_prime_table(d: int, s: int) -> CoefficientTable:
    """Closed-form table: numerator of the h-polynomial 1 + (d-s)t(1-t)^s."""
    if s < 0 or d < s:
        raise BadParams("need 0 <= s <= d")
    poly = IntPolynomial.one() + (d - s) * IntPolynomial.t_power(1).times_one_minus_t(s)
    return CoefficientTable(s, poly.taylor_at_one())


def run_maximal_times_prime_suite(
    d: int, s: int, seed: int = 0, trials: int = DEFAULT_TRIALS
) -> SuiteResult:
    """All published facts about R/(m p): table, depth, superficial
    sequences, quotient tables, and the sensitivity statement at every
    admissible index."""
    M = maximal_times_prime_module(d, s)
    checks: list[CheckResult] = []

    T = module_table(M)
    expected = maximal_times_prime_table(d, s)
    spot = (
        T.e(0) == 1
        and all(T.e(j) == 0 for j in range(1, s))
        and T.e(s) == (-1) ** s * (d - s)
    )
    checks.append(
        CheckResult("table", T == expected and spot, f"got {T.coeffs}")
    )

    checks.append(
        CheckResult(
            "depth-zero-witness",
            _degree_one_socle_witness(M.ideal, 0),
            "first variable must be killed by every variable",
        )
    )
    cert = depth(M, seed=seed, trials=trials)
    checks.append(CheckResult("depth-certificate", cert.depth == 0, str(cert.depth)))

    for i in range(s):
        fs = [_variable_form(d, k) for k in range(d - s + i, d)]
        checks.append(CheckResult(f"ssop[i={i}]", is_ssop(M, fs)))
        reports, modules = superficial_chain(M, fs)
        checks.append(
            CheckResult(
                f"verbatim-superficial[i={i}]",
                all(r.is_superficial for r in reports),
            )
        )
        QT = module_table(modules[-1])
        expected_q = maximal_times_prime_table(d - (s - i), i)
        checks.append(
            CheckResult(
                f"quotient-table[i={i}]", QT == expected_q, f"got {QT.coeffs}"
            )
        )
        rep = _sensitivity_or_none(M, fs, i, seed, trials)
        ok = (
            rep is not None
            and rep.parity_ok
            and rep.equivalence_ok
            and not rep.equality
            and rep.defect_lengths == (d - s,) * (s - i)
        )
        checks.append(CheckResult(f"sensitivity[i={i}]", ok, _sensitivity_detail(rep)))
    return SuiteResult(
        "maximal-times-prime", (("d", d), ("s", s)), tuple(checks)
    )


def two_prime_product_module(r: int, s: int) -> CyclicModule:
    """R/(p q) on s+r variables, p the x-block and q the y-block;
    dimension s, depth 1."""
    if not 0 < r < s:
        raise BadParams("need 0 < r < s")
    d = r + s
    gens = []
    for i in range(s):
        for j in range(r):
            e = [0] * d
            e[i] += 1
            e[s + j] += 1
            gens.append(tuple(e))
    return CyclicModule(d, PolyIdeal._of_monomials(d, gens))


def two_prime_product_table(r: int, s: int) -> CoefficientTable:
    """Closed-form table from the h-polynomial (1-t)^(s-r) + 1 - (1-t)^s."""
    if not 0 < r < s:
        raise BadParams("need 0 < r < s")
    poly = (
        IntPolynomial.one().times_one_minus_t(s - r)
        + IntPolynomial.one()
        - IntPolynomial.one().times_one_minus_t(s)
    )
    return CoefficientTable(s, poly.taylor_at_one())


def _diagonal_form(r: int, s: int, j: int) -> LinearForm:
    """z_j = y_j - x_j, 1-based j <= r."""
    d = r + s
    coeffs = [0] * d
    coeffs[j - 1] = -1
    coeffs[s + j - 1] = 1
    return LinearForm(coeffs)


def _cross_expansion_table(r: int, s: int, i: int) -> CoefficientTable:
    """Quotient table for s-r < i < s, read off a second in-source
    expansion of the quotient's h-polynomial in powers of (t-1)."""
    coeffs = [0] * (i + 2)
    coeffs[0] = 1
    coeffs[s - r] = (-1) ** (s - r)
    coeffs[i] += (-1) ** i * (s - 1 - i)
    coeffs[i + 1] = (-1) ** i * (s - i)
    return CoefficientTable(i, tuple(coeffs))


def run_two_prime_product_suite(
    r: int, s: int, seed: int = 0, trials: int = DEFAULT_TRIALS
) -> SuiteResult:
    """All published facts about R/(p q), both index branches."""
    M = two_prime_product_module(r, s)
    d = r + s
    checks: list[CheckResult] = []

    checks.append(
        CheckResult("dimension", module_dimension(M) == s, str(module_dimension(M)))
    )
    T = module_table(M)
    expected = two_prime_product_table(r, s)
    spot = (
        T.e(0) == 1
        and T.e(s - r) == (-1) ** (s - r)
        and T.e(s) == (-1) ** (s + 1)
        and all(T.e(j) == 0 for j in range(1, s) if j != s - r)
    )
    checks.append(CheckResult("table", T == expected and spot, f"got {T.coeffs}"))

    # inclusion-exclusion over the two primes
    SM = series_of_cyclic(M)
    Sp = series_of_cyclic(
        CyclicModule(d, PolyIdeal._of_monomials(d, [tuple(1 if k == i else 0 for k in range(d)) for i in range(s)]))
    )
    Sq = series_of_cyclic(
        CyclicModule(d, PolyIdeal._of_monomials(d, [tuple(1 if k == s + j else 0 for k in range(d)) for j in range(r)]))
    )
    Sm = series_of_cyclic(
        CyclicModule(d, PolyIdeal._of_monomials(d, [tuple(1 if k == i else 0 for k in range(d)) for i in range(d)]))
    )
    residue = combine([(1, SM), (-1, Sp), (-1, Sq), (1, Sm)])
    checks.append(CheckResult("inclusion-exclusion", residue.is_zero))

    cert = depth(M, seed=seed, trials=trials)
    checks.append(CheckResult("depth-certificate", cert.depth == 1, str(cert.depth)))
    z1 = _diagonal_form(r, s, 1)
    Q1, _ = quotient_module(M, z1)
    checks.append(
        CheckResult(
            "depth-upper-witness",
            is_regular(M, z1) and _degree_one_socle_witness(Q1.ideal, 0),
            "z_1 regular, then the first variable is socle",
        )
    )

    # below s - r the chain leads with the variables x_(r+i)..x_(s-1),
    # which are not superficial; from s - r on it is z_j alone
    for i in range(s):
        fs = [_variable_form(d, k) for k in range(r + i, s)]
        fs += [_diagonal_form(r, s, j) for j in range(max(1, r - s + i + 1), r + 1)]
        if i < s - r:
            checks.append(
                CheckResult(
                    f"leading-form-not-superficial[i={i}]",
                    not is_superficial(M, fs[0]).is_superficial,
                )
            )
        rep = _sensitivity_or_none(M, fs, i, seed, trials)
        checks.append(CheckResult(f"certified[i={i}]", rep is not None))
        _, modules = superficial_chain(M, fs)
        QT = module_table(modules[-1])
        if i == 0:
            want = r + 1
        else:
            want = (-1) ** i * (r if i <= s - r else s - 1 - i)
        checks.append(
            CheckResult(f"quotient-value[i={i}]", QT.e(i) == want, str(QT.e(i)))
        )
        if i == s - r:
            # the full z-quotient collapses onto the other family
            iso = maximal_times_prime_table(s, s - r)
            checks.append(
                CheckResult(
                    f"quotient-isomorphic-family[i={i}]",
                    QT == iso,
                    f"got {QT.coeffs}",
                )
            )
        elif i > s - r:
            cross = _cross_expansion_table(r, s, i)
            checks.append(
                CheckResult(
                    f"cross-expansion[i={i}]", QT == cross, f"got {QT.coeffs}"
                )
            )
        checks.append(
            CheckResult(
                f"sensitivity[i={i}]",
                rep is not None
                and rep.parity_ok
                and rep.equivalence_ok
                and rep.equality == (i == s - 1)
                and rep.depth_value == 1,
                _sensitivity_detail(rep),
            )
        )
    return SuiteResult("two-prime-product", (("r", r), ("s", s)), tuple(checks))


# ---------------------------------------------------------------------------
# the builtin catalogue, in report order: `hilbcalc paper-examples`,
# scripts/paper_tables.py and the acceptance tests all read these

# (case, params) of every closed-form resolution family cell
RESOLUTION_FAMILY_CELLS: tuple[tuple[str, dict[str, int]], ...] = (
    *((SHIFTED_FREE, {"d": 6, "r": r}) for r in range(9)),
    *((HYPERSURFACE, {"d": 6, "k": k}) for k in range(1, 9)),
    *(
        (COMPLETE_INTERSECTION_2, {"d": 6, "k": k, "l": l})
        for k in range(1, 9)
        for l in range(1, 9)
    ),
    *((HILBERT_BURCH, {"d": 6, "m": m}) for m in range(1, 7)),
)
# (d, s) with 0 < s < d <= 6
MAXIMAL_TIMES_PRIME_CELLS = tuple((d, s) for d in range(2, 7) for s in range(1, d))
# (r, s) with 0 < r < s <= 5
TWO_PRIME_PRODUCT_CELLS = tuple((r, s) for s in range(2, 6) for r in range(1, s))


# ---------------------------------------------------------------------------
# randomized instances


@dataclass(frozen=True)
class RandomInstance:
    seed: int
    ring_dim: int
    generator_exponents: tuple
    i: int
    report: DepthSensitivityReport


@dataclass(frozen=True)
class RandomSuiteResult:
    instances: tuple[RandomInstance, ...]
    attempts: int
    skipped_uncertified: int

    @property
    def parity_failures(self) -> tuple[RandomInstance, ...]:
        return tuple(x for x in self.instances if not x.report.parity_ok)

    @property
    def equivalence_failures(self) -> tuple[RandomInstance, ...]:
        """Exact-depth instances where the equivalence broke: hard evidence."""
        return tuple(
            x
            for x in self.instances
            if not x.report.equivalence_ok and x.report.depth_exact
        )

    @property
    def equivalence_warnings(self) -> tuple[RandomInstance, ...]:
        """Instances where the equivalence broke but depth was only
        bounded probabilistically; suspicious, not disproof."""
        return tuple(
            x
            for x in self.instances
            if not x.report.equivalence_ok and not x.report.depth_exact
        )

    @property
    def ok(self) -> bool:
        return all(x.report.ok for x in self.instances)


def run_random_sensitivity_suite(
    count: int = 50,
    seed: int = 0,
    d_max: int = 4,
    depth_trials: int = 64,
) -> RandomSuiteResult:
    """Seeded random modules of dimension >= 2 put through the full
    verification at every legal index; parity is a hard property, the
    equivalence carries the depth certificate's caveat.

    One instance is one verified (module, ssop, index) triple; each
    sampled module contributes all of its indices, so the result may
    slightly overshoot count.
    """
    if d_max < 3:
        raise ValueError("dimension >= 2 needs at least 3 variables")
    rng = random.Random(seed)
    instances: list[RandomInstance] = []
    attempts = 0
    skipped = 0
    while len(instances) < count:
        attempts += 1
        instance_seed = rng.randrange(2**30)
        local = random.Random(instance_seed)
        dim_ring = local.randint(3, d_max)
        M = random_module(local, dim_ring, min_dim=2)
        s = module_dimension(M)
        for i in range(s):
            fs = None
            for _ in range(25):
                candidate = random_independent_forms(local, dim_ring, s - i)
                if is_ssop(M, candidate):
                    fs = candidate
                    break
            if fs is None:
                skipped += 1
                continue
            try:
                report = verify_depth_sensitivity(
                    M, fs, i, seed=instance_seed, depth_trials=depth_trials
                )
            except NotAdmissible:
                skipped += 1
                continue
            instances.append(
                RandomInstance(
                    seed=instance_seed,
                    ring_dim=dim_ring,
                    generator_exponents=tuple(sorted(M.ideal.monomial_exponents())),
                    i=i,
                    report=report,
                )
            )
    return RandomSuiteResult(tuple(instances), attempts, skipped)
