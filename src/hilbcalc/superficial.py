"""Regularity, superficiality, ssop checks, and certified depth.

All predicates run through Hilbert series of linear-form quotients.
The load-bearing identity: for a linear form g on M = R/I,

    t * series(0 :_M g)  =  series(M/gM) - (1-t) * series(M)

so with both sides written over (1-t)^(d-1), the numerator of the
socle series is just  h_quotient - h_M.  Superficiality of g means
that difference has dimension <= 0, regularity means it vanishes,
and its e_0 is the correction length that shows up in the defect
formulas.  No colon Groebner bases on the hot path.  Every walk down
successive quotients is one QuotientChain, so a search step builds its
candidate's quotient once and keeps it when the candidate is accepted.
Cuts are memoised on (ideal, form) in a bounded LRU (CUT_MEMO_SIZE
entries), so the suites' repeated walks and the audit's re-walk of a
witness rebuild no quotient they cut recently.  The memo is keyed on
the scale-invariant ideal key, so an ideal that differs only by the
scale of its generators gets the quotient of the first one, which
differs from its own by the same scalars.

Positive claims (regular, superficial, certified sequences) are exact.
Negative claims that rest on exhausting random candidates are Monte
Carlo and say so in their certificates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional, Sequence

from hilbcalc.linalg import IntEchelon
from hilbcalc.monomial import monomials_of_degree
from hilbcalc.polyring import (
    LinearElimination,
    LinearForm,
    PolyIdeal,
    eliminate_form,
    form_combination,
    forms_independent,
)
from hilbcalc.presentation import CyclicModule, series_of_cyclic
from hilbcalc.series import (
    HilbertSeries,
    hilbert_coefficients,
    series_dimension,
)

DEFAULT_TRIALS = 32
DEFAULT_COEFF_BOUND = 5

CERTIFIED = "certified"
NOT_SSOP = "not-ssop"
PROBABLY_NOT_ADMISSIBLE = "probably-not-admissible"

STOP_DIMENSION_ZERO = "dimension-zero"
STOP_TRIALS_EXHAUSTED = "trials-exhausted"


@dataclass(frozen=True)
class SuperficialityReport:
    """Outcome of the finite-length test for one linear form.

    socle_length is ell(0 :_M g), present exactly when the form is
    superficial; colon_equal records (I : g) = I, i.e. regularity.
    """

    is_superficial: bool
    colon_equal: bool
    socle_length: Optional[int] = None

    def __post_init__(self) -> None:
        if self.is_superficial != (self.socle_length is not None):
            raise ValueError("socle_length present iff superficial")
        if self.colon_equal and self.socle_length != 0:
            raise ValueError("regular forms have empty socle")

    def __bool__(self) -> bool:
        return self.is_superficial


@dataclass(frozen=True)
class AdmissibilityCertificate:
    verdict: str
    witness: Optional[tuple[LinearForm, ...]]
    trials_used: int

    def __bool__(self) -> bool:
        return self.verdict == CERTIFIED


@dataclass(frozen=True)
class DepthCertificate:
    """A maximal chain of certified-regular linear forms.

    Every link is exact evidence (colon equality of series).  The claim
    that the chain is maximal is exact when stop_evidence is
    dimension-zero, Monte Carlo when candidates were merely exhausted.
    """

    depth: int
    chain: tuple[LinearForm, ...]
    stop_evidence: str
    failed_trials: int

    def __post_init__(self) -> None:
        if self.depth != len(self.chain):
            raise ValueError("depth must equal chain length")

    @property
    def is_exact(self) -> bool:
        return self.stop_evidence == STOP_DIMENSION_ZERO


# Searches and the audit walk the same (ideal, form) cuts again and again,
# and the repeats are close together.  At seed 1, 751 of 876 cuts repeat on
# the paper examples and 729 of 1707 on the random sweep; an LRU of 64
# catches 738 and 719 of them, 32 entries catch 696 and 714, 128 catch 751
# and 719.  Against 64 entries, 128 raised peak RSS by 0.3-0.4 MB and an
# unbounded memo raised the sweep's by 3 MB (12%).
CUT_MEMO_SIZE = 64


@lru_cache(maxsize=CUT_MEMO_SIZE)
def _cut(I: PolyIdeal, f: LinearForm) -> tuple[PolyIdeal, LinearElimination]:
    """I rewritten along f = 0, with the substitution used."""
    elim = eliminate_form(f)
    return elim.map_ideal(I), elim


def quotient_module(
    M: CyclicModule, f: LinearForm
) -> tuple[CyclicModule, LinearElimination]:
    """M/fM presented in one fewer variable, with the substitution used."""
    if f.nvars != M.ring_dim:
        raise ValueError("form lives in a different ring")
    ideal, elim = _cut(M.ideal, f)
    return CyclicModule(M.ring_dim - 1, ideal, M.shift), elim


@dataclass(frozen=True)
class QuotientChain:
    """The walk M -> M/f1M -> M/(f1,f2)M -> ... by linear forms.

    modules[k] is the quotient after k cuts, presented in k fewer
    variables with the shift of M carried; eliminations[k] is the
    substitution of cut k + 1.  Start one with QuotientChain((M,)).
    """

    modules: tuple[CyclicModule, ...]
    eliminations: tuple[LinearElimination, ...] = ()

    @property
    def last(self) -> CyclicModule:
        return self.modules[-1]

    def cut(self, f: LinearForm) -> "QuotientChain":
        """The chain one step longer, cut by a form of the last ring."""
        Q, elim = quotient_module(self.last, f)
        return QuotientChain(self.modules + (Q,), self.eliminations + (elim,))

    def push(self, f: LinearForm) -> Optional[LinearForm]:
        """A form of the first ring mapped into the last; None once it dies."""
        for elim in self.eliminations:
            f = elim.map_form(f)
            if f is None:
                return None
        return f

    def pull(self, f: LinearForm) -> LinearForm:
        """A form of the last ring lifted to the first, zero on the cut
        variables."""
        nums = list(f.nums)
        for elim in reversed(self.eliminations):
            nums.insert(elim.pivot, 0)
        return LinearForm.from_numerators(nums, f.den)


def _socle_cut(
    chain: QuotientChain, g: LinearForm
) -> tuple[HilbertSeries, QuotientChain]:
    """Socle series of g on the chain's last module, and the chain cut by g."""
    cut = chain.cut(g)
    h1 = series_of_cyclic(chain.last.drop_shift()).numerator
    h2 = series_of_cyclic(cut.last.drop_shift()).numerator
    return HilbertSeries(cut.last.ring_dim, h2 - h1), cut


def _superficiality(D: HilbertSeries) -> SuperficialityReport:
    """g is superficial iff its socle series D has dimension <= 0."""
    if D.is_zero:
        return SuperficialityReport(True, True, 0)
    if series_dimension(D) <= 0:
        return SuperficialityReport(True, False, hilbert_coefficients(D).e(0))
    return SuperficialityReport(False, False, None)


def socle_series(M: CyclicModule, g: LinearForm) -> HilbertSeries:
    """Series of (0 :_M g), up to one harmless degree shift."""
    return _socle_cut(QuotientChain((M,)), g)[0]


def is_superficial(M: CyclicModule, g: LinearForm) -> SuperficialityReport:
    """Finite-length test: g is superficial iff (0 :_M g) has dim <= 0."""
    return _superficiality(socle_series(M, g))


def is_regular(M: CyclicModule, f: LinearForm) -> bool:
    """True iff (I : f) = I, detected as a vanishing socle series."""
    return socle_series(M, f).is_zero


def superficial_chain(
    M: CyclicModule, gs: Sequence[LinearForm]
) -> tuple[tuple[SuperficialityReport, ...], tuple[CyclicModule, ...]]:
    """Run is_superficial along successive quotients by gs, in order.

    Forms are given in the ring of M; each is mapped through the earlier
    substitutions before testing.  Returns one report per form and the
    quotient modules after each step (shift carried along).  A form that
    dies on the way down acts as multiplication by zero, whose socle is
    the whole module; it is superficial only once the module has finite
    length.
    """
    chain = QuotientChain((M,))
    reports: list[SuperficialityReport] = []
    modules: list[CyclicModule] = []
    for f in gs:
        g = chain.push(f)
        if g is None:
            D = series_of_cyclic(chain.last.drop_shift())
        else:
            D, chain = _socle_cut(chain, g)
        reports.append(_superficiality(D))
        modules.append(chain.last)
    return tuple(reports), tuple(modules)


def is_ssop(M: CyclicModule, fs: Sequence[LinearForm]) -> bool:
    """True iff cutting by fs drops the dimension by len(fs).

    Forms that become zero along the way contribute no drop, so a
    dependent family can never pass.
    """
    if not fs:
        raise ValueError("need at least one form")
    S = series_of_cyclic(M)
    if S.is_zero:
        return False
    chain = QuotientChain((M,))
    for f in fs:
        g = chain.push(f)
        if g is not None:
            chain = chain.cut(g)
    return series_dimension(series_of_cyclic(chain.last)) == (
        series_dimension(S) - len(fs)
    )


def _combination_stream(
    k: int, rng: random.Random, bound: int
) -> Iterator[tuple[int, ...]]:
    """Coefficient vectors over a k-element basis: units, signed pairs,
    then unbounded random draws."""
    for j in range(k):
        yield tuple(1 if i == j else 0 for i in range(k))
    for a in range(k):
        for b in range(a + 1, k):
            for sb in (1, -1):
                yield tuple(
                    (1 if i == a else (sb if i == b else 0)) for i in range(k)
                )
    while True:
        c = tuple(rng.randint(-bound, bound) for _ in range(k))
        if any(c):
            yield c


def find_superficial_sequence(
    M: CyclicModule,
    fs: Sequence[LinearForm],
    seed: int = 0,
    trials: int = DEFAULT_TRIALS,
    bound: int = DEFAULT_COEFF_BOUND,
) -> AdmissibilityCertificate:
    """Certify fs admissible by exhibiting a superficial sequence with the
    same span, rebuilt one form at a time along the quotients.

    Every form in a returned witness is certified superficial on its
    quotient, which is exact; the probably-not-admissible verdict only
    says `trials` straight candidates failed at some step.
    """
    if bound < 1:
        raise ValueError("coefficient bound must be positive")
    fs = tuple(fs)
    if not fs:
        return AdmissibilityCertificate(CERTIFIED, (), 0)
    if not forms_independent(fs) or not is_ssop(M, fs):
        return AdmissibilityCertificate(NOT_SSOP, None, 0)
    rng = random.Random(seed)
    chain = QuotientChain((M.drop_shift(),))
    basis = list(fs)
    witness: list[LinearForm] = []
    used = 0
    for _ in range(len(fs)):
        failures = 0
        for coeffs in _combination_stream(len(basis), rng, bound):
            # basis and cut forms span fs independently, so w survives the push
            w = form_combination(coeffs, basis)
            D, cut = _socle_cut(chain, chain.push(w))
            if _superficiality(D):
                break
            failures += 1
            used += 1
            if failures >= trials:
                return AdmissibilityCertificate(PROBABLY_NOT_ADMISSIBLE, None, used)
        witness.append(w)
        dim_before = series_dimension(series_of_cyclic(chain.last))
        chain = cut
        if series_dimension(series_of_cyclic(chain.last)) != dim_before - 1:
            raise RuntimeError("superficial quotient failed to drop dimension")
        # retire the basis member the new form leans on hardest
        del basis[max(range(len(basis)), key=lambda j: (abs(coeffs[j]), j))]
    return AdmissibilityCertificate(CERTIFIED, tuple(witness), used)


def _screen(I: PolyIdeal) -> tuple[IntEchelon, int, list[list[int]]]:
    """Degree-two data for fast rejection of non-regular forms.

    A regular linear form f multiplies the degree-one part of R/I into
    degree two injectively; a rank drop there is certain evidence of a
    zerodivisor.  Passing the screen decides nothing.

    Returns (base, expected, cols).  base is an integer echelon over
    the degree-two monomials holding the degree-two part of I: the
    quadric generators and x_k*g for each linear generator g, each
    generator as its integer numerators.  The linear
    generators go into a second echelon of rank r, and expected = d - r
    is the dimension of the degree-one part of R/I, the rank the rows
    x_k*f must add to base.  cols[k][j] is the column of x_j*x_k.
    """
    d = I.ring_dim
    index = {m: j for j, m in enumerate(monomials_of_degree(d, 2))}
    cols = [
        [index[tuple((i == j) + (i == k) for i in range(d))] for j in range(d)]
        for k in range(d)
    ]
    base, lin = IntEchelon(), IntEchelon()
    for g in I.generators:
        dg = g.homogeneous_degree()
        if dg == 1:
            row = {m.index(1): c for m, c in g.nums.items()}
            for k in range(d):
                base.insert({cols[k][j]: c for j, c in row.items()})
            lin.insert(row)
        elif dg == 2:
            base.insert({index[m]: c for m, c in g.nums.items()})
    return base, d - lin.rank, cols


def _screen_passes(screen, f: LinearForm) -> bool:
    """True unless multiplication by f drops rank on the degree-one part.

    The rows x_k*f, from f's integer numerators, go into an overlay on
    the screen's base echelon; its own pivot count is the rank they add.
    """
    base, expected, cols = screen
    nonzero = [(j, c) for j, c in enumerate(f.nums) if c]
    overlay = IntEchelon(base)
    for col in cols:
        overlay.insert({col[j]: c for j, c in nonzero})
    return overlay.rank == expected


_DEPTH_CACHE: dict[tuple, DepthCertificate] = {}


def depth(
    M: CyclicModule,
    seed: int = 0,
    trials: int = DEFAULT_TRIALS,
    bound: int = DEFAULT_COEFF_BOUND,
) -> DepthCertificate:
    """Longest chain of certified-regular linear forms the search finds.

    Chain forms are reported in the ring of M; each was certified on the
    successive quotient, and those certifications are exact.  A nonzero
    module of dimension zero has no regular linear form at all, so the
    dimension-zero stop is exact as well; stopping on exhausted trials
    leaves open that a cleverer candidate exists.  The zero module stops
    at the dimension-zero terminal immediately.
    """
    if bound < 1:
        raise ValueError("coefficient bound must be positive")
    key = (M.key(), seed, trials, bound)
    hit = _DEPTH_CACHE.get(key)
    if hit is not None:
        return hit
    chain = QuotientChain((M.drop_shift(),))
    links: list[LinearForm] = []
    rng = random.Random(seed)
    while True:
        S = series_of_cyclic(chain.last)
        if S.is_zero or series_dimension(S) <= 0:
            cert = DepthCertificate(len(links), tuple(links), STOP_DIMENSION_ZERO, 0)
            break
        screen = _screen(chain.last.ideal)
        failures = 0
        found = None
        for coeffs in _combination_stream(chain.last.ring_dim, rng, bound):
            f = LinearForm(coeffs)
            if _screen_passes(screen, f):
                D, cut = _socle_cut(chain, f)
                if D.is_zero:
                    found = f
                    break
            failures += 1
            if failures >= trials:
                break
        if found is None:
            cert = DepthCertificate(
                len(links), tuple(links), STOP_TRIALS_EXHAUSTED, failures
            )
            break
        links.append(chain.pull(found))
        chain = cut
    _DEPTH_CACHE[key] = cert
    return cert
