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
Cuts are cached on (ideal, form) in a bounded LRU (CUT_MEMO_SIZE
entries), so the suites' repeated walks and the audit's re-walk of a
witness rebuild no quotient they cut recently.  An entry is the whole
step: the quotient, the substitution, and the step's socle series and
its superficiality verdict, each worked out the first time it is read.
A chain carries the entries of its cuts, so a repeated step costs one
lookup, and cuts that need only the quotient (`is_ssop`,
`quotient_module`) build no series.  Depth certificates are cached,
unbounded, on (module, seed, trials), with the shift dropped, so every
shift of one quotient shares one search.  Both are `functools` caches
keyed on the values themselves: an ideal keeps its generators in normal
form, so a hit returns what an uncached call would build.

On a monomial ideal I, depth judges a candidate by its support alone.
The zerodivisors on R/I are the union of its associated primes, and each
of those is generated by variables, (x_i : i in S) (Herzog and Hibi,
Monomial Ideals, ch. 1).  A linear form lies in (x_i : i in S) exactly
when its support {i : f_i != 0} is a subset of S.  So f is a zerodivisor
iff its support is, and a zerodivisor support stays one on every nonempty
subset: once a candidate is proven a zerodivisor, later candidates whose
support lies inside its support fail with no cut.

Positive claims (regular, superficial, certified sequences) are exact.
Negative claims that rest on exhausting random candidates are Monte
Carlo and say so in their certificates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from typing import Iterator, Optional, Sequence

from hilbcalc.linalg import IntEchelon, macaulay_echelons, monomial_packing
from hilbcalc.polyring import (
    LinearElimination,
    LinearForm,
    PolyIdeal,
    eliminate_form,
    form_combination,
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
# and the repeats are close together.  At corpus seed 1, 741 of 866 cuts
# repeat on the paper examples and 676 of 1160 on the random sweep; an LRU
# of 64 catches 728 and 666 of them, 32 entries catch 686 and 666, 128
# catch 741 and 669.  A miss also rebuilds the step's socle series.  Peak
# RSS at that seed (one process per run) reads 23.9 MB on the paper
# examples at every size, and 23.0, 23.1, 23.2 and 23.5 MB on the sweep at
# 32, 64 and 128 entries and unbounded; entries that hold their socle
# series moved neither by more than 0.1 MB.
CUT_MEMO_SIZE = 64


@dataclass(eq=False)
class _Step:
    """One entry of the cut memo: the ideal I cut along f = 0, the
    substitution used, and, on first read, the socle series D = h(I') -
    h(I) of f on R/I and its verdict.  Both depend on (I, f) alone, so
    every walk that takes the step shares them; a walk that reads only
    the quotient builds no series."""

    source: PolyIdeal
    ideal: PolyIdeal
    elim: LinearElimination

    @cached_property
    def socle(self) -> HilbertSeries:
        d = self.source.ring_dim
        h1 = series_of_cyclic(CyclicModule(d, self.source)).numerator
        h2 = series_of_cyclic(CyclicModule(d - 1, self.ideal)).numerator
        return HilbertSeries(d - 1, h2 - h1)

    @cached_property
    def report(self) -> SuperficialityReport:
        return _superficiality(self.socle)


@lru_cache(maxsize=CUT_MEMO_SIZE)
def _cut(I: PolyIdeal, f: LinearForm) -> _Step:
    """The memo entry of I cut along f = 0."""
    elim = eliminate_form(f)
    return _Step(I, elim.map_ideal(I), elim)


def quotient_module(
    M: CyclicModule, f: LinearForm
) -> tuple[CyclicModule, LinearElimination]:
    """M/fM presented in one fewer variable, with the substitution used."""
    if f.nvars != M.ring_dim:
        raise ValueError("form lives in a different ring")
    step = _cut(M.ideal, f)
    return CyclicModule(M.ring_dim - 1, step.ideal, M.shift), step.elim


@dataclass(frozen=True)
class QuotientChain:
    """The walk M -> M/f1M -> M/(f1,f2)M -> ... by linear forms.

    modules[k] is the quotient after k cuts, presented in k fewer
    variables with the shift of M carried; steps[k] is the cut memo's
    entry for cut k + 1, which holds its substitution, socle series and
    verdict.  Start one with QuotientChain((M,)).
    """

    modules: tuple[CyclicModule, ...]
    steps: tuple[_Step, ...] = ()

    @property
    def last(self) -> CyclicModule:
        return self.modules[-1]

    def cut(self, f: LinearForm) -> "QuotientChain":
        """The chain one step longer, cut by a form of the last ring; its
        entry is the one `quotient_module` has just read."""
        Q, _ = quotient_module(self.last, f)
        step = _cut(self.last.ideal, f)
        return QuotientChain(self.modules + (Q,), self.steps + (step,))

    def push(self, f: LinearForm) -> Optional[LinearForm]:
        """A form of the first ring mapped into the last; None once it dies."""
        for step in self.steps:
            f = step.elim.map_form(f)
            if f is None:
                return None
        return f

    def pull(self, f: LinearForm) -> LinearForm:
        """A form of the last ring lifted to the first, zero on the cut
        variables."""
        nums = list(f.nums)
        for step in reversed(self.steps):
            nums.insert(step.elim.pivot, 0)
        return LinearForm.from_numerators(nums, f.den)


def _superficiality(D: HilbertSeries) -> SuperficialityReport:
    """g is superficial iff its socle series D has dimension <= 0."""
    if D.is_zero:
        return SuperficialityReport(True, True, 0)
    if series_dimension(D) <= 0:
        return SuperficialityReport(True, False, hilbert_coefficients(D).e(0))
    return SuperficialityReport(False, False, None)


def socle_series(M: CyclicModule, g: LinearForm) -> HilbertSeries:
    """Series of (0 :_M g), up to one harmless degree shift."""
    return QuotientChain((M,)).cut(g).steps[-1].socle


def is_superficial(M: CyclicModule, g: LinearForm) -> SuperficialityReport:
    """Finite-length test: g is superficial iff (0 :_M g) has dim <= 0."""
    return QuotientChain((M,)).cut(g).steps[-1].report


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
            report = _superficiality(series_of_cyclic(chain.last.drop_shift()))
        else:
            chain = chain.cut(g)
            report = chain.steps[-1].report
        reports.append(report)
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
    k: int, rng: random.Random, trials: int
) -> Iterator[tuple[int, ...]]:
    """Coefficient vectors over a k-element basis: the k units, the
    k(k - 1) signed pairs, then `trials` nonzero random draws with entries
    in [-DEFAULT_COEFF_BOUND, DEFAULT_COEFF_BOUND], and no more."""
    for j in range(k):
        yield tuple(1 if i == j else 0 for i in range(k))
    for a in range(k):
        for b in range(a + 1, k):
            for sb in (1, -1):
                yield tuple(
                    (1 if i == a else (sb if i == b else 0)) for i in range(k)
                )
    while trials:
        c = tuple(rng.randint(-DEFAULT_COEFF_BOUND, DEFAULT_COEFF_BOUND) for _ in range(k))
        if any(c):
            trials -= 1
            yield c


def find_superficial_sequence(
    M: CyclicModule, fs: Sequence[LinearForm], seed: int = 0, trials: int = DEFAULT_TRIALS
) -> AdmissibilityCertificate:
    """Certify fs admissible by exhibiting a superficial sequence with the
    same span, rebuilt one form at a time along the quotients.

    Candidates at each step are combinations of the remaining basis forms
    from `_combination_stream`.  Every form in a returned witness is
    certified superficial on its quotient, which is exact; the
    probably-not-admissible verdict only says every candidate of some step
    failed.  trials_used counts the rejected candidates of all steps, and
    trials below 1 raise ValueError.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    fs = tuple(fs)
    if not fs:
        return AdmissibilityCertificate(CERTIFIED, (), 0)
    if not is_ssop(M, fs):
        return AdmissibilityCertificate(NOT_SSOP, None, 0)
    rng = random.Random(seed)
    chain = QuotientChain((M.drop_shift(),))
    basis = list(fs)
    witness: list[LinearForm] = []
    used = 0
    for _ in range(len(fs)):
        for coeffs in _combination_stream(len(basis), rng, trials):
            # basis and cut forms span fs independently, so w survives the push
            w = form_combination(coeffs, basis)
            cut = chain.cut(chain.push(w))
            if cut.steps[-1].report:
                break
            used += 1
        else:
            return AdmissibilityCertificate(PROBABLY_NOT_ADMISSIBLE, None, used)
        witness.append(w)
        dim_before = series_dimension(series_of_cyclic(chain.last))
        chain = cut
        if series_dimension(series_of_cyclic(chain.last)) != dim_before - 1:
            raise RuntimeError("superficial quotient failed to drop dimension")
        # retire the basis member the new form leans on hardest
        del basis[max(range(len(basis)), key=lambda j: (abs(coeffs[j]), j))]
    return AdmissibilityCertificate(CERTIFIED, tuple(witness), used)


def _screen(I: PolyIdeal) -> tuple[IntEchelon, int, list[int], bool]:
    """Degree-two data for fast rejection of non-regular forms.

    A regular linear form f multiplies the degree-one part of R/I into
    degree two injectively; a rank drop there is certain evidence of a
    zerodivisor.  Passing the screen decides nothing.

    Returns (base, expected, steps, unit_rows).  The rows come from the
    oracle's Macaulay walk to degree two: base is its degree-two echelon,
    the degree-two part of I, and expected = d - rank(I_1) = dim (R/I)_1
    is the rank the rows x_k*f must add.  The column of x_j*x_k is
    steps[j] + steps[k], from monomial_packing(d, 2).  unit_rows says
    that every pivot row of base has a single entry, as on a monomial I:
    base then spans the unit vectors of its pivot columns, and
    `_screen_passes` deletes those columns instead of reducing against
    the rows.
    """
    d = I.ring_dim
    _, linear, base = macaulay_echelons(d, I.generators, 2)
    unit_rows = all(len(row) == 1 for row in base.pivots.values())
    return base, d - linear.rank, monomial_packing(d, 2)[0], unit_rows


def _screen_passes(screen, f: LinearForm) -> bool:
    """True unless multiplication by f drops rank on the degree-one part.

    The rows x_k*f are built from f's integer numerators.  On a base of
    single-entry rows, the rank they add is their rank with the base's
    columns deleted, taken in a fresh echelon.  Otherwise they go into a
    copy of the base echelon, and what the copy's rank gains is the rank
    they add.
    """
    base, expected, steps, unit_rows = screen
    nonzero = [(s, c) for s, c in zip(steps, f.nums) if c]
    if unit_rows:
        kept = IntEchelon()
        for t in steps:
            kept.insert({s + t: c for s, c in nonzero if s + t not in base.pivots})
        return kept.rank == expected
    grown = IntEchelon(base.pivots)
    for t in steps:
        grown.insert({s + t: c for s, c in nonzero})
    return grown.rank - base.rank == expected


def depth(M: CyclicModule, seed: int = 0, trials: int = DEFAULT_TRIALS) -> DepthCertificate:
    """Longest chain of certified-regular linear forms the search finds.

    Candidates are the forms of `_combination_stream` in the last quotient's
    variables, and certificates are cached per (unshifted module, seed,
    trials).  Chain forms are reported in the ring of M; each was
    certified on the successive quotient, and those certifications are
    exact.  A nonzero module of dimension zero has no regular linear form
    at all, so the dimension-zero stop is exact as well; a step whose
    candidates run out, reported with failed_trials = trials, leaves open
    that a cleverer candidate exists.  The zero module stops at the
    dimension-zero terminal immediately.

    When the current quotient ideal is monomial, a candidate's verdict
    is its support's (see the module docstring): a candidate whose
    support lies inside that of a proven zerodivisor fails with no
    screen and no cut, and once the full variable set is such a support,
    every remaining candidate fails.  Each candidate gets the verdict
    the full test would give, so the certificate is the same.  trials
    below 1 raise ValueError.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    return _depth(M.drop_shift(), seed, trials)


@cache
def _depth(M: CyclicModule, seed: int, trials: int) -> DepthCertificate:
    """The search of `depth` on an unshifted module."""
    chain = QuotientChain((M,))
    links: list[LinearForm] = []
    rng = random.Random(seed)
    while True:
        S = series_of_cyclic(chain.last)
        if S.is_zero or series_dimension(S) <= 0:
            return DepthCertificate(len(links), tuple(links), STOP_DIMENSION_ZERO, 0)
        screen = _screen(chain.last.ideal)
        monomial = chain.last.ideal.is_monomial
        full = (1 << chain.last.ring_dim) - 1
        dead: list[int] = []  # supports (bit masks) of proven zerodivisors
        candidates = _combination_stream(chain.last.ring_dim, rng, trials)
        for coeffs in candidates:
            support = sum(1 << j for j, c in enumerate(coeffs) if c)
            if all(support | k != k for k in dead):
                f = LinearForm.from_numerators(coeffs, 1)
                if _screen_passes(screen, f):
                    cut = chain.cut(f)
                    if cut.steps[-1].socle.is_zero:
                        break
                if monomial:
                    if support == full:
                        candidates.close()  # every later candidate fails too
                    dead.append(support)
        else:
            return DepthCertificate(
                len(links), tuple(links), STOP_TRIALS_EXHAUSTED, trials
            )
        links.append(chain.pull(f))
        chain = cut
