"""Graded module presentations and their Hilbert series.

Two presentation shapes cover everything downstream: cyclic quotients
(R/I)(-r) and finite free resolutions given by twist multisets.  The
series of a monomial quotient comes from the memoised pivot recursion in
`monomial`; general ideals pass through leading monomials first.

For a non-monomial ideal I = (f_1..f_k) in d variables, a run of the
incremental Buchberger loop mod p = 2^31 - 1 comes first, and its series
is exact once it is certified by two bounds:

- Upper: in each degree the mod-p Macaulay matrix has at most its
  rational rank, so H_p(R/J) >= H_Q(R/J) for every prime, read off the
  leading monomials of any elements of J mod p.
- Lower: 0 -> ((J:f)/J)(-e) -> (R/J)(-e) -> R/J -> R/(J+f) -> 0 gives
  H_Q(R/(J+f)) >= (1 - t^e) H_Q(R/J) for f of degree e.

Starting from H(R/0) = 1/(1-t)^d, a stage whose mod-p numerator equals
(1 - t^e_k) times the previous one has that exact rational series.  An
unlucky prime, a zerodivisor or a redundant generator only misses the
bound, and the rational loop runs instead.  A stage stops at the first
finished degree whose count exceeds the bound.  A single generator needs
no basis at all.  More generators than variables, or two generators that
one variable divides, go straight to the rational loop, because a regular
sequence has at most d members and no two of them share a factor.  Either
run ends in the Hilbert numerator of its leading monomials, with no
tail-reduced basis.  Only the series is certified, never the initial
ideal: for (p x + y, z^2) the rational initial ideal is (x, z^2) and the
mod-p one is (y, z^2), so `buchberger`, `initial_ideal` and `colon` stay
rational.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from hilbcalc.monomial import _numerator_of_monomial
from hilbcalc.polyring import (
    DegRevLex,
    LinearForm,
    ModPKernel,
    PolyIdeal,
    RationalKernel,
    Uncertified,
    _buchberger_run,
)
from hilbcalc.series import (
    DEFAULT_TRUNCATION,
    CoefficientTable,
    Dim,
    HilbertSeries,
    IntPolynomial,
    binomial,
    expand,
    hilbert_coefficients,
    series_dimension,
    shift,
)


class NotMonomial(ValueError):
    """A monomial-only routine was handed a non-monomial ideal."""


class BadParams(ValueError):
    """Family parameters outside their admissible range."""


@dataclass(frozen=True)
class CyclicModule:
    """The module (R/I)(-r): killed by I, generated in degree r."""

    ring_dim: int
    ideal: PolyIdeal
    shift: int = 0

    def __post_init__(self) -> None:
        if self.ideal.ring_dim != self.ring_dim:
            raise ValueError("ideal lives in a different ring")
        if self.shift < 0:
            raise ValueError("presentation shift must be a natural")

    def key(self):
        return (self.ring_dim, self.ideal.canonical_key(), self.shift)

    def drop_shift(self) -> "CyclicModule":
        if self.shift == 0:
            return self
        return CyclicModule(self.ring_dim, self.ideal, 0)


@dataclass(frozen=True)
class ResolutionPresentation:
    """Free resolution recorded as one twist multiset per homological step."""

    ring_dim: int
    steps: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.steps or not self.steps[0]:
            raise ValueError("a resolution needs generators at step zero")
        clean = tuple(tuple(int(r) for r in step) for step in self.steps)
        for step in clean:
            for r in step:
                if r < 0:
                    raise ValueError("twists must be naturals")
        object.__setattr__(self, "steps", clean)
        # genuine resolutions resolve a module, so the alternating sum must
        # expand with nonnegative coefficients
        probe = expand(self._series(), DEFAULT_TRUNCATION)
        if any(c < 0 for c in probe):
            raise ValueError("alternating sum is not a module series")

    def _series(self) -> HilbertSeries:
        h = IntPolynomial.zero()
        for k, step in enumerate(self.steps):
            sign = (-1) ** k
            for r in step:
                h = h + sign * IntPolynomial.t_power(r)
        return HilbertSeries(self.ring_dim, h)


def series_of_resolution(P: ResolutionPresentation) -> HilbertSeries:
    """Alternating sum of twisted free series over the resolution."""
    return P._series()


def series_of_monomial_quotient(d: int, I: PolyIdeal) -> HilbertSeries:
    """Series of R/I for a monomial ideal I over d variables."""
    if I.ring_dim != d:
        raise ValueError("ideal ring does not match the stated dimension")
    if not I.is_monomial:
        raise NotMonomial("generators must all be single terms")
    return HilbertSeries(d, _numerator_of_monomial(d, I.monomial_exponents()))


# unshifted series of R/I, keyed on I.canonical_key(); the only route to
# a Groebner run inside the package
_IDEAL_SERIES: dict[tuple, HilbertSeries] = {}


def series_of_cyclic(M: CyclicModule) -> HilbertSeries:
    """Series of (R/I)(-r).

    A monomial I gives its numerator directly.  Otherwise one generator of
    degree e gives 1 - t^e.  Up to d generators, no two divisible by one
    variable, first try a mod-p run, whose series counts only when every
    stage meets the exact rational bound (see the module docstring).  The
    leading monomials of a rational run give the rest.
    """
    I = M.ideal
    key = I.canonical_key()
    base = _IDEAL_SERIES.get(key)
    if base is None:
        d = M.ring_dim
        if I.is_monomial:
            base = series_of_monomial_quotient(d, I)
        else:
            base = HilbertSeries(d, _numerator_of_ideal(d, I))
        _IDEAL_SERIES[key] = base
    return shift(base, M.shift) if M.shift else base


def _numerator_of_ideal(d: int, I: PolyIdeal) -> IntPolynomial:
    """Hilbert numerator of R/I for a non-monomial ideal I."""
    gens = I.generators
    order = DegRevLex(d)
    if len(gens) == 1:
        one = IntPolynomial.one()
        return one - one.times_t_power(gens[0].degree())
    if len(gens) <= d and not _common_variable(gens):
        try:
            return _buchberger_run(gens, d, ModPKernel(order, gens))[1]
        except Uncertified:
            pass
    return _buchberger_run(gens, d, RationalKernel(order, gens))[1]


def _common_variable(gens) -> bool:
    """Whether some variable divides two of the generators.  A common
    factor c of f and g makes g a zerodivisor mod f (g (f/c) lies in (f)),
    so such generators are no regular sequence."""
    seen: set[int] = set()
    for g in gens:
        factors = set.intersection(*({i for i, a in enumerate(m) if a} for m in g.nums))
        if factors & seen:
            return True
        seen |= factors
    return False


def module_dimension(M: CyclicModule) -> Dim:
    return series_dimension(series_of_cyclic(M))


def module_table(M: CyclicModule) -> CoefficientTable:
    return hilbert_coefficients(series_of_cyclic(M))


SHIFTED_FREE = "shifted-free"
HYPERSURFACE = "hypersurface"
COMPLETE_INTERSECTION_2 = "complete-intersection-2"
HILBERT_BURCH = "hilbert-burch"

FAMILY_CASES = (SHIFTED_FREE, HYPERSURFACE, COMPLETE_INTERSECTION_2, HILBERT_BURCH)


@dataclass(frozen=True)
class FamilyInstance:
    """A resolution presentation paired with its closed-form table."""

    case: str
    params: tuple[tuple[str, int], ...]
    presentation: ResolutionPresentation
    expected: CoefficientTable


def closed_form_family(case: str, **params: int) -> FamilyInstance:
    """Resolution presentations whose coefficient tables are known in closed form.

    Cases: shifted-free (d, r), hypersurface (d, k),
    complete-intersection-2 (d, k, l), hilbert-burch (d, m).
    """
    def take(*names: str) -> list[int]:
        missing = [n for n in names if n not in params]
        extra = [n for n in params if n not in names]
        if missing or extra:
            raise BadParams(
                f"{case} expects parameters {names}, got {tuple(params)}"
            )
        return [params[n] for n in names]

    if case == SHIFTED_FREE:
        d, r = take("d", "r")
        if d < 0 or r < 0:
            raise BadParams("shifted-free needs d, r >= 0")
        pres = ResolutionPresentation(d, ((r,),))
        expected = CoefficientTable(d, tuple(binomial(r, i) for i in range(r + 1)))
    elif case == HYPERSURFACE:
        d, k = take("d", "k")
        if d < 1 or k < 1:
            raise BadParams("hypersurface needs d >= 1 and k >= 1")
        pres = ResolutionPresentation(d, ((0,), (k,)))
        expected = CoefficientTable(d - 1, tuple(binomial(k, i + 1) for i in range(k)))
    elif case == COMPLETE_INTERSECTION_2:
        d, k, l = take("d", "k", "l")
        if d < 2 or k < 1 or l < 1:
            raise BadParams("complete-intersection-2 needs d >= 2 and k, l >= 1")
        pres = ResolutionPresentation(d, ((0,), (k, l), (k + l,)))
        expected = CoefficientTable(
            d - 2,
            tuple(
                binomial(k + l, i + 2) - binomial(k, i + 2) - binomial(l, i + 2)
                for i in range(k + l - 1)
            ),
        )
    elif case == HILBERT_BURCH:
        d, m = take("d", "m")
        if d < 2 or m < 1:
            raise BadParams("hilbert-burch needs d >= 2 and m >= 1")
        pres = ResolutionPresentation(d, ((0,), (m,) * (m + 1), (m + 1,) * m))
        expected = CoefficientTable(
            d - 2, tuple((i + 1) * binomial(m + 1, i + 2) for i in range(m))
        )
    else:
        raise BadParams(f"unknown family case {case!r}; use one of {FAMILY_CASES}")
    return FamilyInstance(
        case=case,
        params=tuple(sorted(params.items())),
        presentation=pres,
        expected=expected,
    )


def determinantal_check_module(seed: int = 0) -> CyclicModule:
    """Order-two minors of a 2x3 matrix of small generic linear forms, d = 3.

    Used to cross the hilbert-burch closed form against the Groebner
    pipeline on an actual ideal.  The draw is deterministic in the seed;
    callers should confirm the quotient has dimension one.
    """
    rng = random.Random(seed)
    d = 3
    while True:
        entries = []
        for _ in range(6):
            while True:
                cs = [rng.randint(-3, 3) for _ in range(d)]
                if any(cs):
                    break
            entries.append(LinearForm(tuple(cs)).to_polynomial())
        row1, row2 = entries[:3], entries[3:]
        minors = []
        for a, b in ((0, 1), (0, 2), (1, 2)):
            minors.append(row1[a] * row2[b] - row1[b] * row2[a])
        if any(m.is_zero for m in minors):
            continue
        M = CyclicModule(d, PolyIdeal(d, minors))
        if module_dimension(M) == 1:
            return M
