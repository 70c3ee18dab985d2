"""Graded module presentations and their Hilbert series.

Two presentation shapes cover everything downstream: cyclic quotients
(R/I)(-r) and finite free resolutions given by twist multisets.  The
series of a monomial quotient comes from the pivot recursion

    series(R/I) = t * series(R/(I : x)) + series(R/(I + (x)))

with memoization on minimal generator sets; general ideals pass through
their initial ideal first.
"""

from __future__ import annotations

from dataclasses import dataclass

from hilbcalc.polyring import (
    DegRevLex,
    Monomial,
    PolyIdeal,
    Polynomial,
    buchberger,
    minimalize_exponents,
    monomial_degree,
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


# numerators of R/I for monomial ideals I, keyed on (d, minimal generating
# exponents of I)
_MONOMIAL_NUMERATORS: dict[tuple[int, frozenset[Monomial]], IntPolynomial] = {}


def _pivot_step(d: int, exps: frozenset[Monomial]):
    """The numerator of a base case, or the memo keys of the pivot split
    (I : x) and I + (x) whose numerators give t * h(I : x) + h(I + (x))."""
    if not exps:
        return IntPolynomial.one()
    zero_exp = (0,) * d
    if zero_exp in exps:
        return IntPolynomial.zero()
    if all(sum(1 for m in exps if m[i]) <= 1 for i in range(d)):
        # pairwise coprime generators (no variable shared) form a regular
        # sequence, so the numerator is the product of the (1 - t^deg m)
        h = IntPolynomial.one()
        for m in exps:
            h = h - h.times_t_power(monomial_degree(m))
        return h
    # two generators share a variable, so some generator is not a variable
    pivot_gen = next(m for m in sorted(exps) if monomial_degree(m) > 1)
    pivot_var = next(i for i, e in enumerate(pivot_gen) if e > 0)
    x = tuple(1 if i == pivot_var else 0 for i in range(d))
    colon_exps = minimalize_exponents(
        tuple(e - (1 if i == pivot_var and e > 0 else 0) for i, e in enumerate(m))
        for m in exps
    )
    plus_exps = minimalize_exponents(set(exps) | {x})
    return (d, colon_exps), (d, plus_exps)


def _numerator_of_monomial(d: int, exps: frozenset[Monomial]) -> IntPolynomial:
    """Numerator of R/I for the monomial ideal minimally generated by exps.

    Walks the pivot recursion with an explicit stack, so a chain of
    thousands of pivot steps needs no Python recursion; every node reached
    is memoised in _MONOMIAL_NUMERATORS.
    """
    memo = _MONOMIAL_NUMERATORS
    root = (d, exps)
    # entries are (node, None) before the node's step is taken and
    # (node, (colon, plus)) once both children sit above it on the stack
    stack = [(root, None)]
    while stack:
        node, split = stack.pop()
        if node in memo:
            continue
        if split is None:
            step = _pivot_step(*node)
            if isinstance(step, IntPolynomial):
                memo[node] = step
                continue
            colon, plus = step
            stack += [(node, step), (plus, None), (colon, None)]
        else:
            colon, plus = split
            memo[node] = memo[colon].times_t_power(1) + memo[plus]
    return memo[root]


def series_of_monomial_quotient(d: int, I: PolyIdeal) -> HilbertSeries:
    """Series of R/I for a monomial ideal I over d variables."""
    if I.ring_dim != d:
        raise ValueError("ideal ring does not match the stated dimension")
    if not I.is_monomial:
        raise NotMonomial("generators must all be single terms")
    return HilbertSeries(d, _numerator_of_monomial(d, I.monomial_exponents()))


# unshifted series of R/I, keyed on I.canonical_key(); the only route to
# buchberger inside the package
_IDEAL_SERIES: dict[tuple, HilbertSeries] = {}


def series_of_cyclic(M: CyclicModule) -> HilbertSeries:
    """Series of (R/I)(-r); non-monomial ideals go through initial ideals."""
    I = M.ideal
    key = I.canonical_key()
    base = _IDEAL_SERIES.get(key)
    if base is None:
        d = M.ring_dim
        if I.is_monomial:
            base = series_of_monomial_quotient(d, I)
        else:
            order = DegRevLex(d)
            exps = frozenset(g.leading(order)[0] for g in buchberger(I, order))
            base = HilbertSeries(d, _numerator_of_monomial(d, minimalize_exponents(exps)))
        _IDEAL_SERIES[key] = base
    return shift(base, M.shift) if M.shift else base


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
    import random as _random

    rng = _random.Random(seed)
    d = 3
    while True:
        entries = []
        for _ in range(6):
            while True:
                cs = [rng.randint(-3, 3) for _ in range(d)]
                if any(cs):
                    break
            terms = {}
            for i, c in enumerate(cs):
                if c:
                    exp = [0] * d
                    exp[i] = 1
                    terms[tuple(exp)] = c
            entries.append(Polynomial(d, terms))
        row1, row2 = entries[:3], entries[3:]
        minors = []
        for a, b in ((0, 1), (0, 2), (1, 2)):
            minors.append(row1[a] * row2[b] - row1[b] * row2[a])
        if any(m.is_zero for m in minors):
            continue
        M = CyclicModule(d, PolyIdeal(d, minors))
        if module_dimension(M) == 1:
            return M
