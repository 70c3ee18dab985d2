"""Graded module presentations and their Hilbert series.

Two presentation shapes cover everything downstream: cyclic quotients
(R/I)(-r) and finite free resolutions given by twist multisets.  The
series of a monomial quotient comes from the memoised pivot recursion in
`monomial`; general ideals pass through leading monomials first.

For a non-monomial ideal I = (f_1..f_k) in d variables, a run of the
incremental Buchberger loop mod p = 2^31 - 1 may come first, and its
series is exact once it is certified by two bounds:

- Upper: in each degree the mod-p Macaulay matrix has at most its
  rational rank, so H_p(R/J) >= H_Q(R/J) for every prime, read off the
  leading monomials of any elements of J mod p.
- Lower: 0 -> ((J:f)/J)(-e) -> (R/J)(-e) -> R/J -> R/(J+f) -> 0 gives
  H_Q(R/(J+f)) >= (1 - t^e) H_Q(R/J) for f of degree e.

Starting from H(R/0) = 1/(1-t)^d, a stage whose mod-p numerator equals
(1 - t^e_k) times the previous one has that exact rational series.  An
unlucky prime, a zerodivisor or a redundant generator only misses the
bound, and the rational loop runs instead.  A stage stops at the first
finished degree whose count exceeds the bound; a single generator is
certified at its first stage.

The run is on k <= d variables.  Each f_j of degree e_j in turn keeps the
first unused variable x_i with x_i^e_j a term of f_j, and the other d - k
variables are set to 0; at k = d none is.  When the mod-p run certifies
these k forms in k variables, R/(I + (x_V)) for the d - k dropped
variables V has finite length, so dim R/I <= d - k.  Krull's height
theorem gives ht I <= k, so ht I = k, and in the Cohen-Macaulay ring R
the f_j are a regular sequence with numerator prod (1 - t^e_j) (Bruns &
Herzog 1993, Thm 2.1.2).  When some generator has no such term, as
always with more generators than variables, only the rational loop runs.
Distinct kept variables also mean that no variable divides two
generators, which no regular sequence allows.

Every run ends in the Hilbert numerator of its leading monomials, with no
tail-reduced basis.  Only the series is certified, never the initial
ideal: for (p x + y, z^2) the rational initial ideal is (x, z^2) and the
mod-p one is (y, z^2), so `buchberger`, `initial_ideal` and `colon` stay
rational.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from hilbcalc.monomial import _numerator_of_monomial
from hilbcalc.polyring import (
    DegRevLex,
    LinearForm,
    ModPKernel,
    PolyIdeal,
    Polynomial,
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
    _as_int,
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
        object.__setattr__(self, "shift", _as_int(self.shift))
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
        clean = tuple(tuple(map(_as_int, step)) for step in self.steps)
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


def series_of_monomial_quotient(I: PolyIdeal) -> HilbertSeries:
    """Series of R/I for a monomial ideal I."""
    if not I.is_monomial:
        raise NotMonomial("generators must all be single terms")
    d = I.ring_dim
    return HilbertSeries(d, _numerator_of_monomial(d, I.monomial_exponents()))


# unshifted series of R/I, keyed on I.canonical_key(); the only route to
# a Groebner run inside the package
_IDEAL_SERIES: dict[tuple, HilbertSeries] = {}


def series_of_cyclic(M: CyclicModule) -> HilbertSeries:
    """Series of (R/I)(-r).

    A monomial I gives its numerator directly.  Otherwise k generators
    that restrict to k variables first get one mod-p run; its series
    counts only when every stage meets the exact rational bound (see the
    module docstring).  The leading monomials of a rational run give the
    rest.
    """
    I = M.ideal
    key = I.canonical_key()
    base = _IDEAL_SERIES.get(key)
    if base is None:
        if I.is_monomial:
            base = series_of_monomial_quotient(I)
        else:
            base = HilbertSeries(I.ring_dim, _numerator_of_ideal(I))
        _IDEAL_SERIES[key] = base
    return shift(base, M.shift) if M.shift else base


def _numerator_of_ideal(I: PolyIdeal) -> IntPolynomial:
    """Hilbert numerator of R/I for a non-monomial ideal I.

    Generators that restrict to k <= d variables (`_restriction`) may be a
    regular sequence, and get one mod-p run on that restriction; a run
    that certifies gives the numerator.  Any other ideal, and every
    `Uncertified` run, takes the rational run.

    A certified run proves that f_1..f_k, of degrees e_j, are a regular
    sequence in R = Q[x_1..x_d], so that R/I has the numerator
    prod (1 - t^e_j) the run returns.  Let V be the d - k variables set to
    0, empty when k = d, and R' = Q[x_i : i not in V].  The run certifies
    the rational series prod (1 + t + ... + t^(e_j - 1)) of
    R'/(f|V) = R/(I + (x_V)), a polynomial, so R/(I + (x_V)) has finite
    length.  Cutting by the d - k forms x_V lowers the dimension by at
    most d - k, so dim R/I <= d - k, while Krull's height theorem gives
    ht I <= k, that is dim R/I >= d - k.  So ht I = k, and in the
    Cohen-Macaulay ring R k homogeneous elements generating an ideal of
    height k are a regular sequence (Bruns & Herzog, Cohen-Macaulay Rings,
    1993, Thm 2.1.2, graded form).
    """
    gens, d = I.generators, I.ring_dim
    fs = _restriction(gens, d)
    if fs is not None:
        try:
            return _buchberger_run(fs, ModPKernel(DegRevLex(len(fs)), fs))[1]
        except Uncertified:
            pass
    return _buchberger_run(gens, RationalKernel(DegRevLex(d), gens))[1]


def _restriction(gens: Sequence[Polynomial], d: int) -> Optional[list[Polynomial]]:
    """The k generators with all but k variables set to 0, or None.

    Each generator f_j of degree e_j in turn keeps the first variable x_i
    not yet kept such that x_i^e_j is a term of f_j; the restriction lives
    in the kept variables, in their order, and keeps that term, so each
    f_j stays a nonzero form of degree e_j.  At k = d no variable is
    dropped.  None when some generator has no such term, as always when
    k > d.  A variable dividing f_j would divide that term, so no variable
    divides two generators that have a restriction.
    """
    kept: list[int] = []
    for g in gens:
        e = g.degree()
        for i in range(d):
            if i not in kept and tuple(e if j == i else 0 for j in range(d)) in g.nums:
                kept.append(i)
                break
        else:
            return None
    kept.sort()
    dropped = [j for j in range(d) if j not in kept]
    return [
        Polynomial(
            len(kept),
            {
                tuple(m[i] for i in kept): v
                for m, v in g.nums.items()
                if not any(m[j] for j in dropped)
            },
        )
        for g in gens
    ]


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
