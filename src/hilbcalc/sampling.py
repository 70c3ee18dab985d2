"""Seeded random inputs for the randomized verification suites."""

from __future__ import annotations

import random

from hilbcalc.polyring import LinearForm, PolyIdeal, Polynomial, forms_independent
from hilbcalc.presentation import CyclicModule, module_dimension


def random_monomial_ideal(
    rng: random.Random, d: int, max_gens: int = 5, max_degree: int = 4
) -> PolyIdeal:
    """A nonzero monomial ideal with up to max_gens generators."""
    if d < 1 or max_gens < 1 or max_degree < 1:
        raise ValueError("need d, max_gens, max_degree >= 1")
    exps = set()
    for _ in range(rng.randint(1, max_gens)):
        e = [0] * d
        for _ in range(rng.randint(1, max_degree)):
            e[rng.randrange(d)] += 1
        exps.add(tuple(e))
    return PolyIdeal(d, [Polynomial.from_monomial(d, e) for e in exps])


def random_module(
    rng: random.Random,
    d: int,
    min_dim: int = 0,
    max_gens: int = 5,
    max_degree: int = 4,
) -> CyclicModule:
    """Rejection-sample a monomial quotient of dimension >= min_dim."""
    if min_dim > d:
        raise ValueError("cannot ask for dimension above the variable count")
    while True:
        M = CyclicModule(d, random_monomial_ideal(rng, d, max_gens, max_degree))
        dim = module_dimension(M)
        if isinstance(dim, int) and dim >= min_dim:
            return M


def random_independent_forms(
    rng: random.Random, d: int, count: int, bound: int = 5
) -> list[LinearForm]:
    """count linearly independent small-coefficient forms."""
    if count > d:
        raise ValueError("cannot draw more independent forms than variables")
    forms: list[LinearForm] = []
    while len(forms) < count:
        c = [rng.randint(-bound, bound) for _ in range(d)]
        if not any(c):
            continue
        candidate = LinearForm(c)
        if forms_independent(forms + [candidate]):
            forms.append(candidate)
    return forms
