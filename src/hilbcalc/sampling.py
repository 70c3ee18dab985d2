"""Seeded random inputs for the randomized verification suites."""

from __future__ import annotations

import random

from hilbcalc.polyring import LinearForm, PolyIdeal, forms_independent
from hilbcalc.presentation import CyclicModule, module_dimension
from hilbcalc.superficial import DEFAULT_COEFF_BOUND


MAX_GENS = 5
MAX_DEGREE = 4


def random_monomial_ideal(rng: random.Random, d: int) -> PolyIdeal:
    """A nonzero monomial ideal with 1 to MAX_GENS generators, each of
    degree 1 to MAX_DEGREE."""
    if d < 1:
        raise ValueError("need d >= 1")
    exps = set()
    for _ in range(rng.randint(1, MAX_GENS)):
        e = [0] * d
        for _ in range(rng.randint(1, MAX_DEGREE)):
            e[rng.randrange(d)] += 1
        exps.add(tuple(e))
    return PolyIdeal._of_monomials(d, exps)


def random_module(rng: random.Random, d: int, min_dim: int = 0) -> CyclicModule:
    """Rejection-sample a monomial quotient of dimension >= min_dim, its
    ideal drawn by `random_monomial_ideal`.  That ideal is nonzero, so the
    quotient's dimension is below d."""
    if min_dim >= d:
        raise ValueError("min_dim must be below d: the drawn ideal is nonzero")
    while True:
        M = CyclicModule(d, random_monomial_ideal(rng, d))
        dim = module_dimension(M)
        if isinstance(dim, int) and dim >= min_dim:
            return M


def random_independent_forms(rng: random.Random, d: int, count: int) -> list[LinearForm]:
    """count linearly independent forms, coefficients in [-DEFAULT_COEFF_BOUND,
    DEFAULT_COEFF_BOUND]."""
    if count > d:
        raise ValueError("cannot draw more independent forms than variables")
    forms: list[LinearForm] = []
    while len(forms) < count:
        c = [rng.randint(-DEFAULT_COEFF_BOUND, DEFAULT_COEFF_BOUND) for _ in range(d)]
        if not any(c):
            continue
        candidate = LinearForm(c)
        if forms_independent(forms + [candidate]):
            forms.append(candidate)
    return forms
