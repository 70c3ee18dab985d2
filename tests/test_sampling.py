import random

import pytest

from hilbcalc.polyring import forms_independent
from hilbcalc.presentation import module_dimension
from hilbcalc.sampling import (
    MAX_DEGREE,
    MAX_GENS,
    random_independent_forms,
    random_module,
    random_monomial_ideal,
)


def test_monomial_ideal_respects_bounds():
    rng = random.Random(5)
    for _ in range(50):
        I = random_monomial_ideal(rng, 3)
        exps = I.monomial_exponents()
        assert 1 <= len(exps) <= MAX_GENS
        assert all(1 <= sum(e) <= MAX_DEGREE for e in exps)
        assert all(len(e) == 3 for e in exps)


def test_monomial_ideal_deterministic():
    a = random_monomial_ideal(random.Random(9), 4)
    b = random_monomial_ideal(random.Random(9), 4)
    assert a == b


def test_module_meets_dimension_floor():
    rng = random.Random(1)
    for _ in range(20):
        M = random_module(rng, 4, min_dim=2)
        assert module_dimension(M) >= 2


def test_module_dimension_floor_validation():
    with pytest.raises(ValueError):
        random_module(random.Random(0), 2, min_dim=3)


def test_independent_forms():
    rng = random.Random(7)
    forms = random_independent_forms(rng, 4, 3)
    assert len(forms) == 3
    assert forms_independent(forms)
    assert all(len(f.coefficients) == 4 for f in forms)


def test_independent_forms_cap():
    with pytest.raises(ValueError):
        random_independent_forms(random.Random(0), 2, 3)
