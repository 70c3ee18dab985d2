"""The package's memos are `functools` caches keyed on the values they
memoise, and the autouse fixture in conftest.py empties every one of them,
so a memo added later cannot carry results from one test into the next."""

from fractions import Fraction
from pathlib import Path

from conftest import clear_memos, module_state
from hilbcalc.cli import main
from hilbcalc.polyring import PolyIdeal, Polynomial
from hilbcalc.presentation import CyclicModule, _series_of_ideal, series_of_cyclic
from hilbcalc.superficial import _depth, depth

DEMO = Path(__file__).resolve().parent.parent / "scripts" / "demo.hc"


def test_clear_memos_reaches_every_memo(capsys):
    caches, dicts = module_state()
    assert set(caches) == {
        "hilbcalc.monomial._numerator_of_monomial",
        "hilbcalc.presentation._series_of_ideal",
        "hilbcalc.superficial._depth",
        "hilbcalc.superficial._cut",
    }
    sizes = {name: len(d) for name, d in dicts.items()}
    # the demo script runs every command, so it fills every cache
    assert main(["run", str(DEMO), "--quiet"]) == 0
    assert [name for name, d in dicts.items() if len(d) > sizes[name]] == []
    assert [name for name, cache in caches.items() if not cache.cache_info().currsize] == []
    clear_memos()
    assert [name for name, cache in caches.items() if cache.cache_info().currsize] == []


def test_rescaled_generators_hit_the_series_cache():
    f = Polynomial(3, {(2, 0, 0): 2, (0, 1, 1): -4})
    g = Polynomial(3, {(1, 1, 0): 3, (0, 0, 2): 1})
    first = series_of_cyclic(CyclicModule(3, PolyIdeal(3, [f, g])))
    info = _series_of_ideal.cache_info()
    rescaled = PolyIdeal(3, [g * Fraction(-2, 7), f * Fraction(1, 2)])
    assert series_of_cyclic(CyclicModule(3, rescaled)) is first
    after = _series_of_ideal.cache_info()
    assert (after.hits, after.misses) == (info.hits + 1, info.misses)


def test_a_shifted_module_shares_the_unshifted_depth_entry():
    I = PolyIdeal(3, [Polynomial(3, {(1, 0, 1): 1}), Polynomial(3, {(0, 1, 1): 1})])
    cert = depth(CyclicModule(3, I))
    info = _depth.cache_info()
    assert depth(CyclicModule(3, I, shift=4)) is cert
    after = _depth.cache_info()
    assert (after.hits, after.misses, after.currsize) == (
        info.hits + 1,
        info.misses,
        info.currsize,
    )
