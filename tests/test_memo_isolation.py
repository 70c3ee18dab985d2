"""The autouse fixture in conftest.py empties every memo the package keeps,
so a memo added later cannot carry results from one test into the next."""

import importlib
import pkgutil
from pathlib import Path

import hilbcalc
from conftest import clear_memos
from hilbcalc.cli import main

DEMO = Path(__file__).resolve().parent.parent / "scripts" / "demo.hc"


def module_state():
    """(caches, dicts): every functools cache defined in a hilbcalc module
    and every module-level dict, each once, by qualified name."""
    modules = [
        importlib.import_module(f"hilbcalc.{info.name}")
        for info in pkgutil.iter_modules(hilbcalc.__path__)
        if info.name != "__main__"
    ]
    caches, dicts, seen = {}, {}, set()
    for mod in modules + [hilbcalc]:
        for name, value in vars(mod).items():
            if name.startswith("__") or id(value) in seen:
                continue
            qualified = f"{mod.__name__}.{name}"
            if isinstance(value, dict):
                dicts[qualified] = value
            elif hasattr(value, "cache_clear") and value.__module__ == mod.__name__:
                caches[qualified] = value
            else:
                continue
            seen.add(id(value))
    return caches, dicts


def test_clear_memos_reaches_every_memo(capsys):
    caches, dicts = module_state()
    assert {"hilbcalc.superficial._cut", "hilbcalc.oracle.monomials_of_degree"} <= set(caches)
    sizes = {name: len(d) for name, d in dicts.items()}
    # the demo script runs every command, so it fills every memo dict
    assert main(["run", str(DEMO), "--quiet"]) == 0
    memos = {name for name, d in dicts.items() if len(d) > sizes[name]}
    assert {
        "hilbcalc.presentation._IDEAL_SERIES",
        "hilbcalc.monomial._MONOMIAL_NUMERATORS",
        "hilbcalc.superficial._DEPTH_CACHE",
    } <= memos
    clear_memos()
    assert [name for name in memos if dicts[name]] == []
    assert [name for name, cache in caches.items() if cache.cache_info().currsize] == []
