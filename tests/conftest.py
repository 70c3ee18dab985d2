"""Every test starts from empty memo tables, so a result cached by one test
cannot mask a defect in another.  tests/test_memo_isolation.py checks that
clear_memos reaches every memo the package keeps."""

import importlib
import pkgutil

import pytest

import hilbcalc


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


def clear_memos() -> None:
    for memo in module_state()[0].values():
        memo.cache_clear()


@pytest.fixture(autouse=True)
def empty_memo_tables():
    clear_memos()
