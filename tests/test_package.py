"""The package's public surface: every exported name resolves."""

import hilbcalc


def test_every_exported_name_resolves():
    assert len(set(hilbcalc.__all__)) == len(hilbcalc.__all__)
    assert [n for n in hilbcalc.__all__ if not hasattr(hilbcalc, n)] == []


def test_star_import():
    namespace: dict = {}
    exec("from hilbcalc import *", namespace)
    assert set(hilbcalc.__all__) <= namespace.keys()
