"""Every test starts from empty memo tables, so a result cached by one test
cannot mask a defect in another.  tests/test_memo_isolation.py checks that
clear_memos reaches every memo the package keeps."""

import pytest

from hilbcalc import monomial, oracle, presentation, superficial


def clear_memos() -> None:
    presentation._IDEAL_SERIES.clear()
    monomial._MONOMIAL_NUMERATORS.clear()
    superficial._DEPTH_CACHE.clear()
    superficial._cut.cache_clear()
    oracle.monomials_of_degree.cache_clear()


@pytest.fixture(autouse=True)
def empty_memo_tables():
    clear_memos()
