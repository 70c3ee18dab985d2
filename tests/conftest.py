"""Every test starts from empty memo tables, so a result cached by one test
cannot mask a defect in another."""

import pytest

from hilbcalc import monomial, presentation, superficial


@pytest.fixture(autouse=True)
def empty_memo_tables():
    presentation._IDEAL_SERIES.clear()
    monomial._MONOMIAL_NUMERATORS.clear()
    superficial._DEPTH_CACHE.clear()
