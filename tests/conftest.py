"""Set-up shared by the test modules."""

import pytest

from smoothness_lab import approx, translation


@pytest.fixture(autouse=True)
def cold_memos():
    """Empty the one-entry memos of best_approx, k_functional and modulus before each test, so no test sees another's."""
    approx._E_SETUP.clear()
    approx._K_SETUP.clear()
    translation._MODULUS_TRANSLATES.clear()
