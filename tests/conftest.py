"""Set-up shared by the test modules."""

import pytest

from smoothness_lab import space


@pytest.fixture(autouse=True)
def cold_memo():
    """Empty the one memo, the prepared function of the last f, before each test, so no test sees another's."""
    space._PREPARED.clear()
