"""Fixtures shared by every test module."""

import pytest

from ordcut import scalars


@pytest.fixture(autouse=True)
def cold_radicand_memo():
    """Each test splits its radicands cold: a split cached by an earlier
    test would hide the factoring cost that the timing tests bound and the
    sympy oracles check."""
    scalars._split.cache_clear()
