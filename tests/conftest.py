"""Fixtures shared by every test module."""

import pytest

from ordcut import dsl, lexgroups, scalars


@pytest.fixture(autouse=True)
def cold_memos():
    """Each test splits its radicands, parses its groups and builds their
    widenings cold: a result cached by an earlier test would hide the cost
    that the timing tests bound and the work that the sympy oracles check."""
    scalars._split.cache_clear()
    dsl._group.cache_clear()
    lexgroups.widening.cache_clear()
