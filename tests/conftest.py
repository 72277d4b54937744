"""Shared pytest set-up: one deterministic, bounded hypothesis profile,
so that property tests draw the same examples on every run and keep
the suite's running time fixed; and an empty coefficient-table memo
for each test."""

import pytest
from hypothesis import settings

from hb.discriminant import coefficient_table

settings.register_profile("tier1", derandomize=True, deadline=None,
                          max_examples=50, database=None)
settings.load_profile("tier1")


@pytest.fixture(autouse=True)
def fresh_coefficient_tables():
    """Every test starts with no memoized coefficient table, so that no
    result, and no patch of the table builder's names, depends on which
    test filled the memo first."""
    coefficient_table.cache_clear()
