"""Shared pytest set-up: one deterministic, bounded hypothesis profile,
so that property tests draw the same examples on every run and keep
the suite's running time fixed; and an empty series-plan memo for each
test."""

import pytest
from hypothesis import settings

from hb.discriminant import _series_plan

settings.register_profile("tier1", derandomize=True, deadline=None,
                          max_examples=50, database=None)
settings.load_profile("tier1")


@pytest.fixture(autouse=True)
def fresh_series_plans():
    """Every test starts with no memoized series plan, so that no result,
    and no patch of the names the plan calls, depends on which test
    filled the memo first."""
    _series_plan.cache_clear()
