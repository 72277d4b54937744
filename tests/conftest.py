"""Shared pytest set-up: one deterministic, bounded hypothesis profile,
so that property tests draw the same examples on every run and keep
the suite's running time fixed; an empty series-plan memo for each
test; and a guard for the tests of the field cap."""

import pytest
from hypothesis import settings

import hb.fields
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


@pytest.fixture
def small_fields_only(monkeypatch):
    """FF.__init__ fails on a field over hb.fields.MAX_FIELD, so that a
    call that would tabulate one fails at once instead of building its
    q^2-entry tables."""
    original = hb.fields.FF.__init__

    def small_only(self, p, n):
        assert p ** n <= hb.fields.MAX_FIELD, f"F_{p ** n} was built"
        original(self, p, n)
    monkeypatch.setattr(hb.fields.FF, "__init__", small_only)
