"""Shared pytest set-up: one deterministic, bounded hypothesis profile,
so that property tests draw the same examples on every run and keep
the suite's running time fixed."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None,
                          max_examples=50, database=None)
settings.load_profile("tier1")
