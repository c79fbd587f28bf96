"""Hypothesis runs derandomized, so every tier-1 run draws the same examples."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=150, database=None)
settings.load_profile("tier1")
