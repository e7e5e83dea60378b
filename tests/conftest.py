"""Hypothesis settings for every test: each property test draws the same
examples on every run, and no example database is read or written."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
