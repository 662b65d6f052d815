"""Shared test configuration.

Hypothesis draws its examples from a fixed seed and keeps no example
database, so the suite is as deterministic as the simulator it tests: a
run that fails in CI fails the same way locally.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
