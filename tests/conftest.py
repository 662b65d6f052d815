"""Shared test configuration.

Hypothesis draws its examples from a fixed seed and keeps no example
database, so the suite is as deterministic as the simulator it tests: a
run that fails in CI fails the same way locally.

``sha256_calls`` counts digests by patching ``hashlib.sha256``, where
every digest of the engine looks it up, as the benchmark tracer does.
"""

import hashlib

import pytest
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def sha256_calls(monkeypatch):
    """A one-item list counting the SHA-256 digests taken from here on."""
    real_sha256 = hashlib.sha256
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return real_sha256(*args, **kwargs)

    monkeypatch.setattr(hashlib, "sha256", counted)
    return calls
