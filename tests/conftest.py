"""Fixtures shared by the test modules."""

import pytest

from repro import obs


@pytest.fixture
def registry():
    """A fresh enabled registry installed for the duration of one test."""
    fresh = obs.MetricsRegistry(enabled=True)
    previous = obs.set_registry(fresh)
    yield fresh
    obs.set_registry(previous)
