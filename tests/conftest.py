"""Fixtures every test runs under."""

import pytest

from idemarith import arith, convolution


@pytest.fixture(autouse=True)
def nothing_held(monkeypatch):
    """Start each test with no number table and no product index held, and hold
    them only for its own run: an index grown while a test patched
    ``convolution._index`` (an lcm index read off a wrong unitary one, say), or a
    table sieved while it patched ``arith._sieve``, reaches no later test."""
    monkeypatch.setattr(arith, "_held", [None])
    monkeypatch.setattr(convolution, "_indexes", {})
