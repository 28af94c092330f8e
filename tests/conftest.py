"""Fixtures every test runs under."""

import pytest

from idemarith import convolution


@pytest.fixture(autouse=True)
def no_index_held(monkeypatch):
    """Start each test with no product index held, and hold its indexes only for
    its own run: an index grown while a test patched ``convolution._index`` (an
    lcm index read off a wrong unitary one, say) reaches no later test."""
    monkeypatch.setattr(convolution, "_indexes", {})
