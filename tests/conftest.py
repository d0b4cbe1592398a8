"""Shared fixtures."""

import pytest

from singulim.polyalg import Polynomial


@pytest.fixture
def products(monkeypatch):
    """The names of the Polynomial products and compositions formed from now
    on, in call order ("__mul__", "__rmul__" or "compose"); clear() restarts
    the count."""
    calls = []
    for name in ("__mul__", "__rmul__", "compose"):
        method = getattr(Polynomial, name)

        def counted(self, other, _method=method, _name=name):
            calls.append(_name)
            return _method(self, other)

        monkeypatch.setattr(Polynomial, name, counted)
    return calls
