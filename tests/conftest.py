from __future__ import annotations

import sys

import pytest

from spin7ac import homrep, scalars
from spin7ac.projectors import build_projectors


@pytest.fixture(scope="session")
def table():
    """The certified projector table (built once per session)."""
    return build_projectors()


@pytest.fixture
def canonical_calls(monkeypatch):
    """A one-element list counting scalars._canonical calls, wherever it is bound."""
    calls = [0]
    original = scalars._canonical

    def counting(*fields):
        calls[0] += 1
        return original(*fields)

    for name, module in list(sys.modules.items()):
        if name.startswith("spin7ac") and getattr(module, "_canonical", None) is original:
            monkeypatch.setattr(module, "_canonical", counting)
    return calls


@pytest.fixture
def empty_ladder(monkeypatch):
    """Start the test with homrep's ladder of records empty, and restore it after.

    Returns a function that empties the ladder again within the test.
    """

    def empty():
        monkeypatch.setattr(homrep, "_ladder", (-1, (), ()))

    empty()
    return empty
