"""Shared fixtures."""

import functools
from collections import Counter

import pytest

from superquant import supercore


@pytest.fixture
def fresh_cache(monkeypatch):
    """``fresh_cache(name, *modules)`` gives the ``functools.cache`` function
    ``name``, defined in the first module, one new empty cache that every
    listed module holds for the test, so its first calls build again."""

    def fresh(name, *modules):
        new = functools.cache(getattr(modules[0], name).__wrapped__)
        for module in modules:
            monkeypatch.setattr(module, name, new)

    return fresh


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts of the calls to the term kernel's derivative routines and
    its product."""
    calls = Counter()
    for name in ("derive_terms", "divergence_terms", "partial_even_terms",
                 "partial_odd_terms", "mul_terms"):
        original = getattr(supercore._ops, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(supercore._ops, name, counted)
    return calls
