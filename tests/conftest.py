"""Shared fixtures."""

import functools

import pytest


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
