"""Every name a hotilab module exports in ``__all__`` exists in it."""

import importlib
import pkgutil

import pytest

import hotilab

MODULES = sorted(m.name for m in pkgutil.iter_modules(hotilab.__path__))


def test_every_module_is_listed():
    assert {"cli", "fgab", "invariants", "ktheory", "models", "patterns", "spectral", "symmetry"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"hotilab.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"hotilab.{name}.__all__ lists missing names {missing}"
