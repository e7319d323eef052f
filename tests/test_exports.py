"""Every name a hotilab module exports in ``__all__`` exists in it, and
neither importing hotilab nor running its hinge flow loads more of scipy
than its halves need: the exact half no scipy, the rest no scipy.optimize."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import hotilab

MODULES = sorted(m.name for m in pkgutil.iter_modules(hotilab.__path__))
SRC = Path(__file__).resolve().parents[1] / "src"


def test_every_module_is_listed():
    assert {"cli", "fgab", "invariants", "ktheory", "models", "patterns", "spectral", "symmetry"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"hotilab.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"hotilab.{name}.__all__ lists missing names {missing}"


def run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter with ``src`` on the path; return its stdout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_imports_load_no_scipy_optimize():
    # the exact half loads no scipy at all; no module loads scipy.optimize, nor
    # scipy.sparse.csgraph, which only the hinge flow's matching needs
    run_fresh(
        "import importlib, pkgutil, sys\n"
        "import hotilab.fgab, hotilab.ktheory, hotilab.patterns\n"
        "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "assert not loaded, loaded\n"
        "for m in pkgutil.iter_modules(hotilab.__path__):\n"
        "    importlib.import_module('hotilab.' + m.name)\n"
        "assert 'hotilab.cli' in sys.modules\n"
        "assert 'scipy.optimize' not in sys.modules\n"
        "assert 'scipy.sparse.csgraph' not in sys.modules\n"
    )


def test_hinge_flow_never_loads_scipy_optimize():
    # the overlap matching runs on scipy.sparse.csgraph
    out = run_fresh(
        "import importlib, json, pkgutil, sys\n"
        "import hotilab\n"
        "for m in pkgutil.iter_modules(hotilab.__path__):\n"
        "    importlib.import_module('hotilab.' + m.name)\n"
        "from hotilab.invariants import hinge_spectral_flow\n"
        "from hotilab.models import builtin_model\n"
        "rep = hinge_spectral_flow(builtin_model('ham1'), side=12, nk=41, window=12)\n"
        "assert 'scipy.optimize' not in sys.modules\n"
        "assert 'scipy.sparse.csgraph' in sys.modules\n"
        "print(json.dumps(rep.flows))\n"
    )
    assert json.loads(out) == {"hinge1": 1, "hinge2": 0, "hinge3": -1, "hinge4": 0}
