"""Package surface: every exported name resolves, and the package exports
exactly what its library modules export.

A stale string in an ``__all__`` list breaks only ``from gdruin import *``
at run time; these tests make it fail the suite instead.  A fresh process
that imports the CLI loads numpy and scipy.special, and no heavier part of
scipy: every run of ``gdruin`` pays for its imports.
"""

from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import gdruin

MODULES = sorted(info.name for info in pkgutil.iter_modules(gdruin.__path__))


def test_package_exports_resolve():
    assert [name for name in gdruin.__all__ if not hasattr(gdruin, name)] == []


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"gdruin.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_package_exports_the_library_modules():
    library = ("distributions", "mixed_poisson", "nbm", "pollaczek", "recursion", "simulate")
    union = set()
    for module in library:
        union.update(importlib.import_module(f"gdruin.{module}").__all__)
    assert set(gdruin.__all__) - {"__version__"} == union


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    heavy = ("scipy.integrate", "scipy.optimize", "scipy.linalg", "scipy.sparse", "scipy.stats")
    code = f"import sys, gdruin.cli; print([m for m in {heavy!r} if m in sys.modules])"
    src = str(Path(gdruin.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
