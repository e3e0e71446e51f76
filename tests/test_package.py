"""Package surface: every exported name resolves, and the package exports
exactly what its library modules export.

A stale string in an ``__all__`` list breaks only ``from gdruin import *``
at run time; these tests make it fail the suite instead.  The same holds
for the functions the benchmark's tracer times: a deleted one fails here
with its name.  Every name a module imports is used there or re-exported,
and every private module-level name is read somewhere in the package, so a
deletion cannot leave its imports or helpers behind.  A fresh process that
runs the CLI loads numpy and no part of scipy or of ``numpy.ma``: every run
of ``gdruin`` pays for its imports.
"""

from __future__ import annotations

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import gdruin

MODULES = sorted(info.name for info in pkgutil.iter_modules(gdruin.__path__))
SOURCES = sorted(Path(gdruin.__file__).parent.glob("*.py"))


def test_package_exports_resolve():
    assert [name for name in gdruin.__all__ if not hasattr(gdruin, name)] == []


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"gdruin.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.stem)
def test_module_imports_are_used(path):
    """Each name an import binds is read in the module or listed in its ``__all__``."""
    tree = ast.parse(path.read_text())
    imported = {
        (alias.asname or alias.name).partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    module = gdruin if path.stem == "__init__" else importlib.import_module(f"gdruin.{path.stem}")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used - set(module.__all__)) == []


def test_private_names_are_read():
    """Each private module-level def, class or assignment is read in its module, or
    in another one as an imported name or an attribute of its module."""
    defined, read = set(), set()
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined.update((path.stem, name) for name in names if name.startswith("_") and not name.endswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add((path.stem, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                read.add((node.value.id, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                read.update((node.module, alias.name) for alias in node.names)
    assert sorted(f"{module}.{name}" for module, name in defined - read) == []


def _traced_targets() -> list[tuple[str, str]]:
    """The (module, function) pairs of ``TARGETS`` in ``bench/tracer.py``, read without
    importing the benchmark."""
    tracer = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    for node in ast.parse(tracer.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return list(ast.literal_eval(node.value))
    raise AssertionError(f"no TARGETS in {tracer}")


def test_traced_functions_resolve():
    targets = _traced_targets()
    assert targets
    missing = [
        f"{module}.{func}" for module, func in targets
        if not callable(getattr(importlib.import_module(f"gdruin.{module}"), func, None))
    ]
    assert missing == []


def test_package_exports_the_library_modules():
    library = ("distributions", "mixed_poisson", "nbm", "pollaczek", "recursion", "simulate")
    union = set()
    for module in library:
        union.update(importlib.import_module(f"gdruin.{module}").__all__)
    assert set(gdruin.__all__) - {"__version__"} == union


def test_cli_runs_load_no_scipy_module(tmp_path):
    """A fresh process runs `tables` and `all` on a pmf file, an NBM spec and two mixing
    laws, which between them call the log Gamma, NegBin, Erlang and erfc helpers, and
    ends with no scipy module loaded, and no `numpy.ma`, whose import (as numpy's
    `np.unique` does on its first call) maps about 1.6 MB."""
    (tmp_path / "gd.csv").write_text("0,0.5\n1,0.3\n2,0.2\n")
    small = ["--u-max", "3", "--reps", "500", "--format", "json"]
    runs = [
        ["tables", "--n", "50", "--m", "100", "--out", "tables"],
        ["all", "--pmf-file", "gd.csv", *small, "--out", "gd.json"],
        ["all", "--weights", "0.5,0.5", "--p", "0.7", *small, "--out", "nbm.json"],
        ["all", "--mix", "erlang:2,3", *small, "--out", "erlang.json"],
        ["all", "--mix", "lognormal:-1,1", *small, "--out", "lognormal.json"],
    ]
    code = (
        "import sys; from gdruin.cli import main; "
        f"codes = [main(argv) for argv in {runs!r}]; "
        "print(codes, sorted(m for m in sys.modules "
        "if m.split('.')[0] == 'scipy' or m.split('.')[:2] == ['numpy', 'ma']))"
    )
    src = str(Path(gdruin.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[0, 0, 0, 0, 0] []"
