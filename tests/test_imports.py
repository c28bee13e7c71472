"""Every module of the package imports on its own, in a fresh interpreter.

`torwave/__init__.py` imports the modules in one fixed order, which can hide
an import cycle: a module that only works once another has been loaded first.
So each module is loaded here under an empty `torwave` package, with nothing
imported before it but what its own import lines pull in.  Each module also
reads every name it imports: a helper that moves between modules must not
leave a stale import behind.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "torwave"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")

LOAD = """
import importlib, sys, types
package = types.ModuleType("torwave")
package.__path__ = [sys.argv[1]]
sys.modules["torwave"] = package
importlib.import_module("torwave." + sys.argv[2])
"""


def test_the_package_has_modules():
    assert {"core", "harness", "operators", "samples", "sublinear"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    done = subprocess.run([sys.executable, "-c", LOAD, str(PACKAGE), module],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def _unused_imports(tree: ast.Module) -> list:
    """Names bound by the import statements of `tree` that it never reads."""
    bound = [(alias.asname or alias.name).split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom)) and
             getattr(node, "module", None) != "__future__"
             for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_import_is_found():
    assert _unused_imports(ast.parse("import math\nfrom os import path, sep\nsep")) \
        == ["math", "path"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    assert _unused_imports(tree) == []
