import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import agemix

MODULES = sorted(m.name for m in pkgutil.iter_modules(agemix.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"agemix.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_package_imports_exist_and_are_exported():
    # every name agemix/__init__.py takes from a submodule is on the package
    # and in that submodule's __all__
    tree = ast.parse(Path(agemix.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.module]
    assert imports
    for node in imports:
        module = importlib.import_module(f"agemix.{node.module}")
        for alias in node.names:
            assert hasattr(agemix, alias.asname or alias.name), alias.name
            assert alias.name in module.__all__, f"{node.module}.{alias.name}"
