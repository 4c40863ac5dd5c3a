import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import lqgmfg

MODULES = sorted(f"lqgmfg.{m.name}" for m in pkgutil.iter_modules(lqgmfg.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", [])
    assert len(set(exported)) == len(exported)
    # a stale entry breaks ``from module import *``
    assert [n for n in exported if not hasattr(mod, n)] == []


def test_package_reexports_resolve():
    # each name the package imports resolves on it and, where its module
    # declares __all__, is exported there
    tree = ast.parse(Path(lqgmfg.__file__).read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            mod = importlib.import_module(f"lqgmfg.{node.module}")
            for alias in node.names:
                assert getattr(lqgmfg, alias.name) is getattr(mod, alias.name)
                assert alias.name in getattr(mod, "__all__", [alias.name]), alias.name
