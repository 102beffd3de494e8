"""The declared public names of every lumaforge module resolve.

`__all__` lists are strings, so a name deleted from a module but left in its
`__all__` only fails on `from module import *`. This walks every module of the
package, and the package itself.
"""

import importlib
import pkgutil

import pytest

import lumaforge

MODULES = ["lumaforge"] + [
    f"lumaforge.{info.name}" for info in pkgutil.iter_modules(lumaforge.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    declared = getattr(module, "__all__", None)
    if declared is None:
        return
    assert len(set(declared)) == len(declared), "duplicate names in __all__"
    assert [n for n in declared if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    namespace = {}
    exec(f"from {name} import *", namespace)
    declared = getattr(importlib.import_module(name), "__all__", None)
    if declared is not None:
        assert set(declared) <= set(namespace)


def test_package_reexports_are_declared_public():
    """Every name the package takes from a module is in that module's __all__."""
    for name in dir(lumaforge):
        value = getattr(lumaforge, name)
        home = getattr(value, "__module__", None)
        if name.startswith("_") or not (home or "").startswith("lumaforge."):
            continue
        declared = getattr(importlib.import_module(home), "__all__", None)
        if declared is not None:
            assert name in declared, f"lumaforge.{name} is not in {home}.__all__"
