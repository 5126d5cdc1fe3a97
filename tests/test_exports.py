import importlib
import pkgutil

import pytest

import archemo

MODULES = sorted(m.name for m in pkgutil.iter_modules(archemo.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a name left in __all__ after its definition is deleted breaks `import *`
    module = importlib.import_module(f"archemo.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"archemo.{name}.__all__ lists undefined names {missing}"
