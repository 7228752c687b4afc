import importlib
import pkgutil

import pytest

import mlqmcgrad

MODULES = sorted(m.name for m in pkgutil.iter_modules(mlqmcgrad.__path__)
                 if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a name deleted from a module must leave its __all__ too
    mod = importlib.import_module(f"mlqmcgrad.{name}")
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert missing == []
