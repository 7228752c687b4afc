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


def test_fem_takes_only_nesting_violation_from_circulant_field():
    # the FE layer takes coefficient arrays; mapping a field onto a mesh
    # belongs to the hierarchy, so fem must not reach into the field module
    from mlqmcgrad import circulant_field, fem
    taken = sorted(name for name, val in vars(fem).items()
                   if val is circulant_field
                   or getattr(val, "__module__", None) == circulant_field.__name__)
    assert taken == ["NestingViolation"]


def test_test_only_helpers_live_in_the_tests():
    # reference forms that no package code calls are oracles in the tests
    from mlqmcgrad import fem, qmc
    for owner, name in ((qmc, "lattice_point"), (qmc, "radical_inverse"),
                        (qmc, "to_normal"), (fem.FeLevel, "eval_function")):
        assert not hasattr(owner, name)
        assert name not in getattr(owner, "__all__", ())
