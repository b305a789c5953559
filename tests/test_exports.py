import importlib
import pkgutil

import pytest

import wishart_lab

#: modules reached by their own name: the CLI entry point and the suite registry behind it
OWN_NAMESPACE = {"cli", "verify"}

MODULES = sorted(m.name for m in pkgutil.iter_modules(wishart_lab.__path__))


@pytest.mark.parametrize("name", [m for m in MODULES if m not in OWN_NAMESPACE])
def test_every_public_name_is_exported_by_the_package(name):
    module = importlib.import_module(f"wishart_lab.{name}")
    for attr in getattr(module, "__all__", []):
        assert hasattr(module, attr), f"{name}.__all__ names {attr}, which {name} lacks"
        assert getattr(wishart_lab, attr, None) is getattr(module, attr), \
            f"wishart_lab does not export {name}.{attr}"


@pytest.mark.parametrize("name", sorted(OWN_NAMESPACE))
def test_own_namespace_modules_define_what_they_list(name):
    module = importlib.import_module(f"wishart_lab.{name}")
    assert all(hasattr(module, attr) for attr in getattr(module, "__all__", []))
