import importlib
import pkgutil

import pytest

import metric_forge

MODULES = sorted(
    info.name
    for info in pkgutil.iter_modules(metric_forge.__path__)
    if hasattr(importlib.import_module(f"metric_forge.{info.name}"), "__all__")
)


def test_modules_declare_exports():
    assert {"analysis", "closedform", "continuum", "exact", "hamiltonian", "oracle"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_reach_the_package(name):
    module = importlib.import_module(f"metric_forge.{name}")
    for export in module.__all__:
        assert getattr(metric_forge, export) is getattr(module, export), export
