"""The package exports exactly what its modules declare public."""

import importlib
import pkgutil
import types

import dpoqubo


def test_package_exports_equal_union_of_module_all():
    declared = set()
    for module in pkgutil.iter_modules(dpoqubo.__path__):
        if module.name != "cli":  # the command line exports nothing
            declared |= set(importlib.import_module(f"dpoqubo.{module.name}").__all__)
    exported = {
        name
        for name, value in vars(dpoqubo).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == declared
