"""The package exports exactly what its modules declare public, and ships
the source files it reads at run time."""

import importlib
import json
import pkgutil
import re
import types
from pathlib import Path

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


def test_package_data_ships_the_annealing_kernel_source():
    # an installed package builds its C annealing kernel from this file
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    section = re.search(r"^\[tool\.setuptools\.package-data\]\ndpoqubo = (\[.*\])$", text, re.M)
    package = Path(dpoqubo.__file__).parent
    shipped = {path for glob in json.loads(section.group(1)) for path in package.glob(glob)}
    assert package / "_anneal.c" in shipped
