import importlib
import pkgutil

import pytest

import hessavg

MODULES = [hessavg.__name__] + [
    f"{hessavg.__name__}.{info.name}" for info in pkgutil.iter_modules(hessavg.__path__)
]
EXPORTING = [name for name in MODULES if hasattr(importlib.import_module(name), "__all__")]


def test_modules_with_exports_found():
    assert len(EXPORTING) >= 7


@pytest.mark.parametrize("module_name", EXPORTING)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"
