import importlib
import pkgutil

import pytest

import decogauss

# __main__ runs the CLI when imported
MODULES = ["decogauss"] + [
    f"decogauss.{info.name}"
    for info in pkgutil.iter_modules(decogauss.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    namespace = {}
    exec(f"from {name} import *", namespace)
    for exported in getattr(module, "__all__", ()):
        assert hasattr(module, exported), f"{name}.__all__ names missing {exported!r}"


def test_package_reexports_only_exported_names():
    # every public name of the package is in the __all__ of a module
    exported = {
        item
        for info in pkgutil.iter_modules(decogauss.__path__)
        if info.name != "__main__"
        for item in getattr(importlib.import_module(f"decogauss.{info.name}"), "__all__", ())
    }
    public = {
        item
        for item, value in vars(decogauss).items()
        if not item.startswith("_") and type(value) is not type(decogauss)
    }
    assert public <= exported, sorted(public - exported)
