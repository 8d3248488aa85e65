"""Every name the package and its modules export resolves."""

import importlib
import pkgutil

import pytest

import ma_singular

MODULES = ["ma_singular"] + [
    f"ma_singular.{info.name}"
    for info in pkgutil.iter_modules(ma_singular.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [entry for entry in getattr(module, "__all__", ())
               if not hasattr(module, entry)]
    assert not missing
