"""Package surface: every advertised name resolves."""

import importlib
import pkgutil

import pytest

import waveobs

MODULES = ["waveobs"] + [
    f"waveobs.{info.name}"
    for info in pkgutil.iter_modules(waveobs.__path__)
    if not info.name.startswith("_")
]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    # the package's lazy exports resolve on attribute access, so a name
    # deleted from its submodule but left in the export table shows here
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)] == []
