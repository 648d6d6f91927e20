"""Integrity of the lazy package exports (PEP 562).

A package ``__init__`` maps each public name to its defining submodule
and imports it on first access.  A typo in one of those tables would
otherwise surface only at a user's first call.
"""

from __future__ import annotations

import importlib

import pytest

PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.engine",
    "repro.experiments",
    "repro.kernel",
    "repro.model",
    "repro.overhead",
)


@pytest.mark.parametrize("name", PACKAGES)
def test_every_export_is_its_submodule_object(name):
    package = importlib.import_module(name)
    exports = package._EXPORTS
    assert set(exports) <= set(package.__all__)
    for export in package.__all__:
        value = getattr(package, export)
        if export not in exports:  # defined in the __init__ itself
            assert export in vars(package)
            continue
        submodule = importlib.import_module(f"{name}.{exports[export]}")
        assert value is getattr(submodule, export)
        # Straight through the loader, even when the value is cached.
        assert package.__getattr__(export) is value


@pytest.mark.parametrize("name", PACKAGES)
def test_exports_listed_by_dir(name):
    package = importlib.import_module(name)
    assert set(package.__all__) <= set(dir(package))


@pytest.mark.parametrize("name", PACKAGES)
def test_unknown_name_raises_attribute_error(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match="no_such_export"):
        package.no_such_export


def test_star_import():
    namespace: dict = {}
    exec("from repro import *", namespace)
    import repro

    for export in repro.__all__:
        assert namespace[export] is getattr(repro, export)
    assert namespace["KernelSim"].__name__ == "KernelSim"
