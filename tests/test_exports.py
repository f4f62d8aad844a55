"""The package namespace re-exports exactly the public names of its modules."""

import importlib

import pytest

import qsubthermo

MODULES = [importlib.import_module(f"qsubthermo.{name}") for name in ("model", "analytic", "fock", "diagnostics")]


@pytest.mark.parametrize("module", [qsubthermo, *MODULES], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_exports_are_the_module_exports():
    union = set().union(*(module.__all__ for module in MODULES))
    assert set(qsubthermo.__all__) == union | {"__version__", "adaptive_simpson"}
