"""The package namespace re-exports exactly the public names of its modules,
and the two heat routes stay independent of each other."""

import ast
import importlib
from pathlib import Path

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


@pytest.mark.parametrize("name", ["analytic", "fock"])
def test_routes_import_only_model(name):
    # the closed forms and the oracle cross-validate each other, so what they
    # share (the heat report, the time rule) lives in model and neither route
    # imports the other
    module = importlib.import_module(f"qsubthermo.{name}")
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    internal = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("qsubthermo")):
            internal |= {node.module.rpartition(".")[2]} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            internal |= {a.name for a in node.names if a.name.startswith("qsubthermo")}
    assert internal == {"model"}
