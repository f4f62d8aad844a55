"""The package namespace re-exports exactly the public names of its modules,
the two heat routes stay independent of each other, and the oracle's algebra
never depends on the coupling type."""

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


def test_star_import_binds_every_exported_name():
    # the oracle's names reach the package namespace through its __getattr__
    namespace = {}
    exec("from qsubthermo import *", namespace)
    assert set(qsubthermo.__all__) <= namespace.keys()


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


def test_diagnostics_reads_the_oracle_only_through_h():
    # the audit reads [H0, H] from the edge list, so the stacks and the gauge
    # of the sectors stay inside fock
    module = importlib.import_module("qsubthermo.diagnostics")
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    names = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "fock" for a in node.names}
    assert names == {"FockConfig", "build_hamiltonian"}


# The oracle reads its sectors, its gauge and whether a sector is real from the
# matrix alone, so nothing that decides its algebra may see the coupling type.
ORACLE_ALGEBRA = [
    "_kron_entries", "sectors", "_grouped", "_stack_layout", "sector_blocks", "_eigh_sectors", "_real_gauge", "eigensystem",
    "_exchange_rows", "_half_diagonals", "_half_blocks", "_sandwich", "_heat_kernel", "_expectations", "_sector_state",
    "_evolved", "_partial_traces", "_transitions",
]


def names_read(function: str) -> set[str]:
    """Every name, attribute and argument in the body of a function of fock."""
    module = importlib.import_module("qsubthermo.fock")
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    (body,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == function]
    read = set()
    for node in ast.walk(body):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.arg):
            read.add(node.arg)
    return read


@pytest.mark.parametrize("function", ORACLE_ALGEBRA)
def test_oracle_algebra_never_reads_the_coupling_type(function):
    assert names_read(function) & {"kind", "InteractionKind", "MINIMAL_KINDS"} == set()


@pytest.mark.parametrize("function", ["_expectations", "_form"])
def test_heat_contraction_never_reads_the_exchange_split(function):
    # _heat_kernel alone lays a kernel out on a stack's split h, as blocks
    # with weights, so the contraction takes every term one way
    assert "h" not in names_read(function)


@pytest.mark.parametrize(
    "function",
    ["_exchange_rows", "_half_diagonals", "_half_blocks", "_sandwich", "_heat_kernel", "_expectations", "_form", "_sector_parts", "_transitions"],
)
def test_kernels_and_transitions_never_decide_real_or_complex(function):
    # sector_blocks alone decides whether a stack is real, and every system
    # gauges real, so the heat and transition routes, and the rows, diagonals,
    # blocks and sandwiches of the exchange halves they read, take real
    # arithmetic only; _sector_state conjugates the sandwich's left factor
    # itself, since an override's complex stacks take rho(t) too
    assert names_read(function) & {"iscomplexobj", "imag", "conj"} == set()


def test_only_main_opens_the_output():
    # one place opens --out, before any command evaluates, so no command can
    # open it late or not at all
    module = importlib.import_module("qsubthermo.cli")
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    callers = [
        function.name
        for function in tree.body if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_output"
    ]
    assert callers == ["main"]


@pytest.mark.parametrize("path", sorted(Path(qsubthermo.__file__).parent.glob("[!_]*.py")), ids=lambda p: p.stem)
def test_every_import_is_read(path):
    # an import no line reads is dead code, and it hides which module a name
    # really comes from
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names if a.name != "*"}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert bound - read == set()
