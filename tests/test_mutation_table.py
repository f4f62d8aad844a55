"""The rows of ``mutants.py`` still apply to the tree, checked without running their tests.

A row goes stale when the code under its old text moves, or when its named
test is renamed; ``python3 tests/mutants.py`` would then fail only when run.
"""

import ast
from pathlib import Path

import pytest

from mutants import COPIED, MUTANTS, ROOT

ROWS = pytest.mark.parametrize("row", MUTANTS, ids=[str(index) for index in range(len(MUTANTS))])


def defined_tests(path: Path) -> set[str]:
    """The test functions of a module, as pytest names them: 'name' or 'Class::name'."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            names.update(f"{node.name}::{item.name}" for item in node.body if isinstance(item, ast.FunctionDef))
    return names


@ROWS
def test_old_text_occurs_once(row):
    assert (ROOT / row.file).read_text(encoding="utf-8").count(row.old) == 1


@ROWS
def test_named_test_exists(row):
    module, _, name = row.test.partition("::")
    assert name.split("[", 1)[0] in defined_tests(ROOT / module)


@ROWS
def test_file_is_in_the_copied_tree(row):
    # a row's file outside what copy_tree copies would be mutated nowhere
    assert any(Path(row.file).is_relative_to(name) for name in COPIED)
