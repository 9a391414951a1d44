"""Only the engine's own module names ``_row`` and its memo ``_ROWS``:
every other module reads the triangle engine through ``classical._cell`` and
``classical._row_sum``, which hold the zero outside the triangle, so no
family restates that rule or indexes a row itself. The memo registers itself
in ``classical._MEMOS`` where it is defined, so ``Report.caches`` and
``clear_caches()`` reach it through that table, not by name."""

import ast
from pathlib import Path

import whitneylah

PACKAGE = Path(whitneylah.__file__).parent
PRIVATE = ("_row", "_ROWS")


def _names_private(tree: ast.Module) -> list[int]:
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in PRIVATE:
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr in PRIVATE:
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if any(alias.name in PRIVATE for alias in node.names):
                lines.append(node.lineno)
    return lines


def test_only_classical_names_the_row_builder():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "classical.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}" for line in _names_private(tree)]
    assert found == []


def test_guard_sees_an_import_a_call_and_an_attribute():
    tree = ast.parse(
        "from .classical import _row as r, lah\n"
        "import whitneylah.classical as c\n"
        "def f(n, k):\n    return c._row(w, 1, n, k)[k] + _row(w, 1, n, k)[k]\n"
        "def g(n):\n    return _rows(n)\n"
        "from .classical import _ROWS\n"
        "def h():\n    return len(c._ROWS) + len(_ROWS)\n"
    )
    assert sorted(_names_private(tree)) == [1, 4, 4, 7, 9, 9]
