"""The exact kernel computes over the integers: none of ``arith.py``,
``dense.py`` and ``classical.py``, which holds ``TruncSeries``, imports
``fractions`` or names ``Fraction``. The package's one rational series is formed outside the
kernel, in ``whitney.py``."""

import ast
from pathlib import Path

import whitneylah

KERNEL = [
    Path(whitneylah.__file__).parent / name for name in ("arith.py", "classical.py", "dense.py")
]


def _rational_uses(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(
            alias.name == "fractions" for alias in node.names
        ):
            yield node, "imports fractions"
        elif isinstance(node, ast.ImportFrom) and node.module == "fractions":
            yield node, "imports fractions"
        elif (isinstance(node, ast.Name) and node.id == "Fraction") or (
            isinstance(node, ast.Attribute) and node.attr == "Fraction"
        ):
            yield node, "names Fraction"


def test_kernel_uses_no_fraction():
    found = [
        f"{path.name}:{node.lineno} {what}"
        for path in KERNEL
        for node, what in _rational_uses(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


def test_guard_sees_each_use():
    source = '''
"""A docstring may say Fraction."""
import fractions
from fractions import Fraction
x = Fraction(1, 2)
y = fractions.Fraction(3)
z: Fraction
'''
    uses = sorted(what for _, what in _rational_uses(ast.parse(source)))
    assert uses == [
        "imports fractions",
        "imports fractions",
        "names Fraction",
        "names Fraction",
        "names Fraction",
    ]
