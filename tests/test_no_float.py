"""Every number the package computes is exact: no module calls ``float``,
subclasses it, or reads ``math.exp``, ``math.inf`` or ``math.log``. A
``float`` annotation, such as a timing field, stays allowed."""

import ast
from pathlib import Path

import whitneylah

PACKAGE = Path(whitneylah.__file__).parent

INEXACT_MATH = {"exp", "inf", "log"}


def _is_float(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "float"


def _float_uses(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _is_float(node.func):
            yield node, "calls float"
        elif isinstance(node, ast.ClassDef) and any(map(_is_float, node.bases)):
            yield node, "subclasses float"
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr in INEXACT_MATH
        ):
            yield node, f"reads math.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name in INEXACT_MATH:
                    yield node, f"imports math.{alias.name}"


def test_package_uses_no_float():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno} {what}" for node, what in _float_uses(tree)]
    assert found == []


def test_guard_sees_each_use():
    source = """
import math
from math import exp
x = float(3)
class Approx(float):
    pass
y = math.exp(1) + math.inf + math.log(2)
elapsed: float = 0
"""
    uses = sorted(what for _, what in _float_uses(ast.parse(source)))
    assert uses == [
        "calls float",
        "imports math.exp",
        "reads math.exp",
        "reads math.inf",
        "reads math.log",
        "subclasses float",
    ]
