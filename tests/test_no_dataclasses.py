"""No package module imports ``dataclasses``: it loads ``inspect``, ``ast``
and a dozen more stdlib modules, which every cold ``series`` and ``verify``
call would pay for. Records are NamedTuples or ``__slots__`` classes."""

import ast
from pathlib import Path

import whitneylah

PACKAGE = Path(whitneylah.__file__).parent


def _dataclasses_imports(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "dataclasses":
                    yield node, f"import {alias.name}"
        elif (
            isinstance(node, ast.ImportFrom)
            and node.level == 0  # not a module of the package named so
            and node.module.split(".")[0] == "dataclasses"
        ):
            yield node, "from dataclasses import " + ", ".join(a.name for a in node.names)


def test_package_imports_no_dataclasses():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno} {what}" for node, what in _dataclasses_imports(tree)
        ]
    assert found == []


def test_guard_sees_each_import():
    source = """
import dataclasses
import json, dataclasses as dc
from dataclasses import dataclass, field
def f():
    from dataclasses import replace
from .dataclasses import nothing
"""
    imports = sorted(what for _, what in _dataclasses_imports(ast.parse(source)))
    assert imports == [
        "from dataclasses import dataclass, field",
        "from dataclasses import replace",
        "import dataclasses",
        "import dataclasses",
    ]
