"""No function or method of the package calls itself by name: a
self-recursive build meets the interpreter's recursion limit at a depth
that ordinary inputs reach, so every such build is a loop instead."""

import ast
from pathlib import Path

import whitneylah

PACKAGE = Path(whitneylah.__file__).parent


def _calls_itself(fn: ast.FunctionDef, owners: set[str]) -> bool:
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id == fn.name and not owners:
            return True
        if (
            isinstance(f, ast.Attribute)
            and f.attr == fn.name
            and isinstance(f.value, ast.Name)
            and f.value.id in owners
        ):
            return True
    return False


def _self_recursive(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _calls_itself(node, set()):
                yield node
        elif isinstance(node, ast.ClassDef):
            owners = {"self", "cls", node.name}
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if _calls_itself(item, owners):
                        yield item


def test_no_function_or_method_calls_itself():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{fn.lineno} {fn.name}" for fn in _self_recursive(tree)]
    assert found == []


def test_guard_sees_a_recursive_function_and_method():
    tree = ast.parse(
        "def f(n):\n    return 1 if n == 0 else n * f(n - 1)\n"
        "class C:\n    def m(self, n):\n        return self.m(n - 1) if n else 0\n"
        "def g(n):\n    return [f(i) for i in range(n)]\n"
    )
    assert [fn.name for fn in _self_recursive(tree)] == ["f", "m"]
