"""Products of q-integers live in one place, ``qcalc.gqf_point``: no other
code of the package multiplies a running value by ``qint`` or
``qint_signed`` inside a ``for`` loop. A q-factorial, a q-falling factorial
or a product of shifted q-integers is a generalized q-factorial
[t|alpha]_n, so it is read from, and stored in, the one prefix memo of
``gqf_point``."""

import ast
from pathlib import Path

import whitneylah

PACKAGE = Path(whitneylah.__file__).parent
FACTORS = ("qint", "qint_signed")


def _is_factor(node: ast.AST) -> bool:
    """A call of ``qint`` or ``qint_signed``, by name or as an attribute."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return getattr(func, "id", getattr(func, "attr", None)) in FACTORS


def _multiplies_by_a_factor(node: ast.AST) -> bool:
    """``x = x * f(...)``, ``x = f(...) * x`` or ``x *= f(...)``."""
    if isinstance(node, ast.AugAssign):
        return isinstance(node.op, ast.Mult) and _is_factor(node.value)
    if not (
        isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and isinstance(node.value, ast.BinOp)
        and isinstance(node.value.op, ast.Mult)
    ):
        return False
    name, pair = node.targets[0].id, (node.value.left, node.value.right)
    return any(
        isinstance(x, ast.Name) and x.id == name and _is_factor(f)
        for x, f in (pair, pair[::-1])
    )


def _running_products(tree: ast.Module) -> set[int]:
    """The lines of the running products by a q-integer inside ``for`` loops."""
    return {
        node.lineno
        for loop in ast.walk(tree)
        if isinstance(loop, ast.For)
        for node in ast.walk(loop)
        if _multiplies_by_a_factor(node)
    }


def test_only_gqf_point_multiplies_out_q_integers():
    found, owned = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = _running_products(tree)
        if path.name == "qcalc.py":
            owner = next(
                node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "gqf_point"
            )
            owned = {line for line in lines if owner.lineno <= line <= owner.end_lineno}
            lines -= owned
        found += [f"{path.name}:{line}" for line in sorted(lines)]
    assert found == []
    assert len(owned) == 1  # the guard sees the one loop it exempts


def test_guard_sees_each_form_inside_a_loop_only():
    tree = ast.parse(
        "def f(n):\n"
        "    out = 1\n"
        "    for m in range(n):\n"
        "        out = out * qint(m)\n"
        "        out = qcalc.qint_signed(-m) * out\n"
        "        out *= qint(m, 2)\n"
        "        other = out * qint(m)\n"
        "        out = out * monomial(m)\n"
        "    return out * qint(n)\n"
    )
    assert sorted(_running_products(tree)) == [4, 5, 6]
