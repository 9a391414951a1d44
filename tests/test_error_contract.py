"""One error contract: every error a caller's input causes is a
``DomainError``, and the CLI reports it, whatever raised it, as one
``error:`` line with exit code 2.

Two AST walks of the package keep the contract: every exception class it
defines derives from ``DomainError``, and every ``raise`` names such a
class or a builtin that ``BUILTIN_RAISES`` lists with its reason.
"""

import ast
import builtins
from importlib import import_module
from pathlib import Path

import pytest

import whitneylah
from whitneylah import classical, whitney
from whitneylah.classical import DomainError
from whitneylah.cli import main

PACKAGE = Path(whitneylah.__file__).parent

# (file:where, builtin) -> why that raise is not a DomainError
BUILTIN_RAISES = {
    ("__init__.py:__getattr__", "AttributeError"): "a module attribute lookup",
    ("arith.py:_scalar", "TypeError"): "a coefficient's type",
    ("arith.py:LaurentPoly.__init__", "TypeError"): "an exponent's type",
    ("arith.py:monomial", "TypeError"): "an exponent's type",
    ("classical.py:TruncSeries.coeff", "IndexError"): "an index past the truncation order",
    ("dense.py:lp_dot", "TypeError"): "an operand's type",
    ("verify.py:_Frozen.__setattr__", "AttributeError"): "an immutable record",
    ("verify.py:_Frozen.__delattr__", "AttributeError"): "an immutable record",
    ("verify.py:run_suite", "TypeError"): "a call signature: a Config and keywords",
    ("whitney.py:_dowling_dobinski", "ArithmeticError"): "an internal certification"
    " failure, not an input: the bracket holds no single integer",
}

# each exception class of the package -> the builtin base it keeps
BUILTIN_BASE = {
    "DomainError": ValueError,
    "DivisionByZero": ZeroDivisionError,
    "NonExactDivision": ArithmeticError,
    "InvalidAlpha": ValueError,
    "InvalidOrder": ValueError,
    "NegativeArgument": ValueError,
    "DuplicateBValues": ValueError,
    "InvalidConfig": ValueError,
    "ParamsOutOfDomain": ValueError,
    "UnknownIdentity": ValueError,
}


def modules():
    """(file name, module, syntax tree) of each module of the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        name = "whitneylah" if path.stem == "__init__" else f"whitneylah.{path.stem}"
        yield path.name, import_module(name), ast.parse(path.read_text(), filename=str(path))


def resolve(module, node):
    """The object a name or an attribute node names in ``module``, or None."""
    if isinstance(node, ast.Name):
        return getattr(module, node.id, getattr(builtins, node.id, None))
    if isinstance(node, ast.Attribute):
        return getattr(resolve(module, node.value), node.attr, None)
    return None


def is_exception(obj) -> bool:
    return isinstance(obj, type) and issubclass(obj, BaseException)


def exception_classes() -> dict[str, type]:
    """Each class the package defines with an exception among its bases."""
    found = {}
    for _, module, tree in modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                is_exception(resolve(module, base)) for base in node.bases
            ):
                found[node.name] = getattr(module, node.name)
    return found


def raises() -> list[tuple[str, object]]:
    """``(file:where, raised class)`` of each ``raise`` with an exception,
    ``where`` the innermost class and function that hold it."""
    found = []

    def visit(node, where, module, outer):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            outer = f"{outer}.{node.name}" if outer else node.name
            where = f"{where.split(':')[0]}:{outer}"
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            found.append((where, resolve(module, exc)))
        for child in ast.iter_child_nodes(node):
            visit(child, where, module, outer)

    for file, module, tree in modules():
        visit(tree, f"{file}:<module>", module, "")
    return found


def test_every_exception_class_is_a_domain_error_and_keeps_its_builtin_base():
    classes = exception_classes()
    assert set(classes) == set(BUILTIN_BASE)
    for name, cls in classes.items():
        assert issubclass(cls, DomainError), name
        assert issubclass(cls, BUILTIN_BASE[name]), name


def test_every_raise_is_a_domain_error_or_a_listed_builtin():
    raised = raises()
    assert raised
    builtin = set()
    for where, cls in raised:
        assert is_exception(cls), where
        if not issubclass(cls, DomainError):
            assert (where, cls.__name__) in BUILTIN_RAISES, where
            builtin.add((where, cls.__name__))
    # every listed raise is still there
    assert builtin == set(BUILTIN_RAISES)


@pytest.mark.parametrize("name", sorted(BUILTIN_BASE))
def test_a_family_that_raises_any_package_error_exits_2_with_one_line(
    name, monkeypatch, capsys
):
    """Whatever error class a family function raises, the CLI catches it:
    ``DuplicateBValues`` too, which no family raises today."""
    cls = getattr(whitneylah, name)

    def rejects(*args):
        raise cls(f"rejected {args}")

    monkeypatch.setattr(whitney, "tw1", rejects)
    monkeypatch.setattr(classical, "lah", rejects)
    assert main(["eval", "--family", "whitney1", "--alpha", "2", "--n", "3", "--k", "1"]) == 2
    assert capsys.readouterr() == ("", "error: rejected (2, 3, 1)\n")
    assert main(["table", "--family", "lah", "--n-max", "2"]) == 2
    assert capsys.readouterr() == ("", "error: rejected (0, 0)\n")


@pytest.mark.parametrize(
    "argv, line",
    [
        (("eval", "--family", "lah", "--n", "3"), "family 'lah' needs --k"),
        (("eval", "--family", "bell", "--n", "3", "--k", "1"),
         "family 'bell' does not take --k"),
        (("table", "--family", "bell", "--alpha", "2", "--n-max", "3"),
         "family 'bell' does not take --alpha"),
        (("table", "--family", "bell", "--n-max", "-1"), "--n-max must be non-negative"),
        (("series", "--id", "r3", "--k", "-1", "--order", "3"), "--k must be non-negative"),
        (("verify", "--alpha-list", "1,x"),
         "--alpha-list must be comma-separated integers, got '1,x'"),
        (("verify", "--alpha-list", "1,1"), "alpha_list repeats alpha 1"),
    ],
    ids=lambda v: "-".join(v[:3]) if isinstance(v, tuple) else None,
)
def test_the_clis_own_checks_raise_domain_errors(argv, line, capsys):
    assert main(list(argv)) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {line}\n")
