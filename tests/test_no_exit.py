"""No library function ends its caller's process. ``os._exit`` appears once
in the package, in ``cli.main``, which calls it only as the process entry;
no function calls ``sys.exit``, ``exit`` or ``quit`` or raises
``SystemExit``."""

import ast
from pathlib import Path

import whitneylah

PACKAGE = Path(whitneylah.__file__).parent


def calls_in_functions(predicate) -> list[str]:
    """``file:function`` for each node that ``predicate`` accepts, by the
    innermost function that holds it (``<module>`` outside any)."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where.split(':')[0]}:{node.name}"
        if predicate(node):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), f"{path.name}:<module>")
    return found


def names(node) -> set[str]:
    """The name an attribute or a name node refers to, or the names an
    import from a module binds."""
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.ImportFrom):
        return {alias.name for alias in node.names}
    return set()


def test_os_exit_appears_once_in_cli_main():
    assert calls_in_functions(lambda node: "_exit" in names(node)) == ["cli.py:main"]


def test_no_function_calls_sys_exit_or_raises_system_exit():
    """``python -m whitneylah.cli`` ends by ``sys.exit(main())`` at module
    level; no function of the package does."""

    def ends(node) -> bool:
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            return "SystemExit" in names(exc)
        if isinstance(node, ast.Call):
            return bool(names(node.func) & {"exit", "quit"})
        return False

    assert calls_in_functions(ends) == ["cli.py:<module>"]
