"""Static checks of the library's source: it writes to the console only
from the command line's ``main``, and it logs through one logger per
module, a child of the ``lnets`` logger."""

import ast
from pathlib import Path

MODULES = sorted((Path(__file__).resolve().parent.parent / "src" / "lnets")
                 .glob("*.py"))


def scoped_calls(path):
    """``(module, scope, call)`` for every call in the module at ``path``:
    ``scope`` is the dotted name of the innermost enclosing function or
    class, ``""`` at module level."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if isinstance(child, ast.Call):
                out.append((path.stem, scope, child))
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return out


def called_name(call):
    func = call.func
    return getattr(func, "id", None) or getattr(func, "attr", None)


CALLS = [item for path in MODULES for item in scoped_calls(path)]


def test_only_cli_main_prints():
    printers = {(module, scope) for module, scope, call in CALLS
                if called_name(call) == "print"}
    assert printers == {("cli", "main")}


def test_loggers_are_named_after_their_modules():
    made = [(module, ast.unparse(call)) for module, _, call in CALLS
            if called_name(call) in ("getLogger", "Logger")]
    assert made
    assert [item for item in made
            if item[1] != "logging.getLogger(__name__)"] == []
