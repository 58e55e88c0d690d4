"""Static checks of the library's source: it writes to the console only
from the command line's ``main``, it logs through one logger per module,
a child of the ``lnets`` logger, only ``lnets.errors`` builds a located
error, and each of its error types is public and raised."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lnets"
MODULES = sorted(PACKAGE.glob("*.py"))


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


def test_only_errors_builds_located_errors():
    # Every re-raise that adds a caller's location goes through
    # errors.locating or errors.relabeled, which keep the inner fields.
    callers = {(module, scope) for module, scope, call in CALLS
               if called_name(call) == "located"}
    assert callers
    assert {module for module, _ in callers} == {"errors"}


def error_types():
    """Names of the ``LnetsError`` subclasses defined in ``lnets.errors``."""
    tree = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    found = {"LnetsError"}
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                getattr(base, "id", None) in found for base in node.bases):
            found.add(node.name)
    return found - {"LnetsError"}


def raised_names():
    """Names in a ``raise`` statement or in the class slot of a
    ``(bad, cls, message)`` check of ``lnets.errors.raise_first``."""
    names = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise):
                names |= {n.id for n in ast.walk(node)
                          if isinstance(n, ast.Name)}
            elif isinstance(node, ast.Tuple) and len(node.elts) == 3:
                names.add(getattr(node.elts[1], "id", None))
    return names


def test_every_error_type_is_exported_and_raised():
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exported = {alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) and node.module == "errors"
                for alias in node.names}
    types = error_types()
    assert {"ConfigError", "IrregularError", "TracingError"} <= types
    assert types - exported == set()
    assert types - raised_names() == set()
