"""Count the code lines of each module of ``src/lnets`` and their total.

Run: python benchmarks/code_lines.py [PACKAGE_DIR]

A code line holds part of a token other than a comment, outside
docstrings, so blank lines and comment lines do not count. Comments come
from :mod:`tokenize`; docstrings, the first string statement of a module,
class or function, from :mod:`ast`. A string that is not a docstring
counts every line it spans.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lnets"
# Tokens that hold no code: comments, line ends, indentation, markers.
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """Lines of every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code lines of the Python ``source``."""
    docs = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in NOT_CODE or (tok.type == tokenize.STRING
                                    and tok.start[0] in docs):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def count_package(package: Path) -> dict[str, int]:
    """Code lines per module of ``package``, by file name."""
    return {path.name: code_lines(path.read_text(encoding="utf-8"))
            for path in sorted(Path(package).glob("*.py"))}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("package", nargs="?", type=Path, default=PACKAGE)
    args = parser.parse_args(argv)
    counts = count_package(args.package)
    for name, n in counts.items():
        print(f"{name:16s} {n:6d}")
    print(f"{'total':16s} {sum(counts.values()):6d}")


if __name__ == "__main__":
    main()
