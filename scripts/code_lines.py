#!/usr/bin/env python3
"""Count the non-blank code lines of each module of src/rigidres, and
their total.  Docstrings and lines holding only a comment are not
counted.

    python3 scripts/code_lines.py
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rigidres"
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source):
    """The non-blank lines of source outside docstrings that hold more
    than a comment."""
    skip = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                skip.update(range(first.lineno, first.end_lineno + 1))
    return sum(1 for n, line in enumerate(source.splitlines(), 1)
               if n not in skip and line.strip()
               and not line.lstrip().startswith("#"))


def main():
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:<14} {count:>5}")
    print(f"{'total':<14} {total:>5}")


if __name__ == "__main__":
    main()
