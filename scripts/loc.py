#!/usr/bin/env python3
"""Count code lines per module of a Python package, and their total.

A code line is one that is not blank, not a `#` comment and not part of a
docstring.  Docstrings are found with `ast`: the leading string statement of
a module, class or function.  Run from the repository root:

    python scripts/loc.py [package_dir]      # default: src/freejacobi
"""

import ast
import sys
from pathlib import Path


def docstring_lines(tree):
    """Line numbers spanned by the docstrings of a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path):
    """Number of code lines in one source file."""
    text = path.read_text()
    skip = docstring_lines(ast.parse(text))
    return sum(1 for i, line in enumerate(text.splitlines(), start=1)
               if i not in skip and line.strip()
               and not line.lstrip().startswith("#"))


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0] if args else "src/freejacobi")
    files = sorted(root.rglob("*.py"))
    if not files:
        print(f"error: no Python files under {root}", file=sys.stderr)
        return 2
    total = 0
    for f in files:
        n = code_lines(f)
        total += n
        print(f"{n:6d}  {f.relative_to(root)}")
    print(f"{total:6d}  total ({root})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
