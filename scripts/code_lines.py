#!/usr/bin/env python3
"""Count the lines of Python source that hold code.

A line holds code when a token other than a comment, a newline or an
indent sits on it, and it is not part of a docstring: a string that
stands alone as a statement.  Blank lines, comment lines and docstring
lines are not counted, so deleting comments or reflowing docstrings does
not change the count.  By default the package under src/nsx is counted;
pass files or directories to count others.

    python3 scripts/code_lines.py            # the total for src/nsx
    python3 scripts/code_lines.py --files    # and one line per file
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nsx"
_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(text):
    """The number of lines of `text`, Python source, that hold code."""
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(text.encode("utf-8")).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            lines.difference_update(range(node.lineno, node.end_lineno + 1))
    return len(lines)


def python_files(paths):
    for path in paths:
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", type=Path, default=[PACKAGE], help="files or directories to count")
    ap.add_argument("--files", action="store_true", help="print the count of each file before the total")
    args = ap.parse_args()
    total = 0
    for path in python_files(args.paths):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        if args.files:
            print(f"{n:6d} {path}")
    print(f"{total:6d} total")


if __name__ == "__main__":
    main()
