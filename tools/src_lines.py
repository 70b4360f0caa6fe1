"""Line counts of the package sources: all lines, and code lines.

    python3 tools/src_lines.py [TREE]

For each module under TREE/src/potts_hodge (TREE defaults to this
checkout) and in total, prints the number of lines as `wc -l` counts
them and the number of code lines: lines that hold a token other than
a comment, with the docstrings of the module, its classes and its
functions left out.  Blank lines are not code lines.  Stdlib only.
"""
from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers that the docstrings of the module, its classes
    and its functions span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(source):
    """(lines, code lines) of one module's source text."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(code - docstring_lines(ast.parse(source)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", nargs="?", default=str(ROOT),
                        help="checkout whose src/potts_hodge is counted (default: this one)")
    args = parser.parse_args(argv)
    package = Path(args.tree) / "src" / "potts_hodge"
    modules = sorted(package.glob("*.py"))
    if not modules:
        raise SystemExit(f"no modules under {package}")
    total_lines = total_code = 0
    print(f"{'module':<16}{'lines':>7}{'code':>7}")
    for path in modules:
        lines, code = count_lines(path.read_text(encoding="utf-8"))
        total_lines += lines
        total_code += code
        print(f"{path.name:<16}{lines:>7}{code:>7}")
    print(f"{'total':<16}{total_lines:>7}{total_code:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
