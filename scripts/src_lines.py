"""Line counts of the package source, the figures each change reports.

Usage: python3 scripts/src_lines.py [DIR]

DIR is a source checkout (default: this one). For DIR/src/chipmunkring/*.py
it prints two counts, and exits 2 if there is no such file:
  physical lines  every line of every file
  code lines      lines holding a token other than a comment, a line break
                  or indentation, outside statements that are a lone string
                  (docstrings and other bare string literals)
A token that spans lines, such as a multi-line string inside an expression,
counts on every line it covers.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    lone = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            lone.update(range(node.lineno, node.end_lineno + 1))
    rows = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            rows.update(range(tok.start[0], tok.end[0] + 1))
    return len(rows - lone)


def main(argv) -> int:
    root = Path(argv[1] if len(argv) > 1 else Path(__file__).resolve().parent.parent)
    sources = [p.read_text() for p in sorted((root / "src" / "chipmunkring").glob("*.py"))]
    if not sources:  # a mistyped DIR must not report 0 lines
        print(f"error: {root / 'src' / 'chipmunkring'} holds no .py file; "
              "usage: python3 scripts/src_lines.py [DIR]", file=sys.stderr)
        return 2
    print(f"physical lines {sum(len(s.splitlines()) for s in sources)}")
    print(f"code lines     {sum(code_lines(s) for s in sources)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
