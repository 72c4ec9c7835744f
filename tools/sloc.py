"""Source lines of code of each ``src/memchar`` module and their total,
then those of the C kernels, ``native_src/kernels.c``, on a line of their
own, outside the total.

A Python line counts when a token other than a comment or a line break
covers it and it is not part of a docstring (the leading string of a
module, class or function body).  Blank lines, comment lines and docstrings
do not count.  A C line counts when something other than blanks and
comments is on it; a block comment may span lines.

    python tools/sloc.py            # src/memchar of this checkout
    python tools/sloc.py DIR        # every *.py directly under DIR, and
                                    # DIR/native_src/kernels.c if present
"""

from __future__ import annotations

import ast
import io
import re
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
# A C string or character literal, which may hold comment markers, or a
# comment: a block comment (across lines) or a line comment.
_C_TOKEN = re.compile(r'"(?:\\.|[^"\\\n])*"|\'(?:\\.|[^\'\\\n])*\'|/\*.*?\*/|//[^\n]*', re.S)
_C_SOURCE = Path("native_src") / "kernels.c"


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def sloc(source: str) -> int:
    """Lines of ``source`` that carry code."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - _docstring_lines(ast.parse(source)))


def c_sloc(source: str) -> int:
    """Lines of C ``source`` that are neither blank nor only comment."""
    def blank(m: re.Match) -> str:
        text = m.group()
        return text if text[0] in "\"'" else "\n" * text.count("\n")

    return sum(bool(line.strip()) for line in _C_TOKEN.sub(blank, source).splitlines())


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "memchar"
    total = 0
    for path in sorted(root.glob("*.py")):
        n = sloc(path.read_text())
        total += n
        print(f"{n:6d} {path.name}")
    print(f"{total:6d} total")
    kernels = root / _C_SOURCE
    if kernels.is_file():
        print(f"{c_sloc(kernels.read_text()):6d} {_C_SOURCE.as_posix()} (C, not in the total)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
