"""Count the code lines of Python sources.

A code line holds a token other than a comment or a line break, and
is not part of a docstring (the string that opens a module, class or
function body).  Blank lines, comment lines and docstrings count
nothing.

    python tools/code_lines.py src/schurlab

prints the total over the arguments, files or directories searched
for ``*.py``.  Standard library only.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source):
    """The number of code lines in the text of one Python module."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def _sources(paths):
    for path in map(Path, paths):
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(paths):
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    print(sum(code_lines(p.read_text(encoding="utf-8")) for p in _sources(paths)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
