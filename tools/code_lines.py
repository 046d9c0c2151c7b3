"""Count the code lines of Python modules.

    python tools/code_lines.py PATH [PATH ...]

A code line holds a token other than a comment, and lies in no docstring
(the string that opens a module, class or function body); blank lines never
count, and every line of a multi-line statement or string does.  Each PATH
is a module or a directory searched for *.py.  Prints one `count path` line
per module, largest first, then the total.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _BODIES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        sys.exit(__doc__)
    modules = sorted({m for p in map(Path, paths)
                      for m in (sorted(p.rglob("*.py")) if p.is_dir() else [p])})
    counts = {m: code_lines(m.read_text(encoding="utf-8")) for m in modules}
    for m, n in sorted(counts.items(), key=lambda item: (-item[1], str(item[0]))):
        print(f"{n:6d} {m}")
    print(f"{sum(counts.values()):6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
