"""Count the code lines of each package module and the names the package exports.

Usage::

    python3 scripts/count_code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to ``src/auglobatto`` of this checkout.  A code line
is a non-blank line that holds a token outside comments and outside module,
class and function docstrings; a string that spans lines counts on each of
them.  Prints one ``module lines`` row per module, the total, and the length
of ``__init__.py``'s ``__all__``.  Uses the standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set:
    """Line numbers covered by a module, class or function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    """Number of code lines in ``source``, as defined in the module docstring."""
    skip = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def export_count(init_source: str) -> int:
    """Length of the list literal assigned to ``__all__``."""
    for node in ast.parse(init_source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return len(node.value.elts)
    raise ValueError("no __all__ assignment")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    package = Path(argv[0]) if argv else ROOT / "src" / "auglobatto"
    total = 0
    for path in sorted(package.glob("*.py")):
        lines = count_code_lines(path.read_text(encoding="utf-8"))
        total += lines
        print(f"{path.stem} {lines}")
    print(f"total {total}")
    print(f"__all__ {export_count((package / '__init__.py').read_text(encoding='utf-8'))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
