"""Count the code lines and docstring lines of Python modules, per module
and per function.

    python3 scripts/code_lines.py [--functions] [FILE ...]

FILE defaults to every module of src/yamada.  A code line is a line that
holds a token other than a comment, a line break or an indent, outside
a docstring; a docstring line is a line that a docstring spans (the
string that opens a module, class or function body).  Blank lines and
comment lines count as neither.  Prints one line per module:

  module PATH code C docstring D

and with --functions, after each module, one line per function and
class, its methods and nested functions included, by qualified name,
its decorators not counted:

  function PATH QUALNAME code C docstring D

A function's counts include those of the functions nested in it, and a
class's those of its methods.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_SKIP = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The lines spanned by the docstrings of the module, its classes
    and its functions."""
    out: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, *_SCOPES)) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def _token_lines(source: str) -> set[int]:
    """The lines that hold a token other than a comment, a line break or
    an indent; a token over several lines marks each of them."""
    out: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            out.update(range(tok.start[0], tok.end[0] + 1))
    return out


def count(source: str) -> tuple[tuple[int, int], list[tuple[str, int, int]]]:
    """((code, docstring) lines of the module, [(qualified name, code,
    docstring) of each function and class, in source order])."""
    tree = ast.parse(source)
    docs = _docstring_lines(tree)
    code = _token_lines(source) - docs
    functions = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _SCOPES):
                name = prefix + child.name
                span = set(range(child.lineno, child.end_lineno + 1))
                functions.append((name, len(span & code), len(span & docs)))
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return (len(code), len(docs)), functions


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--functions", action="store_true",
                    help="also print one line per function and class")
    ap.add_argument("files", nargs="*", type=Path)
    args = ap.parse_args(argv)
    files = args.files or sorted((ROOT / "src" / "yamada").glob("*.py"))
    for path in files:
        (code, docs), functions = count(path.read_text())
        print(f"module {path} code {code} docstring {docs}")
        if args.functions:
            for name, c, d in functions:
                print(f"function {path} {name} code {c} docstring {d}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
