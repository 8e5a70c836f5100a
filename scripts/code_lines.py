"""Print the code lines of each module of ``src/mobsum`` and their total.

A code line is a line that some node of the module's syntax tree spans and
that holds more than a comment: docstrings (of the module, its classes and
its functions), comments and blank lines do not count.

    python scripts/code_lines.py

With ``--against DIR`` it prints the counts of the checkout at DIR in a
second column, with "-" for a module that one of the two trees lacks:

    python scripts/code_lines.py --against ../parent
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of the docstrings of the module and its classes and functions."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    tree = ast.parse(source)
    text = source.splitlines()
    spanned = set()
    for node in ast.walk(tree):
        if getattr(node, "lineno", None) is not None:
            spanned.update(range(node.lineno, node.end_lineno + 1))
    code = {n for n in spanned if text[n - 1].strip() and not text[n - 1].lstrip().startswith("#")}
    return len(code - docstring_lines(tree))


def counts(root: Path) -> dict[str, int]:
    """The code lines of every module of ``src/mobsum`` under ``root``, by file name."""
    modules = sorted((root / "src" / "mobsum").glob("*.py"))
    return {p.name: code_lines(p.read_text()) for p in modules}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--against", type=Path, help="a checkout whose counts to print beside")
    args = ap.parse_args(argv)
    tables = [counts(Path(__file__).resolve().parents[1])]
    if args.against is not None:
        tables.append(counts(args.against.resolve()))
    names = sorted(set().union(*tables))
    for name in [*names, "total"]:
        cells = [
            str(sum(t.values()) if name == "total" else t.get(name, "-")) for t in tables
        ]
        print(f"{name:<16}" + "".join(f"{c:>8}" for c in cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
