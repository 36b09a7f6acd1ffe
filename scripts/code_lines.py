"""Code lines per module of the ``pslwave`` package: lines that are not blank, comment or docstring.

    python3 scripts/code_lines.py [--against DIR]

A line counts when a token other than a comment starts on it, ends on it or
spans it (``tokenize``), unless it belongs to a docstring: the string that
is the first statement of a module, class or function (``ast``).  A
multi-line string that is not a docstring counts on every line.  The script
prints one row per module of this checkout's ``src/pslwave`` and a total.
``--against DIR`` counts the ``pslwave`` package under ``DIR`` as well (a
``src/`` directory, say of another checkout) and adds its count and the
difference, this tree minus DIR, so a change states its reduction as code
lines rather than as ``wc -l``.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
_NOT_CODE = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER)


def code_lines(source: str) -> int:
    """The lines of ``source`` that hold code: not blank, comment or docstring."""
    docs: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        scoped = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        if isinstance(node, scoped) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docs.update(range(first.lineno, first.end_lineno + 1))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docs)


def package_lines(src: Path) -> dict[str, int]:
    """Code lines of each module of the ``pslwave`` package under ``src``, by file name."""
    return {path.name: code_lines(path.read_text(encoding="utf-8"))
            for path in sorted((src / "pslwave").glob("*.py"))}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, default=None,
                        help="directory holding another pslwave package to compare with")
    args = parser.parse_args(argv)
    ours = package_lines(SRC)
    if args.against is None:
        for name, n in [*ours.items(), ("total", sum(ours.values()))]:
            print(f"{name:18s} {n:6d}")
        return 0
    theirs = package_lines(args.against)
    print(f"{'module':18s} {'this':>6s} {'against':>7s} {'change':>6s}")
    rows = [(name, ours.get(name, 0), theirs.get(name, 0)) for name in sorted(ours | theirs)]
    rows.append(("total", sum(ours.values()), sum(theirs.values())))
    for name, a, b in rows:
        print(f"{name:18s} {a:6d} {b:7d} {a - b:+6d}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
