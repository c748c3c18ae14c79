"""Count the lines of each module of ``src/helmlayer``: all of them, and
the code lines.

    python3 tools/loc.py [TREE]

TREE is a checkout (by default the one holding this script).  A line is
code unless it is blank, holds only a comment, or lies inside the
docstring of a module, class or function (found with ``ast``).  It
prints one line per module, lines then code lines, and the totals.
"""

import argparse
import ast
from pathlib import Path

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(source):
    """(lines, code lines) of one module's source text."""
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = source.splitlines()
    code = sum(1 for i, line in enumerate(lines, 1)
               if i not in docs and line.strip() and not line.lstrip().startswith("#"))
    return len(lines), code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)
    total = [0, 0]
    for path in sorted((args.tree / "src" / "helmlayer").glob("*.py")):
        lines, code = count(path.read_text())
        total[0] += lines
        total[1] += code
        print(f"{lines:6,d} {code:6,d}  {path.name}")
    print(f"{total[0]:6,d} {total[1]:6,d}  total")


if __name__ == "__main__":
    main()
