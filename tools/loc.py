"""Count the lines of each module of ``src/helmlayer``: all of them, and
the code lines; or how those counts moved against another checkout.

    python3 tools/loc.py [TREE] [--against OTHER]

TREE is a checkout (by default the one holding this script).  A line is
code unless it is blank, holds only a comment, or lies inside the
docstring of a module, class or function (found with ``ast``).  It
prints one line per module, lines then code lines, and the totals.
With ``--against OTHER`` each line also gives TREE's counts less
OTHER's, lines then code lines, over the modules of either tree (0 for
a module that a tree lacks).
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


def counts(tree):
    """{module file name: (lines, code lines)} of the checkout ``tree``,
    and their sums under "total"."""
    found = {path.name: count(path.read_text())
             for path in (tree / "src" / "helmlayer").glob("*.py")}
    found["total"] = tuple(sum(c[i] for c in found.values()) for i in (0, 1))
    return found


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--against", type=Path, default=None,
                        help="another checkout: print each count's change against it")
    args = parser.parse_args(argv)
    ours = counts(args.tree)
    theirs = ours if args.against is None else counts(args.against)
    for name in sorted((ours.keys() | theirs.keys()) - {"total"}) + ["total"]:
        (lines, code), (old_lines, old_code) = ours.get(name, (0, 0)), theirs.get(name, (0, 0))
        delta = "" if args.against is None else f" {lines - old_lines:+6,d} {code - old_code:+6,d}"
        print(f"{lines:6,d} {code:6,d}{delta}  {name}")


if __name__ == "__main__":
    main()
