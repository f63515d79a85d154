"""Count the lines of each ``src/qollide`` module by kind.

    python3 tools/src_lines.py [ROOT]

ROOT is the root of a qollide checkout (default: this one).  Every line of
a module is one of: ``docstring`` (a line of a module, class or function
docstring, found with ``ast``), ``blank``, ``comment`` (only a ``#``
comment) or ``code`` (anything else, a line of code with a trailing
comment included).  One row per module, then the totals; the four counts
of a row sum to its ``lines``, the ``wc -l`` count.
"""

import argparse
import ast
import glob
import os

KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(source):
    """Line numbers (1-based) of every docstring in ``source``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                found.update(range(first.lineno, first.end_lineno + 1))
    return found


def count(path):
    """``{kind: lines}`` of one module, plus ``lines``, its line count."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    docs = docstring_lines(source)
    counts = dict.fromkeys(KINDS, 0)
    lines = source.splitlines()
    for number, line in enumerate(lines, 1):
        text = line.strip()
        if number in docs:
            kind = "docstring"
        elif not text:
            kind = "blank"
        elif text.startswith("#"):
            kind = "comment"
        else:
            kind = "code"
        counts[kind] += 1
    counts["lines"] = source.count("\n")
    return counts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", nargs="?", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    args = parser.parse_args(argv)
    paths = sorted(glob.glob(os.path.join(args.root, "src", "qollide", "*.py")))
    columns = (*KINDS, "lines")
    print(f"{'module':<20}" + "".join(f"{name:>10}" for name in columns))
    total = dict.fromkeys(columns, 0)
    for path in paths:
        counts = count(path)
        for name in columns:
            total[name] += counts[name]
        print(f"{os.path.basename(path):<20}" + "".join(f"{counts[name]:>10}" for name in columns))
    print(f"{'total':<20}" + "".join(f"{total[name]:>10}" for name in columns))


if __name__ == "__main__":
    main()
