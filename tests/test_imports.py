"""The lint of ``src/qollide``: every name a module imports is used in it.

An attribute access ``np.zeros`` uses ``np`` through the ``Name`` node at
its root, so reading ``Name`` nodes covers attribute uses too.
``__init__.py`` is left out: its imports are the package's exports.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "qollide")
MODULES = sorted(n for n in os.listdir(SRC) if n.endswith(".py") and n != "__init__.py")


def unused_imports(source):
    """``(line, name)`` of each name imported in ``source`` and never read."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for line, name in imported if name not in used)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def test_unused_imports_of_a_known_source():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .a import b, c as d\n"
        "x = np.zeros(os.sep)\n"
    )
    assert unused_imports(source) == [(4, "b"), (4, "d")]
