"""The lint of ``src/qollide``: every name a module imports is used in it,
no module compiles code at run time, every limit is assigned in
``errors.py`` alone and the checks it replaced are gone, and the package
exports exactly the names listed here.  Only the process entry,
``cli.console_main``, touches the garbage collector, so importing the
library never changes the collector of its importer.

An attribute access ``np.zeros`` uses ``np`` through the ``Name`` node at
its root, so reading ``Name`` nodes covers attribute uses too.
``__init__.py`` is left out of the lint: its imports are the package's
exports, which :data:`PUBLIC_NAMES` pins, so that adding or removing one is
a change to this file.
"""

import ast
import os
import subprocess
import sys

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


@pytest.mark.parametrize("module", [*MODULES, "__init__.py"])
def test_no_code_compiled_at_run_time(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        names = {node.id for node in ast.walk(ast.parse(fh.read())) if isinstance(node, ast.Name)}
    assert names.isdisjoint({"exec", "eval", "compile"})


def module_level_assignments(source):
    """Names assigned by the top-level statements of ``source``."""
    names = set()
    for node in ast.parse(source).body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


@pytest.mark.parametrize("module", [*MODULES, "__init__.py"])
def test_limits_assigned_in_errors_alone(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        limits = {name for name in module_level_assignments(fh.read()) if name.startswith("MAX_")}
    expected = {
        "MAX_QUBITS", "MAX_LADDER_N", "MAX_SWEEP_N", "MAX_STEPS", "MAX_RECORDS", "MAX_DRAWS",
    }
    assert limits == (expected if module == "errors.py" else set())


#: The per-module checks that ``errors.py`` replaced.
REMOVED_CHECKS = {
    "_check_n", "_check_qubits", "_is_integer", "_shown", "_check_one_n", "_check_closed_form_n",
    "_check_record_count", "_check_sweep_points",
}


@pytest.mark.parametrize("module", [*MODULES, "__init__.py"])
def test_removed_checks_neither_defined_nor_imported(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = {node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.alias))}
    names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert names.isdisjoint(REMOVED_CHECKS)


def collector_uses(source):
    """Whether ``source`` imports ``gc``, and the sorted ``(top-level
    definition, name)`` of each ``gc.<name>`` it reads; the definition is
    ``""`` at module level."""
    tree = ast.parse(source)
    imports = any(
        isinstance(node, ast.Import) and any(a.name == "gc" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "gc"
        for node in ast.walk(tree)
    )
    uses = []
    for top in tree.body:
        owner = getattr(top, "name", "")
        uses += [(owner, node.attr) for node in ast.walk(top) if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name) and node.value.id == "gc"]
    return imports, sorted(uses)


@pytest.mark.parametrize("module", [*MODULES, "__init__.py"])
def test_only_the_process_entry_touches_the_collector(module):
    # cli imports gc and console_main freezes it; no module collects,
    # disables or retunes the collector
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        found = collector_uses(fh.read())
    assert found == ((True, [("console_main", "freeze")]) if module == "cli.py" else (False, []))


def test_collector_uses_of_a_known_source():
    source = (
        "import gc as g\n"
        "def f():\n"
        "    gc.collect()\n"
        "gc.disable()\n"
    )
    assert collector_uses(source) == (True, [("", "disable"), ("f", "collect")])
    assert collector_uses("from gc import freeze\n") == (True, [])


def test_cli_import_loads_no_dataclasses():
    # the records are utils.Record subclasses; dataclasses would compile
    # their methods in every process
    code = "import sys, qollide.cli; print(sorted({'dataclasses', 'qollide.cli'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "['qollide.cli']\n", "")


def test_unused_imports_of_a_known_source():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .a import b, c as d\n"
        "x = np.zeros(os.sep)\n"
    )
    assert unused_imports(source) == [(4, "b"), (4, "d")]


#: Every name ``qollide/__init__.py`` exports, sorted.
PUBLIC_NAMES = [
    "BasisOrdering", "BathSpec", "CoherenceMap", "CollectiveOps", "CollisionParams",
    "LadderState", "MeqCoefficients", "NumericError", "QollideError", "SweepResult",
    "SweepRow", "Trajectory", "ValidationError", "analytic_trajectory", "basis_ordering",
    "bath_from_csv", "bath_to_csv", "block_sizes", "build_collective_ops",
    "classify_coherences", "coefficients_for", "coefficients_from_state", "collision_chain",
    "collision_superoperator", "dicke_ladder_transform", "dicke_max_noninverted_k",
    "dicke_temperature", "entropy", "evolve_analytic", "excited_state", "fit_loglog_slope",
    "ground_state", "integrate_master", "j_z_diagonal", "ladder_history", "lindblad_rhs",
    "load_bath_csv", "matrix_exp", "partial_trace_bath", "prepare_thermal_dicke",
    "qubit_state", "save_bath_csv", "scaling_sweep", "steady_state", "steady_temperature",
    "temperature_from_populations", "temperature_trajectory", "thermalization_time",
    "validate_bath", "validate_density_matrix",
]


def test_public_names_pinned():
    with open(os.path.join(SRC, "__init__.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    exported = [a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for a in node.names]
    assert sorted(exported) == PUBLIC_NAMES
