"""Run the benchmark's commands against two qollide trees.

The tools that compare a parent and a changed checkout (``same_outputs.py``,
``command_costs.py``) share how a command is run: the two positional tree
roots and ``--workload``, the environment (the tree's ``src/`` on
``PYTHONPATH``, BLAS pinned to one thread) and the iteration over the
commands of ``perfbench/workloads.py``, read from this checkout with its
``tests/golden/``.  Each tool keeps only its own comparison or measurement.
"""

import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, PERFBENCH)

import workloads  # noqa: E402

LABELS = ("parent", "change")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def add_arguments(parser):
    """The two tree roots and ``--workload``."""
    parser.add_argument("parent", help="root of the parent checkout")
    parser.add_argument("change", help="root of the changed checkout")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, help="one workload only")


def sources(parser, args):
    """``{label: src directory}`` of the two trees; a root without
    ``src/qollide`` is a usage error."""
    trees = {}
    for label in LABELS:
        src = os.path.join(os.path.abspath(getattr(args, label)), "src")
        if not os.path.isdir(os.path.join(src, "qollide")):
            parser.error(f"{label}: no src/qollide under {getattr(args, label)}")
        trees[label] = src
    return trees


def environment(src):
    """The environment of a ``python -m qollide`` run against ``src``."""
    return {**os.environ, "PYTHONPATH": src, **{var: "1" for var in BLAS_VARS}}


def commands(work, seeds, workload=None):
    """Yield ``(seed, workload name, command, input dir, scratch dir)`` for
    every command of ``workload`` (default: all) at each seed.  The inputs
    are built once per seed and workload under ``work``; the scratch
    directory holds them and is removed once the workload's commands are
    done."""
    names = [workload] if workload else list(workloads.WORKLOADS)
    golden = os.path.join(ROOT, "tests", "golden")
    for seed in seeds:
        for name in names:
            base = os.path.join(work, f"{seed}-{name}")
            in_dir = os.path.join(base, "in")
            for cmd in workloads.build(name, seed, in_dir, golden):
                yield seed, name, cmd, in_dir, base
            shutil.rmtree(base)
