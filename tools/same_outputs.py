"""Compare every benchmark command's outputs between two source trees.

    python3 tools/same_outputs.py PARENT CHANGE [--seeds 1,2] [--workload NAME]

PARENT and CHANGE are roots of qollide checkouts.  For each seed and
workload of ``perfbench/workloads.py`` (read from this checkout, with its
``tests/golden/``) the inputs are built once; then every command runs as
``python -m qollide`` against each tree's ``src/``, with BLAS pinned to one
thread, and its own reference check is run on each tree's outputs.  The
exit code, stdout (the output directory replaced by ``{out}``) and the bytes
of every output file must match.  Each command that differs, or fails its
check, is printed; the exit code is 1 if any did, else 0.
"""

import argparse
import contextlib
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_tree(src, cmd, in_dir, out_dir):
    """``(exit code, stdout, {output: bytes or None}, check error or None)``
    of one command against the package in ``src``."""
    os.makedirs(out_dir)
    env = {**os.environ, "PYTHONPATH": src, **{var: "1" for var in BLAS_VARS}}
    proc = subprocess.run(
        [sys.executable, "-m", "qollide", *cmd.expand(in_dir, out_dir)],
        env=env, cwd=out_dir, capture_output=True, text=True,
    )
    files = dict.fromkeys(cmd.outputs)
    for name in cmd.outputs:
        with contextlib.suppress(FileNotFoundError), open(os.path.join(out_dir, name), "rb") as fh:
            files[name] = fh.read()
    try:
        cmd.check(out_dir)
        failed = None
    except Exception as exc:  # a crashed check is a failed one
        failed = f"{type(exc).__name__}: {exc}"
    return proc.returncode, proc.stdout.replace(out_dir, "{out}"), files, failed


def differences(parent, change):
    """What differs between two :func:`run_tree` results."""
    found = []
    if parent[0] != change[0]:
        found.append(f"exit code {parent[0]} != {change[0]}")
    if parent[1] != change[1]:
        found.append("stdout")
    found += [name for name in parent[2] if parent[2][name] != change[2][name]]
    return found


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="root of the parent checkout")
    parser.add_argument("change", help="root of the changed checkout")
    parser.add_argument("--seeds", default="1,2", help="comma list of workload seeds")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, help="one workload only")
    args = parser.parse_args(argv)
    trees = {}
    for label in ("parent", "change"):
        src = os.path.join(os.path.abspath(getattr(args, label)), "src")
        if not os.path.isdir(os.path.join(src, "qollide")):
            parser.error(f"{label}: no src/qollide under {getattr(args, label)}")
        trees[label] = src
    golden = os.path.join(ROOT, "tests", "golden")
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)

    bad = total = 0
    work = tempfile.mkdtemp(prefix="same_outputs_")
    try:
        for seed in [int(s) for s in args.seeds.split(",")]:
            for workload in names:
                base = os.path.join(work, f"{seed}-{workload}")
                in_dir = os.path.join(base, "in")
                for cmd in workloads.build(workload, seed, in_dir, golden):
                    results = {
                        label: run_tree(src, cmd, in_dir, os.path.join(base, label, cmd.name))
                        for label, src in trees.items()
                    }
                    problems = differences(results["parent"], results["change"])
                    problems += [
                        f"{label} check: {res[3]}" for label, res in results.items() if res[3]
                    ]
                    total += 1
                    if problems:
                        bad += 1
                        print(f"seed {seed} {workload}/{cmd.name}: " + "; ".join(problems))
                shutil.rmtree(base)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{total} commands, {bad} with a difference or a failed check")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
