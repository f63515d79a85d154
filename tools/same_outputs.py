"""Compare every benchmark command's outputs between two source trees.

    python3 tools/same_outputs.py PARENT CHANGE [--seeds 1,2] [--workload NAME]

PARENT and CHANGE are roots of qollide checkouts.  For each seed and
workload of ``perfbench/workloads.py`` (read from this checkout, with its
``tests/golden/``) the inputs are built once; then every command runs as
``python -m qollide`` against each tree's ``src/``, with BLAS pinned to one
thread, and its own reference check is run on each tree's outputs.  The
exit code, stdout (the output directory replaced by ``{out}``) and the bytes
of every output file must match.  Each command that differs, or fails its
check, is printed, followed by one line per CSV output that differs: the
largest absolute and relative difference over its numeric fields, or
``layout differs`` when a row, a field count or a text field does.  The exit
code is 1 if any command differed, else 0.
"""

import argparse
import contextlib
import math
import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_trees  # noqa: E402


def run_tree(src, cmd, in_dir, out_dir):
    """``(exit code, stdout, {output: bytes or None}, check error or None)``
    of one command against the package in ``src``."""
    os.makedirs(out_dir)
    proc = subprocess.run(
        [sys.executable, "-m", "qollide", *cmd.expand(in_dir, out_dir)],
        env=bench_trees.environment(src), cwd=out_dir, capture_output=True, text=True,
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


def csv_difference(parent, change):
    """``(largest absolute, largest relative difference)`` over the fields of
    two CSV outputs (bytes) that differ as numbers, or None when their rows,
    field counts or text fields differ.  A nan, or an inf against another
    value, counts as an infinite difference."""
    rows = [text.decode().splitlines() for text in (parent, change)]
    if len(rows[0]) != len(rows[1]):
        return None
    largest = [0.0, 0.0]
    for row_a, row_b in zip(*rows):
        fields = row_a.split(","), row_b.split(",")
        if len(fields[0]) != len(fields[1]):
            return None
        for a, b in zip(*fields):
            if a == b:
                continue
            try:
                a, b = float(a), float(b)
            except ValueError:
                return None
            diff = abs(a - b)
            if not diff < math.inf:  # nan or inf
                diff = rel = math.inf
            else:  # equal numbers written differently, such as 0 and -0, differ by 0
                rel = diff and diff / max(abs(a), abs(b))
            largest = [max(largest[0], diff), max(largest[1], rel)]
    return tuple(largest)


def csv_report(parent_files, change_files):
    """One line per CSV output present in both trees whose bytes differ."""
    lines = []
    for name, data in parent_files.items():
        other = change_files[name]
        if name.endswith(".csv") and None not in (data, other) and data != other:
            found = csv_difference(data, other)
            lines.append(
                f"  {name}: layout differs" if found is None
                else f"  {name}: largest difference {found[0]:.3g} absolute, {found[1]:.3g} relative"
            )
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    bench_trees.add_arguments(parser)
    parser.add_argument("--seeds", default="1,2", help="comma list of workload seeds")
    args = parser.parse_args(argv)
    trees = bench_trees.sources(parser, args)
    seeds = [int(s) for s in args.seeds.split(",")]

    bad = total = 0
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as work:
        for seed, workload, cmd, in_dir, base in bench_trees.commands(work, seeds, args.workload):
            results = {
                label: run_tree(src, cmd, in_dir, os.path.join(base, label, cmd.name))
                for label, src in trees.items()
            }
            problems = differences(results["parent"], results["change"])
            problems += [f"{label} check: {res[3]}" for label, res in results.items() if res[3]]
            total += 1
            if problems:
                bad += 1
                print(f"seed {seed} {workload}/{cmd.name}: " + "; ".join(problems))
                for line in csv_report(results["parent"][2], results["change"][2]):
                    print(line)
    print(f"{total} commands, {bad} with a difference or a failed check")
    return 1 if bad else 0

if __name__ == "__main__":
    raise SystemExit(main())
