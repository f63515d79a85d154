"""Per-command CPU time and peak RSS of the benchmark's commands on two
trees.

    python3 tools/command_costs.py PARENT CHANGE [--seed S] [--reps K] [--workload NAME]

PARENT and CHANGE are roots of qollide checkouts.  For each workload of
``perfbench/workloads.py`` the inputs are built once for the seed; then
each command runs ``K`` times on each tree as ``python -m qollide``, set up
by ``bench_trees.py`` as for ``same_outputs.py``.  The two trees alternate
command by command, and their order flips each repetition.  Every run is a
fresh process started by the small ``perfbench/spawn.py``, which takes its
CPU time (user + system) and max RSS from ``os.wait4``, so a child's peak is
its own and not that of the process it was forked from.

On a shared host a neighbour's load moves the median CPU of identical code
by tens of milliseconds, so the CPU medians carry no difference column.
``lower`` counts how many of the ``K`` pairs (the two trees' runs of one
repetition, back to back) read less CPU on the change; drift slower than a
pair cancels in it.

One line per command gives the median CPU milliseconds of each tree,
``lower`` as ``wins/pairs``, and the median max RSS (KiB / 1024, the unit
of the benchmark's ``peak_rss_mb``) of each tree and the change minus the
parent.  Outputs are not checked (see ``same_outputs.py``); the exit code
is 1 if any run exited non-zero.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_trees  # noqa: E402

SPAWN = os.path.join(bench_trees.PERFBENCH, "spawn.py")
TIMEOUT = 120  # seconds per command


def run_once(src, argv, out_dir):
    """``(cpu seconds, max RSS KiB, exit code, stderr tail)`` of one
    ``python -m qollide`` run against the package in ``src``."""
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    job = json.dumps({
        "commands": [[sys.executable, "-m", "qollide", *argv]], "cwd": out_dir,
        "timeout": TIMEOUT,
    })
    proc = subprocess.run(
        [sys.executable, SPAWN], input=job, env=bench_trees.environment(src),
        capture_output=True, text=True, check=True, timeout=TIMEOUT + 60,
    )
    (result,) = json.loads(proc.stdout)
    return result["seconds"], result["maxrss_kb"], result["code"], result["stderr"]


def measure(trees, cmd, in_dir, out_dir, reps):
    """``{label: [(cpu s, max RSS KiB), ...]}`` of
    ``reps`` alternating runs of one command on each tree, entry ``i`` of
    each list from repetition ``i``, and the first failure's message or
    None."""
    samples = {label: [] for label in trees}
    failure = None
    for rep in range(reps):
        order = bench_trees.LABELS if rep % 2 == 0 else bench_trees.LABELS[::-1]
        for label in order:
            *sample, code, stderr = run_once(trees[label], cmd.expand(in_dir, out_dir), out_dir)
            samples[label].append(tuple(sample))
            if code and failure is None:
                failure = f"{label} exited {code}: {stderr.strip()}"
    return samples, failure


def row(name, samples):
    """One table line: median CPU ms of each tree, the pairs whose CPU is
    lower on the change, and median max RSS MB of each tree and the change
    minus the parent.  The medians are rounded to the printed digits before
    they are subtracted, so the printed columns add up."""
    def median(i, scale, digits):
        return {k: round(scale * statistics.median(s[i] for s in v), digits)
                for k, v in samples.items()}

    raw, rss = median(0, 1e3, 1), median(1, 1 / 1024.0, 2)
    pairs = list(zip(samples["parent"], samples["change"]))
    lower = f"{sum(c[0] < p[0] for p, c in pairs)}/{len(pairs)}"
    return (
        f"{name:<40} {raw['parent']:9.1f} {raw['change']:9.1f} "
        f"{lower:>7} {rss['parent']:9.2f} {rss['change']:9.2f} "
        f"{rss['change'] - rss['parent']:+7.2f}"
    )


HEADER = (
    f"{'command':<40} {'raw_ms':>9} {'raw_ms':>9} "
    f"{'lower':>7} {'rss_mb':>9} {'rss_mb':>9} {'diff':>7}\n"
    f"{'':<40} {'parent':>9} {'change':>9} "
    f"{'':>7} {'parent':>9} {'change':>9}"
)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    bench_trees.add_arguments(parser)
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--reps", type=int, default=5, help="runs of each command per tree")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps: must be >= 1")
    trees = bench_trees.sources(parser, args)

    print(HEADER, flush=True)
    failed = 0
    with tempfile.TemporaryDirectory(prefix="command_costs_") as work:
        for _, workload, cmd, in_dir, base in bench_trees.commands(work, [args.seed], args.workload):
            samples, failure = measure(trees, cmd, in_dir, os.path.join(base, "out"), args.reps)
            print(row(f"{workload}/{cmd.name}", samples), flush=True)
            if failure:
                failed += 1
                print(f"  {failure}")
    return 1 if failed else 0

if __name__ == "__main__":
    raise SystemExit(main())
