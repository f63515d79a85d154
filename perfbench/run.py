"""Benchmark of the qollide command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the package is imported from
``src/`` and figures are compared with ``tests/golden/``.  One client runs
the workload's commands one at a time (a closed loop).  With ``--trace 0``
it reports the end-to-end metrics, times in CPU seconds (user + system):

* ``cold_s``: one pass over the command list, a fresh ``python -m qollide``
  process per command, so import and first-LAPACK warm-up are included;
* ``warm_s``: the same list through ``qollide.cli.main(argv)`` in this
  process, after one discarded warm-up pass;
* ``setup_s``: a fresh ``python -c "import qollide"``;
* ``peak_rss_mb``: the largest max-RSS of the CLI child processes.

Passes run in rounds for ``--seconds`` (see ``NOTES.md``).  Each command
is timed in every pass and followed by the speed probe of ``speed.py``.
Every time is rescaled to the probe's reference speed by the mean probe
slice of its pass, so the load other tenants put on a shared host does not
move it.  A pass time is the sum of the commands' median rescaled times;
the unscaled medians are recorded beside the result.  With ``--trace 1``
it alternates untraced and traced in-process passes and reports the
per-layer metrics of ``spans.py``.  Every output is checked against an
independent reference (``reference.py``); a command fails on a non-zero
exit or a wrong output.  The last line of standard output is the result
JSON; the line before it records the environment and sample counts.
"""

import os

# BLAS threads are pinned before numpy loads, for this process and every
# child; the sweep's own thread setting is left at its default.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = BLAS_THREADS
os.environ.pop("QOLLIDE_THREADS", None)

import argparse
import contextlib
import gc
import hashlib
import io
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import spans
import speed
import workloads
from reference import CheckError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(ROOT, "tests", "golden")
WORK = os.path.join(ROOT, ".bench_work")
SPAWN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "spawn.py")

IMPORT = [sys.executable, "-c", "import qollide"]
IMPORTS_PER_ROUND = 3  # setup_s samples, spread over the run
MIN_PASSES = 3  # timed rounds, even when --seconds is short
CHILD_TIMEOUT = 120  # seconds; one CLI call never comes near this


class SetupError(Exception):
    """The checkout cannot be benchmarked."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def import_program():
    if not os.path.isfile(os.path.join(SRC, "qollide", "__init__.py")):
        raise SetupError(f"no qollide package under {SRC}")
    if not os.path.isdir(GOLDEN):
        raise SetupError(f"no golden figures under {GOLDEN}")
    sys.path.insert(0, SRC)
    import qollide.cli

    if not os.path.abspath(qollide.__file__).startswith(SRC + os.sep):
        raise SetupError(f"qollide imported from {qollide.__file__}, not {SRC}")
    return qollide.cli


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def digest(out_dir, outputs):
    h = hashlib.sha256()
    for name in outputs:
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class Judge:
    """Counts attempts and failures.  The first output of each command is
    checked against its reference; every later output of that command, in
    any kind of pass, must be byte-identical to it."""

    def __init__(self, commands):
        self.commands = commands
        self.digests = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def judge(self, index, error, out_dir):
        cmd = self.commands[index]
        self.attempted += 1
        if error is None:
            try:
                got = digest(out_dir, cmd.outputs)
                if index not in self.digests:
                    self.digests[index] = None
                    cmd.check(out_dir)
                    self.digests[index] = got
                elif got != self.digests[index]:
                    error = "output differs from the first, checked run"
            except (CheckError, OSError) as exc:
                error = str(exc)[:400]
        if error is not None:
            self.failed += 1
            # the tail of a process's stderr holds the traceback
            self.errors.append(f"{cmd.name}: {error.strip()[-400:]}")


def spawn(argvs):
    """Run commands one at a time, each in a fresh process started by the
    small ``spawn.py`` helper; returns its per-command results."""
    job = json.dumps({"commands": argvs, "cwd": ROOT, "timeout": CHILD_TIMEOUT})
    proc = subprocess.run(
        [sys.executable, SPAWN], input=job, env=child_env(), capture_output=True,
        text=True, check=True, timeout=CHILD_TIMEOUT * len(argvs) + 60,
    )
    return json.loads(proc.stdout)


def cold_pass(commands, in_dir, out_dir, judge):
    """Each command in a fresh process; returns the per-command results."""
    fresh_dir(out_dir)
    results = spawn([[sys.executable, "-m", "qollide", *c.expand(in_dir, out_dir)] for c in commands])
    for index, r in enumerate(results):
        judge.judge(index, None if r["code"] == 0 else f"exit {r['code']}: {r['stderr']}", out_dir)
    return results


def warm_pass(cli, commands, in_dir, out_dir, judge, tracer=None):
    """Each command through ``cli.main`` in this process; returns each
    command's CPU and wall time and speed probe, as ``spawn.py`` does."""
    fresh_dir(out_dir)
    gc.collect()
    errors, results = [], []
    for index, cmd in enumerate(commands):
        if tracer is not None:
            tracer.command = index
        t0, w0 = time.process_time(), time.perf_counter()
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(cmd.expand(in_dir, out_dir))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed command, not a failed benchmark
            code = traceback.format_exc()
        seconds, wall = time.process_time() - t0, time.perf_counter() - w0
        results.append({"seconds": seconds, "wall": wall, "probe": speed.probe(seconds)})
        errors.append(None if code == 0 else f"exit {code}: {sink.getvalue()}")
    for index, error in enumerate(errors):
        judge.judge(index, error, out_dir)
    return results


def measure(seconds, *steps):
    """Run ``steps`` in turn, over and over, until the next round would
    overrun ``seconds`` (at least MIN_PASSES rounds); returns each step's
    samples."""
    samples = [[] for _ in steps]
    start = time.perf_counter()
    last = 0.0
    while len(samples[0]) < MIN_PASSES or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        for out, step in zip(samples, steps):
            out.append(step())
        last = time.perf_counter() - t0
    return samples


def rescaled(passes):
    """The commands' times of each pass (a list of per-command results),
    times ``speed.REFERENCE_S`` over the mean probe slice of the pass: the
    times at the reference speed."""
    out = []
    for results in passes:
        scale = speed.REFERENCE_S / statistics.fmean(s for r in results for s in r["probe"])
        out.append([r["seconds"] * scale for r in results])
    return out


def unscaled(passes, key="seconds"):
    return [[r[key] for r in results] for results in passes]


def pass_time(times):
    """Sum over the commands of each command's median time over the
    passes (one list of per-command times per pass): a pass time that one
    slow command in one pass cannot move."""
    return sum(statistics.median(column) for column in zip(*times))


def import_time(times):
    """The median over every import of every batch."""
    return statistics.median(t for batch in times for t in batch)


def timed_run(cli, commands, in_dir, work, judge, seconds):
    # one discarded import fills the page cache and shows the package loads
    first = spawn([IMPORT])[0]
    if first["code"]:
        raise SetupError(f"import qollide failed: {first['stderr']}")
    out = os.path.join(work, "out")
    warm_pass(cli, commands, in_dir, out, judge)  # warm-up, discarded
    cold_time = []

    def cold():
        results = cold_pass(commands, in_dir, out, judge)
        cold_time[:] = [sum(r["seconds"] for r in results)]
        return results

    def warm():
        # repeat while the passes fit in the cold pass's time, so a short
        # warm pass gets about as much measuring time as the cold one
        passes = [warm_pass(cli, commands, in_dir, out, judge)]
        spent = lambda results: sum(r["seconds"] for r in results)
        while sum(map(spent, passes)) + spent(passes[-1]) <= cold_time[0]:
            passes.append(warm_pass(cli, commands, in_dir, out, judge))
        return passes

    cold_results, warm_rounds, imports = measure(
        seconds, cold, warm, lambda: spawn([IMPORT] * IMPORTS_PER_ROUND)
    )
    if any(r["code"] for batch in imports for r in batch):
        raise SetupError("import qollide failed during the run")
    keep = lambda passes: [[{k: r[k] for k in ("seconds", "wall", "probe")} for r in p] for p in passes]
    warm = [p for passes in warm_rounds for p in passes]
    rss_kb = max(r["maxrss_kb"] for results in cold_results for r in results)
    samples = {"cold_s": keep(cold_results), "warm_s": warm, "setup_s": keep(imports)}
    reduce = {"cold_s": pass_time, "warm_s": pass_time, "setup_s": import_time}
    values = {name: (reduce[name](rescaled(v)), "s") for name, v in samples.items()}
    values["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
    record = {
        "unscaled_s": {name: reduce[name](unscaled(v)) for name, v in samples.items()},
        "wall_clock_s": {name: reduce[name](unscaled(v, "wall")) for name, v in samples.items()},
    }
    return values, samples, record


def traced_run(cli, commands, in_dir, work, judge, seconds):
    out = os.path.join(work, "out")
    warm_pass(cli, commands, in_dir, out, judge)  # warm-up, discarded
    tracer = spans.Tracer()
    per_pass = []

    def traced():
        first = len(tracer.spans)
        tracer.install()
        try:
            elapsed = warm_pass(cli, commands, in_dir, out, judge, tracer)
        finally:
            tracer.uninstall()
        per_pass.append(tracer.totals(first))
        return elapsed

    plain, traced_s = measure(
        seconds, lambda: warm_pass(cli, commands, in_dir, out, judge), traced
    )
    tracer.write(os.path.join(work, "spans.csv"))
    values = {}
    for name, unit in spans.metric_names():
        if name == "trace.overhead_s":
            value = pass_time(rescaled(traced_s)) - pass_time(rescaled(plain))
        else:
            value = statistics.median(p[name] for p in per_pass)
        values[name] = (value, unit)
    samples = {"untraced": plain, "traced": traced_s}
    return values, samples, {"unscaled_s": {name: pass_time(unscaled(v)) for name, v in samples.items()}}


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src = hashlib.sha256()
    pkg = os.path.join(SRC, "qollide")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli = import_program()
        work = fresh_dir(os.path.join(WORK, args.workload))
        in_dir = os.path.join(work, "inputs")
        commands = workloads.build(args.workload, args.seed, in_dir, GOLDEN)
        judge = Judge(commands)
        run = traced_run if args.trace else timed_run
        values, samples, times = run(cli, commands, in_dir, work, judge, args.seconds)
    except (SetupError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    shutil.rmtree(os.path.join(work, "out"), ignore_errors=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "samples": {name: len(v) for name, v in samples.items()},
        **times,
        "errors": judge.errors[:20],
    }
    result = {
        "correct": judge.failed == 0,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in values.items()},
    }
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({**record, **result, "raw_samples": samples}, fh, indent=1)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
