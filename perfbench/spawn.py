"""Runs CLI commands one at a time, each in a fresh process, and reports
each one's CPU time (user + system), wall time, exit code, stderr tail and
peak RSS as JSON, with the slice times of the speed probe (``speed.py``)
run just after it.

    python3 perfbench/spawn.py < job.json > result.json

The job is ``{"commands": [[argv...], ...], "cwd": DIR, "timeout": S}``.
The benchmark starts this small process instead of forking the commands
itself: a child's peak RSS includes the RSS of the process it was forked
from, and the benchmark process holds references and the in-process runs.
Only the standard library is imported here, to stay small.
"""

import json
import os
import subprocess
import sys
import threading
import time

from speed import probe


def run_one(argv, cwd, timeout):
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    stderr = []
    reader = threading.Thread(target=lambda: stderr.append(proc.stderr.read()))
    reader.start()
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        # wait4, unlike Popen.wait, also returns the child's resource usage
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    reader.join()
    proc.stderr.close()
    return {
        "seconds": usage.ru_utime + usage.ru_stime,
        "wall": wall,
        "code": proc.returncode,
        "stderr": stderr[0][-2000:].decode(errors="replace"),
        "maxrss_kb": usage.ru_maxrss,
    }


def main():
    job = json.load(sys.stdin)
    results = []
    for argv in job["commands"]:
        result = run_one(argv, job["cwd"], job["timeout"])
        result["probe"] = probe(result["seconds"])
        results.append(result)
    json.dump(results, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
