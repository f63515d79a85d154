"""Host speed probe: slices of fixed interpreter work, timed in CPU time.

    from speed import probe
    slices = probe(seconds)   # slice CPU times, for a share of ``seconds``

The machines this benchmark runs on share their cores with other tenants.
The same work can take twice as much CPU time when a neighbour keeps the
core's other hyperthread busy, and the neighbours come and go both within
a tenth of a second and over minutes.  A short probe is therefore a random
draw, but the mean of many slices, spread over a pass in proportion to the
time its commands take, is the pass's mean speed.  The benchmark probes
after every timed command, in the same process that timed it, for
``SHARE`` of the command's time, and rescales the pass's times by its mean
slice (see ``run.py``).  Only the standard library is used, so that
``spawn.py`` stays small.
"""

import time

# a typical slice on the machine the benchmark was written on (2 vCPUs,
# Python 3.11): rescaled times read as CPU seconds on that machine
REFERENCE_S = 0.004
SHARE = 0.1  # probe time per second of timed work


def _work():
    acc, table, parts = 0.0, {}, []
    for i in range(10000):
        x = i * 0.37
        acc += x * x % 7.0
        table[i & 511] = acc
        if not i & 15:
            parts.append(f"{x:.17g},{acc:.6e}")
    return acc, len(table), len(",".join(parts))


def _slice():
    t0 = time.process_time()
    _work()
    return time.process_time() - t0


def probe(seconds):
    """CPU times of slices of the fixed work, run for ``SHARE * seconds``
    of CPU time (at least one slice)."""
    slices, spent = [], 0.0
    while not slices or spent < SHARE * seconds:
        slices.append(_slice())
        spent += slices[-1]
    return slices
