"""Every library entry point at its limits: for any accepted argument it
returns finite, normalized rows or raises a :class:`QollideError`, and no
warning escapes.

``ENTRY_POINTS`` holds one row per entry point: a strategy for its
arguments (N drawn uniformly in log2 up to the entry's limit, the rates
and times in log10 over the float range), the call, a function from its
result to the rows to check, the examples always run, and an example
budget that keeps the whole test to a few seconds.  A new path to large N
adds its row here.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qollide import QollideError, ladder_history, prepare_thermal_dicke
from qollide.dynamics import TOL_DRIFT
from qollide.errors import MAX_LADDER_N, MAX_QUBITS


def _log_uniform(low, high):
    """Floats from ``low`` to ``high``, uniform in log10."""
    return st.floats(math.log10(low), math.log10(high)).map(lambda e: min(high, 10.0**e))


def _sizes(high):
    """Integers N from 1 to ``high``, uniform in log2."""
    return st.floats(0.0, math.log2(high)).map(lambda e: min(high, round(2.0**e)))


N_BAR = st.one_of(st.just(0.0), _log_uniform(1e-300, 1e300))
GAMMA0 = _log_uniform(1e-300, 1e300)
T_END = st.one_of(st.just(0.0), _log_uniform(1e-300, 1e300))
DT = _log_uniform(1e-300, 1e300)
N_RECORDS = st.one_of(st.none(), st.integers(-1, 20))


def _ladder_rows(result):
    _, history, final = result
    return np.vstack((history, final))


def _prepared_rows(result):
    ladder, _ = result
    return ladder.populations[None, :]


ENTRY_POINTS = {
    "ladder_history": (
        st.tuples(_sizes(MAX_LADDER_N), N_BAR, GAMMA0, T_END, DT, N_RECORDS),
        ladder_history,
        _ladder_rows,
        [(1024, 1.0, 1.0, 0.01, 3e-6, 201), (1024, 1e300, 1e300, 1e300, 1e299, 3),
         (3, 0.2, 1e300, 2.0, 0.05, 5), (1024, 0.0, 1e-300, 1e-300, 1e-300, None)],
        40,
    ),
    "prepare_thermal_dicke": (
        st.tuples(_sizes(MAX_QUBITS), N_BAR, GAMMA0, T_END, DT),
        prepare_thermal_dicke,
        _prepared_rows,
        [(8, 1e300, 1e300, 1e300, 1.0), (6, 1.0, 1.0, 10.0, 1.0)],
        25,
    ),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_finite_or_refused(entry):
    arguments, call, rows_of, examples, budget = ENTRY_POINTS[entry]

    @settings(max_examples=budget, derandomize=True, database=None, deadline=None)
    @given(arguments)
    def check(args):
        # every step recorded: only a short grid, so that no draw allocates
        # up to MAX_RECORDS rows of N + 1 populations
        assume(len(args) < 6 or args[5] is not None or args[3] / args[4] < 1e3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                rows = rows_of(call(*args))
            except QollideError:
                return
        assert np.all(np.isfinite(rows))
        assert np.max(np.abs(rows.sum(axis=1) - 1.0)) <= TOL_DRIFT

    for args in examples:
        check = example(args)(check)
    check()
