"""Every library entry point at its limits: for any accepted argument it
returns a result in its documented ranges or raises a
:class:`QollideError`, and no warning escapes but the documented ``g*tau``
advisory of the collision parameters drawn.

``ENTRY_POINTS`` holds one row per entry point: a strategy for its
arguments (N drawn uniformly in log2 up to the entry's limit, the rates
and times in log10 over the float range), the call, a check of its
result, the examples always run, and an example budget that keeps the
whole test to a few seconds.  A new path to large N adds its row here.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qollide import (
    BathSpec,
    CollisionParams,
    QollideError,
    analytic_trajectory,
    coefficients_for,
    ladder_history,
    prepare_thermal_dicke,
    scaling_sweep,
)
from qollide.dynamics import TOL_DRIFT
from qollide.errors import MAX_LADDER_N, MAX_QUBITS, MAX_SWEEP_N


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


#: A ``p_e``, or a dicke block as a fraction of N, its ends included.
UNIT = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
SWEEP_N = _sizes(MAX_SWEEP_N)
#: g from 0 up to where mu = p (g tau)^2 overflows at p = 1: g = 1e154.
COUPLING = st.one_of(st.just(0.0), _log_uniform(1e-300, 1e154))
RATE = _log_uniform(1e-300, 1e300)
#: The qubit states an analytic trajectory starts from: ground, excited,
#: maximally mixed, and coherent.
RHO0 = st.sampled_from([np.diag([0.0, 1.0]), np.diag([1.0, 0.0]), np.eye(2) / 2.0,
                        np.full((2, 2), 0.5)])


def _params(g, tau, p):
    """``CollisionParams(g, tau, p)`` with its documented ``g*tau``
    advisory silenced; its refusals are raised."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", r"g\*tau = ", UserWarning)
        return CollisionParams(g, tau, p)


def _dicke(N, fraction):
    return BathSpec.dicke(N, min(N, round(fraction * N)))


SPECS = st.one_of(
    st.builds(BathSpec.product_mixed, SWEEP_N, UNIT),
    st.builds(BathSpec.thermal_hec, SWEEP_N, N_BAR),
    st.builds(_dicke, SWEEP_N, UNIT),
)
FAMILY_VALUES = st.one_of(
    st.tuples(st.just("product"), UNIT),
    st.tuples(st.just("thermal-hec"), N_BAR),
    st.tuples(st.just("dicke"), st.sampled_from(["quarter", "half-minus-one"])),
)


def _normalized(rows):
    assert np.all(np.isfinite(rows))
    assert np.max(np.abs(rows.sum(axis=1) - 1.0)) <= TOL_DRIFT


def _ladder_rows(result):
    _, history, final = result
    _normalized(np.vstack((history, final)))


def _prepared_rows(result):
    ladder, _ = result
    _normalized(ladder.populations[None, :])


def _rates(r_e, r_d):
    """Rates are finite and nonnegative."""
    for rate in (r_e, r_d):
        assert np.all(np.isfinite(rate)) and np.all(rate >= 0.0)


def _coefficients(c):
    _rates(c.r_e, c.r_d)
    assert math.isfinite(c.mu) and math.isfinite(c.pg_tau)


def _sweep(family, Ns, g, tau, p, value):
    name = {"product": "p_e", "thermal-hec": "n_bar", "dicke": "k_rule"}[family]
    return scaling_sweep(family, Ns, _params(g, tau, p), **{name: value})


def _swept(result):
    _rates(result.r_e, result.r_d)
    assert np.all(result.t_q > 0.0)  # NaN fails too; inf is a bath that does not couple
    assert not np.any(np.isnan(result.T_q))


def _trajectory(spec, g, tau, p, rho0, t_end, n_points):
    c = coefficients_for(spec, _params(g, tau, p))
    return analytic_trajectory(rho0, c, np.linspace(0.0, t_end, n_points))


def _finite_states(trajectory):
    assert np.all(np.isfinite(trajectory.states))


ENTRY_POINTS = {
    "ladder_history": (
        # every step recorded: only a short grid, so that no draw allocates
        # up to MAX_RECORDS rows of N + 1 populations
        st.tuples(_sizes(MAX_LADDER_N), N_BAR, GAMMA0, T_END, DT, N_RECORDS).filter(
            lambda args: args[5] is not None or args[3] / args[4] < 1e3
        ),
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
    "coefficients_for": (
        st.tuples(SPECS, COUPLING, RATE, RATE),
        lambda spec, g, tau, p: coefficients_for(spec, _params(g, tau, p)),
        _coefficients,
        [(BathSpec.thermal_hec(MAX_SWEEP_N, 1e300), 1e150, 1.0, 1e-100),
         (BathSpec.thermal_hec(1, 1e-300), 1e-300, 1.0, 1e300),
         (BathSpec.product_mixed(MAX_SWEEP_N, 1.0), 1.0, 1.0, 1e300),
         (BathSpec.dicke(MAX_SWEEP_N, MAX_SWEEP_N // 2), 1e-150, 1e-150, 1e300)],
        40,
    ),
    "scaling_sweep": (
        st.tuples(FAMILY_VALUES, st.lists(SWEEP_N, min_size=1, max_size=5), COUPLING, RATE,
                  RATE).map(lambda a: (a[0][0], a[1], *a[2:], a[0][1])),
        _sweep,
        _swept,
        [("thermal-hec", [1, MAX_SWEEP_N], 1e150, 1.0, 1e-100, 1e300),
         ("thermal-hec", [1, 2], 0.0, 1.0, 1.0, 1e-300),
         ("product", [MAX_SWEEP_N], 1e-300, 1e-300, 1e-300, 0.0),
         ("dicke", [1, 2, 3, MAX_SWEEP_N], 1e-100, 1e-100, 1e300, "half-minus-one")],
        40,
    ),
    "analytic_trajectory": (
        st.tuples(SPECS, COUPLING, RATE, RATE, RHO0, T_END, st.integers(1, 20)),
        _trajectory,
        _finite_states,
        [(BathSpec.thermal_hec(MAX_SWEEP_N, 1e300), 1e150, 1.0, 1e-100, np.eye(2) / 2.0,
          1e300, 20),
         (BathSpec.product_mixed(2, 0.0), 1e-300, 1e-300, 1e-300, np.full((2, 2), 0.5),
          1e-300, 5),
         (BathSpec.dicke(4, 4), 1.0, 1.0, 1e300, np.diag([0.0, 1.0]), 1e300, 20)],
        40,
    ),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_finite_or_refused(entry):
    arguments, call, check_result, examples, budget = ENTRY_POINTS[entry]

    @settings(max_examples=budget, derandomize=True, database=None, deadline=None)
    @given(arguments)
    def check(args):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                result = call(*args)
            except QollideError:
                return
        check_result(result)

    for args in examples:
        check = example(args)(check)
    check()
