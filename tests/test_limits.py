"""Every library entry point at its limits: for any accepted argument it
returns a result in its documented ranges or raises a
:class:`QollideError`, and no warning escapes but the documented ``g*tau``
advisory of the collision parameters drawn and the second-order trace
advisory of ``collision_chain``.

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
    NumericError,
    QollideError,
    analytic_trajectory,
    coefficients_for,
    collision_chain,
    integrate_master,
    ladder_history,
    prepare_thermal_dicke,
    scaling_sweep,
    thermalization_time,
)
from qollide.dynamics import TOL_DRIFT, _lindblad_generator
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


def _explicit(seed, N):
    """A random pure explicit bath of N qubits: it drives and squeezes."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=2**N) + 1j * rng.normal(size=2**N)
    v /= np.linalg.norm(v)
    return BathSpec.explicit(np.outer(v, v.conj()))


#: Named baths, and random explicit ones with drive and squeezing.
MEQ_SPECS = st.one_of(SPECS, st.builds(_explicit, st.integers(0, 2**32 - 1), st.integers(1, 4)))
#: Whole steps up to 2**52, uniform in log2.
STEP_COUNTS = st.floats(0.0, 52.0).map(lambda e: round(2.0**e))


def _integrate(spec, g, tau, p, rho0, t_end, n_steps, n_records):
    """``integrate_master`` over ``n_steps`` steps of ``t_end / n_steps``
    (a step of 1 at ``t_end = 0``), with the state it started from.

    A run whose relaxation rate is finite and whose step ``dt`` keeps ``dt
    ||L||_inf <= 1e99`` must not be refused, where the problem has an
    answer in floats: ``t_end ||L||_inf <= 1e6``, or ``||L||_inf`` within
    1e6 of the relaxation rate.  Beyond that a drive turns the state
    through more than 1e6 radians before it is damped, and the rounding of
    ``pg_tau`` alone moves the state by ``t_end ||L||_inf 1e-16``."""
    c = coefficients_for(spec, _params(g, tau, p))
    dt = t_end / n_steps if t_end else 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.abs(_lindblad_generator(c)).sum(axis=1).max()
        step_norm = dt * norm
        try:
            rate = 1.0 / thermalization_time(c)
            must_run = step_norm <= 1e99 and (t_end * norm <= 1e6 or norm <= 1e6 * rate)
        except QollideError:
            must_run = False
    try:
        return integrate_master(rho0, c, t_end, dt, n_records), rho0
    except QollideError as exc:
        assert not must_run, f"refused at dt ||L|| = {step_norm:.3g}: {exc}"
        raise


def _traces_kept(result):
    trajectory, rho0 = result
    _finite_states(trajectory)
    traces = trajectory.states[:, 0, 0] + trajectory.states[:, 1, 1]
    assert np.max(np.abs(traces - np.trace(rho0)), initial=0.0) <= 1e-15


#: Named baths up to the collision map's N, and random explicit ones.
COLLISION_SPECS = st.one_of(
    st.builds(BathSpec.product_mixed, _sizes(MAX_QUBITS), UNIT),
    st.builds(BathSpec.thermal_hec, _sizes(MAX_QUBITS), N_BAR),
    st.builds(_dicke, _sizes(MAX_QUBITS), UNIT),
    st.builds(_explicit, st.integers(0, 2**32 - 1), st.integers(1, 4)),
)
#: A collision probability per step, its ends included.
P_DT = st.one_of(st.sampled_from([0.0, 1.0]), _log_uniform(1e-300, 1.0))
MODES = st.sampled_from(["exact", "second_order"])


def _collide(spec, g, tau, p_dt, rho0, t_end, n_steps, n_records, mode, scheme):
    """``collision_chain`` over ``n_steps`` steps of ``t_end / n_steps`` (a
    step of 1 at ``t_end = 0``) with ``p dt = p_dt``, on three trajectories
    when stochastic, with the second-order advisory silenced.  An exact run
    is not refused as a numeric fault: its map keeps the trace."""
    dt = t_end / n_steps if t_end else 1.0
    params = _params(g, tau, p_dt / dt)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "second-order collisions moved the trace", UserWarning)
        try:
            trajectory = collision_chain(rho0, spec, params, t_end, dt, mode, scheme,
                                         n_trajectories=3, n_records=n_records)
        except NumericError:
            assert mode != "exact"
            raise
    return trajectory, rho0, mode


def _collided(result):
    trajectory, rho0, mode = result
    if mode == "exact":
        _traces_kept((trajectory, rho0))
    else:
        _finite_states(trajectory)


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
    "integrate_master": (
        # every step recorded only on a short grid, as for the ladder
        st.tuples(MEQ_SPECS, COUPLING, RATE, RATE, RHO0, T_END, STEP_COUNTS, N_RECORDS).filter(
            lambda args: args[7] is not None or args[6] < 1e3
        ),
        _integrate,
        _traces_kept,
        [(BathSpec.dicke(8, 3), 0.1, 1.0, 100.0, np.diag([0.0, 1.0]), 0.18, 6000, 201),
         (BathSpec.dicke(4, 1), 0.1, 1.0, 100.0, np.eye(2) / 2.0, 2.5e12, 10**15, 3),
         (BathSpec.dicke(4, 1), 0.1, 1.0, 100.0, np.diag([0.0, 1.0]), 1e99, 10, 3),
         (BathSpec.dicke(4, 1), 0.1, 1.0, 1e300, np.full((2, 2), 0.5), 1e300, 2**52, 5),
         (_explicit(7, 3), 1e150, 1.0, 1e-300, np.diag([1.0, 0.0]), 1e300, 2**52, 20),
         (_explicit(3, 2), 0.01, 1.0, 1e4, np.full((2, 2), 0.5), 1e6, 2**40, 4)],
        60,
    ),
    "collision_chain": (
        # deterministic step counts to 2**52, every step recorded only on a
        # short grid; stochastic runs draw at most 200 steps
        st.one_of(
            st.tuples(COLLISION_SPECS, COUPLING, RATE, P_DT, RHO0, T_END, STEP_COUNTS,
                      N_RECORDS, MODES, st.just("deterministic")).filter(
                lambda args: args[7] is not None or args[6] < 1e3),
            st.tuples(COLLISION_SPECS, COUPLING, RATE, P_DT, RHO0, T_END, st.integers(1, 200),
                      N_RECORDS, MODES, st.just("stochastic")),
        ),
        _collide,
        _collided,
        [(BathSpec.dicke(4, 1), 0.1, 1.0, 0.25, np.diag([0.0, 1.0]), 2.5e6, 10**9, 3,
          "exact", "deterministic"),
         (BathSpec.dicke(4, 1), 0.1, 1.0, 0.25, np.full((2, 2), 0.5), 2.5e12, 10**15, 3,
          "exact", "deterministic"),
         (BathSpec.dicke(8, 3), 0.1, 1.0, 0.1, np.diag([0.0, 1.0]), 1.0, 1000, 11,
          "second_order", "deterministic"),
         (_explicit(7, 4), 0.5, 1.0, 1.0, np.eye(2) / 2.0, 1e300, 2**52, 5, "exact",
          "deterministic"),
         (_explicit(3, 2), 0.1, 1.0, 0.5, np.diag([1.0, 0.0]), 1.0, 200, None, "exact",
          "stochastic")],
        60,
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
