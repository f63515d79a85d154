"""Target-qubit dynamics: closed forms, master-equation integration, exact
repeated collisions, bath preparation and scaling sweeps.

The target qubit lives in the fixed basis ``(|e>, |g>)`` so entry (0, 0) of
its density matrix is the excited population.  With the drive and squeezing
channels off, the populations relax exponentially with characteristic time
``t_q = 1 / (mu (r_e + r_d))`` towards ``diag(r_e, r_d) / (r_e + r_d)``; the
coherence decays with ``2 t_q``.  Temperatures are reported in units of
``hbar*omega0/k_B`` and entropies in units of ``k_B``.

The one-collision map takes one of two paths: a named family (product,
thermal-hec, dicke) is a mixture of spin-ladder states, and its map is six
weighted sums of ``cos``/``sin`` of the ladder angles ``g tau c_m``, with
no ``2^N`` state; an explicit matrix goes through the sector engine, one
``eigh`` per excitation sector of its collective operators.
"""

from __future__ import annotations

import itertools
import math
import warnings
from functools import cached_property

import numpy as np

from . import errors
from .baths import FAMILIES, _symmetric_state, dicke_rates, ladder_weights, validate_bath
from .collective import basis_ordering, build_collective_ops
from .errors import TOO_MANY_POINTS, NumericError, ValidationError, check_count, check_finite
from .errors import check_integer, check_n, check_ns
from .linalg import matrix_exp, validate_density_matrix
from .master_equation import _qubit_matrix, lindblad_rhs
from .utils import Record

#: Residual coherence above which trajectory temperatures are flagged.
COHERENCE_FLAG_TOL = 1e-6

#: Lowest population an integrated state may hold (ode engine and ladder).
MIN_POPULATION = -1e-10

#: Largest trace or normalization drift a stepped state may show (ode
#: engine, exact collisions, ladder).
TOL_DRIFT = 1e-8

#: The collision schemes of :func:`collision_chain`.
SCHEMES = ("deterministic", "stochastic")

#: Bernoulli draws per chunk of a stochastic collision stream.
_DRAW_CHUNK = 1 << 16

TRAJECTORY_CSV_HEADER = "t,mu_t,rho_ee,rho_gg,re_rho_eg,im_rho_eg,temperature,entropy"
SWEEP_CSV_HEADER = "N,k,r_e,r_d,t_q,T_q"

_CSV_ROW = ",".join(["%.17g"] * len(TRAJECTORY_CSV_HEADER.split(","))) + "\n"
#: CSV rows per formatting call; bounds the Python floats alive at once.
_CSV_CHUNK = 512


def _csv_text(header, row, cols):
    """CSV text: ``header``, then one line per row of the 2-D float array
    ``cols``, formatted by the ``%`` template ``row``.

    Rows are formatted :data:`_CSV_CHUNK` at a time, one ``%`` operation per
    chunk; adding ``0.0`` writes ``-0.0`` as ``0``.  The sum is taken in
    place, so ``cols`` is overwritten: pass an array built for the call.
    """
    np.add(cols, 0.0, out=cols)
    parts = [header + "\n"]
    for start in range(0, len(cols), _CSV_CHUNK):
        chunk = cols[start : start + _CSV_CHUNK]
        parts.append(row * len(chunk) % tuple(chunk.ravel().tolist()))
    return "".join(parts)


# ---------------------------------------------------------------------------
# qubit states


def qubit_state(rho_ee, rho_eg=0.0j):
    """Validated 2x2 target-qubit state with the given populations/coherence."""
    rho = np.array(
        [[rho_ee, rho_eg], [np.conj(rho_eg), 1.0 - rho_ee]], dtype=complex
    )
    return validate_density_matrix(rho, name="qubit state")


def ground_state():
    return np.diag([0.0, 1.0]).astype(complex)


def excited_state():
    return np.diag([1.0, 0.0]).astype(complex)


# ---------------------------------------------------------------------------
# closed-form laws


@np.errstate(over="ignore")  # an overflowing rate is refused; a tiny one's inverse is inf
def _thermalization_times(mu, r_e, r_d):
    """Relaxation times ``1 / (mu (r_e + r_d))`` of float rates or of arrays
    of them; infinite where the bath does not couple (both rates zero, or
    zero coupling strength) or the rate is too small for its inverse to be
    a float.  A rate that overflows a float is refused."""
    rate = mu * (r_e + r_d)
    if not np.all(rate < math.inf):
        raise ValidationError(
            f"mu*(r_e + r_d): the relaxation rate overflows a float at mu = {mu:.3g}; "
            "lower p or g*tau"
        )
    t_q = np.full(np.shape(rate), math.inf)
    np.divide(1.0, rate, out=t_q, where=rate > 0.0)
    return t_q


def thermalization_time(c):
    """Characteristic relaxation time 1 / (mu (r_e + r_d)) of one coefficient
    set (see :func:`_thermalization_times`)."""
    return float(_thermalization_times(c.mu, c.r_e, c.r_d))


def steady_state(c):
    """Fixed point diag(r_e, r_d) / (r_e + r_d) of the thermal channel."""
    total = c.r_e + c.r_d
    if total <= 0.0:
        raise ValidationError("steady_state: r_e + r_d must be positive")
    return np.diag([c.r_e / total, c.r_d / total]).astype(complex)


def _temperatures(ee, gg):
    """Temperatures ``1 / ln(gg / ee)`` of every pair of 1-D populations.

    Sentinels, selected in this order: 0 for an unpopulated excited level,
    -0.0 for an unpopulated ground level (fully inverted) and +inf at equal
    populations.  ``math.log`` is mapped over the other ratios (``np.log``
    can round differently), so it raises where a ratio underflowed to 0.
    """
    sentinels = (ee <= 0.0, gg <= 0.0, ee == gg)
    live = ~(sentinels[0] | sentinels[1] | sentinels[2])
    with np.errstate(all="ignore"):  # the sentinels' ratios are not used
        ratios = (gg / ee)[live]
    logs = np.fromiter(map(math.log, ratios.tolist()), dtype=float, count=len(ratios))
    temps = np.empty(len(ee))
    temps[live] = 1.0 / logs
    return np.select(sentinels, (0.0, -0.0, math.inf), temps)


def temperature_from_populations(p_e, p_g):
    """Temperature (units hbar*omega0/k_B) of a diagonal two-level state, the
    one-pair case of :func:`_temperatures`.  Negative values signal
    population inversion."""
    return float(_temperatures(np.array([p_e]), np.array([p_g]))[0])


def steady_temperature(c):
    """Steady-state temperature -1/ln(r_e/r_d) in units of hbar*omega0/k_B."""
    return temperature_from_populations(c.r_e, c.r_d)


def dicke_temperature(N, k):
    """Steady temperature against a symmetric k-excitation bath,
    ``-1 / ln[k(N-k+1) / ((k+1)(N-k))]``.

    Positive only below the inversion bound ``k <= ceil(N/2) - 1`` (more
    bath qubits in the ground state); see :func:`dicke_max_noninverted_k`.
    Returns +inf at the balanced point and negative values when inverted.
    """
    check_n(N, closed_form=True)
    check_integer(k, "k", 0, N)
    r_e, r_d = dicke_rates(N, k)
    return temperature_from_populations(float(r_e), float(r_d))


def dicke_max_noninverted_k(N):
    """Largest excitation count with a positive steady temperature, for an
    int N or an integer array of N in ``1..MAX_SWEEP_N``."""
    check_ns(N) if isinstance(N, np.ndarray) else check_n(N, closed_form=True)
    return (N + 1) // 2 - 1


def _entropies(w):
    """``-sum w ln w`` over the last axis of eigenvalues ``w``, clipped to
    [0, 1], with the 0 ln 0 := 0 convention."""
    w = np.clip(w, 0.0, 1.0)
    terms = np.where(w > 0.0, w * np.log(np.where(w > 0.0, w, 1.0)), 0.0)
    return -terms.sum(axis=-1)


def entropy(rho):
    """Von Neumann entropy (units k_B) with the 0 ln 0 := 0 convention."""
    return float(_entropies(np.linalg.eigvalsh(np.asarray(rho, dtype=complex))))


# ---------------------------------------------------------------------------
# analytic evolution (thermal channel only)


def _require_thermal_only(c):
    if not c.thermal_only:
        raise ValidationError(
            "analytic evolution requires lambda = epsilon = 0; use "
            "integrate_master for driven or squeezed channels"
        )


def _exp_each(x):
    """``math.exp`` of every entry of the 1-D ``x``; ``np.exp`` can round
    differently, and the closed forms below keep the scalar bits."""
    return np.fromiter(map(math.exp, x.tolist()), dtype=float, count=len(x))


def _analytic_states(rho0, c, times, name):
    """Closed-form target states at the 1-D ``times``, stacked ``(n, 2, 2)``.

    ``rho_ee(t) = (r_e + c0 exp(-t/t_q)) / (r_e + r_d)`` with
    ``c0 = r_d rho_ee(0) - r_e rho_gg(0)``; the coherence decays with twice
    the thermalization time.  Without coupling every state is ``rho0``.
    A ``rho0`` that is not 2x2 is refused naming the caller ``name``.
    """
    rho0 = _qubit_matrix(rho0, name)
    _require_thermal_only(c)
    t_q = thermalization_time(c)
    if t_q == math.inf:
        return np.repeat(rho0[None], len(times), axis=0)
    c0 = c.r_d * rho0[0, 0].real - c.r_e * rho0[1, 1].real
    with np.errstate(over="ignore"):  # -inf past the float range: exp gives 0
        decay, half_decay = -times / t_q, -times / (2.0 * t_q)
    ee = (c.r_e + c0 * _exp_each(decay)) / (c.r_e + c.r_d)
    eg = rho0[0, 1] * _exp_each(half_decay)
    return np.stack((ee, eg, np.conj(eg), 1.0 - ee), axis=1).reshape(-1, 2, 2)


def evolve_analytic(rho0, c, t):
    """Closed-form target state at time ``t`` for the thermal-only channel
    (the one-time case of :func:`analytic_trajectory`)."""
    return _analytic_states(rho0, c, np.array([t], dtype=float), "evolve_analytic")[0]


def temperature_trajectory(c, t_grid):
    """Time-dependent temperature for ground-state initialization.

    Equals ``1 / ln(rho_gg(t) / rho_ee(t))`` with the analytic populations,
    i.e. ``[ln((1 + r_d/r_e)/(1 - exp(-t/t_q)) - 1)]**-1``; 0 at t = 0 and
    approaching the steady temperature for long times.
    """
    _require_thermal_only(c)
    if c.r_e <= 0.0:
        raise ValidationError("temperature_trajectory: r_e must be positive")
    t_grid = np.asarray(t_grid, dtype=float)
    t_q = thermalization_time(c)
    if t_q == math.inf:
        return np.zeros(t_grid.shape)
    with np.errstate(over="ignore"):  # -inf past the float range: exp gives 0
        decay = -t_grid.ravel() / t_q
    ee = c.r_e * (1.0 - _exp_each(decay)) / (c.r_e + c.r_d)
    return _temperatures(ee, 1.0 - ee).reshape(t_grid.shape)


# ---------------------------------------------------------------------------
# trajectories


class Trajectory(Record):
    """Recorded time evolution of the target qubit.

    ``temperature`` is computed from the populations only; records with
    residual coherence above :data:`COHERENCE_FLAG_TOL` set
    ``has_coherence``.  All records are post-processed at once: one stacked
    ``eigvalsh`` gives every entropy, and one :func:`_temperatures` call
    every temperature.
    """

    times: np.ndarray
    mu: float
    states: np.ndarray
    excited_pop: np.ndarray
    temperature: np.ndarray
    entropy: np.ndarray
    has_coherence: bool

    @classmethod
    def from_states(cls, times, states, mu):
        times = np.asarray(times, dtype=float)
        states = np.asarray(states, dtype=complex)
        if states.size == 0:
            states = states.reshape(0, 2, 2)
        if states.shape != (len(times), 2, 2):
            raise ValidationError(
                f"Trajectory: states shape {states.shape} does not match "
                f"{len(times)} records"
            )
        if len(times) > 1 and not np.all(np.diff(times) > 0.0):
            raise ValidationError("Trajectory: times must be strictly increasing")
        ee = states[:, 0, 0].real
        gg = states[:, 1, 1].real
        temps = _temperatures(ee, gg)
        ents = _entropies(np.linalg.eigvalsh(states))
        flagged = bool(np.any(np.abs(states[:, 0, 1]) > COHERENCE_FLAG_TOL))
        return cls(times, float(mu), states, ee, temps, ents, flagged)

    def __len__(self):
        return len(self.times)

    def to_csv(self):
        """CSV text, one row per record with every float as ``%.17g`` (see
        :func:`_csv_text`)."""
        ee, eg, gg = self.states[:, 0, 0], self.states[:, 0, 1], self.states[:, 1, 1]
        with np.errstate(over="ignore"):  # mu t past the float range is written as inf
            mu_t = self.mu * self.times
        cols = np.column_stack(
            (self.times, mu_t, ee.real, gg.real, eg.real, eg.imag,
             self.temperature, self.entropy)
        )
        return _csv_text(TRAJECTORY_CSV_HEADER, _CSV_ROW, cols)


def analytic_trajectory(rho0, c, times):
    """Trajectory of the closed-form states (see :func:`evolve_analytic`)
    on the given grid, built as one ``(n, 2, 2)`` stack."""
    times = np.asarray(times, dtype=float)
    states = _analytic_states(rho0, c, times, "analytic_trajectory")
    return Trajectory.from_states(times, states, c.mu)


def _step_count(t_end, dt):
    """Number of whole steps ``dt`` up to ``t_end``, after checking that
    ``dt`` is finite and positive, ``t_end`` finite and nonnegative, and
    their ratio below :data:`~qollide.errors.MAX_STEPS`."""
    check_finite(dt, "dt")
    check_finite(t_end, "t_end", allow_zero=True)
    if not t_end / dt < errors.MAX_STEPS:
        raise ValidationError(
            f"t_end/dt: {t_end / dt:.3g} steps exceed the limit of 2**53; increase dt"
        )
    return int(math.floor(t_end / dt + 1e-9))


def _record_indices(n_steps, n_records):
    """Sorted steps to record: all ``n_steps + 1`` of them for ``n_records``
    None, else ``n_records`` evenly spaced ones (all of them again once
    ``n_records`` exceeds ``n_steps``).  At most
    :data:`~qollide.errors.MAX_RECORDS`, counted before any is allocated."""
    if n_records is not None:
        check_integer(n_records, "n_records")
        if n_records <= 0:
            return []
    count = n_steps + 1 if n_records is None else min(n_records, n_steps + 1)
    check_count(count)
    if count == n_steps + 1:
        return list(range(count))
    idx = _distinct_sorted(np.round(np.linspace(0, n_steps, n_records)).astype(int))
    return idx.tolist()


def _distinct_sorted(values):
    """The distinct entries of the non-decreasing 1-D ``values``: each entry
    is kept where it differs from the one before it.  Equal to
    ``np.unique`` on such input, without its sort (and without the masked
    array check through which ``np.unique`` imports ``numpy.ma``)."""
    values = np.asarray(values)
    keep = np.empty(len(values), dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused as nan, below
def _propagate(step_mat, vec0, steps, power=None):
    """Apply a constant one-step map ``step_mat`` to ``vec0``.

    Returns the states after ``i`` steps for every ``i`` in the sorted
    ``steps``, one row each.  Consecutive steps are joined by one cached
    map per distinct gap, ``power(step_mat, gap)``, by default the matrix
    power, so the cost is O(len(steps) log steps), not O(steps).
    :func:`integrate_master` passes ``dt`` times its generator as
    ``step_mat``, and its exponential as ``power``.
    """
    vec = np.asarray(vec0)
    rows = np.empty((len(steps), len(vec)), dtype=np.result_type(step_mat, vec))
    powers = {}
    done = 0
    for pos, target in enumerate(steps):
        gap = target - done
        if gap:
            if gap not in powers:
                powers[gap] = (power or np.linalg.matrix_power)(step_mat, gap)
            vec = powers[gap] @ vec
            done = target
        rows[pos] = vec
    # a state that overflowed is all nan, which every caller's check refuses
    rows[~np.isfinite(rows).all(axis=1)] = np.nan
    return rows


def _lindblad_generator(c):
    """4x4 generator of :func:`lindblad_rhs` on the row-major vectorized
    target state, one column per basis matrix."""
    basis = np.eye(4, dtype=complex)
    return np.column_stack([lindblad_rhs(b.reshape(2, 2), c).ravel() for b in basis])


#: The row-major vectorized qubit state ``(ee, eg, ge, gg)`` in trace
#: coordinates ``(ee + gg, eg, ge, ee - gg)``, and back.
_TO_TRACE = np.array([[1.0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, -1]])
_FROM_TRACE = np.array([[0.5, 0, 0, 0.5], [0, 1, 0, 0], [0, 0, 1, 0], [0.5, 0, 0, -0.5]])


def _exp_power(h, gap):
    """``exp(h)**gap``, taken as ``exp(gap h)``; all nan where that is not
    finite, which the caller's trace check refuses."""
    try:
        return matrix_exp(gap * h, tol=1e-17)
    except NumericError:
        return np.full(h.shape, np.nan)


def integrate_master(rho0, c, t_end, dt, n_records=None):
    """Exact solution of the full master equation at whole steps ``dt`` up
    to ``t_end``.

    Unlike the analytic path this supports nonzero drive and squeezing
    coefficients.  The equation is linear and autonomous, so the state
    after ``n`` steps is ``exp(n dt L) rho0``.  The 4x4 generator ``L`` is
    built once from :func:`lindblad_rhs` and taken to the trace coordinates
    ``(Tr rho, rho_eg, rho_ge, rho_ee - rho_gg)``, where its trace row, 0
    for a traceless generator, is set to exactly 0.  Consecutive records
    are joined by one :func:`~qollide.linalg.matrix_exp` per distinct gap
    of ``n`` steps (one for evenly spaced records), whose trace row is
    exactly ``e_0``: every state keeps the trace of ``rho0``, and ``dt``
    sets only the grid.  The ``t = 0`` record is ``rho0`` itself.  Every
    recorded state and the final state are checked for trace drift beyond
    :data:`TOL_DRIFT` (a map that is not finite is refused there, as
    nan), then for a population below :data:`MIN_POPULATION`; both are
    rounding guards.
    """
    rho0 = _qubit_matrix(rho0, "integrate_master")
    n_steps = _step_count(t_end, dt)
    thermalization_time(c)  # an overflowing relaxation rate is refused
    record = _record_indices(n_steps, n_records)
    with np.errstate(over="ignore", invalid="ignore"):  # refused by matrix_exp
        h = _TO_TRACE @ (dt * _lindblad_generator(c)) @ _FROM_TRACE
    h[0] = 0.0  # the trace row of a traceless generator, exactly
    steps = [*record, n_steps]
    rows = _propagate(h, _TO_TRACE @ rho0.ravel(), steps, _exp_power) @ _FROM_TRACE
    rows[np.equal(steps, 0)] = rho0.ravel()
    _check_trace(rows, steps, "integrate_master")
    lowest = np.minimum(rows[:, 0].real, rows[:, 3].real)
    _refuse_first(steps, (lowest < MIN_POPULATION, lowest,
                          "integrate_master: population negativity {:.3e} at step {}"))
    times = np.asarray(record) * dt
    return Trajectory.from_states(times, rows[:-1].reshape(-1, 2, 2), c.mu)


def _refuse_first(steps, *checks):
    """Raise :class:`NumericError` at the earliest of ``steps`` where a
    check fails; at one step, the check listed first.  A check is
    ``(failed, values, text)``: a boolean per step, a value per step, and
    the refusal, formatted with the failing step's value and the step."""
    hits = np.argwhere(np.transpose([failed for failed, _, _ in checks]))
    if len(hits):
        at, which = hits[0]
        _, values, text = checks[which]
        raise NumericError(text.format(values[at], steps[at]))


def _check_trace(rows, steps, name, expected=1.0, tol=TOL_DRIFT):
    """The drift ``|Re Tr rho - expected| + |Im Tr rho|`` of each row-major
    vectorized qubit state in ``rows`` (taken at ``steps``); raise
    :class:`NumericError` at the first that is nan or beyond ``tol``."""
    traces = rows[:, 0] + rows[:, 3]
    drift = np.abs(traces.real - expected) + np.abs(traces.imag)
    _refuse_first(steps, (~(drift <= tol), drift, name + ": trace drift {:.3e} at step {}"))
    return drift


# ---------------------------------------------------------------------------
# exact repeated collisions


def collision_superoperator(bath, params, mode="exact"):
    """4x4 superoperator of one collision, acting on the row-major vectorized
    target state: ``vec(rho') = Phi @ vec(rho)``.

    ``mode='exact'`` uses the full propagator ``U = exp(-i g tau V)`` with
    ``V = s- J+ + s+ J-``; ``mode='second_order'`` uses its (non-unitary)
    truncation ``1 - i g tau V - (g tau)^2 V^2 / 2``, whose ``U^dag U = 1 +
    (g tau V)^4 / 4``: each second-order collision adds ``(g tau)^4 <V^4> /
    4`` to the trace, which :func:`collision_chain` reports once it passes
    1%.  There are two paths.

    A named family is a mixture of spin-ladder states (see
    :func:`~qollide.baths.ladder_weights`), and ``V`` couples ``|e,m>`` to
    ``|g,m+1>`` alone, by ``c_m = sqrt((j-m)(j+m+1))``: each pair is a 2x2
    rotation by ``x = g tau c_m``, with ``cos x -> 1 - x^2/2`` and ``sin x
    -> x`` in second order.  So ``Phi`` has six nonzero entries, weighted
    sums over the ladder states: ``Phi[ee,ee] = sum w cos^2 x_m``,
    ``Phi[gg,ee] = sum w sin^2 x_m``, ``Phi[gg,gg] = sum w cos^2 x_{m-1}``,
    ``Phi[ee,gg] = sum w sin^2 x_{m-1}`` and ``Phi[eg,eg] = Phi[ge,ge] =
    sum w cos x_m cos x_{m-1}``; no ``2^N`` state is built.

    An explicit matrix goes through the sector engine.  ``V`` conserves the
    total excitation, so ``U`` is built per sector ``k = -1..N``, ``{|e>
    block k, |g> block k+1}`` (bath blocks -1 and N+1 are empty), from one
    ``eigh`` of ``V_k = [[0, L_k], [L_k^dag, 0]]`` (``L_k = ops.ladder[k]``);
    the edge sectors -1 and N are 1x1 with ``L_k = 0``, so their ``U`` is
    ``[[1]]``.  ``<c|U|a>`` of sector ``k`` maps bath block ``k+a`` to block
    ``k+c``, so ``Phi[(c,d), (a,b)] = Tr(<c|U|a> rho_B <d|U|b>^dag)`` is a
    sum over the output bath block.
    """
    mode = mode.replace("-", "_")
    if mode not in ("exact", "second_order"):
        raise ValidationError(f"mode: must be 'exact' or 'second_order', got {mode!r}")
    if bath.kind in FAMILIES:
        two_j, two_m, w = ladder_weights(bath)
        # 4 c_m^2 and 4 c_{m-1}^2, exact in integers
        x = 0.5 * params.g_tau * np.sqrt(
            [(two_j - two_m) * (two_j + two_m + 2), (two_j - two_m + 2) * (two_j + two_m)]
        )
        cos, sin = (np.cos(x), np.sin(x)) if mode == "exact" else (1.0 - 0.5 * x**2, x)
        phi = np.zeros((4, 4), dtype=complex)
        phi[[0, 3], [0, 3]] = cos**2 @ w
        phi[[3, 0], [0, 3]] = sin**2 @ w
        phi[[1, 2], [1, 2]] = cos[0] * cos[1] @ w
        return phi
    N = bath.N
    rho_b = validate_bath(bath)
    ops = build_collective_ops(N)
    # bath block s (-1..N+1) is rows pad[s+1]:pad[s+2]
    pad = [0, *ops.basis.offsets, 2**N]
    sectors = []  # sectors[k+1][c][a] = <c|U|a> of sector k
    for L in [np.zeros((0, 1)), *ops.ladder, np.zeros((1, 0))]:
        n, m = L.shape
        V = np.block([[np.zeros((n, n)), L], [L.conj().T, np.zeros((m, m))]])
        w, Q = np.linalg.eigh(V)
        x = params.g_tau * w
        f = np.exp(-1j * x) if mode == "exact" else 1.0 - 1j * x - 0.5 * x**2
        U = (Q * f) @ Q.conj().T
        sectors.append([[U[:n, :n], U[:n, n:]], [U[n:, :n], U[n:, n:]]])
    phi = np.zeros((4, 4), dtype=complex)
    for c, d, a, b in itertools.product(range(2), repeat=4):
        for r in range(N + 1):
            i, j = r - c + a, r - d + b
            rho_ij = rho_b[pad[i + 1] : pad[i + 2], pad[j + 1] : pad[j + 2]]
            A, B = sectors[r - c + 1][c][a], sectors[r - d + 1][d][b]
            phi[2 * c + d, 2 * a + b] += np.sum((A @ rho_ij) * B.conj())
    return phi


def _bath_trace(bath):
    """``Tr(rho_B)`` of a bath that passed :func:`validate_bath`, without
    building it again: an explicit matrix's trace may miss 1 by up to
    ``TOL_TRACE``; the named families' weights sum to 1 to rounding."""
    if bath.kind == "explicit":
        return float(np.trace(np.asarray(bath.rho)).real)
    return 1.0


def _trajectory_streams(seed):
    """``(rng, reset)``: one Philox ``Generator``, and ``reset(i)``, which
    sets it to trajectory ``i``'s stream, keyed by ``(seed mod 2**64, i)``
    at counter 0.  Assigning a fresh state costs a fifth of building
    ``Philox(key=...)``, which gathers OS entropy for a seed sequence it
    then discards."""
    bitgen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    key = np.array([int(seed) % 2**64, 0], dtype=np.uint64)
    fresh = {**bitgen.state, "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key}}

    def reset(i):
        key[1] = i
        bitgen.state = fresh  # the setter copies the values

    return np.random.Generator(bitgen), reset


def _collision_counts(seed, n_trajectories, record, p_dt):
    """Yield the collision counts of the stochastic scheme, one block of
    trajectories at a time: ``m[t, r]`` counts the collisions of the
    block's ``t``-th trajectory in its first ``record[r]`` steps.

    Step ``j + 1`` of a trajectory collides when its ``j``-th uniform draw
    is below ``p_dt``; the draws stop at the last record.  Only the hits are
    located, each at the first record after it, so the cost is the draws.
    The draws buffer and a block's states (four per count) hold at most
    :data:`_DRAW_CHUNK` entries, read at call time, unless one trajectory's
    records alone hold more; a trajectory with more draws than that has a
    block to itself and is drawn a chunk at a time.  Memory is O(records)
    whatever the step count.
    """
    chunk = _DRAW_CHUNK
    marks = np.asarray(record, dtype=np.int64)
    last = record[-1] if record else 0
    width = max(1, min(last, chunk))  # draws per trajectory and chunk
    block = max(1, chunk // max(width, 4 * len(record)))
    buf = np.empty(block * width)
    rng, reset = _trajectory_streams(seed)
    for first in range(0, n_trajectories, block):
        size = min(block, n_trajectories - first)
        counts = np.zeros(size * len(record), dtype=np.int64)
        for start in range(0, last, width):  # one chunk, unless size is 1
            draws = buf[: size * min(width, last - start)].reshape(size, -1)
            for t, row in enumerate(draws):
                if start == 0:
                    reset(first + t)
                rng.random(out=row)
            traj, step = np.divmod(np.flatnonzero(draws < p_dt), draws.shape[1])
            at = traj * len(record) + marks.searchsorted(step + start, "right")
            counts += np.bincount(at, minlength=len(counts))
        yield np.cumsum(counts.reshape(size, len(record)), axis=1)


def collision_chain(
    rho0,
    bath,
    params,
    t_end,
    dt,
    mode="exact",
    scheme="deterministic",
    seed=0,
    n_trajectories=1000,
    n_records=None,
):
    """Simulate repeated random collisions of the target with fresh clusters.

    Each time step of length ``dt`` applies a collision with probability
    ``p*dt``.  The deterministic scheme applies the convex mixture
    ``(1 - p dt) rho + p dt Phi(rho)`` every step; the stochastic scheme
    draws a Bernoulli sample per step and averages ``n_trajectories``
    realizations, each driven by a counter-based stream keyed by
    ``(seed, trajectory index)`` so results are reproducible regardless of
    scheduling.

    Both schemes are applied through powers of a constant one-step map: the
    deterministic step matrix between records, and for each stochastic
    realization ``Phi^m``, with ``m`` its number of collisions so far.  The
    run is checked before ``Phi`` is built; a stochastic run whose
    trajectories times (draws per trajectory + 720) exceed
    :data:`~qollide.errors.MAX_DRAWS` is refused there.  The recorded
    states are checked after, against the trace the bath predicts: an exact collision
    multiplies the target's trace by ``Tr(rho_B)``, which a validated bath
    may miss 1 by up to ``TOL_TRACE``, so record ``i`` should have trace
    ``(1 + p dt (Tr(rho_B) - 1))^i`` (deterministic) or ``Tr(rho_B)`` to
    the mean collision count (stochastic; the mean of ``Tr(rho_B)^m``
    differs by about ``Var(m) log(Tr(rho_B))^2 / 2``, below 1e-11 for any
    count a run can reach).  In exact mode a drift beyond :data:`TOL_DRIFT`
    from it raises :class:`NumericError`, as in :func:`integrate_master`;
    second-order collisions add to the trace, so a drift beyond 1% gives
    one accuracy advisory.  A state that overflowed is refused in either
    mode.
    """
    rho0 = _qubit_matrix(rho0, "collision_chain")
    n_steps = _step_count(t_end, dt)
    p_dt = params.p * dt
    if p_dt > 1.0:
        raise ValidationError(
            f"p*dt: collision probability per step is {p_dt:.3g} > 1; reduce dt"
        )
    if scheme not in SCHEMES:
        raise ValidationError(
            f"scheme: must be {' or '.join(map(repr, SCHEMES))}, got {scheme!r}"
        )
    if scheme == "stochastic":
        check_integer(n_trajectories, "n_trajectories")
        check_integer(seed, "seed")
        if n_trajectories < 1:
            raise ValidationError("n_trajectories: must be >= 1")
    record = _record_indices(n_steps, n_records)
    last = record[-1] if record else 0  # draws per stochastic trajectory
    limit = errors.MAX_DRAWS
    if scheme == "stochastic" and n_trajectories * (last + 720) > limit:
        raise ValidationError(
            f"n_trajectories: {n_trajectories} trajectories x ({last} draws + 720 per trajectory)"
            f" exceed the limit of {limit:.3g} draws; reduce the trajectories or t_end/dt"
        )
    phi = collision_superoperator(bath, params, mode=mode)
    times = np.asarray(record) * dt
    vec0 = rho0.ravel()

    bath_trace = _bath_trace(bath)

    if scheme == "deterministic":
        step_mat = (1.0 - p_dt) * np.eye(4, dtype=complex) + p_dt * phi
        recorded = _propagate(step_mat, vec0, record)
        expected = (1.0 + p_dt * (bath_trace - 1.0)) ** np.array(record, dtype=float)
    else:
        # a trajectory's state after i steps is Phi^m rho0, m the number of
        # collisions drawn in its first i steps
        powers = vec0[None, :]
        total = np.zeros((len(record), 4), dtype=complex)
        counted = np.zeros(len(record), dtype=np.int64)
        for m in _collision_counts(seed, n_trajectories, record, p_dt):
            extra = m.max(initial=0) + 1 - len(powers)  # counts are cumulative
            if extra > 0:
                more = _propagate(phi, powers[-1], range(1, extra + 1))
                powers = np.concatenate([powers, more])
            for states in powers[m]:  # one trajectory at a time: the sum rounds in order
                total += states
            counted += m.sum(axis=0)
        recorded = total / n_trajectories
        expected = bath_trace ** (counted / n_trajectories)

    exact = mode == "exact"
    # second-order collisions add to the trace: only a state that is not
    # finite is refused, and a drift beyond 1% is an advisory
    drift = _check_trace(recorded, record, "collision_chain", expected,
                         TOL_DRIFT if exact else math.inf)
    worst = drift.max(initial=0.0)
    if not exact and worst > 1e-2:
        warnings.warn(
            f"second-order collisions moved the trace by {worst:.3g}, more "
            "than 1%; the truncated collision map is not trace-preserving; "
            "accuracy advisory",
            stacklevel=2,
        )
    states = recorded.reshape(len(record), 2, 2)
    return Trajectory.from_states(times, states, params.mu)


# ---------------------------------------------------------------------------
# thermal preparation of the collective bath


class LadderState(Record, frozen=True):
    """Populations of the fully symmetric ladder states, indexed by the
    excitation count ``k = 0..N`` (``m = k - N/2``)."""

    N: int
    populations: np.ndarray

    def __post_init__(self):
        check_n(self.N)
        pops = np.asarray(self.populations, dtype=float)
        if pops.shape != (self.N + 1,):
            raise ValidationError(
                f"LadderState: expected {self.N + 1} populations, got shape "
                f"{pops.shape}"
            )
        if not np.all(np.isfinite(pops)):
            raise ValidationError("LadderState: populations must be finite")
        if pops.min() < MIN_POPULATION:
            raise ValidationError(
                f"LadderState: negative population {pops.min():.3e}"
            )
        if not abs(pops.sum() - 1.0) <= TOL_DRIFT:
            raise ValidationError(
                f"LadderState: populations sum to {pops.sum():.12g}, not 1"
            )
        pops = pops.copy()
        pops.setflags(write=False)
        object.__setattr__(self, "populations", pops)


def _ladder_rates(N, n_bar):
    """Ladder rates of collective emission and absorption in units of
    ``gamma0 (n_bar + 1)``, k = 1..N: ``down[k-1] = k (N-k+1)`` from ``k``,
    and ``up[k-1] = r down[k-1]`` into ``k``, with ``r = n_bar/(n_bar+1) =
    pi_k/pi_{k-1}``.  Returns ``(r, down, up)``, with no ``-0.0``."""
    k = np.arange(1, N + 1.0)  # floats: products of integer inputs cannot wrap
    r = n_bar / (n_bar + 1.0) + 0.0  # + 0.0: n_bar = -0.0 gives r = +0.0
    down = k * (N - k + 1)
    return r, down, r * down


def ladder_history(N, n_bar, gamma0, t_end, dt, n_records=None):
    """Solve the ladder rate equations exactly from the collective ground
    state, at whole steps ``dt`` up to ``t_end``.

    Under detailed balance, ``pi_k ∝ r^k``, the generator symmetrized by
    ``sqrt(pi)`` is ``Q diag(lam) Q^T``, so ``p_k(t) = r^(k/2) sum_i Q_ki
    exp(lam_i t) Q_0i``: one ``eigh`` of ``N + 1`` rows, then one product
    per record; ``dt`` sets only the grid.  Returns ``(times, populations,
    final)``: one row per record, and the state at the last step, a product
    of its own however the steps are recorded (a record there is that same
    state).  The stationary ``lam`` is 0 and the ``t = 0`` row is ``[1, 0,
    ...]``, exactly.  Population negativity or normalization drift of any
    of them, a rounding guard, raises :class:`NumericError`; an N above
    :data:`~qollide.errors.MAX_LADDER_N` is refused before anything is built.
    """
    check_n(N, ladder_for="ladder_history")
    check_finite(n_bar, "n_bar", allow_zero=True)
    check_finite(gamma0, "gamma0")
    n_steps = _step_count(t_end, dt)
    steps = np.array([*_record_indices(n_steps, n_records), n_steps])
    r, down, up = _ladder_rates(N, n_bar)
    loss = np.append(0.0, down) + np.append(up, 0.0)
    # the generator symmetrized by sqrt(pi), in the lower triangle eigh reads
    lam, vecs = np.linalg.eigh(np.diag(np.sqrt(up * down), -1) - np.diag(loss))
    lam[-1] = 0.0  # the stationary mode, the largest, exactly
    scaled = vecs * (np.sqrt(r) ** np.arange(N + 1.0))[:, None]  # r^(k/2) Q_ki

    def populations(steps):
        # lam is in units of gamma0 (n_bar + 1); times lam comes first, so
        # lam = 0 stays 0 at any time, and an overflow is a mode decayed to 0
        with np.errstate(over="ignore"):
            modes = np.exp(np.multiply.outer(steps * dt, lam) * gamma0 * (n_bar + 1.0)) * vecs[0]
        rows = modes @ scaled.T
        rows[steps == 0] = np.eye(1, N + 1)  # not the rounded Q Q^T
        return rows

    # the final state is a product of its own, so its bytes do not depend on
    # the records; a record at the last step is that same array
    rows = populations(steps)
    rows[steps == n_steps] = populations(steps[-1:])
    lowest = rows.min(axis=1)
    drift = rows.sum(axis=1) - 1.0
    _refuse_first(
        steps,
        (lowest < MIN_POPULATION, lowest,
         "ladder integration: population negativity {:.3e} at step {}"),
        (~(np.abs(drift) <= TOL_DRIFT), drift,  # nan included
         "ladder integration: normalization drift {:.3e} at step {}"),
    )
    return steps[:-1] * dt, rows[:-1], rows[-1]


def _ladder_bath(basis, pops):
    """``(LadderState, rho_product)`` of checked ladder populations: slight
    rounding negatives are clipped to 0, then block ``k`` of the product
    basis ``basis`` is filled with population ``k`` over ``C(N,k)``."""
    ladder = LadderState(basis.N, np.clip(pops, 0.0, None))
    return ladder, _symmetric_state(basis, ladder.populations)


def prepare_thermal_dicke(N, n_bar, gamma0, t_end, dt):
    """Thermalize the collective ladder and map it to the product basis.

    Starting from ``|g...g>`` the dynamics stays inside the fully symmetric
    ladder, so an (N+1)-dimensional rate equation, solved exactly by
    :func:`ladder_history`, suffices.  For
    ``t_end >> 1/gamma0`` consecutive populations approach the Gibbs ratio
    ``n_bar/(n_bar+1)`` and the product-basis image coincides with the
    thermal-hec bath, ``validate_bath(BathSpec.thermal_hec(N, n_bar))``.
    The qubit cap comes first.

    Returns ``(LadderState, rho_product)``.
    """
    basis = basis_ordering(N)
    *_, final = ladder_history(N, n_bar, gamma0, t_end, dt, n_records=0)
    return _ladder_bath(basis, final)


# ---------------------------------------------------------------------------
# scaling sweeps


class SweepRow(Record, frozen=True, eq=True):
    N: int
    k: int
    r_e: float
    r_d: float
    t_q: float
    T_q: float


class SweepResult(Record, frozen=True):
    """Sweep columns, one entry per N in input order; ``k`` is None for
    families without a block index."""

    family: str
    k_rule: str
    N: np.ndarray
    k: np.ndarray
    r_e: np.ndarray
    r_d: np.ndarray
    t_q: np.ndarray
    T_q: np.ndarray
    slope_t_q: float
    slope_T_q: float

    @cached_property
    def rows(self):
        """The columns as one :class:`SweepRow` per N."""
        ks = [None] * len(self.N) if self.k is None else self.k.tolist()
        cols = (self.r_e, self.r_d, self.t_q, self.T_q)
        return tuple(map(SweepRow, self.N.tolist(), ks, *(c.tolist() for c in cols)))

    def to_csv(self):
        """CSV text, one row per N with every float as ``%.17g`` (see
        :func:`_csv_text`); the ``k`` field is empty without a block index."""
        k_field = [] if self.k is None else [self.k]
        cols = np.column_stack((self.N, *k_field, self.r_e, self.r_d, self.t_q, self.T_q))
        row = "%d," + ("" if self.k is None else "%d") + ",%.17g" * 4 + "\n"
        return _csv_text(SWEEP_CSV_HEADER, row, cols)

    def slopes_dict(self):
        # non-finite slopes (undefined fits) serialize as null, not NaN
        def fin(x):
            return x if math.isfinite(x) else None

        return {
            "family": self.family,
            "k_rule": self.k_rule,
            "n_min": int(self.N[0]) if len(self.N) else None,
            "n_max": int(self.N[-1]) if len(self.N) else None,
            "points": len(self.N),
            "slope_t_q": fin(self.slope_t_q),
            "slope_T_q": fin(self.slope_T_q),
        }


def fit_loglog_slope(xs, ys):
    """Least-squares slope of ``ln(y)`` against ``ln(x)``."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) < 2 or np.all(xs == xs[0]):
        raise ValidationError("fit_loglog_slope: need at least two distinct x values")
    if not all(np.all((0.0 < v) & (v < math.inf)) for v in (xs, ys)):  # nan included
        raise ValidationError("fit_loglog_slope: values must be finite and positive")
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


#: A dicke sweep's rules for each N's block index, by name.
K_RULES = {"quarter": lambda N: N // 4, "half-minus-one": dicke_max_noninverted_k}


def _sweep_k(k_rule, N):
    """Dicke block index of every N (an int or an integer array)."""
    if isinstance(k_rule, str) and k_rule in K_RULES:
        return K_RULES[k_rule](N)
    raise ValidationError(
        f"k_rule: must be {' or '.join(map(repr, K_RULES))}, got {k_rule!r}"
    )


def scaling_sweep(family, N_list, params, p_e=None, n_bar=None, k_rule=None):
    """Closed-form sweep of rates, thermalization time and steady temperature.

    Families: ``product`` (requires ``p_e``), ``thermal-hec`` (requires
    ``n_bar``) and ``dicke`` (requires ``k_rule``; for N not divisible by 4
    the quarter rule takes ``floor(N/4)``, the half-minus-one rule takes the
    largest non-inverted block).  Rows follow the input order.  Every column
    is computed for all N at once, O(1) per N, with the bits of the one-N
    closed forms (the family's rates, :func:`thermalization_time`,
    :func:`steady_temperature`).  ``N_list`` is a sequence of at most
    :data:`~qollide.errors.MAX_RECORDS` values in ``1..MAX_SWEEP_N``.
    """
    check_count(len(N_list), TOO_MANY_POINTS)
    if not len(N_list):
        raise ValidationError("N_list: must not be empty")
    check_ns(N_list, "N_list")  # before a value can overflow int64
    Ns = np.array(N_list, dtype=np.int64)
    if family not in FAMILIES:
        raise ValidationError(
            f"family: must be 'product', 'thermal-hec' or 'dicke', got {family!r}"
        )
    name = "k_rule" if family == "dicke" else FAMILIES[family].field  # a rule for each N's k
    value = {"p_e": p_e, "n_bar": n_bar, "k_rule": k_rule}[name]
    if value is None:
        raise ValidationError(f"{name}: required for the {family} family")
    k = _sweep_k(k_rule, Ns) if family == "dicke" else None
    # dicke: products of exact float factors, rounded once as float() of the ints
    r_e, r_d = FAMILIES[family].rates(Ns.astype(float), value if k is None else k.astype(float))

    t_q = _thermalization_times(params.mu, r_e, r_d)
    T_q = _temperatures(r_e, r_d)

    slopes = []
    for ys in (t_q, T_q):
        try:
            slopes.append(fit_loglog_slope(Ns, ys))
        except ValidationError:
            slopes.append(math.nan)
    return SweepResult(family, k_rule, Ns, k, r_e, r_d, t_q, T_q, *slopes)
