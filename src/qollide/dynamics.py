"""Target-qubit dynamics: closed forms, master-equation integration, exact
repeated collisions, bath preparation and scaling sweeps.

The target qubit lives in the fixed basis ``(|e>, |g>)`` so entry (0, 0) of
its density matrix is the excited population.  With the drive and squeezing
channels off, the populations relax exponentially with characteristic time
``t_q = 1 / (mu (r_e + r_d))`` towards ``diag(r_e, r_d) / (r_e + r_d)``; the
coherence decays with ``2 t_q``.  Temperatures are reported in units of
``hbar*omega0/k_B`` and entropies in units of ``k_B``.
"""

from __future__ import annotations

import bisect
import itertools
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .baths import _check_k, _symmetric_state, check_n_bar, validate_bath
from .collective import basis_ordering, build_collective_ops
from .errors import NumericError, ValidationError
from .linalg import validate_density_matrix
from .master_equation import dicke_rates, lindblad_rhs, product_mixed_rates, thermal_hec_rates

#: Residual coherence above which trajectory temperatures are flagged.
COHERENCE_FLAG_TOL = 1e-6

#: Time grids are limited to fewer steps than this (float steps stay exact).
MAX_STEPS = 2**53

#: Trajectories and ladder histories hold at most this many records.
MAX_RECORDS = 10**6

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
    chunk; adding ``0.0`` writes ``-0.0`` as ``0``.
    """
    cols = cols + 0.0
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


def thermalization_time(c):
    """Characteristic relaxation time 1 / (mu (r_e + r_d)); infinite when the
    bath does not couple (both rates zero, or zero coupling strength)."""
    rate = c.mu * (c.r_e + c.r_d)
    if rate <= 0.0:
        return math.inf
    return 1.0 / rate


def steady_state(c):
    """Fixed point diag(r_e, r_d) / (r_e + r_d) of the thermal channel."""
    total = c.r_e + c.r_d
    if total <= 0.0:
        raise ValidationError("steady_state: r_e + r_d must be positive")
    return np.diag([c.r_e / total, c.r_d / total]).astype(complex)


def temperature_from_populations(p_e, p_g):
    """Temperature (units hbar*omega0/k_B) of a diagonal two-level state.

    Sentinels: 0 for an unpopulated excited level, -0.0 for an unpopulated
    ground level (fully inverted) and +inf at equal populations.  Negative
    values signal population inversion.
    """
    if p_e <= 0.0:
        return 0.0
    if p_g <= 0.0:
        return -0.0
    if p_e == p_g:
        return math.inf
    return 1.0 / math.log(p_g / p_e)


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
    _check_k(N, k)
    r_e, r_d = dicke_rates(N, k)
    return temperature_from_populations(float(r_e), float(r_d))


def dicke_max_noninverted_k(N):
    """Largest excitation count with a positive steady temperature."""
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


def _temperatures(ee, gg):
    """:func:`temperature_from_populations` of every pair of 1-D populations."""
    temps = map(temperature_from_populations, ee.tolist(), gg.tolist())
    return np.fromiter(temps, dtype=float, count=len(ee))


def _analytic_states(rho0, c, times):
    """Closed-form target states at the 1-D ``times``, stacked ``(n, 2, 2)``.

    ``rho_ee(t) = (r_e + c0 exp(-t/t_q)) / (r_e + r_d)`` with
    ``c0 = r_d rho_ee(0) - r_e rho_gg(0)``; the coherence decays with twice
    the thermalization time.  Without coupling every state is ``rho0``.
    """
    _require_thermal_only(c)
    rho0 = np.asarray(rho0, dtype=complex)
    total = c.r_e + c.r_d
    if c.mu * total <= 0.0:
        return np.repeat(rho0[None], len(times), axis=0)
    t_q = 1.0 / (c.mu * total)
    c0 = c.r_d * rho0[0, 0].real - c.r_e * rho0[1, 1].real
    ee = (c.r_e + c0 * _exp_each(-times / t_q)) / total
    eg = rho0[0, 1] * _exp_each(-times / (2.0 * t_q))
    return np.stack((ee, eg, np.conj(eg), 1.0 - ee), axis=1).reshape(-1, 2, 2)


def evolve_analytic(rho0, c, t):
    """Closed-form target state at time ``t`` for the thermal-only channel
    (the one-time case of :func:`analytic_trajectory`)."""
    return _analytic_states(rho0, c, np.array([t], dtype=float))[0]


def temperature_trajectory(c, t_grid):
    """Time-dependent temperature for ground-state initialization.

    Equals ``1 / ln(rho_gg(t) / rho_ee(t))`` with the analytic populations,
    i.e. ``[ln((1 + r_d/r_e)/(1 - exp(-t/t_q)) - 1)]**-1``; 0 at t = 0 and
    approaching the steady temperature for long times.
    """
    _require_thermal_only(c)
    if c.r_e <= 0.0:
        raise ValidationError("temperature_trajectory: r_e must be positive")
    total = c.r_e + c.r_d
    t_grid = np.asarray(t_grid, dtype=float)
    if c.mu <= 0.0:
        return np.zeros(t_grid.shape)
    t_q = 1.0 / (c.mu * total)
    ee = c.r_e * (1.0 - _exp_each(-t_grid.ravel() / t_q)) / total
    return _temperatures(ee, 1.0 - ee).reshape(t_grid.shape)


# ---------------------------------------------------------------------------
# trajectories


@dataclass(eq=False)
class Trajectory:
    """Recorded time evolution of the target qubit.

    ``temperature`` is computed from the populations only; records with
    residual coherence above :data:`COHERENCE_FLAG_TOL` set
    ``has_coherence``.  All records are post-processed at once: one stacked
    ``eigvalsh`` gives every entropy, and the temperatures map
    :func:`temperature_from_populations` over the populations.
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
        cols = np.column_stack(
            (self.times, self.mu * self.times, ee.real, gg.real, eg.real, eg.imag,
             self.temperature, self.entropy)
        )
        return _csv_text(TRAJECTORY_CSV_HEADER, _CSV_ROW, cols)


def analytic_trajectory(rho0, c, times):
    """Trajectory of the closed-form states (see :func:`evolve_analytic`)
    on the given grid, built as one ``(n, 2, 2)`` stack."""
    times = np.asarray(times, dtype=float)
    return Trajectory.from_states(times, _analytic_states(rho0, c, times), c.mu)


def _step_count(t_end, dt):
    """Number of whole steps ``dt`` up to ``t_end``, after checking that
    ``dt`` is finite and positive, ``t_end`` finite and nonnegative, and
    their ratio below :data:`MAX_STEPS`."""
    if not 0.0 < dt < math.inf:
        raise ValidationError(f"dt: must be finite and positive, got {dt}")
    if not 0.0 <= t_end < math.inf:
        raise ValidationError(f"t_end: must be finite and >= 0, got {t_end}")
    if not t_end / dt < MAX_STEPS:
        raise ValidationError(
            f"t_end/dt: {t_end / dt:.3g} steps exceed the limit of 2**53; increase dt"
        )
    return int(math.floor(t_end / dt + 1e-9))


def _check_record_count(count):
    """Refuse a grid of more than :data:`MAX_RECORDS` records, before it is
    allocated; every engine's grid is held to this one limit."""
    if count > MAX_RECORDS:
        raise ValidationError(
            f"n_records: {count} records exceed the limit of {MAX_RECORDS}; "
            "record fewer points"
        )


def _record_indices(n_steps, n_records):
    """Sorted steps to record: all ``n_steps + 1`` of them for ``n_records``
    None, else ``n_records`` evenly spaced ones (all of them again once
    ``n_records`` exceeds ``n_steps``).  At most :data:`MAX_RECORDS`."""
    if n_records is not None and n_records <= 0:
        return []
    count = n_steps + 1 if n_records is None else min(n_records, n_steps + 1)
    _check_record_count(count)
    if count == n_steps + 1:
        return list(range(count))
    idx = np.unique(np.round(np.linspace(0, n_steps, n_records)).astype(int))
    return idx.tolist()


def _propagate(step_mat, vec0, steps):
    """Apply a constant one-step map ``step_mat`` to ``vec0``.

    Returns the states after ``i`` steps for every ``i`` in the sorted
    ``steps``, one row each.  Consecutive steps are joined by one cached
    matrix power per distinct gap, so the cost is O(len(steps) log steps),
    not O(steps).
    """
    vec = np.asarray(vec0)
    rows = np.empty((len(steps), len(vec)), dtype=np.result_type(step_mat, vec))
    powers = {}
    done = 0
    for pos, target in enumerate(steps):
        gap = target - done
        if gap:
            if gap not in powers:
                powers[gap] = np.linalg.matrix_power(step_mat, gap)
            vec = powers[gap] @ vec
            done = target
        rows[pos] = vec
    return rows


def _rk4_step_matrix(gen, dt):
    """One classical RK4 step of ``dx/dt = gen @ x``, which for a constant
    generator is exactly the degree-4 Taylor polynomial of ``exp(dt gen)``."""
    h = dt * np.asarray(gen)
    eye = np.eye(len(h), dtype=h.dtype)
    return eye + h @ (eye + h @ (eye + h @ (eye + h / 4.0) / 3.0) / 2.0)


def _lindblad_generator(c):
    """4x4 generator of :func:`lindblad_rhs` on the row-major vectorized
    target state, one column per basis matrix."""
    gen = np.zeros((4, 4), dtype=complex)
    for col in range(4):
        basis_mat = np.zeros(4, dtype=complex)
        basis_mat[col] = 1.0
        gen[:, col] = lindblad_rhs(basis_mat.reshape(2, 2), c).ravel()
    return gen


def integrate_master(rho0, c, t_end, dt, n_records=None):
    """Fixed-step 4th-order integration of the full master equation.

    Unlike the analytic path this supports nonzero drive and squeezing
    coefficients.  The equation is linear and autonomous, so the classical
    RK4 step is one constant 4x4 map, built once from :func:`lindblad_rhs`
    and applied through its powers between records.  Every recorded state
    and the final state are checked for trace drift beyond 1e-8 (the
    generator is traceless, so drift indicates a numeric problem).
    """
    n_steps = _step_count(t_end, dt)
    t_q = thermalization_time(c)
    if math.isfinite(t_q) and dt > t_q / 20.0:
        warnings.warn(
            f"dt = {dt:.3g} exceeds t_q/20 = {t_q / 20.0:.3g}; accuracy advisory",
            stacklevel=2,
        )
    record = _record_indices(n_steps, n_records)
    step_mat = _rk4_step_matrix(_lindblad_generator(c), dt)
    vec0 = np.asarray(rho0, dtype=complex).ravel()
    steps = [*record, n_steps]
    rows = _propagate(step_mat, vec0, steps)
    traces = rows[:, 0] + rows[:, 3]
    drift = np.abs(traces.real - 1.0) + np.abs(traces.imag)
    bad = np.flatnonzero(drift > 1e-8)
    if bad.size:
        first = bad[0]
        raise NumericError(
            f"integrate_master: trace drift {drift[first]:.3e} at step {steps[first]}"
        )
    times = np.array([step * dt for step in record])
    return Trajectory.from_states(times, rows[:-1].reshape(-1, 2, 2), c.mu)


# ---------------------------------------------------------------------------
# exact repeated collisions


def collision_superoperator(bath, params, mode="exact"):
    """4x4 superoperator of one collision, acting on the row-major vectorized
    target state: ``vec(rho') = Phi @ vec(rho)``.

    ``mode='exact'`` uses the full propagator ``U = exp(-i g tau V)`` with
    ``V = s- J+ + s+ J-``; ``mode='second_order'`` uses its (non-unitary)
    truncation ``1 - i g tau V - (g tau)^2 V^2 / 2``.  ``V`` conserves the
    total excitation, so ``U`` is built one sector ``{|e> block k, |g> block
    k+1}`` at a time, from one ``eigh`` of ``V_k = [[0, L_k], [L_k^dag, 0]]``
    (``L_k = ops.ladder[k]``); ``|g> block 0`` and ``|e> block N`` are left
    unchanged.  With ``M_ca = <c|U|a>`` the entry ``Phi[(c,d), (a,b)] =
    Tr(M_ca rho_B M_db^dag)`` is then a sum over bath blocks, since every
    block of ``M_ca`` maps one bath excitation block to another.
    """
    mode = mode.replace("-", "_")
    if mode not in ("exact", "second_order"):
        raise ValidationError(f"mode: must be 'exact' or 'second_order', got {mode!r}")
    N = bath.N
    rho_b = validate_bath(bath)
    ops = build_collective_ops(N)
    off = ops.basis.offsets
    # blocks[c][a][r] = (s, block of <c|U|a> from bath block s to block r);
    # target index 0 is |e>, 1 is |g>
    blocks = [[[None] * (N + 1) for _ in range(2)] for _ in range(2)]
    blocks[0][0][N] = (N, np.eye(1))
    blocks[1][1][0] = (0, np.eye(1))
    for k, L in enumerate(ops.ladder):
        n, m = L.shape
        V = np.block([[np.zeros((n, n)), L], [L.conj().T, np.zeros((m, m))]])
        w, Q = np.linalg.eigh(V)
        x = params.g_tau * w
        f = np.exp(-1j * x) if mode == "exact" else 1.0 - 1j * x - 0.5 * x**2
        U = (Q * f) @ Q.conj().T
        blocks[0][0][k] = (k, U[:n, :n])
        blocks[0][1][k] = (k + 1, U[:n, n:])
        blocks[1][0][k + 1] = (k, U[n:, :n])
        blocks[1][1][k + 1] = (k + 1, U[n:, n:])
    phi = np.zeros((4, 4), dtype=complex)
    for c, d, a, b in itertools.product(range(2), repeat=4):
        for left, right in zip(blocks[c][a], blocks[d][b]):
            if left is None or right is None:
                continue
            (i, A), (j, B) = left, right
            rho_ij = rho_b[off[i] : off[i + 1], off[j] : off[j + 1]]
            phi[2 * c + d, 2 * a + b] += np.sum((A @ rho_ij) * B.conj())
    return phi


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
    realization ``Phi^m``, with ``m`` its number of collisions so far.
    """
    n_steps = _step_count(t_end, dt)
    p_dt = params.p * dt
    if p_dt > 1.0:
        raise ValidationError(
            f"p*dt: collision probability per step is {p_dt:.3g} > 1; reduce dt"
        )
    if scheme not in ("deterministic", "stochastic"):
        raise ValidationError(
            f"scheme: must be 'deterministic' or 'stochastic', got {scheme!r}"
        )
    phi = collision_superoperator(bath, params, mode=mode)
    record = _record_indices(n_steps, n_records)
    times = np.array([dt * i for i in record])
    vec0 = np.asarray(rho0, dtype=complex).ravel()

    if scheme == "deterministic":
        step_mat = (1.0 - p_dt) * np.eye(4, dtype=complex) + p_dt * phi
        recorded = _propagate(step_mat, vec0, record)
    else:
        if n_trajectories < 1:
            raise ValidationError("n_trajectories: must be >= 1")
        # a trajectory's state after i steps is Phi^m rho0, m the number of
        # collisions drawn in its first i steps; the draws stop at the last
        # record and come _DRAW_CHUNK at a time, so memory is O(records)
        # whatever the step count
        last = record[-1] if record else 0
        ends = np.array(record, dtype=np.int64) - 1  # each record's last draw
        powers = vec0[None, :]
        total = np.zeros((len(record), 4), dtype=complex)
        for traj in range(n_trajectories):
            key = np.array([int(seed) % 2**64, traj], dtype=np.uint64)
            rng = np.random.Generator(np.random.Philox(key=key))
            m = np.zeros(len(record), dtype=np.int64)
            count = 0
            for start in range(0, last, _DRAW_CHUNK):
                # hits[j]: collisions in steps start+1 .. start+j+1
                hits = np.cumsum(rng.random(min(_DRAW_CHUNK, last - start)) < p_dt)
                lo = bisect.bisect_right(record, start)
                hi = bisect.bisect_right(record, start + len(hits))
                m[lo:hi] = count + hits[ends[lo:hi] - start]
                count += hits[-1]
            extra = m[-1] + 1 - len(powers) if m.size else 0
            if extra > 0:
                more = _propagate(phi, powers[-1], range(1, extra + 1))
                powers = np.concatenate([powers, more])
            total += powers[m]
        recorded = total / n_trajectories

    states = recorded.reshape(len(record), 2, 2)
    return Trajectory.from_states(times, states, params.mu)


# ---------------------------------------------------------------------------
# thermal preparation of the collective bath


@dataclass(frozen=True, eq=False)
class LadderState:
    """Populations of the fully symmetric ladder states, indexed by the
    excitation count ``k = 0..N`` (``m = k - N/2``)."""

    N: int
    populations: np.ndarray

    def __post_init__(self):
        pops = np.asarray(self.populations, dtype=float)
        if pops.shape != (self.N + 1,):
            raise ValidationError(
                f"LadderState: expected {self.N + 1} populations, got shape "
                f"{pops.shape}"
            )
        if pops.min() < -1e-10:
            raise ValidationError(
                f"LadderState: negative population {pops.min():.3e}"
            )
        if abs(pops.sum() - 1.0) > 1e-8:
            raise ValidationError(
                f"LadderState: populations sum to {pops.sum():.12g}, not 1"
            )
        pops = pops.copy()
        pops.setflags(write=False)
        object.__setattr__(self, "populations", pops)


def _ladder_generator(N, n_bar, gamma0):
    """Rate matrix of the ladder populations under collective emission and
    absorption: down rate ``gamma0 (n+1) k(N-k+1)``, up rate
    ``gamma0 n (k+1)(N-k)``."""
    gen = np.zeros((N + 1, N + 1))
    for k in range(N + 1):
        if k >= 1:
            down = gamma0 * (n_bar + 1.0) * k * (N - k + 1)
            gen[k - 1, k] += down
            gen[k, k] -= down
        if k <= N - 1:
            up = gamma0 * n_bar * (k + 1) * (N - k)
            gen[k + 1, k] += up
            gen[k, k] -= up
    return gen


def ladder_history(N, n_bar, gamma0, t_end, dt, n_records=None):
    """Integrate the ladder rate equations from the collective ground state.

    Fixed-step classical RK4; the rate equations are linear with a constant
    generator, so the step is one (N+1)x(N+1) map applied through its
    powers between records.  Returns ``(times, populations, final)``: one
    row per record, and the populations at ``t_end`` whichever steps are
    recorded.  Raises :class:`NumericError` on population negativity (step
    too large) or normalization drift.  An entrywise nonnegative step map
    keeps every population nonnegative, so only the recorded and the final
    states are checked; otherwise every step is checked, so that a
    transient negativity is caught too, and the records are taken from
    those steps.  Such a grid of more than :data:`MAX_RECORDS` steps is
    refused before it is propagated.
    """
    if N < 1:
        raise ValidationError(f"N: must be >= 1, got {N}")
    check_n_bar(n_bar)
    if not 0.0 < gamma0 < math.inf:
        raise ValidationError(f"gamma0: must be finite and positive, got {gamma0}")
    n_steps = _step_count(t_end, dt)
    step_mat = _rk4_step_matrix(_ladder_generator(N, n_bar, gamma0), dt)
    pops0 = np.zeros(N + 1)
    pops0[0] = 1.0
    negative = bool(np.any(step_mat < 0.0))
    if negative and n_steps >= MAX_RECORDS:
        raise ValidationError(
            f"dt: the ladder step map at dt={dt:.3g} has a negative entry, so all {n_steps + 1}"
            f" steps would be checked, over the limit of {MAX_RECORDS}; reduce dt"
        )
    record = _record_indices(n_steps, n_records)
    checked = _record_indices(n_steps, None) if negative else record
    steps = [*checked, n_steps]
    rows = _propagate(step_mat, pops0, steps)
    lowest = rows.min(axis=1)
    drift = rows.sum(axis=1) - 1.0
    bad = np.flatnonzero((lowest < -1e-10) | (np.abs(drift) > 1e-8))
    if bad.size:
        first = bad[0]
        if lowest[first] < -1e-10:
            raise NumericError(
                f"ladder integration: population negativity "
                f"{lowest[first]:.3e} at step {steps[first]}; reduce dt"
            )
        raise NumericError(
            f"ladder integration: normalization drift "
            f"{drift[first]:.3e} at step {steps[first]}"
        )
    # every step checked: row i holds step i
    history = rows[record] if negative else rows[:-1]
    times = np.array([step * dt for step in record])
    return times, history, rows[-1]


def _ladder_bath(basis, pops):
    """``(LadderState, rho_product)`` of checked ladder populations: slight
    rounding negatives are clipped to 0, then block ``k`` of the product
    basis ``basis`` is filled with population ``k`` over ``C(N,k)``."""
    ladder = LadderState(basis.N, np.clip(pops, 0.0, None))
    return ladder, _symmetric_state(basis, ladder.populations)


def prepare_thermal_dicke(N, n_bar, gamma0, t_end, dt):
    """Thermalize the collective ladder and map it to the product basis.

    Starting from ``|g...g>`` the dynamics stays inside the fully symmetric
    ladder, so an (N+1)-dimensional rate equation suffices.  For
    ``t_end >> 1/gamma0`` consecutive populations approach the Gibbs ratio
    ``n_bar/(n_bar+1)`` and the product-basis image coincides with
    :func:`qollide.baths.thermal_hec_state`.  The qubit cap comes first.

    Returns ``(LadderState, rho_product)``.
    """
    basis = basis_ordering(N)
    *_, final = ladder_history(N, n_bar, gamma0, t_end, dt, n_records=0)
    return _ladder_bath(basis, final)


# ---------------------------------------------------------------------------
# scaling sweeps

#: Largest N of a sweep: every N, k and k(N-k+1) factor is then an exact float.
MAX_SWEEP_N = 2**53


@dataclass(frozen=True)
class SweepRow:
    N: int
    k: int
    r_e: float
    r_d: float
    t_q: float
    T_q: float


@dataclass(frozen=True, eq=False)
class SweepResult:
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
    if np.any(xs <= 0.0) or np.any(ys <= 0.0) or not np.all(np.isfinite(ys)):
        raise ValidationError("fit_loglog_slope: values must be finite and positive")
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def _sweep_k(k_rule, N):
    """Dicke block index of every N (an int or an integer array)."""
    if k_rule == "quarter":
        return N // 4
    if k_rule == "half-minus-one":
        return (N - 1) // 2
    raise ValidationError(
        f"k_rule: must be 'quarter' or 'half-minus-one', got {k_rule!r}"
    )


def scaling_sweep(family, N_list, params, p_e=None, n_bar=None, k_rule=None):
    """Closed-form sweep of rates, thermalization time and steady temperature.

    Families: ``product`` (requires ``p_e``), ``thermal-hec`` (requires
    ``n_bar``) and ``dicke`` (requires ``k_rule``; for N not divisible by 4
    the quarter rule takes ``floor(N/4)``, the half-minus-one rule takes the
    largest non-inverted block).  Rows follow the input order.  Every column
    is computed for all N at once, with the bits of the one-N closed forms
    (:func:`thermalization_time`, :func:`steady_temperature`).
    """
    N_list = [int(N) for N in N_list]
    if not N_list:
        raise ValidationError("N_list: must not be empty")
    if any(N < 1 for N in N_list):
        raise ValidationError("N_list: all N must be >= 1")
    if any(N > MAX_SWEEP_N for N in N_list):
        raise ValidationError("N_list: all N must be <= 2**53")
    Ns = np.array(N_list, dtype=np.int64)
    k = None
    if family == "product":
        if p_e is None:
            raise ValidationError("p_e: required for the product family")
        r_e, r_d = product_mixed_rates(Ns.astype(float), p_e)
    elif family == "thermal-hec":
        if n_bar is None:
            raise ValidationError("n_bar: required for the thermal-hec family")
        r_e, r_d = thermal_hec_rates(N_list, n_bar)
    elif family == "dicke":
        if k_rule is None:
            raise ValidationError("k_rule: required for the dicke family")
        k = _sweep_k(k_rule, Ns)
        # products of exact float factors, rounded once as float() of the ints
        r_e, r_d = dicke_rates(Ns.astype(float), k.astype(float))
    else:
        raise ValidationError(
            f"family: must be 'product', 'thermal-hec' or 'dicke', got {family!r}"
        )

    rate = params.mu * (r_e + r_d)
    t_q = np.full(len(Ns), math.inf)
    np.divide(1.0, rate, out=t_q, where=rate > 0.0)
    T_q = _temperatures(r_e, r_d)

    slopes = []
    for ys in (t_q, T_q):
        try:
            slopes.append(fit_loglog_slope(Ns, ys))
        except ValidationError:
            slopes.append(math.nan)
    return SweepResult(family, k_rule, Ns, k, r_e, r_d, t_q, T_q, *slopes)
