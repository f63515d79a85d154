"""Independent numpy references and output checks for the benchmark.

Nothing here imports qollide.  Every expected value comes from the physics
(collective operators built from bit patterns, closed forms, eigen
decompositions of small generators and propagators), so a broken engine
cannot vouch for its own output.  Each ``check_*`` function raises
:class:`CheckError` when an output file disagrees with its reference.
"""

from __future__ import annotations

import json
import math
from math import comb

import numpy as np

# Target-qubit operators in the (|e>, |g>) basis, as the CLI documents it.
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_MINUS = SIGMA_PLUS.T.copy()
PROJ_E = np.diag([1.0, 0.0]).astype(complex)
PROJ_G = np.diag([0.0, 1.0]).astype(complex)
IDENTITY = np.eye(2, dtype=complex)

# CLI defaults: g*tau = 0.1, mu = p (g tau)^2 = 1, pg_tau = p g tau = 10.
G, TAU, P = 0.1, 1.0, 100.0
G_TAU = G * TAU
MU = P * G_TAU**2
PG_TAU = P * G_TAU

TRAJECTORY_HEADER = "t,mu_t,rho_ee,rho_gg,re_rho_eg,im_rho_eg,temperature,entropy"
SWEEP_HEADER = "N,k,r_e,r_d,t_q,T_q"

# Tolerances.  States from a fixed-step integrator or a chain of matrix
# products differ from the exact propagator by rounding and truncation far
# below STATE_ATOL; derived columns and closed forms agree to rounding.
STATE_ATOL = 1e-9
DERIVED_RTOL = 1e-9
DERIVED_ATOL = 1e-12


class CheckError(Exception):
    """An output disagrees with its reference."""


# ---------------------------------------------------------------------------
# bases, operators and states


def excitation_order(N):
    """Bit patterns sorted by (excitation count, value), qubit 1 as the most
    significant bit: the basis order of the bath CSV format."""
    patterns = np.arange(2**N)
    counts = np.array([bin(b).count("1") for b in range(2**N)])
    return patterns[np.lexsort((patterns, counts))]


def lowering(N):
    """Dense real collective lowering operator ``J- = sum_i sigma_i^-`` in
    excitation order."""
    order = excitation_order(N)
    pos = np.empty_like(order)
    pos[order] = np.arange(order.size)
    J = np.zeros((order.size, order.size))
    for bit in range(N):
        src = order[(order >> bit) & 1 == 1]
        J[pos[src ^ (1 << bit)], pos[src]] = 1.0
    return J


def block_sizes(N):
    return [comb(N, k) for k in range(N + 1)]


def block_state(N, weights):
    """Block-diagonal bath state whose excitation block ``k`` is uniformly
    filled with ``weights[k] / C(N, k)`` (a symmetric Dicke projector)."""
    rho = np.zeros((2**N, 2**N), dtype=complex)
    start = 0
    for k, size in enumerate(block_sizes(N)):
        rho[start : start + size, start : start + size] = weights[k] / size
        start += size
    return rho


def dicke_state(N, k):
    weights = np.zeros(N + 1)
    weights[k] = 1.0
    return block_state(N, weights)


def thermal_hec_weights(N, n_bar):
    r = n_bar / (n_bar + 1.0)
    w = r ** np.arange(N + 1)
    return w / w.sum()


def product_state(N, p_e):
    exc = np.array([bin(int(b)).count("1") for b in excitation_order(N)])
    return np.diag(p_e**exc * (1.0 - p_e) ** (N - exc)).astype(complex)


def random_bath(rng, N):
    """Seeded full-rank bath: a product of single-qubit superpositions (so
    displacement, squeezing and heat-exchange coherences are all large)
    mixed with a well-conditioned random full-rank state."""
    dim = 2**N
    psi = np.ones(1, dtype=complex)
    for _ in range(N):
        theta = rng.uniform(0.3, 1.2)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        # single-qubit index 0 is |g>, 1 is |e>; qubit 1 is the leading factor
        psi = np.kron(psi, [math.cos(theta), np.exp(1j * phase) * math.sin(theta)])
    psi = psi[excitation_order(N)]
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mixed = A @ A.conj().T + dim * np.eye(dim)
    rho = 0.6 * np.outer(psi, psi.conj()) + 0.4 * mixed / np.trace(mixed).real
    rho = (rho + rho.conj().T) / 2.0
    return rho / np.trace(rho).real


def bath_csv(rho, N):
    """The bath CSV wire format: header line, then ``a+bj`` entries."""
    lines = [f"N={N},basis=excitation-sorted"]
    for row in rho:
        lines.append(
            ",".join(f"{re!r}{im:+}j" for re, im in zip(row.real.tolist(), row.imag.tolist()))
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# physics


def moments(rho):
    """``(lambda, epsilon, r_e, r_d)`` = ``<J->, <J-^2>, <J+J->, <J-J+>``."""
    N = int(rho.shape[0]).bit_length() - 1
    Jm = lowering(N)
    rho_t = rho.T  # Tr(A rho) = sum(A * rho^T)
    lam = complex(np.sum(Jm * rho_t))
    eps = complex(np.sum((Jm @ Jm) * rho_t))
    r_e = float(np.sum((Jm.T @ Jm) * rho_t).real)
    r_d = float(np.sum((Jm @ Jm.T) * rho_t).real)
    return lam, eps, r_e, r_d


def _sandwich(A, B):
    """Matrix of ``X -> A X B`` on row-major vectorized 2x2 matrices."""
    return np.kron(A, B.T)


def lindblad_generator(lam, eps, r_e, r_d):
    """4x4 generator of the collision-model master equation (row-major vec):
    drive ``-i pg_tau [lam s+ + lam* s-, rho]``, squeezing
    ``mu (eps s+ rho s+ + eps* s- rho s-)`` and the two thermal dissipators
    with rates ``mu r_d`` (decay) and ``mu r_e`` (excitation)."""
    H = lam * SIGMA_PLUS + np.conj(lam) * SIGMA_MINUS
    L = -1j * PG_TAU * (_sandwich(H, IDENTITY) - _sandwich(IDENTITY, H))
    L = L + MU * (eps * _sandwich(SIGMA_PLUS, SIGMA_PLUS) + np.conj(eps) * _sandwich(SIGMA_MINUS, SIGMA_MINUS))
    L = L + (MU * r_d / 2.0) * (
        2.0 * _sandwich(SIGMA_MINUS, SIGMA_PLUS) - _sandwich(PROJ_E, IDENTITY) - _sandwich(IDENTITY, PROJ_E)
    )
    L = L + (MU * r_e / 2.0) * (
        2.0 * _sandwich(SIGMA_PLUS, SIGMA_MINUS) - _sandwich(PROJ_G, IDENTITY) - _sandwich(IDENTITY, PROJ_G)
    )
    return L


def propagate_exact(L, vec0, times):
    """``exp(t L) vec0`` for every ``t``, by eigendecomposition of ``L``."""
    w, V = np.linalg.eig(L)
    if np.linalg.cond(V) > 1e8:
        raise CheckError("reference generator is too close to defective")
    coeff = np.linalg.solve(V, vec0)
    return (np.exp(np.outer(times, w)) * coeff) @ V.T


def collision_map(rho_b, mode):
    """4x4 one-collision map on row-major vec(rho) for the coupling
    ``V = s- (x) J+ + s+ (x) J-``: ``exp(-i g tau V)`` by ``eigh`` (exact) or
    its second-order truncation ``I - i g tau V - (g tau)^2 V^2 / 2``.

    With ``U_ca`` the (c, a) bath block of U, the map element is
    ``Phi[(c,e), (a,b)] = Tr(U_ca rho_b U_eb^dag)``.
    """
    dim = rho_b.shape[0]
    Jm = lowering(int(dim).bit_length() - 1)
    V = np.kron(SIGMA_MINUS, Jm.T) + np.kron(SIGMA_PLUS, Jm)
    if mode == "exact":
        w, W = np.linalg.eigh(V)
        U = (W * np.exp(-1j * G_TAU * w)) @ W.conj().T
    else:
        U = np.eye(2 * dim) - 1j * G_TAU * V - 0.5 * G_TAU**2 * (V @ V)

    def blk(c, a):
        return U[c * dim : (c + 1) * dim, a * dim : (a + 1) * dim]

    phi = np.zeros((4, 4), dtype=complex)
    for c in range(2):
        for a in range(2):
            left = blk(c, a) @ rho_b
            for e in range(2):
                for b in range(2):
                    phi[2 * c + e, 2 * a + b] = np.sum(left * blk(e, b).conj())
    return phi


def deterministic_chain(phi, p_dt, vec0, steps):
    """States after ``n`` steps of ``(1 - p dt) rho + p dt Phi(rho)``."""
    S = (1.0 - p_dt) * np.eye(4) + p_dt * phi
    return np.array([np.linalg.matrix_power(S, n) @ vec0 for n in steps])


def stochastic_chain(phi, p_dt, vec0, steps, n_steps, seed, n_trajectories):
    """Average over trajectories of ``Phi^m rho0``, ``m`` the number of
    collisions drawn before each record.  Trajectory ``i`` draws one uniform
    per step from the counter-based Philox stream keyed by ``(seed, i)``, the
    reproducibility contract of the stochastic scheme."""
    steps = np.asarray(steps)
    counts = np.empty((n_trajectories, len(steps)), dtype=np.int64)
    for traj in range(n_trajectories):
        key = np.array([int(seed) % 2**64, traj], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        hits = np.concatenate(([0], np.cumsum(rng.random(n_steps) < p_dt)))
        counts[traj] = hits[steps]
    powers = [vec0]
    for _ in range(int(counts.max())):
        powers.append(phi @ powers[-1])
    powers = np.array(powers)
    return np.array([powers[counts[:, j]].mean(axis=0) for j in range(len(steps))])


def ladder_generator(N, n_bar, gamma0):
    """Rate matrix of the symmetric-ladder populations: collective decay
    ``gamma0 (n+1) k (N-k+1)`` from k to k-1, absorption
    ``gamma0 n (k+1)(N-k)`` from k to k+1."""
    gen = np.zeros((N + 1, N + 1))
    for k in range(N + 1):
        down = gamma0 * (n_bar + 1.0) * k * (N - k + 1)
        up = gamma0 * n_bar * (k + 1) * (N - k)
        if k >= 1:
            gen[k - 1, k] += down
        if k < N:
            gen[k + 1, k] += up
        gen[k, k] -= down + up
    return gen


def dicke_rates(N, k):
    return float(k * (N - k + 1)), float((k + 1) * (N - k))


def thermal_hec_rates(N, n_bar):
    r = n_bar / (n_bar + 1.0)
    k = np.arange(1, N + 1)
    weight = k * (N - k + 1)
    norm = (1.0 / (n_bar + 1.0)) / (1.0 - r ** (N + 1))
    return float(norm * np.sum(r**k * weight)), float(norm * np.sum(r ** (k - 1) * weight))


def thermal_populations(r_e, r_d, times):
    """Excited population from the ground state under the thermal channel."""
    return r_e * (1.0 - np.exp(-MU * (r_e + r_d) * np.asarray(times))) / (r_e + r_d)


def coherence_counts(N):
    """Ordered off-diagonal entries per class, from bit patterns: one bit
    flipped (displacement, ``N 2^N``), two bits removed or added
    (squeezing) and one excitation moved (heat exchange), each
    ``N (N-1) 2^(N-2)``."""
    dim = 2**N
    disp = N * dim
    pair = N * (N - 1) * dim // 4
    return {
        "population": dim,
        "displacement": disp,
        "squeezing": pair,
        "hec": pair,
        "ineffective": dim * dim - dim - disp - 2 * pair,
    }


# ---------------------------------------------------------------------------
# output parsing and comparison


def read_text(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def read_json(path):
    try:
        return json.loads(read_text(path))
    except ValueError as exc:
        raise CheckError(f"{path}: not JSON ({exc})") from None


def read_table(path, header):
    lines = read_text(path).splitlines()
    if not lines or lines[0] != header:
        raise CheckError(f"{path}: header is not {header!r}")
    try:
        return np.array(
            [[float(x) if x else math.nan for x in ln.split(",")] for ln in lines[1:]]
        ).reshape(len(lines) - 1, header.count(",") + 1)
    except ValueError as exc:
        raise CheckError(f"{path}: malformed row ({exc})") from None


def read_bath(path):
    lines = read_text(path).splitlines()
    try:
        N = int(lines[0].split(",")[0].removeprefix("N="))
        rho = np.array([[complex(x) for x in ln.split(",")] for ln in lines[1:]])
    except (ValueError, IndexError) as exc:
        raise CheckError(f"{path}: malformed bath csv ({exc})") from None
    if lines[0] != f"N={N},basis=excitation-sorted" or rho.shape != (2**N, 2**N):
        raise CheckError(f"{path}: bad bath csv header or shape")
    return N, rho


def expect_close(what, actual, expected, rtol=DERIVED_RTOL, atol=DERIVED_ATOL):
    actual = np.asarray(actual, dtype=complex)
    expected = np.asarray(expected, dtype=complex)
    if actual.shape != expected.shape:
        raise CheckError(f"{what}: shape {actual.shape}, expected {expected.shape}")
    bad = ~np.isclose(actual, expected, rtol=rtol, atol=atol)
    if np.any(bad):
        i = np.argwhere(bad)[0]
        raise CheckError(
            f"{what}: {int(bad.sum())} values off, first at {tuple(i.tolist())}: "
            f"{actual[tuple(i)]} vs {expected[tuple(i)]}"
        )


def _temperature(ee, gg):
    if ee <= 0.0:
        return 0.0
    if gg <= 0.0:
        return -0.0
    if ee == gg:
        return math.inf
    return 1.0 / math.log(gg / ee)


def _entropy(ee, gg, eg):
    gap = math.sqrt((ee - gg) ** 2 + 4.0 * abs(eg) ** 2)
    total = 0.0
    for p in ((ee + gg + gap) / 2.0, (ee + gg - gap) / 2.0):
        p = min(max(p, 0.0), 1.0)
        if p > 0.0:
            total -= p * math.log(p)
    return total


def check_trajectory(path, times, states):
    """Trajectory CSV against reference times and 2x2 states.  Temperature
    and entropy are checked against the reported populations, so an
    ill-conditioned derived column cannot hide or fake a state error."""
    table = read_table(path, TRAJECTORY_HEADER)
    states = np.asarray(states).reshape(-1, 2, 2)
    expect_close(f"{path}: t", table[:, 0], times)
    expect_close(f"{path}: mu_t", table[:, 1], MU * table[:, 0])
    got = np.stack(
        [table[:, 2], table[:, 3], table[:, 4] + 1j * table[:, 5]], axis=1
    )
    want = np.stack([states[:, 0, 0].real, states[:, 1, 1].real, states[:, 0, 1]], axis=1)
    expect_close(f"{path}: state", got, want, rtol=0.0, atol=STATE_ATOL)
    temps = [_temperature(ee, gg) for ee, gg in table[:, 2:4]]
    expect_close(f"{path}: temperature", table[:, 6], temps)
    ents = [_entropy(ee, gg, complex(re, im)) for ee, gg, re, im in table[:, 2:6]]
    expect_close(f"{path}: entropy", table[:, 7], ents, atol=1e-10)


def check_coeffs(path, lam, eps, r_e, r_d):
    got = read_json(path).get("coefficients", {})
    want = {
        "lambda_re": lam.real,
        "lambda_im": lam.imag,
        "epsilon_re": eps.real,
        "epsilon_im": eps.imag,
        "r_e": r_e,
        "r_d": r_d,
        "mu": MU,
        "pg_tau": PG_TAU,
    }
    if set(got) != set(want):
        raise CheckError(f"{path}: coefficient keys {sorted(got)}")
    for key, value in want.items():
        expect_close(f"{path}: {key}", got[key], value)


def check_classify(path, N):
    got = read_json(path)
    want = {"N": N, "block_sizes": block_sizes(N), "counts": coherence_counts(N)}
    if got != want:
        raise CheckError(f"{path}: {got} != {want}")


def check_sweep(csv_path, slopes_path, family, k_rule, Ns, ks, rates):
    """Sweep rows and fitted log-log slopes against the closed forms."""
    table = read_table(csv_path, SWEEP_HEADER)
    r_e, r_d = (np.array(x) for x in zip(*rates))
    t_q = 1.0 / (MU * (r_e + r_d))
    T_q = 1.0 / np.log(r_d / r_e)
    k_col = [math.nan if k is None else k for k in ks]
    want = np.column_stack([Ns, k_col, r_e, r_d, t_q, T_q])
    expect_close(f"{csv_path}: rows", np.nan_to_num(table, nan=-1.0), np.nan_to_num(want, nan=-1.0))
    logN = np.log(Ns)
    slopes = read_json(slopes_path)
    want_meta = {"family": family, "k_rule": k_rule, "n_min": Ns[0], "n_max": Ns[-1], "points": len(Ns)}
    if {k: slopes.get(k) for k in want_meta} != want_meta:
        raise CheckError(f"{slopes_path}: {slopes}")
    for key, ys in (("slope_t_q", t_q), ("slope_T_q", T_q)):
        expect_close(f"{slopes_path}: {key}", slopes[key], np.polyfit(logN, np.log(ys), 1)[0], atol=1e-9)
