"""The benchmark's workloads: seeded inputs, CLI command lists and the
reference check of every command's output.

Why each workload exists is recorded in ``NOTES.md`` beside this file.
Sizes are fixed per workload; the seed only changes bath matrices,
bath parameters and the stochastic stream, never the amount of work.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

import reference as ref

WORKLOADS = ("propagate", "dense-bath", "closed-form")


@dataclass
class Command:
    """One CLI call.  ``{in}`` and ``{out}`` in ``argv`` expand to the
    input directory and the pass's output directory; ``check(out_dir)``
    raises :class:`reference.CheckError` on a wrong output; ``outputs``
    are the files it writes, relative to the output directory."""

    name: str
    argv: list
    check: object
    outputs: list

    def expand(self, in_dir, out_dir):
        return [a.replace("{in}", in_dir).replace("{out}", out_dir) for a in self.argv]


def _n_steps(t_end, dt):
    # the engines' own step count for a (t_end, dt) pair
    return int(math.floor(t_end / dt + 1e-9))


def _grid(n_steps, n_points):
    if n_steps % (n_points - 1):
        raise ValueError("record grid must hit whole steps")
    return np.arange(0, n_steps + 1, n_steps // (n_points - 1))


def _ground_vec():
    return np.array([0.0, 0.0, 0.0, 1.0], dtype=complex)


def _write_bath(in_dir, name, rho):
    with open(os.path.join(in_dir, name), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(ref.bath_csv(rho, int(rho.shape[0]).bit_length() - 1))


def _trajectory_command(name, argv, times, states):
    """An ``evolve`` call whose trajectory CSV must match ``states``."""
    out = f"{name}.csv"
    return Command(
        name,
        ["evolve", *argv, "--out", "{out}/" + out],
        lambda d: ref.check_trajectory(os.path.join(d, out), times, states),
        [out],
    )


def _collision_command(name, bath_args, rho_b, mode, t_end, dt):
    """Deterministic exact or second-order collisions, every step recorded."""
    steps = np.arange(_n_steps(t_end, dt) + 1)
    phi = ref.collision_map(rho_b, mode)
    states = ref.deterministic_chain(phi, ref.P * dt, _ground_vec(), steps)
    argv = ["--engine", "collisions", "--mode", mode, *bath_args,
            "--t-end", repr(t_end), "--dt", repr(dt)]
    return _trajectory_command(name, argv, steps * dt, states)


# ---------------------------------------------------------------------------
# propagate: time-stepped engines on small baths (N <= 8)


def propagate(rng, in_dir):
    cmds = []

    # RK4 on a dicke bath, against the closed-form thermal relaxation
    dt, n_steps, n_points = 3e-5, 6000, 201
    t_end = n_steps * dt
    times = _grid(_n_steps(t_end, dt), n_points) * dt
    ee = ref.thermal_populations(*ref.dicke_rates(8, 3), times)
    states = np.zeros((len(times), 2, 2), dtype=complex)
    states[:, 0, 0], states[:, 1, 1] = ee, 1.0 - ee
    cmds.append(_trajectory_command(
        "ode-dicke",
        ["--engine", "ode", "--bath", "dicke", "--N", "8", "--k", "3",
         "--t-end", repr(t_end), "--dt", repr(dt), "--n-points", str(n_points)],
        times, states,
    ))

    # RK4 with drive and squeezing on a full-rank N=4 bath, every step recorded
    rho4 = ref.random_bath(rng, 4)
    _write_bath(in_dir, "bath4.csv", rho4)
    dt, n_steps = 2e-5, 1500
    t_end = n_steps * dt
    times = np.arange(_n_steps(t_end, dt) + 1) * dt
    L = ref.lindblad_generator(*ref.moments(rho4))
    cmds.append(_trajectory_command(
        "ode-explicit",
        ["--engine", "ode", "--bath", "explicit", "--file", "{in}/bath4.csv",
         "--t-end", repr(t_end), "--dt", repr(dt)],
        times, ref.propagate_exact(L, _ground_vec(), times),
    ))

    # deterministic exact collisions, many steps, few records
    dt, n_steps, n_points = 1e-5, 200_000, 201
    t_end = n_steps * dt
    rec = _grid(_n_steps(t_end, dt), n_points)
    phi = ref.collision_map(ref.dicke_state(4, 1), "exact")
    cmds.append(_trajectory_command(
        "collisions-deterministic",
        ["--engine", "collisions", "--bath", "dicke", "--N", "4", "--k", "1",
         "--t-end", repr(t_end), "--dt", repr(dt), "--n-points", str(n_points)],
        rec * dt, ref.deterministic_chain(phi, ref.P * dt, _ground_vec(), rec),
    ))

    # stochastic collisions: 1000 trajectories x 2000 steps
    seed = int(rng.integers(2**31))
    dt, n_steps, n_points, n_traj = 1e-4, 2000, 101, 1000
    t_end = n_steps * dt
    rec = _grid(_n_steps(t_end, dt), n_points)
    cmds.append(_trajectory_command(
        "collisions-stochastic",
        ["--engine", "collisions", "--scheme", "stochastic",
         "--trajectories", str(n_traj), "--seed", str(seed),
         "--bath", "dicke", "--N", "4", "--k", "1", "--t-end", repr(t_end), "--dt", repr(dt),
         "--n-points", str(n_points)],
        rec * dt,
        ref.stochastic_chain(phi, ref.P * dt, _ground_vec(), rec, _n_steps(t_end, dt), seed, n_traj),
    ))

    # ladder preparation: 30k RK4 steps, then a 256x256 bath CSV
    N, gamma0, dt, n_steps, n_points = 8, 1.0, 1e-4, 30_000, 101
    n_bar = round(float(rng.uniform(0.2, 1.0)), 6)
    t_end = n_steps * dt
    ladder_times = _grid(_n_steps(t_end, dt), n_points) * dt
    pops = ref.propagate_exact(
        ref.ladder_generator(N, n_bar, gamma0), np.eye(N + 1)[0], ladder_times
    ).real
    header = "t," + ",".join(f"rho_{k}" for k in range(N + 1))

    def check_prepare(d):
        table = ref.read_table(os.path.join(d, "ladder.csv"), header)
        ref.expect_close("ladder.csv: t", table[:, 0], ladder_times)
        ref.expect_close("ladder.csv: populations", table[:, 1:], pops, rtol=0.0, atol=ref.STATE_ATOL)
        n_csv, rho = ref.read_bath(os.path.join(d, "state8.csv"))
        if n_csv != N:
            raise ref.CheckError(f"state8.csv: N={n_csv}")
        # the state is built from the reported final row, so compare to it
        ref.expect_close("state8.csv", rho, ref.block_state(N, table[-1, 1:]), rtol=0.0, atol=1e-15)

    cmds.append(Command(
        "prepare",
        ["prepare", "--N", str(N), "--nbar", repr(n_bar), "--gamma0", repr(gamma0),
         "--t-end", repr(t_end), "--dt", repr(dt), "--n-points", str(n_points),
         "--out-ladder", "{out}/ladder.csv", "--out-state", "{out}/state8.csv"],
        check_prepare,
        ["ladder.csv", "state8.csv"],
    ))
    return cmds


# ---------------------------------------------------------------------------
# dense-bath: bath-structure work near the caps, few time steps


def dense_bath(rng, in_dir):
    cmds = []

    rho10 = ref.random_bath(rng, 10)
    _write_bath(in_dir, "bath10.csv", rho10)
    c10 = ref.moments(rho10)
    del rho10
    cmds.append(Command(
        "coeffs-explicit-10",
        ["coeffs", "--bath", "explicit", "--file", "{in}/bath10.csv", "--out", "{out}/coeffs10.json"],
        lambda d: ref.check_coeffs(os.path.join(d, "coeffs10.json"), *c10),
        ["coeffs10.json"],
    ))

    cmds.append(Command(
        "classify-dicke-10",
        ["classify", "--bath", "dicke", "--N", "10", "--k", "4", "--out", "{out}/classify10.json"],
        lambda d: ref.check_classify(os.path.join(d, "classify10.json"), 10),
        ["classify10.json"],
    ))

    n_bar = round(float(rng.uniform(0.2, 2.0)), 6)
    rho_hec = ref.block_state(8, ref.thermal_hec_weights(8, n_bar))
    cmds.append(_collision_command(
        "exact-thermal-hec-8", ["--bath", "thermal-hec", "--N", "8", "--nbar", repr(n_bar)],
        rho_hec, "exact", 0.005, 1e-4,
    ))

    rho8 = ref.random_bath(rng, 8)
    _write_bath(in_dir, "bath8.csv", rho8)
    cmds.append(_collision_command(
        "exact-explicit-8", ["--bath", "explicit", "--file", "{in}/bath8.csv"],
        rho8, "exact", 0.005, 1e-4,
    ))

    p_e = round(float(rng.uniform(0.1, 0.4)), 6)
    cmds.append(_collision_command(
        "second-order-product-8", ["--bath", "product", "--N", "8", "--pe", repr(p_e)],
        ref.product_state(8, p_e), "second-order", 0.005, 1e-4,
    ))
    return cmds


# ---------------------------------------------------------------------------
# closed-form: many short calls, closed-form physics, heavy output formatting


def _sweep_command(name, family, n_range, Ns, ks, rates, k_rule=None, extra=()):
    csv, slopes = f"{name}.csv", f"{name}_slopes.json"
    argv = ["sweep", "--family", family, "--N", n_range, *extra]
    if k_rule is not None:
        argv += ["--krule", k_rule]
    argv += ["--out", "{out}/" + csv, "--slopes-out", "{out}/" + slopes]
    return Command(
        name,
        argv,
        lambda d: ref.check_sweep(
            os.path.join(d, csv), os.path.join(d, slopes), family, k_rule, Ns, ks, rates
        ),
        [csv, slopes],
    )


def closed_form(rng, in_dir, golden_dir):
    cmds = []

    Ns = list(range(4, 4097, 4))
    ks = [(N - 1) // 2 for N in Ns]
    cmds.append(_sweep_command(
        "sweep-dicke", "dicke", "4:4096:4", Ns, ks,
        [ref.dicke_rates(N, k) for N, k in zip(Ns, ks)], k_rule="half-minus-one",
    ))

    p_e = round(float(rng.uniform(0.1, 0.4)), 6)
    Ns = list(range(2, 2049, 2))
    cmds.append(_sweep_command(
        "sweep-product", "product", "2:2048:2", Ns, [None] * len(Ns),
        [(N * p_e, N * (1.0 - p_e)) for N in Ns], extra=("--pe", repr(p_e)),
    ))

    n_bar = round(float(rng.uniform(0.2, 2.0)), 6)
    Ns = list(range(1, 513))
    cmds.append(_sweep_command(
        "sweep-thermal-hec", "thermal-hec", "1:512", Ns, [None] * len(Ns),
        [ref.thermal_hec_rates(N, n_bar) for N in Ns], extra=("--nbar", repr(n_bar)),
    ))

    golden = sorted(os.listdir(golden_dir))

    def check_figures(d):
        got = sorted(os.listdir(os.path.join(d, "figures")))
        if got != golden:
            raise ref.CheckError(f"figures: files {got}, expected {golden}")
        for name in golden:
            with open(os.path.join(d, "figures", name), "rb") as a, open(
                os.path.join(golden_dir, name), "rb"
            ) as b:
                if a.read() != b.read():
                    raise ref.CheckError(f"figures/{name}: differs from the golden file")

    cmds.append(Command(
        "figures", ["figures", "--out-dir", "{out}/figures"], check_figures,
        [os.path.join("figures", name) for name in golden],
    ))

    n_bar64 = round(float(rng.uniform(0.2, 2.0)), 6)
    r_e, r_d = ref.thermal_hec_rates(64, n_bar64)
    cmds.append(Command(
        "coeffs-thermal-hec-64",
        ["coeffs", "--bath", "thermal-hec", "--N", "64", "--nbar", repr(n_bar64),
         "--out", "{out}/coeffs64.json"],
        lambda d: ref.check_coeffs(os.path.join(d, "coeffs64.json"), 0j, 0j, r_e, r_d),
        ["coeffs64.json"],
    ))

    t_end, n_points = 0.005, 5001
    times = np.linspace(0.0, t_end, n_points)
    ee = ref.thermal_populations(*ref.dicke_rates(64, 31), times)
    states = np.zeros((n_points, 2, 2), dtype=complex)
    states[:, 0, 0], states[:, 1, 1] = ee, 1.0 - ee
    cmds.append(_trajectory_command(
        "analytic-dicke-64",
        ["--engine", "analytic", "--bath", "dicke", "--N", "64", "--k", "31",
         "--t-end", repr(t_end), "--n-points", str(n_points)],
        times, states,
    ))
    return cmds


def build(workload, seed, in_dir, golden_dir):
    """Write the seeded inputs of ``workload`` into ``in_dir`` and return its
    commands with their references."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    os.makedirs(in_dir, exist_ok=True)
    if workload == "propagate":
        return propagate(rng, in_dir)
    if workload == "dense-bath":
        return dense_bath(rng, in_dir)
    if workload == "closed-form":
        return closed_form(rng, in_dir, golden_dir)
    raise ValueError(f"unknown workload {workload!r}")
