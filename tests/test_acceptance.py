"""Acceptance suite.

Each test exercises one numbered acceptance criterion at its stated
tolerance and prints a single PASS/FAIL line (visible with ``pytest -s``).
Run with::

    pytest tests/test_acceptance.py -v -s
"""

import math
import os

import numpy as np
import pytest

from qollide import (
    BathSpec,
    CollisionParams,
    analytic_trajectory,
    classify_coherences,
    coefficients_for,
    coefficients_from_state,
    collision_chain,
    evolve_analytic,
    ground_state,
    prepare_thermal_dicke,
    scaling_sweep,
    steady_state,
    steady_temperature,
    temperature_trajectory,
    thermalization_time,
    validate_bath,
    validate_density_matrix,
)
from qollide.cli import main as cli_main

from conftest import cached_ops, label_table

PARAMS = CollisionParams(g=0.1, tau=1.0, p=100.0)  # mu = 1
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def report(num, ok, detail):
    print(f"acceptance criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_coefficient_oracle_equivalence():
    """Closed-form coefficients match the brute-force trace to 1e-12 for
    every bath family, N <= 8, over the parameter grid."""
    tol = 1e-12
    worst = 0.0
    cases = 0
    for N in range(1, 9):
        ops = cached_ops(N)
        for p_e in (0.0, 0.2, 0.5):
            closed = coefficients_for(BathSpec.product_mixed(N, p_e), PARAMS)
            rho = validate_bath(BathSpec.product_mixed(N, p_e))
            brute = coefficients_from_state(rho, ops, PARAMS)
            worst = max(
                worst,
                abs(closed.r_e - brute.r_e),
                abs(closed.r_d - brute.r_d),
                abs(brute.lam),
                abs(brute.eps),
            )
            cases += 1
        for n_bar in (0.0, 0.5, 1.0, 2.0):
            closed = coefficients_for(BathSpec.thermal_hec(N, n_bar), PARAMS)
            rho = validate_bath(BathSpec.thermal_hec(N, n_bar))
            brute = coefficients_from_state(rho, ops, PARAMS)
            worst = max(
                worst,
                abs(closed.r_e - brute.r_e),
                abs(closed.r_d - brute.r_d),
                abs(brute.lam),
                abs(brute.eps),
            )
            cases += 1
        for k in range(N + 1):
            closed = coefficients_for(BathSpec.dicke(N, k), PARAMS)
            rho = validate_bath(BathSpec.dicke(N, k))
            brute = coefficients_from_state(rho, ops, PARAMS)
            worst = max(
                worst,
                abs(closed.r_e - brute.r_e),
                abs(closed.r_d - brute.r_d),
                abs(brute.lam),
                abs(brute.eps),
            )
            cases += 1
    report(
        1,
        worst <= tol,
        f"{cases} bath configurations, max |closed - brute| = {worst:.2e} "
        f"(tol {tol:.0e})",
    )


def test_criterion_2_thermal_equivalence():
    """Individually and collectively thermalized baths with the same n_bar
    give identical steady temperatures; thermalization times satisfy
    t_hec = 1 / (gamma_eff (2 n_bar + 1)) against t_mix = 1 / (mu N)."""
    tol = 1e-10
    worst_temp = 0.0
    worst_ratio = 0.0
    for N in range(1, 9):
        for n_bar in (0.5, 1.0, 2.0):
            p_e = n_bar / (2.0 * n_bar + 1.0)  # Gibbs weight for one qubit
            c_mix = coefficients_for(BathSpec.product_mixed(N, p_e), PARAMS)
            c_hec = coefficients_for(BathSpec.thermal_hec(N, n_bar), PARAMS)
            worst_temp = max(
                worst_temp,
                abs(steady_temperature(c_mix) - steady_temperature(c_hec)),
            )
            gamma_eff = c_hec.mu * c_hec.r_e / n_bar
            t_mix = thermalization_time(c_mix)
            t_hec = thermalization_time(c_hec)
            consistency = (t_hec / t_mix) * gamma_eff * (2.0 * n_bar + 1.0) / (
                PARAMS.mu * N
            )
            worst_ratio = max(worst_ratio, abs(consistency - 1.0))
            assert t_mix == pytest.approx(1.0 / (PARAMS.mu * N), rel=1e-12)
    report(
        2,
        worst_temp <= tol and worst_ratio <= tol,
        f"max steady-temperature difference {worst_temp:.2e}, max "
        f"time-ratio inconsistency {worst_ratio:.2e} (tol {tol:.0e})",
    )


def test_criterion_3_superthermalization_scaling():
    """Fitted log-log slopes over N = 4..64 (step 4): temperature and time
    exponents 2.00 +/- 0.05 and -2.00 +/- 0.05 for k = N/2 - 1, temperature
    exponent 1.00 +/- 0.05 for k = floor(N/4).

    NOTE: the exact closed forms carry slowly decaying subleading terms
    (T ~ N^2/8 + N/4 - 1/2 and T ~ 1 + 3N/8), so an unweighted least-squares
    fit over this range cannot reach the stated tolerances; the asymptotic
    exponents are 2 and 1.  The assertions below implement the criterion as
    stated and the observed values are reported verbatim.
    """
    tol = 0.05
    n_list = list(range(4, 65, 4))
    half = scaling_sweep("dicke", n_list, PARAMS, k_rule="half-minus-one")
    quarter = scaling_sweep("dicke", n_list, PARAMS, k_rule="quarter")
    checks = {
        "T slope (k=N/2-1)": (half.slope_T_q, 2.0),
        "t_q slope (k=N/2-1)": (half.slope_t_q, -2.0),
        "T slope (k=N/4)": (quarter.slope_T_q, 1.0),
    }
    failures = {
        name: value
        for name, (value, target) in checks.items()
        if abs(value - target) > tol
    }
    detail = ", ".join(
        f"{name} = {value:.4f} (target {target:+.2f} +/- {tol})"
        for name, (value, target) in checks.items()
    )
    report(3, not failures, detail)


def test_criterion_4_decay_time_regression(tmp_path):
    """Decay curves reach 1/e at mu*t = 1/(r_e + r_d): {1/4, 1/8, 1/10,
    1/32, 1/38} for the five reference baths; golden CSVs regenerate
    byte-identically.

    (The value for the N=4, k=1 symmetric bath follows from the closed form
    N + 2kN - 2k^2 = 10.)
    """
    tol = 1e-10
    cases = [
        (coefficients_for(BathSpec.product_mixed(4, 0.2), PARAMS), 1.0 / 4.0, "mixed N=4"),
        (coefficients_for(BathSpec.product_mixed(8, 0.2), PARAMS), 1.0 / 8.0, "mixed N=8"),
        (coefficients_for(BathSpec.dicke(4, 1), PARAMS), 1.0 / 10.0, "dicke N=4 k=1"),
        (coefficients_for(BathSpec.dicke(8, 2), PARAMS), 1.0 / 32.0, "dicke N=8 k=2"),
        (coefficients_for(BathSpec.dicke(8, 3), PARAMS), 1.0 / 38.0, "dicke N=8 k=3"),
    ]
    worst = 0.0
    for c, expected_mu_t, _name in cases:
        t_q = thermalization_time(c)
        worst = max(worst, abs(c.mu * t_q - expected_mu_t))
        # the decay factor (rho_ee(t) - rho_ss) / (rho_ee(0) - rho_ss)
        rho_t = evolve_analytic(ground_state(), c, t_q)
        ss = steady_state(c)[0, 0].real
        decay = (rho_t[0, 0].real - ss) / (0.0 - ss)
        worst = max(worst, abs(decay - math.exp(-1.0)))
    golden_ok, golden_detail = _regenerate_and_compare(tmp_path, prefix="decay")
    report(
        4,
        worst <= tol and golden_ok,
        f"max deviation from closed-form 1/e times {worst:.2e} (tol "
        f"{tol:.0e}); golden decay files {golden_detail}",
    )


def test_criterion_5_temperature_regression(tmp_path):
    """Temperature trajectories asymptote to the exact steady values within
    1e-6 and sit within 2% of the quadratic-regime estimates
    {2.5, 9.5, 20.5}; golden CSVs regenerate byte-identically."""
    tol_exact = 1e-6
    tol_estimate = 0.02
    worst_exact = 0.0
    worst_estimate = 0.0
    for N, estimate in ((4, 2.5), (8, 9.5), (12, 20.5)):
        k = N // 2 - 1
        c = coefficients_for(BathSpec.dicke(N, k), PARAMS)
        exact = -1.0 / math.log(
            (k * (N - k + 1)) / ((k + 1) * (N - k))
        )
        t_late = 40.0 * thermalization_time(c)
        asymptote = temperature_trajectory(c, [t_late])[0]
        worst_exact = max(worst_exact, abs(asymptote - exact))
        worst_estimate = max(worst_estimate, abs(asymptote - estimate) / estimate)
    golden_ok, golden_detail = _regenerate_and_compare(tmp_path, prefix="temperature")
    report(
        5,
        worst_exact <= tol_exact
        and worst_estimate <= tol_estimate
        and golden_ok,
        f"max |asymptote - exact| = {worst_exact:.2e} (tol {tol_exact:.0e}), "
        f"max relative gap to estimates {worst_estimate:.2%} (tol 2%); "
        f"golden temperature files {golden_detail}",
    )


def test_criterion_6_collision_model_convergence():
    """Exact-propagator collision chains converge to the analytic solution
    at second order: halving g*tau shrinks the deviation by 4 +/- 1."""
    bath = BathSpec.dicke(4, 1)
    devs = []
    for g_tau in (0.2, 0.1, 0.05):
        params = CollisionParams(g=g_tau, tau=1.0, p=1.0 / g_tau**2)  # mu = 1
        dt = 0.02 / params.p  # fixed per-step collision probability
        traj = collision_chain(
            ground_state(), bath, params, t_end=0.2, dt=dt, mode="exact",
            scheme="deterministic",
        )
        ana = analytic_trajectory(
            ground_state(), coefficients_for(BathSpec.dicke(4, 1), params), traj.times
        )
        devs.append(float(np.max(np.abs(traj.excited_pop - ana.excited_pop))))
    ratios = [devs[0] / devs[1], devs[1] / devs[2]]
    ok = all(3.0 <= r <= 5.0 for r in ratios)
    report(
        6,
        ok,
        f"deviations {[f'{d:.3e}' for d in devs]}, halving ratios "
        f"{[f'{r:.2f}' for r in ratios]} (required 4 +/- 1)",
    )


def test_criterion_7_preparation_oracle():
    """The collective rate-equation preparation converges to the closed-form
    block state entrywise within 1e-6, with Gibbs population ratios."""
    tol = 1e-6
    worst_entry = 0.0
    worst_ratio = 0.0
    for N in range(1, 9):
        for n_bar in (0.5, 1.0):
            ladder, rho = prepare_thermal_dicke(
                N, n_bar, gamma0=1.0, t_end=20.0, dt=0.002
            )
            worst_entry = max(
                worst_entry,
                float(np.max(np.abs(rho - validate_bath(BathSpec.thermal_hec(N, n_bar))))),
            )
            r = n_bar / (n_bar + 1.0)
            pops = ladder.populations
            for k in range(N):
                worst_ratio = max(worst_ratio, abs(pops[k + 1] / pops[k] - r))
    report(
        7,
        worst_entry <= tol and worst_ratio <= tol,
        f"max entrywise deviation {worst_entry:.2e}, max Gibbs-ratio "
        f"deviation {worst_ratio:.2e} (tol {tol:.0e})",
    )


def test_criterion_8_classification_properties():
    """Exhaustive excitation-difference label rules for N <= 5, and
    coefficient invariance (1e-12) under perturbations supported on
    ineffective entries."""
    label_ok = True
    for N in range(1, 6):
        ops = cached_ops(N)
        cmap = classify_coherences(N)
        exc = ops.basis.excitations
        for i in range(2**N):
            for j in range(2**N):
                if i == j:
                    label_ok &= cmap.primary(i, j) == "population"
                    continue
                diff = abs(int(exc[i]) - int(exc[j]))
                label = cmap.primary(i, j)
                allowed = {
                    0: ("hec", "ineffective"),
                    1: ("displacement", "ineffective"),
                    2: ("squeezing", "ineffective"),
                }.get(diff, ("ineffective",))
                label_ok &= label in allowed

    tol = 1e-12
    worst = 0.0
    for N in range(3, 6):
        ops = cached_ops(N)
        base = 0.7 * validate_bath(BathSpec.thermal_hec(N, 1.0)) + 0.3 * np.eye(2**N) / 2**N
        ineffective = label_table(N) == "ineffective"
        rng = np.random.default_rng(1000 + N)
        noise = rng.normal(size=ineffective.shape) + 1j * rng.normal(
            size=ineffective.shape
        )
        pert = np.where(ineffective, noise, 0.0)
        pert = (pert + pert.conj().T) / 2.0
        scale = 0.5 * (0.3 / 2**N) / np.linalg.norm(pert, 2)
        perturbed = validate_density_matrix(base + scale * pert)
        c0 = coefficients_from_state(base, ops, PARAMS)
        c1 = coefficients_from_state(perturbed, ops, PARAMS)
        worst = max(
            worst,
            abs(c1.lam - c0.lam),
            abs(c1.eps - c0.eps),
            abs(c1.r_e - c0.r_e),
            abs(c1.r_d - c0.r_d),
        )
    report(
        8,
        label_ok and worst <= tol,
        f"label rules exhaustive for N <= 5: {label_ok}; max coefficient "
        f"shift under ineffective-entry perturbations {worst:.2e} (tol "
        f"{tol:.0e})",
    )


def test_criterion_9_pointwise_advantage():
    """For N = 8, the symmetric k=3 bath heats the qubit at least as much as
    the steady-temperature-matched incoherent bath at every grid point, and
    by more than 10% at mu*t = t_mix/2."""
    c_d = coefficients_for(BathSpec.dicke(8, 3), PARAMS)
    p_e = c_d.r_e / (c_d.r_e + c_d.r_d)
    c_m = coefficients_for(BathSpec.product_mixed(8, p_e), PARAMS)
    assert abs(steady_temperature(c_d) - steady_temperature(c_m)) < 1e-12
    t_mix = thermalization_time(c_m)
    ts = np.linspace(0.0, 8.0 * t_mix, 801)
    T_d = temperature_trajectory(c_d, ts)
    T_m = temperature_trajectory(c_m, ts)
    pointwise_ok = bool(np.all(T_d >= T_m))
    t_half = 0.5 * t_mix
    T_d_half = temperature_trajectory(c_d, [t_half])[0]
    T_m_half = temperature_trajectory(c_m, [t_half])[0]
    rel_gain = (T_d_half - T_m_half) / T_m_half
    report(
        9,
        pointwise_ok and rel_gain >= 0.10,
        f"pointwise dominance on {len(ts)} grid points: {pointwise_ok}; "
        f"relative gain at t_mix/2 = {rel_gain:.1%} (required >= 10%)",
    )


def _regenerate_and_compare(tmp_path, prefix):
    """Regenerate the figure datasets and byte-compare against the archive."""
    out_dir = tmp_path / "regen"
    code = cli_main(["figures", "--out-dir", str(out_dir)])
    assert code == 0
    names = sorted(
        name for name in os.listdir(GOLDEN_DIR) if name.startswith(prefix)
    )
    assert names, f"no golden files with prefix {prefix}"
    mismatched = []
    for name in names:
        with open(os.path.join(GOLDEN_DIR, name), "rb") as fh:
            golden = fh.read()
        with open(out_dir / name, "rb") as fh:
            fresh = fh.read()
        if golden != fresh:
            mismatched.append(name)
    if mismatched:
        return False, f"MISMATCH: {mismatched}"
    return True, f"byte-identical ({len(names)} files)"
