import bisect
import functools
import importlib.util
import json
import math
import os
import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qollide import (
    BathSpec,
    CollisionParams,
    LadderState,
    MeqCoefficients,
    NumericError,
    ValidationError,
    analytic_trajectory,
    block_sizes,
    classify_coherences,
    coefficients_for,
    collision_chain,
    collision_superoperator,
    dicke_max_noninverted_k,
    dicke_temperature,
    entropy,
    evolve_analytic,
    excited_state,
    fit_loglog_slope,
    ground_state,
    integrate_master,
    ladder_history,
    lindblad_rhs,
    prepare_thermal_dicke,
    qubit_state,
    scaling_sweep,
    steady_state,
    steady_temperature,
    temperature_from_populations,
    temperature_trajectory,
    thermalization_time,
    validate_bath,
)
from qollide import collective, dynamics, errors
from qollide.baths import thermal_hec_rates
from qollide.dynamics import (
    SWEEP_CSV_HEADER,
    TRAJECTORY_CSV_HEADER,
    SweepRow,
    Trajectory,
    _distinct_sorted,
    _record_indices,
    _step_count,
)
from qollide.errors import MAX_RECORDS

from conftest import cached_ops, dense_ops, fmt_float, random_density_matrix

PARAMS = CollisionParams(g=0.1, tau=1.0, p=100.0)  # mu = 1


class TestClosedFormLaws:
    def test_thermalization_time_product(self):
        for N in (2, 4, 8):
            c = coefficients_for(BathSpec.product_mixed(N, 0.3), PARAMS)
            assert thermalization_time(c) == pytest.approx(
                1.0 / (PARAMS.mu * N), rel=1e-12
            )

    def test_thermalization_time_dicke_formula(self):
        for N in (4, 8, 12):
            for k in range(N + 1):
                c = coefficients_for(BathSpec.dicke(N, k), PARAMS)
                expected = 1.0 / (PARAMS.mu * (N + 2 * k * N - 2 * k * k))
                assert thermalization_time(c) == pytest.approx(expected, rel=1e-12)

    def test_quarter_excitation_special_case(self):
        # N=8, k=2: 1/(32 mu), which equals [mu (N + 3 N^2 / 8)]^-1 at k=N/4
        c = coefficients_for(BathSpec.dicke(8, 2), PARAMS)
        assert thermalization_time(c) == pytest.approx(1.0 / (32.0 * PARAMS.mu))
        assert thermalization_time(c) == pytest.approx(
            1.0 / (PARAMS.mu * (8 + 3 * 64 / 8))
        )

    def test_no_coupling_sentinel(self):
        c = MeqCoefficients(0j, 0j, 0.0, 0.0, 1.0, 1.0)
        assert thermalization_time(c) == math.inf

    def test_steady_state_without_rates_refused(self):
        with pytest.raises(ValidationError) as info:
            steady_state(MeqCoefficients(0j, 0j, 0.0, 0.0, 1.0, 1.0))
        assert str(info.value) == "steady_state: r_e + r_d must be positive"

    def test_steady_state_values(self):
        c = coefficients_for(BathSpec.dicke(4, 1), PARAMS)
        np.testing.assert_allclose(
            steady_state(c), np.diag([0.4, 0.6]), atol=1e-15
        )
        c0 = MeqCoefficients(0j, 0j, 0.0, 3.0, 1.0, 1.0)
        np.testing.assert_allclose(steady_state(c0), np.diag([0.0, 1.0]), atol=0)
        ci = MeqCoefficients(0j, 0j, 2.0, 2.0, 1.0, 1.0)
        np.testing.assert_allclose(steady_state(ci), np.eye(2) / 2.0, atol=0)

    def test_steady_temperature_thermal_product(self):
        # p_e/p_g = exp(-1) is a Gibbs weight at temperature 1
        p_e = math.exp(-1.0) / (1.0 + math.exp(-1.0))
        c = coefficients_for(BathSpec.product_mixed(5, p_e), PARAMS)
        assert steady_temperature(c) == pytest.approx(1.0, abs=1e-12)

    def test_dicke_temperature_values(self):
        assert dicke_temperature(4, 1) == pytest.approx(2.4663034623764313, abs=1e-12)
        # quadratic-regime approximation (N^2 + 2N)/8 - 1/2 = 2.5 within 2%
        assert dicke_temperature(4, 1) == pytest.approx(2.5, rel=0.02)
        # linear-regime point N=8, k=N/4: exact 1/ln(9/7), approx 1 + 3N/8 = 4
        assert dicke_temperature(8, 2) == pytest.approx(3.979079143367975, abs=1e-12)
        assert dicke_temperature(8, 2) == pytest.approx(4.0, rel=0.02)

    def test_dicke_temperature_sentinels(self):
        assert dicke_temperature(4, 0) == 0.0
        assert dicke_temperature(8, 4) == math.inf  # balanced rates
        assert dicke_temperature(8, 5) < 0.0  # inverted
        inverted_edge = dicke_temperature(4, 4)
        assert inverted_edge == 0.0 and math.copysign(1.0, inverted_edge) < 0

    def test_max_noninverted_k(self):
        assert dicke_max_noninverted_k(8) == 3
        assert dicke_max_noninverted_k(5) == 2
        assert dicke_max_noninverted_k(2) == 0
        for N in range(2, 12):
            k = dicke_max_noninverted_k(N)
            T = dicke_temperature(N, k)
            assert math.isfinite(T) and T >= 0  # not inverted
            next_T = dicke_temperature(N, k + 1)
            assert next_T == math.inf or next_T <= 0

    def test_temperature_sentinels(self):
        assert temperature_from_populations(0.0, 1.0) == 0.0
        assert temperature_from_populations(0.5, 0.5) == math.inf
        assert temperature_from_populations(0.6, 0.4) < 0


def _temperature_oracle(p_e, p_g):
    """The scalar temperature law as a branch chain, as
    ``temperature_from_populations`` computed it alone; None where
    ``math.log`` of a ratio that underflowed to 0 raises."""
    if p_e <= 0.0:
        return 0.0
    if p_g <= 0.0:
        return -0.0
    if p_e == p_g:
        return math.inf
    try:
        return 1.0 / math.log(p_g / p_e)
    except ValueError:
        return None


class TestTemperatureArrayForm:
    """``_temperatures`` and ``temperature_from_populations`` against the
    scalar branch chain, bit for bit: every sentinel, NaN, infinities,
    subnormal ratios, adjacent and equal populations."""

    VALUES = (
        0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e-300,
        0.1, 0.25, 0.49999999999999994, 0.5, 0.5000000000000001, 1.0, 2.0,
        1e300, 1.7976931348623157e308, math.inf, -math.inf, math.nan, -1.0,
    )

    def pairs(self, raising):
        return [
            (a, b) for a in self.VALUES for b in self.VALUES
            if (_temperature_oracle(a, b) is None) == raising
        ]

    def test_same_bits_as_scalar(self):
        pairs = self.pairs(raising=False)
        ee, gg = np.array(pairs).T
        want = np.array([_temperature_oracle(a, b) for a, b in pairs])
        got = dynamics._temperatures(ee, gg)
        assert got.tobytes() == want.tobytes()
        one_pair = np.array([temperature_from_populations(a, b) for a, b in pairs])
        assert one_pair.tobytes() == want.tobytes()
        assert all(type(temperature_from_populations(a, b)) is float for a, b in pairs)
        assert {0.0, math.inf} <= set(got.tolist()) and np.isnan(got).any()
        assert np.signbit(got[(got == 0.0) & (gg <= 0.0) & (ee > 0.0)]).all()

    def test_raises_where_scalar_raises(self):
        raising = self.pairs(raising=True)
        assert raising  # e.g. 1e300 over 5e-324
        for a, b in raising:
            with pytest.raises(ValueError):
                dynamics._temperatures(np.array([0.1, a]), np.array([0.2, b]))
            with pytest.raises(ValueError):
                temperature_from_populations(a, b)

    def test_empty(self):
        assert dynamics._temperatures(np.array([]), np.array([])).shape == (0,)


class TestEvolveAnalytic:
    def test_initial_condition(self):
        c = coefficients_for(BathSpec.dicke(4, 1), PARAMS)
        rho0 = qubit_state(0.3, 0.1 + 0.05j)
        np.testing.assert_allclose(evolve_analytic(rho0, c, 0.0), rho0, atol=1e-15)

    def test_long_time_reaches_steady_state(self):
        c = coefficients_for(BathSpec.dicke(4, 1), PARAMS)
        t = 100.0 * thermalization_time(c)
        out = evolve_analytic(excited_state(), c, t)
        np.testing.assert_allclose(out, steady_state(c), atol=1e-10)

    def test_reference_point(self):
        # ground-state init, r_e=4, r_d=6 at t = t_q: (4/10)(1 - 1/e)
        c = coefficients_for(BathSpec.dicke(4, 1), PARAMS)
        out = evolve_analytic(ground_state(), c, thermalization_time(c))
        assert out[0, 0].real == pytest.approx(0.25284822353142306, abs=1e-15)

    def test_coherence_half_rate(self):
        c = coefficients_for(BathSpec.dicke(4, 1), PARAMS)
        t_q = thermalization_time(c)
        rho0 = qubit_state(0.5, 0.25j)
        out = evolve_analytic(rho0, c, 2.0 * t_q)
        assert out[0, 1] == pytest.approx(0.25j * math.exp(-1.0), abs=1e-15)

    @pytest.mark.parametrize(
        "c",
        [
            MeqCoefficients(0j, 0j, 1.0, 2.0, 0.0, 0.0),  # mu = 0
            MeqCoefficients(0j, 0j, 0.0, 0.0, 1.0, 1.0),  # r_e = r_d = 0
            MeqCoefficients(0j, 0j, 0.5, 0.5, 5e-324, 0.0),  # 1 / rate overflows
        ],
        ids=["no-mu", "no-rates", "t_q-inf"],
    )
    def test_no_coupling_keeps_initial_state(self, c):
        rho0 = qubit_state(0.3, 0.1 + 0.05j)
        times = np.array([0.0, 1.0, 1e300, math.inf])
        states = analytic_trajectory(rho0, c, times).states
        assert states.tobytes() == np.repeat(rho0[None], 4, axis=0).tobytes()

    def test_nonthermal_coefficients_rejected(self):
        c = MeqCoefficients(0.1, 0j, 1.0, 2.0, 1.0, 1.0)
        with pytest.raises(ValidationError):
            evolve_analytic(ground_state(), c, 1.0)

    def test_matches_generator_derivative(self):
        # two-sided difference quotient of the closed form reproduces the
        # master-equation right-hand side
        c = coefficients_for(BathSpec.thermal_hec(5, 0.8), PARAMS)
        rho0 = qubit_state(0.35, 0.12 - 0.07j)
        h = 1e-6
        num = (evolve_analytic(rho0, c, h) - evolve_analytic(rho0, c, -h)) / (2 * h)
        np.testing.assert_allclose(num, lindblad_rhs(rho0, c), atol=1e-7)

    def test_monotone_heating_from_ground(self):
        c = coefficients_for(BathSpec.dicke(8, 3), PARAMS)
        ts = np.linspace(0.0, 5 * thermalization_time(c), 200)
        traj = analytic_trajectory(ground_state(), c, ts)
        assert np.all(np.diff(traj.excited_pop) > 0)
        assert np.all(np.diff(traj.temperature) > 0)


class TestTemperatureTrajectory:
    def test_limits(self):
        c = coefficients_for(BathSpec.dicke(4, 1), PARAMS)
        t_q = thermalization_time(c)
        out = temperature_trajectory(c, [0.0, 50 * t_q])
        assert out[0] == 0.0
        assert out[1] == pytest.approx(steady_temperature(c), abs=1e-12)

    def test_reference_point(self):
        c = coefficients_for(BathSpec.dicke(4, 1), PARAMS)
        out = temperature_trajectory(c, [thermalization_time(c)])
        assert out[0] == pytest.approx(0.92295286901853, abs=1e-13)

    def test_matches_rate_ratio_expression(self):
        # [ln((1 + r_d/r_e)/(1 - exp(-t/t_q)) - 1)]^-1, written directly
        c = coefficients_for(BathSpec.dicke(8, 3), PARAMS)
        t_q = thermalization_time(c)
        ts = np.linspace(0.01 * t_q, 10 * t_q, 50)
        expected = [
            1.0
            / math.log(
                (1.0 + c.r_d / c.r_e) / (1.0 - math.exp(-t / t_q)) - 1.0
            )
            for t in ts
        ]
        np.testing.assert_allclose(
            temperature_trajectory(c, ts), expected, rtol=1e-12
        )

    def test_requires_excitation_rate(self):
        c = MeqCoefficients(0j, 0j, 0.0, 3.0, 1.0, 1.0)
        with pytest.raises(ValidationError):
            temperature_trajectory(c, [1.0])

    @pytest.mark.parametrize(
        "c",
        [
            MeqCoefficients(0j, 0j, 1.0, 3.0, 0.0, 0.0),  # mu = 0
            MeqCoefficients(0j, 0j, 1e-200, 2e-200, 1e-200, 0.0),  # rate underflows to 0
            MeqCoefficients(0j, 0j, 0.5, 0.5, 5e-324, 0.0),  # 1 / rate overflows
        ],
        ids=["no-mu", "rate-zero", "t_q-inf"],
    )
    def test_no_coupling_stays_at_zero(self, c):
        # an infinite t_q: the qubit never heats, at every time of any grid shape
        out = temperature_trajectory(c, [[0.0, 1.0], [1e300, math.inf]])
        assert out.tobytes() == np.zeros((2, 2)).tobytes()


class TestEntropy:
    def test_pure_state(self):
        assert entropy(excited_state()) == 0.0

    def test_maximally_mixed(self):
        assert entropy(np.eye(2) / 2.0) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_reference_value(self):
        assert entropy(np.diag([0.4, 0.6])) == pytest.approx(
            0.6730116670092565, abs=1e-15
        )

    def test_same_bits_as_filtered_sum(self, rng):
        # the shared stacked sum keeps the bits of -sum over w > 0 alone
        states = [excited_state(), ground_state(), np.eye(2) / 2.0, np.diag([0.4, 0.6])]
        states += [random_density_matrix(rng, 2) for _ in range(50)]
        for state in states:
            _, want, _ = _per_record_oracle([0.0], [state], 1.0)
            assert_same_bits(np.array([entropy(state)]), want)

    def test_steady_entropy_bounded_by_ln2(self):
        prev = 0.0
        for k in (0, 1, 2, 3):
            c = coefficients_for(BathSpec.dicke(8, k), PARAMS)
            s = entropy(steady_state(c))
            assert s <= math.log(2.0) + 1e-15
            assert s >= prev  # approaches ln 2 as r_e/r_d -> 1
            prev = s


class TestIntegrateMaster:
    def test_matches_analytic_for_thermal_channel(self):
        c = coefficients_for(BathSpec.dicke(4, 1), PARAMS)
        t_q = thermalization_time(c)
        traj = integrate_master(ground_state(), c, 3 * t_q, t_q / 100.0)
        ana = analytic_trajectory(ground_state(), c, traj.times)
        assert np.max(np.abs(traj.states - ana.states)) < 1e-8

    def test_rabi_oscillation_under_pure_drive(self):
        # lambda only: rho_ee = sin^2(pg_tau |lambda| t)
        lam = 0.3
        c = MeqCoefficients(lam, 0j, 0.0, 0.0, 1.0, 2.0)
        omega = c.pg_tau * abs(lam)  # rho_ee angular frequency 2*omega
        t_end = 2.0 * math.pi / omega
        traj = integrate_master(ground_state(), c, t_end, t_end / 4000.0)
        expected = np.sin(omega * traj.times) ** 2
        np.testing.assert_allclose(traj.excited_pop, expected, atol=1e-8)

    def test_squeezing_run_preserves_structure(self):
        c = MeqCoefficients(0j, 0.4 + 0.2j, 0.8, 1.2, 1.0, 1.0)
        traj = integrate_master(qubit_state(0.2, 0.1), c, 1.0, 1e-4)
        final = traj.states[-1]
        np.testing.assert_allclose(final, final.conj().T, atol=1e-12)
        assert abs(np.trace(final) - 1.0) < 1e-12

    def test_states_do_not_depend_on_step(self):
        # records are joined by exact exponentials, so dt sets only the
        # grid; 4e13 steps of 1e-12 t_q are one exponential per gap too,
        # where powers of a step map that close to the identity would carry
        # its rounding, relative 1e-16 / (dt / t_q), into the steady state
        c = coefficients_for(BathSpec.dicke(4, 1), PARAMS)
        t_q = thermalization_time(c)
        dt = t_q / 40.0
        coarse = integrate_master(ground_state(), c, 2 * t_q, dt)
        fine = integrate_master(ground_state(), c, 2 * t_q, dt / 64.0)
        assert fine.times[::64].tolist() == coarse.times.tolist()
        assert np.max(np.abs(fine.states[::64] - coarse.states)) <= 1e-12
        for step in (1e-12 * t_q, dt, 10.0 * t_q):
            traj = integrate_master(ground_state(), c, 40.0 * t_q, step, n_records=11)
            ana = analytic_trajectory(ground_state(), c, traj.times)
            assert np.max(np.abs(traj.states - ana.states)) <= 1e-13

    def test_invalid_dt(self):
        c = coefficients_for(BathSpec.dicke(4, 1), PARAMS)
        with pytest.raises(ValidationError):
            integrate_master(ground_state(), c, 1.0, -0.1)

    @pytest.mark.parametrize(
        "t_end, dt, fragment",
        [
            (math.nan, 0.1, "t_end: must be finite"),
            (math.inf, 0.1, "t_end: must be finite"),
            (1.0, math.nan, "dt: must be finite"),
            (1.0, math.inf, "dt: must be finite"),
        ],
    )
    def test_non_finite_grid_rejected_by_every_engine(self, t_end, dt, fragment):
        c = coefficients_for(BathSpec.dicke(4, 1), PARAMS)
        with pytest.raises(ValidationError, match=fragment):
            integrate_master(ground_state(), c, t_end, dt)
        with pytest.raises(ValidationError, match=fragment):
            collision_chain(ground_state(), BathSpec.dicke(2, 1), PARAMS, t_end, dt)
        with pytest.raises(ValidationError, match=fragment):
            ladder_history(3, 1.0, 1.0, t_end, dt)

    @pytest.mark.parametrize("gamma0", [math.nan, math.inf])
    def test_non_finite_ladder_rate_rejected(self, gamma0):
        with pytest.raises(ValidationError, match="gamma0: must be finite"):
            ladder_history(3, 1.0, gamma0, 1.0, 0.1)

    def test_no_warning_at_long_steps(self):
        # a step of 10 t_q, and a step of 1/(pg_tau |lam|) for a drive
        # of pg_tau |lam| = 100, run silent
        c = coefficients_for(BathSpec.dicke(4, 1), PARAMS)
        driven = MeqCoefficients(1.0 + 0.0j, 0.0j, 1.0, 2.0, 1.0, 100.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            integrate_master(ground_state(), c, 1.0, 10.0 * thermalization_time(c))
            integrate_master(ground_state(), driven, 0.1, 0.01)

    def test_step_far_beyond_t_q_gives_steady_state(self):
        # a step of 50 t_q lands on the steady state diag(0.4, 0.6)
        c = coefficients_for(BathSpec.dicke(4, 1), CollisionParams(g=0.1, tau=1.0, p=1e3))
        traj = integrate_master(ground_state(), c, 1.0, 0.5)
        assert traj.states[1:, 0, 0].tolist() == [0.40000000000000013] * 2
        np.testing.assert_allclose(traj.states[1:], [steady_state(c)] * 2, atol=1e-15)

    @pytest.mark.parametrize(
        "row, entry, step",
        [(0, 0, 0), (1, 3, 5), (2, 0, 10), (-1, 3, 10)],
    )
    def test_negativity_of_each_checked_state(self, monkeypatch, row, entry, step):
        # rows: the records (steps 0, 5 and 10), then the final state, in
        # trace coordinates (Tr, eg, ge, ee - gg); the trace is kept, so
        # only the population check sees the change.  The t = 0 record is
        # rho0 itself, so a negative step 0 comes from rho0.
        real = dynamics._propagate
        y3 = -1.0 - 3e-10 if entry == 0 else 1.0 + 3e-10

        def negative(*args):
            rows = real(*args)
            rows[row] = [1.0, 0.0, 0.0, y3]
            return rows

        monkeypatch.setattr(dynamics, "_propagate", negative)
        rho0 = ground_state() if step else np.diag([-1.5e-10, 1.0 + 1.5e-10]).astype(complex)
        c = coefficients_for(BathSpec.dicke(4, 1), PARAMS)
        with pytest.raises(
            NumericError,
            match=f"^integrate_master: population negativity -1.500e-10 at step {step}$",
        ):
            integrate_master(rho0, c, 0.01, 0.001, n_records=3)

    def test_nan_trace_reported_before_negativity(self, monkeypatch):
        real = dynamics._propagate

        def broken(*args):
            rows = real(*args)  # in trace coordinates (Tr, eg, ge, ee - gg)
            rows[1] = [1.0, 0.0, 0.0, -3.0]  # negative at step 5, trace kept
            rows[2] = np.nan
            return rows

        monkeypatch.setattr(dynamics, "_propagate", broken)
        c = coefficients_for(BathSpec.dicke(4, 1), PARAMS)
        with pytest.raises(NumericError, match="^integrate_master: trace drift nan at step 10$"):
            integrate_master(ground_state(), c, 0.01, 0.001, n_records=3)

    @pytest.mark.parametrize("seed", range(8))
    def test_driven_baths_at_the_advised_step_pass(self, seed):
        # random full-rank explicit baths drive and squeeze the target; at
        # dt = t_q/20 from a pure state no population comes near the bound
        rng = np.random.default_rng(seed)
        N = 1 + seed % 4
        c = coefficients_for(BathSpec.explicit(random_density_matrix(rng, 2**N)), PARAMS)
        assert c.lam != 0.0
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        t_q = thermalization_time(c)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = integrate_master(np.outer(v, v.conj()), c, 5.0 * t_q, t_q / 20.0)
        assert traj.states[:, 0, 0].real.min() > 0.0 < traj.states[:, 1, 1].real.min()

    def test_driven_runs_match_eig_oracle(self):
        # g tau = 0.01 at p = 1e4: mu = 1 but pg_tau = 100, a drive a
        # fixed-order step at dt = t_q/25 could not follow
        params = CollisionParams(g=0.01, tau=1.0, p=1e4)
        for seed in range(40):
            rng = np.random.default_rng(seed)
            bath = _random_pure_state(rng, 2 ** (1 + seed % 4))
            c = coefficients_for(BathSpec.explicit(bath), params)
            t_q = thermalization_time(c)
            rho0 = _random_pure_state(rng, 2)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                traj = integrate_master(rho0, c, 5.0 * t_q, t_q / 25.0)
            want = _eig_oracle(rho0, c, traj.times)
            assert np.max(np.abs(traj.states - want)) <= 1e-12

    def test_default_parameter_runs_silent(self):
        # named baths have no drive; the benchmark's ode-explicit run on its
        # seeded N=4 bath has dt pg_tau |lam| <= 4e-4
        reference = _perfbench_reference()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            integrate_master(ground_state(), coefficients_for(BathSpec.dicke(8, 3), PARAMS), 0.18, 3e-5)
            integrate_master(ground_state(), coefficients_for(BathSpec.dicke(4, 1), PARAMS), 1.0, 0.001)
            for seed in (1, 2, 4242):
                rho4 = reference.random_bath(np.random.default_rng([seed, 0]), 4)
                c = coefficients_for(BathSpec.explicit(rho4), PARAMS)
                assert 2e-5 * c.pg_tau * abs(c.lam) <= 4e-4
                integrate_master(ground_state(), c, 1500 * 2e-5, 2e-5)

    @pytest.mark.parametrize("row, step", [(0, 0), (2, 10), (-1, 10)])
    def test_trace_drift_refused(self, monkeypatch, row, step):
        # rows: the records (steps 0, 5 and 10), then the final state, in
        # trace coordinates, whose entry 0 is the trace; the t = 0 record is
        # rho0 itself, so a drift at step 0 comes from rho0
        real = dynamics._propagate

        def drifted(*args):
            rows = real(*args)
            rows[row, 0] += 2e-8
            return rows

        monkeypatch.setattr(dynamics, "_propagate", drifted)
        rho0 = ground_state()
        rho0[1, 1] += 2e-8 if step == 0 else 0.0
        c = coefficients_for(BathSpec.dicke(4, 1), PARAMS)
        with pytest.raises(NumericError, match=f"^integrate_master: trace drift 2.000e-08 at step {step}$"):
            integrate_master(rho0, c, 0.01, 0.001, n_records=3)

    def test_trace_exact_over_long_runs(self):
        # the step map's trace row is exactly e_0 in every power: 1e15
        # steps keep the trace, and a step of 1e99 t_q lands on the steady state
        c = coefficients_for(BathSpec.dicke(4, 1), PARAMS)
        for t_end, dt in ((2.5e12, 0.0025), (1e99, 1e98)):
            traj = integrate_master(ground_state(), c, t_end, dt, n_records=3)
            traces = traj.states[:, 0, 0] + traj.states[:, 1, 1]
            assert np.max(np.abs(traces - 1.0)) <= 1e-15
        np.testing.assert_allclose(traj.states[1:], [steady_state(c)] * 2, atol=1e-15)

    def test_zero_time_record_is_rho0(self):
        # the trace coordinates round 0.2 - 0.8 and back; the record does not
        c = coefficients_for(BathSpec.dicke(4, 1), PARAMS)
        rho0 = qubit_state(0.2, 0.1 - 0.05j)
        traj = integrate_master(rho0, c, 0.01, 0.001, n_records=3)
        assert traj.states[0].tobytes() == rho0.tobytes()


class TestCollisionChain:
    @pytest.mark.parametrize("mode", ["bogus", "Exact", ""])
    def test_unknown_mode_refused(self, mode):
        shown = mode.replace("-", "_")
        with pytest.raises(ValidationError) as info:
            collision_superoperator(BathSpec.dicke(2, 1), PARAMS, mode=mode)
        assert str(info.value) == f"mode: must be 'exact' or 'second_order', got {shown!r}"

    def test_zero_coupling_is_constant(self):
        params = CollisionParams(g=0.0, tau=1.0, p=10.0)
        rho0 = qubit_state(0.3, 0.05)
        traj = collision_chain(
            rho0, BathSpec.dicke(3, 1), params, t_end=0.5, dt=0.05
        )
        for state in traj.states:
            np.testing.assert_allclose(state, rho0, atol=1e-14)

    def test_exact_chain_tracks_analytic(self):
        gt = 0.05
        params = CollisionParams(g=gt, tau=1.0, p=1.0 / gt**2)  # mu = 1
        bath = BathSpec.dicke(4, 1)
        c = coefficients_for(BathSpec.dicke(4, 1), params)
        t_q = thermalization_time(c)
        traj = collision_chain(
            ground_state(), bath, params, t_end=t_q, dt=0.02 / params.p
        )
        ana = analytic_trajectory(ground_state(), c, traj.times)
        dev = np.max(np.abs(traj.excited_pop - ana.excited_pop))
        assert dev < 5.0 * gt**2  # second-order accuracy

    def test_error_quadratic_in_interaction_strength(self):
        bath = BathSpec.dicke(4, 1)
        devs = []
        for gt in (0.2, 0.1):
            params = CollisionParams(g=gt, tau=1.0, p=1.0 / gt**2)
            traj = collision_chain(
                ground_state(), bath, params, t_end=0.2, dt=0.02 / params.p
            )
            c = coefficients_for(BathSpec.dicke(4, 1), params)
            ana = analytic_trajectory(ground_state(), c, traj.times)
            devs.append(np.max(np.abs(traj.excited_pop - ana.excited_pop)))
        assert 3.0 < devs[0] / devs[1] < 5.0

    def test_second_order_map_matches_generator(self, rng):
        # one truncated collision reproduces the per-collision generator
        # (drive weight g*tau, dissipator weight (g*tau)^2) to third order
        psi = np.array([0.8, 0.3, 0.0, math.sqrt(1 - 0.73)], dtype=complex)
        spec = BathSpec.explicit(np.outer(psi, psi.conj()))
        ops = cached_ops(2)
        rho0 = qubit_state(0.3, 0.1 + 0.05j)
        errs = []
        for gt in (0.1, 0.05):
            params = CollisionParams(g=gt, tau=1.0, p=1.0)
            from qollide import coefficients_from_state, collision_superoperator

            phi = collision_superoperator(spec, params, mode="second_order")
            change = (phi @ rho0.ravel()).reshape(2, 2) - rho0
            c = coefficients_from_state(
                np.outer(psi, psi.conj()), ops, params
            )
            per_collision = MeqCoefficients(c.lam, c.eps, c.r_e, c.r_d, gt**2, gt)
            errs.append(np.max(np.abs(change - lindblad_rhs(rho0, per_collision))))
        assert 6.0 < errs[0] / errs[1] < 11.0  # third-order residual

    def test_superoperator_matches_direct_collision(self, rng):
        # the cached 4x4 map must agree with tracing out the bath directly
        from qollide import (
            BathSpec,
            collision_superoperator,
            matrix_exp,
            partial_trace_bath,
        )
        from qollide.master_equation import SIGMA_MINUS, SIGMA_PLUS

        spec = BathSpec.thermal_hec(3, 0.8)
        params = CollisionParams(g=0.15, tau=1.0, p=1.0)
        phi = collision_superoperator(spec, params, mode="exact")
        dense = dense_ops(3)
        from qollide import validate_bath

        rho_b = validate_bath(spec)
        V = np.kron(SIGMA_MINUS, dense.J_plus) + np.kron(SIGMA_PLUS, dense.J_minus)
        U = matrix_exp(-1j * params.g_tau * V)
        for _ in range(5):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            rho_q = g @ g.conj().T
            rho_q /= np.trace(rho_q)
            direct = partial_trace_bath(
                U @ np.kron(rho_q, rho_b) @ U.conj().T, 2, 8
            )
            via_map = (phi @ rho_q.ravel()).reshape(2, 2)
            np.testing.assert_allclose(via_map, direct, atol=1e-13)

    def test_coherent_bath_chain_tracks_full_master_equation(self):
        # with displacement and squeezing coherences present, the exact
        # chain and the integrated master equation agree to first order in
        # g*tau at fixed mu (odd collective moments no longer vanish)
        from qollide import BathSpec, coefficients_from_state

        psi = np.array([0.8, 0.3, 0.2, math.sqrt(1 - 0.77)], dtype=complex)
        rho_b = np.outer(psi, psi.conj())
        spec = BathSpec.explicit(rho_b)
        ops = cached_ops(2)
        devs = []
        for gt in (0.05, 0.025):
            params = CollisionParams(g=gt, tau=1.0, p=1.0 / gt**2)  # mu = 1
            c = coefficients_from_state(rho_b, ops, params)
            assert abs(c.lam) > 0.1 and abs(c.eps) > 0.1
            dt = 0.01 / params.p
            chain = collision_chain(
                qubit_state(0.0), spec, params, 0.5, dt, mode="exact",
                n_records=21,
            )
            ode = integrate_master(qubit_state(0.0), c, 0.5, dt, n_records=21)
            devs.append(np.max(np.abs(chain.states - ode.states)))
            assert devs[-1] < 0.2 * gt
        assert 1.6 < devs[0] / devs[1] < 2.4

    def test_stochastic_reproducible_and_unbiased(self):
        params = CollisionParams(g=0.1, tau=1.0, p=100.0)
        bath = BathSpec.dicke(4, 1)
        kwargs = dict(
            t_end=0.05,
            dt=5e-4,
            scheme="stochastic",
            seed=42,
            n_trajectories=400,
            n_records=6,
        )
        t1 = collision_chain(ground_state(), bath, params, **kwargs)
        t2 = collision_chain(ground_state(), bath, params, **kwargs)
        assert np.array_equal(t1.states, t2.states)
        det = collision_chain(
            ground_state(), bath, params, 0.05, 5e-4, n_records=6
        )
        assert np.max(np.abs(t1.excited_pop - det.excited_pop)) < 0.02

    def test_probability_bound_enforced(self):
        params = CollisionParams(g=0.1, tau=1.0, p=100.0)
        with pytest.raises(ValidationError, match="p\\*dt"):
            collision_chain(ground_state(), BathSpec.dicke(2, 1), params, 1.0, 0.5)

    def test_one_qubit_cap_for_both_modes(self, monkeypatch):
        # both modes share the qubit cap N <= 12, applied when the bath is
        # validated, before the collective operators are built
        def refuse(N):
            raise AssertionError(f"operators built for N={N}")

        monkeypatch.setattr(dynamics, "build_collective_ops", refuse)
        params = CollisionParams(g=0.01, tau=1.0, p=1.0)
        for mode in ("exact", "second_order"):
            with pytest.raises(
                ValidationError,
                match=r"^basis_ordering: N=13 outside allowed range 1\.\.12$",
            ):
                collision_chain(
                    ground_state(), BathSpec.dicke(13, 1), params, 0.1, 0.1, mode=mode
                )
        monkeypatch.setattr(errors, "MAX_QUBITS", 2)
        explicit = BathSpec.explicit(np.diag([1.0, 0.0, 0.0, 0.0]))
        for mode in ("exact", "second_order"):
            with pytest.raises(ValidationError, match=r"^basis_ordering: N=3 outside allowed range 1\.\.2$"):
                collision_superoperator(BathSpec.dicke(3, 1), params, mode=mode)
            # N = 2 passes the cap; an explicit bath reaches the operators
            with pytest.raises(AssertionError, match="N=2"):
                collision_superoperator(explicit, params, mode=mode)

    def test_engine_ordering_against_analytic(self):
        # truncation errors: collisions (g*tau)^2 are far above the
        # integrator's (dt)^4 for these settings
        gt = 0.1
        params = CollisionParams(g=gt, tau=1.0, p=1.0 / gt**2)
        c = coefficients_for(BathSpec.dicke(4, 1), params)
        t_q = thermalization_time(c)
        chain = collision_chain(
            ground_state(), BathSpec.dicke(4, 1), params, t_q, 0.02 / params.p
        )
        ana_chain = analytic_trajectory(ground_state(), c, chain.times)
        ode = integrate_master(ground_state(), c, t_q, t_q / 200.0)
        ana_ode = analytic_trajectory(ground_state(), c, ode.times)
        err_chain = np.max(np.abs(chain.excited_pop - ana_chain.excited_pop))
        err_ode = np.max(np.abs(ode.excited_pop - ana_ode.excited_pop))
        assert err_ode < 1e-8 < err_chain


# ---------------------------------------------------------------------------
# oracles: the engines apply powers of a one-step map; these solve the
# master equation by eigendecomposition, or apply the same fixed-step
# schemes one step at a time


def _eig_oracle(rho0, c, times):
    """``exp(t L) rho0`` at each of ``times``, from ``np.linalg.eig`` of the
    row-major generator built column by column from :func:`lindblad_rhs`."""
    gen = np.column_stack([lindblad_rhs(b.reshape(2, 2), c).ravel() for b in np.eye(4, dtype=complex)])
    w, v = np.linalg.eig(gen)
    coeff = np.linalg.solve(v, np.asarray(rho0, dtype=complex).ravel())
    return ((np.exp(np.outer(times, w)) * coeff) @ v.T).reshape(-1, 2, 2)


def _step_grid(t_end, dt, n_records=None):
    n_steps = int(math.floor(t_end / dt + 1e-9))
    return np.array(_record_indices(n_steps, n_records), dtype=float) * dt


def _ladder_oracle(gen, t_end, dt, n_records=None):
    """Recorded populations, the final populations and the first step at
    which a population drops below -1e-10 (None if never)."""
    pops = np.zeros(len(gen))
    pops[0] = 1.0
    n_steps = int(math.floor(t_end / dt + 1e-9))
    record = set(_record_indices(n_steps, n_records))
    history, negative_at = [], None
    for step in range(n_steps + 1):
        if negative_at is None and pops.min() < -1e-10:
            negative_at = step
        if step in record:
            history.append(pops.copy())
        if step == n_steps:
            break
        k1 = gen @ pops
        k2 = gen @ (pops + 0.5 * dt * k1)
        k3 = gen @ (pops + 0.5 * dt * k2)
        k4 = gen @ (pops + dt * k3)
        pops = pops + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return np.array(history).reshape(-1, len(gen)), pops, negative_at


def _chain_oracle(vec0, n_steps, record, step_mat=None, phi=None, collide=None):
    recorded = np.zeros((len(record), 4), dtype=complex)
    record_set = {idx: pos for pos, idx in enumerate(record)}
    vec = vec0.copy()
    for step in range(n_steps + 1):
        pos = record_set.get(step)
        if pos is not None:
            recorded[pos] = vec
        if step == n_steps:
            break
        if step_mat is not None:
            vec = step_mat @ vec
        elif collide[step]:
            vec = phi @ vec
    return recorded


def _stochastic_oracle(vec0, phi, p_dt, n_steps, record, seed, n_traj):
    total = np.zeros((len(record), 4), dtype=complex)
    for traj in range(n_traj):
        key = np.array([seed % 2**64, traj], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        collide = rng.random(n_steps) < p_dt
        total += _chain_oracle(
            vec0, n_steps, record, phi=phi, collide=collide
        )
    return total / n_traj


# n_records: every step, none, only t = 0, and 4 records over 10 steps,
# which round to the uneven grid 0, 3, 7, 10
RECORD_CASES = (None, 0, 1, 4)


def dense_collision_map(spec, params, mode):
    """Test-only dense engine: the full ``2**(N+1)``-dimensional propagator
    (matrix exponential or second-order truncation with ``W = |g><g| J+J- +
    |e><e| J-J+``), applied to each basis matrix and traced over the bath."""
    from qollide import matrix_exp, partial_trace_bath, validate_bath
    from qollide.master_equation import PROJ_E, PROJ_G, SIGMA_MINUS, SIGMA_PLUS

    rho_b = validate_bath(spec)
    dense = dense_ops(spec.N)
    gt = params.g_tau
    V = np.kron(SIGMA_MINUS, dense.J_plus) + np.kron(SIGMA_PLUS, dense.J_minus)
    if mode == "exact":
        U = matrix_exp(-1j * gt * V)
    else:
        W = np.kron(PROJ_G, dense.J_plus_J_minus) + np.kron(PROJ_E, dense.J_minus_J_plus)
        U = np.eye(len(V)) - 1j * gt * V - 0.5 * gt**2 * W
    phi = np.zeros((4, 4), dtype=complex)
    for col in range(4):
        basis_mat = np.zeros(4, dtype=complex)
        basis_mat[col] = 1.0
        joint = np.kron(basis_mat.reshape(2, 2), rho_b)
        phi[:, col] = partial_trace_bath(U @ joint @ U.conj().T, 2, 2**spec.N).ravel()
    return phi


def _table_collision_map(spec, params, mode):
    """The sector map as a table of ``(source block, matrix)`` entries per
    target pair and output bath block, the two edge states placed by hand as
    ``eye(1)`` and missing entries skipped.  Test-only oracle of
    :func:`collision_superoperator`, bit for bit."""
    import itertools

    from qollide import validate_bath

    N = spec.N
    rho_b = validate_bath(spec)
    ops = cached_ops(N)
    off = ops.basis.offsets
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


class TestSectorCollisionMap:
    """The sector-wise map against the dense propagator it replaced, and
    against the table-based sector map: bit for bit for an explicit bath,
    which takes the sector engine, and to 1e-14 of ``max(1, max|Phi|)`` for
    the named families, whose map is summed over spin ladders."""

    PARAMS = CollisionParams(g=0.25, tau=1.0, p=1.0)

    @pytest.mark.parametrize("g_tau", [0.0, 0.25, 1.3])
    @pytest.mark.parametrize("N", range(1, 9))
    def test_same_bits_as_table(self, N, g_tau):
        if g_tau > 0.3:
            with pytest.warns(UserWarning, match="second-order collision expansion"):
                params = CollisionParams(g=g_tau, tau=1.0, p=1.0)
        else:
            params = CollisionParams(g=g_tau, tau=1.0, p=1.0)
        specs = [BathSpec.dicke(N, k) for k in range(N + 1)]
        specs += [
            BathSpec.thermal_hec(N, 0.7),
            BathSpec.product_mixed(N, 0.3),
            BathSpec.explicit(random_density_matrix(np.random.default_rng(200 + N), 2**N)),
        ]
        for spec in specs:
            for mode in ("exact", "second_order"):
                got = collision_superoperator(spec, params, mode=mode)
                table = _table_collision_map(spec, params, mode)
                if spec.kind == "explicit":
                    assert got.tobytes() == table.tobytes()
                else:
                    bound = 1e-14 * max(1.0, np.abs(table).max())
                    np.testing.assert_allclose(got, table, rtol=0, atol=bound)

    @pytest.mark.parametrize("mode", ["exact", "second_order"])
    @pytest.mark.parametrize("N", range(1, 7))
    def test_random_full_rank_bath(self, N, mode):
        # N = 1 has only sector 0 beside the two unchanged edge states
        rng = np.random.default_rng(100 + N)
        spec = BathSpec.explicit(random_density_matrix(rng, 2**N))
        phi = collision_superoperator(spec, self.PARAMS, mode=mode)
        np.testing.assert_allclose(
            phi, dense_collision_map(spec, self.PARAMS, mode), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("mode", ["exact", "second_order"])
    @pytest.mark.parametrize(
        "spec",
        [BathSpec.dicke(8, 3), BathSpec.thermal_hec(8, 0.7), BathSpec.product_mixed(8, 0.3)],
        ids=["dicke", "thermal-hec", "product"],
    )
    def test_named_families_at_n8(self, spec, mode):
        phi = collision_superoperator(spec, self.PARAMS, mode=mode)
        np.testing.assert_allclose(
            phi, dense_collision_map(spec, self.PARAMS, mode), rtol=0, atol=1e-12
        )


def _named_specs(N):
    """Every dicke ``k`` and three thermal-hec and four product baths of N."""
    return [
        *(BathSpec.dicke(N, k) for k in range(N + 1)),
        *(BathSpec.thermal_hec(N, n_bar) for n_bar in (0.0, 0.3, 2.0)),
        *(BathSpec.product_mixed(N, p_e) for p_e in (0.0, 0.2, 0.7, 1.0)),
    ]


def _params(g_tau):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the g*tau advisory
        return CollisionParams(g=g_tau, tau=1.0, p=1.0)


class TestLadderCollisionMap:
    """A named family's map, summed over spin ladders, against the sector
    engine on its materialized state and against the closed-form rates."""

    @pytest.fixture
    def shared_eigh(self, monkeypatch):
        # the sector engine decomposes the same V_k for every g*tau and
        # mode; one eigh per distinct matrix gives the same bits, faster
        real, seen = np.linalg.eigh, {}

        def eigh(a):
            key = (a.shape, a.tobytes())
            if key not in seen:
                seen[key] = real(a)
            return seen[key]

        monkeypatch.setattr(np.linalg, "eigh", eigh)

    @staticmethod
    def assert_sector_engine_agrees(spec, g_taus, modes):
        explicit = BathSpec.explicit(validate_bath(spec))
        for g_tau in g_taus:
            for mode in modes:
                want = collision_superoperator(explicit, _params(g_tau), mode=mode)
                got = collision_superoperator(spec, _params(g_tau), mode=mode)
                bound = 1e-14 * max(1.0, np.abs(want).max())
                np.testing.assert_allclose(got, want, rtol=0, atol=bound)

    @pytest.mark.parametrize("N", range(1, 9))
    def test_sector_engine(self, shared_eigh, N):
        for spec in _named_specs(N):
            self.assert_sector_engine_agrees(spec, (0.1, 0.3, 1.3), ("exact", "second_order"))

    @pytest.mark.parametrize(
        "spec, g_tau, mode",
        [
            (BathSpec.dicke(10, 4), 1.3, "second_order"),
            (BathSpec.thermal_hec(10, 0.3), 0.3, "exact"),
            (BathSpec.product_mixed(10, 0.2), 0.1, "second_order"),
        ],
        ids=["dicke", "thermal-hec", "product"],
    )
    def test_sector_engine_at_n10(self, spec, g_tau, mode):
        self.assert_sector_engine_agrees(spec, (g_tau,), (mode,))

    @pytest.mark.parametrize("N", range(1, 13))
    def test_second_order_rates(self, N):
        # Phi[gg,ee] = (g tau)^2 r_d and Phi[ee,gg] = (g tau)^2 r_e
        from qollide.baths import FAMILIES

        for spec in _named_specs(N):
            family = FAMILIES[spec.kind]
            r_e, r_d = family.rates(N, getattr(spec, family.field))
            for g_tau in (0.1, 1.3):
                phi = collision_superoperator(spec, _params(g_tau), mode="second_order")
                np.testing.assert_allclose(
                    [phi[3, 0].real, phi[0, 3].real], np.multiply(g_tau**2, [r_d, r_e]),
                    rtol=1e-14, atol=1e-14 * g_tau**2 * N,
                )
                assert np.count_nonzero(phi) <= 6 and not phi.imag.any()

    @pytest.mark.parametrize("N", range(1, 13))
    def test_exact_map_preserves_trace(self, N):
        for spec in _named_specs(N):
            for g_tau in (0.1, 0.3, 1.3):
                phi = collision_superoperator(spec, _params(g_tau), mode="exact")
                # the trace of the output of |e><e| and of |g><g|
                traces = phi[0, [0, 3]] + phi[3, [0, 3]]
                np.testing.assert_allclose(traces, 1.0, rtol=0, atol=1e-15)


class TestNamedBathStructure:
    """A named bath reaches no ``2^N`` state, basis, ladder block or
    eigensolver, and is refused as before."""

    @pytest.fixture
    def no_dense_path(self, monkeypatch):
        from qollide import baths

        def refuse(*args, **kwargs):
            raise AssertionError("dense path reached")

        for module, name in [(dynamics, "validate_bath"), (dynamics, "build_collective_ops"),
                             (baths, "basis_ordering"), (np.linalg, "eigh")]:
            monkeypatch.setattr(module, name, refuse)

    @pytest.mark.parametrize("scheme", ["deterministic", "stochastic"])
    @pytest.mark.parametrize("mode", ["exact", "second_order"])
    @pytest.mark.parametrize(
        "spec",
        [BathSpec.dicke(12, 5), BathSpec.thermal_hec(12, 0.4), BathSpec.product_mixed(12, 0.3)],
        ids=["dicke", "thermal-hec", "product"],
    )
    @pytest.mark.filterwarnings("ignore:second-order collisions moved the trace")
    def test_chain_runs(self, no_dense_path, spec, mode, scheme):
        traj = collision_chain(
            ground_state(), spec, PARAMS, 0.05, 1e-3, mode=mode, scheme=scheme,
            n_trajectories=20, n_records=5,
        )
        assert len(traj) == 5 and np.all(traj.excited_pop[1:] > 0.0)

    @pytest.mark.parametrize(
        "spec, message",
        [
            (BathSpec.product_mixed(13, 1.5), "p_e: must be in [0, 1], got 1.5"),
            (BathSpec.product_mixed(13, 0.5), "basis_ordering: N=13 outside allowed range 1..12"),
            (BathSpec.product_mixed(3, 1.5), "p_e: must be in [0, 1], got 1.5"),
            (BathSpec.dicke(13, 99), "k: must be in 0..13, got 99"),
            (BathSpec.dicke(13, 1), "basis_ordering: N=13 outside allowed range 1..12"),
            (BathSpec.dicke(3, 99), "k: must be in 0..3, got 99"),
            (BathSpec.thermal_hec(13, -1), "basis_ordering: N=13 outside allowed range 1..12"),
            (BathSpec.thermal_hec(3, -1), "n_bar: must be finite and >= 0, got -1"),
        ],
    )
    def test_refusals_keep_their_order(self, no_dense_path, spec, message):
        for mode in ("exact", "second_order"):
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                collision_superoperator(spec, PARAMS, mode=mode)
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                collision_chain(ground_state(), spec, PARAMS, 0.01, 1e-3, mode=mode)
        with pytest.raises(ValidationError, match="^mode: must be 'exact' or 'second_order'"):
            collision_superoperator(spec, PARAMS, mode="bogus")


def _random_pure_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def _perfbench_reference():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "reference.py")
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDistinctSorted:
    """The record grids are non-decreasing, so keeping each entry that
    differs from the one before it gives exactly ``np.unique``."""

    @staticmethod
    def assert_same(got, want):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @given(st.integers(0, 10**7), st.integers(1, 3000))
    @example(0, 1)
    @example(0, 5)
    @example(1, 3000)
    @example(10**7, 2)
    def test_record_grids(self, n_steps, n_records):
        grid = np.round(np.linspace(0, n_steps, n_records)).astype(int)
        self.assert_same(_distinct_sorted(grid), np.unique(grid))
        assert _record_indices(n_steps, n_records) == np.unique(grid).tolist()

    @given(
        st.sampled_from([0, 1, 2, 3, 7, 5001, 100_001]),
        st.one_of(
            st.just(0.0),
            st.floats(min_value=5e-324, max_value=2.2250738585072009e-308),
            st.floats(min_value=2.2250738585072014e-308, max_value=1e308),
        ),
    )
    @example(5001, 5e-324)
    @example(100_001, 1e-320)
    @example(2, 0.0)
    def test_time_grids(self, n, t_end):
        grid = np.linspace(0.0, t_end, n)
        self.assert_same(_distinct_sorted(grid), np.unique(grid))


class TestPropagatorOracles:
    def test_uneven_record_grid(self):
        assert _record_indices(10, 4) == [0, 3, 7, 10]

    @pytest.mark.parametrize("n_records", RECORD_CASES)
    def test_master_equation_matches_closed_form(self, n_records):
        c = coefficients_for(BathSpec.dicke(4, 1), PARAMS)
        traj = integrate_master(ground_state(), c, 0.01, 0.001, n_records)
        times = _step_grid(0.01, 0.001, n_records)
        states = analytic_trajectory(ground_state(), c, times).states
        assert traj.times.tolist() == times.tolist()
        assert traj.states.shape == states.shape
        assert np.max(np.abs(traj.states - states), initial=0.0) <= 1e-13

    @pytest.mark.parametrize("n_records", RECORD_CASES)
    def test_driven_squeezed_master_equation(self, n_records):
        c = MeqCoefficients(0.3 - 0.2j, 0.4 + 0.2j, 0.8, 1.2, 1.0, 2.0)
        rho0 = qubit_state(0.2, 0.1 - 0.05j)
        traj = integrate_master(rho0, c, 0.1, 0.01, n_records)
        times = _step_grid(0.1, 0.01, n_records)
        states = _eig_oracle(rho0, c, times)
        assert traj.times.tolist() == times.tolist()
        assert traj.states.shape == states.shape
        assert np.max(np.abs(traj.states - states), initial=0.0) <= 1e-13

    def test_benchmark_grid_matches_closed_form(self):
        # the ode-dicke workload: dicke N=8 k=3, 6000 steps of 3e-5, 201 records
        c = coefficients_for(BathSpec.dicke(8, 3), PARAMS)
        traj = integrate_master(ground_state(), c, 6000 * 3e-5, 3e-5, 201)
        ana = analytic_trajectory(ground_state(), c, traj.times)
        assert len(traj) == 201
        assert np.max(np.abs(traj.states - ana.states)) <= 1e-13

    def test_master_equation_zero_time(self):
        c = MeqCoefficients(0.3j, 0.1, 0.8, 1.2, 1.0, 1.0)
        rho0 = qubit_state(0.2, 0.1)
        traj = integrate_master(rho0, c, 0.0, 0.01)
        assert traj.times.tolist() == [0.0]
        assert np.array_equal(traj.states[0], rho0)

    def test_master_equation_builds_generator_once(self, monkeypatch):
        import qollide.dynamics as dyn

        calls = []

        def counted(rho, c):
            calls.append(1)
            return lindblad_rhs(rho, c)

        monkeypatch.setattr(dyn, "lindblad_rhs", counted)
        integrate_master(ground_state(), coefficients_for(BathSpec.dicke(4, 1), PARAMS), 0.1, 0.001)
        assert len(calls) == 4

    @pytest.mark.parametrize("n_records", RECORD_CASES)
    def test_ladder_matches_step_loop(self, n_records):
        # an RK4 step loop at a stable dt misses the exact ladder by its
        # O(dt^4) error: within 20 dt^4, and about 16 times less at dt/2
        gen = _ladder_generator_oracle(3, 0.7, 1.0)
        errs = []
        for dt in (0.05, 0.025):
            times, history, final = ladder_history(3, 0.7, 1.0, 0.5, dt, n_records)
            want, want_final, negative_at = _ladder_oracle(gen, 0.5, dt, n_records)
            assert negative_at is None and len(times) == len(want)
            errs.append(max(np.max(np.abs(history - want), initial=0.0),
                            np.max(np.abs(final - want_final))))
            assert errs[-1] <= 20 * dt**4
        assert errs[0] >= 12 * errs[1]

    def test_ladder_zero_time(self):
        times, history, final = ladder_history(2, 1.0, 1.0, 0.0, 0.1, n_records=1)
        assert times.tolist() == [0.0]
        assert history.tolist() == [[1.0, 0.0, 0.0]] == [final.tolist()]

    def test_ladder_final_state_checked_without_records(self, monkeypatch):
        # no state passes a negative tolerance, so the refusal names the
        # first checked step: with no records, the final state
        monkeypatch.setattr(dynamics, "TOL_DRIFT", -1.0)
        with pytest.raises(NumericError, match="normalization drift .* at step 10$"):
            ladder_history(3, 0.7, 1.0, t_end=0.5, dt=0.05, n_records=0)
        with pytest.raises(NumericError, match="normalization drift .* at step 0$"):
            ladder_history(3, 0.7, 1.0, t_end=0.5, dt=0.05, n_records=2)

    @pytest.mark.parametrize("n_records", [None, 0, 3])
    def test_ladder_held_only_to_the_records_it_keeps(self, monkeypatch, n_records):
        # a 20-step grid at any dt: only a record count over the limit is
        # refused
        monkeypatch.setattr(errors, "MAX_RECORDS", 10)
        if n_records is None:
            with pytest.raises(ValidationError, match=r"^n_records: 21 records exceed the limit of 10;"):
                ladder_history(2, 1.0, 1.0, 6.0, 0.3, n_records)
        else:
            times, _, _ = ladder_history(2, 1.0, 1.0, 6.0, 0.3, n_records)
            assert len(times) == n_records

    @pytest.mark.parametrize("n_records", RECORD_CASES)
    def test_ladder_records_are_rows_of_every_step(self, n_records):
        _, every, every_final = ladder_history(2, 1.0, 1.0, 6.0, 0.3)
        times, history, final = ladder_history(2, 1.0, 1.0, 6.0, 0.3, n_records)
        record = _record_indices(20, n_records)
        assert times.tolist() == [0.3 * i for i in record]
        np.testing.assert_allclose(history, every[record], rtol=0, atol=1e-15)
        assert final.tobytes() == every_final.tobytes() == every[-1].tobytes()

    @pytest.mark.parametrize("n_records", RECORD_CASES)
    def test_deterministic_chain_matches_step_loop(self, n_records):
        from qollide import collision_superoperator

        params = CollisionParams(g=0.2, tau=1.0, p=25.0)
        bath = BathSpec.thermal_hec(3, 0.8)
        rho0 = qubit_state(0.3, 0.1j)
        traj = collision_chain(rho0, bath, params, 0.1, 0.004, n_records=n_records)
        record = _record_indices(25, n_records)
        p_dt = params.p * 0.004
        phi = collision_superoperator(bath, params)
        step_mat = (1.0 - p_dt) * np.eye(4) + p_dt * phi
        want = _chain_oracle(rho0.ravel(), 25, record, step_mat=step_mat)
        assert traj.times.tolist() == [0.004 * i for i in record]
        assert np.max(np.abs(traj.states.reshape(-1, 4) - want), initial=0.0) <= 1e-12

    def test_deterministic_chain_zero_time(self):
        rho0 = qubit_state(0.3, 0.1j)
        traj = collision_chain(rho0, BathSpec.dicke(2, 1), PARAMS, 0.0, 0.001)
        assert traj.times.tolist() == [0.0]
        assert np.array_equal(traj.states[0], rho0)

    @pytest.mark.parametrize("chunk", (1, 3, 7, 1 << 16))
    @pytest.mark.parametrize("seed", (7, 2**40 + 3))
    @pytest.mark.parametrize("n_records", (None, 4, 2))
    def test_stochastic_chain_matches_trajectory_loop(self, monkeypatch, seed, n_records, chunk):
        # small chunks put records on and across draw-chunk boundaries
        from qollide import collision_superoperator

        monkeypatch.setattr(dynamics, "_DRAW_CHUNK", chunk)
        params = CollisionParams(g=0.2, tau=1.0, p=25.0)
        bath = BathSpec.dicke(3, 1)
        rho0 = qubit_state(0.1, 0.2)
        traj = collision_chain(
            rho0, bath, params, 0.2, 0.01, scheme="stochastic", seed=seed,
            n_trajectories=30, n_records=n_records,
        )
        record = _record_indices(20, n_records)
        phi = collision_superoperator(bath, params)
        want = _stochastic_oracle(rho0.ravel(), phi, 0.25, 20, record, seed, 30)
        assert np.max(np.abs(traj.states.reshape(-1, 4) - want)) <= 1e-12


def _ladder_generator_oracle(N, n_bar, gamma0):
    """The ladder rate matrix, one excitation count at a time."""
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


def _ladder_rates_oracle(N, n_bar):
    """The ladder rates in units of ``gamma0 (n_bar + 1)``, one excitation
    count at a time: down from ``k``, up from ``k - 1``, for k = 1..N."""
    r = abs(n_bar) / (abs(n_bar) + 1.0)  # n_bar >= 0; -0.0 gives +0.0
    down = [float(k * (N - k + 1)) for k in range(1, N + 1)]
    up = [r * float(k * (N - k + 1)) for k in range(1, N + 1)]
    return r, np.array(down), np.array(up)


class TestLadderGeneratorOracle:
    """The rate arrays the exact ladder reads: the same bits as a loop over
    the excitation counts, and, scaled by ``gamma0 (n_bar + 1)``, the rate
    matrix built one count at a time."""

    @pytest.mark.parametrize("N", range(1, 13))
    @pytest.mark.parametrize("n_bar", [0.0, -0.0, 0.3, 2.0, 1])
    @pytest.mark.parametrize("gamma0", [1.0, 0.37, 3])
    def test_same_bits_as_loop(self, N, n_bar, gamma0):
        r, down, up = dynamics._ladder_rates(N, n_bar)
        want_r, want_down, want_up = _ladder_rates_oracle(N, n_bar)
        assert r == want_r and not math.copysign(1.0, r) < 0
        for got, want in ((down, want_down), (up, want_up)):
            assert got.dtype == want.dtype and got.shape == want.shape
            # tobytes tells -0.0 from 0.0, which == does not
            assert got.tobytes() == want.tobytes()
            assert not np.any(np.signbit(got) & (got == 0.0))
        gen = np.diag(down, 1) + np.diag(up, -1)
        gen -= np.diag(gen.sum(axis=0))  # each column loses what it passes on
        want = _ladder_generator_oracle(N, n_bar, gamma0)
        np.testing.assert_allclose(gamma0 * (n_bar + 1.0) * gen, want, rtol=1e-15, atol=0)


def _gap_power_oracle(step_mat, vec0, steps):
    """The state at each of the sorted ``steps``, reached from the previous
    one by ``matrix_power`` of the gap, with no cache."""
    rows, vec, done = [], np.asarray(vec0), 0
    for target in steps:
        if target > done:
            vec = np.linalg.matrix_power(step_mat, target - done) @ vec
            done = target
        rows.append(vec)
    return np.array(rows).reshape(len(steps), len(vec))


class TestPropagateRows:
    # record grids without and with the final step appended, as the
    # collision chain and the checked engines ask for them
    GRIDS = ([], [0], [0, 3, 7, 10], [2, 5, 8], [0, 3, 7, 10, 10], [2, 5, 8, 12], [0, 12])

    @pytest.mark.parametrize("steps", GRIDS)
    def test_integer_map_equals_step_by_step(self, steps):
        # integer entries keep every product exact, so one step at a time
        # must give the very same bits as the cached gap powers
        step_mat = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
        vec = np.array([1.0, -2.0, 3.0])
        want = []
        for step in range(max(steps, default=0) + 1):
            want += [vec] * steps.count(step)
            vec = step_mat @ vec
        rows = dynamics._propagate(step_mat, np.array([1.0, -2.0, 3.0]), steps)
        assert rows.shape == (len(steps), 3)
        assert rows.tobytes() == np.array(want).reshape(len(steps), 3).tobytes()

    @pytest.mark.parametrize("steps", GRIDS)
    def test_complex_map_equals_gap_powers(self, rng, steps):
        step_mat = np.eye(4) + 0.05 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        vec0 = rng.standard_normal(4) + 0j
        rows = dynamics._propagate(step_mat, vec0, steps)
        assert rows.tobytes() == _gap_power_oracle(step_mat, vec0, steps).tobytes()

    def test_gap_powers_cached(self, monkeypatch):
        calls = []
        real = np.linalg.matrix_power

        def counted(mat, n):
            calls.append(n)
            return real(mat, n)

        monkeypatch.setattr(np.linalg, "matrix_power", counted)
        dynamics._propagate(np.eye(2), np.ones(2), [0, 3, 6, 9, 10, 10])
        assert calls == [3, 1]

    @pytest.mark.parametrize("scheme", ["deterministic", "stochastic"])
    def test_no_records_no_matrix_power(self, monkeypatch, scheme):
        def unreachable(mat, n):
            raise AssertionError("matrix_power called")

        monkeypatch.setattr(np.linalg, "matrix_power", unreachable)
        traj = collision_chain(
            ground_state(), BathSpec.dicke(2, 1), PARAMS, 1.0, 0.001,
            scheme=scheme, n_trajectories=3, n_records=0,
        )
        assert len(traj) == 0

    def test_integrate_master_rows_and_final(self, monkeypatch):
        # the records are the rows of the grid without the final step, each
        # reached from the one before by exp(gap h) in trace coordinates,
        # taken back, and the t = 0 record is rho0 itself
        real, seen = dynamics._propagate, []

        def spied(*args):
            seen.append(args)
            return real(*args)

        monkeypatch.setattr(dynamics, "_propagate", spied)
        c = MeqCoefficients(0.3 - 0.2j, 0.4 + 0.2j, 0.8, 1.2, 1.0, 2.0)
        rho0 = qubit_state(0.2, 0.1 - 0.05j)
        traj = integrate_master(rho0, c, 0.1, 0.01, n_records=4)
        [(h, vec0, steps, power)] = seen
        assert (steps, power) == ([0, 3, 7, 10, 10], dynamics._exp_power)
        assert h[0].tolist() == [0.0, 0.0, 0.0, 0.0]  # the trace row
        assert vec0.tolist() == [1.0, 0.1 - 0.05j, 0.1 + 0.05j, 0.2 - 0.8]
        want = [vec0]
        for gap in (3, 4, 3):
            want.append(dynamics._exp_power(h, gap) @ want[-1])
        want = np.array(want) @ dynamics._FROM_TRACE
        want[0] = rho0.ravel()
        assert traj.states.reshape(-1, 4).tobytes() == want.tobytes()


#: Every entry point that takes a bath size, called with ``N``, and the
#: one refusal a non-integer ``N`` gets there.
N_ENTRY_POINTS = {
    "BathSpec": (lambda N: BathSpec(N=N, kind="dicke", k=1), "N: must be an integer, got {!r}"),
    "validate_bath": (lambda N: validate_bath(BathSpec.dicke(N, 1)),
                      "N: must be an integer, got {!r}"),
    "collision_superoperator": (lambda N: collision_superoperator(BathSpec.dicke(N, 1), PARAMS),
                                "N: must be an integer, got {!r}"),
    "classify_coherences": (classify_coherences, "N: must be an integer, got {!r}"),
    "ladder_history": (lambda N: ladder_history(N, 0.5, 1.0, 1.0, 0.1),
                       "N: must be an integer, got {!r}"),
    "coefficients_for": (lambda N: coefficients_for(BathSpec.thermal_hec(N, 0.5), PARAMS),
                         "N: must be an integer, got {!r}"),
    "block_sizes": (block_sizes, "N: must be an integer, got {!r}"),
    "dicke_max_noninverted_k": (dicke_max_noninverted_k, "N: must be an integer, got {!r}"),
    "dicke_temperature": (lambda N: dicke_temperature(N, 1), "N: must be an integer, got {!r}"),
    "scaling_sweep": (lambda N: scaling_sweep("dicke", [8, N], PARAMS, k_rule="quarter"),
                      "N_list: all N must be integers"),
    "scaling_sweep-array": (
        lambda N: scaling_sweep("dicke", np.array([8, N]), PARAMS, k_rule="quarter"),
        "N_list: all N must be integers",
    ),
    "LadderState": (lambda N: LadderState(N, np.eye(5)[0]), "N: must be an integer, got {!r}"),
}

#: Values of N that are not integers, by test id.  numpy reads ``[8, True]``
#: as the integer array ``[8, 1]``, so ``True`` is not tried on the array
#: entry.
NON_INTEGER_N = {"4.5": 4.5, "4.0": 4.0, "np-3.0": np.float64(3.0), "str": "4", "bool": True}


class TestIntegerN:
    """A bath size that is not an integer is refused with one
    :class:`ValidationError`, not rounded, run as a float or left to a
    ``TypeError``; numpy integers are integers."""

    @pytest.mark.parametrize("N, entry", [
        pytest.param(N, entry, id=f"{name}-{entry}")
        for name, N in NON_INTEGER_N.items() for entry in N_ENTRY_POINTS
        if not (N is True and entry == "scaling_sweep-array")
    ])
    def test_non_integer_refused(self, entry, N):
        call, message = N_ENTRY_POINTS[entry]
        with pytest.raises(ValidationError) as info:
            call(N)
        assert str(info.value) == message.format(N)

    @pytest.mark.parametrize("entry", N_ENTRY_POINTS)
    def test_numpy_integer_accepted(self, entry):
        call, _ = N_ENTRY_POINTS[entry]
        call(np.int64(4))

    @pytest.mark.parametrize(
        "Ns, message",
        [
            (0, "N: must be >= 1, got 0"),
            (-3, "N: must be >= 1, got -3"),
            (2**53 + 1, "N: must be <= 2**53"),
            (np.array([4.0, 8.0]), "N: all N must be integers"),
            (np.array([8, 0, 4]), "N: all N must be >= 1"),
            (np.array([8, 2**53 + 1]), "N: all N must be <= 2**53"),
        ],
        ids=["zero", "negative", "above", "array-float", "array-below", "array-above"],
    )
    def test_max_noninverted_k_range_refused(self, Ns, message):
        with pytest.raises(ValidationError) as info:
            dicke_max_noninverted_k(Ns)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: BathSpec(N=-10**5000, kind="dicke", k=1),
             "N: must be >= 1, got -<int of 16610 bits>"),
            (lambda: classify_coherences(-10**5000),
             "basis_ordering: N=-<int of 16610 bits> outside allowed range 1..12"),
            (lambda: validate_bath(BathSpec.dicke(4, 10**5000)),
             "k: must be in 0..4, got <int of 16610 bits>"),
            (lambda: dicke_temperature(-10**5000, 1), "N: must be >= 1, got -<int of 16610 bits>"),
        ],
        ids=["BathSpec", "classify_coherences", "validate_bath-k", "dicke_temperature"],
    )
    def test_int_too_long_to_print_refused(self, call, message):
        # str() of an int past 4300 digits raises ValueError; the refusal
        # shows its bit length instead
        with pytest.raises(ValidationError) as info:
            call()
        assert str(info.value) == message


#: Every entry point that takes a dicke ``k``, called with ``k`` at N = 4.
K_ENTRY_POINTS = {
    "validate_bath": lambda k: validate_bath(BathSpec.dicke(4, k)),
    "coefficients_for": lambda k: coefficients_for(BathSpec.dicke(4, k), PARAMS),
    "dicke_temperature": lambda k: dicke_temperature(4, k),
    "collision_superoperator": lambda k: collision_superoperator(BathSpec.dicke(4, k), PARAMS),
}


class TestIntegerK:
    """A dicke excitation count that is not an integer is refused with one
    :class:`ValidationError` at every entry point; numpy integers are
    integers."""

    @pytest.mark.parametrize("entry", K_ENTRY_POINTS)
    @pytest.mark.parametrize(
        "k", [1.5, 1.0, np.float64(2.0), math.nan, "1"], ids=["1.5", "1.0", "np-2.0", "nan", "str"]
    )
    def test_non_integer_refused(self, entry, k):
        with pytest.raises(ValidationError) as info:
            K_ENTRY_POINTS[entry](k)
        assert str(info.value) == f"k: must be an integer, got {k!r}"

    @pytest.mark.parametrize("entry", K_ENTRY_POINTS)
    def test_numpy_integer_accepted(self, entry):
        call = K_ENTRY_POINTS[entry]
        np.testing.assert_equal(call(np.int64(1)), call(1))


class TestIntegerCounts:
    """A record count, a trajectory count or a stream seed that is not an
    integer is refused with one :class:`ValidationError`, not truncated or
    left to a ``TypeError``; numpy integers are integers."""

    STOCHASTIC = {"scheme": "stochastic", "n_trajectories": 2, "seed": 0}
    CALLS = {
        "integrate_master": lambda **kw: integrate_master(ground_state(), DICKE_4_1, 0.1, 0.001, **kw),
        "collision_chain": lambda **kw: collision_chain(
            ground_state(), BathSpec.dicke(4, 1), PARAMS, 0.1, 0.001, **kw),
        "ladder_history": lambda **kw: ladder_history(4, 1.0, 1.0, 0.1, 0.001, **kw),
    }

    @pytest.mark.parametrize(
        "entry, kwargs, message",
        [
            ("integrate_master", {"n_records": 2.5}, "n_records: must be an integer, got 2.5"),
            ("collision_chain", {"n_records": 2.5}, "n_records: must be an integer, got 2.5"),
            ("ladder_history", {"n_records": 2.5}, "n_records: must be an integer, got 2.5"),
            ("collision_chain", {**STOCHASTIC, "n_trajectories": 2.5},
             "n_trajectories: must be an integer, got 2.5"),
            ("collision_chain", {**STOCHASTIC, "seed": 1.5}, "seed: must be an integer, got 1.5"),
            ("collision_chain", {**STOCHASTIC, "seed": "a"}, "seed: must be an integer, got 'a'"),
            ("ladder_history", {"n_records": True}, "n_records: must be an integer, got True"),
        ],
        ids=["ode-records", "collisions-records", "ladder-records", "trajectories",
             "float-seed", "str-seed", "bool-records"],
    )
    def test_non_integer_refused(self, entry, kwargs, message):
        with pytest.raises(ValidationError) as info:
            self.CALLS[entry](**kwargs)
        assert str(info.value) == message

    @pytest.mark.parametrize("entry", CALLS)
    def test_numpy_integers_accepted(self, entry):
        kwargs = {**self.STOCHASTIC, "n_records": 3} if entry == "collision_chain" else {"n_records": 3}
        as_numpy = {name: np.int64(v) if isinstance(v, int) else v for name, v in kwargs.items()}
        numpy_result, int_result = (self.CALLS[entry](**kw) for kw in (as_numpy, kwargs))
        if entry != "ladder_history":  # a Trajectory, compared by its fields
            numpy_result, int_result = numpy_result.as_dict(), int_result.as_dict()
        np.testing.assert_equal(numpy_result, int_result)


DICKE_4_1 = coefficients_for(BathSpec.dicke(4, 1), PARAMS)

#: Every engine that takes an initial target state, called with ``rho0``.
ENGINES = {
    "evolve_analytic": lambda rho0: evolve_analytic(rho0, DICKE_4_1, 1.0),
    "analytic_trajectory": lambda rho0: analytic_trajectory(rho0, DICKE_4_1, [0.0, 1.0]),
    "integrate_master": lambda rho0: integrate_master(rho0, DICKE_4_1, 0.1, 0.001),
    "collision_chain": lambda rho0: collision_chain(rho0, BathSpec.dicke(4, 1), PARAMS, 0.1, 0.001),
}


class TestInitialStateShape:
    """Every engine refuses an initial state that is not 2x2 with one
    :class:`ValidationError` naming it, before any other check."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "rho0", [np.eye(3) / 3, np.eye(4) / 4, np.full(4, 0.5), np.ones((1, 1))],
        ids=["3x3", "4x4", "vector-4", "1x1"],
    )
    def test_not_2x2_refused(self, engine, rho0):
        with pytest.raises(ValidationError) as info:
            ENGINES[engine](rho0)
        assert str(info.value) == f"{engine}: expected a 2x2 state, got {rho0.shape}"

    @pytest.mark.parametrize("engine", ENGINES)
    def test_nested_list_is_the_array(self, engine):
        rho0 = [[0.25, 0.1j], [-0.1j, 0.75]]
        got, want = ENGINES[engine](rho0), ENGINES[engine](np.array(rho0))
        assert_same_bits(getattr(got, "states", got), getattr(want, "states", want))


class TestOverflowRefused:
    """A propagated state that overflows is all nan, which every engine's
    check refuses as a numeric error, with no numpy warning on the way."""

    def test_overflowed_row_is_nan(self):
        rows = dynamics._propagate(np.array([[1e200, 0.0], [0.0, 0.5]]), np.ones(2), [0, 1, 2])
        assert rows[:2].tolist() == [[1.0, 1.0], [1e200, 0.5]]
        assert np.isnan(rows[2]).all()

    def test_integrate_master(self):
        # mu = 1e298: a step of 0.01 is a finite step map, which lands on the
        # steady state; a step of 1e10 overflows the generator times dt,
        # and that step map is refused as nan
        c = coefficients_for(BathSpec.dicke(4, 1), CollisionParams(g=0.1, tau=1.0, p=1e300))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = integrate_master(ground_state(), c, 0.5, 0.01, n_records=2)
            np.testing.assert_allclose(traj.states[1], steady_state(c), atol=1e-15)
            with pytest.raises(NumericError, match="^integrate_master: trace drift nan at step 1$"):
                integrate_master(ground_state(), c, 5e10, 1e10)

    @pytest.mark.parametrize("scheme", ["deterministic", "stochastic"])
    def test_second_order_collisions(self, scheme):
        # a drift of the trace is only an advisory in second order; nan is not
        with pytest.warns(UserWarning, match=r"g\*tau = 1e\+11 exceeds 0.3"):
            params = CollisionParams(g=1e11, tau=1.0, p=100.0)
        with pytest.raises(NumericError, match="^collision_chain: trace drift nan at step"):
            collision_chain(
                ground_state(), BathSpec.dicke(5, 2), params, 0.05, 0.001,
                mode="second-order", scheme=scheme, n_trajectories=20, n_records=5,
            )


class TestRelaxationRateOverflow:
    """``mu (r_e + r_d)`` is formed once; where it overflows a float every
    user of the relaxation time refuses it before any state or row."""

    MESSAGE = (
        "^mu\\*\\(r_e \\+ r_d\\): the relaxation rate overflows a float at "
        "mu = 1e\\+300; lower p or g\\*tau$"
    )
    PARAMS = CollisionParams(g=0.1, tau=1.0, p=1e302)  # mu = 1e300
    #: product N = 2**53 at p_e = 1/2: r_e = r_d = 2**52, so mu (r_e + r_d) = inf
    COEFFS = MeqCoefficients(0j, 0j, 2.0**52, 2.0**52, 1.0000000000000002e300, 1e301)

    def test_thermalization_time(self):
        with pytest.raises(ValidationError, match=self.MESSAGE):
            thermalization_time(self.COEFFS)
        # the largest finite rate still gives its inverse
        c = MeqCoefficients(0j, 0j, 1.0, 1.0, 2.0**1022, 1.0)
        assert thermalization_time(c) == 2.0**-1023

    def test_analytic_trajectory(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_exp_each", None)  # no state is computed
        with pytest.raises(ValidationError, match=self.MESSAGE):
            analytic_trajectory(ground_state(), self.COEFFS, np.array([0.0, 1.0]))

    def test_temperature_trajectory(self):
        with pytest.raises(ValidationError, match=self.MESSAGE):
            temperature_trajectory(self.COEFFS, [0.0, 1.0])

    def test_integrate_master(self):
        # refused before the step map, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=self.MESSAGE):
                integrate_master(ground_state(), self.COEFFS, 1.0, 0.5)

    def test_scaling_sweep(self):
        with pytest.raises(ValidationError, match=self.MESSAGE):
            scaling_sweep("product", [4, 2**53], self.PARAMS, p_e=0.5)
        rows = scaling_sweep("product", [4, 2**20], self.PARAMS, p_e=0.5).rows
        mu = self.PARAMS.mu
        assert [row.t_q for row in rows] == [1.0 / (mu * 4.0), 1.0 / (mu * 2.0**20)]


class TestLongTimes:
    """Times past the float range of ``t/t_q`` decay exactly to 0, with no
    numpy warning (the suite turns a ``RuntimeWarning`` into an error)."""

    def test_analytic_states_reach_the_fixed_point(self):
        c = coefficients_for(BathSpec.dicke(2, 1), PARAMS)
        far = 1e4 * thermalization_time(c)  # exp(-1e4) underflows to 0 already
        rho0 = qubit_state(0.3, 0.1 + 0.05j)
        states = analytic_trajectory(rho0, c, [0.0, far, 5e307, 1e308]).states
        assert states[2].tobytes() == states[1].tobytes() == states[3].tobytes()
        assert states[3, 0, 0] == c.r_e / (c.r_e + c.r_d) and states[3, 0, 1] == 0.0

    def test_temperature_trajectory(self):
        c = coefficients_for(BathSpec.dicke(2, 1), PARAMS)
        far = 1e4 * thermalization_time(c)
        out = temperature_trajectory(c, [far, 1e308])
        assert out[1] == out[0] == temperature_trajectory(c, [far])[0]

    def test_scaled_time_overflow_written_as_inf(self):
        c = coefficients_for(BathSpec.dicke(2, 1), CollisionParams(g=0.1, tau=1.0, p=1e20))
        rows = analytic_trajectory(ground_state(), c, [0.0, 1e300]).to_csv().splitlines()
        assert rows[2].split(",")[:2] == ["1.0000000000000001e+300", "inf"]


class TestStochasticDraws:
    def test_chunked_draws_equal_one_draw(self):
        def stream():
            key = np.array([5, 3], dtype=np.uint64)
            return np.random.Generator(np.random.Philox(key=key))

        rng = stream()
        chunks = [rng.random(n) for n in (1, 4095, 4096, 3, 91_808)]
        assert np.array_equal(np.concatenate(chunks), stream().random(100_003))

    def test_memory_bounded_by_records(self):
        import tracemalloc

        params = CollisionParams(g=0.1, tau=1.0, p=100.0)

        def run(t_end):
            return collision_chain(
                ground_state(), BathSpec.dicke(2, 1), params, t_end, 1e-6,
                scheme="stochastic", n_trajectories=1, n_records=3,
            )

        run(1e-3)  # first-call imports and caches are not the run's memory
        tracemalloc.start()
        try:
            traj = run(1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(traj) == 3
        # one draw of all 10^6 steps would hold 8 MB of doubles alone
        assert peak < 4 * 2**20

    def test_no_draws_past_last_record(self):
        # only t = 0 is recorded, so none of the 10^12 steps is drawn
        params = CollisionParams(g=0.1, tau=1.0, p=100.0)
        traj = collision_chain(
            ground_state(), BathSpec.dicke(2, 1), params, 1e6, 1e-6,
            scheme="stochastic", n_trajectories=3, n_records=1,
        )
        assert traj.times.tolist() == [0.0]
        assert np.array_equal(traj.states[0], ground_state())


def _per_trajectory_chain(vec0, phi, p_dt, record, seed, n_traj, chunk):
    """The stochastic engine as one loop over trajectories: a fresh
    ``Philox(key=...)`` per trajectory, drawn ``chunk`` uniforms at a time,
    its collision counts read off a cumulative sum of every draw at each
    record.  Test-only oracle of the blocked engine, bit for bit."""
    last = record[-1] if record else 0
    ends = np.array(record, dtype=np.int64) - 1  # each record's last draw
    powers = vec0[None, :]
    total = np.zeros((len(record), 4), dtype=complex)
    for traj in range(n_traj):
        key = np.array([int(seed) % 2**64, traj], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        m = np.zeros(len(record), dtype=np.int64)
        count = 0
        for start in range(0, last, chunk):
            # hits[j]: collisions in steps start+1 .. start+j+1
            hits = np.cumsum(rng.random(min(chunk, last - start)) < p_dt)
            lo = bisect.bisect_right(record, start)
            hi = bisect.bisect_right(record, start + len(hits))
            m[lo:hi] = count + hits[ends[lo:hi] - start]
            count += hits[-1]
        extra = m[-1] + 1 - len(powers) if m.size else 0
        if extra > 0:
            more = dynamics._propagate(phi, powers[-1], range(1, extra + 1))
            powers = np.concatenate([powers, more])
        total += powers[m]
    return total / n_traj


class TestRunCheckedBeforeMap:
    """``collision_chain`` refuses a run before it builds the collision map."""

    BATH = BathSpec.dicke(3, 1)
    PARAMS = CollisionParams(g=0.2, tau=1.0, p=25.0)

    @pytest.fixture(autouse=True)
    def no_map(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("collision map built")

        monkeypatch.setattr(dynamics, "collision_superoperator", unreachable)

    @pytest.mark.parametrize("scheme", ["deterministic", "stochastic"])
    @pytest.mark.parametrize("n_records", [None, 20])
    def test_record_grid(self, monkeypatch, scheme, n_records):
        monkeypatch.setattr(errors, "MAX_RECORDS", 10)
        with pytest.raises(ValidationError, match="^n_records: 11 records exceed the limit of 10;"):
            collision_chain(
                ground_state(), self.BATH, self.PARAMS, 0.1, 0.01, scheme=scheme,
                n_trajectories=2, n_records=n_records,
            )

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"scheme": "stochastic", "n_trajectories": 0}, "n_trajectories: must be >= 1"),
            ({"scheme": "stochastic", "n_trajectories": -3}, "n_trajectories: must be >= 1"),
            ({"scheme": "bogus"}, "scheme: must be 'deterministic' or 'stochastic'"),
            ({"dt": 0.1}, "p*dt: collision probability per step is 2.5 > 1"),
        ],
        ids=["zero-trajectories", "negative-trajectories", "scheme", "p-dt"],
    )
    def test_run_parameters(self, kwargs, message):
        kwargs = {"dt": 0.01, **kwargs}
        with pytest.raises(ValidationError, match=re.escape(message)):
            collision_chain(ground_state(), self.BATH, self.PARAMS, 0.1, **kwargs)

    #: ``(t_end, dt, n_trajectories, n_records)`` of stochastic runs that
    #: would each take hours: draws, trajectories alone, and a long grid
    #: recorded at three points.
    UNBOUNDED = {
        "draws": (0.05, 0.001, 10**11, None),
        "no-draws": (0.0, 0.001, 10**11, None),
        "long-grid": (1e9, 1e-3, 1, 3),
    }

    @pytest.mark.parametrize("probe", UNBOUNDED)
    def test_stochastic_work_limit(self, probe):
        t_end, dt, n_trajectories, n_records = self.UNBOUNDED[probe]
        last = {"draws": 50, "no-draws": 0, "long-grid": 10**12}[probe]
        message = (
            f"n_trajectories: {n_trajectories} trajectories x ({last} draws + 720 per trajectory) "
            "exceed the limit of 4e+09 draws; reduce the trajectories or t_end/dt"
        )
        start = time.perf_counter()
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            collision_chain(
                ground_state(), self.BATH, self.PARAMS, t_end, dt, scheme="stochastic",
                n_trajectories=n_trajectories, n_records=n_records,
            )
        assert time.perf_counter() - start < 1.0

    def test_stochastic_work_limit_edge(self, monkeypatch):
        # 10 steps recorded to the last: a trajectory counts as 10 + 720 draws
        monkeypatch.setattr(dynamics, "collision_superoperator", collision_superoperator)
        monkeypatch.setattr(errors, "MAX_DRAWS", 2 * 730)
        run = functools.partial(
            collision_chain, ground_state(), self.BATH, self.PARAMS, 0.1, 0.01, n_records=3
        )
        assert len(run(scheme="stochastic", n_trajectories=2)) == 3
        with pytest.raises(ValidationError, match=r"^n_trajectories: 3 trajectories x \(10 draws "):
            run(scheme="stochastic", n_trajectories=3)
        # the deterministic scheme draws nothing, whatever the count
        assert len(run(n_trajectories=10**11)) == 3

    def test_grid_reported_before_bath(self, monkeypatch):
        # with the real map: a bath that fails its check is reported only
        # once the grid passes
        monkeypatch.setattr(dynamics, "collision_superoperator", collision_superoperator)
        bad = BathSpec.explicit(np.eye(2))  # trace 2
        monkeypatch.setattr(errors, "MAX_RECORDS", 10)
        with pytest.raises(ValidationError, match="^n_records: 11 records exceed"):
            collision_chain(ground_state(), bad, self.PARAMS, 0.1, 0.01)
        monkeypatch.setattr(errors, "MAX_RECORDS", 11)
        with pytest.raises(ValidationError, match="^explicit bath: trace check failed"):
            collision_chain(ground_state(), bad, self.PARAMS, 0.1, 0.01)


def _second_order_trace_replay(r_e=18, r_d=20, g_tau="0.1", p_dt="0.1", steps=1000):
    """Final trace of a deterministic second-order chain from the ground
    state, replayed step by step in 50 digits: the populations alone, with
    ``x^2 = (g tau)^2 r`` for the decay (``r_d``) and excitation (``r_e``)
    sectors of a symmetric bath.  Defaults: dicke N=8, k=3."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        gt2, p_dt = mpmath.mpf(g_tau) ** 2, mpmath.mpf(p_dt)
        xe, xd = gt2 * r_e, gt2 * r_d
        ee, gg = mpmath.mpf(0), mpmath.mpf(1)
        for _ in range(steps):
            ee, gg = (
                (1 - p_dt) * ee + p_dt * ((1 - xd / 2) ** 2 * ee + xe * gg),
                (1 - p_dt) * gg + p_dt * (xd * ee + (1 - xe / 2) ** 2 * gg),
            )
        return float(ee + gg)


class TestCollisionTraceCheck:
    """``collision_chain`` checks the traces it records: exact collisions to
    1e-8, as :func:`integrate_master`; second-order collisions, which do
    not preserve the trace, with one advisory once it leaves 1 by 1%."""

    @pytest.mark.parametrize("scheme", ["deterministic", "stochastic"])
    def test_exact_drift_refused(self, scheme):
        rho0 = ground_state() + np.diag([0.0, 2e-8])
        with pytest.raises(NumericError, match="^collision_chain: trace drift 2.000e-08 at step 0$"):
            collision_chain(
                rho0, BathSpec.dicke(2, 1), PARAMS, 0.01, 0.001, scheme=scheme,
                n_trajectories=3,
            )

    @pytest.mark.parametrize("row, step", [(1, 5), (-1, 10)])
    def test_exact_drift_reported_at_its_step(self, monkeypatch, row, step):
        real = dynamics._propagate

        def drifted(step_mat, vec0, steps):
            rows = real(step_mat, vec0, steps)
            rows[row, 3] -= 2e-8
            return rows

        monkeypatch.setattr(dynamics, "_propagate", drifted)
        with pytest.raises(NumericError, match=f"^collision_chain: trace drift 2.000e-08 at step {step}$"):
            collision_chain(ground_state(), BathSpec.dicke(2, 1), PARAMS, 0.01, 0.001, n_records=3)

    @pytest.mark.parametrize("scheme", ["deterministic", "stochastic"])
    def test_bath_trace_within_tolerance_accepted(self, scheme):
        # an accepted bath with trace 1 + 9e-11 multiplies the target's trace
        # by that much per collision: about 1000 collisions move it by 9e-8,
        # which is the input's trace, not a numeric fault
        rho_b = random_density_matrix(np.random.default_rng(7), 4)
        rho_b *= (1.0 + 9e-11) / np.trace(rho_b).real
        traj = collision_chain(
            ground_state(), BathSpec.explicit(rho_b), PARAMS, 10.0, 1e-3,
            scheme=scheme, n_trajectories=2, n_records=3,
        )
        assert 5e-8 < np.trace(traj.states[-1]).real - 1.0 < 1.5e-7

    def test_drift_from_the_bath_trace_refused(self, monkeypatch):
        # the check follows Tr(rho_B), so a fault on top of it still shows
        rho_b = random_density_matrix(np.random.default_rng(7), 4)
        rho_b *= (1.0 + 9e-11) / np.trace(rho_b).real
        real = dynamics._propagate

        def drifted(step_mat, vec0, steps):
            rows = real(step_mat, vec0, steps)
            rows[-1, 3] += 2e-8
            return rows

        monkeypatch.setattr(dynamics, "_propagate", drifted)
        with pytest.raises(NumericError, match="^collision_chain: trace drift 2.000e-08 at step 10000$"):
            collision_chain(
                ground_state(), BathSpec.explicit(rho_b), PARAMS, 10.0, 1e-3, n_records=3
            )

    def test_second_order_growth_advised_once(self):
        # the second-order trace grows by (g tau)^4 <V^4> / 4 per collision
        with pytest.warns(UserWarning) as record:
            traj = collision_chain(
                ground_state(), BathSpec.dicke(8, 3), PARAMS, 1.0, 1e-3, mode="second-order"
            )
        assert [str(w.message) for w in record] == [
            "second-order collisions moved the trace by 1.45, more than 1%; the "
            "truncated collision map is not trace-preserving; accuracy advisory"
        ]
        trace = np.trace(traj.states[-1]).real
        assert trace == 2.453348574741912
        assert abs(trace / _second_order_trace_replay() - 1.0) < 1.1e-13

    def test_second_order_small_growth_silent(self):
        # a short run on a product bath grows the trace by about 2e-4
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = collision_chain(
                ground_state(), BathSpec.product_mixed(8, 0.25), PARAMS, 0.005, 1e-4,
                mode="second_order",
            )
        assert 1e-4 < np.trace(traj.states[-1]).real - 1.0 < 1e-2


class TestBlockedStochasticEngine:
    """The blocked engine (one reset stream, sparse hits, trajectories in
    blocks) against the per-trajectory loop it replaced."""

    PARAMS = CollisionParams(g=0.2, tau=1.0, p=25.0)
    BATH = BathSpec.dicke(3, 1)
    N_STEPS = 60  # t_end 0.6 at dt 0.01

    @staticmethod
    def block(chunk, record):
        # the engine's rule: the draws buffer, and four states per count,
        # within chunk entries
        last = record[-1] if record else 0
        return max(1, chunk // max(1, min(last, chunk), 4 * len(record)))

    @pytest.mark.parametrize("chunk", (1, 3, 7, 1 << 16))
    @pytest.mark.parametrize("n_records", (None, 0, 1, 4, 101))
    @pytest.mark.parametrize("seed", (7, 2**40 + 3, 2**64 + 5))
    def test_equals_per_trajectory_loop(self, monkeypatch, chunk, n_records, seed):
        from qollide import collision_superoperator

        monkeypatch.setattr(dynamics, "_DRAW_CHUNK", chunk)
        rho0 = qubit_state(0.1, 0.2)
        record = _record_indices(self.N_STEPS, n_records)
        phi = collision_superoperator(self.BATH, self.PARAMS)
        b = self.block(chunk, record)
        # one trajectory, a block and one either side, and several blocks
        counts = sorted({n for n in (1, b - 1, b, b + 1, 2 * b + 1) if 1 <= n <= 2500})
        for n_traj in counts:
            traj = collision_chain(
                rho0, self.BATH, self.PARAMS, 0.6, 0.01, scheme="stochastic",
                seed=seed, n_trajectories=n_traj, n_records=n_records,
            )
            want = _per_trajectory_chain(
                rho0.ravel(), phi, self.PARAMS.p * 0.01, record, seed, n_traj, chunk
            )
            got = traj.states.reshape(-1, 4)
            assert np.array_equal(got, want) and got.tobytes() == want.tobytes()

    def test_chunk_crossing_run_of_several_blocks(self, monkeypatch):
        # 150 steps in chunks of 64: each trajectory has its own block and
        # three chunks, records fall on and across chunk ends
        monkeypatch.setattr(dynamics, "_DRAW_CHUNK", 64)
        from qollide import collision_superoperator

        rho0 = qubit_state(0.3, 0.1j)
        traj = collision_chain(
            rho0, self.BATH, self.PARAMS, 1.5, 0.01, scheme="stochastic",
            seed=11, n_trajectories=9, n_records=11,
        )
        record = _record_indices(150, 11)
        phi = collision_superoperator(self.BATH, self.PARAMS)
        want = _per_trajectory_chain(rho0.ravel(), phi, self.PARAMS.p * 0.01, record, 11, 9, 64)
        assert traj.states.reshape(-1, 4).tobytes() == want.tobytes()

    def test_reset_stream_equals_fresh_philox(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            seed = int(rng.integers(0, 2**64, dtype=np.uint64)) + 2**64 * int(rng.integers(0, 3))
            gen, reset = dynamics._trajectory_streams(seed)
            for i in rng.integers(0, 2**64, size=4, dtype=np.uint64).tolist():
                gen.integers(0, 2**31, size=3, dtype=np.uint32)  # leaves half a word buffered
                gen.random(5)
                reset(i)
                key = np.array([seed % 2**64, i], dtype=np.uint64)
                fresh = np.random.Generator(np.random.Philox(key=key))
                assert np.array_equal(gen.random(1000), fresh.random(1000))
                assert repr(gen.bit_generator.state) == repr(fresh.bit_generator.state)


class TestPrepareThermalDicke:
    def test_pure_decay_reaches_ground(self):
        ladder, rho = prepare_thermal_dicke(4, 0.0, 1.0, t_end=20.0, dt=0.002)
        expected = np.zeros(5)
        expected[0] = 1.0
        np.testing.assert_allclose(ladder.populations, expected, atol=1e-10)
        assert rho[0, 0].real == pytest.approx(1.0, abs=1e-10)

    def test_matches_closed_form_state(self):
        ladder, rho = prepare_thermal_dicke(2, 1.0, 1.0, t_end=15.0, dt=0.002)
        np.testing.assert_allclose(rho, validate_bath(BathSpec.thermal_hec(2, 1.0)), atol=1e-6)

    def test_single_qubit_excited_fraction(self):
        n_bar = 0.5
        ladder, _ = prepare_thermal_dicke(1, n_bar, 1.0, t_end=30.0, dt=0.001)
        assert ladder.populations[1] == pytest.approx(
            n_bar / (2 * n_bar + 1), abs=1e-8
        )

    def test_gibbs_ratios(self):
        n_bar = 1.5
        ladder, _ = prepare_thermal_dicke(5, n_bar, 1.0, t_end=25.0, dt=0.002)
        pops = ladder.populations
        for k in range(5):
            assert pops[k + 1] / pops[k] == pytest.approx(
                n_bar / (n_bar + 1.0), abs=1e-6
            )

    def test_large_step_is_exact(self):
        # dt sets only the grid: one step of 10 gives the state at t = 10
        coarse, _ = prepare_thermal_dicke(6, 1.0, 1.0, t_end=10.0, dt=1.0)
        fine, _ = prepare_thermal_dicke(6, 1.0, 1.0, t_end=10.0, dt=0.001)
        np.testing.assert_allclose(coarse.populations, fine.populations, rtol=0, atol=1e-14)

    def test_history_short_run(self):
        times, history, _ = ladder_history(3, 1.0, 1.0, t_end=0.0, dt=0.1)
        assert times.tolist() == [0.0]
        np.testing.assert_allclose(history[0], [1.0, 0.0, 0.0, 0.0], atol=0)

    def test_ladder_state_validation(self):
        with pytest.raises(ValidationError):
            LadderState(2, np.array([0.5, 0.2, 0.1]))  # not normalized
        with pytest.raises(ValidationError):
            LadderState(2, np.array([1.2, -0.2, 0.0]))

    @pytest.mark.parametrize(
        "pops, message",
        [
            ([math.nan, 0.5, 0.5], "LadderState: populations must be finite"),
            ([math.inf, -math.inf, 1.0], "LadderState: populations must be finite"),
            ([0.5, math.nan, 0.5], "LadderState: populations must be finite"),
            ([0.5, 0.5], "LadderState: expected 3 populations, got shape (2,)"),
        ],
        ids=["nan-first", "inf", "nan-middle", "shape"],
    )
    def test_ladder_state_refusals(self, pops, message):
        with pytest.raises(ValidationError) as info:
            LadderState(2, pops)
        assert str(info.value) == message


class TestLadderLimit:
    """``ladder_history`` and ``block_sizes`` take N up to ``MAX_LADDER_N``
    and refuse a larger one, naming themselves, before anything is built."""

    def test_limit_value(self):
        assert errors.MAX_LADDER_N == 1024

    def test_ladder_history_at_the_limit(self):
        times, history, final = ladder_history(1024, 0.5, 1.0, 0.1, 0.1)
        assert times.tolist() == [0.0, 0.1] and history.shape == (2, 1025)
        assert final.tobytes() == history[-1].tobytes()

    def test_block_sizes_at_the_limit(self):
        sizes = block_sizes(1024)
        assert len(sizes) == 1025 and sum(sizes) == 2**1024

    @pytest.mark.parametrize("entry", ["ladder_history", "block_sizes"])
    @pytest.mark.parametrize("N", [1025, 2000, 10**5000], ids=["1025", "2000", "huge"])
    def test_above_the_limit(self, entry, N, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigh", None)  # nothing is decomposed
        monkeypatch.setattr(collective, "comb", None)
        call = {"ladder_history": lambda: ladder_history(N, 0.5, 1.0, 1.0, 0.1),
                "block_sizes": lambda: block_sizes(N)}[entry]
        shown = "<int of 16610 bits>" if N == 10**5000 else N
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError) as info:
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == f"{entry}: N={shown} outside allowed range 1..1024"
        assert peak < 64 * 1024  # nothing of the ladder's size is built


class TestScalingSweep:
    def test_rows_contents(self):
        res = scaling_sweep(
            "dicke", [4, 8], PARAMS, k_rule="half-minus-one"
        )
        r0 = res.rows[0]
        assert (r0.N, r0.k, r0.r_e, r0.r_d) == (4, 1, 4.0, 6.0)
        assert r0.t_q == pytest.approx(0.1, rel=1e-12)
        assert r0.T_q == pytest.approx(2.4663034623764313, abs=1e-12)

    def test_rate_too_small_to_invert_gives_infinite_t_q(self):
        # mu = 1e-320: 1 / rate overflows, as in thermalization_time, with no
        # numpy overflow warning (an error under this suite's filter)
        params = CollisionParams(g=1e-160, tau=1.0, p=1.0)
        res = scaling_sweep("product", [4, 8], params, p_e=0.5)
        assert res.t_q.tolist() == [math.inf, math.inf]
        c = coefficients_for(BathSpec.product_mixed(4, 0.5), params)
        assert thermalization_time(c) == math.inf

    def test_product_time_slope_is_exactly_minus_one(self):
        res = scaling_sweep("product", range(2, 33, 2), PARAMS, p_e=0.2)
        assert res.slope_t_q == pytest.approx(-1.0, abs=0.01)

    def test_dicke_half_rule_slopes_near_quadratic(self):
        res = scaling_sweep(
            "dicke", range(4, 65, 4), PARAMS, k_rule="half-minus-one"
        )
        assert res.slope_t_q == pytest.approx(-2.0, abs=0.1)
        assert res.slope_T_q == pytest.approx(2.0, abs=0.1)

    def test_dicke_quarter_rule_linear_regime(self):
        res = scaling_sweep("dicke", [64], PARAMS, k_rule="quarter")
        row = res.rows[0]
        assert row.k == 16
        # temperature approaches the 1 + 3N/8 line
        assert row.T_q == pytest.approx(1.0 + 3 * 64 / 8.0, rel=0.001)
        # exact closed form for the time at k = N/4
        assert row.t_q == pytest.approx(
            1.0 / (PARAMS.mu * (64 + 3 * 64**2 / 8.0)), rel=1e-12
        )

    def test_half_rule_temperature_reference_points(self):
        # high-temperature estimate r_d/(r_d - r_e) - 1/2 gives 2.5, 9.5,
        # 20.5 at N = 4, 8, 12 and tracks the exact value within 2%
        res = scaling_sweep(
            "dicke", [4, 8, 12], PARAMS, k_rule="half-minus-one"
        )
        for row, estimate in zip(res.rows, (2.5, 9.5, 20.5)):
            assert row.r_d / (row.r_d - row.r_e) - 0.5 == pytest.approx(estimate)
            assert row.T_q == pytest.approx(estimate, rel=0.02)

    def test_thermal_family_temperature_constant(self):
        res = scaling_sweep("thermal-hec", range(2, 11), PARAMS, n_bar=1.0)
        temps = [row.T_q for row in res.rows]
        assert np.ptp(temps) < 1e-12
        assert abs(res.slope_T_q) < 1e-9

    def test_half_rule_odd_n(self):
        res = scaling_sweep("dicke", [5], PARAMS, k_rule="half-minus-one")
        assert res.rows[0].k == 2  # largest non-inverted block

    def test_half_rule_is_the_largest_noninverted_block(self):
        # N < 1 is refused (TestIntegerN.test_max_noninverted_k_range_refused)
        Ns = list(range(1, 40)) + [2**53 - 1, 2**53]
        want = [(N - 1) // 2 for N in Ns]
        assert [dynamics._sweep_k("half-minus-one", N) for N in Ns] == want
        assert [dicke_max_noninverted_k(N) for N in Ns] == want
        got = dynamics._sweep_k("half-minus-one", np.array(Ns, dtype=np.int64))
        assert got.dtype == np.int64 and got.tolist() == want

    def test_missing_family_parameter(self):
        with pytest.raises(ValidationError, match="p_e"):
            scaling_sweep("product", [2, 4], PARAMS)
        # each refusal's text, and the check order: count, empty list, N
        # range, family, the family's parameter present, then its value
        cases = [
            ("product", [2, 4], {}, "p_e: required for the product family"),
            ("thermal-hec", [2, 4], {}, "n_bar: required for the thermal-hec family"),
            ("dicke", [2, 4], {}, "k_rule: required for the dicke family"),
            ("thermal-hec", [2], {"p_e": 0.2, "k_rule": "quarter"},
             "n_bar: required for the thermal-hec family"),
            ("dicke", [2, 4], {"k_rule": "third"},
             "k_rule: must be 'quarter' or 'half-minus-one', got 'third'"),
            ("bogus", [2, 4], {"p_e": 0.2, "n_bar": 1.0, "k_rule": "quarter"},
             "family: must be 'product', 'thermal-hec' or 'dicke', got 'bogus'"),
            ("product", [2], {"p_e": 2.0}, "p_e: must be in [0, 1], got 2.0"),
            ("thermal-hec", [2], {"n_bar": -1.0}, "n_bar: must be finite and >= 0, got -1.0"),
            ("bogus", [0], {}, "N_list: all N must be >= 1"),
            ("bogus", [2**53 + 1], {}, "N_list: all N must be <= 2**53"),
            ("dicke", [0], {"k_rule": "third"}, "N_list: all N must be >= 1"),
            ("bogus", [], {}, "N_list: must not be empty"),
            ("bogus", range(MAX_RECORDS + 1), {},
             f"N: {MAX_RECORDS + 1} points exceed the limit of {MAX_RECORDS}; sweep fewer N"),
        ]
        for family, N_list, kwargs, message in cases:
            with pytest.raises(ValidationError) as info:
                scaling_sweep(family, N_list, PARAMS, **kwargs)
            assert str(info.value) == message

    def test_csv_shape(self):
        res = scaling_sweep("product", [2, 4], PARAMS, p_e=0.2)
        lines = res.to_csv().splitlines()
        assert lines[0] == "N,k,r_e,r_d,t_q,T_q"
        assert lines[1].startswith("2,,")  # empty k column

    def test_fit_recovers_exact_power_law(self):
        xs = np.array([2.0, 4.0, 8.0, 16.0])
        assert fit_loglog_slope(xs, 3.0 * xs**-2) == pytest.approx(-2.0, abs=1e-12)


class TestPointwiseAdvantage:
    def test_dicke_dominates_matched_incoherent_bath(self):
        # same steady temperature, but the symmetric bath heats faster at
        # every instant
        c_d = coefficients_for(BathSpec.dicke(8, 3), PARAMS)
        p_e = c_d.r_e / (c_d.r_e + c_d.r_d)
        c_m = coefficients_for(BathSpec.product_mixed(8, p_e), PARAMS)
        assert steady_temperature(c_d) == pytest.approx(
            steady_temperature(c_m), rel=1e-12
        )
        ts = np.linspace(0.0, 1.0, 401)
        T_d = temperature_trajectory(c_d, ts)
        T_m = temperature_trajectory(c_m, ts)
        assert np.all(T_d >= T_m)
        assert np.all(T_d[1:] > T_m[1:])


class TestTrajectory:
    def test_csv_header_and_shape(self):
        c = coefficients_for(BathSpec.dicke(4, 1), PARAMS)
        traj = analytic_trajectory(ground_state(), c, np.linspace(0, 1, 5))
        lines = traj.to_csv().splitlines()
        assert lines[0] == TRAJECTORY_CSV_HEADER
        assert len(lines) == 6
        assert len(lines[1].split(",")) == 8

    def test_scaled_time_column(self):
        c = coefficients_for(BathSpec.dicke(4, 1), PARAMS)
        traj = analytic_trajectory(ground_state(), c, [0.0, 0.5])
        row = traj.to_csv().splitlines()[2].split(",")
        assert float(row[1]) == pytest.approx(PARAMS.mu * 0.5, rel=1e-15)

    def test_coherence_flag(self):
        c = coefficients_for(BathSpec.dicke(4, 1), PARAMS)
        flagged = analytic_trajectory(qubit_state(0.5, 0.2), c, [0.0, 0.1])
        clean = analytic_trajectory(ground_state(), c, [0.0, 0.1])
        assert flagged.has_coherence and not clean.has_coherence

    def test_non_increasing_times_rejected(self):
        with pytest.raises(ValidationError):
            Trajectory.from_states(
                [0.0, 0.0], [ground_state(), ground_state()], 1.0
            )

    def test_states_not_matching_times_rejected(self):
        with pytest.raises(ValidationError) as info:
            Trajectory.from_states([0.0, 1.0], [ground_state()], 1.0)
        assert str(info.value) == "Trajectory: states shape (1, 2, 2) does not match 2 records"


# ---------------------------------------------------------------------------
# per-record post-processing oracles: the trajectory code before it became
# array operations, kept to prove the stacked version bit-identical


def _per_record_oracle(times, states, mu):
    """``(temperature, entropy, csv)`` computed one record at a time."""
    times = np.asarray(times, dtype=float)
    states = np.asarray(states, dtype=complex).reshape(len(times), 2, 2)
    temps, ents, lines = [], [], [TRAJECTORY_CSV_HEADER]
    for t, state in zip(times, states):
        temp = temperature_from_populations(state[0, 0].real, state[1, 1].real)
        w = np.clip(np.linalg.eigvalsh(state).real, 0.0, 1.0)
        w = w[w > 0.0]
        ent = float(-np.sum(w * np.log(w)))
        eg = state[0, 1]
        row = (t, mu * t, state[0, 0].real, state[1, 1].real, eg.real, eg.imag, temp, ent)
        lines.append(",".join(fmt_float(x) for x in row))
        temps.append(temp)
        ents.append(ent)
    return np.array(temps), np.array(ents), "\n".join(lines) + "\n"


def _analytic_oracle(rho0, c, t):
    """One closed-form state, as :func:`evolve_analytic` computed it alone."""
    rho0 = np.asarray(rho0, dtype=complex)
    total = c.r_e + c.r_d
    if c.mu * total <= 0.0:
        return rho0.copy()
    t_q = 1.0 / (c.mu * total)
    c0 = c.r_d * rho0[0, 0].real - c.r_e * rho0[1, 1].real
    ee = (c.r_e + c0 * math.exp(-t / t_q)) / total
    eg = rho0[0, 1] * math.exp(-t / (2.0 * t_q))
    return np.array([[ee, eg], [np.conj(eg), 1.0 - ee]], dtype=complex)


def assert_same_bits(actual, expected):
    """Equal values, NaNs in the same places and the same zero signs."""
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    for part in (np.real, np.imag):
        a, e = part(actual), part(expected)
        assert np.array_equal(a, e, equal_nan=True)
        assert np.array_equal(np.signbit(a), np.signbit(e))


NAMED_STATES = {
    "diagonal": np.diag([0.3, 0.7]).astype(complex),
    "coherent": np.array([[0.4, 0.1 - 0.2j], [0.1 + 0.2j, 0.6]]),
    "pure": np.diag([0.0, 1.0]).astype(complex),
    "coherent-pure": np.full((2, 2), 0.5, dtype=complex),
    "p_e = p_g": np.eye(2, dtype=complex) / 2.0,
    "p_e = 0": np.diag([0.0, 1.0]).astype(complex),
    "p_g = 0": np.diag([1.0, 0.0]).astype(complex),
    "negative-zero coherence": np.array(
        [[0.25, complex(-0.0, -0.0)], [complex(-0.0, 0.0), 0.75]]
    ),
    "tiny excited population": np.diag([1e-300, 1.0]).astype(complex),
}


def _random_states(rng, n):
    """Random full-rank, pure and named states in random order."""
    named = list(NAMED_STATES.values())
    out = []
    for i in range(n):
        kind = rng.integers(3)
        if kind == 0:
            out.append(random_density_matrix(rng, 2))
        elif kind == 1:
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            out.append(np.outer(v, v.conj()))
        else:
            out.append(named[rng.integers(len(named))])
    return np.array(out, dtype=complex).reshape(n, 2, 2)


class TestPostProcessingOracles:
    def check(self, times, states, mu):
        traj = Trajectory.from_states(times, states, mu)
        temps, ents, csv = _per_record_oracle(times, states, mu)
        assert_same_bits(traj.temperature, temps)
        assert_same_bits(traj.entropy, ents)
        assert traj.to_csv() == csv
        return traj

    @pytest.mark.parametrize("name", sorted(NAMED_STATES))
    def test_named_state(self, name):
        state = NAMED_STATES[name]
        traj = self.check([0.0, 0.5, 1.25], [state] * 3, 2.5)
        if name == "p_e = p_g":
            assert np.all(traj.temperature == math.inf)
        if name == "p_g = 0":
            assert np.all(np.signbit(traj.temperature))  # the -0.0 sentinel
            assert traj.to_csv().splitlines()[1].split(",")[6] == "0"

    @pytest.mark.parametrize("n", [0, 1, 2, 511, 512, 513, 1100])
    def test_record_counts_across_csv_chunks(self, rng, n):
        times = np.cumsum(rng.random(n) + 1e-3) - 0.5
        self.check(times, _random_states(rng, n), float(rng.random() * 10))

    def test_random_trajectories(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 60))
            times = np.cumsum(rng.random(n) + 1e-3)
            mu = 0.0 if rng.random() < 0.2 else float(rng.exponential(3.0))
            self.check(times, _random_states(rng, n), mu)

    def test_negative_zero_columns_written_as_zero(self):
        traj = self.check([-0.0], [NAMED_STATES["negative-zero coherence"]], 1.0)
        fields = traj.to_csv().splitlines()[1].split(",")
        assert fields[:2] == ["0", "0"] and fields[4:6] == ["0", "0"]

    def test_one_eigvalsh_call_per_trajectory(self, monkeypatch, rng):
        calls = []
        real_eigvalsh = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return real_eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        Trajectory.from_states(np.arange(50.0), _random_states(rng, 50), 1.0)
        assert calls == [(50, 2, 2)]

    @pytest.mark.parametrize(
        "r_e, r_d, mu",
        [(4.0, 6.0, 1.0), (0.0, 6.0, 1.0), (4.0, 0.0, 2.0), (0.0, 0.0, 1.0), (4.0, 6.0, 0.0)],
    )
    @pytest.mark.parametrize(
        "rho0",
        [ground_state(), excited_state(), NAMED_STATES["coherent"], NAMED_STATES["negative-zero coherence"]],
        ids=["ground", "excited", "coherent", "negative-zero"],
    )
    def test_analytic_trajectory(self, r_e, r_d, mu, rho0):
        c = MeqCoefficients(0.0j, 0.0j, r_e, r_d, mu, 1.0)
        times = np.linspace(0.0, 3.0, 700)
        traj = analytic_trajectory(rho0, c, times)
        expected = np.array([_analytic_oracle(rho0, c, t) for t in times])
        assert_same_bits(traj.states, expected)
        temps, ents, csv = _per_record_oracle(times, expected, mu)
        assert_same_bits(traj.temperature, temps)
        assert_same_bits(traj.entropy, ents)
        assert traj.to_csv() == csv
        for t in (0, 0.0, 0.37, -0.2, 50.0):
            assert_same_bits(evolve_analytic(rho0, c, t), _analytic_oracle(rho0, c, t))

    def test_analytic_zero_and_one_record(self):
        c = coefficients_for(BathSpec.dicke(4, 1), PARAMS)
        for times in ([], [0.25]):
            traj = analytic_trajectory(qubit_state(0.5, 0.2j), c, times)
            expected = [_analytic_oracle(qubit_state(0.5, 0.2j), c, t) for t in times]
            assert_same_bits(traj.states, np.array(expected, dtype=complex).reshape(-1, 2, 2))
            assert traj.to_csv() == _per_record_oracle(times, expected, c.mu)[2]

    def test_temperature_trajectory_matches_pointwise_loop(self):
        c = coefficients_for(BathSpec.dicke(8, 3), PARAMS)
        t_q = thermalization_time(c)
        grid = np.linspace(0.0, 5.0 * t_q, 60).reshape(3, 4, 5)
        expected = np.empty(grid.shape)
        for idx, t in np.ndenumerate(grid):
            ee = c.r_e * (1.0 - math.exp(-t / t_q)) / (c.r_e + c.r_d)
            expected[idx] = temperature_from_populations(ee, 1.0 - ee)
        assert_same_bits(temperature_trajectory(c, grid), expected)


# ---------------------------------------------------------------------------
# per-row sweep oracle: the scaling sweep before it became column arrays,
# kept to prove the array version bit-identical


def _sweep_row_oracle(family, N, params, p_e, n_bar, k_rule):
    """One :class:`SweepRow` from the one-N closed forms, as the per-row
    sweep built it."""
    k = None
    if family == "product":
        if not 0.0 <= p_e <= 1.0:
            raise ValidationError(f"p_e: must be in [0, 1], got {p_e}")
        r_e, r_d = N * p_e, N * (1.0 - p_e)
    elif family == "thermal-hec":
        c = coefficients_for(BathSpec.thermal_hec(N, n_bar), params)
        r_e, r_d = c.r_e, c.r_d
    else:
        k = N // 4 if k_rule == "quarter" else (N - 1) // 2
        r_e, r_d = float(k * (N - k + 1)), float((k + 1) * (N - k))
    c = MeqCoefficients(0.0j, 0.0j, r_e, r_d, params.mu, params.pg_tau)
    return SweepRow(N, k, c.r_e, c.r_d, thermalization_time(c), steady_temperature(c))


def _sweep_oracle(family, N_list, params, p_e=None, n_bar=None, k_rule=None):
    """``(rows, csv, slopes JSON)`` computed one row at a time.  A fit needs
    two distinct N; with fewer, both slopes are null."""
    rows = [_sweep_row_oracle(family, N, params, p_e, n_bar, k_rule) for N in N_list]
    lines = [SWEEP_CSV_HEADER]
    for row in rows:
        k_field = "" if row.k is None else str(row.k)
        floats = (row.r_e, row.r_d, row.t_q, row.T_q)
        lines.append(",".join((str(row.N), k_field, *map(fmt_float, floats))))
    slopes = {}
    for name in ("t_q", "T_q"):
        xs = np.array([row.N for row in rows], dtype=float)
        ys = np.array([getattr(row, name) for row in rows])
        ok = len(set(xs.tolist())) >= 2 and np.all(ys > 0.0) and np.all(np.isfinite(ys))
        slope = float(np.polyfit(np.log(xs), np.log(ys), 1)[0]) if ok else None
        slopes[f"slope_{name}"] = slope
    meta = {
        "family": family,
        "k_rule": k_rule,
        "n_min": rows[0].N,
        "n_max": rows[-1].N,
        "points": len(rows),
        **slopes,
    }
    return rows, "\n".join(lines) + "\n", json.dumps(meta)


SWEEP_N_LISTS = {
    "sorted": list(range(1, 301)),
    "unsorted": [9, 3, 1, 2, 77],
    "repeated": [7, 3, 3, 1, 7],
    "singleton 1": [1],
    "singleton 64": [64],
    "same N twice": [4, 4],
}

SWEEP_FAMILIES = [
    ("product", {"p_e": 0.0}),
    ("product", {"p_e": -0.0}),
    ("product", {"p_e": 0.237}),
    ("product", {"p_e": 1.0}),
    ("thermal-hec", {"n_bar": 0.0}),
    ("thermal-hec", {"n_bar": 0.731}),
    ("thermal-hec", {"n_bar": 1e6}),
    ("thermal-hec", {"n_bar": 1e9}),
    ("thermal-hec", {"n_bar": 1e15}),
    ("dicke", {"k_rule": "quarter"}),
    ("dicke", {"k_rule": "half-minus-one"}),
]


class TestSweepOracle:
    def check(self, family, N_list, params=PARAMS, **kwargs):
        result = scaling_sweep(family, N_list, params, **kwargs)
        rows, csv, slopes = _sweep_oracle(family, N_list, params, **kwargs)
        assert result.to_csv() == csv
        assert json.dumps(result.slopes_dict()) == slopes
        assert [(r.N, r.k) for r in result.rows] == [(r.N, r.k) for r in rows]
        assert all(type(r.N) is int for r in result.rows)
        for name in ("r_e", "r_d", "t_q", "T_q"):
            got = np.array([getattr(r, name) for r in result.rows])
            assert_same_bits(got, np.array([getattr(r, name) for r in rows]))
            assert_same_bits(getattr(result, name), got)
        return result

    @pytest.mark.parametrize("lists", sorted(SWEEP_N_LISTS))
    @pytest.mark.parametrize(
        "family, kwargs",
        SWEEP_FAMILIES,
        ids=[f"{f}-{v}" for f, d in SWEEP_FAMILIES for v in d.values()],
    )
    def test_grid(self, family, kwargs, lists):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RankWarning or numpy warning
            self.check(family, SWEEP_N_LISTS[lists], **kwargs)

    @pytest.mark.parametrize(
        "family, N_list, kwargs",
        [
            ("dicke", range(4, 4097, 4), {"k_rule": "half-minus-one"}),
            ("dicke", range(1, 2049), {"k_rule": "quarter"}),
            ("product", range(2, 2049, 2), {"p_e": 0.3141}),
            ("thermal-hec", range(1, 513), {"n_bar": 0.731}),
            ("thermal-hec", range(1, 513), {"n_bar": 3.3}),
            ("thermal-hec", [600, 3, 40, 1], {"n_bar": 1e6}),
            ("thermal-hec", range(1, 65), {"n_bar": 1e9}),
        ],
    )
    def test_benchmark_sized_sweeps(self, family, N_list, kwargs):
        self.check(family, list(N_list), **kwargs)

    def test_other_collision_parameters(self):
        params = CollisionParams(g=0.037, tau=0.61, p=3.3)
        self.check("dicke", [5, 17, 2, 2], params, k_rule="quarter")
        self.check("thermal-hec", [5, 17, 2, 2], params, n_bar=2.5)

    def test_one_n_thermal_hec_coefficients_are_the_array_rates(self):
        # coefficients_for on one int N has the bits of the same N in an array
        Ns = np.array([1, 2, 7, 64, 300, 2**40, 2**53])
        for n_bar in (0.0, 0.5, 12.0, 1e9, 1e300):
            r_e, r_d = thermal_hec_rates(Ns, n_bar)
            for i, N in enumerate(Ns.tolist()):
                c = coefficients_for(BathSpec.thermal_hec(N, n_bar), PARAMS)
                assert_same_bits(np.array([c.r_e, c.r_d]), np.array([r_e[i], r_d[i]]))

    def test_thermal_rates_are_o1_per_n(self):
        # a million N, the sweep's limit, in array arithmetic (about 0.2 s).
        # At n_bar = 1, D = (N+1) coth((N+1) ln2 / 2) - 3, which is N - 2
        # once 2^-N is below rounding
        Ns = np.arange(1, 10**6 + 1)
        start = time.process_time()
        r_e, r_d = thermal_hec_rates(Ns, 1.0)
        assert time.process_time() - start < 2.0
        np.testing.assert_allclose(r_e[63:], Ns[63:] - 2.0, rtol=4e-15, atol=0.0)
        assert_same_bits(r_d, 2.0 * r_e)

    @pytest.mark.parametrize(
        "family, kwargs, fragment",
        [
            ("product", {"p_e": 1.5}, "p_e: must be in [0, 1], got 1.5"),
            ("product", {"p_e": math.nan}, "p_e: must be in [0, 1], got nan"),
            ("thermal-hec", {"n_bar": -1.0}, "n_bar: must be finite and >= 0, got -1.0"),
        ],
    )
    def test_rejections_match_per_row_sweep(self, family, kwargs, fragment):
        with pytest.raises(ValidationError) as expected:
            _sweep_oracle(family, [4, 2], PARAMS, **kwargs)
        with pytest.raises(ValidationError) as got:
            scaling_sweep(family, [4, 2], PARAMS, **kwargs)
        assert str(got.value) == str(expected.value) == fragment

    @pytest.mark.parametrize(
        "form",
        [lambda Ns: np.array(Ns, dtype=np.int64), lambda Ns: range(4, 4097, 4)],
        ids=["int64", "range"],
    )
    def test_n_list_forms(self, form):
        Ns = list(range(4, 4097, 4))
        want = self.check("dicke", Ns, k_rule="half-minus-one")
        got = scaling_sweep("dicke", form(Ns), PARAMS, k_rule="half-minus-one")
        assert got.to_csv() == want.to_csv()
        assert got.slopes_dict() == want.slopes_dict()
        assert all(type(r.N) is int for r in got.rows)

    @pytest.mark.parametrize(
        "N_list", [[], range(5, 5), np.array([], dtype=np.int64)], ids=["list", "range", "array"]
    )
    def test_empty_n_list_rejected(self, N_list):
        with pytest.raises(ValidationError, match="^N_list: must not be empty$"):
            scaling_sweep("product", N_list, PARAMS, p_e=0.5)

    @pytest.mark.parametrize("big", [2**63, 2**64 + 1, 10**30])
    def test_n_above_int64_rejected_before_conversion(self, big):
        with pytest.raises(ValidationError, match=r"^N_list: all N must be <= 2\*\*53$"):
            scaling_sweep("thermal-hec", [4, big, 8], PARAMS, n_bar=0.5)

    def test_n_above_exact_float_range_rejected(self):
        with pytest.raises(ValidationError, match=r"N_list: all N must be <= 2\*\*53"):
            scaling_sweep("product", [4, 2**53 + 1], PARAMS, p_e=0.5)
        row = scaling_sweep("dicke", [2**53], PARAMS, k_rule="quarter").rows[0]
        assert row == _sweep_row_oracle("dicke", 2**53, PARAMS, None, None, "quarter")


class TestFitRefusesNonFiniteX:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_refused_before_the_fit(self, bad, capfd):
        # np.polyfit on a nan x prints LAPACK's DLASCL complaint to stderr
        with pytest.raises(ValidationError) as info:
            fit_loglog_slope([bad, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert str(info.value) == "fit_loglog_slope: values must be finite and positive"
        assert capfd.readouterr().err == ""


class TestFitNeedsTwoDistinctN:
    @pytest.mark.parametrize("xs", [[4.0], [4.0, 4.0], [1.0, 1.0, 1.0]])
    def test_rejected(self, xs):
        with pytest.raises(ValidationError, match="two distinct x values"):
            fit_loglog_slope(xs, np.arange(1.0, len(xs) + 1.0))


class TestTimeGridLimits:
    def test_step_count_overflow_rejected(self):
        limit = r"t_end/dt: inf steps exceed the limit of 2\*\*53"
        with pytest.raises(ValidationError, match=limit):
            _step_count(1e300, 1e-300)
        with pytest.raises(ValidationError, match="exceed the limit"):
            _step_count(2.0**53, 1.0)
        assert _step_count(2.0**53 - 1.0, 1.0) == 2**53 - 1

    def test_every_engine_checks_the_step_limit(self):
        c = coefficients_for(BathSpec.dicke(4, 1), PARAMS)
        with pytest.raises(ValidationError, match="t_end/dt"):
            integrate_master(ground_state(), c, 1e300, 1e-300, n_records=3)
        with pytest.raises(ValidationError, match="t_end/dt"):
            collision_chain(ground_state(), BathSpec.dicke(2, 1), PARAMS, 1e300, 1e-300)
        with pytest.raises(ValidationError, match="t_end/dt"):
            ladder_history(3, 1.0, 1.0, 1e300, 1e-300)

    def test_record_limit(self, monkeypatch):
        assert MAX_RECORDS == 10**6
        with pytest.raises(ValidationError, match=f"{MAX_RECORDS + 1} records exceed"):
            _record_indices(MAX_RECORDS, None)
        with pytest.raises(ValidationError, match="records exceed"):
            _record_indices(10**12, 10**7)
        monkeypatch.setattr(errors, "MAX_RECORDS", 10)
        assert _record_indices(9, None) == list(range(10))
        assert len(_record_indices(100, 10)) == 10
        with pytest.raises(ValidationError, match="11 records exceed the limit of 10;"):
            _record_indices(10, None)
        with pytest.raises(ValidationError, match="11 records exceed the limit of 10;"):
            _record_indices(100, 11)
        # a huge step count is fine when few records are asked for
        assert _record_indices(10**12, 3) == [0, 500000000000, 1000000000000]

    def test_more_records_than_steps_records_every_step(self):
        def linspace_rule(n_steps, n_records):
            idx = np.round(np.linspace(0, n_steps, n_records)).astype(int)
            return np.unique(idx).tolist()

        for n_steps in range(0, 60):
            for n_records in range(2, n_steps + 30):
                assert _record_indices(n_steps, n_records) == linspace_rule(n_steps, n_records)
        assert _record_indices(5, 10**9) == [0, 1, 2, 3, 4, 5]

    def test_every_step_recorded_over_the_limit_rejected(self):
        c = coefficients_for(BathSpec.dicke(4, 1), PARAMS)
        with pytest.raises(ValidationError, match="records exceed"):
            integrate_master(ground_state(), c, 1e3, 1e-4)


class TestPrepareRecordsNoSteps:
    """``prepare_thermal_dicke`` asks the ladder for its final state alone,
    at any ``dt``."""

    @pytest.mark.parametrize("N, dt", [(1, 0.001), (6, 1.0)])
    def test_records_no_steps(self, monkeypatch, N, dt):
        seen = []
        real = dynamics._record_indices

        def spy(n_steps, n_records):
            seen.append(n_records)
            return real(n_steps, n_records)

        monkeypatch.setattr(dynamics, "_record_indices", spy)
        ladder, _ = prepare_thermal_dicke(N, 0.5, 1.0, t_end=10.0, dt=dt)
        assert seen == [0]
        *_, final = ladder_history(N, 0.5, 1.0, t_end=10.0, dt=dt, n_records=0)
        assert np.array_equal(ladder.populations, np.clip(final, 0.0, None))

    @pytest.mark.parametrize(
        "N, n_bar, t_end, dt", [(1, 0.5, 30.0, 0.001), (4, 1.3, 10.0, 0.002), (8, 0.5, 5.0, 0.01)]
    )
    def test_agrees_with_every_step_history(self, N, n_bar, t_end, dt):
        # the final state's own product agrees with every step's to rounding
        ladder, _ = prepare_thermal_dicke(N, n_bar, 1.0, t_end=t_end, dt=dt)
        _, history, _ = ladder_history(N, n_bar, 1.0, t_end=t_end, dt=dt)
        assert np.all(history >= -1e-10)
        np.testing.assert_allclose(ladder.populations, history[-1], rtol=0, atol=1e-12)
