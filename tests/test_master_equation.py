import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qollide import (
    CollisionParams,
    MeqCoefficients,
    ValidationError,
    coefficients_dicke,
    coefficients_for,
    coefficients_from_state,
    coefficients_product_mixed,
    coefficients_thermal_hec,
    dicke_block_state,
    j_z_diagonal,
    lindblad_rhs,
    product_mixed_state,
    steady_state,
    thermal_hec_state,
)
from qollide.baths import BathSpec

from conftest import cached_ops, dense_ops, expectation, random_density_matrix

PARAMS = CollisionParams(g=0.1, tau=1.0, p=100.0)


class TestCollisionParams:
    def test_prefactors(self):
        p = CollisionParams(g=0.2, tau=0.5, p=40.0)
        assert p.g_tau == pytest.approx(0.1)
        assert p.mu == pytest.approx(40.0 * 0.01)
        assert p.pg_tau == pytest.approx(4.0)

    def test_positive_required(self):
        with pytest.raises(ValidationError, match="tau"):
            CollisionParams(g=0.1, tau=-1.0, p=1.0)
        with pytest.raises(ValidationError, match="p"):
            CollisionParams(g=0.1, tau=1.0, p=0.0)

    @pytest.mark.parametrize("field", ["g", "tau", "p", "omega0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, field, value):
        kwargs = {"g": 0.1, "tau": 1.0, "p": 1.0, "omega0": 1.0, field: value}
        with pytest.raises(ValidationError, match=f"{field}: must be finite"):
            CollisionParams(**kwargs)

    def test_zero_coupling_allowed(self):
        assert CollisionParams(g=0.0, tau=1.0, p=1.0).mu == 0.0

    def test_perturbative_advisory(self):
        with pytest.warns(UserWarning, match="g\\*tau"):
            CollisionParams(g=0.5, tau=1.0, p=1.0)


class TestMeqCoefficients:
    def test_negative_rate_rejected(self):
        with pytest.raises(ValidationError, match="r_e"):
            MeqCoefficients(0j, 0j, -0.5, 1.0, 1.0, 1.0)

    def test_rounding_negative_clamped(self):
        c = MeqCoefficients(0j, 0j, -1e-15, 1.0, 1.0, 1.0)
        assert c.r_e == 0.0

    def test_json_fields(self):
        c = MeqCoefficients(0.5 + 0.25j, 0.125j, 1.0, 2.0, 0.25, 0.5)
        assert c.to_json_dict() == {
            "lambda_re": 0.5,
            "lambda_im": 0.25,
            "epsilon_re": 0.0,
            "epsilon_im": 0.125,
            "r_e": 1.0,
            "r_d": 2.0,
            "mu": 0.25,
            "pg_tau": 0.5,
        }


class TestClosedFormsAgainstBruteForce:
    """Closed-form coefficient paths versus the block-structured trace on
    materialized states."""

    @pytest.mark.parametrize("N", range(1, 7))
    @pytest.mark.parametrize("p_e", [0.0, 0.2, 0.5, 1.0])
    def test_product(self, N, p_e):
        closed = coefficients_product_mixed(N, p_e, PARAMS)
        brute = coefficients_from_state(
            product_mixed_state(N, p_e), cached_ops(N), PARAMS
        )
        assert closed.r_e == pytest.approx(brute.r_e, abs=1e-12)
        assert closed.r_d == pytest.approx(brute.r_d, abs=1e-12)
        assert closed.r_e + closed.r_d == pytest.approx(N, abs=1e-12)

    @pytest.mark.parametrize("N", range(1, 7))
    @pytest.mark.parametrize("n_bar", [0.0, 0.5, 1.0, 2.0])
    def test_thermal_hec(self, N, n_bar):
        closed = coefficients_thermal_hec(N, n_bar, PARAMS)
        brute = coefficients_from_state(
            thermal_hec_state(N, n_bar), cached_ops(N), PARAMS
        )
        assert closed.r_e == pytest.approx(brute.r_e, abs=1e-12)
        assert closed.r_d == pytest.approx(brute.r_d, abs=1e-12)

    @pytest.mark.parametrize("N", range(1, 7))
    def test_dicke_all_k(self, N):
        for k in range(N + 1):
            closed = coefficients_dicke(N, k, PARAMS)
            brute = coefficients_from_state(
                dicke_block_state(N, k), cached_ops(N), PARAMS
            )
            assert closed.r_e == pytest.approx(brute.r_e, abs=1e-12)
            assert closed.r_d == pytest.approx(brute.r_d, abs=1e-12)

    def test_dicke_reference_values(self):
        c = coefficients_dicke(8, 3, PARAMS)
        assert (c.r_e, c.r_d) == (18.0, 20.0)
        c = coefficients_dicke(8, 2, PARAMS)
        assert (c.r_e, c.r_d) == (14.0, 18.0)
        c = coefficients_dicke(8, 0, PARAMS)
        assert (c.r_e, c.r_d) == (0.0, 8.0)
        c = coefficients_dicke(8, 8, PARAMS)
        assert (c.r_e, c.r_d) == (8.0, 0.0)

    def test_single_qubit_thermal(self):
        n_bar = 1.7
        c = coefficients_thermal_hec(1, n_bar, PARAMS)
        assert c.r_e == pytest.approx(n_bar / (2 * n_bar + 1), abs=1e-14)
        assert c.r_d == pytest.approx((n_bar + 1) / (2 * n_bar + 1), abs=1e-14)

    def test_thermal_ground_limit(self):
        c = coefficients_thermal_hec(5, 0.0, PARAMS)
        assert c.r_e == 0.0
        assert c.r_d == pytest.approx(5.0, abs=1e-14)

    @pytest.mark.parametrize("n_bar", [math.inf, -math.inf, math.nan, -0.5])
    def test_thermal_rejects_non_finite_or_negative_n_bar(self, n_bar):
        with pytest.raises(ValidationError, match="n_bar: must be finite and >= 0"):
            coefficients_thermal_hec(4, n_bar, PARAMS)

    @pytest.mark.parametrize("n_bar", [0.0, 0.3, 7.0, 1e4, 1e8, 1e12, 1e15])
    @pytest.mark.parametrize("N", [1, 4, 64, 512])
    def test_thermal_sums_unchanged(self, N, n_bar):
        # the rate sums as written before the shared normalization helper
        r = n_bar / (n_bar + 1.0)
        norm = (1.0 / (n_bar + 1.0)) / (1.0 - r ** (N + 1))
        r_e = r_d = 0.0
        for k in range(1, N + 1):
            r_e += norm * r**k * (k * (N - k + 1))
            r_d += norm * r ** (k - 1) * (k * (N - k + 1))
        c = coefficients_thermal_hec(N, n_bar, PARAMS)
        assert (c.r_e, c.r_d) == (r_e, r_d)

    @pytest.mark.parametrize("N", [1, 4, 64])
    def test_thermal_normalization_rounding_to_zero_rejected(self, N):
        with pytest.raises(ValidationError, match=f"too large for N={N}"):
            coefficients_thermal_hec(N, 1e16, PARAMS)

    @given(n_bar=st.floats(0.0, 50.0), N=st.integers(1, 10))
    @settings(max_examples=60, deadline=None)
    def test_thermal_ratio_is_gibbs_factor(self, n_bar, N):
        c = coefficients_thermal_hec(N, n_bar, PARAMS)
        r = n_bar / (n_bar + 1.0)
        assert c.r_e == pytest.approx(r * c.r_d, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("N", range(1, 7))
    def test_appendix_sum_identity(self, N):
        # r_e = sum_k d_k (N-k+1)^2 C(N,k-1), written with uniform block
        # weights d_k; independent re-derivation of the closed-form sum
        n_bar = 1.3
        r = n_bar / (n_bar + 1.0)
        d = [
            (1 - r) * r**k / ((1 - r ** (N + 1)) * math.comb(N, k))
            for k in range(N + 1)
        ]
        expected = sum(
            d[k] * (N - k + 1) ** 2 * math.comb(N, k - 1) for k in range(1, N + 1)
        )
        c = coefficients_thermal_hec(N, n_bar, PARAMS)
        assert c.r_e == pytest.approx(expected, abs=1e-12)

    def test_cyclic_trace_equality_random_state(self, rng):
        # Tr(J- rho J+) as computed block-wise equals Tr(J+J- rho) densely,
        # including for states with coherences everywhere
        N = 4
        dense = dense_ops(N)
        rho = random_density_matrix(rng, 2**N)
        c = coefficients_from_state(rho, cached_ops(N), PARAMS)
        assert c.r_e == pytest.approx(
            expectation(dense.J_plus_J_minus, rho).real, abs=1e-12
        )
        assert c.r_d == pytest.approx(
            expectation(dense.J_minus_J_plus, rho).real, abs=1e-12
        )
        assert c.lam == pytest.approx(expectation(dense.J_minus, rho), abs=1e-12)
        assert c.eps == pytest.approx(expectation(dense.J_minus_sq, rho), abs=1e-12)

    @pytest.mark.parametrize("N", range(1, 7))
    def test_block_diagonal_states_have_no_drive(self, N):
        for rho in (
            product_mixed_state(N, 0.3),
            thermal_hec_state(N, 0.9),
            dicke_block_state(N, N // 2),
        ):
            c = coefficients_from_state(rho, cached_ops(N), PARAMS)
            assert abs(c.lam) <= 1e-14
            assert abs(c.eps) <= 1e-14

    def test_rate_difference_matches_polarization(self, rng):
        N = 5
        ops = cached_ops(N)
        rho = random_density_matrix(rng, 2**N)
        c = coefficients_from_state(rho, ops, PARAMS)
        jz = float(np.sum(j_z_diagonal(ops.basis) * np.diag(rho).real))
        assert c.r_d - c.r_e == pytest.approx(-2.0 * jz, abs=1e-10)

    @pytest.mark.parametrize("N", range(1, 9))
    @pytest.mark.parametrize("n_bar", [0.1, 0.5, 1.0, 2.0])
    def test_effective_emission_rate_consistency(self, N, n_bar):
        # mu r_e / n = mu r_d / (n+1): one emission rate describes both
        c = coefficients_thermal_hec(N, n_bar, PARAMS)
        assert c.mu * c.r_e / n_bar == pytest.approx(
            c.mu * c.r_d / (n_bar + 1.0), rel=1e-12
        )

    def test_moment_extraction_at_top_of_size_range(self):
        # moment-only workload at N = 12 must not require the dense
        # 2^N x 2^N operators (the ladder blocks suffice)
        from qollide import build_collective_ops, thermal_hec_state

        ops = build_collective_ops(12)
        c = coefficients_from_state(thermal_hec_state(12, 1.0), ops, PARAMS)
        ref = coefficients_thermal_hec(12, 1.0, PARAMS)
        assert c.r_e == pytest.approx(ref.r_e, abs=1e-10)
        assert c.r_d == pytest.approx(ref.r_d, abs=1e-10)
        # only the ladder blocks are stored: no dense operator is ever built
        assert set(vars(ops)) == {"N", "basis", "ladder"}
        assert max(L.size for L in ops.ladder) < 4**12

    def test_dispatcher_matches_family_functions(self):
        spec = BathSpec.dicke(6, 2)
        c = coefficients_for(spec, PARAMS)
        assert (c.r_e, c.r_d) == (10.0, 12.0)
        spec = BathSpec.explicit(thermal_hec_state(3, 1.0))
        c = coefficients_for(spec, PARAMS)
        ref = coefficients_thermal_hec(3, 1.0, PARAMS)
        assert c.r_e == pytest.approx(ref.r_e, abs=1e-12)

    @pytest.mark.parametrize("call", ["coefficients_for", "collision_superoperator"])
    def test_qubit_cap_before_explicit_validation(self, monkeypatch, call):
        from qollide import baths, collective, dynamics

        def unreachable(rho, name="density matrix"):
            raise AssertionError("validated before the qubit cap")

        monkeypatch.setattr(collective, "MAX_QUBITS", 2)
        monkeypatch.setattr(baths, "validate_density_matrix", unreachable)
        run = {"coefficients_for": coefficients_for, "collision_superoperator": dynamics.collision_superoperator}
        with pytest.raises(ValidationError) as info:
            run[call](BathSpec.explicit(np.eye(8) / 8.0), PARAMS)
        assert str(info.value) == "explicit bath: N=3 outside allowed range 1..2"


class TestLindbladRhs:
    @pytest.mark.parametrize("N", range(1, 9))
    def test_steady_state_is_fixed_point(self, N):
        sets = [coefficients_product_mixed(N, 0.3, PARAMS)]
        sets += [coefficients_thermal_hec(N, nb, PARAMS) for nb in (0.5, 1.0, 2.0)]
        sets += [coefficients_dicke(N, k, PARAMS) for k in range(N + 1)]
        for c in sets:
            if c.r_e + c.r_d <= 0.0:
                continue
            out = lindblad_rhs(steady_state(c), c)
            assert np.max(np.abs(out)) <= 1e-12

    def test_excited_state_decay_rate(self):
        # d rho_ee / dt at rho = |e><e| is mu r_e - mu (r_e + r_d)
        c = coefficients_dicke(4, 1, PARAMS)
        out = lindblad_rhs(np.diag([1.0, 0.0]).astype(complex), c)
        expected = c.mu * c.r_e - c.mu * (c.r_e + c.r_d)
        assert out[0, 0].real == pytest.approx(expected, rel=1e-12)

    def test_traceless_for_random_inputs(self, rng):
        for _ in range(100):
            c = MeqCoefficients(
                complex(rng.normal(), rng.normal()),
                complex(rng.normal(), rng.normal()),
                rng.uniform(0, 5),
                rng.uniform(0, 5),
                rng.uniform(0.1, 2),
                rng.uniform(0.1, 2),
            )
            rho = random_density_matrix(rng, 2)
            assert abs(np.trace(lindblad_rhs(rho, c))) < 1e-13

    def test_preserves_hermiticity(self, rng):
        c = MeqCoefficients(0.3 + 0.1j, 0.2 - 0.4j, 1.5, 2.5, 0.7, 1.1)
        for _ in range(20):
            rho = random_density_matrix(rng, 2)
            out = lindblad_rhs(rho, c)
            np.testing.assert_allclose(out, out.conj().T, atol=1e-14)

    def test_coherence_decay_rate(self):
        # off-diagonal element decays at half the population rate
        c = coefficients_dicke(6, 2, PARAMS)
        rho = np.array([[0.5, 0.2], [0.2, 0.5]], dtype=complex)
        out = lindblad_rhs(rho, c)
        assert out[0, 1].real == pytest.approx(
            -0.5 * c.mu * (c.r_e + c.r_d) * 0.2, rel=1e-12
        )

    def test_wrong_shape(self):
        c = coefficients_dicke(2, 1, PARAMS)
        with pytest.raises(ValidationError):
            lindblad_rhs(np.eye(3) / 3.0, c)
