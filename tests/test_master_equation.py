import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qollide import (
    CollisionParams,
    MeqCoefficients,
    ValidationError,
    coefficients_for,
    coefficients_from_state,
    dicke_temperature,
    j_z_diagonal,
    lindblad_rhs,
    scaling_sweep,
    steady_state,
    validate_bath,
)
from qollide.baths import BathSpec, _gibbs_exponent, thermal_hec_rates, thermal_hec_weights

from conftest import (
    THERMAL_EXACT_CASES,
    cached_ops,
    dense_ops,
    expectation,
    random_density_matrix,
    thermal_hec_exact,
)

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
        with pytest.warns(UserWarning, match="g\\*tau") as record:
            CollisionParams(g=0.5, tau=1.0, p=1.0)
        assert record[0].filename == __file__  # the caller, not Record.__init__

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"g": 1e200, "tau": 1.0, "p": 100.0},  # float ** raises OverflowError
            {"g": 1e150, "tau": 1.0, "p": 1e10},  # mu is inf, pg_tau finite
            {"g": 1e200, "tau": 1e200, "p": 1.0},  # g*tau is inf
            {"g": 1e10, "tau": 1e-20, "p": 1e300},  # p*g is inf, mu finite
        ],
    )
    def test_overflowing_rates_rejected_before_the_advisory(self, kwargs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="collision rates .* must be finite"):
                CollisionParams(**kwargs)

    def test_largest_finite_rates_keep_their_bits(self):
        with pytest.warns(UserWarning, match="g\\*tau"):
            p = CollisionParams(g=1e150, tau=1.0, p=1e7)
        assert p.mu == 1e7 * (1e150 * 1.0) ** 2 < math.inf
        assert p.pg_tau == 1e7 * 1e150 * 1.0


class TestMeqCoefficients:
    def test_negative_rate_rejected(self):
        with pytest.raises(ValidationError, match="r_e"):
            MeqCoefficients(0j, 0j, -0.5, 1.0, 1.0, 1.0)

    def test_negative_mu_rejected(self):
        with pytest.raises(ValidationError) as info:
            MeqCoefficients(0j, 0j, 1.0, 1.0, -0.5, 1.0)
        assert str(info.value) == "mu: must be >= 0, got -0.5"

    @pytest.mark.parametrize("dim", [2, 8])
    def test_state_of_another_size_rejected(self, dim):
        with pytest.raises(ValidationError) as info:
            coefficients_from_state(np.eye(dim) / dim, cached_ops(2), PARAMS)
        assert str(info.value) == (
            f"coefficients_from_state: state shape ({dim}, {dim}) does not match N=2"
        )

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
        closed = coefficients_for(BathSpec.product_mixed(N, p_e), PARAMS)
        brute = coefficients_from_state(
            validate_bath(BathSpec.product_mixed(N, p_e)), cached_ops(N), PARAMS
        )
        assert closed.r_e == pytest.approx(brute.r_e, abs=1e-12)
        assert closed.r_d == pytest.approx(brute.r_d, abs=1e-12)
        assert closed.r_e + closed.r_d == pytest.approx(N, abs=1e-12)

    @pytest.mark.parametrize("N", range(1, 7))
    @pytest.mark.parametrize("n_bar", [0.0, 0.5, 1.0, 2.0])
    def test_thermal_hec(self, N, n_bar):
        closed = coefficients_for(BathSpec.thermal_hec(N, n_bar), PARAMS)
        brute = coefficients_from_state(
            validate_bath(BathSpec.thermal_hec(N, n_bar)), cached_ops(N), PARAMS
        )
        assert closed.r_e == pytest.approx(brute.r_e, abs=1e-12)
        assert closed.r_d == pytest.approx(brute.r_d, abs=1e-12)

    @pytest.mark.parametrize("N", range(1, 9))
    @pytest.mark.parametrize("n_bar", [1e6, 1e9, 1e12, 1e16, 1e300])
    def test_thermal_hec_large_n_bar(self, N, n_bar):
        # the state's weights and the closed form share one Gibbs exponent,
        # so the two paths agree even where 1 - r^(N+1) rounds to 0
        closed = coefficients_for(BathSpec.thermal_hec(N, n_bar), PARAMS)
        brute = coefficients_from_state(
            validate_bath(BathSpec.thermal_hec(N, n_bar)), cached_ops(N), PARAMS
        )
        assert brute.r_e == pytest.approx(closed.r_e, rel=1e-12, abs=0.0)
        assert brute.r_d == pytest.approx(closed.r_d, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("N", range(1, 7))
    def test_dicke_all_k(self, N):
        for k in range(N + 1):
            closed = coefficients_for(BathSpec.dicke(N, k), PARAMS)
            brute = coefficients_from_state(
                validate_bath(BathSpec.dicke(N, k)), cached_ops(N), PARAMS
            )
            assert closed.r_e == pytest.approx(brute.r_e, abs=1e-12)
            assert closed.r_d == pytest.approx(brute.r_d, abs=1e-12)

    def test_dicke_reference_values(self):
        c = coefficients_for(BathSpec.dicke(8, 3), PARAMS)
        assert (c.r_e, c.r_d) == (18.0, 20.0)
        c = coefficients_for(BathSpec.dicke(8, 2), PARAMS)
        assert (c.r_e, c.r_d) == (14.0, 18.0)
        c = coefficients_for(BathSpec.dicke(8, 0), PARAMS)
        assert (c.r_e, c.r_d) == (0.0, 8.0)
        c = coefficients_for(BathSpec.dicke(8, 8), PARAMS)
        assert (c.r_e, c.r_d) == (8.0, 0.0)

    def test_single_qubit_thermal(self):
        n_bar = 1.7
        c = coefficients_for(BathSpec.thermal_hec(1, n_bar), PARAMS)
        assert c.r_e == pytest.approx(n_bar / (2 * n_bar + 1), abs=1e-14)
        assert c.r_d == pytest.approx((n_bar + 1) / (2 * n_bar + 1), abs=1e-14)

    def test_thermal_ground_limit(self):
        c = coefficients_for(BathSpec.thermal_hec(5, 0.0), PARAMS)
        assert c.r_e == 0.0
        assert c.r_d == pytest.approx(5.0, abs=1e-14)

    @pytest.mark.parametrize("n_bar", [math.inf, -math.inf, math.nan, -0.5])
    def test_thermal_rejects_non_finite_or_negative_n_bar(self, n_bar):
        with pytest.raises(ValidationError, match="n_bar: must be finite and >= 0"):
            coefficients_for(BathSpec.thermal_hec(4, n_bar), PARAMS)

    @pytest.mark.parametrize("N, n_bar", THERMAL_EXACT_CASES)
    def test_thermal_rates_match_exact_sums(self, N, n_bar):
        # the rate sums in exact rational arithmetic at the float n_bar, to
        # a few ulp (a term-by-term float sum is off by 3.3e-14 at
        # n_bar = 1e3 and by 8e-4 at 1e14)
        r_e, r_d, _ = thermal_hec_exact(N, n_bar)
        c = coefficients_for(BathSpec.thermal_hec(N, n_bar), PARAMS)
        for got, exact in ((c.r_e, r_e), (c.r_d, r_d)):
            assert abs(got - exact) <= 4e-15 * exact  # so exactly 0 where exact is

    @pytest.mark.parametrize("n_bar", [0.0, -0.0, 5e-324, 1e-310])
    @pytest.mark.parametrize("N", [1, 4, 2**53 - 1])
    def test_thermal_ground_limit_of_the_exponent(self, N, n_bar):
        # 1/n_bar is infinite or overflows: x = inf, the ground-state
        # weights (1, 0, ...), D = N, and no RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _gibbs_exponent(n_bar) == math.inf
            r_e, r_d = thermal_hec_rates(N, n_bar)
            if N <= 4:
                assert list(thermal_hec_weights(N, n_bar)) == [1.0] + [0.0] * N
        assert (r_e, r_d) == (n_bar * N + 0.0, float(N))
        assert math.copysign(1.0, r_e) == 1.0

    @given(n_bar=st.floats(0.0, 1e300), N=st.integers(1, 2**53))
    @example(n_bar=-0.0, N=1)
    @example(n_bar=1e300, N=2**53)
    @example(n_bar=2.2250738585072014e-308, N=2**53)
    @settings(max_examples=300, deadline=None)
    def test_thermal_rates_bounded_in_the_gibbs_ratio(self, n_bar, N):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r_e, r_d = thermal_hec_rates(N, n_bar)
        assert math.isfinite(r_e) and math.isfinite(r_d)
        assert 0.0 <= r_e <= r_d <= (n_bar + 1.0) * N
        assert r_e / r_d == pytest.approx(n_bar / (n_bar + 1.0), rel=1e-14, abs=0.0)

    @given(n_bar=st.floats(0.0, 50.0), N=st.integers(1, 10))
    @settings(max_examples=60, deadline=None)
    def test_thermal_ratio_is_gibbs_factor(self, n_bar, N):
        c = coefficients_for(BathSpec.thermal_hec(N, n_bar), PARAMS)
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
        c = coefficients_for(BathSpec.thermal_hec(N, n_bar), PARAMS)
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
            validate_bath(BathSpec.product_mixed(N, 0.3)),
            validate_bath(BathSpec.thermal_hec(N, 0.9)),
            validate_bath(BathSpec.dicke(N, N // 2)),
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
        c = coefficients_for(BathSpec.thermal_hec(N, n_bar), PARAMS)
        assert c.mu * c.r_e / n_bar == pytest.approx(
            c.mu * c.r_d / (n_bar + 1.0), rel=1e-12
        )

    def test_moment_extraction_at_top_of_size_range(self):
        # moment-only workload at N = 12 must not require the dense
        # 2^N x 2^N operators (the ladder blocks suffice)
        from qollide import build_collective_ops

        ops = build_collective_ops(12)
        c = coefficients_from_state(validate_bath(BathSpec.thermal_hec(12, 1.0)), ops, PARAMS)
        ref = coefficients_for(BathSpec.thermal_hec(12, 1.0), PARAMS)
        assert c.r_e == pytest.approx(ref.r_e, abs=1e-10)
        assert c.r_d == pytest.approx(ref.r_d, abs=1e-10)
        # only the ladder blocks are stored: no dense operator is ever built
        assert set(vars(ops)) == {"N", "basis", "ladder"}
        assert max(L.size for L in ops.ladder) < 4**12

    def test_dispatcher_matches_family_functions(self):
        spec = BathSpec.dicke(6, 2)
        c = coefficients_for(spec, PARAMS)
        assert (c.r_e, c.r_d) == (10.0, 12.0)
        spec = BathSpec.explicit(validate_bath(BathSpec.thermal_hec(3, 1.0)))
        c = coefficients_for(spec, PARAMS)
        ref = coefficients_for(BathSpec.thermal_hec(3, 1.0), PARAMS)
        assert c.r_e == pytest.approx(ref.r_e, abs=1e-12)

    @pytest.mark.parametrize("spec", [None, "dicke", ("dicke", 6, 2), {"kind": "dicke"}])
    def test_dispatcher_refuses_other_objects(self, spec):
        with pytest.raises(ValidationError) as info:
            coefficients_for(spec, PARAMS)
        assert str(info.value) == "coefficients_for: expected a BathSpec"

    @pytest.mark.parametrize("N", [*range(1, 65), 100, 200, 2**53])
    def test_product_is_n_p_e(self, N):
        # r_e = N p_e is one rounding of the exact product; r_d = N (1-p_e)
        # is two, so within an ulp or two; -0.0 gives rates +0.0
        for p_e in (0.0, -0.0, 0.25, 0.3, 1 / 3, 0.5, 1.0):
            c = coefficients_for(BathSpec.product_mixed(N, p_e), PARAMS)
            assert c.r_e == float(N * Fraction(p_e))
            assert c.r_d == pytest.approx(float(N * (1 - Fraction(p_e))), rel=2**-52, abs=0.0)
            assert [math.copysign(1.0, v) for v in (c.r_e, c.r_d)] == [1.0, 1.0]
            assert (c.lam, c.eps, c.mu, c.pg_tau) == (0, 0, PARAMS.mu, PARAMS.pg_tau)

    @pytest.mark.parametrize("N", [*range(1, 65), 100, 200, 2**53])
    def test_dicke_is_the_ladder_matrix_element(self, N):
        # <J+J-> and <J-J+> on |j, m>, j = N/2 and m = k - N/2, from the spin
        # algebra: (j+m)(j-m+1) and (j-m)(j+m+1), exact in Fractions
        j = Fraction(N, 2)
        for k in sorted({0, 1, min(2, N), N // 4, N // 2, N - 1, N}):
            m = k - j
            c = coefficients_for(BathSpec.dicke(N, k), PARAMS)
            assert (c.r_e, c.r_d) == (float((j + m) * (j - m + 1)), float((j - m) * (j + m + 1)))
            assert (c.lam, c.eps, c.mu, c.pg_tau) == (0, 0, PARAMS.mu, PARAMS.pg_tau)

    @pytest.mark.parametrize("N", [*range(1, 65), 100, 200])
    def test_thermal_hec_is_the_gibbs_sum(self, N):
        # r_e = sum_k r^k k(N-k+1) / sum_k r^k and r_d the same with
        # (k+1)(N-k), r = n/(n+1), in Fractions at rational n_bar
        for n_bar in (Fraction(1, 4), Fraction(1, 2), 1, 3, Fraction(25, 2), 1000):
            r = Fraction(n_bar) / (n_bar + 1)
            weights = [r**k for k in range(N + 1)]
            norm = sum(weights)
            r_e = sum(w * k * (N - k + 1) for k, w in enumerate(weights)) / norm
            r_d = sum(w * (k + 1) * (N - k) for k, w in enumerate(weights)) / norm
            c = coefficients_for(BathSpec.thermal_hec(N, float(n_bar)), PARAMS)
            assert c.r_e == pytest.approx(float(r_e), rel=1e-15, abs=0.0)
            assert c.r_d == pytest.approx(float(r_d), rel=1e-15, abs=0.0)
            assert (c.lam, c.eps, c.mu, c.pg_tau) == (0, 0, PARAMS.mu, PARAMS.pg_tau)

    @pytest.mark.parametrize(
        "spec, message",
        [
            (BathSpec.product_mixed(13, 1.5), "p_e: must be in [0, 1], got 1.5"),
            (BathSpec.thermal_hec(2**60, -1.0), "N: must be <= 2**53"),
            (BathSpec.thermal_hec(3, -1.0), "n_bar: must be finite and >= 0, got -1.0"),
            (BathSpec.dicke(2**53 + 1, -1), "N: must be <= 2**53"),
            (BathSpec.dicke(4, 5), "k: must be in 0..4, got 5"),
        ],
    )
    def test_named_kinds_refused_by_their_closed_forms(self, spec, message):
        with pytest.raises(ValidationError) as info:
            coefficients_for(spec, PARAMS)
        assert str(info.value) == message

    @pytest.mark.parametrize("call", ["coefficients_for", "collision_superoperator"])
    def test_qubit_cap_before_explicit_validation(self, monkeypatch, call):
        from qollide import baths, dynamics, errors

        def unreachable(rho, name="density matrix"):
            raise AssertionError("validated before the qubit cap")

        monkeypatch.setattr(errors, "MAX_QUBITS", 2)
        monkeypatch.setattr(baths, "validate_density_matrix", unreachable)
        run = {"coefficients_for": coefficients_for, "collision_superoperator": dynamics.collision_superoperator}
        with pytest.raises(ValidationError) as info:
            run[call](BathSpec.explicit(np.eye(8) / 8.0), PARAMS)
        assert str(info.value) == "explicit bath: N=3 outside allowed range 1..2"


class TestLindbladRhs:
    @pytest.mark.parametrize("N", range(1, 9))
    def test_steady_state_is_fixed_point(self, N):
        sets = [coefficients_for(BathSpec.product_mixed(N, 0.3), PARAMS)]
        sets += [coefficients_for(BathSpec.thermal_hec(N, nb), PARAMS) for nb in (0.5, 1.0, 2.0)]
        sets += [coefficients_for(BathSpec.dicke(N, k), PARAMS) for k in range(N + 1)]
        for c in sets:
            if c.r_e + c.r_d <= 0.0:
                continue
            out = lindblad_rhs(steady_state(c), c)
            assert np.max(np.abs(out)) <= 1e-12

    def test_excited_state_decay_rate(self):
        # d rho_ee / dt at rho = |e><e| is mu r_e - mu (r_e + r_d)
        c = coefficients_for(BathSpec.dicke(4, 1), PARAMS)
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
        c = coefficients_for(BathSpec.dicke(6, 2), PARAMS)
        rho = np.array([[0.5, 0.2], [0.2, 0.5]], dtype=complex)
        out = lindblad_rhs(rho, c)
        assert out[0, 1].real == pytest.approx(
            -0.5 * c.mu * (c.r_e + c.r_d) * 0.2, rel=1e-12
        )

    def test_wrong_shape(self):
        c = coefficients_for(BathSpec.dicke(2, 1), PARAMS)
        with pytest.raises(ValidationError):
            lindblad_rhs(np.eye(3) / 3.0, c)


def _three_pass_moments(rho, ops):
    """``(lam, eps, r_e, r_d)`` summed one moment at a time over the blocks."""
    off, N = ops.basis.offsets, ops.N

    def block(i, j):
        return rho[off[i] : off[i + 1], off[j] : off[j + 1]]

    lam, eps, r_e, r_d = 0.0j, 0.0j, 0.0, 0.0
    for k in range(1, N + 1):
        L = ops.ladder[k - 1]
        lam += np.einsum("ij,ji->", L, block(k, k - 1))
        r_e += float(np.sum((L @ block(k, k)) * L.conj()).real)
    for k in range(2, N + 1):
        eps += np.einsum("ij,ji->", ops.ladder[k - 2] @ ops.ladder[k - 1], block(k, k - 2))
    for k in range(N):
        L = ops.ladder[k]
        r_d += float(np.sum(L.conj() * (block(k, k) @ L)).real)
    return complex(lam), complex(eps), max(0.0, r_e), max(0.0, r_d)


class TestMomentsInOnePass:
    @pytest.mark.parametrize("N", range(1, 8))
    def test_same_bits_as_one_pass_per_moment(self, N, rng):
        for _ in range(3):
            rho = random_density_matrix(rng, 2**N)
            c = coefficients_from_state(rho, cached_ops(N), PARAMS)
            assert (c.lam, c.eps, c.r_e, c.r_d) == _three_pass_moments(rho, cached_ops(N))


class TestClosedFormNRange:
    """Every closed form takes the sweep's N range, 1..2**53."""

    @pytest.mark.parametrize("N", [0, 2**53 + 1, 10**400])
    @pytest.mark.parametrize(
        "closed_form, below_one",
        [
            # a BathSpec refuses N < 1 itself, before coefficients_for sees it
            (lambda N: coefficients_for(BathSpec.product_mixed(N, 0.2), PARAMS), "N: must be >= 1, got 0"),
            (lambda N: coefficients_for(BathSpec.thermal_hec(N, 1.0), PARAMS), "N: must be >= 1, got 0"),
            (lambda N: coefficients_for(BathSpec.dicke(N, 0), PARAMS), "N: must be >= 1, got 0"),
            (lambda N: dicke_temperature(N, 0), "N: must be >= 1, got 0"),
        ],
        ids=["product", "thermal-hec", "dicke", "dicke-temperature"],
    )
    def test_outside_rejected(self, N, closed_form, below_one):
        with pytest.raises(ValidationError) as info:
            closed_form(N)
        assert str(info.value) == (below_one if N < 1 else "N: must be <= 2**53")

    def test_array_ends_read_without_iterating(self):
        from qollide.errors import check_ns

        class NoIter(np.ndarray):
            def __iter__(self):
                raise AssertionError("iterated")

        Ns = np.arange(1, 10**6 + 1).view(NoIter)
        check_ns(Ns, "N_list")
        for bad, bound in ((0, ">= 1"), (2**53 + 1, "<= 2**53")):
            Ns[5] = bad
            with pytest.raises(ValidationError) as info:
                check_ns(Ns, "N_list")
            assert str(info.value) == f"N_list: all N must be {bound}"

    @pytest.mark.parametrize("big", [2**63, 2**64 + 1, 10**400])
    def test_list_beyond_int64_refused(self, big):
        from qollide.errors import check_ns

        with pytest.raises(ValidationError) as info:
            check_ns([3, big, 1], "N_list")
        assert str(info.value) == "N_list: all N must be <= 2**53"
        with pytest.raises(ValidationError) as info:
            scaling_sweep("dicke", [3, big, 1], PARAMS, k_rule="quarter")
        assert str(info.value) == "N_list: all N must be <= 2**53"

    def test_largest_n_answered(self):
        c = coefficients_for(BathSpec.dicke(2**53, 1), PARAMS)
        assert (c.r_e, c.r_d) == (float(2**53), float(2 * (2**53 - 1)))
        assert coefficients_for(BathSpec.product_mixed(2**53, 0.5), PARAMS).r_e == 2.0**52
        assert math.isfinite(dicke_temperature(2**53, 1))
