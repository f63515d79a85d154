import collections
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qollide import (
    BathSpec,
    CollisionParams,
    ValidationError,
    bath_from_csv,
    basis_ordering,
    bath_to_csv,
    classify_coherences,
    coefficients_from_state,
    dicke_ladder_transform,
    load_bath_csv,
    prepare_thermal_dicke,
    save_bath_csv,
    validate_bath,
    validate_density_matrix,
)

from qollide.baths import thermal_hec_weights
from qollide.dynamics import _ladder_bath
from qollide.utils import fmt_complex

from conftest import (
    THERMAL_EXACT_CASES,
    cached_ops,
    dense_ops,
    eigvalsh_oracle_accepts,
    label_table,
    random_density_matrix,
    symmetric_dicke_vector,
    thermal_hec_exact,
)
from test_collective import canonical_index


class TestProductMixed:
    def test_ground(self):
        np.testing.assert_allclose(
            validate_bath(BathSpec.product_mixed(1, 0.0)), np.diag([1.0, 0.0]), atol=0
        )

    def test_maximally_mixed(self):
        np.testing.assert_allclose(
            validate_bath(BathSpec.product_mixed(2, 0.5)), np.eye(4) / 4.0, atol=1e-15
        )

    def test_binomial_weights(self):
        rho = validate_bath(BathSpec.product_mixed(3, 0.2))
        basis = cached_ops(3).basis
        diag = np.diag(rho).real
        ones = basis.block_slice(1)
        np.testing.assert_allclose(diag[ones], 0.2 * 0.8**2, atol=1e-15)

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            validate_bath(BathSpec.product_mixed(2, 1.2))


class TestThermalHec:
    def test_zero_temperature(self):
        rho = validate_bath(BathSpec.thermal_hec(3, 0.0))
        expected = np.zeros((8, 8), dtype=complex)
        expected[0, 0] = 1.0
        np.testing.assert_allclose(rho, expected, atol=0)

    def test_n2_nbar1_coefficients(self):
        # d_k = (1-r) r^k / ((1-r^3) C(2,k)) at r = 1/2: 4/7, 1/7, 1/7
        rho = validate_bath(BathSpec.thermal_hec(2, 1.0))
        basis = cached_ops(2).basis
        for k, d_k in ((0, 4.0 / 7.0), (1, 1.0 / 7.0), (2, 1.0 / 7.0)):
            blk = rho[basis.block_slice(k), basis.block_slice(k)]
            np.testing.assert_allclose(blk, d_k * np.ones_like(blk), atol=1e-15)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("N", range(1, 7))
    def test_consecutive_block_trace_ratio(self, N):
        n_bar = 0.7
        r = n_bar / (n_bar + 1.0)
        rho = validate_bath(BathSpec.thermal_hec(N, n_bar))
        basis = cached_ops(N).basis
        traces = [
            np.trace(rho[basis.block_slice(k), basis.block_slice(k)]).real
            for k in range(N + 1)
        ]
        for k in range(N):
            assert traces[k + 1] / traces[k] == pytest.approx(r, abs=1e-12)

    @pytest.mark.parametrize("N, n_bar", THERMAL_EXACT_CASES)
    def test_block_weights_match_exact_weights(self, N, n_bar):
        # exact rational weights at the float n_bar.  The error is taken
        # against the largest weight: a tail weight r^k = exp(-k x) carries
        # about k x ulp of its own, and below ~1e-308 it underflows
        exact = np.array(thermal_hec_exact(N, n_bar)[2])
        got = thermal_hec_weights(N, n_bar)
        assert np.max(np.abs(got - exact)) <= 4e-15 * np.max(exact)
        assert abs(math.fsum(got) - 1.0) <= 4e-15

    def test_uniform_within_block(self):
        rho = validate_bath(BathSpec.thermal_hec(4, 1.3))
        basis = cached_ops(4).basis
        for k in range(5):
            blk = rho[basis.block_slice(k), basis.block_slice(k)]
            assert np.ptp(blk.real) < 1e-15 and np.max(np.abs(blk.imag)) == 0.0


class TestDickeBlock:
    def test_ground(self):
        rho = validate_bath(BathSpec.dicke(4, 0))
        expected = np.zeros((16, 16), dtype=complex)
        expected[0, 0] = 1.0
        np.testing.assert_allclose(rho, expected, atol=0)

    def test_middle_block_n2(self):
        rho = validate_bath(BathSpec.dicke(2, 1))
        expected = np.zeros((4, 4), dtype=complex)
        expected[1:3, 1:3] = 0.5
        np.testing.assert_allclose(rho, expected, atol=1e-15)

    @pytest.mark.parametrize("N", range(1, 9))
    def test_purity(self, N):
        for k in range(N + 1):
            rho = validate_bath(BathSpec.dicke(N, k))
            assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)

    def test_outer_product_of_vector(self):
        v = symmetric_dicke_vector(3, 2)
        np.testing.assert_allclose(
            validate_bath(BathSpec.dicke(3, 2)), np.outer(v, v.conj()), atol=1e-15
        )


@pytest.mark.parametrize("N", range(1, 9))
def test_named_states_are_valid_density_matrices(N):
    validate_density_matrix(validate_bath(BathSpec.product_mixed(N, 0.3)))
    validate_density_matrix(validate_bath(BathSpec.thermal_hec(N, 0.8)))
    validate_density_matrix(validate_bath(BathSpec.dicke(N, N // 2)))


def _block_fill(N, weights):
    """Oracle: excitation block ``k`` uniformly filled with
    ``weights[k] / C(N,k)``, block by block in ascending ``k``."""
    rho = np.zeros((2**N, 2**N), dtype=complex)
    start = 0
    for k, w in enumerate(weights):
        size = math.comb(N, k)
        rho[start : start + size, start : start + size] = w / size
        start += size
    return rho


def _kron_product_state(N, p_e):
    """Oracle: the Kronecker product of ``N`` single-qubit states
    ``diag(1 - p_e, p_e)`` (qubit 1 most significant, excited as bit 1),
    permuted from binary to canonical order."""
    rho = np.ones((1, 1))
    for _ in range(N):
        rho = np.kron(rho, np.diag([1.0 - p_e, p_e]))
    order = basis_ordering(N).order
    return rho[np.ix_(order, order)].astype(complex)


def assert_same_state(rho, want):
    assert rho.shape == want.shape
    assert np.array_equal(rho.view(np.uint64), want.view(np.uint64))


class TestSymmetricMixtures:
    """Every symmetric bath is ``sum_k w_k |D_k><D_k|``: one block fill,
    equal to the isometry product ``(V * w) @ V^dag`` up to rounding."""

    @pytest.mark.parametrize("N", range(1, 9))
    def test_prepared_state(self, N):
        ladder, rho = prepare_thermal_dicke(N, 0.7, 1.0, t_end=1.0, dt=0.001)
        w = ladder.populations
        assert_same_state(rho, _block_fill(N, w))
        V = dicke_ladder_transform(N)
        np.testing.assert_allclose(rho, (V * w) @ V.conj().T, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("N", [4, 6, 8])
    def test_random_ladder_populations(self, N, rng):
        w = rng.random(N + 1)
        w /= w.sum()
        ladder, rho = _ladder_bath(basis_ordering(N), w)
        assert_same_state(rho, _block_fill(N, ladder.populations))
        V = dicke_ladder_transform(N)
        np.testing.assert_allclose(rho, (V * w) @ V.conj().T, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("N", [1, 5, 8])
    def test_named_families(self, N):
        weights = thermal_hec_weights(N, 0.7)
        assert_same_state(validate_bath(BathSpec.thermal_hec(N, 0.7)), _block_fill(N, weights))
        for k in range(N + 1):
            assert_same_state(validate_bath(BathSpec.dicke(N, k)), _block_fill(N, np.eye(N + 1)[k]))


@pytest.mark.parametrize(
    "build",
    [
        lambda: basis_ordering(13),
        lambda: validate_bath(BathSpec.product_mixed(13, 0.2)),
        lambda: validate_bath(BathSpec.thermal_hec(13, 1.0)),
        lambda: validate_bath(BathSpec.thermal_hec(30, 1.0)),
        lambda: validate_bath(BathSpec.dicke(13, 3)),
        lambda: dicke_ladder_transform(13),
        lambda: prepare_thermal_dicke(13, 0.2, 1.0, 6.0, 0.05),
    ],
    ids=["basis", "product", "thermal-hec", "thermal-hec-30", "dicke", "ladder-transform",
         "prepare"],
)
def test_qubit_cap_checked_before_allocation(build):
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=r"N=(13|30) outside allowed range 1\.\.12$"):
            build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the N=13 basis sort alone holds about 1 MB of keys, the state 1 GiB
    assert peak < 64 * 2**10


class TestValidateBath:
    def test_product(self):
        rho = validate_bath(BathSpec.product_mixed(1, 0.3))
        np.testing.assert_allclose(rho, np.diag([0.7, 0.3]), atol=1e-15)

    def test_explicit_bad_trace(self):
        with pytest.raises(ValidationError, match="trace"):
            validate_bath(BathSpec.explicit(np.diag([0.5, 0.4]).astype(complex)))

    def test_dicke_out_of_range(self):
        with pytest.raises(ValidationError, match="k"):
            validate_bath(BathSpec.dicke(3, 5))

    def test_explicit_requires_power_of_two(self):
        with pytest.raises(ValidationError):
            BathSpec.explicit(np.eye(6) / 6.0)

    def test_missing_parameter(self):
        with pytest.raises(ValidationError, match="n_bar"):
            validate_bath(BathSpec(N=2, kind="thermal-hec"))

    @pytest.mark.parametrize(
        "kind, message",
        [
            ("product", "p_e: required for a product bath"),
            ("thermal-hec", "n_bar: required for a thermal-hec bath"),
            ("dicke", "k: required for a dicke bath"),
            ("explicit", "rho: required for an explicit bath"),
        ],
    )
    def test_missing_parameter_refused_at_construction(self, kind, message):
        with pytest.raises(ValidationError) as info:
            BathSpec(N=2, kind=kind)
        assert str(info.value) == message

    def test_explicit_shape_refused_at_construction(self):
        with pytest.raises(ValidationError) as info:
            BathSpec(N=3, kind="explicit", rho=np.eye(4) / 4.0)
        assert str(info.value) == "rho: shape (4, 4) does not match N=3"

    def test_unknown_kind(self):
        with pytest.raises(ValidationError, match="kind"):
            BathSpec(N=2, kind="squeezed")

    def test_describe_lists_only_the_kind_parameter(self):
        assert BathSpec(N=2, kind="dicke", k=1, p_e=0.3).describe() == {
            "kind": "dicke", "N": 2, "k": 1,
        }
        assert BathSpec(N=2, kind="product", p_e=0.3, n_bar=1.0, k=1).describe() == {
            "kind": "product", "N": 2, "p_e": 0.3,
        }
        assert BathSpec(N=1, kind="explicit", rho=np.eye(2) / 2.0, k=1).describe() == {
            "kind": "explicit", "N": 1,
        }

    @pytest.mark.parametrize("n_bar", [np.inf, -np.inf, np.nan])
    def test_non_finite_n_bar(self, n_bar):
        with pytest.raises(ValidationError, match="n_bar: must be finite"):
            validate_bath(BathSpec.thermal_hec(3, n_bar))


def _named_specs(N, rng):
    yield BathSpec.product_mixed(N, float(rng.uniform()))
    for p_e in (0.0, 0.2, 1 / 3, 0.5, 1.0):
        yield BathSpec.product_mixed(N, p_e)
    yield BathSpec.thermal_hec(N, float(rng.exponential(2.0)))
    yield BathSpec.thermal_hec(N, 0.0)
    yield BathSpec.dicke(N, int(rng.integers(0, N + 1)))
    yield BathSpec.dicke(N, 0)
    yield BathSpec.dicke(N, N)


class TestNamedFamiliesCheckedFromParameters:
    """``validate_bath`` skips the dense positivity check for the named
    families; the states it returns must match independent oracles and
    pass it."""

    ORACLES = {
        "product": lambda s: _kron_product_state(s.N, s.p_e),
        "thermal-hec": lambda s: _block_fill(s.N, thermal_hec_weights(s.N, s.n_bar)),
        "dicke": lambda s: _block_fill(s.N, np.eye(s.N + 1)[s.k]),
    }

    @pytest.mark.parametrize("N", range(1, 9))
    def test_state_matches_oracle_and_passes_dense_check(self, N):
        rng = np.random.default_rng(1000 + N)
        for spec in _named_specs(N, rng):
            rho = validate_bath(spec)
            want = self.ORACLES[spec.kind](spec)
            np.testing.assert_allclose(rho, want, rtol=1e-14, atol=0, err_msg=str(spec.describe()))
            assert eigvalsh_oracle_accepts(rho), spec.describe()

    def test_no_dense_factorization(self, monkeypatch):
        def dense(a):
            raise AssertionError("dense check run on a named family")

        monkeypatch.setattr(np.linalg, "cholesky", dense)
        monkeypatch.setattr(np.linalg, "eigvalsh", dense)
        for spec in _named_specs(6, np.random.default_rng(6)):
            validate_bath(spec)

    @pytest.mark.parametrize("n_bar", [1e6, 1e8, 1e9, 1e12, 1e16, 1e300])
    def test_large_n_bar_decision_matches_dense_check(self, n_bar):
        # the block weights keep their normalization at every n_bar, so the
        # full check accepts these states, and the trace check, all that a
        # named family gets, agrees
        rho = validate_bath(BathSpec.thermal_hec(4, n_bar))
        assert abs(np.trace(rho).real - 1.0) <= 1e-15
        assert eigvalsh_oracle_accepts(rho)


class TestRatesAsLadderMoments:
    """The two physics paths of a named family agree at any N: its
    closed-form rates equal the moments of its spin-ladder weights, ``r_e =
    sum w (j+m)(j-m+1)`` and ``r_d = sum w (j-m)(j+m+1)``.  The weights
    carry no qubit cap, so this reaches far past the sector engine's N."""

    CASES = {
        "product": ((0.0, 0.1, 0.5, 0.9, 1.0), (1, 2, 3, 7, 12, 64, 255, 500)),
        "thermal-hec": ((0.0, 0.25, 1.0, 3.0, 1000.0), (1, 2, 3, 7, 12, 64, 1000, 4096)),
        "dicke": (None, (1, 2, 3, 7, 12, 64, 1000, 4095, 4096)),
    }

    @pytest.mark.parametrize("kind", CASES)
    def test_rates_are_ladder_moments(self, kind):
        from qollide.baths import FAMILIES

        family = FAMILIES[kind]
        values, Ns = self.CASES[kind]
        for N in Ns:
            for value in values or sorted({0, 1, N // 4, N // 2, N - 1, N}):
                two_j, two_m, w = family.weights(N, value)
                want = np.array([(two_j + two_m) * (two_j - two_m + 2),
                                 (two_j - two_m) * (two_j + two_m + 2)]) / 4.0 @ w
                np.testing.assert_allclose(
                    family.rates(N, value), want, rtol=2e-15, atol=0, err_msg=f"{N}, {value}"
                )
                np.testing.assert_allclose(w.sum(), 1.0, rtol=1e-14, atol=0)
                if kind == "dicke":  # both from exact integers
                    assert tuple(map(float, family.rates(N, value))) == tuple(want)


def operator_patterns(N):
    """``{label: mask}`` of the off-diagonal entries where the label's
    operators, or their adjoints, have a nonzero dense element."""
    dense = dense_ops(N)

    def nonzero(*operators):
        mask = np.zeros((2**N, 2**N), dtype=bool)
        for op in operators:
            mask |= (np.abs(op) > 1e-12) | (np.abs(op.T) > 1e-12)
        np.fill_diagonal(mask, False)
        return mask

    return {
        "displacement": nonzero(dense.J_minus),
        "squeezing": nonzero(dense.J_minus_sq),
        "hec": nonzero(dense.J_plus_J_minus, dense.J_minus_J_plus),
    }


class TestClassification:
    @pytest.mark.parametrize("i, j, bad", [(-1, 0, -1), (0, -1, -1), (8, 0, 8), (0, 8, 8)])
    def test_primary_refuses_out_of_range_index(self, i, j, bad):
        # (-1, 0) would otherwise read as (7, 0), |eee> against |ggg>
        with pytest.raises(ValidationError) as info:
            classify_coherences(3).primary(i, j)
        assert str(info.value) == f"primary: index {bad} out of range 0..7"

    def test_n2_equal_excitation_pair_is_effective(self):
        ops = cached_ops(2)
        cmap = classify_coherences(2)
        i = canonical_index(ops.basis, "ge")
        j = canonical_index(ops.basis, "eg")
        assert cmap.primary(i, j) == "hec"
        assert cmap.primary(j, i) == "hec"

    def test_n2_two_excitation_pair_is_squeezing(self):
        ops = cached_ops(2)
        cmap = classify_coherences(2)
        i = canonical_index(ops.basis, "gg")
        j = canonical_index(ops.basis, "ee")
        assert cmap.primary(i, j) == "squeezing"

    def test_n4_central_complement_pair_is_ineffective(self):
        # moving two excitations is beyond any first- or second-moment operator
        ops = cached_ops(4)
        cmap = classify_coherences(4)
        i = canonical_index(ops.basis, "eegg")
        j = canonical_index(ops.basis, "ggee")
        assert cmap.primary(i, j) == "ineffective"

    def test_diagonal_is_population(self):
        ops = cached_ops(3)
        cmap = classify_coherences(3)
        assert all(cmap.primary(i, i) == "population" for i in range(8))

    @pytest.mark.parametrize("N", range(1, 6))
    def test_excitation_difference_rules_exhaustive(self, N):
        ops = cached_ops(N)
        cmap = classify_coherences(N)
        exc = ops.basis.excitations
        for i in range(2**N):
            for j in range(2**N):
                if i == j:
                    continue
                diff = abs(int(exc[i]) - int(exc[j]))
                label = cmap.primary(i, j)
                if diff == 0:
                    assert label in ("hec", "ineffective")
                elif diff == 1:
                    assert label in ("displacement", "ineffective")
                elif diff == 2:
                    assert label in ("squeezing", "ineffective")
                else:
                    assert label == "ineffective"

    @pytest.mark.parametrize("N", range(1, 6))
    def test_labels_symmetric(self, N):
        # primary(i, j) == primary(j, i) for every pair
        table = label_table(N)
        assert np.array_equal(table, table.T)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=9))
    @example(9)  # bit patterns past 255
    def test_bit_patterns_match_operator_elements(self, N):
        # the operator definition: an entry is effective when the operator
        # or its adjoint has a nonzero element at that position
        table = label_table(N)
        for label, pattern in operator_patterns(N).items():
            assert np.array_equal(table == label, pattern)

    def test_counts_n2(self):
        ops = cached_ops(2)
        counts = classify_coherences(2).counts()
        assert counts == {
            "population": 4,
            "displacement": 8,
            "squeezing": 2,
            "hec": 2,
            "ineffective": 0,
        }

    @pytest.mark.parametrize("N", range(1, 9))
    def test_operator_patterns_pairwise_disjoint(self, N):
        # no entry feeds two channels, so one label per entry is exact
        patterns = list(operator_patterns(N).values())
        for a in range(3):
            for b in range(a + 1, 3):
                assert not np.any(patterns[a] & patterns[b])

    @pytest.mark.parametrize("N", range(1, 11))
    def test_counts_tally_the_labels(self, N):
        tally = collections.Counter(label_table(N).ravel().tolist())
        counts = classify_coherences(N).counts()
        assert set(tally) <= set(counts)
        assert counts == {label: tally[label] for label in counts}

    def test_json_entry_list_only_for_small_n(self):
        small = classify_coherences(2)
        assert "entries" in small.to_json_dict()
        large = classify_coherences(7)
        assert "entries" not in large.to_json_dict()

    @pytest.mark.parametrize("N", range(2, 6))
    def test_ineffective_entries_do_not_move_coefficients(self, N):
        # perturbations supported on ineffective entries leave all four
        # master-equation coefficients unchanged (up to rounding)
        ops = cached_ops(N)
        params = CollisionParams(g=0.1, tau=1.0, p=100.0)
        base = 0.7 * validate_bath(BathSpec.thermal_hec(N, 1.0)) + 0.3 * np.eye(2**N) / 2**N
        ineffective = label_table(N) == "ineffective"
        if not ineffective.any():
            pytest.skip("no ineffective entries at this N")
        rng = np.random.default_rng(N)
        noise = rng.normal(size=ineffective.shape) + 1j * rng.normal(
            size=ineffective.shape
        )
        pert = np.where(ineffective, noise, 0.0)
        pert = (pert + pert.conj().T) / 2.0
        # scale below the smallest eigenvalue of base so positivity survives
        scale = 0.5 * (0.3 / 2**N) / np.linalg.norm(pert, 2)
        perturbed = validate_density_matrix(base + scale * pert)
        c0 = coefficients_from_state(base, ops, params)
        c1 = coefficients_from_state(perturbed, ops, params)
        assert abs(c1.lam - c0.lam) <= 1e-12
        assert abs(c1.eps - c0.eps) <= 1e-12
        assert abs(c1.r_e - c0.r_e) <= 1e-12
        assert abs(c1.r_d - c0.r_d) <= 1e-12


    # sha256 of each classify JSON (``to_json_dict``, indent 2, newline):
    # however the labels and counts are computed, the output keeps its bytes
    JSON_SHA256 = {
        1: "83d69f4b345cd3eed5847a9db2b877d74c39975d819314ef8c66991886fdfdea",
        2: "4220ff6d3d5f0e9c3eef7f92a49f30119b81079f0465263ba9a262d773899bba",
        3: "ea03e37e90f032c618306f6ccc703e62655867feed387f077c05bbc511d4c7de",
        4: "eaced6509f128680089c12b9b9f4e5d63b8ee2a6358cb76e2a1600b9b674bc57",
        5: "1ca42725ebd3b4d85b65fbc3877b04312724cb801f15d0f8937431d6e1955cb0",
        6: "a9583495c2955b100732f84b6d6542d0ba02211c7fb3569a092577c44020dfe3",
        7: "78c88e29451cf4a1cc775aa48a55afa7c1bfb0cff5bd2dd9f74447d6d3cb3490",
        8: "99d12c467ef0218a1380ea8416d2f45491553927ee0afb6cf81c4d773f3f769d",
        9: "9c25f9f1da1d3c21c9c4a0bc5603373d4ae15c4400c40a9abd9e04a54479d4d1",
        10: "8ebda669d68e1ee4cf9f5c4a8b90c76441d4ef9f132c42ef5c1256985a0abe13",
        11: "8c5aeed8b84cde4ce78149e8478a90c5dae24feddd98ea63d8413ec1d7dbead3",
        12: "5326cda4b5f0f44467898afde98fca7600e2db1f1b3e20fa12c56abf2b3f72f7",
    }

    @pytest.mark.parametrize("N", range(1, 13))
    def test_json_bytes_pinned(self, N):
        text = json.dumps(classify_coherences(N).to_json_dict(), indent=2) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == self.JSON_SHA256[N]

    @pytest.mark.parametrize("N", range(1, 11))
    def test_masks_follow_the_excitation_gap_rule(self, N):
        # the rule written out: one flip, or two flips with gap 2 or gap 0
        basis = basis_ordering(N)
        flips = np.array([[bin(a ^ b).count("1") for b in basis.order] for a in basis.order])
        gap = np.abs(np.subtract.outer(basis.excitations, basis.excitations))
        table = label_table(N)
        assert np.array_equal(table == "population", np.eye(2**N, dtype=bool))
        assert np.array_equal(table == "displacement", flips == 1)
        assert np.array_equal(table == "squeezing", (flips == 2) & (gap == 2))
        assert np.array_equal(table == "hec", (flips == 2) & (gap == 0))

    def test_peak_memory_at_the_cap(self):
        # the basis and the closed-form counts: nothing 4^12-sized
        tracemalloc.start()
        try:
            counts = classify_coherences(12).to_json_dict()["counts"]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(counts.values()) == 4**12
        assert peak < 2**20


#: Edge values for the bath CSV: NaN, infinities, negative zeros, the
#: smallest and largest subnormals and the largest float.
SPECIAL_ENTRIES = [
    np.nan, np.inf, -np.inf, -0.0, complex(-0.0, -0.0), complex(np.nan, -np.inf),
    5e-324, -5e-324, complex(2.225073858507201e-308, -1e-310), 1.7976931348623157e308,
]


def _entry_tokens():
    """Bath-CSV entries: ``fmt_complex`` of any complex value, plain, spaced,
    upper-case or parenthesized, and doubled signs."""
    parts = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    values = st.builds(complex, parts, parts) | st.sampled_from(SPECIAL_ENTRIES)
    written = st.builds(fmt_complex, values)
    forms = {
        "plain": lambda t: t,
        "spaced": lambda t: f" {t.replace('+', ' + ').replace('-', ' - ')} ",
        "upper": str.upper,
        "parenthesized": lambda t: f"({t})",
    }
    variants = st.builds(lambda t, form: forms[form](t), written, st.sampled_from(sorted(forms)))
    return variants | st.sampled_from(["1+-2j", "1++2j", "1 + - 2j", "-1-+0.5j"])


def _first_entry(text):
    """The bytes of the first entry ``bath_from_csv`` reads, or None if it refuses the text."""
    try:
        return bath_from_csv(text)[1][0, 0].tobytes()
    except ValidationError:
        return None


class TestBathCsv:
    def test_round_trip(self, tmp_path):
        rho = validate_bath(BathSpec.thermal_hec(3, 0.5))
        path = tmp_path / "rho.csv"
        save_bath_csv(path, rho, 3)
        n, back = load_bath_csv(path)
        assert n == 3
        np.testing.assert_allclose(back, rho, atol=0)

    def test_header_format(self):
        text = bath_to_csv(np.eye(2, dtype=complex) / 2.0, 1)
        assert text.splitlines()[0] == "N=1,basis=excitation-sorted"

    def test_bad_header_rejected(self):
        with pytest.raises(ValidationError, match="header"):
            bath_from_csv("N=2\n1,0,0,0\n")

    @pytest.mark.parametrize(
        "header",
        [
            "N=1,basis=excitation-sortedX",
            "N=1,basis=binary,basis=excitation-sorted",
            "N=1,foo,basis=excitation-sorted",
        ],
    )
    def test_header_is_exactly_two_fields(self, header):
        with pytest.raises(ValidationError) as info:
            bath_from_csv(f"{header}\n1,0\n0,1\n")
        assert str(info.value) == (
            f"bath csv: header must be 'N=<n>,basis=excitation-sorted', got {header!r}"
        )

    def test_header_n_not_an_integer(self):
        with pytest.raises(ValidationError) as info:
            bath_from_csv("N=abc,basis=excitation-sorted\n1,0\n0,1\n")
        assert str(info.value) == (
            "bath csv: cannot parse N from 'N=abc,basis=excitation-sorted'"
        )

    def test_header_spaces_ignored(self):
        n, rho = bath_from_csv(" N = 1 , basis = excitation-sorted \n1,0\n0,1\n")
        assert n == 1 and np.array_equal(rho, np.eye(2))

    @pytest.mark.parametrize("N", [-1, 0, 2000])
    def test_header_n_outside_cap_rejected(self, N, tmp_path):
        text = f"N={N},basis=excitation-sorted\n1+0j\n"
        path = tmp_path / "rho.csv"
        path.write_text(text)
        for read in (lambda: bath_from_csv(text), lambda: load_bath_csv(path)):
            with pytest.raises(ValidationError) as info:
                read()
            assert str(info.value) == f"bath csv: N={N} outside allowed range 1..12"

    def test_header_cap_checked_before_the_body(self, monkeypatch, tmp_path):
        from qollide import errors

        def unreachable(*args, **kwargs):
            raise AssertionError("body read before the header cap")

        path = tmp_path / "rho.csv"
        save_bath_csv(path, np.eye(8) / 8.0, 3)
        monkeypatch.setattr(errors, "MAX_QUBITS", 2)
        monkeypatch.setattr(np, "loadtxt", unreachable)
        with pytest.raises(ValidationError, match=r"^bath csv: N=3 outside allowed range 1\.\.2$"):
            load_bath_csv(path)

    def test_wrong_row_count_rejected(self):
        with pytest.raises(ValidationError, match="rows"):
            bath_from_csv("N=1,basis=excitation-sorted\n1+0j,0+0j\n")

    def test_complex_entries_preserved(self):
        rho = np.array([[0.5, 0.1 + 0.2j], [0.1 - 0.2j, 0.5]], dtype=complex)
        n, back = bath_from_csv(bath_to_csv(rho, 1))
        np.testing.assert_allclose(back, rho, atol=0)

    @staticmethod
    def _per_entry_csv(rho, N):
        """Reference writer: one ``fmt_complex`` call per entry."""
        lines = [f"N={N},basis=excitation-sorted"]
        for row in np.asarray(rho, dtype=complex):
            lines.append(",".join(fmt_complex(z) for z in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def _assert_per_entry(cls, text, rho, N):
        """``text`` is the reference writer's, compared line by line: a
        failure names the first line that differs, without a diff of the text."""
        assert text.split("\n") == cls._per_entry_csv(rho, N).split("\n")

    def test_writer_matches_per_entry_full_rank(self, rng):
        rho = random_density_matrix(rng, 2**5)
        self._assert_per_entry(bath_to_csv(rho, 5), rho, 5)

    def test_writer_matches_per_entry_ladder_state(self):
        _, rho = prepare_thermal_dicke(8, 0.5, 1.0, t_end=5.0, dt=0.01)
        assert len(np.unique(rho)) < 20
        self._assert_per_entry(bath_to_csv(rho, 8), rho, 8)

    def test_writer_matches_per_entry_signed_zeros_and_non_finite(self):
        z = [0.0, -0.0, complex(-0.0, 0.0), complex(0.0, -0.0),
             complex(-0.0, -0.0), np.nan, complex(0.0, np.nan),
             complex(np.nan, 1.0), complex(np.inf, -np.inf), 0.25, -0.25j,
             complex(-0.0, 0.25), complex(0.25, -0.0)]
        rho = np.array(z + z[:3], dtype=complex).reshape(4, 4)
        text = bath_to_csv(rho, 2)
        self._assert_per_entry(text, rho, 2)
        assert "-0j" not in text and ",-0+" not in text

    def test_writer_run_does_not_cross_a_row(self):
        # row r ends with the value row r + 1 starts with
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 2:] = rho[1, :3] = 0.125
        rho[2, 3] = rho[3, 0] = complex(np.nan, 1.0)
        text = bath_to_csv(rho, 2)
        self._assert_per_entry(text, rho, 2)
        assert text.splitlines()[1:3] == [
            "0+0j,0+0j,0.125+0j,0.125+0j", "0.125+0j,0.125+0j,0.125+0j,0+0j"
        ]

    @pytest.mark.parametrize("value", [0.0, 1 / 64, complex(-0.0, -0.0), np.nan, -np.inf])
    def test_writer_matches_per_entry_all_equal(self, value):
        rho = np.full((64, 64), value, dtype=complex)
        self._assert_per_entry(bath_to_csv(rho, 6), rho, 6)

    def test_writer_matches_per_entry_runs_of_signed_zeros(self):
        zeros = np.array([0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0)], dtype=complex)
        rho = np.concatenate([np.tile(zeros, 8), np.repeat(zeros, [1, 3, 12, 16])]).reshape(8, 8)
        text = bath_to_csv(rho, 3)
        self._assert_per_entry(text, rho, 3)
        assert set(text.splitlines()[1:]) == {",".join(["0+0j"] * 8)}

    def test_writer_matches_per_entry_runs_of_special_values(self):
        specials = [np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.225073858507201e-308,
                    complex(1e-310, -1e-310), complex(np.nan, -np.inf)]
        runs = np.repeat(np.array(specials, dtype=complex), [1, 2, 3, 5, 7, 11, 13, 22])
        rho = np.concatenate([runs, runs[::-1]]).reshape(16, 8)
        rho = np.concatenate([rho, rho[::-1]], axis=1)
        self._assert_per_entry(bath_to_csv(rho, 4), rho, 4)

    @pytest.mark.parametrize("N", range(1, 9))
    def test_writer_matches_per_entry_named_states(self, N, rng):
        for spec in _named_specs(N, rng):
            rho = validate_bath(spec)
            self._assert_per_entry(bath_to_csv(rho, N), rho, N)

    @pytest.mark.parametrize("N, n_bar, t_end", [(1, 0.5, 0.3), (3, 2.0, 1.0), (6, 0.1, 40.0)])
    def test_writer_matches_per_entry_prepared_states(self, N, n_bar, t_end):
        _, rho = prepare_thermal_dicke(N, n_bar, 1.0, t_end=t_end, dt=0.01)
        self._assert_per_entry(bath_to_csv(rho, N), rho, N)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda N: st.tuples(st.just(N), st.lists(
        st.sampled_from([0.0, complex(-0.0, -0.0), 0.25, complex(0.25, -0.125), np.nan]),
        min_size=4**N, max_size=4**N))))
    def test_writer_matches_per_entry_few_values(self, drawn):
        N, entries = drawn
        rho = np.array(entries, dtype=complex).reshape(2**N, 2**N)
        self._assert_per_entry(bath_to_csv(rho, N), rho, N)

    def test_writer_memory_is_about_its_text(self):
        # the per-entry writer peaked at 57 MiB for these 8.7 MiB of text
        _, rho = prepare_thermal_dicke(10, 0.5, 1.0, t_end=5.0, dt=0.01)
        tracemalloc.start()
        try:
            text = bath_to_csv(rho, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(text) > 8 * 2**20
        assert peak < 3 * len(text)

    @pytest.mark.parametrize(
        "N, message",
        [
            (0, "bath csv: N=0 outside allowed range 1..12"),
            (13, "bath csv: N=13 outside allowed range 1..12"),
            (1.0, "N: must be an integer, got 1.0"),
            (True, "N: must be an integer, got True"),
        ],
    )
    def test_writer_refuses_an_n_the_reader_refuses(self, N, message):
        with pytest.raises(ValidationError) as info:
            bath_to_csv(np.ones((1, 1)), N)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "shape, N",
        [((4, 4), 3), ((8, 8), 2), ((2, 4), 1), ((4, 2), 2), ((4,), 1), ((2, 2, 2), 1),
         ((0, 0), 1)],
    )
    def test_writer_refuses_a_shape_other_than_2_to_the_n(self, shape, N):
        dim = 2**N
        with pytest.raises(ValidationError) as info:
            bath_to_csv(np.zeros(shape), N)
        assert str(info.value) == (
            f"bath csv: expected a {dim}x{dim} matrix for N={N}, got shape {shape}"
        )

    @pytest.mark.parametrize(
        "rho, message",
        [
            ([["x", "y"], ["z", "w"]], "complex() arg is a malformed string"),
            ([[1.0, {}], [0.0, 1.0]], "must be real number, not dict"),
        ],
        ids=["strings", "dict"],
    )
    def test_writer_refuses_entries_that_are_not_numbers(self, rho, message):
        with pytest.raises(ValidationError) as info:
            bath_to_csv(rho, 1)
        assert str(info.value) == f"bath csv: entries must be numbers ({message})"

    @pytest.mark.parametrize(
        "rho, N, error",
        [
            ([["x", "y"], ["z", "w"]], 1, ValidationError),
            (np.eye(4) / 4.0, 3, ValidationError),
            (np.ones((1, 1)), 0, ValidationError),
        ],
        ids=["not-numbers", "shape", "N"],
    )
    def test_refused_save_keeps_the_file(self, rho, N, error, tmp_path):
        path = tmp_path / "rho.csv"
        save_bath_csv(path, np.eye(2) / 2.0, 1)
        before = path.read_bytes()
        with pytest.raises(error):
            save_bath_csv(path, rho, N)
        assert path.read_bytes() == before
        assert load_bath_csv(path)[0] == 1

    def test_file_and_text_readers_bit_identical(self, rng, tmp_path):
        rho = random_density_matrix(rng, 2**6)
        rho[0, :len(SPECIAL_ENTRIES)] = SPECIAL_ENTRIES
        path = tmp_path / "rho.csv"
        save_bath_csv(path, rho, 6)
        n_file, from_file = load_bath_csv(path)
        n_text, from_text = bath_from_csv(path.read_text())
        assert n_file == n_text == 6
        # the writer spells -0.0 as 0; adding +0.0 does the same to rho
        assert from_file.tobytes() == from_text.tobytes() == (rho + 0j).tobytes()

    def test_write_read_write_identical_bytes(self, rng, tmp_path):
        rho = random_density_matrix(rng, 2**4)
        first = bath_to_csv(rho, 4)
        path = tmp_path / "rho.csv"
        path.write_text(first)
        n, back = load_bath_csv(path)
        assert bath_to_csv(back, n) == first

    @pytest.mark.parametrize("token", ["1 + 2j", "1+2J", "(1+2j)", " 1+2j "])
    def test_lenient_entries_accepted(self, token):
        text = f"N=1,basis=excitation-sorted\n{token},0\n0,{token}\n"
        n, rho = bath_from_csv(text)
        expected = complex(token.strip().replace(" ", ""))
        assert rho[0, 0] == rho[1, 1] == expected
        assert rho[0, 1] == rho[1, 0] == 0.0

    @pytest.mark.parametrize("token", ["1_0+2j", "j", "1+j"])
    def test_forms_numpy_does_not_parse_refused(self, token):
        # complex() reads these; numpy's complex parse, the format's grammar, does not
        with pytest.raises(ValidationError) as info:
            bath_from_csv(f"N=1,basis=excitation-sorted\n{token},0\n0,{token}\n")
        assert str(info.value).startswith("bath csv: bad entry: ")
        assert repr(token) in str(info.value)

    @settings(max_examples=300, deadline=None)
    @given(_entry_tokens())
    @example("1+-2j")
    @example("1++2j")
    def test_entry_reads_the_same_beside_a_spaced_entry(self, token):
        alone = f"N=1,basis=excitation-sorted\n{token},0\n0,0\n"
        beside = f"N=1,basis=excitation-sorted\n{token},0\n0,0 + 0j\n"
        assert _first_entry(alone) == _first_entry(beside)

    def test_body_with_blank_lines_and_spaced_entries(self, rng, tmp_path):
        # 128 rows of 128 entries (740 kB), with blank and spaced rows throughout
        rho = random_density_matrix(rng, 2**7)
        header, *rows = bath_to_csv(rho, 7).splitlines()
        messy = [header, "  "]
        for i, row in enumerate(rows):
            if i % 3 == 0:
                row = row.replace("+", " + ").replace(",", " , ")
            messy += [row, "\t" if i % 5 == 0 else ""]
        text = "\n".join(messy) + "\n"
        path = tmp_path / "rho.csv"
        path.write_text(text)
        for n, back in (bath_from_csv(text), load_bath_csv(path)):
            assert n == 7
            assert back.tobytes() == rho.tobytes()

    @pytest.mark.parametrize("blank", ["", "   ", "\t"])
    def test_blank_lines_skipped(self, blank, tmp_path):
        text = (
            f"{blank}\nN=1,basis=excitation-sorted\n{blank}\n"
            f"0.5+0j,0.25j\n{blank}\n-0.25j,0.5+0j\n{blank}\n"
        )
        expected = np.array([[0.5, 0.25j], [-0.25j, 0.5]])
        path = tmp_path / "rho.csv"
        path.write_text(text)
        for n, rho in (bath_from_csv(text), load_bath_csv(path)):
            assert n == 1
            assert np.array_equal(rho, expected)

    @pytest.mark.parametrize(
        "body, message",
        [
            ("1+0j,0+0j\n0+0j\n", "bath csv: line 3 has 1 entries, expected 2"),
            ("1+0j,0+0j\n0+0j,abc\n", "bath csv: bad entry: 'abc' at line 3, column 2"),
            ("1+0j,0+0j\n0+0j,1+0j # note\n",
             "bath csv: bad entry: '1+0j#note' at line 3, column 2"),
            ("1+0j,\n0+0j,1+0j\n", "bath csv: bad entry: '' at line 2, column 2"),
            ("1+0j,0+0j\n0+0j,0+0j\n0+0j,0+0j\n", "bath csv: expected 2 rows for N=1, got 3"),
            ("", "bath csv: expected 2 rows for N=1, got 0"),
            # lines counted over the whole file, blank ones included
            ("\n\n1+0j,0+0j\n0+0j,abc\n", "bath csv: bad entry: 'abc' at line 5, column 2"),
            ("\n\n1+0j,0+0j\n0+0j\n", "bath csv: line 5 has 1 entries, expected 2"),
            ("  \n1+0j,0+0j\n\t\n0 + 0j, 1+2J x\n",
             "bath csv: bad entry: '1+2jx' at line 5, column 2"),
            ("abc,0+0j\n\n0+0j,x\n", "bath csv: bad entry: 'abc' at line 2, column 1"),
        ],
        ids=["ragged", "bad-token", "no-comments", "empty-entry", "row-count", "no-rows",
             "blank-lines-bad-token", "blank-lines-ragged", "blank-lines-spaced", "first-bad"],
    )
    def test_malformed_body_messages(self, body, message, tmp_path):
        text = "N=1,basis=excitation-sorted\n" + body
        path = tmp_path / "rho.csv"
        path.write_text(text)
        for read in (lambda: bath_from_csv(text), lambda: load_bath_csv(path)):
            with pytest.raises(ValidationError) as info:
                read()
            assert str(info.value) == message

    def test_lines_counted_from_the_file_start(self, tmp_path):
        text = "\n \nN=1,basis=excitation-sorted\n1+0j,0+0j\n\n0+0j,1+0j,0\n"
        with pytest.raises(ValidationError) as info:
            bath_from_csv(text)
        assert str(info.value) == "bath csv: line 6 has 3 entries, expected 2"

    def test_empty_input_rejected(self):
        with pytest.raises(ValidationError, match="empty input"):
            bath_from_csv(" \n\n")
