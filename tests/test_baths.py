import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
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
    dicke_block_state,
    dicke_ladder_transform,
    load_bath_csv,
    prepare_thermal_dicke,
    product_mixed_state,
    save_bath_csv,
    thermal_hec_state,
    validate_bath,
    validate_density_matrix,
)

from qollide.dynamics import _ladder_bath
from qollide.utils import fmt_complex

from conftest import (
    cached_ops,
    dense_ops,
    eigvalsh_oracle_accepts,
    random_density_matrix,
    symmetric_dicke_vector,
)
from test_collective import canonical_index


class TestProductMixed:
    def test_ground(self):
        np.testing.assert_allclose(
            product_mixed_state(1, 0.0), np.diag([1.0, 0.0]), atol=0
        )

    def test_maximally_mixed(self):
        np.testing.assert_allclose(
            product_mixed_state(2, 0.5), np.eye(4) / 4.0, atol=1e-15
        )

    def test_binomial_weights(self):
        rho = product_mixed_state(3, 0.2)
        basis = cached_ops(3).basis
        diag = np.diag(rho).real
        ones = basis.block_slice(1)
        np.testing.assert_allclose(diag[ones], 0.2 * 0.8**2, atol=1e-15)

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            product_mixed_state(2, 1.2)


class TestThermalHec:
    def test_zero_temperature(self):
        rho = thermal_hec_state(3, 0.0)
        expected = np.zeros((8, 8), dtype=complex)
        expected[0, 0] = 1.0
        np.testing.assert_allclose(rho, expected, atol=0)

    def test_n2_nbar1_coefficients(self):
        # d_k = (1-r) r^k / ((1-r^3) C(2,k)) at r = 1/2: 4/7, 1/7, 1/7
        rho = thermal_hec_state(2, 1.0)
        basis = cached_ops(2).basis
        for k, d_k in ((0, 4.0 / 7.0), (1, 1.0 / 7.0), (2, 1.0 / 7.0)):
            blk = rho[basis.block_slice(k), basis.block_slice(k)]
            np.testing.assert_allclose(blk, d_k * np.ones_like(blk), atol=1e-15)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("N", range(1, 7))
    def test_consecutive_block_trace_ratio(self, N):
        n_bar = 0.7
        r = n_bar / (n_bar + 1.0)
        rho = thermal_hec_state(N, n_bar)
        basis = cached_ops(N).basis
        traces = [
            np.trace(rho[basis.block_slice(k), basis.block_slice(k)]).real
            for k in range(N + 1)
        ]
        for k in range(N):
            assert traces[k + 1] / traces[k] == pytest.approx(r, abs=1e-12)

    @pytest.mark.parametrize("n_bar", [0.0, 0.7, 1e8, 1e15])
    def test_block_weights_unchanged(self, n_bar):
        # the weights as written before the shared normalization helper
        N = 5
        r = n_bar / (n_bar + 1.0)
        norm = (1.0 / (n_bar + 1.0)) / (1.0 - r ** (N + 1))
        rho = thermal_hec_state(N, n_bar)
        basis = cached_ops(N).basis
        for k in range(N + 1):
            blk = rho[basis.block_slice(k), basis.block_slice(k)]
            assert np.all(blk == norm * r**k / basis.sizes[k])

    def test_normalization_rounding_to_zero_rejected(self):
        # r = n_bar/(n_bar+1) rounds to 1, so 1 - r^(N+1) is 0
        with pytest.raises(ValidationError, match="n_bar: 1e\\+16 is too large"):
            thermal_hec_state(4, 1e16)
        with pytest.raises(ValidationError, match="too large"):
            validate_bath(BathSpec.thermal_hec(4, 1e16))

    def test_uniform_within_block(self):
        rho = thermal_hec_state(4, 1.3)
        basis = cached_ops(4).basis
        for k in range(5):
            blk = rho[basis.block_slice(k), basis.block_slice(k)]
            assert np.ptp(blk.real) < 1e-15 and np.max(np.abs(blk.imag)) == 0.0


class TestDickeBlock:
    def test_ground(self):
        rho = dicke_block_state(4, 0)
        expected = np.zeros((16, 16), dtype=complex)
        expected[0, 0] = 1.0
        np.testing.assert_allclose(rho, expected, atol=0)

    def test_middle_block_n2(self):
        rho = dicke_block_state(2, 1)
        expected = np.zeros((4, 4), dtype=complex)
        expected[1:3, 1:3] = 0.5
        np.testing.assert_allclose(rho, expected, atol=1e-15)

    @pytest.mark.parametrize("N", range(1, 9))
    def test_purity(self, N):
        for k in range(N + 1):
            rho = dicke_block_state(N, k)
            assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)

    def test_outer_product_of_vector(self):
        v = symmetric_dicke_vector(3, 2)
        np.testing.assert_allclose(
            dicke_block_state(3, 2), np.outer(v, v.conj()), atol=1e-15
        )


@pytest.mark.parametrize("N", range(1, 9))
def test_constructors_are_valid_density_matrices(N):
    validate_density_matrix(product_mixed_state(N, 0.3))
    validate_density_matrix(thermal_hec_state(N, 0.8))
    validate_density_matrix(dicke_block_state(N, N // 2))


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
        r = 0.7 / 1.7
        norm = (1.0 / 1.7) / (1.0 - r ** (N + 1))
        weights = [norm * r**k for k in range(N + 1)]
        assert_same_state(thermal_hec_state(N, 0.7), _block_fill(N, weights))
        for k in range(N + 1):
            assert_same_state(dicke_block_state(N, k), _block_fill(N, np.eye(N + 1)[k]))


@pytest.mark.parametrize(
    "build",
    [
        lambda: basis_ordering(13),
        lambda: product_mixed_state(13, 0.2),
        lambda: thermal_hec_state(13, 1.0),
        lambda: thermal_hec_state(30, 1.0),
        lambda: dicke_block_state(13, 3),
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
    yield BathSpec.product_mixed(N, 0.0)
    yield BathSpec.product_mixed(N, 1.0)
    yield BathSpec.thermal_hec(N, float(rng.exponential(2.0)))
    yield BathSpec.thermal_hec(N, 0.0)
    yield BathSpec.dicke(N, int(rng.integers(0, N + 1)))
    yield BathSpec.dicke(N, 0)
    yield BathSpec.dicke(N, N)


class TestNamedFamiliesCheckedFromParameters:
    """``validate_bath`` skips the dense positivity check for the named
    families; the states it returns must be the constructors' and pass it."""

    CONSTRUCTORS = {
        "product": lambda s: product_mixed_state(s.N, s.p_e),
        "thermal-hec": lambda s: thermal_hec_state(s.N, s.n_bar),
        "dicke": lambda s: dicke_block_state(s.N, s.k),
    }

    @pytest.mark.parametrize("N", range(1, 9))
    def test_constructor_output_passes_dense_oracle(self, N):
        rng = np.random.default_rng(1000 + N)
        for spec in _named_specs(N, rng):
            rho = validate_bath(spec)
            expected = self.CONSTRUCTORS[spec.kind](spec)
            assert np.array_equal(rho, expected)
            assert eigvalsh_oracle_accepts(rho), spec.describe()

    def test_no_dense_factorization(self, monkeypatch):
        def dense(a):
            raise AssertionError("dense check run on a named family")

        monkeypatch.setattr(np.linalg, "cholesky", dense)
        monkeypatch.setattr(np.linalg, "eigvalsh", dense)
        for spec in _named_specs(6, np.random.default_rng(6)):
            validate_bath(spec)

    @pytest.mark.parametrize("n_bar", [1e6, 1e8, 1e12])
    def test_large_n_bar_decision_matches_dense_check(self, n_bar):
        # the block weights lose their normalization at large n_bar; the
        # trace check still rejects exactly what the full check rejects
        spec = BathSpec.thermal_hec(4, n_bar)
        accepted = eigvalsh_oracle_accepts(thermal_hec_state(4, n_bar))
        if accepted:
            validate_bath(spec)
        else:
            with pytest.raises(ValidationError, match="trace check failed"):
                validate_bath(spec)


class TestClassification:
    def test_n2_equal_excitation_pair_is_effective(self):
        ops = cached_ops(2)
        cmap = classify_coherences(thermal_hec_state(2, 1.0), ops)
        i = canonical_index(ops.basis, "ge")
        j = canonical_index(ops.basis, "eg")
        assert cmap.primary(i, j) == "hec"
        assert cmap.primary(j, i) == "hec"

    def test_n2_two_excitation_pair_is_squeezing(self):
        ops = cached_ops(2)
        cmap = classify_coherences(np.eye(4) / 4.0, ops)
        i = canonical_index(ops.basis, "gg")
        j = canonical_index(ops.basis, "ee")
        assert cmap.primary(i, j) == "squeezing"

    def test_n4_central_complement_pair_is_ineffective(self):
        # moving two excitations is beyond any first- or second-moment operator
        ops = cached_ops(4)
        cmap = classify_coherences(np.eye(16) / 16.0, ops)
        i = canonical_index(ops.basis, "eegg")
        j = canonical_index(ops.basis, "ggee")
        assert cmap.primary(i, j) == "ineffective"
        assert cmap.labels(i, j) == ("ineffective",)

    def test_diagonal_is_population(self):
        ops = cached_ops(3)
        cmap = classify_coherences(np.eye(8) / 8.0, ops)
        assert all(cmap.primary(i, i) == "population" for i in range(8))

    @pytest.mark.parametrize("N", range(1, 6))
    def test_excitation_difference_rules_exhaustive(self, N):
        ops = cached_ops(N)
        cmap = classify_coherences(np.eye(2**N) / 2**N, ops)
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
        ops = cached_ops(N)
        cmap = classify_coherences(np.eye(2**N) / 2**N, ops)
        for mask in (cmap.displacement, cmap.squeezing, cmap.hec):
            assert np.array_equal(mask, mask.T)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=8))
    def test_bit_patterns_match_operator_elements(self, N):
        # the operator definition: an entry is effective when the operator
        # or its adjoint has a nonzero element at that position
        dense = dense_ops(N)

        def nonzero(*operators):
            mask = np.zeros((2**N, 2**N), dtype=bool)
            for op in operators:
                mask |= (np.abs(op) > 1e-12) | (np.abs(op.T) > 1e-12)
            np.fill_diagonal(mask, False)
            return mask

        cmap = classify_coherences(np.eye(2**N) / 2**N, cached_ops(N))
        assert np.array_equal(cmap.displacement, nonzero(dense.J_minus))
        assert np.array_equal(cmap.squeezing, nonzero(dense.J_minus_sq))
        assert np.array_equal(
            cmap.hec, nonzero(dense.J_plus_J_minus, dense.J_minus_J_plus)
        )

    def test_counts_n2(self):
        ops = cached_ops(2)
        counts = classify_coherences(np.eye(4) / 4.0, ops).counts()
        assert counts == {
            "population": 4,
            "displacement": 8,
            "squeezing": 2,
            "hec": 2,
            "ineffective": 0,
        }

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            classify_coherences(np.eye(8) / 8.0, cached_ops(2))

    def test_json_entry_list_only_for_small_n(self):
        small = classify_coherences(np.eye(4) / 4.0, cached_ops(2))
        assert "entries" in small.to_json_dict()
        large = classify_coherences(np.eye(2**7) / 2**7, cached_ops(7))
        assert "entries" not in large.to_json_dict()

    @pytest.mark.parametrize("N", range(2, 6))
    def test_ineffective_entries_do_not_move_coefficients(self, N):
        # perturbations supported on ineffective entries leave all four
        # master-equation coefficients unchanged (up to rounding)
        ops = cached_ops(N)
        params = CollisionParams(g=0.1, tau=1.0, p=100.0)
        base = 0.7 * thermal_hec_state(N, 1.0) + 0.3 * np.eye(2**N) / 2**N
        cmap = classify_coherences(base, ops)
        ineffective = ~(cmap.displacement | cmap.squeezing | cmap.hec)
        np.fill_diagonal(ineffective, False)
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


class TestBathCsv:
    def test_round_trip(self, tmp_path):
        rho = thermal_hec_state(3, 0.5)
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
        from qollide import collective

        def unreachable(*args, **kwargs):
            raise AssertionError("body read before the header cap")

        path = tmp_path / "rho.csv"
        save_bath_csv(path, np.eye(8) / 8.0, 3)
        monkeypatch.setattr(collective, "MAX_QUBITS", 2)
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

    def test_writer_matches_per_entry_full_rank(self, rng):
        rho = random_density_matrix(rng, 2**5)
        assert bath_to_csv(rho, 5) == self._per_entry_csv(rho, 5)

    def test_writer_matches_per_entry_ladder_state(self):
        _, rho = prepare_thermal_dicke(8, 0.5, 1.0, t_end=5.0, dt=0.01)
        assert len(np.unique(rho)) < 20
        assert bath_to_csv(rho, 8) == self._per_entry_csv(rho, 8)

    def test_writer_matches_per_entry_signed_zeros_and_non_finite(self):
        z = [0.0, -0.0, complex(-0.0, 0.0), complex(0.0, -0.0),
             complex(-0.0, -0.0), np.nan, complex(0.0, np.nan),
             complex(np.nan, 1.0), complex(np.inf, -np.inf), 0.25, -0.25j,
             complex(-0.0, 0.25), complex(0.25, -0.0)]
        rho = np.array(z + z[:3], dtype=complex).reshape(4, 4)
        text = bath_to_csv(rho, 2)
        assert text == self._per_entry_csv(rho, 2)
        assert "-0j" not in text and ",-0+" not in text

    def test_file_and_text_readers_bit_identical(self, rng, tmp_path):
        rho = random_density_matrix(rng, 2**6)
        path = tmp_path / "rho.csv"
        save_bath_csv(path, rho, 6)
        n_file, from_file = load_bath_csv(path)
        n_text, from_text = bath_from_csv(path.read_text())
        assert n_file == n_text == 6
        assert from_file.tobytes() == from_text.tobytes() == rho.tobytes()

    def test_write_read_write_identical_bytes(self, rng, tmp_path):
        rho = random_density_matrix(rng, 2**4)
        first = bath_to_csv(rho, 4)
        path = tmp_path / "rho.csv"
        path.write_text(first)
        n, back = load_bath_csv(path)
        assert bath_to_csv(back, n) == first

    @pytest.mark.parametrize("token", ["1 + 2j", "1+2J", "(1+2j)", " 1+2j ", "1_0+2j"])
    def test_lenient_entries_accepted(self, token):
        text = f"N=1,basis=excitation-sorted\n{token},0\n0,{token}\n"
        n, rho = bath_from_csv(text)
        expected = complex(token.strip().replace(" ", ""))
        assert rho[0, 0] == rho[1, 1] == expected
        assert rho[0, 1] == rho[1, 0] == 0.0

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
            ("1+0j,0+0j\n0+0j\n", "bath csv: row 1 has 1 entries, expected 2"),
            (
                "1+0j,0+0j\n0+0j,abc\n",
                "bath csv: bad entry in row 1: complex() arg is a malformed string",
            ),
            (
                "1+0j,0+0j\n0+0j,1+0j # note\n",
                "bath csv: bad entry in row 1: complex() arg is a malformed string",
            ),
            ("1+0j,0+0j\n0+0j,0+0j\n0+0j,0+0j\n", "bath csv: expected 2 rows for N=1, got 3"),
            ("", "bath csv: expected 2 rows for N=1, got 0"),
        ],
        ids=["ragged", "bad-token", "no-comments", "row-count", "no-rows"],
    )
    def test_malformed_body_messages(self, body, message, tmp_path):
        text = "N=1,basis=excitation-sorted\n" + body
        path = tmp_path / "rho.csv"
        path.write_text(text)
        for read in (lambda: bath_from_csv(text), lambda: load_bath_csv(path)):
            with pytest.raises(ValidationError) as info:
                read()
            assert str(info.value) == message

    def test_empty_input_rejected(self):
        with pytest.raises(ValidationError, match="empty input"):
            bath_from_csv(" \n\n")
