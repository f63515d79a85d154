import numpy as np
import pytest

from qollide import (
    BathSpec,
    ValidationError,
    basis_ordering,
    block_sizes,
    build_collective_ops,
    dicke_ladder_transform,
    j_z_diagonal,
    validate_bath,
)

from conftest import cached_ops, dense_ops, expectation, symmetric_dicke_vector


def canonical_index(basis, label):
    """Canonical index of the product state written as an e/g pattern."""
    for s in range(basis.dim):
        if basis.state_label(s) == label:
            return s
    raise AssertionError(f"no state {label!r}")


class TestBlockSizes:
    @pytest.mark.parametrize(
        "N, expected",
        [(1, [1, 1]), (2, [1, 2, 1]), (4, [1, 4, 6, 4, 1])],
    )
    def test_pascal_rows(self, N, expected):
        assert block_sizes(N) == expected

    def test_sizes_sum_to_dim(self):
        for N in range(1, 9):
            assert sum(block_sizes(N)) == 2**N

    @pytest.mark.parametrize("N", [0, -3])
    def test_invalid_n(self, N):
        with pytest.raises(ValidationError) as info:
            block_sizes(N)
        assert str(info.value) == f"N: must be >= 1, got {N}"


class TestBasisOrdering:
    def test_ground_state_first(self):
        basis = basis_ordering(3)
        assert basis.order[0] == 0
        assert basis.state_label(0) == "ggg"
        assert basis.excitations[0] == 0

    def test_permutation_inverse(self):
        basis = basis_ordering(5)
        assert np.array_equal(basis.position[basis.order], np.arange(32))

    def test_blocks_contiguous_and_sorted(self):
        basis = basis_ordering(4)
        for k in range(5):
            blk = basis.excitations[basis.block_slice(k)]
            assert np.all(blk == k)

    def test_lexicographic_within_block(self):
        basis = basis_ordering(2)
        labels = [basis.state_label(s) for s in range(4)]
        assert labels == ["gg", "ge", "eg", "ee"]

    @pytest.mark.parametrize("s", [-1, -8, 8, 9])
    def test_state_label_refuses_out_of_range_index(self, s):
        # a negative index would wrap to the end of the basis
        with pytest.raises(ValidationError) as info:
            basis_ordering(3).state_label(s)
        assert str(info.value) == f"state_label: index {s} out of range 0..7"


class TestCollectiveOps:
    def test_single_qubit_lowering(self):
        ops = build_collective_ops(1)
        # canonical order (|g>, |e>): sigma^- = |g><e|
        assert len(ops.ladder) == 1
        assert np.array_equal(ops.ladder[0], np.array([[1]], dtype=complex))
        assert np.array_equal(
            dense_ops(1).J_minus, np.array([[0, 1], [0, 0]], dtype=complex)
        )

    def test_two_qubit_column(self):
        # J- |ee> = |ge> + |eg>, expanded by hand on the 4-dim basis
        basis = cached_ops(2).basis
        col = dense_ops(2).J_minus[:, canonical_index(basis, "ee")]
        expected = np.zeros(4, dtype=complex)
        expected[canonical_index(basis, "ge")] = 1.0
        expected[canonical_index(basis, "eg")] = 1.0
        assert np.array_equal(col, expected)

    @pytest.mark.parametrize("N", range(1, 7))
    def test_su2_commutator(self, N):
        ops, dense = cached_ops(N), dense_ops(N)
        comm = dense.J_plus_J_minus - dense.J_minus_J_plus
        jz2 = np.diag(2.0 * j_z_diagonal(ops.basis)).astype(complex)
        np.testing.assert_allclose(comm, jz2, atol=1e-12)

    @pytest.mark.parametrize("N", range(1, 9))
    def test_lowering_zero_pattern(self, N):
        exc = cached_ops(N).basis.excitations
        rows, cols = np.nonzero(np.abs(dense_ops(N).J_minus) > 1e-12)
        assert np.all(exc[rows] == exc[cols] - 1)

    @pytest.mark.parametrize("N", range(1, 9))
    def test_symmetric_state_moments(self, N):
        dense = dense_ops(N)
        for k in range(N + 1):
            rho = validate_bath(BathSpec.dicke(N, k))
            re = expectation(dense.J_plus_J_minus, rho).real
            rd = expectation(dense.J_minus_J_plus, rho).real
            assert re == pytest.approx(k * (N - k + 1), abs=1e-12)
            assert rd == pytest.approx((k + 1) * (N - k), abs=1e-12)

    @pytest.mark.parametrize("N", range(2, 7))
    def test_double_lowering_zero_pattern(self, N):
        exc = cached_ops(N).basis.excitations
        rows, cols = np.nonzero(np.abs(dense_ops(N).J_minus_sq) > 1e-12)
        assert np.all(exc[rows] == exc[cols] - 2)

    def test_products_hermitian_block_diagonal(self):
        ops, dense = cached_ops(5), dense_ops(5)
        for op in (dense.J_plus_J_minus, dense.J_minus_J_plus):
            np.testing.assert_allclose(op, op.conj().T, atol=1e-14)
            exc = ops.basis.excitations
            rows, cols = np.nonzero(np.abs(op) > 1e-12)
            assert np.all(exc[rows] == exc[cols])

    def test_adjoint_pair(self):
        dense = dense_ops(4)
        np.testing.assert_allclose(dense.J_plus, dense.J_minus.conj().T, atol=0)

    def test_ladder_blocks_match_dense(self):
        # sum_i sigma_i^- as a Kronecker sum in the binary order (qubit 1
        # most significant, excited = bit 1), permuted to canonical order
        sigma_minus = np.array([[0, 1], [0, 0]], dtype=complex)
        for N in range(1, 6):
            ops = cached_ops(N)
            binary = sum(
                np.kron(np.kron(np.eye(2**i), sigma_minus), np.eye(2 ** (N - i - 1)))
                for i in range(N)
            )
            canonical = binary[np.ix_(ops.basis.order, ops.basis.order)]
            assert np.array_equal(dense_ops(N).J_minus, canonical)
            off = ops.basis.offsets
            for k in range(1, N + 1):
                blk = canonical[off[k - 1] : off[k], off[k] : off[k + 1]]
                assert np.array_equal(blk, ops.ladder[k - 1])

    def test_max_qubits_enforced(self):
        with pytest.raises(ValidationError):
            build_collective_ops(13)


class TestDickeVectors:
    def test_two_qubit_triplet(self):
        v = symmetric_dicke_vector(2, 1)
        np.testing.assert_allclose(
            v, np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0), atol=1e-15
        )

    def test_ground_state(self):
        v = symmetric_dicke_vector(4, 0)
        expected = np.zeros(16)
        expected[0] = 1.0
        np.testing.assert_allclose(v, expected, atol=0)

    def test_orthonormality(self):
        vs = [symmetric_dicke_vector(5, k) for k in range(6)]
        gram = np.array([[np.vdot(a, b) for b in vs] for a in vs])
        np.testing.assert_allclose(gram, np.eye(6), atol=1e-14)

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            symmetric_dicke_vector(3, 4)


class TestLadderTransform:
    def test_single_qubit_is_identity(self):
        np.testing.assert_allclose(dicke_ladder_transform(1), np.eye(2), atol=0)

    def test_two_qubit_middle_column(self):
        V = dicke_ladder_transform(2)
        assert V.shape == (4, 3)
        np.testing.assert_allclose(
            V[:, 1], np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0), atol=1e-15
        )

    @pytest.mark.parametrize("N", range(1, 9))
    def test_isometry(self, N):
        V = dicke_ladder_transform(N)
        np.testing.assert_allclose(V.conj().T @ V, np.eye(N + 1), atol=1e-12)


def _basis_loop_oracle(N):
    """The basis arrays by one Python sort key per state."""
    order = np.array(
        sorted(range(2**N), key=lambda b: (bin(b).count("1"), b)), dtype=np.intp
    )
    position = np.empty_like(order)
    position[order] = np.arange(2**N, dtype=np.intp)
    excitations = np.array([bin(int(b)).count("1") for b in order], dtype=np.intp)
    return order, position, excitations


def _ladder_loop_oracle(basis):
    """The ``J-`` blocks by one Python step per (state, set bit)."""
    N, sizes, offsets = basis.N, basis.sizes, basis.offsets
    ladder = []
    for k in range(1, N + 1):
        L = np.zeros((sizes[k - 1], sizes[k]), dtype=complex)
        for col in range(sizes[k]):
            b = int(basis.order[offsets[k] + col])
            for bit in range(N):
                if (b >> bit) & 1:
                    L[basis.position[b & ~(1 << bit)] - offsets[k - 1], col] = 1.0
        ladder.append(L)
    return ladder


def assert_same_array(actual, expected):
    """Equal dtype, shape and bytes, and read-only."""
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()
    assert not actual.flags.writeable


class TestArrayRulesMatchLoops:
    @pytest.mark.parametrize("N", range(1, 13))
    def test_basis_arrays(self, N):
        basis = basis_ordering(N)
        for actual, expected in zip(
            (basis.order, basis.position, basis.excitations), _basis_loop_oracle(N)
        ):
            assert_same_array(actual, expected)

    @pytest.mark.parametrize("N", range(1, 13))
    def test_ladder_blocks(self, N):
        ops = build_collective_ops(N)
        expected = _ladder_loop_oracle(ops.basis)
        assert len(ops.ladder) == len(expected) == N
        for actual, want in zip(ops.ladder, expected):
            assert_same_array(actual, want)
