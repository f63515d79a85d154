import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qollide import (
    BathSpec,
    ValidationError,
    linalg,
    matrix_exp,
    partial_trace_bath,
    validate_bath,
    validate_density_matrix,
)
from qollide.errors import NumericError
from qollide.linalg import TOL_PSD

from conftest import dense_ops, eigvalsh_oracle_accepts, expectation, random_density_matrix

I2 = np.eye(2, dtype=complex)


class TestPartialTrace:
    def test_factorized_state(self, rng):
        rho_q = random_density_matrix(rng, 2)
        rho_b = random_density_matrix(rng, 4)
        out = partial_trace_bath(np.kron(rho_q, rho_b), 2, 4)
        np.testing.assert_allclose(out, rho_q, atol=1e-14)

    def test_bell_state(self):
        psi = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
        out = partial_trace_bath(np.outer(psi, psi.conj()), 2, 2)
        np.testing.assert_allclose(out, I2 / 2.0, atol=1e-15)

    def test_against_index_summation(self, rng):
        rho = random_density_matrix(rng, 8)
        out = partial_trace_bath(rho, 2, 4)
        # independent oracle: explicit double loop over composite indices
        expected = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                for a in range(4):
                    expected[i, j] += rho[i * 4 + a, j * 4 + a]
        np.testing.assert_allclose(out, expected, atol=1e-15)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_trace_preserved(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density_matrix(rng, 8)
        out = partial_trace_bath(rho, 4, 2)
        assert abs(np.trace(out) - np.trace(rho)) < 1e-13

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            partial_trace_bath(np.eye(6) / 6.0, 2, 4)


class TestMatrixExp:
    def test_zero_matrix(self):
        assert np.array_equal(matrix_exp(np.zeros((3, 3))), np.eye(3))

    def test_pauli_rotation(self):
        theta = 0.7
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        expected = np.array(
            [
                [np.cos(theta), 1j * np.sin(theta)],
                [1j * np.sin(theta), np.cos(theta)],
            ]
        )
        np.testing.assert_allclose(matrix_exp(1j * theta * sx), expected, atol=1e-14)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_inverse_identity(self, seed):
        tol = 1e-12
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        a /= max(1.0, np.linalg.norm(a, np.inf))
        product = matrix_exp(a, tol=tol) @ matrix_exp(-a, tol=tol)
        assert np.max(np.abs(product - np.eye(16))) < 10 * tol

    def test_anti_hermitian_gives_unitary(self, rng):
        tol = 1e-12
        for _ in range(5):
            h = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            h = (h + h.conj().T) / 2.0
            u = matrix_exp(-1j * h, tol=tol)
            assert np.max(np.abs(u.conj().T @ u - np.eye(8))) < 10 * tol

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError):
            matrix_exp(np.zeros((2, 3)))

    def test_non_convergence_raises(self):
        with pytest.raises(NumericError):
            matrix_exp(np.eye(2), max_terms=1)


class TestExpectation:
    def test_identity_gives_trace(self, rng):
        rho = random_density_matrix(rng, 4)
        assert abs(expectation(np.eye(4), rho) - 1.0) < 1e-14

    def test_sigma_z_eigenstate(self):
        sz = np.diag([1.0, -1.0]).astype(complex)
        assert expectation(sz, np.diag([1.0, 0.0])) == pytest.approx(1.0)

    def test_collective_moment_on_symmetric_state(self):
        # <J+J-> on the k=1 symmetric state of N=4 equals k(N-k+1) = 4
        val = expectation(dense_ops(4).J_plus_J_minus, validate_bath(BathSpec.dicke(4, 1)))
        assert val.real == pytest.approx(4.0, abs=1e-12)
        assert abs(val.imag) < 1e-12

    def test_hermitian_gives_real(self, rng):
        rho = random_density_matrix(rng, 4)
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = h + h.conj().T
        assert abs(expectation(h, rho).imag) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            expectation(np.eye(2), np.eye(3) / 3.0)


class TestValidateDensityMatrix:
    def test_valid_passes(self, rng):
        validate_density_matrix(random_density_matrix(rng, 8))

    def test_non_hermitian_named(self):
        bad = np.array([[0.5, 0.2], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValidationError, match="hermiticity"):
            validate_density_matrix(bad)

    def test_bad_trace_named(self):
        with pytest.raises(ValidationError, match="trace"):
            validate_density_matrix(np.diag([0.5, 0.4]).astype(complex))

    def test_negative_eigenvalue_named(self):
        bad = np.diag([1.2, -0.2]).astype(complex)
        with pytest.raises(ValidationError, match="positivity"):
            validate_density_matrix(bad)

    def test_non_square_named(self):
        with pytest.raises(ValidationError):
            validate_density_matrix(np.ones((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_entry_named(self, bad):
        rho = np.eye(2, dtype=complex) / 2.0
        rho[0, 0] = bad
        with pytest.raises(ValidationError, match="finiteness"):
            validate_density_matrix(rho)


def _with_spectrum(rng, eigenvalues):
    """Hermitian matrix with the given eigenvalues in a random eigenbasis."""
    dim = len(eigenvalues)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(g)
    return (q * np.asarray(eigenvalues)) @ q.conj().T


B = linalg._BLOCK
# one block column, its edges (B - 1, B, B + 1) and two columns plus one row
DIMS = sorted({2, 3, 5, 8, 16, 31, 64, 129, 300, 1024, B - 1, B, B + 1, 2 * B + 1})


class TestCholeskyPositivity:
    """The Cholesky decision of :func:`validate_density_matrix` against an
    ``eigvalsh`` oracle, around the ``-tol_psd`` threshold and at zero."""

    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize(
        "min_eig",
        [-TOL_PSD * (1 + 1e-3), -TOL_PSD * (1 - 1e-3), 0.0, 1e-3],
        ids=["below-tol", "above-tol", "zero", "positive"],
    )
    def test_decision_matches_eigvalsh(self, rng, dim, min_eig):
        rest = rng.uniform(0.5, 1.5, size=dim - 1)
        rest *= (1.0 - min_eig) / rest.sum()
        rho = _with_spectrum(rng, [min_eig, *rest])
        expected = eigvalsh_oracle_accepts(rho)
        assert expected == (min_eig >= -TOL_PSD)
        if expected:
            assert validate_density_matrix(rho) is not None
        else:
            with pytest.raises(ValidationError, match="positivity") as info:
                validate_density_matrix(rho)
            assert "min eigenvalue = -1.001e-08" in str(info.value)

    @pytest.mark.parametrize("dim", DIMS)
    def test_rank_deficient_pure_states_accepted(self, rng, dim):
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        assert eigvalsh_oracle_accepts(rho)
        validate_density_matrix(rho)

    def test_accepted_states_need_no_eigendecomposition(self, rng, monkeypatch):
        def no_eigvalsh(a):
            raise AssertionError("eigvalsh called on an accepted state")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
        psi = np.zeros(16, dtype=complex)
        psi[3] = 1.0
        for rho in (random_density_matrix(rng, 16), np.outer(psi, psi)):
            validate_density_matrix(rho)

    def test_zero_tolerance_confirmed_by_eigvalsh(self):
        # no shift: the factorization of a singular matrix fails, and the
        # eigenvalue decides (and reports) as before
        rho = np.diag([1.0, 0.0]).astype(complex)
        validate_density_matrix(rho, tol_psd=0.0)
        with pytest.raises(ValidationError, match="positivity"):
            validate_density_matrix(np.diag([1.0 + 1e-12, -1e-12]), tol_psd=0.0)


@pytest.fixture
def cholesky_calls(monkeypatch):
    """Copies of the matrices passed to ``np.linalg.cholesky``, in order."""
    calls = []
    real = np.linalg.cholesky

    def recorded(a):
        calls.append(a.copy())
        return real(a)

    monkeypatch.setattr(np.linalg, "cholesky", recorded)
    return calls


class TestBlockedValidation:
    """The block-column Hermitian part and its blocked factorization in
    :func:`validate_density_matrix` against whole-matrix expressions."""

    def test_hermiticity_message_from_whole_matrix(self, rng):
        # below the diagonal, then above it: the lower block columns see both
        for row, col in ((250, 3), (3, 250)):
            rho = random_density_matrix(rng, 300)
            rho[row, col] += 3e-10
            herm_dev = np.max(np.abs(rho - rho.conj().T))
            with pytest.raises(ValidationError) as info:
                validate_density_matrix(rho)
            assert str(info.value) == (
                f"rho: hermiticity check failed (max |rho - rho^dag| = {herm_dev:.3e}, "
                "tol 1.0e-10)"
            )

    @pytest.mark.parametrize("dim", [2, B // 2, B])
    def test_one_block_is_one_cholesky_of_the_whole_shift(
        self, rng, monkeypatch, cholesky_calls, dim
    ):
        monkeypatch.setattr(np.linalg, "inv", None)  # no panel, no inverse
        rho = random_density_matrix(rng, dim)
        validate_density_matrix(rho)
        shifted = (rho + rho.conj().T) / 2.0
        shifted[np.diag_indices(dim)] += TOL_PSD
        assert len(cholesky_calls) == 1
        assert cholesky_calls[0].tobytes() == shifted.tobytes()

    @pytest.mark.parametrize("dim", [5, 300])
    def test_failure_decided_on_the_whole_hermitian_part(self, rng, monkeypatch, dim):
        seen = []
        real = np.linalg.eigvalsh

        def recorded(a):
            seen.append(a.copy())
            return real(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
        rest = rng.uniform(0.5, 1.5, size=dim - 1)
        rest *= (1.0 + 1e-3) / rest.sum()
        rho = _with_spectrum(rng, [-1e-3, *rest])
        with pytest.raises(ValidationError, match="positivity"):
            validate_density_matrix(rho)
        assert len(seen) == 1
        assert seen[0].tobytes() == ((rho + rho.conj().T) / 2.0).tobytes()

    @pytest.mark.parametrize("dim", [16, 300])
    def test_read_only_input_accepted_unchanged(self, rng, dim):
        rho = random_density_matrix(rng, dim)
        before = rho.copy()
        rho.setflags(write=False)
        assert validate_density_matrix(rho) is rho
        assert rho.tobytes() == before.tobytes()

    @pytest.mark.parametrize("dim", [B + 1, 300])
    def test_one_cholesky_per_block_column(self, rng, cholesky_calls, dim):
        # each diagonal block is factored once, the first one unchanged
        rho = random_density_matrix(rng, dim)
        validate_density_matrix(rho)
        shifted = (rho[:B, :B] + rho[:B, :B].conj().T) / 2.0
        shifted[np.diag_indices(B)] += TOL_PSD
        assert [len(a) for a in cholesky_calls] == [min(B, dim - k) for k in range(0, dim, B)]
        assert cholesky_calls[0].tobytes() == shifted.tobytes()

    def test_peak_memory_half_a_state(self, rng):
        rho = random_density_matrix(rng, 1024)
        tracemalloc.start()
        try:
            validate_density_matrix(rho)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * rho.nbytes
