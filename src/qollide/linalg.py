"""Dense complex linear algebra primitives.

Everything operates on plain ``numpy`` arrays of ``complex128``.  Density
matrices are finite, Hermitian, unit-trace, positive-semidefinite square
matrices; validation is opt-in (:func:`validate_density_matrix`) so that
inner loops stay cheap.  Positivity is decided by a blocked Cholesky
factorization of the shifted Hermitian part, which reads only its lower
block triangle: that part is built as its lower block columns, 64 columns
wide, and factored in place, so validating holds about half a copy of the
state.  An eigendecomposition runs only to confirm and report a failure.
Bath states are stored densely, which is adequate at the documented limit of
N <= 12 bath qubits, but the engines work on their excitation blocks and
never assemble a ``2**N x 2**N`` operator.
:func:`matrix_exp` and :func:`partial_trace_bath` are kept as the dense
reference that the block-structured collision map is checked against.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, ValidationError

# Density-matrix validation tolerances for dense double precision.
TOL_HERM = 1e-10
TOL_TRACE = 1e-10
TOL_PSD = 1e-8


def as_complex_matrix(a):
    """Return ``a`` as a 2-d complex128 array, rejecting other shapes."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValidationError(f"expected a matrix, got array of shape {m.shape}")
    return m


def partial_trace_bath(rho, dim_sys, dim_bath):
    """Reduced system state of a joint ``system (x) bath`` density matrix.

    Parameters
    ----------
    rho : array_like
        Square matrix of dimension ``dim_sys * dim_bath`` with the system
        factor first in the tensor-product ordering.
    dim_sys, dim_bath : int
        Dimensions of the two factors.

    Returns
    -------
    ndarray
        The ``dim_sys x dim_sys`` reduced matrix.  The trace is preserved
        exactly up to floating-point rounding.
    """
    rho = as_complex_matrix(rho)
    dim = dim_sys * dim_bath
    if rho.shape != (dim, dim):
        raise ValidationError(
            f"partial_trace_bath: shape {rho.shape} does not match "
            f"dim_sys*dim_bath = {dim_sys}*{dim_bath}"
        )
    return np.einsum("abcb->ac", rho.reshape(dim_sys, dim_bath, dim_sys, dim_bath))


def matrix_exp(a, tol=1e-12, max_terms=64):
    """Matrix exponential by scaling-and-squaring with a Taylor series.

    The input is scaled by ``2**-s`` until its infinity norm is below 1/2,
    the series is summed until the current term drops below ``tol`` (scaled
    by the number of squarings), and the result is squared ``s`` times.
    For anti-Hermitian input the result is unitary to within ``tol``.

    Raises
    ------
    ValidationError
        If the input is not square.
    NumericError
        If the series has not converged after ``max_terms`` terms.
    """
    a = as_complex_matrix(a)
    n, m = a.shape
    if n != m:
        raise ValidationError(f"matrix_exp: input must be square, got {a.shape}")
    norm = np.linalg.norm(a, np.inf)
    squarings = 0
    if norm > 0.5:
        squarings = int(np.ceil(np.log2(norm / 0.5)))
    x = a / (2.0**squarings)
    term = np.eye(n, dtype=complex)
    total = np.eye(n, dtype=complex)
    threshold = max(tol * 2.0 ** (-squarings), 1e-300)
    for order in range(1, max_terms + 1):
        term = term @ x / order
        total += term
        if np.max(np.abs(term)) <= threshold:
            break
    else:
        raise NumericError(
            f"matrix_exp: series not converged after {max_terms} terms "
            f"(scaled norm {np.linalg.norm(x, np.inf):.3g})"
        )
    for _ in range(squarings):
        total = total @ total
    return total


def check_unit_trace(rho, *, name="rho"):
    """Raise :class:`ValidationError` unless ``|Tr(rho) - 1| <= TOL_TRACE``."""
    trace_dev = abs(np.trace(rho) - 1.0)
    if trace_dev > TOL_TRACE:
        raise ValidationError(
            f"{name}: trace check failed (|Tr(rho) - 1| = {trace_dev:.3e}, "
            f"tol {TOL_TRACE:.1e})"
        )


def validate_density_matrix(rho, *, tol_psd=TOL_PSD, name="rho"):
    """Check the density-matrix invariants and return the validated array.

    Checks, in order: finite entries, square shape, hermiticity
    (:data:`TOL_HERM`), unit trace (:data:`TOL_TRACE`) and positivity
    (smallest eigenvalue >= ``-tol_psd``).  Positivity is accepted when the
    Hermitian part shifted by ``tol_psd`` has a Cholesky factorization; only
    if it has none is the smallest eigenvalue computed, to confirm and
    report it.  The hermiticity deviation is taken one block column of
    :data:`_BLOCK` (64) columns at a time.  The shifted Hermitian part is
    built only as its lower block columns, about ``n(n + 64)/2`` entries,
    which a blocked Cholesky factorization overwrites and frees column by
    column, so the check holds about half a copy of ``rho``; ``rho`` itself
    is not written.  A matrix of at most 64 rows is one
    ``np.linalg.cholesky`` call.  Raises :class:`ValidationError` naming
    the failing check.
    """
    rho = as_complex_matrix(rho)
    finite = np.isfinite(rho)
    if not finite.all():
        raise ValidationError(
            f"{name}: finiteness check failed "
            f"({rho.size - np.count_nonzero(finite)} non-finite entries)"
        )
    del finite  # one byte per entry, freed before the Hermitian part
    n, m = rho.shape
    if n != m:
        raise ValidationError(f"{name}: shape check failed, matrix is {n}x{m}")
    # |rho - rho^dag| is symmetric, so its lower block columns hold its max
    herm_dev = max((np.max(np.abs(a - b)) for a, b in _lower_columns(rho)), default=0.0)
    if herm_dev > TOL_HERM:
        raise ValidationError(
            f"{name}: hermiticity check failed (max |rho - rho^dag| = "
            f"{herm_dev:.3e}, tol {TOL_HERM:.1e})"
        )
    check_unit_trace(rho, name=name)
    columns = []
    for a, b in _lower_columns(rho):
        column = a + b
        column /= 2.0
        column[np.diag_indices(column.shape[1])] += tol_psd
        columns.append(column)
    if not _positive_definite(columns):
        # the factorization can fail by rounding when the smallest
        # eigenvalue sits at -tol_psd, so the eigenvalue decides and is
        # reported
        herm = np.empty_like(rho)
        for i in range(0, n, _BLOCK):
            np.add(rho[i : i + _BLOCK], rho[:, i : i + _BLOCK].conj().T, out=herm[i : i + _BLOCK])
        herm /= 2.0
        min_eig = float(np.linalg.eigvalsh(herm)[0])
        if min_eig < -tol_psd:
            raise ValidationError(
                f"{name}: positivity check failed (min eigenvalue = "
                f"{min_eig:.3e}, tol {tol_psd:.1e})"
            ) from None
    return rho


# Columns per block of the Hermitian check and of the factorization.
_BLOCK = 64


def _lower_columns(rho):
    """Yield ``rho[k:, k:k+B]`` and ``rho[k:k+B, k:]^dag`` for each block
    column ``k`` of :data:`_BLOCK` (``B``) columns: the lower block triangle
    of ``rho`` and of ``rho^dag``, diagonal blocks whole."""
    for k in range(0, len(rho), _BLOCK):
        yield rho[k:, k : k + _BLOCK], rho[k : k + _BLOCK, k:].conj().T


def _positive_definite(columns):
    """Whether the Hermitian matrix given as its lower block columns has a
    Cholesky factorization, decided by a right-looking blocked Cholesky
    (Golub & Van Loan, *Matrix Computations*, section 4.2).  Each column's
    diagonal block is factored by ``np.linalg.cholesky``, the panel below
    it is multiplied by ``inv(L_kk)^dag``, the column is freed, and each
    later column is overwritten with its Schur complement.  The last
    column has no panel, so a matrix of one column is one
    ``np.linalg.cholesky`` call and no inverse.  ``columns`` is emptied
    either way."""
    try:
        while columns:
            column = columns.pop(0)
            width = column.shape[1]
            factor = np.linalg.cholesky(column[:width])
            if not columns:
                return True
            panel = column[width:] @ np.linalg.inv(factor).conj().T
            del column
            for j, later in enumerate(columns):
                rows = panel[j * _BLOCK :]
                later -= rows @ rows[:_BLOCK].conj().T
    except np.linalg.LinAlgError:
        columns.clear()
        return False
    return True
