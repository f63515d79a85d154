"""Dense complex linear algebra primitives.

Everything operates on plain ``numpy`` arrays of ``complex128``.  Density
matrices are finite, Hermitian, unit-trace, positive-semidefinite square
matrices; validation is opt-in (:func:`validate_density_matrix`) so that
inner loops stay cheap.  Positivity is decided by one Cholesky factorization
of the shifted Hermitian part; an eigendecomposition runs only to confirm and
report a failure.  Bath states are stored densely, which is adequate at the
documented limit of N <= 12 bath qubits, but the engines work on their
excitation blocks and never assemble a ``2**N x 2**N`` operator.
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
    report it.
    Raises :class:`ValidationError` naming the failing check.
    """
    rho = as_complex_matrix(rho)
    finite = np.isfinite(rho)
    if not finite.all():
        raise ValidationError(
            f"{name}: finiteness check failed "
            f"({rho.size - np.count_nonzero(finite)} non-finite entries)"
        )
    n, m = rho.shape
    if n != m:
        raise ValidationError(f"{name}: shape check failed, matrix is {n}x{m}")
    herm_dev = np.max(np.abs(rho - rho.conj().T))
    if herm_dev > TOL_HERM:
        raise ValidationError(
            f"{name}: hermiticity check failed (max |rho - rho^dag| = "
            f"{herm_dev:.3e}, tol {TOL_HERM:.1e})"
        )
    check_unit_trace(rho, name=name)
    shifted = (rho + rho.conj().T) / 2.0
    shifted[np.diag_indices(n)] += tol_psd
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        # the factorization can fail by rounding when the smallest
        # eigenvalue sits at -tol_psd, so the eigenvalue decides and is
        # reported
        min_eig = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)[0])
        if min_eig < -tol_psd:
            raise ValidationError(
                f"{name}: positivity check failed (min eigenvalue = "
                f"{min_eig:.3e}, tol {tol_psd:.1e})"
            ) from None
    return rho
