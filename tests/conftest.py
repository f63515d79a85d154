import functools
from fractions import Fraction

import numpy as np
import pytest

from qollide import (
    CollisionParams,
    ValidationError,
    basis_ordering,
    build_collective_ops,
    classify_coherences,
)
from qollide.linalg import TOL_HERM, TOL_PSD, TOL_TRACE


@functools.lru_cache(maxsize=None)
def cached_ops(N):
    return build_collective_ops(N)


@pytest.fixture
def ops_for():
    """Factory fixture returning (cached) collective operators for a given N."""
    return cached_ops


@pytest.fixture
def params():
    """Reference collision parameters with mu = p*(g*tau)**2 = 1."""
    return CollisionParams(g=0.1, tau=1.0, p=100.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240517)


def eigvalsh_oracle_accepts(rho):
    """The dense density-matrix check by a full eigendecomposition:
    hermiticity, unit trace and smallest eigenvalue >= -TOL_PSD."""
    herm = (rho + rho.conj().T) / 2.0
    return bool(
        np.max(np.abs(rho - rho.conj().T)) <= TOL_HERM
        and abs(np.trace(rho) - 1.0) <= TOL_TRACE
        and np.linalg.eigvalsh(herm)[0] >= -TOL_PSD
    )


#: The exact-rational thermal-hec grid: every N with every n_bar, plus one
#: N = 512 case at a moderate n_bar (at large n_bar its integers are long).
THERMAL_EXACT_N = (1, 2, 3, 4, 7, 30, 64)
THERMAL_EXACT_N_BAR = (
    0.0, 1e-300, 1e-3, 0.2, 0.731, 1.0, 2.0, 37.0, 1e3, 1e6, 1e8, 1e12, 1e14,
    1e16, 1e100, 1e300,
)
THERMAL_EXACT_CASES = [(N, n_bar) for N in THERMAL_EXACT_N for n_bar in THERMAL_EXACT_N_BAR]
THERMAL_EXACT_CASES.append((512, 0.731))


@functools.lru_cache(maxsize=None)
def thermal_hec_exact(N, n_bar):
    """``(r_e, r_d, [w_0..w_N])`` of the thermal-hec bath at the float
    ``n_bar`` in exact rational arithmetic, each rounded once to the nearest
    float.  With ``n_bar = a/b`` exactly, ``r = a/s`` for ``s = a + b``, and
    every term is an integer over the one denominator ``s^(N+1) - a^(N+1)``:
    ``w_k = b a^k s^(N-k) / (s^(N+1) - a^(N+1))``, ``r_e = sum_k k(N-k+1) w_k``
    and ``r_d`` the same sum with ``r^(k-1)``.  The quotient of two ints is
    rounded once, so no gcd of the long integers is ever taken."""
    a, b = Fraction(n_bar).as_integer_ratio()
    s = a + b
    pa = [a**k for k in range(N + 2)]
    ps = [s**k for k in range(N + 2)]
    den = ps[N + 1] - pa[N + 1]
    ks = range(1, N + 1)
    r_e = sum(k * (N - k + 1) * pa[k] * ps[N - k] for k in ks)
    r_d = sum(k * (N - k + 1) * pa[k - 1] * ps[N - k + 1] for k in ks)
    weights = [b * pa[k] * ps[N - k] / den for k in range(N + 1)]
    return b * r_e / den, b * r_d / den, weights


def fmt_float(x):
    """Oracle float formatting: 17 significant digits, ``-0.0`` as ``0``."""
    x = float(x)
    if x == 0.0:
        x = 0.0
    return f"{x:.17g}"


def expectation(op, rho):
    """Oracle expectation value ``Tr(op @ rho)`` of two dense square matrices."""
    op = np.asarray(op, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    if op.ndim != 2 or op.shape != rho.shape or op.shape[0] != op.shape[1]:
        raise ValidationError(
            f"expectation: incompatible shapes {op.shape} and {rho.shape}"
        )
    return complex(np.einsum("ij,ji->", op, rho))


def symmetric_dicke_vector(N, k):
    """Normalized equal-amplitude state over all ``C(N,k)`` k-excitation
    states, in the canonical basis."""
    basis = basis_ordering(N)
    if not 0 <= k <= N:
        raise ValidationError(f"symmetric_dicke_vector: k={k} out of range 0..{N}")
    v = np.zeros(basis.dim, dtype=complex)
    v[basis.block_slice(k)] = 1.0 / np.sqrt(basis.sizes[k])
    return v


def random_density_matrix(rng, dim):
    """Random full-rank density matrix (Ginibre construction)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


class DenseOps:
    """Test-only dense ``2**N x 2**N`` collective operators, assembled from
    the ladder blocks of :class:`qollide.CollectiveOps` (the library itself
    only stores the blocks)."""

    def __init__(self, ops):
        off = ops.basis.offsets
        dim = ops.basis.dim

        def dense(blocks):
            out = np.zeros((dim, dim), dtype=complex)
            for (row, col), block in blocks:
                out[off[row] : off[row + 1], off[col] : off[col + 1]] = block
            return out

        N, L = ops.N, ops.ladder
        self.J_minus = dense(((k - 1, k), L[k - 1]) for k in range(1, N + 1))
        self.J_plus = self.J_minus.conj().T.copy()
        self.J_plus_J_minus = dense(
            ((k, k), L[k - 1].conj().T @ L[k - 1]) for k in range(1, N + 1)
        )
        self.J_minus_J_plus = dense(((k, k), L[k] @ L[k].conj().T) for k in range(N))
        self.J_minus_sq = dense(
            ((k - 2, k), L[k - 2] @ L[k - 1]) for k in range(2, N + 1)
        )


@functools.lru_cache(maxsize=None)
def dense_ops(N):
    """Cached :class:`DenseOps` for ``N`` bath qubits."""
    return DenseOps(cached_ops(N))


@functools.lru_cache(maxsize=None)
def label_table(N):
    """The label of every entry of ``classify_coherences(N)``, read through
    ``primary``: a read-only ``2^N x 2^N`` object array of label strings."""
    cmap = classify_coherences(N)
    table = np.array(
        [[cmap.primary(i, j) for j in range(2**N)] for i in range(2**N)], dtype=object
    )
    table.setflags(write=False)
    return table
