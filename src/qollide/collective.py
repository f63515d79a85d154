"""Collective spin operators and excitation-block bookkeeping for N qubits.

Canonical storage basis
-----------------------
All bath operators and states in this package use the *excitation-sorted*
product basis: the ``2**N`` product states are grouped into blocks of fixed
excitation number ``k`` (block size ``C(N, k)``, ascending ``k``), and inside
a block states are ordered by their bit pattern read as a binary number with
qubit 1 as the most significant bit and an excited qubit encoded as bit 1.
Index 0 is therefore ``|g...g>``.  In this ordering the equal-excitation
coherence blocks are contiguous along the diagonal, the collective lowering
operator ``J- = sum_i sigma_i^-`` maps block ``k`` into block ``k - 1`` only,
and block-diagonal states are trivially indexable.

The permutation to and from the raw binary ordering is exposed through
:class:`BasisOrdering` for I/O.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .errors import ValidationError, check_n
from .utils import Record

def block_sizes(N):
    """Sizes ``[C(N,0), ..., C(N,N)]`` of the excitation blocks (Pascal row),
    for ``1 <= N <= MAX_LADDER_N``."""
    check_n(N, ladder_for="block_sizes")
    return [comb(N, k) for k in range(N + 1)]


class BasisOrdering(Record, frozen=True):
    """Permutation between binary and excitation-sorted basis orderings.

    Attributes
    ----------
    N : int
        Number of qubits.
    order : ndarray
        ``order[s]`` is the binary index of canonical basis state ``s``.
    position : ndarray
        Inverse permutation: ``position[b]`` is the canonical index of
        binary basis state ``b``.
    sizes : tuple of int
        Block sizes ``C(N, k)``.
    offsets : tuple of int
        Cumulative block starts; ``offsets[k]:offsets[k+1]`` is block ``k``.
    excitations : ndarray
        Excitation number of each canonical basis state.
    """

    N: int
    order: np.ndarray
    position: np.ndarray
    sizes: tuple
    offsets: tuple
    excitations: np.ndarray

    @property
    def dim(self):
        return 2**self.N

    def block_slice(self, k):
        """Index slice of excitation block ``k``."""
        if not 0 <= k <= self.N:
            raise ValidationError(f"block_slice: k={k} out of range 0..{self.N}")
        return slice(self.offsets[k], self.offsets[k + 1])

    def check_index(self, s, name):
        """Reject a canonical index outside ``0..dim-1``, naming the caller."""
        if not 0 <= s < self.dim:
            raise ValidationError(f"{name}: index {s} out of range 0..{self.dim - 1}")

    def state_label(self, s):
        """Pattern string like ``'gge'`` (qubit 1 first) of canonical index s."""
        self.check_index(s, "state_label")
        b = int(self.order[s])
        return "".join(
            "e" if (b >> (self.N - i)) & 1 else "g" for i in range(1, self.N + 1)
        )


def basis_ordering(N):
    """Build the :class:`BasisOrdering` for ``1 <= N <= MAX_QUBITS`` qubits."""
    check_n(N, "basis_ordering")
    sizes = tuple(block_sizes(N))
    binary = np.arange(2**N, dtype=np.intp)
    count = np.bitwise_count(binary).astype(np.intp)
    order = np.lexsort((binary, count))  # by excitation, then bit pattern
    position = np.empty_like(order)
    position[order] = binary
    offsets = (0, *np.cumsum(sizes).tolist())
    excitations = count[order]
    for arr in (order, position, excitations):
        arr.setflags(write=False)
    return BasisOrdering(N, order, position, sizes, offsets, excitations)


class CollectiveOps(Record, frozen=True):
    """Collective spin operators of ``N`` bath qubits in the canonical basis.

    ``ladder[k - 1]`` is the sub-block of ``J-`` mapping excitation block
    ``k`` into block ``k - 1`` (shape ``C(N,k-1) x C(N,k)``).  These blocks
    are the only operator storage: ``J+`` blocks are their adjoints, and the
    second moments ``J+J-``, ``J-J+`` and ``J-^2`` are their products, so
    moment extraction and the collision map scale with the block sizes
    instead of ``4**N``.  All arrays are read-only and safe to share.
    """

    N: int
    basis: BasisOrdering
    ladder: tuple


def build_collective_ops(N):
    """Construct :class:`CollectiveOps` for ``N`` qubits (``N <= MAX_QUBITS``)."""
    check_n(N, "build_collective_ops")
    basis = basis_ordering(N)
    sizes, offsets = basis.sizes, basis.offsets
    bits = 1 << np.arange(N, dtype=np.intp)

    ladder = []
    for k in range(1, N + 1):
        states = basis.order[offsets[k] : offsets[k + 1]]
        col, bit = np.nonzero(states[:, None] & bits)
        lowered = states[col] ^ bits[bit]  # one set bit cleared: block k - 1
        L = np.zeros((sizes[k - 1], sizes[k]), dtype=complex)
        L[basis.position[lowered] - offsets[k - 1], col] = 1
        L.setflags(write=False)
        ladder.append(L)
    return CollectiveOps(N, basis, tuple(ladder))


def dicke_ladder_transform(N):
    """Isometry (``2**N x (N+1)``) whose k-th column is the symmetric state
    with ``k`` excitations; ``(V * w) @ V^dag`` is the block fill of a symmetric
    bath in :func:`~qollide.baths.validate_bath`."""
    basis = basis_ordering(N)
    V = np.zeros((basis.dim, N + 1), dtype=complex)
    for k in range(N + 1):
        V[basis.block_slice(k), k] = 1.0 / np.sqrt(basis.sizes[k])
    return V


def j_z_diagonal(basis):
    """Diagonal of J_z = (1/2) sum_i sigma_i^z in the canonical basis."""
    return basis.excitations.astype(float) - basis.N / 2.0
