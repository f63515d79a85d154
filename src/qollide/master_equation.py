"""Master-equation coefficients and the reduced generator of the target qubit.

Repeated brief collisions (coupling ``g``, duration ``tau``, rate ``p``) of a
resonant target qubit with freshly prepared N-qubit clusters reduce, to
second order in ``g*tau``, to a Lindblad generator whose coefficients are
moments of the collective bath spin:

====================  =======================  ==========================
coefficient           moment                   effect on the target
====================  =======================  ==========================
``lam``               <J->                     coherent drive (displaced)
``eps``               <J-^2>                   squeezed environment
``r_e``               <J+J->                   excitation rate (thermal)
``r_d``               <J-J+>                   de-excitation rate (thermal)
====================  =======================  ==========================

The drive enters at first order with prefactor ``pg_tau = p*g*tau`` while
the dissipators enter at second order with ``mu = p*(g*tau)**2``; both are
stored explicitly because conflating the two orders is a classic mistake.

The target qubit is stored in the fixed basis ``(|e>, |g>)``: entry (0, 0)
of a qubit density matrix is the excited population.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .baths import FAMILIES, BathSpec, validate_bath
from .collective import build_collective_ops, j_z_diagonal
from .errors import NumericError, ValidationError, check_finite, check_n
from .utils import Record

# Target-qubit operators in the (|e>, |g>) basis.
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
PROJ_E = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
PROJ_G = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
for _op in (SIGMA_PLUS, SIGMA_MINUS, PROJ_E, PROJ_G):
    _op.setflags(write=False)

#: Above this value of g*tau the second-order truncation becomes dubious.
GT_ADVISORY = 0.3

_RATE_TOL = 1e-9


class CollisionParams(Record, frozen=True, eq=True):
    """Physical collision parameters (rates in inverse time units).

    ``g`` is the qubit-qubit coupling, ``tau`` the duration of a single
    collision, ``p`` the random collision rate and ``omega0`` the common
    resonance frequency (temperatures are reported in units of
    ``hbar*omega0/k_B``, so ``omega0`` never enters numerically).
    """

    g: float
    tau: float
    p: float
    omega0: float = 1.0

    def __post_init__(self):
        check_finite(self.g, "g", allow_zero=True)
        for field in ("tau", "p", "omega0"):
            check_finite(getattr(self, field), field)
        try:
            finite = math.isfinite(self.mu) and math.isfinite(self.pg_tau)
        except OverflowError:  # float ** raises where * gives inf
            finite = False
        if not finite:
            raise ValidationError(
                f"g, tau, p: the collision rates mu = p*(g*tau)**2 and pg_tau = "
                f"p*g*tau must be finite, got g={self.g}, tau={self.tau}, p={self.p}"
            )
        if self.g * self.tau > GT_ADVISORY:
            warnings.warn(
                f"g*tau = {self.g * self.tau:.3g} exceeds {GT_ADVISORY}; the "
                "second-order collision expansion may be inaccurate",
                stacklevel=3,  # past Record.__init__ to its caller
            )

    @property
    def g_tau(self):
        return self.g * self.tau

    @property
    def mu(self):
        """Dissipator rate prefactor p*(g*tau)**2."""
        return self.p * (self.g * self.tau) ** 2

    @property
    def pg_tau(self):
        """Drive prefactor p*g*tau."""
        return self.p * self.g * self.tau


class MeqCoefficients(Record, frozen=True, eq=True):
    """Coefficient tuple driving the target-qubit master equation."""

    lam: complex
    eps: complex
    r_e: float
    r_d: float
    mu: float
    pg_tau: float

    def __post_init__(self):
        for field in ("r_e", "r_d"):
            value = getattr(self, field)
            if value < -_RATE_TOL:
                raise ValidationError(
                    f"{field}: expectation of a positive operator cannot be "
                    f"{value}"
                )
            # clamp away harmless rounding negatives
            object.__setattr__(self, field, max(0.0, float(value)))
        object.__setattr__(self, "lam", complex(self.lam))
        object.__setattr__(self, "eps", complex(self.eps))
        if self.mu < 0.0:
            raise ValidationError(f"mu: must be >= 0, got {self.mu}")

    @property
    def thermal_only(self):
        """True when the drive and squeezing channels vanish."""
        return abs(self.lam) <= 1e-12 and abs(self.eps) <= 1e-12

    def to_json_dict(self):
        return {
            "lambda_re": self.lam.real,
            "lambda_im": self.lam.imag,
            "epsilon_re": self.eps.real,
            "epsilon_im": self.eps.imag,
            "r_e": self.r_e,
            "r_d": self.r_d,
            "mu": self.mu,
            "pg_tau": self.pg_tau,
        }


def coefficients_from_state(rho_b, ops, params):
    """Extract the coefficient tuple from an arbitrary bath state.

    Uses the block structure of the canonical basis: with ``L_k`` the
    sub-block of ``J-`` mapping excitation block ``k`` to ``k - 1``,

    * ``lam  = sum_k Tr(L_k rho[k, k-1])``
    * ``eps  = sum_k Tr(L_{k-1} L_k rho[k, k-2])``
    * ``r_e  = sum_k Tr(L_k rho[k, k] L_k^dag)``  (= Tr(J- rho J+))
    * ``r_d  = sum_k Tr(L_k^dag rho[k-1, k-1] L_k)``  (= Tr(J+ rho J-))

    so the cost scales with the squared block sizes rather than ``4**N``.
    """
    rho_b = np.asarray(rho_b, dtype=complex)
    N = ops.N
    dim = 2**N
    if rho_b.shape != (dim, dim):
        raise ValidationError(
            f"coefficients_from_state: state shape {rho_b.shape} does not "
            f"match N={N}"
        )
    offsets = ops.basis.offsets

    def block(i, j):
        return rho_b[offsets[i] : offsets[i + 1], offsets[j] : offsets[j + 1]]

    lam = 0.0j
    eps = 0.0j
    r_e = 0.0
    r_d = 0.0
    for k in range(1, N + 1):
        L = ops.ladder[k - 1]
        lam += np.einsum("ij,ji->", L, block(k, k - 1))
        # Tr(L B L^dag) and Tr(L^dag B L), each a matmul and a contraction
        r_e += float(np.sum((L @ block(k, k)) * L.conj()).real)
        r_d += float(np.sum(L.conj() * (block(k - 1, k - 1) @ L)).real)
        if k >= 2:
            eps += np.einsum("ij,ji->", ops.ladder[k - 2] @ L, block(k, k - 2))

    # consistency: r_d - r_e must equal -2<J_z> for any valid state
    jz = float(np.real(np.sum(j_z_diagonal(ops.basis) * np.diag(rho_b))))
    if abs((r_d - r_e) - (-2.0 * jz)) > 1e-8 * max(1.0, N):
        raise NumericError(
            "coefficients_from_state: rate difference inconsistent with "
            f"<J_z> ({r_d - r_e} vs {-2.0 * jz})"
        )
    return MeqCoefficients(lam, eps, r_e, r_d, params.mu, params.pg_tau)


def coefficients_for(spec, params):
    """Coefficients for a :class:`BathSpec`.

    A named family takes the closed-form rates of its
    :data:`~qollide.baths.FAMILIES` record, after N is held to
    ``1..MAX_SWEEP_N`` and its parameter is checked:

    * product: ``r_e = N p_e``, ``r_d = N (1-p_e)``;
    * thermal-hec: ``r_e = sum_k w_k k(N-k+1)``, ``r_d = sum_k w_{k-1}
      k(N-k+1)`` over the Gibbs block weights ``w_k`` (closed in O(1) by
      :func:`~qollide.baths.thermal_hec_rates`);
    * dicke: ``r_e = k(N-k+1)``, ``r_d = (k+1)(N-k)``.

    An explicit matrix takes the block-structured trace of
    :func:`coefficients_from_state`.
    """
    if not isinstance(spec, BathSpec):
        raise ValidationError("coefficients_for: expected a BathSpec")
    if spec.kind in FAMILIES:
        family = FAMILIES[spec.kind]
        value = getattr(spec, family.field)
        check_n(spec.N, closed_form=True)
        family.check(spec.N, value)
        r_e, r_d = family.rates(spec.N, value)
        return MeqCoefficients(0.0j, 0.0j, r_e, r_d, params.mu, params.pg_tau)
    rho = validate_bath(spec)
    return coefficients_from_state(rho, build_collective_ops(spec.N), params)


def _qubit_matrix(rho, name):
    """``rho`` as a complex array, refused naming ``name`` unless it is 2x2."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValidationError(f"{name}: expected a 2x2 state, got {rho.shape}")
    return rho


def lindblad_rhs(rho_q, c):
    """Right-hand side of the target-qubit master equation.

    ``d rho/dt = -i pg_tau [lam s+ + lam* s-, rho] + mu (eps s+ rho s+ +
    eps* s- rho s-) + (mu r_d/2)(2 s- rho s+ - {s+s-, rho}) + (mu r_e/2)
    (2 s+ rho s- - {s-s+, rho})``.  Trace-free, Hermiticity preserving.
    """
    rho_q = _qubit_matrix(rho_q, "lindblad_rhs")
    out = np.zeros((2, 2), dtype=complex)
    if c.lam != 0:
        h_eff = c.lam * SIGMA_PLUS + np.conj(c.lam) * SIGMA_MINUS
        out += -1j * c.pg_tau * (h_eff @ rho_q - rho_q @ h_eff)
    if c.eps != 0:
        out += c.mu * (
            c.eps * (SIGMA_PLUS @ rho_q @ SIGMA_PLUS)
            + np.conj(c.eps) * (SIGMA_MINUS @ rho_q @ SIGMA_MINUS)
        )
    out += (c.mu * c.r_d / 2.0) * (
        2.0 * SIGMA_MINUS @ rho_q @ SIGMA_PLUS
        - PROJ_E @ rho_q
        - rho_q @ PROJ_E
    )
    out += (c.mu * c.r_e / 2.0) * (
        2.0 * SIGMA_PLUS @ rho_q @ SIGMA_MINUS
        - PROJ_G @ rho_q
        - rho_q @ PROJ_G
    )
    return out
