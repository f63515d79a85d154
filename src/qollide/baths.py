"""Bath-cluster state constructors and coherence classification.

Three families of N-qubit bath states drive qualitatively different target
dynamics:

* ``product``: every bath qubit in the same incoherent mixture with excited
  probability ``p_e`` (a bath of independent thermal spins),
* ``thermal-hec``: the collectively thermalized state, block-diagonal with
  every excitation block ``k`` filled uniformly with the coefficient
  ``d_k = (1 - r) r^k / ((1 - r^(N+1)) C(N,k))`` where ``r = n/(n+1)`` for
  mean photon number ``n``,
* ``dicke``: a single fully symmetric state with ``k`` excitations, i.e.
  one uniformly filled block ``U_k / C(N,k)``.

Coherence classification
------------------------
An off-diagonal entry ``(i, j)`` of a bath state matters to the reduced
target dynamics only through the first and second moments of the collective
spin, so each entry is classified *operationally* by which operator has a
nonzero matrix element at the transposed position: ``J+-`` (displacement),
``J+-^2`` (squeezing), ``J+J-``/``J-J+`` (heat exchange), otherwise
ineffective.  Each of these operators is a sum of one- or two-qubit flips
with positive weights, so its nonzero pattern is a bit-pattern rule on the
two product states: displacement when they differ in exactly one qubit,
squeezing when they differ in two qubits that are both excited in one of
them, heat exchange when they differ in two qubits and have equal
excitation.

Note a geometric rule of thumb ("anti-diagonal entries of an equal-excitation
block are ineffective") holds only when the paired states are more than one
excitation move apart; for N=2 the central block's anti-diagonal entry
(|ge>, |eg>) is a single move and does contribute to <J+J->.  The operator
test is the definition that keeps the master-equation coefficients exact.
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .collective import _check_qubits, basis_ordering, block_sizes
from .errors import ValidationError
from .linalg import check_unit_trace, validate_density_matrix
from .utils import fmt_complex, parse_complex

BATH_KINDS = ("product", "thermal-hec", "dicke", "explicit")

#: The parameter each bath kind requires.
_REQUIRED = {"product": "p_e", "thermal-hec": "n_bar", "dicke": "k", "explicit": "rho"}

LABEL_POPULATION = "population"
LABEL_DISPLACEMENT = "displacement"
LABEL_SQUEEZING = "squeezing"
LABEL_HEC = "hec"
LABEL_INEFFECTIVE = "ineffective"


@dataclass(frozen=True, eq=False)
class BathSpec:
    """Declarative description of a bath state (kind plus parameters).

    The parameter the kind needs is required: ``p_e`` (product), ``n_bar``
    (thermal-hec), ``k`` (dicke) or a ``2^N x 2^N`` ``rho`` (explicit).
    Their ranges are checked where the state or its coefficients are built.
    """

    N: int
    kind: str
    p_e: float = None
    n_bar: float = None
    k: int = None
    rho: np.ndarray = None

    def __post_init__(self):
        if self.kind not in BATH_KINDS:
            raise ValidationError(
                f"bath kind: {self.kind!r} not one of {BATH_KINDS}"
            )
        if self.N < 1:
            raise ValidationError(f"N: must be >= 1, got {self.N}")
        field = _REQUIRED[self.kind]
        if getattr(self, field) is None:
            article = "an" if self.kind == "explicit" else "a"
            raise ValidationError(f"{field}: required for {article} {self.kind} bath")
        if self.kind == "explicit" and np.shape(self.rho) != (2**self.N, 2**self.N):
            raise ValidationError(
                f"rho: shape {np.shape(self.rho)} does not match N={self.N}"
            )

    @classmethod
    def product_mixed(cls, N, p_e):
        return cls(N=N, kind="product", p_e=p_e)

    @classmethod
    def thermal_hec(cls, N, n_bar):
        return cls(N=N, kind="thermal-hec", n_bar=n_bar)

    @classmethod
    def dicke(cls, N, k):
        return cls(N=N, kind="dicke", k=k)

    @classmethod
    def explicit(cls, rho):
        rho = np.asarray(rho, dtype=complex)
        dim = rho.shape[0]
        N = int(dim).bit_length() - 1
        if dim < 2 or 2**N != dim or rho.shape != (dim, dim):
            raise ValidationError(
                f"explicit bath: dimension {rho.shape} is not a square power of two"
            )
        return cls(N=N, kind="explicit", rho=rho)

    def describe(self):
        """Provenance dict for JSON output: kind, N and the kind's parameter
        (none for an explicit matrix)."""
        d = {"kind": self.kind, "N": self.N}
        if self.kind != "explicit":
            field = _REQUIRED[self.kind]
            d[field] = getattr(self, field)
        return d


def product_mixed_state(N, p_e):
    """Bath of N independent qubits, each excited with probability ``p_e``.

    Diagonal in the canonical basis with weight ``p_e**k (1-p_e)**(N-k)`` on
    every k-excitation state.
    """
    _check_p_e(p_e)
    basis = basis_ordering(N)
    exc = basis.excitations.astype(float)
    diag = p_e**exc * (1.0 - p_e) ** (N - exc)
    return np.diag(diag.astype(complex))


def check_n_bar(n_bar):
    """Reject a mean photon number that is negative or not finite."""
    if not 0.0 <= n_bar < math.inf:
        raise ValidationError(f"n_bar: must be finite and >= 0, got {n_bar}")


def _check_p_e(p_e):
    """Reject an excited probability outside [0, 1] (NaN included)."""
    if not 0.0 <= p_e <= 1.0:
        raise ValidationError(f"p_e: must be in [0, 1], got {p_e}")


def _check_k(N, k):
    """Reject an excitation count outside ``0..N``."""
    if not 0 <= k <= N:
        raise ValidationError(f"k: must be in 0..{N}, got {k}")


def _gibbs_exponent(n_bar):
    """``x = log1p(1/n_bar)``, so ``r = n_bar/(n_bar+1) = exp(-x)``; ``+inf``
    at ``n_bar = 0`` (or ``-0``) and wherever ``1/n_bar`` overflows."""
    check_n_bar(n_bar)
    return math.log1p(1.0 / n_bar) if n_bar else math.inf


def thermal_hec_weights(N, n_bar):
    """Block traces ``w_k = norm r^k``, ``k = 0..N``, of the thermal-hec state,
    with ``r^k = exp(-k x)`` and ``norm = expm1(-x)/expm1(-(N+1)x)`` from one
    Gibbs exponent ``x``, so they sum to 1 to rounding at every ``n_bar``."""
    x = _gibbs_exponent(n_bar)
    weights = np.full(N + 1, math.expm1(-x) / math.expm1(-(N + 1) * x))
    weights[1:] *= np.exp(-x * np.arange(1, N + 1))  # k = 0 apart: inf * 0
    return weights


def _symmetric_state(basis, weights):
    """The mixture ``sum_k w_k |D_k><D_k|`` of symmetric Dicke states: each
    excitation block ``k`` uniformly filled with ``weights[k] / C(N,k)``."""
    rho = np.zeros((basis.dim, basis.dim), dtype=complex)
    for k, w in enumerate(weights):
        blk = basis.block_slice(k)
        rho[blk, blk] = w / basis.sizes[k]
    return rho


def thermal_hec_state(N, n_bar):
    """Collectively thermalized bath state at mean photon number ``n_bar``.

    Block-diagonal with every excitation block ``k`` uniformly filled with
    ``d_k = w_k / C(N,k)``, ``w_k`` from :func:`thermal_hec_weights`.
    Consecutive block traces are in the Gibbs ratio ``r = n_bar/(n_bar+1)``.
    """
    basis = basis_ordering(N)  # the qubit cap, before the weights
    return _symmetric_state(basis, thermal_hec_weights(N, n_bar))


def dicke_block_state(N, k):
    """Pure fully symmetric state with exactly ``k`` excited bath qubits."""
    _check_k(N, k)
    return _symmetric_state(basis_ordering(N), np.eye(N + 1)[k])


#: The constructor of each named family, called with N and the kind's parameter.
_FAMILIES = {"product": product_mixed_state, "thermal-hec": thermal_hec_state, "dicke": dicke_block_state}


def check_named_bath(spec):
    """Check a named family's parameter and the qubit cap without building
    its state or its basis, in the order (and with the messages) of its
    constructor."""
    if spec.kind == "product":
        _check_p_e(spec.p_e)
    elif spec.kind == "dicke":
        _check_k(spec.N, spec.k)
    _check_qubits(spec.N, "basis_ordering")
    if spec.kind == "thermal-hec":
        check_n_bar(spec.n_bar)


def ladder_weights(spec):
    """Spin-ladder weights ``(two_j, two_m, w)`` of a named family, checked
    by :func:`check_named_bath`: the state is ``sum w |j,m><j,m|`` over
    ladder states, a ladder of multiplicity ``d_j`` counted ``d_j`` times.

    Dicke and thermal-hec states are symmetric (``j = N/2``, ``m = k -
    N/2``).  A product state fills excitation block ``k`` with ``p^k
    (1-p)^(N-k)``, so it weighs each ``(j, m)`` of the triangle ``|m| <= j``
    by that times ``d_j = C(N, N/2-j) - C(N, N/2-j-1)`` (Schur-Weyl), the
    multiplicities taken from exact ints; its weights are normalized by
    their sum.  Nothing ``2^N``-sized is built.
    """
    check_named_bath(spec)
    N = spec.N
    k = np.arange(N + 1)
    if spec.kind == "dicke":
        return np.array([N]), np.array([2 * spec.k - N]), np.ones(1)
    if spec.kind == "thermal-hec":
        return np.full(N + 1, N), 2 * k - N, thermal_hec_weights(N, spec.n_bar)
    row = block_sizes(N)
    d_j = np.array([float(a - b) for a, b in zip(row[: N // 2 + 1], [0, *row])])
    # ladder j = N/2 - depth holds m = k - N/2 for depth <= k <= N - depth
    depth, k = np.nonzero(np.abs(2 * k - N) <= N - 2 * np.arange(N // 2 + 1)[:, None])
    w = d_j[depth] * spec.p_e**k * (1.0 - spec.p_e) ** (N - k)
    return N - 2 * depth, 2 * k - N, w / w.sum()


def validate_bath(spec):
    """Materialize a :class:`BathSpec` into a validated density matrix.

    The named families are Hermitian with nonnegative weights on diagonal
    entries or uniformly filled blocks, so they are positive for every
    parameter their constructors accept, and their weights sum to 1 to
    rounding; only the trace is checked.  Explicit matrices get the
    full :func:`validate_density_matrix` check.  Every kind is held to the
    qubit cap first: the named families by their basis, an explicit matrix
    here, so callers validate before building the collective operators.
    """
    name = f"{spec.kind} bath"
    if spec.kind == "explicit":
        _check_qubits(spec.N, name)  # before the validation temporaries
        return validate_density_matrix(np.asarray(spec.rho, dtype=complex), name=name)
    rho = _FAMILIES[spec.kind](spec.N, getattr(spec, _REQUIRED[spec.kind]))
    check_unit_trace(rho, name=name)
    return rho


@dataclass(frozen=True, eq=False)
class CoherenceMap:
    """Per-entry classification of a bath density matrix.

    Boolean masks mark which positions feed each master-equation channel;
    labels are symmetric and diagonal entries are populations.  An entry may
    in principle carry several labels (all are retained); the primary label
    follows the precedence displacement > squeezing > heat exchange.
    """

    N: int
    excitations: np.ndarray
    displacement: np.ndarray
    squeezing: np.ndarray
    hec: np.ndarray

    @property
    def dim(self):
        return 2**self.N

    def labels(self, i, j):
        """All labels carried by entry ``(i, j)``."""
        if i == j:
            return (LABEL_POPULATION,)
        found = []
        if self.displacement[i, j]:
            found.append(LABEL_DISPLACEMENT)
        if self.squeezing[i, j]:
            found.append(LABEL_SQUEEZING)
        if self.hec[i, j]:
            found.append(LABEL_HEC)
        return tuple(found) if found else (LABEL_INEFFECTIVE,)

    def primary(self, i, j):
        """Primary label of entry ``(i, j)`` (precedence as documented)."""
        return self.labels(i, j)[0]

    def counts(self):
        """Number of ordered entries per primary label."""
        dim = self.dim
        n_disp = int(self.displacement.sum())
        n_sq = int(np.count_nonzero(self.squeezing & ~self.displacement))
        n_hec = int(
            np.count_nonzero(self.hec & ~self.squeezing & ~self.displacement)
        )
        return {
            LABEL_POPULATION: dim,
            LABEL_DISPLACEMENT: n_disp,
            LABEL_SQUEEZING: n_sq,
            LABEL_HEC: n_hec,
            LABEL_INEFFECTIVE: dim * dim - dim - n_disp - n_sq - n_hec,
        }

    def to_json_dict(self):
        """JSON-ready dict: block sizes, label counts and (for N <= 6) the
        upper-triangle entry list.  Labels are symmetric, so each unordered
        pair appears once."""
        basis = basis_ordering(self.N)
        out = {
            "N": self.N,
            "block_sizes": list(basis.sizes),
            "counts": self.counts(),
        }
        if self.N <= 6:
            entries = []
            for i in range(self.dim):
                for j in range(i + 1, self.dim):
                    entries.append(
                        {
                            "i": i,
                            "j": j,
                            "state_i": basis.state_label(i),
                            "state_j": basis.state_label(j),
                            "k_i": int(self.excitations[i]),
                            "k_j": int(self.excitations[j]),
                            "labels": list(self.labels(i, j)),
                            "primary": self.primary(i, j),
                        }
                    )
            out["entries"] = entries
        return out


def classify_coherences(rho, ops):
    """Classify every entry of a bath density matrix by its dynamical role.

    The entry ``rho[i, j]`` enters the expectation value ``Tr(O rho)``
    through the operator element ``O[j, i]``.  For the collective moments
    that element is nonzero exactly when the bit patterns of the two basis
    states satisfy the rule in the module docstring, so the masks follow
    from the Hamming distance and the excitation difference of each pair,
    taken on ``uint16`` bit patterns and ``int8`` excitations (``N <= 12``).
    The classification is positional: ``rho`` only has its shape checked,
    and may be None for a bath known by its ``N``.
    """
    dim = 2**ops.N
    if rho is not None and np.shape(rho) != (dim, dim):
        raise ValidationError(
            f"classify_coherences: state shape {np.shape(rho)} does not match "
            f"N={ops.N} (expected {dim}x{dim})"
        )
    order = ops.basis.order.astype(np.uint16)
    exc = ops.basis.excitations.astype(np.int8)
    flips = np.bitwise_count(order[:, None] ^ order)
    gap = np.abs(exc[:, None] - exc)
    displacement = flips == 1
    squeezing = (flips == 2) & (gap == 2)
    hec = (flips == 2) & (gap == 0)
    for mask in (displacement, squeezing, hec):
        mask.setflags(write=False)
    return CoherenceMap(ops.N, ops.basis.excitations, displacement, squeezing, hec)


BATH_CSV_BASIS = "excitation-sorted"


def bath_to_csv(rho, N):
    """Serialize a bath matrix in canonical order to the CSV wire format.

    Each distinct value is formatted once: bath states repeat few values
    (a ladder state has ``N + 2`` of them, counting zero).  Values that
    compare equal format identically, ``-0.0`` included, and NaNs are kept
    apart, so the text is the same as entry by entry.
    """
    rho = np.asarray(rho, dtype=complex)
    values, inverse = np.unique(rho.ravel(), return_inverse=True, equal_nan=False)
    cells = np.array([fmt_complex(z) for z in values], dtype=object)
    rows = cells[inverse].reshape(rho.shape).tolist()
    lines = [f"N={N},basis={BATH_CSV_BASIS}", *(",".join(row) for row in rows)]
    return "\n".join(lines) + "\n"


def _parse_header(line):
    header = line.replace(" ", "")
    if not header.startswith("N=") or f",basis={BATH_CSV_BASIS}" not in header:
        raise ValidationError(
            f"bath csv: header must be 'N=<n>,basis={BATH_CSV_BASIS}', "
            f"got {line!r}"
        )
    try:
        return int(header[2:].split(",")[0])
    except ValueError as exc:
        raise ValidationError(f"bath csv: cannot parse N from {line!r}") from exc


def _parse_rows(text, N):
    """Entry-by-entry parse of the rows after the header: accepts every form
    :func:`parse_complex` does and names the first offending row."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    dim = 2**N
    if len(lines) != dim:
        raise ValidationError(
            f"bath csv: expected {dim} rows for N={N}, got {len(lines)}"
        )
    rho = np.zeros((dim, dim), dtype=complex)
    for i, line in enumerate(lines):
        tokens = line.split(",")
        if len(tokens) != dim:
            raise ValidationError(
                f"bath csv: row {i} has {len(tokens)} entries, expected {dim}"
            )
        try:
            rho[i] = [parse_complex(t) for t in tokens]
        except ValueError as exc:
            raise ValidationError(f"bath csv: bad entry in row {i}: {exc}") from exc
    return rho


def _read_bath(fh):
    """Read the CSV wire format from a seekable text stream.

    The rows are streamed into one ``np.loadtxt``; only when that fails or
    gives the wrong shape are they parsed again entry by entry, which
    accepts the spaced or upper-case forms ``complex()`` takes (``1 + 2j``,
    ``1+2J``), skips whitespace-only lines and reports what is wrong.
    """
    for line in iter(fh.readline, ""):
        if line.strip():
            break
    else:
        raise ValidationError("bath csv: empty input")
    N = _parse_header(line.rstrip("\n"))
    _check_qubits(N, "bath csv")  # before the body is read
    dim = 2**N
    start = fh.tell()
    try:
        with warnings.catch_warnings():
            # an empty body is reported as a row-count error below
            warnings.simplefilter("ignore", UserWarning)
            rho = np.loadtxt(fh, dtype=complex, delimiter=",", ndmin=2, comments=None)
        if rho.shape == (dim, dim):
            return N, rho
    except ValueError:
        pass
    fh.seek(start)
    return N, _parse_rows(fh.read(), N)


def bath_from_csv(text):
    """Parse the CSV wire format; returns ``(N, rho)`` without validation."""
    return _read_bath(io.StringIO(text, newline=None))


def save_bath_csv(path, rho, N):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(bath_to_csv(rho, N))


def load_bath_csv(path):
    """Read a bath CSV file; returns ``(N, rho)`` without validation."""
    with open(path, "r", encoding="utf-8") as fh:
        return _read_bath(fh)
