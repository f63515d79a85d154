"""Bath-cluster states, their validation and coherence classification.

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

Each family is stated once, as a :class:`Family` record in
:data:`FAMILIES`: its parameter, its CLI flag, its parameter check, its
spin-ladder weights and its closed-form rates.

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
from operator import mul

import numpy as np

from .collective import BasisOrdering, basis_ordering, block_sizes
from .errors import ValidationError, check_finite, check_integer, check_n
from .linalg import check_unit_trace, validate_density_matrix
from .utils import Record, fmt_complex

LABEL_POPULATION = "population"
LABEL_DISPLACEMENT = "displacement"
LABEL_SQUEEZING = "squeezing"
LABEL_HEC = "hec"
LABEL_INEFFECTIVE = "ineffective"


def _check_p_e(p_e):
    """Reject an excited probability outside [0, 1] (NaN included)."""
    if not 0.0 <= p_e <= 1.0:
        raise ValidationError(f"p_e: must be in [0, 1], got {p_e}")


def _gibbs_exponent(n_bar):
    """``x = log1p(1/n_bar)``, so ``r = n_bar/(n_bar+1) = exp(-x)``; ``+inf``
    at ``n_bar = 0`` (or ``-0``) and wherever ``1/n_bar`` overflows."""
    check_finite(n_bar, "n_bar", allow_zero=True)
    return math.log1p(1.0 / n_bar) if n_bar else math.inf


def thermal_hec_weights(N, n_bar):
    """Block traces ``w_k = norm r^k``, ``k = 0..N``, of the thermal-hec state,
    with ``r^k = exp(-k x)`` and ``norm = expm1(-x)/expm1(-(N+1)x)`` from one
    Gibbs exponent ``x``, so they sum to 1 to rounding at every ``n_bar``."""
    x = _gibbs_exponent(n_bar)
    weights = np.full(N + 1, math.expm1(-x) / math.expm1(-(N + 1) * x))
    weights[1:] *= np.exp(-x * np.arange(1, N + 1))  # k = 0 apart: inf * 0
    return weights


def _product_weights(N, p_e):
    """Ladder weights of a product state.  It fills excitation block ``k``
    with ``p^k (1-p)^(N-k)``, so it weighs each ``(j, m)`` of the triangle
    ``|m| <= j`` by that times ``d_j = C(N, N/2-j) - C(N, N/2-j-1)``
    (Schur-Weyl), the multiplicities taken from exact ints; its weights are
    normalized by their sum."""
    row = block_sizes(N)
    d_j = np.array([float(a - b) for a, b in zip(row[: N // 2 + 1], [0, *row])])
    # ladder j = N/2 - depth holds m = k - N/2 for depth <= k <= N - depth
    k = np.arange(N + 1)
    depth, k = np.nonzero(np.abs(2 * k - N) <= N - 2 * np.arange(N // 2 + 1)[:, None])
    w = d_j[depth] * p_e**k * (1.0 - p_e) ** (N - k)
    return N - 2 * depth, 2 * k - N, w / w.sum()


def product_mixed_rates(N, p_e):
    """``(r_e, r_d) = (N p_e, N (1-p_e))`` for an int N or an array of N."""
    _check_p_e(p_e)
    return N * p_e + 0.0, N * (1.0 - p_e)  # + 0.0: rate 0.0 for p_e = -0.0


def _langevin(y):
    """``coth(y) - 1/y`` elementwise for ``y >= 0`` (``inf`` included), from
    nonnegative terms only: below 1, ``y (y / sinh y) sum_n 2n y^(2n-2) /
    (2n+1)!`` by Horner; above, ``(1 - 1/y) + 2q/(1 - q)``, ``q = exp(-2y)``."""
    small = np.minimum(y, 1.0)
    big = np.maximum(y, 1.0)
    series = np.zeros_like(small)
    for n in range(9, 0, -1):
        series = series * small * small + 2 * n / math.factorial(2 * n + 1)
    q = np.exp(-2.0 * big)
    above = (1.0 - 1.0 / big) + 2.0 * q / (1.0 - q)
    return np.where(y < 1.0, small * series * (small / np.sinh(small)), above)


def thermal_hec_rates(N, n_bar):
    """Rates of the collectively thermalized bath, ``r_e = sum_{k=1..N}
    (1-r) r^k k (N-k+1) / (1 - r^(N+1))`` with ``r = n_bar/(n_bar+1)`` and
    ``r_d`` the same sum with ``r^(k-1)``, for an int N or an array of N.
    They cost O(1) per N: ``r_d - r_e = -2<J_z>`` and
    ``r_e = r r_d`` close the sums to ``r_d = (n_bar+1) D``, ``r_e = n_bar D``
    with ``D = (N+1) L((N+1)x/2) - L(x/2)``, ``L(y) = coth(y) - 1/y`` and the
    Gibbs exponent ``x = log1p(1/n_bar)`` (``D = N`` at ``n_bar = 0``).
    """
    x = _gibbs_exponent(n_bar)
    n_bar = n_bar + 0.0  # rate 0.0, not -0.0, for n_bar = -0.0
    N = np.asarray(N, dtype=float)
    D = (N + 1.0) * _langevin((N + 1.0) * (x / 2.0)) - _langevin(x / 2.0)
    D = np.minimum(D, N)  # D < N exactly; (N+1) L near 1 can round above
    return n_bar * D, (n_bar + 1.0) * D


def dicke_rates(N, k):
    """``(k(N-k+1), (k+1)(N-k))`` for ints or arrays of N and k.  Exact for
    ints; float arrays of integers below 2**53 give the same bits, one
    rounding of the exact product."""
    return k * (N - k + 1), (k + 1) * (N - k)


class Family(Record, frozen=True, eq=True):
    """A named bath family, as one frozen record: the :class:`BathSpec`
    ``field`` that holds its parameter, the CLI ``flag`` and its type
    ``conv`` that give it, the parameter ``check`` run before the qubit cap,
    the spin-ladder ``weights`` ``(two_j, two_m, w)`` with no cap (see
    :func:`ladder_weights`) and the closed-form ``rates`` ``(r_e, r_d)``.
    Each callable takes ``(N, value)``; the rates take an int N or an array
    of N.
    """

    field: str
    flag: str
    conv: type
    check: object
    weights: object
    rates: object


#: The named families, one record each.  Dicke and thermal-hec states are
#: symmetric (``j = N/2``, ``m = k - N/2``); a thermal-hec ``n_bar`` is
#: checked by its weights, after the cap.
FAMILIES = {
    "product": Family(
        "p_e", "pe", float, lambda N, p_e: _check_p_e(p_e), _product_weights, product_mixed_rates
    ),
    "thermal-hec": Family("n_bar", "nbar", float, lambda N, n_bar: None, lambda N, n_bar: (
        np.full(N + 1, N), 2 * np.arange(N + 1) - N, thermal_hec_weights(N, n_bar)
    ), thermal_hec_rates),
    "dicke": Family("k", "k", int, lambda N, k: check_integer(k, "k", 0, N), lambda N, k: (
        np.array([N]), np.array([2 * k - N]), np.ones(1)
    ), dicke_rates),
}

BATH_KINDS = (*FAMILIES, "explicit")


class BathSpec(Record, frozen=True):
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
        check_n(self.N)
        field = FAMILIES[self.kind].field if self.kind in FAMILIES else "rho"
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
        if self.kind in FAMILIES:
            d[FAMILIES[self.kind].field] = getattr(self, FAMILIES[self.kind].field)
        return d


def _symmetric_state(basis, weights):
    """The mixture ``sum_k w_k |D_k><D_k|`` of symmetric Dicke states: each
    excitation block ``k`` uniformly filled with ``weights[k] / C(N,k)``."""
    rho = np.zeros((basis.dim, basis.dim), dtype=complex)
    for k, w in enumerate(weights):
        blk = basis.block_slice(k)
        rho[blk, blk] = w / basis.sizes[k]
    return rho


def ladder_weights(spec):
    """Spin-ladder weights ``(two_j, two_m, w)`` of a named family: the
    state is ``sum w |j,m><j,m|`` over ladder states, a ladder of
    multiplicity ``d_j`` counted ``d_j`` times.  The family's parameter
    check runs first, then the qubit cap, then its :data:`FAMILIES`
    weights: the one check of a named bath before its state, its collision
    map or its classification.  Nothing ``2^N``-sized is built.
    """
    family = FAMILIES[spec.kind]
    value = getattr(spec, family.field)
    family.check(spec.N, value)
    check_n(spec.N, "basis_ordering")
    return family.weights(spec.N, value)


def validate_bath(spec):
    """Materialize a :class:`BathSpec` into a validated density matrix.

    A named family is checked by :func:`ladder_weights`, then filled in the
    canonical basis: a product bath is diagonal with ``p_e^k (1-p_e)^(N-k)``
    on every k-excitation state, and a thermal-hec or dicke bath is the
    symmetric mixture of its ladder weights, block ``k`` holding the weight
    of ``m = k - N/2``.  These are Hermitian with nonnegative weights on
    diagonal entries or uniformly filled blocks, so they are positive for
    every parameter the checks accept, and their weights sum to 1 to
    rounding; only the trace is checked.  Explicit matrices get the full
    :func:`validate_density_matrix` check.  Every kind is held to the
    qubit cap first, so callers validate before building the collective
    operators.  This is the one way to a named bath's ``2^N x 2^N`` matrix.
    """
    name = f"{spec.kind} bath"
    if spec.kind == "explicit":
        check_n(spec.N, name)  # before the validation temporaries
        return validate_density_matrix(np.asarray(spec.rho, dtype=complex), name=name)
    _, two_m, w = ladder_weights(spec)
    N, basis = spec.N, basis_ordering(spec.N)
    if spec.kind == "product":
        exc = basis.excitations.astype(float)
        rho = np.diag((spec.p_e**exc * (1.0 - spec.p_e) ** (N - exc)).astype(complex))
    else:
        rho = _symmetric_state(basis, np.bincount((two_m + N) // 2, w, N + 1))
    check_unit_trace(rho, name=name)
    return rho


class CoherenceMap(Record, frozen=True):
    """Per-entry classification of an N-qubit bath state in the canonical
    ``basis``, by the bit-pattern rule of the module docstring.

    Diagonal entries are populations.  Off the diagonal, one flipped qubit
    is displacement, and two flipped qubits are squeezing when the
    excitations differ (by 2) and heat exchange when they are equal.  The
    three operator patterns are disjoint, so every entry carries one label.
    Labels are computed entry by entry and the counts in closed form, so
    nothing ``4^N``-sized is built.
    """

    basis: BasisOrdering

    def primary(self, i, j):
        """The label of entry ``(i, j)``."""
        self.basis.check_index(i, "primary")
        self.basis.check_index(j, "primary")
        order, exc = self.basis.order, self.basis.excitations
        flips = int(order[i] ^ order[j]).bit_count()  # 0 only on the diagonal
        if flips == 2:
            return LABEL_HEC if exc[i] == exc[j] else LABEL_SQUEEZING
        return {0: LABEL_POPULATION, 1: LABEL_DISPLACEMENT}.get(flips, LABEL_INEFFECTIVE)

    def counts(self):
        """Number of ordered entries per label.  Each of the ``2^N`` states
        has ``N`` one-flip partners and ``C(N, 2)`` two-flip ones; a state
        with ``k`` excitations keeps its excitation in ``k(N-k)`` of the
        latter, and ``sum_k C(N,k) k(N-k) = N(N-1) 2^(N-2)``."""
        N, dim = self.basis.N, self.basis.dim
        two_flips = N * (N - 1) * dim // 4
        return {
            LABEL_POPULATION: dim,
            LABEL_DISPLACEMENT: N * dim,
            LABEL_SQUEEZING: two_flips,
            LABEL_HEC: two_flips,
            LABEL_INEFFECTIVE: dim * (dim - 1 - N) - 2 * two_flips,
        }

    def to_json_dict(self):
        """JSON-ready dict: block sizes, label counts and (for N <= 6) the
        upper-triangle entry list.  Labels are symmetric, so each unordered
        pair appears once."""
        basis = self.basis
        out = {
            "N": basis.N,
            "block_sizes": list(basis.sizes),
            "counts": self.counts(),
        }
        if basis.N <= 6:
            entries = []
            for i in range(basis.dim):
                for j in range(i + 1, basis.dim):
                    label = self.primary(i, j)
                    entries.append(
                        {
                            "i": i,
                            "j": j,
                            "state_i": basis.state_label(i),
                            "state_j": basis.state_label(j),
                            "k_i": int(basis.excitations[i]),
                            "k_j": int(basis.excitations[j]),
                            "labels": [label],
                            "primary": label,
                        }
                    )
            out["entries"] = entries
        return out


def classify_coherences(N):
    """Classify every entry of an N-qubit bath state by its dynamical role.

    The entry ``rho[i, j]`` enters the expectation value ``Tr(O rho)``
    through the operator element ``O[j, i]``.  For the collective moments
    that element is nonzero exactly when the bit patterns of the two basis
    states satisfy the rule in the module docstring, so the classification
    is positional: it depends on ``N`` alone, and the map holds only the
    basis (O(2^N) memory).
    """
    return CoherenceMap(basis_ordering(N))


BATH_CSV_BASIS = "excitation-sorted"


def _run_starts(flat, width):
    """Where the runs of equal entries of ``flat``'s rows of ``width`` start:
    at each row start and at each entry unequal to the one before it, so a
    NaN is a run of its own and ``-0.0`` joins a run of ``0.0``."""
    starts = np.empty(flat.size, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=starts[1:])
    starts[::width] = True
    return np.flatnonzero(starts)


def bath_to_csv(rho, N):
    """Serialize a bath matrix in canonical order to the CSV wire format.

    ``N`` is held to ``1..MAX_QUBITS`` and ``rho`` to ``2^N x 2^N``, as the
    reader holds them, before any text is built.  Each row is written by
    runs of equal entries, and each distinct run value is formatted once:
    a ladder state has about three runs a row and ``N + 2`` values,
    counting zero.  Values that compare equal format identically, ``-0.0``
    included, and NaNs are kept apart, so the text is the same as entry by
    entry.  One row's runs are held at a time.
    """
    check_n(N, "bath csv")
    dim = 2**N
    try:
        rho = np.asarray(rho, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bath csv: entries must be numbers ({exc})") from None
    if rho.shape != (dim, dim):
        raise ValidationError(
            f"bath csv: expected a {dim}x{dim} matrix for N={N}, got shape {rho.shape}"
        )
    flat = rho.ravel()
    first = _run_starts(flat, dim)
    values, inverse = np.unique(flat[first], return_inverse=True, equal_nan=False)
    cells = np.array([fmt_complex(z) + "," for z in values], dtype=object)
    runs = cells[inverse].tolist()
    lengths = np.diff(first, append=flat.size).tolist()
    bounds = np.searchsorted(first, np.arange(0, flat.size + 1, dim)).tolist()
    lines = [f"N={N},basis={BATH_CSV_BASIS}"]
    lines += ["".join(map(mul, runs[a:b], lengths[a:b]))[:-1] for a, b in zip(bounds, bounds[1:])]
    lines.append("")  # the final newline, without a copy of the whole text
    return "\n".join(lines)


def _parse_header(line):
    n_field, _, basis_field = line.replace(" ", "").partition(",")
    if not n_field.startswith("N=") or basis_field != f"basis={BATH_CSV_BASIS}":
        raise ValidationError(
            f"bath csv: header must be 'N=<n>,basis={BATH_CSV_BASIS}', "
            f"got {line!r}"
        )
    try:
        return int(n_field[2:])
    except ValueError as exc:
        raise ValidationError(f"bath csv: cannot parse N from {line!r}") from exc


def _entries_line(line):
    """A body line as the reader parses it: spaces removed, ``J`` read as ``j``."""
    return line.replace(" ", "").replace("J", "j") if " " in line or "J" in line else line


def _loadtxt(lines):
    """The entries of ``lines`` by one streamed ``np.loadtxt``, one row per line."""
    with warnings.catch_warnings():
        # no lines at all is reported as a row-count error by the reader
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(lines, dtype=complex, delimiter=",", ndmin=2, comments=None)


def _reads(text):
    """Whether :func:`_loadtxt` reads ``text`` as one row of as many
    entries as its commas delimit."""
    try:
        return _loadtxt([text]).size == text.count(",") + 1
    except ValueError:
        return False


def _read_bath(fh):
    """Read the CSV wire format from a seekable text stream.

    Every entry goes through one streamed ``np.loadtxt``, fed the body's
    lines with whitespace-only lines skipped, spaces removed and ``J`` read
    as ``j``: an entry reads as numpy's complex parse of it without its
    spaces, whatever the other lines hold.  Only when that fails or gives
    the wrong shape is the body read again, counting commas, to say which
    line is wrong, and then once more, line by line and entry by entry
    through the same parse, to name the first bad entry.  Lines and
    columns are counted from 1 over the whole file, header and blank lines
    included.
    """
    for number, line in enumerate(iter(fh.readline, ""), 1):
        if line.strip():
            break
    else:
        raise ValidationError("bath csv: empty input")
    N = _parse_header(line.rstrip("\n"))
    check_n(N, "bath csv")  # before the body is read
    dim = 2**N
    start, first = fh.tell(), number + 1
    error = None
    try:
        rho = _loadtxt(_entries_line(ln) for ln in fh if not ln.isspace())
        if rho.shape == (dim, dim):
            return N, rho
    except ValueError as exc:
        error = exc
    # a UnicodeDecodeError, which is a ValueError, is raised again by this read
    fh.seek(start)
    widths = [(n, ln.count(",") + 1) for n, ln in enumerate(fh, first) if not ln.isspace()]
    if len(widths) != dim:
        raise ValidationError(f"bath csv: expected {dim} rows for N={N}, got {len(widths)}")
    for n, width in widths:
        if width != dim:
            raise ValidationError(f"bath csv: line {n} has {width} entries, expected {dim}")
    fh.seek(start)
    for n, ln in enumerate(fh, first):
        entries = _entries_line(ln).rstrip("\n")
        if not ln.isspace() and not _reads(entries):
            for column, token in enumerate(entries.split(","), 1):
                if not _reads(token):
                    raise ValidationError(
                        f"bath csv: bad entry: {token!r} at line {n}, column {column}"
                    )
    raise ValidationError(f"bath csv: bad entry: {error}") from error


def bath_from_csv(text):
    """Parse the CSV wire format; returns ``(N, rho)`` without validation.

    Reads exactly as :func:`load_bath_csv`: one streamed ``np.loadtxt``."""
    return _read_bath(io.StringIO(text, newline=None))


def save_bath_csv(path, rho, N):
    """Write ``bath_to_csv(rho, N)`` to ``path``; a refused bath leaves
    ``path`` as it was, because the text is built before the file opens."""
    text = bath_to_csv(rho, N)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def load_bath_csv(path):
    """Read a bath CSV file; returns ``(N, rho)`` without validation.

    Every entry is read by one streamed ``np.loadtxt`` (see
    :func:`_read_bath`).  A file that is not UTF-8 raises its
    ``UnicodeDecodeError``; a malformed one, a :class:`ValidationError`."""
    with open(path, "r", encoding="utf-8") as fh:
        return _read_bath(fh)
