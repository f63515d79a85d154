"""Exception types separating input/state validation from numeric failures,
and every limit a run is held to, with the one check of each kind of
argument: a single N, a sequence of N, an integer, a finite number and a
count of records.  README's "Scale limits" table lists the limits.

The checks read the limits when they run, so a limit changed here is the
limit of every caller.
"""

import math

import numpy as np


class QollideError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(QollideError, ValueError):
    """A precondition, configuration value or state invariant is invalid."""


class NumericError(QollideError, RuntimeError):
    """A numeric invariant broke during computation (drift, negativity,
    non-convergence)."""


#: Largest N of any ``2**N``-sized basis, state or operator.
MAX_QUBITS = 12

#: Largest N of a spin ladder of ``N + 1`` populations (``ladder_history``,
#: ``block_sizes``): its eigendecomposition is ``(N+1)**2`` floats, and
#: product multiplicities still fit a float below N = 1035.
MAX_LADDER_N = 1024

#: Largest N of a closed form or a sweep: every N, k and k(N-k+1) factor is
#: then an exact float.
MAX_SWEEP_N = 2**53

#: Time grids are limited to fewer steps than this (float steps stay exact).
MAX_STEPS = 2**53

#: Trajectories, ladder histories and sweeps hold at most this many records.
MAX_RECORDS = 10**6

#: Work limit of a stochastic collision run, in Bernoulli draws, with each
#: trajectory counted as 720 draws more: at about 12.5 ns a draw and 9 us a
#: trajectory (2-vCPU machine) the draws of an accepted run take under a
#: minute.  It does not bound the table of collision-map powers, one state
#: per collision count up to the largest one drawn: at ``p dt = 1`` that is
#: about 2 us and 110 bytes a draw (1e7 draws took 15 s and 1.3 GB).
MAX_DRAWS = 4 * 10**9

#: The refusals of more than :data:`MAX_RECORDS` records, and of a sweep
#: over more values of N, formatted with the count and the limit.
TOO_MANY_RECORDS = "n_records: {} records exceed the limit of {}; record fewer points"
TOO_MANY_POINTS = "N: {} points exceed the limit of {}; sweep fewer N"


def _decimal(n):
    """``n`` in decimal for a refusal's text; an int too long to print in
    decimal is shown by its sign and bit length."""
    try:
        return str(n)
    except ValueError:  # past sys.get_int_max_str_digits()
        return f"{'-' if n < 0 else ''}<int of {abs(n).bit_length()} bits>"


def check_integer(value, name, low=None, high=None):
    """Refuse a ``value`` that is not an integer (a Python or numpy int; a
    ``bool`` is not one), or one below ``low`` or outside ``low..high``,
    where given."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name}: must be an integer, got {value!r}")
    if high is not None and not low <= value <= high:
        raise ValidationError(f"{name}: must be in {low}..{_decimal(high)}, got {_decimal(value)}")
    if low is not None and value < low:
        raise ValidationError(f"{name}: must be >= {low}, got {_decimal(value)}")


def check_n(N, qubits_for=None, closed_form=False, ladder_for=None):
    """Refuse an N that is not an integer ``>= 1``.  With ``qubits_for``,
    the caller's name, N is held to ``1..MAX_QUBITS`` and a refusal of its
    range names the caller; with ``ladder_for`` an N above
    ``MAX_LADDER_N`` is refused the same way; a ``closed_form`` N is held
    to ``MAX_SWEEP_N``."""
    check_integer(N, "N", 1 if qubits_for is None else None)
    for caller, high in ((qubits_for, MAX_QUBITS), (ladder_for, MAX_LADDER_N)):
        if caller is not None and not 1 <= N <= high:
            raise ValidationError(f"{caller}: N={_decimal(N)} outside allowed range 1..{high}")
    if closed_form and N > MAX_SWEEP_N:
        raise ValidationError("N: must be <= 2**53")


def check_ns(Ns, name="N"):
    """Hold every N of a sequence for a closed form to the integers in
    ``1..MAX_SWEEP_N``, before any of them is turned into a float; an array
    is judged by its dtype and its ends, without iterating it."""
    array = isinstance(Ns, np.ndarray)
    if not (Ns.dtype.kind in "iu" if array else
            all(isinstance(N, (int, np.integer)) and not isinstance(N, bool) for N in Ns)):
        raise ValidationError(f"{name}: all N must be integers")
    low, high = (Ns.min(), Ns.max()) if array else (min(Ns), max(Ns))
    if low < 1:
        raise ValidationError(f"{name}: all N must be >= 1")
    if high > MAX_SWEEP_N:
        raise ValidationError(f"{name}: all N must be <= 2**53")


def check_finite(value, name, allow_zero=False):
    """Refuse a ``value`` that is not a finite number above 0 (or, with
    ``allow_zero``, at least 0); NaN is refused."""
    above = 0.0 <= value if allow_zero else 0.0 < value
    if not (above and value < math.inf):
        raise ValidationError(
            f"{name}: must be finite and {'>= 0' if allow_zero else 'positive'}, got {value}"
        )


def check_count(count, refusal=TOO_MANY_RECORDS):
    """Refuse a ``count`` of records or sweep points above
    :data:`MAX_RECORDS`, before anything of that size is built;
    ``refusal``, formatted with the count and the limit, is its text."""
    if count > MAX_RECORDS:
        raise ValidationError(refusal.format(count, MAX_RECORDS))
