"""Command-line front end.

Subcommands: ``coeffs``, ``evolve``, ``sweep``, ``classify``, ``prepare`` and
``figures``, each built from one table of options.  Every option can also
be supplied through a flat key-value config file (``--config``);
command-line flags win over config entries.  A config key must name an
option of some subcommand (another subcommand's key is accepted, unused).
Flag and config values are text until the run reads them, so a malformed
one of either is one ``error:`` line, as is a parser failure (an unknown
flag, a missing value or subcommand).  A flag is spelled in full, as a
config key is: a prefix such as ``--kr`` is an unrecognized argument.
Output files are UTF-8 with LF line endings and all floats carry 17
significant digits, so identical inputs produce byte-identical files.
Every float option reads ``-0`` as ``0`` (a refused one echoes ``0.0``).
An ``--n-points`` of zero or less records nothing: the trajectory or
ladder CSV is its header alone, written after the same checks as any other
run, and ``prepare`` still writes the bath state at ``--t-end``, the same
bytes for any ``--n-points``.  A failing ``prepare`` writes neither file.
Every size limit is defined in :mod:`qollide.errors` and listed, with its
refusal, in the table that opens README's "Scale limits": the qubit cap
``N <= 12`` of every ``2**N``-sized structure (the ``prepare`` state
included), ``N <= 2**53`` of the closed forms (``coeffs`` for a named
family, ``sweep``), the time-grid steps, the records of every engine (the
analytic one included) and the values of N of a sweep, and the draws of a
stochastic run.  Each is checked before anything of that size is built: a
bath CSV's header ``N`` before its rows are read, a sweep's range before
its list.  At ``--t-end 0`` every engine writes the one row at ``t = 0``.
Collision rates that overflow a float are refused, and so is a relaxation
rate ``mu (r_e + r_d)`` that overflows, before any state or row is
computed.  ``classify`` maps a bath by its ``N`` alone, after checking a
named family's parameter or validating an explicit matrix.  A state that
overflows exits 3.

Exit codes: 0 success; 2 configuration error, an output that cannot be
written, or a run too large for the available memory; 3 numeric invariant
violation, or a failed linear-algebra routine.  Each failure prints one
``error:`` or ``numeric error:`` line to stderr and no traceback; each
accuracy advisory, a Python warning, is printed as one ``warning:`` line.  A
command opens every output file before it writes any, so one that cannot
be opened, or two that reach one regular file, print nothing and change
no file; a write that fails later removes only the files it created.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import json
import os
import stat
import sys
import warnings

import numpy as np

from .baths import BATH_KINDS, FAMILIES, BathSpec, bath_to_csv, classify_coherences
from .baths import dicke_rates, ladder_weights, load_bath_csv, validate_bath
from .collective import basis_ordering
from .dynamics import (
    K_RULES,
    SCHEMES,
    _csv_text,
    _distinct_sorted,
    _ladder_bath,
    analytic_trajectory,
    collision_chain,
    integrate_master,
    ladder_history,
    qubit_state,
    scaling_sweep,
)
from .errors import TOO_MANY_POINTS, NumericError, ValidationError, check_count, check_finite
from .master_equation import CollisionParams, coefficients_for

DEFAULT_PARAMS = {"g": 0.1, "tau": 1.0, "p": 100.0, "omega0": 1.0}

ENGINES = ("analytic", "ode", "collisions")
MODES = ("exact", "second-order")


def _unreadable(name, path, exc):
    """The configuration error for a file that cannot be read or is not
    UTF-8 text.  A decode error's byte position counts from the chunk the
    stream was decoding, not from the start of the file, so it is left out."""
    reason = f"not UTF-8 text ({exc.reason})" if isinstance(exc, UnicodeDecodeError) else exc
    return ValidationError(f"{name}: cannot read {path}: {reason}")


def load_config(path):
    """Parse a flat ``key = value`` config file ('#' starts a comment)."""
    config = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValidationError(
                        f"config: line {lineno} is not 'key = value': {raw.rstrip()!r}"
                    )
                key, value = line.split("=", 1)
                name = key.strip().replace("-", "_")
                if name not in _OPTIONS:  # another subcommand's key is fine
                    raise ValidationError(f"config: line {lineno}: unknown key {key.strip()!r}")
                config[name] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise _unreadable("config", path, exc) from exc
    return config


def _get(args, config, name, conv=str, default=None, required=False, choices=None):
    """``name``'s value from its flag, else its config entry, else
    ``default``; flag and config text alike are converted by ``conv``."""
    raw, source = getattr(args, name, None), "flag"
    if raw is None and name in config:
        raw, source = config[name], "config"
    if raw is not None:
        try:
            value = conv(raw)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{name}: cannot parse {source} value {raw!r}") from exc
    elif required:
        raise ValidationError(f"{name}: missing required value")
    else:
        value = default
    if conv is float and value is not None:
        value += 0.0  # -0 reads as 0
    if choices is not None and value is not None and value not in choices:
        raise ValidationError(f"{name}: must be one of {tuple(choices)}, got {value!r}")
    return value


def _write(*outputs):
    """Write each ``(path, text)`` pair: the files, then the texts whose path
    is None to stdout, which is flushed.  Every file is opened before any is
    written, so an output that cannot be opened leaves every file as it was;
    that, a later failed write (stdout's included), or two outputs that
    reach one regular file (refused before any is opened) is a configuration
    error.  On failure the regular files this call created are removed, and
    nothing else."""
    files = [(path, text) for path, text in outputs if path is not None]
    seen = {}
    for path, _ in files:
        try:  # a regular file by its inode; a path to be created, resolved
            st = os.stat(path)
            key = (st.st_dev, st.st_ino) if stat.S_ISREG(st.st_mode) else None
        except OSError:
            key = os.path.realpath(path)
        if key in seen:
            raise ValidationError(f"output: {seen[key]} and {path} are the same file")
        if key is not None:
            seen[key] = path
    handles, created = [], []
    try:
        for path, _ in files:
            new = not os.path.lexists(path)
            handles.append(open(path, "a", encoding="utf-8", newline="\n"))
            if new:  # so a regular file, made by this open
                created.append(path)
        for fh, (path, text) in zip(handles, files):
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):  # "a" kept its bytes
                fh.truncate(0)
            fh.write(text)
            fh.close()
        path = "<stdout>"
        sys.stdout.writelines(text for target, text in outputs if target is None)
        sys.stdout.flush()
    except OSError as exc:
        for fh in handles:
            with contextlib.suppress(OSError):
                fh.close()
        for done in created:
            with contextlib.suppress(OSError):  # the error below is the one to report
                os.remove(done)
        if path == "<stdout>":  # its unwritten bytes go nowhere when Python exits
            with contextlib.suppress(OSError, ValueError), open(os.devnull, "w") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())  # no descriptor: left as is
        raise ValidationError(f"output: cannot write {path}: {exc.strerror or exc}") from exc


def _json(obj):
    return json.dumps(obj, indent=2) + "\n"


def parse_n_range(text):
    """Parse an N list: ``4:64:4`` (inclusive, default step 1), ``4,8,12``
    or a single integer.  More points than a sweep takes are refused
    before the list is built."""
    s = str(text).strip()
    try:
        if ":" in s:
            parts = [int(p) for p in s.split(":")]
            if len(parts) == 2:
                start, stop, step = parts[0], parts[1], 1
            elif len(parts) == 3:
                start, stop, step = parts
            else:
                raise ValueError
            if step < 1 or stop < start:
                raise ValueError
            # counted, not taken by len(), which overflows past sys.maxsize
            check_count((stop - start) // step + 1, TOO_MANY_POINTS)
            return list(range(start, stop + 1, step))
        values = s.split(",")
        check_count(len(values), TOO_MANY_POINTS)
        return [int(v) for v in values]
    except ValidationError:
        raise
    except ValueError:
        raise ValidationError(
            f"N: cannot parse range {text!r} (use start:stop[:step] or a comma list)"
        ) from None


def _params_from(args, config):
    return CollisionParams(
        **{name: _get(args, config, name, float, value) for name, value in DEFAULT_PARAMS.items()}
    )


def _bath_from(args, config):
    kind = _get(args, config, "bath", str, required=True, choices=BATH_KINDS)
    if kind == "explicit":
        path = _get(args, config, "file", str, required=True)
        try:
            n_csv, rho = load_bath_csv(path)
        except (OSError, UnicodeDecodeError) as exc:
            raise _unreadable("file", path, exc) from exc
        n_flag = _get(args, config, "N", int)
        if n_flag is not None and n_flag != n_csv:
            raise ValidationError(
                f"N: flag value {n_flag} conflicts with csv header N={n_csv}"
            )
        return BathSpec.explicit(rho)
    N = _get(args, config, "N", int, required=True)
    family = FAMILIES[kind]
    value = _get(args, config, family.flag, family.conv, required=True)
    return BathSpec(N=N, kind=kind, **{family.field: value})


# ---------------------------------------------------------------------------
# subcommands


def cmd_coeffs(args, config):
    spec = _bath_from(args, config)
    params = _params_from(args, config)
    out_path = _get(args, config, "out", str)
    coeffs = coefficients_for(spec, params)
    payload = {
        "bath": spec.describe(),
        "params": params.as_dict(),
        "coefficients": coeffs.to_json_dict(),
    }
    _write((out_path, _json(payload)))
    return 0


def cmd_evolve(args, config):
    engine = _get(args, config, "engine", str, "analytic", choices=ENGINES)
    spec = _bath_from(args, config)
    params = _params_from(args, config)
    t_end = _get(args, config, "t_end", float, required=True)
    check_finite(t_end, "t_end", allow_zero=True)
    dt = _get(args, config, "dt", float)
    if dt is not None:
        check_finite(dt, "dt")
    n_points = _get(args, config, "n_points", int, 101 if engine == "analytic" else None)
    mode = _get(args, config, "mode", str, "exact", choices=MODES)
    scheme = _get(args, config, "scheme", str, "deterministic", choices=SCHEMES)
    seed = _get(args, config, "seed", int, 0)
    n_traj = _get(args, config, "trajectories", int, 1000)
    out_path = _get(args, config, "out", str)
    rho0 = qubit_state(
        _get(args, config, "init_ee", float, 0.0),
        complex(
            _get(args, config, "init_eg_re", float, 0.0),
            _get(args, config, "init_eg_im", float, 0.0),
        ),
    )
    if engine in ("ode", "collisions") and dt is None:
        raise ValidationError(f"dt: required for the {engine} engine")

    if engine != "collisions":
        coeffs = coefficients_for(spec, params)
    if engine == "analytic":
        # a negative count records nothing, and a repeated time (t_end = 0)
        # is recorded once, as on the stepped engines
        n_points = max(n_points, 0)
        check_count(n_points)
        times = _distinct_sorted(np.linspace(0.0, t_end, n_points))
        traj = analytic_trajectory(rho0, coeffs, times)
    elif engine == "ode":
        traj = integrate_master(rho0, coeffs, t_end, dt, n_records=n_points)
    else:
        traj = collision_chain(
            rho0,
            spec,
            params,
            t_end,
            dt,
            mode=mode,
            scheme=scheme,
            seed=seed,
            n_trajectories=n_traj,
            n_records=n_points,
        )
    _write((out_path, traj.to_csv()))
    return 0


def cmd_sweep(args, config):
    family = _get(args, config, "family", str, required=True, choices=FAMILIES)
    n_list = parse_n_range(_get(args, config, "N", str, required=True))
    params = _params_from(args, config)
    # only the family's own parameter is read; a dicke sweep takes a rule for each N's k
    if family == "dicke":
        name, value = "k_rule", _get(args, config, "krule", str, required=True, choices=K_RULES)
    else:
        record = FAMILIES[family]
        name, value = record.field, _get(args, config, record.flag, record.conv, required=True)
    out_path = _get(args, config, "out", str)
    slopes_path = _get(args, config, "slopes_out", str)
    result = scaling_sweep(family, n_list, params, **{name: value})
    _write((out_path, result.to_csv()), (slopes_path, _json(result.slopes_dict())))
    return 0


def cmd_classify(args, config):
    spec = _bath_from(args, config)
    out_path = _get(args, config, "out", str)
    if spec.kind == "explicit":
        validate_bath(spec)
    else:  # classified by N alone: its 2^N x 2^N state is never built
        ladder_weights(spec)
    cmap = classify_coherences(spec.N)
    _write((out_path, _json(cmap.to_json_dict())))
    return 0


def cmd_prepare(args, config):
    N = _get(args, config, "N", int, required=True)
    n_bar = _get(args, config, "nbar", float, required=True)
    gamma0 = _get(args, config, "gamma0", float, required=True)
    t_end = _get(args, config, "t_end", float, required=True)
    dt = _get(args, config, "dt", float, required=True)
    n_points = _get(args, config, "n_points", int)
    out_ladder = _get(args, config, "out_ladder", str)
    out_state = _get(args, config, "out_state", str)

    basis = basis_ordering(N)  # the qubit cap, before integrating
    # the bath state is always the one at t_end, however many ladder rows
    # are recorded (none for a zero-length grid)
    times, history, final = ladder_history(
        N, n_bar, gamma0, t_end, dt, n_records=n_points
    )
    header = "t," + ",".join(f"rho_{k}" for k in range(N + 1))
    row = ",".join(["%.17g"] * (N + 2)) + "\n"
    ladder_csv = _csv_text(header, row, np.column_stack((times, history)))
    state_csv = bath_to_csv(_ladder_bath(basis, final)[1], N)  # before writing either
    _write((out_ladder, ladder_csv), (out_state, state_csv))
    return 0


# Decay-curve datasets: the plotted factor exp(-t/t_q) is independent of
# p_e for the mixed baths, so a representative value is fixed here.
DECAY_CURVES = (
    ("decay_mixed_N4.csv", BathSpec.product_mixed(4, 0.2)),
    ("decay_mixed_N8.csv", BathSpec.product_mixed(8, 0.2)),
    ("decay_dicke_N4_k1.csv", BathSpec.dicke(4, 1)),
    ("decay_dicke_N8_k2.csv", BathSpec.dicke(8, 2)),
    ("decay_dicke_N8_k3.csv", BathSpec.dicke(8, 3)),
)


def _temperature_curves():
    curves = []
    for N in (4, 8, 12):
        k = N // 2 - 1
        r_e, r_d = dicke_rates(N, k)
        curves.append((f"temperature_dicke_N{N}_k{k}.csv", BathSpec.dicke(N, k)))
        # incoherent bath tuned to the same steady temperature
        curves.append(
            (f"temperature_mixed_N{N}.csv", BathSpec.product_mixed(N, r_e / (r_e + r_d)))
        )
    return tuple(curves)


def cmd_figures(args, config):
    out_dir = _get(args, config, "out_dir", str, required=True)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"output: cannot create {out_dir}: {exc.strerror or exc}") from exc
    params = CollisionParams(**DEFAULT_PARAMS)  # mu = 1
    rho0 = qubit_state(0.0)
    jobs = [(name, spec, np.linspace(0.0, 0.5, 201)) for name, spec in DECAY_CURVES]
    jobs += [
        (name, spec, np.linspace(0.0, 1.5, 301))
        for name, spec in _temperature_curves()
    ]
    outputs = [
        (os.path.join(out_dir, name),
         analytic_trajectory(rho0, coefficients_for(spec, params), times).to_csv())
        for name, spec, times in jobs
    ]
    _write(*outputs)
    for path, _ in outputs:
        print(path)
    return 0


# ---------------------------------------------------------------------------
# parser

#: Every option, once, with its help: the name is its config key, and its
#: flag is ``--`` and the name with each ``_`` as ``-``.  Values stay text
#: until :func:`_get` converts them, whether from a flag or a config file.
_OPTIONS = {
    "config": "flat key=value config file",
    "bath": f"bath kind: {', '.join(BATH_KINDS)}",
    "N": "number of bath qubits; sweep takes a list, e.g. 4:64:4 or 4,8,12",
    "pe": "excited probability (product bath)",
    "nbar": "mean photon number (thermal-hec bath)",
    "k": "excitation count (dicke bath)",
    "file": "explicit bath matrix CSV",
    "g": "coupling rate",
    "tau": "collision duration",
    "p": "collision rate",
    "omega0": "qubit frequency",
    "engine": f"one of {', '.join(ENGINES)}",
    "family": f"one of {', '.join(FAMILIES)}",
    "krule": " or ".join(K_RULES),
    "gamma0": "single-qubit emission rate",
    "t_end": "final time",
    "dt": "time step (evolve's ode and collisions engines, prepare)",
    "n_points": "records on the grid",
    "init_ee": "initial excited population",
    "init_eg_re": "initial coherence, real part",
    "init_eg_im": "initial coherence, imaginary part",
    "mode": "collision propagator: exact or second-order",
    "scheme": " or ".join(SCHEMES),
    "seed": "stochastic stream seed",
    "trajectories": "stochastic averages",
    "out": "output path (default stdout)",
    "slopes_out": "slopes JSON path",
    "out_ladder": "ladder CSV path",
    "out_state": "bath state CSV path",
    "out_dir": "output directory",
}

_BATH = ("bath", "N", "pe", "nbar", "k", "file")

#: Each subcommand's help and its options, in ``--help`` order.
_COMMANDS = {
    "coeffs": ("master-equation coefficients as JSON", (*_BATH, *DEFAULT_PARAMS, "out")),
    "evolve": ("target-qubit trajectory as CSV", (
        *_BATH, *DEFAULT_PARAMS, "engine", "t_end", "dt", "n_points", "init_ee", "init_eg_re",
        "init_eg_im", "mode", "scheme", "seed", "trajectories", "out")),
    "sweep": ("scaling sweep CSV plus fitted slopes JSON",
              ("family", "N", "pe", "nbar", "krule", *DEFAULT_PARAMS, "out", "slopes_out")),
    "classify": ("coherence block map as JSON", (*_BATH, "out")),
    "prepare": ("thermal ladder preparation CSVs", (
        "N", "nbar", "gamma0", "t_end", "dt", "n_points", "out_ladder", "out_state")),
    "figures": ("regenerate decay and temperature datasets", ("out_dir",)),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one ``error:`` line and exit 2, from main
        raise ValidationError(message)


@functools.cache
def build_parser():
    """The argument parser, built once per process; :func:`main` dispatches
    on the subcommand name, so a parser holds no handler."""
    parser = _Parser(
        prog="qollide",
        description="Collision-model thermalization of a target qubit by "
        "N-qubit bath clusters",
        allow_abbrev=False,
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (text, names) in _COMMANDS.items():
        sub = subs.add_parser(command, help=text, allow_abbrev=False)
        for name in ("config", *names):
            sub.add_argument("--" + name.replace("_", "-"), help=_OPTIONS[name])
    return parser


def _one_line(exc):
    return " ".join(str(exc).split()) or type(exc).__name__


def _advisory_line(message, category, filename, lineno, line=None):
    """Format a warning as the CLI prints it: ``warning: <message>``."""
    return f"warning: {message}\n"


def main(argv=None):
    formatwarning, warnings.formatwarning = warnings.formatwarning, _advisory_line
    try:
        args = build_parser().parse_args(argv)
        config = load_config(args.config) if args.config else {}
        return globals()[f"cmd_{args.command}"](args, config)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except np.linalg.LinAlgError as exc:
        print(f"numeric error: linear algebra failed: {_one_line(exc)}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {_one_line(exc)}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = formatwarning


def console_main():
    """The process entry of ``qollide``, ``python -m qollide`` and ``python -m
    qollide.cli``: run :func:`main` and exit with its code.

    ``gc.freeze()`` first moves every object the imports made into the
    collector's permanent generation, so neither the collections of the run
    nor the last one at interpreter exit walk them; the OS reclaims them
    with the process.  :func:`main` itself leaves the collector alone.
    """
    gc.freeze()
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
