"""Command-line front end.

Subcommands: ``coeffs``, ``evolve``, ``sweep``, ``classify``, ``prepare`` and
``figures``.  Every option can also be supplied through a flat key-value
config file (``--config``); command-line flags win over config entries.
Output files are UTF-8 with LF line endings and all floats carry 17
significant digits, so identical inputs produce byte-identical files.
Every float option reads ``-0`` as ``0`` (a refused one echoes ``0.0``).
An ``--n-points`` of zero or less records nothing: the trajectory or
ladder CSV is its header alone, written after the same checks as any other
run, and ``prepare`` still writes the bath state at ``--t-end``.  A failing
``prepare`` writes neither file.  Every ``2**N``-sized structure, the
``prepare`` state included, is capped at ``N <= 12`` before it is built;
a bath CSV's header ``N`` is held to that cap before its rows are read.
Every engine, the analytic one included, keeps at most 1,000,000 records,
and at ``--t-end 0`` every engine writes the one row at ``t = 0``.  The
closed forms (``coeffs`` for a named family, ``sweep``) take ``N`` in
``1..2**53``, and a sweep at most 1,000,000 values of N, counted before
its list is built.  Collision rates that overflow a float are refused.

Exit codes: 0 success; 2 configuration error, an output that cannot be
written, or a run too large for the available memory; 3 numeric invariant
violation, or a failed linear-algebra routine.  Each failure prints one
``error:`` or ``numeric error:`` line to stderr and no traceback.  A
command opens every output file before it writes any, so one that cannot
be opened, or two that reach one regular file, print nothing and change
no file; a write that fails later removes only the files it created.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import stat
import sys

import numpy as np

from .baths import _REQUIRED, BATH_KINDS, BathSpec, bath_to_csv, check_named_bath
from .baths import classify_coherences, load_bath_csv, validate_bath
from .collective import basis_ordering, build_collective_ops
from .dynamics import (
    _check_record_count,
    _check_sweep_points,
    _csv_text,
    _ladder_bath,
    analytic_trajectory,
    collision_chain,
    integrate_master,
    ladder_history,
    qubit_state,
    scaling_sweep,
)
from .errors import NumericError, ValidationError
from .master_equation import _FAMILY_FORMS, CollisionParams, coefficients_for, dicke_rates

DEFAULT_PARAMS = {"g": 0.1, "tau": 1.0, "p": 100.0, "omega0": 1.0}

ENGINES = ("analytic", "ode", "collisions")
MODES = ("exact", "second-order")
SCHEMES = ("deterministic", "stochastic")
FAMILIES = tuple(_FAMILY_FORMS)
K_RULES = ("quarter", "half-minus-one")

#: The flag, and its type, that gives each named family its parameter.
_FAMILY_FLAGS = {"product": ("pe", float), "thermal-hec": ("nbar", float), "dicke": ("k", int)}


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
                config[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise ValidationError(f"config: cannot read {path}: {exc}") from exc
    return config


def _get(args, config, name, conv=str, default=None, required=False, choices=None):
    value = getattr(args, name, None)
    if value is None and name in config:
        raw = config[name]
        try:
            value = conv(raw)
        except (TypeError, ValueError) as exc:
            raise ValidationError(
                f"{name}: cannot parse config value {raw!r}"
            ) from exc
    if value is None:
        if required:
            raise ValidationError(f"{name}: missing required value")
        value = default
    if conv is float and value is not None:
        value += 0.0  # -0 reads as 0
    if choices is not None and value is not None and value not in choices:
        raise ValidationError(f"{name}: must be one of {choices}, got {value!r}")
    return value


def _write(*outputs):
    """Write each ``(path, text)`` pair: the files, then the texts whose path
    is None to stdout.  Every file is opened before any is written, so an
    output that cannot be opened leaves every file as it was; that, a later
    failed write, or two outputs that reach one regular file (refused before
    any is opened) is a configuration error.  On failure the regular files
    this call created are removed, and nothing else."""
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
    except OSError as exc:
        for fh in handles:
            with contextlib.suppress(OSError):
                fh.close()
        for done in created:
            with contextlib.suppress(OSError):  # the error below is the one to report
                os.remove(done)
        raise ValidationError(f"output: cannot write {path}: {exc.strerror or exc}") from exc
    for path, text in outputs:
        if path is None:
            sys.stdout.write(text)


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
            _check_sweep_points((stop - start) // step + 1)  # len() overflows past sys.maxsize
            return list(range(start, stop + 1, step))
        values = s.split(",")
        _check_sweep_points(len(values))
        return [int(v) for v in values]
    except ValidationError:
        raise
    except ValueError:
        raise ValidationError(
            f"N: cannot parse range {text!r} (use start:stop[:step] or a comma list)"
        ) from None


def _params_from(args, config):
    return CollisionParams(
        g=_get(args, config, "g", float, DEFAULT_PARAMS["g"]),
        tau=_get(args, config, "tau", float, DEFAULT_PARAMS["tau"]),
        p=_get(args, config, "p", float, DEFAULT_PARAMS["p"]),
        omega0=_get(args, config, "omega0", float, DEFAULT_PARAMS["omega0"]),
    )


def _bath_from(args, config):
    kind = _get(args, config, "bath", str, required=True, choices=BATH_KINDS)
    if kind == "explicit":
        path = _get(args, config, "file", str, required=True)
        try:
            n_csv, rho = load_bath_csv(path)
        except OSError as exc:
            raise ValidationError(f"file: cannot read {path}: {exc}") from exc
        n_flag = _get(args, config, "N", int)
        if n_flag is not None and n_flag != n_csv:
            raise ValidationError(
                f"N: flag value {n_flag} conflicts with csv header N={n_csv}"
            )
        return BathSpec.explicit(rho)
    N = _get(args, config, "N", int, required=True)
    flag, conv = _FAMILY_FLAGS[kind]
    value = _get(args, config, flag, conv, required=True)
    return BathSpec(N=N, kind=kind, **{_REQUIRED[kind]: value})


# ---------------------------------------------------------------------------
# subcommands


def cmd_coeffs(args, config):
    spec = _bath_from(args, config)
    params = _params_from(args, config)
    out_path = _get(args, config, "out", str)
    coeffs = coefficients_for(spec, params)
    payload = {
        "bath": spec.describe(),
        "params": dataclasses.asdict(params),
        "coefficients": coeffs.to_json_dict(),
    }
    _write((out_path, _json(payload)))
    return 0


def cmd_evolve(args, config):
    engine = _get(args, config, "engine", str, "analytic", choices=ENGINES)
    spec = _bath_from(args, config)
    params = _params_from(args, config)
    t_end = _get(args, config, "t_end", float, required=True)
    if not 0.0 <= t_end < math.inf:
        raise ValidationError(f"t_end: must be finite and >= 0, got {t_end}")
    dt = _get(args, config, "dt", float)
    if dt is not None and not math.isfinite(dt):
        raise ValidationError(f"dt: must be finite, got {dt}")
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
        _check_record_count(n_points)
        times = np.unique(np.linspace(0.0, t_end, n_points))
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
    p_e = _get(args, config, "pe", float)
    n_bar = _get(args, config, "nbar", float)
    k_rule = _get(args, config, "krule", str, choices=K_RULES)
    out_path = _get(args, config, "out", str)
    slopes_path = _get(args, config, "slopes_out", str)
    result = scaling_sweep(
        family,
        n_list,
        params,
        p_e=p_e,
        n_bar=n_bar,
        k_rule=k_rule,
    )
    _write((out_path, result.to_csv()), (slopes_path, _json(result.slopes_dict())))
    return 0


def cmd_classify(args, config):
    spec = _bath_from(args, config)
    out_path = _get(args, config, "out", str)
    if spec.kind == "explicit":
        validate_bath(spec)
    else:  # classified by N alone: its 2^N x 2^N state is never built
        check_named_bath(spec)
    cmap = classify_coherences(None, build_collective_ops(spec.N))
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


def _add_bath_args(sub):
    sub.add_argument("--bath", help=f"bath kind: {', '.join(BATH_KINDS)}")
    sub.add_argument("--N", dest="N", type=int, help="number of bath qubits")
    sub.add_argument("--pe", type=float, help="excited probability (product bath)")
    sub.add_argument("--nbar", type=float, help="mean photon number (thermal-hec bath)")
    sub.add_argument("--k", type=int, help="excitation count (dicke bath)")
    sub.add_argument("--file", help="explicit bath matrix CSV")


def _add_params_args(sub):
    sub.add_argument("--g", type=float, help="coupling rate")
    sub.add_argument("--tau", type=float, help="collision duration")
    sub.add_argument("--p", type=float, help="collision rate")
    sub.add_argument("--omega0", type=float, help="qubit frequency")


@functools.cache
def build_parser():
    """The argument parser, built once per process; :func:`main` dispatches
    on the subcommand name, so a parser holds no handler."""
    parser = argparse.ArgumentParser(
        prog="qollide",
        description="Collision-model thermalization of a target qubit by "
        "N-qubit bath clusters",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("coeffs", help="master-equation coefficients as JSON")
    sub.add_argument("--config", help="flat key=value config file")
    _add_bath_args(sub)
    _add_params_args(sub)
    sub.add_argument("--out", help="output path (default stdout)")

    sub = subs.add_parser("evolve", help="target-qubit trajectory as CSV")
    sub.add_argument("--config")
    _add_bath_args(sub)
    _add_params_args(sub)
    sub.add_argument("--engine", help=f"one of {', '.join(ENGINES)}")
    sub.add_argument("--t-end", dest="t_end", type=float, help="final time")
    sub.add_argument("--dt", type=float, help="time step (ode/collisions)")
    sub.add_argument("--n-points", dest="n_points", type=int, help="records on the grid")
    sub.add_argument("--init-ee", dest="init_ee", type=float, help="initial excited population")
    sub.add_argument("--init-eg-re", dest="init_eg_re", type=float)
    sub.add_argument("--init-eg-im", dest="init_eg_im", type=float)
    sub.add_argument("--mode", help="collision propagator: exact or second-order")
    sub.add_argument("--scheme", help="deterministic or stochastic")
    sub.add_argument("--seed", type=int, help="stochastic stream seed")
    sub.add_argument("--trajectories", type=int, help="stochastic averages")
    sub.add_argument("--out")

    sub = subs.add_parser("sweep", help="scaling sweep CSV plus fitted slopes JSON")
    sub.add_argument("--config")
    sub.add_argument("--family", help=f"one of {', '.join(FAMILIES)}")
    sub.add_argument("--N", dest="N", help="N list, e.g. 4:64:4 or 4,8,12")
    sub.add_argument("--pe", type=float)
    sub.add_argument("--nbar", type=float)
    sub.add_argument("--krule", help="quarter or half-minus-one")
    _add_params_args(sub)
    sub.add_argument("--out", help="sweep CSV path (default stdout)")
    sub.add_argument("--slopes-out", dest="slopes_out", help="slopes JSON path")

    sub = subs.add_parser("classify", help="coherence block map as JSON")
    sub.add_argument("--config")
    _add_bath_args(sub)
    sub.add_argument("--out")

    sub = subs.add_parser("prepare", help="thermal ladder preparation CSVs")
    sub.add_argument("--config")
    sub.add_argument("--N", dest="N", type=int)
    sub.add_argument("--nbar", type=float)
    sub.add_argument("--gamma0", type=float, help="single-qubit emission rate")
    sub.add_argument("--t-end", dest="t_end", type=float)
    sub.add_argument("--dt", type=float)
    sub.add_argument("--n-points", dest="n_points", type=int)
    sub.add_argument("--out-ladder", dest="out_ladder")
    sub.add_argument("--out-state", dest="out_state")

    sub = subs.add_parser("figures", help="regenerate decay and temperature datasets")
    sub.add_argument("--config")
    sub.add_argument("--out-dir", dest="out_dir")

    return parser


def _one_line(exc):
    return " ".join(str(exc).split()) or type(exc).__name__


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config) if getattr(args, "config", None) else {}
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


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
