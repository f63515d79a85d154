"""Compare the library's results on a grid of named-bath calls between two source trees.

    python3 tools/same_values.py PARENT CHANGE

PARENT and CHANGE are roots of qollide checkouts.  Each tree's ``src/`` is
imported in a process of its own, with BLAS pinned to one thread, which
makes every call of the grid and prints one line per call: its label, the
sha256 of what it gave, and a short summary.  What a call gave is its
result's bytes (the dtype, shape and data of each array; each field of a
coefficient record) or its error's type and text, with the text of any
warning it issued.  The first call whose line differs between the trees
is printed with both summaries, then the count of calls; the exit code is
1 if any call differs, else 0.

The grid crosses the product, thermal-hec and dicke baths at N = 1..13
and 64, with ``p_e`` in {-0.0, 0, 0.1, 0.5, 1, 1.5, nan}, ``n_bar`` in
{-0.0, 0, 0.25, 1, 1e9, -1, inf, nan} and ``k`` in {0, 1, N//4, N//2, N,
N+1, -1}, with ``ladder_weights``, ``validate_bath`` and the
``bath_to_csv`` text of its state (N <= 10), ``coefficients_for`` and
``collision_superoperator`` in both modes, the last two under each of two
sets of collision parameters.  Specs are built with the ``BathSpec``
classmethods, so any tree that has them can be compared.  The text of
``prepare_thermal_dicke``'s state at N = 4 and 10 follows.  Then
``integrate_master`` runs each named family at N = 4 (the first set of
collision parameters) with ``dt`` in {t_q/40, t_q, 100 t_q}, over 200
steps with 11 records, one driven and squeezed coefficient set with every
step recorded, and 1e9 steps of t_q/40 on the dicke bath with 3 records.
``collision_chain`` runs each named family at N = 4 in both modes and a
full-rank explicit bath of 3 qubits, deterministically over 200 steps with
11 records, the dicke bath over 1e9 steps with 3 records, and one short
stochastic run of 20 trajectories.

It then meets the limits at their boundaries.  The single-N entry points
(``BathSpec``, ``basis_ordering``, ``build_collective_ops``,
``classify_coherences``, ``dicke_temperature``, ``dicke_max_noninverted_k``
and ``coefficients_for``) take N in {-1, 0, 1, 12, 13, 2**53, 2**53+1,
4.5, "4", np.int64(4)}; ``scaling_sweep`` and ``dicke_max_noninverted_k``
take integer lists and arrays, valid or holding 0, 2**53+1 or a float;
``ladder_history`` takes N = 1024 and 1025, either side of its limit, on a
grid of three records; and every engine, ``scaling_sweep`` and
``parse_n_range`` are asked for one record or sweep point over the limit
of 1,000,000.
"""

import argparse
import dataclasses
import hashlib
import os
import subprocess
import sys
import warnings

import numpy as np

TOOLS = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, TOOLS)

import bench_trees  # noqa: E402

NS = (*range(1, 14), 64)
P_E = (-0.0, 0.0, 0.1, 0.5, 1.0, 1.5, float("nan"))
N_BAR = (-0.0, 0.0, 0.25, 1.0, 1e9, -1.0, float("inf"), float("nan"))
PARAMS = ({"g": 0.1, "tau": 1.0, "p": 100.0}, {"g": 0.25, "tau": 0.8, "p": 3.0})
LIMIT_NS = (-1, 0, 1, 12, 13, 2**53, 2**53 + 1, 4.5, "4", np.int64(4))
LIMIT_LISTS = ([4, 8, 12], [4, 0, 8], [4, 2**53 + 1, 8], [4, 4.5, 8])
OVER_LIMIT = 10**6 + 1


def _encode(value):
    """The bytes of a result: a string as UTF-8, a tuple item by item, a
    record field by field in declaration order (a ``qollide.utils.Record``
    by its ``_fields``, a dataclass, as older trees build them, by
    ``dataclasses.fields``), so equal values give equal bytes whichever
    builds the record, and anything else as a numpy array's dtype, shape
    and data."""
    if isinstance(value, str):
        return value.encode()
    if isinstance(value, tuple):
        return b"(" + b",".join(map(_encode, value)) + b")"
    names = getattr(type(value), "_fields", None)
    if names is None and dataclasses.is_dataclass(value):
        names = [f.name for f in dataclasses.fields(value)]
    if names is not None:
        return _encode(tuple(getattr(value, name) for name in names))
    array = np.ascontiguousarray(value)
    return f"{array.dtype.str}{array.shape}".encode() + array.tobytes()


def grid():
    """Yield ``(label, call)`` for every call of the grid."""
    from qollide import BathSpec, CollisionParams, bath_to_csv, coefficients_for
    from qollide import collision_superoperator, prepare_thermal_dicke, validate_bath
    from qollide.baths import ladder_weights

    params = [CollisionParams(**p) for p in PARAMS]
    for N in NS:
        specs = [(f"product p_e={p!r}", BathSpec.product_mixed(N, p)) for p in P_E]
        specs += [(f"thermal-hec n_bar={n!r}", BathSpec.thermal_hec(N, n)) for n in N_BAR]
        specs += [(f"dicke k={k}", BathSpec.dicke(N, k))
                  for k in (0, 1, N // 4, N // 2, N, N + 1, -1)]
        for name, spec in specs:
            head = f"N={N} {name}"
            yield f"ladder_weights {head}", lambda s=spec: ladder_weights(s)
            if N <= 10:
                yield f"validate_bath {head}", lambda s=spec: validate_bath(s)
                yield f"bath_to_csv {head}", lambda s=spec: bath_to_csv(validate_bath(s), s.N)
            for i, p in enumerate(params):
                tail = f"{head} params={i}"
                yield f"coefficients_for {tail}", lambda s=spec, p=p: coefficients_for(s, p)
                for mode in ("exact", "second_order"):
                    yield (f"collision_superoperator {tail} {mode}",
                           lambda s=spec, p=p, m=mode: collision_superoperator(s, p, mode=m))
    for N in (4, 10):
        yield f"bath_to_csv prepare_thermal_dicke N={N}", lambda N=N: bath_to_csv(
            prepare_thermal_dicke(N, 0.5, 1.0, 3.0, 1e-4)[1], N)
    yield from master_grid(params[0])
    yield from collision_grid(params[0])
    yield from limit_grid(params[0])


def master_grid(params):
    """Yield ``(label, call)`` for every ``integrate_master`` call (see the
    module docstring)."""
    from qollide import BathSpec, MeqCoefficients, coefficients_for, ground_state
    from qollide import integrate_master, qubit_state, thermalization_time

    specs = {"product p_e=0.3": BathSpec.product_mixed(4, 0.3),
             "thermal-hec n_bar=0.5": BathSpec.thermal_hec(4, 0.5),
             "dicke k=1": BathSpec.dicke(4, 1)}
    for name, spec in specs.items():
        c = coefficients_for(spec, params)
        t_q = thermalization_time(c)
        for step, dt in (("t_q/40", t_q / 40.0), ("t_q", t_q), ("100 t_q", 100.0 * t_q)):
            yield f"integrate_master N=4 {name} dt={step}", lambda c=c, dt=dt: integrate_master(
                ground_state(), c, 200 * dt, dt, 11)
    driven = MeqCoefficients(0.3 - 0.2j, 0.4 + 0.2j, 0.8, 1.2, 1.0, 2.0)
    yield "integrate_master driven", lambda: integrate_master(
        qubit_state(0.2, 0.1 - 0.05j), driven, 0.1, 0.01)
    dicke = coefficients_for(specs["dicke k=1"], params)
    yield "integrate_master N=4 dicke k=1 1e9 steps", lambda: integrate_master(
        ground_state(), dicke, 2.5e6, 0.0025, 3)


def collision_grid(params):
    """Yield ``(label, call)`` for every ``collision_chain`` call (see the
    module docstring)."""
    from qollide import BathSpec, collision_chain, ground_state

    rng = np.random.default_rng(5)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho_b = a @ a.conj().T
    specs = {"product p_e=0.3": BathSpec.product_mixed(4, 0.3),
             "thermal-hec n_bar=0.5": BathSpec.thermal_hec(4, 0.5),
             "dicke k=1": BathSpec.dicke(4, 1)}
    for name, spec in specs.items():
        for mode in ("exact", "second_order"):
            yield f"collision_chain N=4 {name} {mode}", lambda s=spec, m=mode: collision_chain(
                ground_state(), s, params, 0.2, 1e-3, mode=m, n_records=11)
    yield "collision_chain N=3 explicit", lambda: collision_chain(
        ground_state(), BathSpec.explicit(rho_b / np.trace(rho_b)), params, 0.2, 1e-3,
        n_records=11)
    yield "collision_chain N=4 dicke k=1 1e9 steps", lambda: collision_chain(
        ground_state(), specs["dicke k=1"], params, 2.5e6, 0.0025, n_records=3)
    yield "collision_chain N=4 dicke k=1 stochastic", lambda: collision_chain(
        ground_state(), specs["dicke k=1"], params, 0.2, 1e-3, scheme="stochastic", seed=7,
        n_trajectories=20, n_records=11)


def limit_grid(params):
    """Yield ``(label, call)`` for every call at the limits (see the module
    docstring)."""
    from qollide import basis_ordering, build_collective_ops, classify_coherences
    from qollide import BathSpec, coefficients_for, collision_chain, dicke_max_noninverted_k
    from qollide import dicke_temperature, ground_state, integrate_master, ladder_history
    from qollide import scaling_sweep
    from qollide.cli import parse_n_range

    single = {
        # a spec by its fields that are not None: None has no fixed bytes
        "BathSpec": lambda N: tuple(BathSpec.dicke(N, 1).describe().items()),
        "basis_ordering": basis_ordering,
        "build_collective_ops": build_collective_ops,
        "classify_coherences": classify_coherences,
        "dicke_temperature": lambda N: dicke_temperature(N, 1),
        "dicke_max_noninverted_k": dicke_max_noninverted_k,
        "coefficients_for": lambda N: coefficients_for(BathSpec.product_mixed(N, 0.5), params),
    }
    for name, call in single.items():
        for N in LIMIT_NS:
            yield f"{name} N={N!r}", lambda c=call, N=N: c(N)
    for N in (1024, 1025):  # MAX_LADDER_N and one more
        yield f"ladder_history N={N}", lambda N=N: ladder_history(N, 0.5, 1.0, 0.1, 0.05, 3)
    for Ns in (*LIMIT_LISTS, *map(np.array, LIMIT_LISTS)):
        label = f"{type(Ns).__name__} {Ns!r}"
        yield f"scaling_sweep {label}", lambda Ns=Ns: scaling_sweep(
            "dicke", Ns, params, k_rule="half-minus-one")
        yield f"dicke_max_noninverted_k {label}", lambda Ns=Ns: dicke_max_noninverted_k(Ns)
    over = {
        "scaling_sweep": lambda: scaling_sweep(
            "dicke", range(1, OVER_LIMIT + 1), params, k_rule="quarter"),
        "parse_n_range range": lambda: parse_n_range(f"1:{OVER_LIMIT}"),
        "parse_n_range list": lambda: parse_n_range(",".join(["4"] * OVER_LIMIT)),
        "integrate_master": lambda: integrate_master(
            ground_state(), coefficients_for(BathSpec.dicke(4, 1), params), 1.0, 1e-7,
            n_records=OVER_LIMIT),
        "collision_chain": lambda: collision_chain(
            ground_state(), BathSpec.dicke(4, 1), params, 1.0, 1e-7, n_records=OVER_LIMIT),
        "ladder_history": lambda: ladder_history(3, 1.0, 1.0, 1.0, 1e-7, n_records=OVER_LIMIT),
    }
    for name, call in over.items():
        yield f"{name} over the record limit", call


def print_values():
    """Make every call of :func:`grid` and print its line."""
    for label, call in grid():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                data, summary = _encode(call()), "result"
            except Exception as exc:  # a refusal is a value to compare
                data = f"{type(exc).__name__}: {exc}".encode()
                summary = " ".join(data.decode().split())  # one line
        for w in caught:
            data += f"\nwarning: {w.category.__name__}: {w.message}".encode()
        print(f"{label}\t{hashlib.sha256(data).hexdigest()}\t{summary}")


def run_tree(src):
    """The lines :func:`print_values` prints against the package in ``src``,
    each split into its three fields."""
    proc = subprocess.run(
        [sys.executable, "-c", "import same_values; same_values.print_values()"],
        env={**bench_trees.environment(src), "PYTHONPATH": os.pathsep.join((src, TOOLS))},
        capture_output=True, text=True, check=False,
    )
    if proc.returncode:
        raise SystemExit(f"{src}: the grid failed:\n{proc.stderr}")
    return [line.split("\t") for line in proc.stdout.splitlines()]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="root of the parent checkout")
    parser.add_argument("change", help="root of the changed checkout")
    args = parser.parse_args(argv)
    parent, change = (run_tree(src) for src in bench_trees.sources(parser, args).values())
    differ = [(a, b) for a, b in zip(parent, change) if a[1] != b[1]]
    if differ:
        (label, _, before), (_, _, after) = differ[0]
        print(f"first difference: {label}\n  parent: {before}\n  change: {after}")
    print(f"{len(parent)} calls, {len(differ)} with a difference")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
