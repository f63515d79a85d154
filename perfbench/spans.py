"""Span tracing from outside the program: timing wrappers installed on
qollide's public names for the traced run.

A span is ``[name, start, end, parent, command, size]``.  Spans stay in
memory while the run measures and are written out when it ends.  A
layer's self time is its span time minus the time of its direct child
spans.  Counts (``steps``, ``records``, ``bytes``, ...) are taken at the
call boundary from the arguments or the result.
"""

from __future__ import annotations

import csv
import importlib
import inspect
import math
import os
import sys
import threading
import time
from collections import defaultdict


def _steps(a, r):
    return int(math.floor(a["t_end"] / a["dt"] + 1e-9))


def _chain_steps(a, r):
    runs = a["n_trajectories"] if a["scheme"] == "stochastic" else 1
    return _steps(a, r) * runs


def _dim(a, r):
    return len(next(iter(a.values())))


# (module, public name, stats reported, size stat, size at the boundary).
# ``utils`` is measured inside ``Trajectory.to_csv``, ``bath_to_csv`` and
# ``load_bath_csv``: wrapping its per-number helpers would add tracing
# overhead to millions of tiny calls.
LAYERS = (
    ("cli", "main", ("s", "self_s"), None, None),
    ("dynamics", "integrate_master", ("s", "self_s", "steps", "us_per_step"), "steps", _steps),
    ("dynamics", "collision_chain", ("s", "self_s", "steps"), "steps", _chain_steps),
    ("dynamics", "ladder_history", ("s", "steps"), "steps", _steps),
    ("dynamics", "collision_superoperator", ("calls", "s", "self_s"), None, None),
    ("dynamics", "Trajectory.from_states", ("calls", "s", "records"), "records",
     lambda a, r: len(a["times"])),
    ("dynamics", "Trajectory.to_csv", ("s", "bytes"), "bytes", lambda a, r: len(r)),
    ("dynamics", "analytic_trajectory", ("s", "self_s"), None, None),
    ("dynamics", "scaling_sweep", ("s", "rows"), "rows", lambda a, r: len(r.rows)),
    ("master_equation", "lindblad_rhs", ("calls", "s"), None, None),
    ("master_equation", "coefficients_for", ("s",), None, None),
    ("master_equation", "coefficients_from_state", ("s",), None, None),
    ("baths", "validate_bath", ("calls", "s", "self_s"), None, None),
    ("baths", "classify_coherences", ("s",), None, None),
    ("baths", "load_bath_csv", ("s", "bytes"), "bytes", lambda a, r: os.path.getsize(a["path"])),
    ("baths", "bath_to_csv", ("s", "bytes"), "bytes", lambda a, r: len(r)),
    ("collective", "build_collective_ops", ("calls", "s"), None, None),
    ("collective", "dicke_ladder_transform", ("s",), None, None),
    ("linalg", "validate_density_matrix", ("calls", "s", "dim_max"), "dim_max", _dim),
    ("linalg", "matrix_exp", ("calls", "s", "dim_max"), "dim_max", _dim),
    ("linalg", "partial_trace_bath", ("s",), None, None),
)

UNITS = {"s": "s", "self_s": "s", "us_per_step": "us", "bytes": "bytes"}


def metric_names():
    """Every per-layer metric name with its unit, in report order."""
    names = [
        (f"{module}.{name}.{stat}", UNITS.get(stat, "count"))
        for module, name, stats, _, _ in LAYERS
        for stat in stats
    ]
    return names + [("trace.overhead_s", "s")]


class Tracer:
    def __init__(self):
        self.spans = []
        self.command = -1
        self._local = threading.local()
        self._patches = []

    def _wrap(self, label, fn, size_fn):
        spans, local = self.spans, self._local
        signature = inspect.signature(fn) if size_fn else None

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = [label, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.command, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if size_fn:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[5] = size_fn(bound.arguments, result)
            return result

        return traced

    def install(self):
        """Replace every public name in LAYERS, and each re-import of it in
        any qollide module, by a timing wrapper."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "qollide"]
        for module_name, name, _, _, size_fn in LAYERS:
            owner = importlib.import_module(f"qollide.{module_name}")
            label = f"{module_name}.{name}"
            if "." in name:
                cls_name, attr = name.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(label, raw.__func__, size_fn))
                else:
                    wrapped = self._wrap(label, raw, size_fn)
                self._patches.append((cls, attr, raw))
                setattr(cls, attr, wrapped)
                continue
            original = getattr(owner, name)
            wrapper = self._wrap(label, original, size_fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    def totals(self, first=0):
        """Per-layer metrics over spans ``first:`` (one traced pass)."""
        spans = self.spans[first:]
        child = defaultdict(float)
        for span in spans:
            if span[3] >= first:
                child[span[3]] += span[2] - span[1]
        agg = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "size": 0, "size_max": 0})
        for i, span in enumerate(spans, start=first):
            a = agg[span[0]]
            dur = span[2] - span[1]
            a["calls"] += 1
            a["s"] += dur
            a["self_s"] += dur - child.get(i, 0.0)
            a["size"] += span[5]
            a["size_max"] = max(a["size_max"], span[5])
        out = {}
        for module, name, stats, size_stat, _ in LAYERS:
            a = agg[f"{module}.{name}"]
            for stat in stats:
                if stat == "us_per_step":
                    value = 1e6 * a["s"] / a["size"] if a["size"] else 0.0
                elif stat == "dim_max":
                    value = a["size_max"]
                elif stat == size_stat:
                    value = a["size"]
                else:
                    value = a[stat]
                out[f"{module}.{name}.{stat}"] = value
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "start", "end", "parent", "command", "size"])
            for i, span in enumerate(self.spans):
                writer.writerow([i, *span])
