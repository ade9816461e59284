"""Span tracing of ``conehj`` layers from outside the package.

Only the traced run installs this.  Each public function named in
``TARGETS`` is replaced, wherever a ``conehj`` module looks it up, by a
wrapper that records a span (name, start, end, parent) and the counts the
layer exposes.  The parent comes from a per-thread stack, so spans opened in
the ``free_energy`` thread pool are roots of their own threads.  Spans stay
in memory and are written out when the run ends.  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path


def _elements(args, kwargs, result):
    r = kwargs["r"] if "r" in kwargs else args[1]
    return {"elements": getattr(r, "size", 1)}


def _fd_steps(args, kwargs, result):
    # the scheme takes ceil(T / dt) steps of the CFL step the grid carries
    grid = kwargs["grid"] if "grid" in kwargs else args[2]
    T = kwargs["T"] if "T" in kwargs else args[3]
    return {"steps": int(math.ceil(T / grid.dt))}


def _lattice_nodes(args, kwargs, result):
    return {"nodes": len(result)}


def _replicas(args, kwargs, result):
    return {"replicas": kwargs["replicas"] if "replicas" in kwargs else args[2]}


def _slsqp(args, kwargs, result):
    return {"runs": 1, "nit": int(getattr(result, "nit", 0)),
            "nfev": int(getattr(result, "nfev", 0)),
            "failed": int(getattr(result, "status", 0) != 0)}


def _builds(args, kwargs, result):
    return {"builds": 1}


# (layer name, module, attribute, counts taken from each call)
TARGETS = (
    ("nonlinearity.xi_star_vec", "nonlinearity", "xi_star_vec", _elements),
    ("solvers.hopf_lax_pointwise", "solvers", "hopf_lax_pointwise", None),
    ("solvers.hopf_lax_separable", "solvers", "hopf_lax_separable", None),
    ("solvers.hopf", "solvers", "hopf", None),
    ("solvers.hopf_lax", "solvers", "hopf_lax", None),
    ("solvers.hopf_lax_1d", "solvers", "hopf_lax_1d", None),
    ("limits.rate_study", "limits", "rate_study", None),
    ("cones.project_pj", "cones", "project_pj", None),
    ("cones.lift_lj", "cones", "lift_lj", None),
    ("fd_oracle.fd_solve", "fd_oracle", "fd_solve", _fd_steps),
    ("fd_oracle.comparison_check", "fd_oracle", "comparison_check", None),
    ("conjugates.monotone_lattice", "conjugates", "monotone_lattice", _lattice_nodes),
    ("spin_glass.free_energy", "spin_glass", "free_energy", _replicas),
    ("spin_glass.sample_cascade", "spin_glass", "sample_cascade", None),
    ("spin_glass.one_spin_psi", "spin_glass", "one_spin_psi", None),
    ("cli.write_csv", "cli", "write_csv", None),
    # names conehj imports from scipy: wrapped only in the module using them
    ("spin_glass.logsumexp", "spin_glass", "logsumexp", None),
    ("spin_glass.cubic_spline", "spin_glass", "CubicSpline", _builds),
)

class _OptimizeProxy:
    """Stands in for ``scipy.optimize`` inside one module, with a traced minimize."""

    def __init__(self, module, minimize):
        self._module = module
        self.minimize = minimize

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans = []            # (id, parent, name, start, end, thread)
        self.counts = defaultdict(int)
        self.missing = []          # targets the package no longer has
        self._cache_info = None    # cache_info of cones.averaging_matrix
        self._cache_start = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, start, end,
                                   threading.get_ident()))
            if counter is not None:
                extra = counter(args, kwargs, result)
                with self._lock:
                    for key, n in extra.items():
                        self.counts[f"{name}.{key}"] += n
            return result
        return traced

    def install(self):
        """Wrap every target where the package looks it up."""
        import conehj.cli  # noqa: F401  (loads every module the CLI uses)
        mods = {k[len("conehj."):]: m for k, m in list(sys.modules.items())
                if k.startswith("conehj.") and m is not None}
        for name, mod_name, attr, counter in TARGETS:
            home = mods.get(mod_name)
            original = getattr(home, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapped = self.wrap(name, original, counter)
            if getattr(original, "__module__", "").startswith("conehj"):
                for mod in mods.values():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
            else:
                setattr(home, attr, wrapped)
        solvers = mods["solvers"]
        optimize = getattr(solvers, "optimize", None)
        if optimize is None or not hasattr(optimize, "minimize"):
            self.missing.append("solvers.slsqp")
        else:
            solvers.optimize = _OptimizeProxy(
                optimize, self.wrap("solvers.slsqp", optimize.minimize, _slsqp))
        self._cache_info = getattr(getattr(mods["cones"], "averaging_matrix", None),
                                   "cache_info", None)
        if self._cache_info is not None:
            self._cache_start = self._cache_info()

    def self_times(self) -> dict:
        child = defaultdict(float)
        for sid, parent, name, start, end, tid in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for sid, parent, name, start, end, tid in self.spans:
            out[name] += (end - start) - child[sid]
        return out

    def metrics(self, cpu_s: float, wall_s: float) -> dict:
        self_s = self.self_times()
        values = dict(self.counts)
        for name, n in Counter(s[2] for s in self.spans).items():
            values[f"{name}.calls"] = n
            values[f"{name}.self_s"] = self_s[name]
        hit_ratio = 0.0
        if self._cache_info is not None:
            end = self._cache_info()
            hits = end.hits - self._cache_start.hits
            misses = end.misses - self._cache_start.misses
            hit_ratio = hits / (hits + misses) if hits + misses else 0.0
        values["cones.averaging_matrix.hit_ratio"] = hit_ratio
        values["process.cpu_s"] = cpu_s
        values["process.wall_s"] = wall_s
        return values

    def write(self, path: Path):
        t0 = min((s[3] for s in self.spans), default=0.0)
        rows = [{"id": sid, "parent": parent, "name": name,
                 "start": start - t0, "end": end - t0, "thread": tid}
                for sid, parent, name, start, end, tid in self.spans]
        path.write_text(json.dumps({"missing": self.missing, "spans": rows}))
