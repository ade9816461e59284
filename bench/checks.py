"""Output checks for the benchmark workloads.

Each check reads what the ``conehj`` command wrote (CSV or JSON text) and
tests it against a property the method must have or against a value
computed here, apart from the code path being timed.  None of them compares
against a stored copy of earlier output.  The checks take plain text so the
negative controls in ``test_bench.py`` can feed them synthetic outputs.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


def read_csv(text: str) -> list:
    return list(csv.DictReader(io.StringIO(text)))


def check_converge(text: str, slope_max: float = -0.4) -> Check:
    """The restriction error decays: log-log slope over all gaps <= slope_max."""
    rows = read_csv(text)
    sizes = np.array([float(r["level_size"]) for r in rows])
    errors = np.array([float(r["error"]) for r in rows])
    if sizes.size < 2 or not np.all(np.isfinite(errors)) or np.any(errors <= 0):
        return Check("converge_decay", False, f"unusable errors {errors.tolist()}")
    slope = float(np.polyfit(np.log(sizes), np.log(errors), 1)[0])
    return Check("converge_decay", slope <= slope_max,
                 f"slope {slope:.4f} (limit {slope_max})")


def check_compare(text: str, dx: float, T: float, x_limit: float = 2.0) -> Check:
    """Lax-Friedrichs and Hopf-Lax agree within 10 dx (1 + T) for x <= x_limit."""
    rows = [r for r in read_csv(text) if float(r["x"]) <= x_limit]
    gap = np.array([abs(float(r["hopf_lax"]) - float(r["fd"])) for r in rows])
    tol = 10.0 * dx * (1.0 + T)
    worst = float(gap.max()) if gap.size else math.inf
    ok = bool(gap.size) and np.all(np.isfinite(gap)) and worst <= tol
    return Check("compare_fd_agreement", bool(ok),
                 f"worst |hopf_lax - fd| {worst:.3e} over {gap.size} rows (tol {tol:.3e})")


def check_routes(texts: dict, n_values: int, tol: float = 1e-4) -> Check:
    """Every solver route gives the same value at every (t, sample)."""
    table = {}
    for method, text in texts.items():
        rows = read_csv(text)
        if len(rows) != n_values or any(r["method"] != method for r in rows):
            return Check("routes_agreement", False,
                         f"{method}: {len(rows)} rows, expected {n_values}")
        for r in rows:
            table.setdefault((r["t"], r["sample_id"]), []).append(float(r["value"]))
    spread = [max(v) - min(v) for v in table.values()]
    worst = max(spread) if spread else math.inf
    ok = all(len(v) == len(texts) for v in table.values()) and worst <= tol
    return Check("routes_agreement", bool(ok and math.isfinite(worst)),
                 f"worst spread {worst:.3e} over {len(table)} points (tol {tol:.0e})")


def one_spin_psi_quadrature(atoms, levels, nodes: int = 80) -> float:
    """The t = 0 one-spin functional by nested Gauss-Hermite quadrature.

    psi = q_K - E log sum_alpha nu_alpha cosh(sqrt(2) w(alpha)), evaluated as
    Y_K(w) = log cosh(sqrt(2) w) and
    Y_{k-1}(w) = (1/zeta_k) log E_z exp(zeta_k Y_k(w + sqrt(q_k - q_{k-1}) z)),
    with psi = q_K - E_z Y_0(sqrt(q_0) z).  The quadrature is nested, with no
    tabulation, so it is independent of the spline recursion in the program.
    """
    q = np.asarray(atoms, dtype=float).reshape(-1)
    zetas = np.asarray(levels, dtype=float)[1:-1]
    x, wts = hermgauss(nodes)
    z, wz = math.sqrt(2.0) * x, wts / math.sqrt(math.pi)

    def log_cosh(v):
        v = np.abs(v)
        return v + np.log1p(np.exp(-2.0 * v)) - math.log(2.0)

    def Y(k, w):
        if k == q.size - 1:
            return log_cosh(math.sqrt(2.0) * w)
        dq = math.sqrt(q[k + 1] - q[k])
        inner = zetas[k] * Y(k + 1, w[..., None] + dq * z)
        m = inner.max(axis=-1)
        return (np.log(np.exp(inner - m[..., None]) @ wz) + m) / zetas[k]

    y0 = Y(0, math.sqrt(q[0]) * z)
    return float(q[-1] - y0 @ wz)


def cell_average_measure(atoms, levels, cells: int) -> tuple:
    """Quantile path of a discrete measure averaged over ``cells`` equal cells.

    Returns (atoms, levels) of the measure whose quantile path is the
    projection p_j of the original one onto the uniform partition j.
    """
    atoms = np.asarray(atoms, dtype=float).reshape(-1)
    levels = np.asarray(levels, dtype=float)
    edges = np.linspace(0.0, 1.0, cells + 1)
    out = [np.clip(np.minimum(b, levels[1:]) - np.maximum(a, levels[:-1]), 0.0, None)
           @ atoms / (b - a) for a, b in zip(edges[:-1], edges[1:])]
    return np.array(out), edges


def check_hj_initial_value(bound_json_text: str, psi_projected: float,
                           tol: float = 1e-6) -> Check:
    """f(0) is psi of the projected measure, to the program's quadrature error."""
    f0 = float(json.loads(bound_json_text)["0.0"]["f"])
    gap = abs(f0 - psi_projected)
    return Check("spinglass_f0_psi", gap <= tol,
                 f"|f(0) - psi(p_j mu)| = {gap:.3e} (tol {tol:.0e}), "
                 f"psi {psi_projected:.10f}")


def check_estimates(csv_text: str, psi: float, n_rows: int, replicas: int,
                    n_se: float = 4.5) -> Check:
    """The Monte Carlo estimates are whole, and at t = 0 they estimate psi.

    Every row has a finite mean, 0 < se < inf and the configured replica
    count; every t = 0 mean lies within n_se standard errors of psi.  At
    t = 0 the free energy is the one-spin functional of the measure, so the
    replica average is an estimate of psi.  The tolerance is wide because
    the replica average is right-skewed: see the README for the seed sweep
    behind 4.5 and for the size of error it detects.
    """
    rows = read_csv(csv_text)
    bad = [r for r in rows
           if not (math.isfinite(float(r["mean"]))
                   and 0.0 < float(r["se"]) < math.inf
                   and int(r["replicas"]) == replicas)]
    z = [(float(r["mean"]) - psi) / float(r["se"])
         for r in rows if float(r["t"]) == 0.0 and r not in bad]
    worst = max((abs(v) for v in z), default=math.inf)
    ok = len(rows) == n_rows and not bad and worst <= n_se
    return Check("spinglass_estimates", ok,
                 f"{len(rows)} rows (expected {n_rows}), {len(bad)} malformed, "
                 f"t = 0 worst |mean - psi| = {worst:.3f} SE (tol {n_se}), "
                 f"psi {psi:.10f}")


def check_hj_monotone(bound_json_text: str, times) -> Check:
    """The Hopf-Lax value f(t) is nondecreasing in t.

    nu = mu is admissible at every t and the conjugate penalty is
    nonincreasing in t, so f(t) >= f(s) for t >= s.  Only the ``f`` entries
    of the report are read; its ``pass`` flag is not used.
    """
    report = json.loads(bound_json_text)
    f = [float(report[str(float(t))]["f"]) for t in times]
    ok = all(np.isfinite(f)) and all(b >= a for a, b in zip(f, f[1:]))
    return Check("spinglass_hj_monotone", bool(ok),
                 "f(t) = " + ", ".join(f"{v:.10f}" for v in f))
