"""Monotone conjugation on grids over the cone and biconjugation checks.

Functions on C^j are tabulated on the monotone lattice inside a box
[0, x_max]^{|j|} (D = 1).  The monotone conjugate restricts the Legendre
supremum to the cone; the biconjugation identity g** = g characterizes
convex, lower-semicontinuous, dual-increasing functions and is verified
empirically with a grid-resolution tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations_with_replacement

import numpy as np

from .cones import ConePoint, InvalidInputError, Partition, UnsupportedOperationError


def monotone_lattice(n: int, axis: np.ndarray) -> np.ndarray:
    """All nondecreasing n-tuples with entries drawn from ``axis``.

    Returns an array of shape (P, n) with P = C(m + n - 1, n).
    """
    idx = np.array(list(combinations_with_replacement(range(axis.size), n)),
                   dtype=int).reshape(-1, n)
    return axis[idx]


def monotone_increments(n: int) -> np.ndarray:
    """The (n - 1, n) matrix of increments x_{i+1} - x_i; D x >= 0 is monotonicity."""
    return np.diff(np.eye(n), axis=0)


@dataclass(frozen=True)
class GridFunction:
    """Real (or +inf) values on the monotone lattice in C^j ∩ [0, x_max]^n.

    ``nodes`` has shape (P, |j|); entries per node are nondecreasing.
    Scalar coordinates only (D = 1).
    """

    partition: Partition
    axis: np.ndarray
    nodes: np.ndarray
    values: np.ndarray
    convex: bool = True
    lsc: bool = True
    dual_increasing: bool = True

    def __post_init__(self):
        a = np.asarray(self.axis, dtype=float)
        nd = np.asarray(self.nodes, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if a.ndim != 1 or not np.all(np.diff(a) > 0) or a[0] != 0.0:
            raise InvalidInputError("axis must be strictly increasing from 0")
        if nd.shape != (v.size, self.partition.size):
            raise InvalidInputError("nodes/values shape mismatch")
        if np.any(np.diff(nd, axis=1) < 0) or np.any(nd[:, 0] < 0):
            raise InvalidInputError("grid nodes must lie in the cone")
        for arr, name in ((a, "axis"), (nd, "nodes"), (v, "values")):
            object.__setattr__(self, name, arr)
            arr.setflags(write=False)

    @classmethod
    def from_callable(cls, j: Partition, fn, x_max: float = 2.0,
                      steps: int = 11, **flags) -> "GridFunction":
        """Tabulate ``fn`` (vector of coordinates -> real) on the lattice."""
        axis = np.linspace(0.0, x_max, steps)
        nodes = monotone_lattice(j.size, axis)
        vals = np.array([fn(x) for x in nodes], dtype=float)
        return cls(j, axis, nodes, vals, **flags)

    @property
    def step(self) -> float:
        return float(self.axis[1] - self.axis[0])

    @property
    def weights(self) -> np.ndarray:
        return self.partition.widths

    def finite_mask(self) -> np.ndarray:
        return np.isfinite(self.values)

    def node_point(self, i: int) -> ConePoint:
        return ConePoint(self.partition, self.nodes[i])

    def lipschitz_estimate(self) -> float:
        """Max difference quotient in the H^j norm over near-neighbor pairs."""
        w = self.weights
        fin = self.finite_mask()
        nd, v = self.nodes[fin], self.values[fin]
        best = 0.0
        for blk in range(0, nd.shape[0], 256):
            a = nd[blk:blk + 256]
            fa = v[blk:blk + 256]
            d2 = np.sum(w * (a[:, None, :] - nd[None, :, :]) ** 2, axis=2)
            close = (d2 > 0) & (d2 <= (2.0 * self.step) ** 2 * w.sum() * self.partition.size)
            if not close.any():
                continue
            gaps = np.abs(fa[:, None] - v[None, :])[close]
            best = max(best, float(np.max(gaps / np.sqrt(d2[close]))))
        return best

    def to_json(self):
        return {"partition": self.partition.to_json(),
                "axis": self.axis.tolist(),
                "values": [v if np.isfinite(v) else "inf" for v in self.values],
                "flags": {"convex": self.convex, "lsc": self.lsc,
                          "dual_increasing": self.dual_increasing}}

    @classmethod
    def from_json(cls, obj) -> "GridFunction":
        j = Partition.from_json(obj["partition"])
        axis = np.asarray(obj["axis"], dtype=float)
        nodes = monotone_lattice(j.size, axis)
        vals = np.array([np.inf if v == "inf" else float(v) for v in obj["values"]])
        flags = obj.get("flags", {})
        return cls(j, axis, nodes, vals, **flags)


def mono_conjugate(g: GridFunction) -> GridFunction:
    """g*(y) = max over grid x in the cone of <x, y> - g(x), y on the same grid."""
    fin = g.finite_mask()
    if not fin.any():
        raise InvalidInputError("conjugate of the identically +inf function")
    w = g.weights
    X = g.nodes[fin]
    gx = g.values[fin]
    # pairing matrix <x, y> for all grid pairs, blockwise to bound memory
    out = np.empty(g.nodes.shape[0])
    Xw = X * w
    for blk in range(0, g.nodes.shape[0], 512):
        Y = g.nodes[blk:blk + 512]
        out[blk:blk + 512] = np.max(Y @ Xw.T - gx, axis=1)
    return replace(g, values=out, convex=True, lsc=True, dual_increasing=True)


def _dual_ge(nodes: np.ndarray, w: np.ndarray, i: int, tol: float = 1e-12):
    """Boolean mask of nodes x' with nodes[i] - x' in the dual cone."""
    d = nodes[i] - nodes  # (P, n)
    tails = np.cumsum((d * w)[:, ::-1], axis=1)[:, ::-1]
    return np.all(tails >= -tol, axis=1)


def dual_increasing_check(g: GridFunction, tol: float = 1e-12):
    """Scan grid pairs ordered by the dual cone for g(x) >= g(x').

    Returns (ok, counterexample); the counterexample is a pair of node
    index tuples with the violating values.
    """
    w = g.weights
    v = g.values
    for i in range(g.nodes.shape[0]):
        mask = _dual_ge(g.nodes, w, i)
        bad = mask & (v > v[i] + tol) & np.isfinite(v) & np.isfinite(v[i])
        if bad.any():
            k = int(np.argmax(bad))
            return False, {"x": g.nodes[i].tolist(), "x_prime": g.nodes[k].tolist(),
                           "g_x": float(v[i]), "g_x_prime": float(v[k])}
    return True, None


def convexity_check(g: GridFunction, tol: float = 1e-9):
    """Midpoint convexity over all grid pairs whose midpoint is on-grid."""
    fin = g.finite_mask()
    nd, v = g.nodes[fin], g.values[fin]
    index = {tuple(np.round(x / g.step).astype(int)): val for x, val in zip(nd, v)}
    P = nd.shape[0]
    keys = np.round(nd / g.step).astype(int)
    for i in range(P):
        s = keys[i] + keys  # midpoint * 2 in index units
        even = np.all(s % 2 == 0, axis=1)
        for k in np.nonzero(even)[0]:
            mid = index.get(tuple(s[k] // 2))
            if mid is None:
                continue
            if mid > 0.5 * (v[i] + v[k]) + tol:
                return False, {"x": nd[i].tolist(), "y": nd[k].tolist(),
                               "g_mid": float(mid),
                               "avg": float(0.5 * (v[i] + v[k]))}
    return True, None


def fm_verify(g: GridFunction, tol: float = None) -> dict:
    """Empirical biconjugation test g** = g on the effective domain.

    The dual-increasing and convexity flags are checked first; a failing
    flag aborts with a diagnostic instead of a gap report.  The default
    tolerance is 5 * (grid step) * (Lip(g) + Lip(g*)).
    """
    ok, ce = dual_increasing_check(g)
    if not ok:
        return {"pass": False, "refused": "dual_increasing", "witness": ce}
    ok, ce = convexity_check(g)
    if not ok:
        return {"pass": False, "refused": "convex", "witness": ce}
    gs = mono_conjugate(g)
    gss = mono_conjugate(gs)
    if tol is None:
        tol = 5.0 * g.step * (g.lipschitz_estimate() + gs.lipschitz_estimate())
    fin = g.finite_mask()
    gaps = np.abs(gss.values[fin] - g.values[fin])
    i = int(np.argmax(gaps))
    # g** never exceeds g
    overshoot = float(np.max(gss.values[fin] - g.values[fin]))
    return {"pass": bool(gaps[i] <= tol),
            "max_gap": float(gaps[i]),
            "overshoot": overshoot,
            "tol": float(tol),
            "witness": g.nodes[fin][i].tolist()}


def full_rank_interior_box(x: ConePoint):
    """Interior box inside C^j ∩ (x - (C^j)*) when the top coordinate is positive.

    D = 1 only.  Returns (center, radius) with center the delta-spaced
    ramp (delta, 2 delta, ...), or None when the top coordinate vanishes
    (the feasible set then has empty interior).
    """
    if x.dim != 1:
        raise UnsupportedOperationError("interior box construction requires D = 1")
    v = x.scalars
    if not (np.all(v >= 0) and np.all(np.diff(v) >= 0)):
        raise InvalidInputError("x must lie in the cone")
    if v[-1] <= 0:
        return None
    w = x.partition.widths
    n = v.size
    tails = np.cumsum((w * v)[::-1])[::-1]
    if tails[-1] <= 0:
        return None
    ramp_tails = np.cumsum((w * np.arange(1, n + 1))[::-1])[::-1]
    delta = 0.5 * float(np.min(tails / ramp_tails))
    center = ConePoint(x.partition, delta * np.arange(1, n + 1))
    radius = delta / (4.0 * n)
    return center, radius


def box_feasible(x: ConePoint, center: ConePoint, radius: float,
                 corners_only: bool = True, tol: float = 1e-12) -> bool:
    """Check that the sup-ball around ``center`` stays inside C^j ∩ (x - (C^j)*)."""
    from itertools import product
    w = x.partition.widths
    n = center.partition.size
    c = center.scalars
    xv = x.scalars
    for signs in product((-1.0, 1.0), repeat=n):
        y = c + radius * np.array(signs)
        if y[0] <= tol or np.any(np.diff(y) <= tol):
            return False
        tails = np.cumsum((w * (xv - y))[::-1])[::-1]
        if np.any(tails < -tol):
            return False
    return True
