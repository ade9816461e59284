"""Monotone conjugation on grids over the cone and biconjugation checks.

Functions on C^j are tabulated on the monotone lattice inside a box
[0, x_max]^{|j|} (D = 1).  The monotone conjugate restricts the Legendre
supremum to the cone; the biconjugation identity g** = g characterizes
convex, lower-semicontinuous, dual-increasing functions and is verified
empirically with a grid-resolution tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import combinations_with_replacement
from math import comb

import numpy as np

from .cones import InvalidInputError, Partition


def monotone_lattice(n: int, axis: np.ndarray) -> np.ndarray:
    """All nondecreasing n-tuples with entries drawn from ``axis``.

    Returns an array of shape (P, n) with P = C(m + n - 1, n).
    """
    idx = np.array(list(combinations_with_replacement(range(axis.size), n)),
                   dtype=int).reshape(-1, n)
    return axis[idx]


@dataclass(frozen=True)
class GridFunction:
    """Real (or +inf) values on the monotone lattice in C^j ∩ [0, x_max]^n.

    ``values[i]`` belongs to row i of ``nodes``, the lattice of
    nondecreasing |j|-tuples drawn from ``axis``.  Scalar coordinates
    only (D = 1).
    """

    partition: Partition
    axis: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.axis, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if a.ndim != 1 or not np.all(np.diff(a) > 0) or a[0] != 0.0:
            raise InvalidInputError("axis must be strictly increasing from 0")
        n = self.partition.size
        if v.shape != (comb(a.size + n - 1, n),):
            raise InvalidInputError("one value per lattice node required")
        for arr, name in ((a, "axis"), (v, "values")):
            object.__setattr__(self, name, arr)
            arr.setflags(write=False)

    @cached_property
    def nodes(self) -> np.ndarray:
        """The lattice, shape (P, |j|); entries per node are nondecreasing."""
        nd = monotone_lattice(self.partition.size, self.axis)
        nd.setflags(write=False)
        return nd

    @classmethod
    def from_callable(cls, j: Partition, fn, x_max: float = 2.0,
                      steps: int = 11) -> "GridFunction":
        """Tabulate ``fn`` (vector of coordinates -> real) on the lattice."""
        axis = np.linspace(0.0, x_max, steps)
        vals = np.array([fn(x) for x in monotone_lattice(j.size, axis)])
        return cls(j, axis, vals)

    @property
    def step(self) -> float:
        return float(self.axis[1] - self.axis[0])

    @property
    def weights(self) -> np.ndarray:
        return self.partition.widths

    def finite_mask(self) -> np.ndarray:
        return np.isfinite(self.values)

    def lipschitz_estimate(self) -> float:
        """Max difference quotient in the H^j norm over near-neighbor pairs."""
        w = self.weights
        fin = self.finite_mask()
        nd, v = self.nodes[fin], self.values[fin]
        best = 0.0
        for blk in range(0, nd.shape[0], 256):
            a = nd[blk:blk + 256]
            fa = v[blk:blk + 256]
            d2 = self.partition.integrate((a[:, None, :] - nd[None, :, :]) ** 2)
            close = (d2 > 0) & (d2 <= (2.0 * self.step) ** 2 * w.sum() * self.partition.size)
            if not close.any():
                continue
            gaps = np.abs(fa[:, None] - v[None, :])[close]
            best = max(best, float(np.max(gaps / np.sqrt(d2[close]))))
        return best

    def to_json(self):
        return {"partition": self.partition.to_json(),
                "axis": self.axis.tolist(),
                "values": [v if np.isfinite(v) else "inf" for v in self.values]}

    @classmethod
    def from_json(cls, obj) -> "GridFunction":
        if not isinstance(obj, dict):
            raise InvalidInputError("grid function must be a JSON object")
        unknown = set(obj) - {"partition", "axis", "values"}
        if unknown:
            raise InvalidInputError(f"unknown grid function keys {sorted(unknown)}")
        j = Partition.from_json(obj["partition"])
        axis = np.asarray(obj["axis"], dtype=float)
        vals = np.array([np.inf if v == "inf" else float(v) for v in obj["values"]])
        return cls(j, axis, vals)


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
    return replace(g, values=out)


def _dual_ge(nodes: np.ndarray, w: np.ndarray, i: int):
    """Boolean mask of nodes x' with nodes[i] - x' in the dual cone."""
    d = nodes[i] - nodes  # (P, n)
    tails = np.cumsum((d * w)[:, ::-1], axis=1)[:, ::-1]
    return np.all(tails >= -1e-12, axis=1)


def dual_increasing_check(g: GridFunction):
    """Scan grid pairs ordered by the dual cone for g(x) >= g(x').

    Returns (ok, counterexample); the counterexample is a pair of node
    index tuples with the violating values.
    """
    w = g.weights
    v = g.values
    for i in range(g.nodes.shape[0]):
        mask = _dual_ge(g.nodes, w, i)
        bad = mask & (v > v[i] + 1e-12) & np.isfinite(v) & np.isfinite(v[i])
        if bad.any():
            k = int(np.argmax(bad))
            return False, {"x": g.nodes[i].tolist(), "x_prime": g.nodes[k].tolist(),
                           "g_x": float(v[i]), "g_x_prime": float(v[k])}
    return True, None


def convexity_check(g: GridFunction):
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
            if mid > 0.5 * (v[i] + v[k]) + 1e-9:
                return False, {"x": nd[i].tolist(), "y": nd[k].tolist(),
                               "g_mid": float(mid),
                               "avg": float(0.5 * (v[i] + v[k]))}
    return True, None


def fm_verify(g: GridFunction) -> dict:
    """Empirical biconjugation test g** = g on the effective domain.

    Dual-increasingness and convexity are checked first; a failing check
    aborts with a diagnostic instead of a gap report.  The tolerance is
    5 * (grid step) * (Lip(g) + Lip(g*)).
    """
    ok, ce = dual_increasing_check(g)
    if not ok:
        return {"pass": False, "refused": "dual_increasing", "witness": ce}
    ok, ce = convexity_check(g)
    if not ok:
        return {"pass": False, "refused": "convex", "witness": ce}
    gs = mono_conjugate(g)
    gss = mono_conjugate(gs)
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
