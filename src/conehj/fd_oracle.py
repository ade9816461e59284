"""Finite-difference oracle for the scalar conservation-form equation.

An explicit Lax-Friedrichs scheme solves d/dt f = xibar(d/dx f) on
[0, X] for scalar, nondecreasing, Lipschitz initial data.  No boundary
condition is needed at x = 0 (the one-sided forward difference is valid
because f_x >= 0 and xibar is nondecreasing there); at x = X the profile
is extended linearly with the Lipschitz cap P.  The module also
evaluates the penalized comparison functional
u - v - M (|x| + V t - R)_+ whose global supremum should sit at t = 0
for ordered solutions.  The CFL step and the speed V take the sup of
|xibar'| on a slope interval from ``regularize(model).deriv_sup``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cones import InvalidInputError
from .nonlinearity import CovarianceModel, regularize
from .solvers import hopf_lax_pointwise


def _check_grid(x_max: float, dx: float):
    """Refuse a spacing or extent that is not finite and positive, a grid of
    fewer than 2 nodes, and a node count that overflows."""
    if not (0.0 < dx < np.inf and 0.0 < x_max < np.inf):
        raise InvalidInputError("dx and x_max must be finite and positive")
    if x_max / dx == np.inf:
        raise InvalidInputError("the node count x_max / dx overflows")
    if round(x_max / dx) < 1:
        raise InvalidInputError("the grid needs at least 2 nodes: "
                                "round(x_max / dx) >= 1")


@dataclass(frozen=True)
class FdGrid:
    """Uniform space-time grid for the scalar oracle with a CFL guard."""

    x_max: float
    dx: float
    dt: float
    slope_cap: float  # P: Lipschitz cap of the initial datum

    def validate(self, model: CovarianceModel):
        _check_grid(self.x_max, self.dx)
        if not 0.0 < self.dt < np.inf:
            raise InvalidInputError("dt must be finite and positive")
        speed = regularize(model).deriv_sup(0.0, self.slope_cap)
        cfl = self.dt * speed / self.dx
        if cfl > 0.5 + 1e-12:
            raise InvalidInputError(f"CFL ratio {cfl:.3f} exceeds 1/2")
        return cfl

    @classmethod
    def make(cls, model: CovarianceModel, x_max: float, dx: float,
             slope_cap: float) -> "FdGrid":
        _check_grid(x_max, dx)
        speed = max(regularize(model).deriv_sup(0.0, slope_cap), 1e-12)
        dt = 0.9 * 0.5 * dx / speed
        return cls(x_max, dx, dt, slope_cap)

    @property
    def xs(self) -> np.ndarray:
        n = int(round(self.x_max / self.dx))
        return np.linspace(0.0, n * self.dx, n + 1)


@dataclass(frozen=True)
class FdSurface:
    """Scalar solution snapshots: values[i, k] = f(times[i], xs[k])."""

    times: np.ndarray
    xs: np.ndarray
    values: np.ndarray


def fd_solve(phi, model: CovarianceModel, grid: FdGrid, T: float) -> FdSurface:
    """Lax-Friedrichs solution of d/dt f = xibar(d/dx f), f(0, .) = phi.

    ``phi`` must be vectorized, nondecreasing and Lipschitz with
    constant <= grid.slope_cap, and T finite and >= 0.  Snapshot rows
    are stored at 33 evenly spaced times including 0 and T.

    The state u of the n nodes sits in a buffer of n + 1 floats whose
    last slot is the ghost node u[n - 1] + P dx.  A step fills a slope
    buffer with the one-sided forward difference at x = 0 (no boundary
    data is needed there) and the central differences at the other
    nodes, so each step evaluates xibar once, on all n nodes.
    """
    grid.validate(model)
    if not 0.0 <= T < np.inf:
        raise InvalidInputError("T must be nonnegative and finite")
    reg = regularize(model)
    xs = grid.xs
    u0 = np.asarray(phi(xs), dtype=float)
    if np.any(np.diff(u0) < -1e-12):
        raise InvalidInputError("initial datum must be nondecreasing")
    if np.max(np.abs(np.diff(u0))) > grid.slope_cap * grid.dx * (1 + 1e-8):
        raise InvalidInputError("initial datum exceeds the slope cap")
    n_steps = int(np.ceil(T / grid.dt))
    dt = T / n_steps if n_steps > 0 else grid.dt
    snap_at = set(np.round(np.linspace(0, n_steps, 33)).astype(int).tolist())
    n, dx = xs.size, grid.dx
    ghost = grid.slope_cap * dx
    state = np.empty(n + 1)  # u on the n nodes, then the ghost node
    u, right, left = state[:n], state[2:], state[:-2]
    u[:] = u0
    slope, average = np.empty(n), np.empty(n)
    central, mean = slope[1:], average[1:]
    times, rows = [], []
    for step in range(n_steps + 1):
        if step in snap_at:
            times.append(step * dt)
            rows.append(u.copy())
        if step == n_steps:
            break
        state[n] = u[-1] + ghost
        slope[0] = (u[1] - u[0]) / dx
        np.subtract(right, left, out=central)
        central /= 2.0 * dx
        average[0] = u[0]
        np.add(right, left, out=mean)
        mean *= 0.5
        flux = reg(slope)
        flux *= dt
        np.add(average, flux, out=u)
    return FdSurface(np.asarray(times), xs, np.asarray(rows))


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of the penalized comparison functional scan."""

    M: float
    R: float
    V: float
    t_star: float
    x_star: float
    margin: float
    passed: bool

    def to_json(self):
        return {"M": self.M, "R": self.R, "V": self.V, "t_star": self.t_star,
                "x_star": self.x_star, "margin": self.margin, "pass": self.passed}


def fd_vs_hopf_lax(phi, model: CovarianceModel, x_max: float, dx: float,
                   T: float, slope_cap: float):
    """The Hopf-Lax and Lax-Friedrichs surfaces that ``comparison_check`` compares.

    Solves on [0, x_max] with spacing ``dx`` up to time ``T``, keeps every
    max(1, size // 200)-th node, and tabulates the per-coordinate Hopf-Lax
    value there at each snapshot time.  Returns (hopf_lax, fd).
    """
    fd = fd_solve(phi, model, FdGrid.make(model, x_max, dx, slope_cap), T)
    sub = slice(0, fd.xs.size, max(1, fd.xs.size // 200))
    xs = fd.xs[sub]
    vals = hopf_lax_pointwise(phi, model, fd.times[:, None], xs)
    return FdSurface(fd.times, xs, vals), FdSurface(fd.times, xs, fd.values[:, sub])


def comparison_check(u: FdSurface, v: FdSurface, L: float,
                     model: CovarianceModel, tol: float) -> ComparisonReport:
    """Scan u - v - M (|x| + V t - R)_+ for a global max away from t = 0.

    ``L`` bounds both spatial Lipschitz constants, M = 2L + 1/2, R is half
    the spatial extent and V the Lipschitz constant of xibar on the slope
    ball of radius 2L + 3M.  The report passes when the sup over t > 0
    exceeds the t = 0 sup by at most ``tol``, so the surfaces must hold
    the t = 0 row and at least one row after it.
    """
    if u.xs.shape != v.xs.shape or not np.allclose(u.xs, v.xs):
        raise InvalidInputError("surfaces live on different spatial grids")
    if u.times.shape != v.times.shape or not np.allclose(u.times, v.times):
        raise InvalidInputError("surfaces live on different time grids")
    if u.times.size < 2 or u.times[0] != 0.0:
        raise InvalidInputError("comparison needs the t = 0 snapshot and one "
                                "after it (T > 0)")
    M = 2.0 * L + 0.5
    if M <= 2.0 * L:
        raise InvalidInputError("comparison requires M > 2L")
    B = 2.0 * L + 3.0 * M
    V = regularize(model).deriv_sup(-B, B)
    R = 0.5 * float(u.xs[-1])
    pen = M * np.maximum(np.abs(u.xs)[None, :] + V * u.times[:, None] - R, 0.0)
    W = u.values - v.values - pen
    sup0 = float(W[0].max())
    sup_pos = float(W[1:].max())
    margin = sup_pos - sup0
    if margin <= tol:
        # supremum effectively achieved on the initial slice
        t_star, x_star = 0.0, float(u.xs[int(np.argmax(W[0]))])
    else:
        ti, xi = np.unravel_index(int(np.argmax(W)), W.shape)
        t_star, x_star = float(u.times[ti]), float(u.xs[xi])
    return ComparisonReport(float(M), float(R), float(V), t_star, x_star,
                            float(margin), bool(margin <= tol))
