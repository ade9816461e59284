"""Variational solution formulas on the cone of monotone scalar paths.

Each route takes the covariance model xi and is implemented for D = 1:

* ``hopf_lax`` (and ``hopf_lax_separable`` for separable psi) — sup over
  cone increments y of psi(x + y) minus the integrated conjugate of the
  regularization xibar at y / t;
* ``hopf`` — sup over cone slopes z of the pairing with x minus the
  monotone conjugate of psi plus the integrated plain xi at z (requires
  convex psi);
* ``hopf_lax_1d`` — sup over monotone paths nu of psi(nu) minus the
  pointwise conjugate of xibar at (nu - mu) / t.

xibar equals xi on [0, s0] with seam point s0 >= 1, and ``hopf`` only
visits slopes up to the Lipschitz constant of psi, so for data with
Lipschitz constant <= 1 plain xi gives the same value.  The routes agree
for convex nonlinearities and admissible initial data, which the test
suite exploits as a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np
from scipy import optimize

from .cones import (ConePoint, InvalidInputError, Partition, StepPath,
                    UnsupportedOperationError, is_in_cone, lift_lj, project_pj)
from .conjugates import monotone_increments, monotone_lattice
from .nonlinearity import CovarianceModel, regularize, xi_star_vec

KIND_LINEAR = "linear"
KIND_SEPARABLE = "separable"
KIND_CUSTOM = "custom"


@dataclass(frozen=True)
class InitialCondition:
    """Initial datum psi on monotone step paths, with regularity metadata.

    ``lip_l1`` bounds |psi(mu) - psi(nu)| by lip_l1 * |mu - nu|_{L^1};
    ``lip_h`` is the L^2 (H-norm) Lipschitz constant used by audits.
    Separable data psi(mu) = int phi(mu(s)) ds carry the scalar profile
    ``phi`` (vectorized) for fast per-coordinate evaluation.
    """

    kind: str
    lip_l1: float
    lip_h: float
    convex: bool
    dual_increasing: bool
    h: StepPath = None
    phi: object = None
    fn: object = None

    # -- constructors -------------------------------------------------
    @classmethod
    def linear(cls, h: StepPath) -> "InitialCondition":
        mono = bool(is_in_cone(ConePoint(h.partition, h.values)))
        return cls(KIND_LINEAR,
                   lip_l1=float(np.abs(h.values).max(initial=0.0)),
                   lip_h=h.norm(), convex=True, dual_increasing=mono,
                   h=h)

    @classmethod
    def separable(cls, phi, lip: float) -> "InitialCondition":
        """psi(mu) = int phi(mu(s)) ds with phi convex, nondecreasing, lip-Lipschitz."""
        return cls(KIND_SEPARABLE, lip_l1=float(lip), lip_h=float(lip),
                   convex=True, dual_increasing=True, phi=phi)

    @classmethod
    def softplus(cls, weights, thresholds, scales) -> "InitialCondition":
        """Softplus mixture phi(r) = sum_i a_i tau_i log(1 + e^((r - th_i) / tau_i)).

        Increasing and convex, with Lipschitz constant sum_i a_i.
        """
        a = np.asarray(weights, dtype=float)
        th = np.asarray(thresholds, dtype=float)
        tau = np.asarray(scales, dtype=float)

        def phi(r):
            r = np.asarray(r, dtype=float)[..., None]
            return np.sum(a * tau * np.logaddexp(0.0, (r - th) / tau), axis=-1)

        return cls.separable(phi, lip=float(a.sum()))

    @classmethod
    def quadratic_monotone(cls, slope: float, curvature: float,
                           cap: float) -> "InitialCondition":
        """Huber profile: quadratic up to ``cap`` then linear; keeps psi Lipschitz."""
        a, b, c = float(slope), float(curvature), float(cap)

        def phi(r):
            r = np.asarray(r, dtype=float)
            quad = a * r + 0.5 * b * np.minimum(r, c) ** 2
            return quad + b * c * np.maximum(r - c, 0.0)

        return cls.separable(phi, lip=a + b * c)

    @classmethod
    def custom(cls, fn, lip_l1: float, convex: bool = False,
               dual_increasing: bool = True) -> "InitialCondition":
        return cls(KIND_CUSTOM, lip_l1=float(lip_l1), lip_h=float(lip_l1),
                   convex=convex, dual_increasing=dual_increasing, fn=fn)

    # -- evaluation ---------------------------------------------------
    def __call__(self, path: StepPath) -> float:
        if self.kind == KIND_LINEAR:
            return self.h.inner(path)
        if self.kind == KIND_SEPARABLE:
            w = path.partition.widths
            return float(np.sum(w * self.phi(path.values[:, 0, 0])))
        return float(self.fn(path))

    def eval_point(self, x: ConePoint) -> float:
        return self(lift_lj(x))

    def eval_coords(self, j: Partition, X: np.ndarray) -> np.ndarray:
        """Vectorized psi^j over rows of X (shape (P, |j|), scalar coords)."""
        X = np.asarray(X, dtype=float)
        w = j.widths
        if self.kind == KIND_LINEAR:
            return X @ (w * project_pj(self.h, j).scalars)
        if self.kind == KIND_SEPARABLE:
            return self.phi(X) @ w
        return np.array([self(StepPath(j, row[:, None, None])) for row in X])


@dataclass(frozen=True)
class SolutionSurface:
    """Tabulated values f(t, x) on a time grid and spatial sample set."""

    partition: Partition
    times: np.ndarray
    samples: tuple
    values: np.ndarray  # shape (len(times), len(samples))

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if v.shape != (t.size, len(self.samples)):
            raise InvalidInputError("values must be (n_times, n_samples)")
        if not np.all(np.isfinite(v)):
            raise InvalidInputError("surface values must be finite")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)


# ---------------------------------------------------------------------------
# shared optimization helpers

def _require(psi: InitialCondition, model: CovarianceModel, x: ConePoint,
             t: float, route: str, name: str = "x"):
    """Preconditions shared by every route.

    xi is a CovarianceModel, the point has D = 1, psi is
    dual-increasing, the point lies in the cone and t >= 0.
    """
    if not isinstance(model, CovarianceModel):
        raise InvalidInputError(f"{route} takes the CovarianceModel xi")
    if x.dim != 1:
        raise UnsupportedOperationError(f"{route} is implemented for D = 1 only")
    if not psi.dual_increasing:
        raise InvalidInputError(f"{route} requires a dual-increasing psi")
    if not is_in_cone(x):
        raise InvalidInputError(f"{name} must lie in the cone")
    if t < 0:
        raise InvalidInputError("t must be nonnegative")


# The one search schedule: a 513-point scan of the whole box, then
# 129-point rounds over two spacings either side of the argmax, each
# narrowing the window 32-fold.  Ten rounds bring the spacing to 2^-59 of
# the box, below one ulp of any centre past 1/64 of it.
_ZOOM = (513,) + (129,) * 10


def _zoom_argmax(f, shape, top: float) -> np.ndarray:
    """Entrywise max over s in [0, top] of f, for an array of ``shape``.

    ``f`` maps grids with a trailing axis of candidate s to values.
    Round i scans ``_ZOOM[i]`` uniform points of each entry's window,
    then shrinks the window to two spacings either side of the argmax.
    The zoom stops early once every spacing is at most one ulp of its
    centre, when a further round could only re-grid the same floats.
    Returns the best values of the last round.
    """
    lo = np.zeros(shape)
    hi = np.full(shape, top)
    for scan in _ZOOM:
        grid = lo[..., None] + (hi - lo)[..., None] * np.linspace(0.0, 1.0, scan)
        vals = f(grid)
        k = np.argmax(vals, axis=-1)[..., None]
        best = np.take_along_axis(vals, k, axis=-1)[..., 0]
        centers = np.take_along_axis(grid, k, axis=-1)[..., 0]
        span = (hi - lo) / (scan - 1)
        if np.all(span <= np.spacing(centers)):
            break
        lo = np.maximum(centers - 2 * span, 0.0)
        hi = np.minimum(centers + 2 * span, top)
    return best


def _golden_max(f, shape, top: float) -> np.ndarray:
    """Entrywise max over s in [0, top] of f, concave in s, for an array of ``shape``.

    ``f`` maps an array of ``shape`` of candidate s to values.  A
    golden-section search keeps one interior point per iteration and
    evaluates one new one; the result is the best value seen, including
    f(0) and f(top), so maxima on the boundary are hit exactly.  The
    search stops once every bracket is at most 4 ulp of max(1, its upper
    end) wide, which from [0, 64] takes about 80 iterations.
    """
    g = (np.sqrt(5.0) - 1.0) / 2.0
    lo = np.zeros(shape)
    hi = np.full(shape, float(top))
    c, d = hi - g * (hi - lo), lo + g * (hi - lo)
    fc, fd = f(c), f(d)
    best = np.maximum(np.maximum(f(lo), f(hi)), np.maximum(fc, fd))
    while np.any(hi - lo > 4 * np.spacing(np.maximum(hi, 1.0))):
        left = fc >= fd  # the max lies in [lo, d]; else in [c, hi]
        hi = np.where(left, d, hi)
        lo = np.where(left, lo, c)
        s = np.where(left, hi - g * (hi - lo), lo + g * (hi - lo))
        fs = f(s)
        c, d = np.where(left, s, d), np.where(left, c, s)
        fc, fd = np.where(left, fs, fd), np.where(left, fc, fs)
        best = np.maximum(best, fs)
    return best


def _lattice_starts(score, n: int, ub: float, budget: int = 3000) -> list:
    """The six best nodes of the monotone lattice on [0, ub]^n, as SLSQP starts.

    ``score`` maps the lattice, one node per row, to objective values.
    The axis has the most points m for which the lattice's C(m + n - 1, n)
    nodes stay within ``budget`` (and at least 3).
    """
    m = 3
    while comb(m + n, n) <= budget:
        m += 1
    Y = monotone_lattice(n, np.linspace(0.0, ub, m))
    order = np.argsort(score(Y))[::-1][:6]
    return [Y[i] for i in order]


def _polish(objective, starts: list, ub: float, maxiter: int = 200) -> float:
    """Maximize over the cone box [0, ub]^n with SLSQP from each start."""
    n = starts[0].size
    cons = ([optimize.LinearConstraint(monotone_increments(n), 0.0, np.inf)]
            if n > 1 else [])
    best = -np.inf
    for s in starts:
        res = optimize.minimize(lambda y: -objective(y), np.asarray(s, float),
                                method="SLSQP", bounds=[(0.0, ub)] * n,
                                constraints=cons,
                                options={"maxiter": maxiter, "ftol": 1e-14})
        cand = float(-res.fun)
        if np.isfinite(cand) and cand > best:
            y = np.clip(res.x, 0.0, ub)
            y = np.maximum.accumulate(y)
            cand = float(objective(y))
            best = max(best, cand)
    for s in starts:
        best = max(best, float(objective(np.asarray(s, float))))
    return best


# ---------------------------------------------------------------------------
# Hopf-Lax

def hopf_lax(psi: InitialCondition, model: CovarianceModel, j: Partition,
             t: float, x: ConePoint) -> float:
    """sup over cone increments y of psi^j(x + y) - t * sum_k w_k xibar*(y_k / t).

    The inner infimum over dual slopes collapses to the pointwise
    conjugate for D = 1; the conjugate is +inf past the slope cap 2L,
    which bounds the search box by y <= 2 L t.
    """
    _require(psi, model, x, t, "hopf_lax")
    if t == 0.0:
        return psi.eval_point(x)
    reg = regularize(model)
    n = j.size
    w = j.widths
    xv = x.scalars
    ub = reg.slope_cap * t

    def objective(y):
        y = np.clip(np.asarray(y, dtype=float), 0.0, ub)
        pen = np.minimum(xi_star_vec(reg, y / t), 1e12)
        return psi.eval_coords(j, (xv + y)[None, :])[0] \
            - t * float(np.sum(w * pen))

    if ub == 0.0:
        return float(objective(np.zeros(n)))
    starts = _lattice_starts(
        lambda Y: psi.eval_coords(j, xv + Y) - t * (xi_star_vec(reg, Y / t) @ w),
        n, ub)
    return _polish(objective, starts, ub)


def hopf_lax_separable(psi: InitialCondition, model: CovarianceModel,
                       j: Partition, t: float, x: ConePoint) -> float:
    """Fast Hopf-Lax path for separable psi (any |j|).

    The objective decouples per coordinate; monotone selection of the
    per-coordinate maximizers is feasible because the coupling term has
    increasing differences, so the unconstrained per-coordinate suprema
    attain the constrained value.
    """
    if psi.kind != KIND_SEPARABLE:
        raise InvalidInputError("separable path requires a separable psi")
    _require(psi, model, x, t, "hopf_lax_separable")
    best = hopf_lax_pointwise(psi.phi, model, t, x.scalars)
    return float(np.sum(j.widths * best))


def hopf_lax_pointwise(phi, model: CovarianceModel, t: float,
                       xv: np.ndarray) -> np.ndarray:
    """Per-coordinate sup_y {phi(x + y) - t xibar*(y / t)} over y in [0, 2Lt]."""
    xv = np.asarray(xv, dtype=float)
    reg = regularize(model)
    ub = reg.slope_cap * t
    if ub == 0.0:
        return phi(xv) - t * xi_star_vec(reg, np.zeros_like(xv))
    return _zoom_argmax(
        lambda y: phi(xv[:, None] + y) - t * xi_star_vec(reg, y / t),
        xv.shape, ub)


# ---------------------------------------------------------------------------
# Hopf

def _phi_conjugate_vec(psi: InitialCondition, z: np.ndarray) -> np.ndarray:
    """Monotone conjugate of the separable profile: phi*(z) = sup_{s>=0} zs - phi(s).

    phi is convex, so zs - phi(s) is concave in s and one golden-section
    search per entry finds the sup over [0, 64].
    """
    z = np.asarray(z, dtype=float)
    return _golden_max(lambda s: z * s - psi.phi(s), z.shape, 64.0)


def hopf(psi: InitialCondition, model: CovarianceModel, j: Partition,
         t: float, x: ConePoint) -> float:
    """sup over cone slopes z of <x, z> - psi^{j*}(z) + t * sum_k w_k xi(z_k).

    Requires convex psi.  For linear psi = <h, .> the conjugate is 0 on
    {z in C^j : h^j - z in (C^j)*} and +inf outside, with h^j = p_j h in
    the cone since psi is dual-increasing.  Every such z has
    <x, z> <= <x, h^j> (x in the cone, h^j - z in its dual) and tail sums
    at most those of h^j, so sum_k w_k xi(z_k) <= sum_k w_k xi(h^j_k) for
    xi convex and nondecreasing on [0, inf): the sup is attained at
    z = h^j.  For separable psi the optimal z satisfies
    |z|_inf <= lip_l1 of psi (slopes beyond the Lipschitz constant make
    the conjugate +inf), which truncates the search region.
    """
    _require(psi, model, x, t, "hopf")
    if not psi.convex:
        raise InvalidInputError("hopf requires a convex psi")
    w = j.widths
    xv = x.scalars
    if psi.kind == KIND_LINEAR:
        hj = project_pj(psi.h, j).scalars
        return float(w @ (xv * hj + t * model(hj)))
    if psi.kind != KIND_SEPARABLE:
        raise UnsupportedOperationError(
            "hopf supports linear and separable psi")
    cap = psi.lip_l1
    # per-coordinate objective x_k z - phi*(z) + t xi(z); increasing
    # differences in (z, x_k) make the per-coordinate suprema jointly
    # attainable on the cone for monotone x
    best = _zoom_argmax(
        lambda z: xv[:, None] * z - _phi_conjugate_vec(psi, z) + t * model(z),
        xv.shape, cap)
    return float(np.sum(w * best))


# ---------------------------------------------------------------------------
# one-dimensional Hopf-Lax reduction

def hopf_lax_1d(psi: InitialCondition, model: CovarianceModel, j: Partition,
                t: float, mu: ConePoint,
                rng: np.random.Generator = None) -> float:
    """sup over monotone nu of psi^j(nu) - t * sum_k w_k xibar*((nu_k - mu_k) / t).

    The conjugate is flat at -xi(0) for nonpositive slopes, so nu is
    free to dip below mu; the search box caps nu at mu plus t times the
    slope at which the marginal conjugate cost exceeds the Lipschitz
    constant of psi.  t = 0 falls back to psi^j(mu) by convention.
    """
    _require(psi, model, mu, t, "hopf_lax_1d", "mu")
    if t == 0.0:
        return psi.eval_point(mu)
    reg = regularize(model)
    w = j.widths
    muv = mu.scalars
    n = j.size
    # marginal conjugate slope exceeds lip once the optimizer s passes
    # the Lipschitz constant, i.e. past r = xi'(lip)
    r_cap = min(model.deriv(psi.lip_l1) if model.poly else 0.0, reg.slope_cap)
    ub = float(muv.max(initial=0.0) + t * r_cap + 1e-9)

    def objective(nu):
        # slopes past the conjugate domain carry a huge-but-finite
        # penalty so SLSQP's finite differences stay well defined
        pen = np.minimum(xi_star_vec(reg, (np.asarray(nu) - muv) / t), 1e12)
        return psi.eval_coords(j, np.asarray(nu)[None, :])[0] \
            - t * float(np.sum(w * pen))

    starts = [muv.copy(), np.minimum(muv + t * r_cap, ub),
              np.zeros(n), np.full(n, min(float(muv.mean()), ub))]
    cheap_psi = psi.kind != KIND_CUSTOM
    budget = 3000 if cheap_psi else 200
    if n <= (5 if cheap_psi else 3):
        starts += _lattice_starts(
            lambda NU: psi.eval_coords(j, NU)
            - t * (xi_star_vec(reg, (NU - muv) / t) @ w), n, ub, budget=budget)
    if rng is not None:
        for _ in range(4):
            starts.append(np.sort(rng.uniform(0.0, ub, size=n)))
    return _polish(objective, starts, ub, maxiter=200 if cheap_psi else 60)


# ---------------------------------------------------------------------------
# surfaces

def solve_surface(psi: InitialCondition, model: CovarianceModel, j: Partition,
                  times, samples, method: str = "hopf_lax") -> SolutionSurface:
    """Tabulate the chosen formula over a time grid and sample set."""
    # looked up per call, so a route rebound on this module is the one run
    routes = {"hopf_lax": hopf_lax, "hopf_lax_separable": hopf_lax_separable,
              "hopf": hopf, "hopf_lax_1d": hopf_lax_1d}
    if method not in routes:
        raise InvalidInputError(f"unknown method {method!r}")
    times = np.asarray(times, dtype=float)
    samples = tuple(samples)
    vals = np.empty((times.size, len(samples)))
    for si, x in enumerate(samples):
        for ti, t in enumerate(times):
            vals[ti, si] = routes[method](psi, model, j, float(t), x)
    return SolutionSurface(j, times, samples, vals)
