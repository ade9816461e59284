"""Variational solution formulas on the cone of monotone scalar paths.

Three routes to the same solution value are implemented for D = 1:

* ``hopf_lax`` — sup over cone increments y of psi(x + y) minus the
  integrated conjugate of the regularized nonlinearity at y / t;
* ``hopf`` — sup over cone slopes z of the pairing with x minus the
  monotone conjugate of psi plus the integrated nonlinearity at z
  (requires convex psi);
* ``hopf_lax_1d`` — sup over monotone paths nu of psi(nu) minus the
  pointwise conjugate penalty at (nu - mu) / t.

They agree for convex nonlinearities and admissible initial data, which
the test suite exploits as a three-way cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .cones import (ConePoint, InvalidInputError, Partition, StepPath,
                    UnsupportedOperationError, is_in_cone, lift_lj)
from .conjugates import monotone_increments, monotone_lattice
from .nonlinearity import (ConjugateModel, CovarianceModel, Regularization,
                           bold_xi, xi_star_vec)

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
    name: str = ""

    # -- constructors -------------------------------------------------
    @classmethod
    def linear(cls, h: StepPath, name: str = "linear") -> "InitialCondition":
        mono = bool(is_in_cone(ConePoint(h.partition, h.values)))
        return cls(KIND_LINEAR,
                   lip_l1=float(np.abs(h.values).max(initial=0.0)),
                   lip_h=h.norm(), convex=True, dual_increasing=mono,
                   h=h, name=name)

    @classmethod
    def separable(cls, phi, lip: float, convex: bool = True,
                  name: str = "separable") -> "InitialCondition":
        """psi(mu) = int phi(mu(s)) ds with phi nondecreasing, lip-Lipschitz."""
        return cls(KIND_SEPARABLE, lip_l1=float(lip), lip_h=float(lip),
                   convex=convex, dual_increasing=True, phi=phi, name=name)

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

        return cls.separable(phi, lip=float(a.sum()), name="softplus")

    @classmethod
    def quadratic_monotone(cls, slope: float, curvature: float, cap: float,
                           name: str = "quadratic-monotone") -> "InitialCondition":
        """Huber profile: quadratic up to ``cap`` then linear; keeps psi Lipschitz."""
        a, b, c = float(slope), float(curvature), float(cap)

        def phi(r):
            r = np.asarray(r, dtype=float)
            quad = a * r + 0.5 * b * np.minimum(r, c) ** 2
            return quad + b * c * np.maximum(r - c, 0.0)

        return cls.separable(phi, lip=a + b * c, convex=True, name=name)

    @classmethod
    def custom(cls, fn, lip_l1: float, lip_h: float = None, convex: bool = False,
               dual_increasing: bool = True, name: str = "custom") -> "InitialCondition":
        return cls(KIND_CUSTOM, lip_l1=float(lip_l1),
                   lip_h=float(lip_l1 if lip_h is None else lip_h),
                   convex=convex, dual_increasing=dual_increasing, fn=fn, name=name)

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
            h = project_h(self.h, j)
            return X @ (w * h)
        if self.kind == KIND_SEPARABLE:
            return self.phi(X) @ w
        return np.array([self(StepPath(j, row[:, None, None])) for row in X])

    def to_json(self):
        out = {"kind": self.kind, "lip_l1": self.lip_l1, "lip_h": self.lip_h,
               "convex": self.convex, "dual_increasing": self.dual_increasing,
               "name": self.name}
        if self.kind == KIND_LINEAR:
            out["h"] = self.h.to_json()
        return out


def project_h(h: StepPath, j: Partition) -> np.ndarray:
    """Cell averages of a linear datum's slope path on j (scalar coords)."""
    from .cones import project_pj
    return project_pj(h, j).scalars


@dataclass(frozen=True)
class SolutionSurface:
    """Tabulated values f(t, x) on a time grid and spatial sample set."""

    partition: Partition
    times: np.ndarray
    samples: tuple
    values: np.ndarray  # shape (len(times), len(samples))
    provenance: str
    stats: tuple = ()

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if v.shape != (t.size, len(self.samples)):
            raise InvalidInputError("values must be (n_times, n_samples)")
        if not np.all(np.isfinite(v)):
            raise InvalidInputError("surface values must be finite")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    def value(self, ti: int, si: int) -> float:
        return float(self.values[ti, si])


# ---------------------------------------------------------------------------
# shared optimization helpers

def _require_1d(x: ConePoint, what: str):
    if x.dim != 1:
        raise UnsupportedOperationError(f"{what} is implemented for D = 1 only")


def _require_cone_time(x: ConePoint, t: float, name: str = "x"):
    """Preconditions shared by every route: x in the cone and t >= 0."""
    if not is_in_cone(x):
        raise InvalidInputError(f"{name} must lie in the cone")
    if t < 0:
        raise InvalidInputError("t must be nonnegative")


def _zoom_argmax(f, shape, top: float, scans) -> np.ndarray:
    """Entrywise max over s in [0, top] of f, for an array of ``shape``.

    ``f`` maps grids with a trailing axis of candidate s to values.
    Round i scans ``scans[i]`` uniform points of each entry's window,
    then shrinks the window to two spacings either side of the argmax.
    The zoom stops early once every spacing is at most one ulp of its
    centre, when a further round could only re-grid the same floats.
    Returns the best values of the last round.
    """
    lo = np.zeros(shape)
    hi = np.full(shape, top)
    for scan in scans:
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


def _lattice_steps(n: int, budget: int = 3000) -> int:
    """Axis resolution so the monotone lattice stays within the node budget."""
    from math import comb
    m = 2
    while comb(m + n, n) <= budget:
        m += 1
    return max(m - 1, 2) + 1


def _polish(objective, y0: np.ndarray, ub: float, n_starts_extra=(), maxiter=200):
    """Maximize over the cone box [0, ub]^n with SLSQP from several starts."""
    n = y0[0].size if isinstance(y0, list) else y0.size
    starts = y0 if isinstance(y0, list) else [y0]
    cons = ([optimize.LinearConstraint(monotone_increments(n), 0.0, np.inf)]
            if n > 1 else [])
    best = -np.inf
    for s in list(starts) + list(n_starts_extra):
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

def hopf_lax(psi: InitialCondition, reg: Regularization, j: Partition,
             t: float, x: ConePoint, n_polish: int = 6) -> float:
    """sup over cone increments y of psi^j(x + y) - t * sum_k w_k xibar*(y_k / t).

    The inner infimum over dual slopes collapses to the pointwise
    conjugate for D = 1; the conjugate is +inf past the slope cap 2L,
    which bounds the search box by y <= 2 L t.
    """
    if not psi.dual_increasing:
        raise InvalidInputError("hopf_lax requires a dual-increasing psi")
    if reg.base.D != 1 or x.dim != 1:
        raise UnsupportedOperationError("hopf_lax is implemented for D = 1 only")
    _require_cone_time(x, t)
    if t == 0.0:
        return psi.eval_point(x)
    conj = ConjugateModel(reg)
    n = j.size
    w = j.widths
    xv = x.scalars
    ub = reg.slope_cap * t

    def objective(y):
        y = np.clip(np.asarray(y, dtype=float), 0.0, ub)
        pen = np.minimum(xi_star_vec(conj, y / t), 1e12)
        return psi.eval_coords(j, (xv + y)[None, :])[0] \
            - t * float(np.sum(w * pen))

    if ub == 0.0:
        return float(objective(np.zeros(n)))
    Y = monotone_lattice(n, np.linspace(0.0, ub, _lattice_steps(n)))
    vals = psi.eval_coords(j, xv + Y) - t * (xi_star_vec(conj, Y / t) @ w)
    order = np.argsort(vals)[::-1][:n_polish]
    return _polish(objective, [Y[i] for i in order], ub)


def hopf_lax_separable(psi: InitialCondition, reg: Regularization, j: Partition,
                       t: float, x: ConePoint, scan: int = 2049,
                       zoom_rounds: int = 8) -> float:
    """Fast Hopf-Lax path for separable psi (any |j|).

    The objective decouples per coordinate; monotone selection of the
    per-coordinate maximizers is feasible because the coupling term has
    increasing differences, so the unconstrained per-coordinate suprema
    attain the constrained value.
    """
    if psi.kind != KIND_SEPARABLE:
        raise InvalidInputError("separable path requires a separable psi")
    _require_cone_time(x, t)
    if t == 0.0:
        return psi.eval_point(x)
    best = hopf_lax_pointwise(psi.phi, reg, t, x.scalars,
                              scan=scan, zoom_rounds=zoom_rounds)
    return float(np.sum(j.widths * best))


def hopf_lax_pointwise(phi, reg: Regularization, t: float, xv: np.ndarray,
                       scan: int = 2049, zoom_rounds: int = 8) -> np.ndarray:
    """Per-coordinate sup_y {phi(x + y) - t xibar*(y / t)} over y in [0, 2Lt]."""
    xv = np.asarray(xv, dtype=float)
    conj = ConjugateModel(reg)
    ub = reg.slope_cap * t
    if ub == 0.0:
        return phi(xv) - t * xi_star_vec(conj, np.zeros_like(xv))
    return _zoom_argmax(
        lambda y: phi(xv[:, None] + y) - t * xi_star_vec(conj, y / t),
        xv.shape, ub, [scan] * zoom_rounds)


# ---------------------------------------------------------------------------
# Hopf

def _phi_conjugate_vec(psi: InitialCondition, z: np.ndarray,
                       s_hi: float = 64.0) -> np.ndarray:
    """Monotone conjugate of the separable profile: phi*(z) = sup_{s>=0} zs - phi(s).

    phi is convex, so zs - phi(s) is concave in s and one golden-section
    search per entry finds the sup over [0, s_hi].
    """
    z = np.asarray(z, dtype=float)
    return _golden_max(lambda s: z * s - psi.phi(s), z.shape, s_hi)


def hopf(psi: InitialCondition, model: CovarianceModel, j: Partition,
         t: float, x: ConePoint) -> float:
    """sup over cone slopes z of <x, z> - psi^{j*}(z) + t * sum_k w_k xi(z_k).

    Requires convex psi.  The optimal z satisfies |z|_inf <= lip_l1 of
    psi (slopes beyond the Lipschitz constant make the conjugate +inf),
    which truncates the search region.
    """
    if not psi.convex:
        raise InvalidInputError("hopf requires a convex psi")
    if not psi.dual_increasing:
        raise InvalidInputError("hopf requires a dual-increasing psi")
    _require_1d(x, "hopf")
    _require_cone_time(x, t)
    w = j.widths
    xv = x.scalars
    if psi.kind == KIND_LINEAR:
        return _hopf_linear(psi, model, j, t, x)
    if psi.kind != KIND_SEPARABLE:
        raise UnsupportedOperationError(
            "hopf supports linear and separable psi")
    cap = psi.lip_l1
    # per-coordinate objective x_k z - phi*(z) + t xi(z); increasing
    # differences in (z, x_k) make the per-coordinate suprema jointly
    # attainable on the cone for monotone x
    best = _zoom_argmax(
        lambda z: xv[:, None] * z - _phi_conjugate_vec(psi, z) + t * model.eval_vec(z),
        xv.shape, cap, [1025] + [257] * 6)
    return float(np.sum(w * best))


def _hopf_linear(psi: InitialCondition, model: CovarianceModel, j: Partition,
                 t: float, x: ConePoint) -> float:
    """Hopf value for linear psi = <h, .>.

    The conjugate of the pairing with h is 0 on {z : h - z dual-PSD}
    and +inf outside; the sup runs over that compact slice of the cone.
    """
    w = j.widths
    xv = x.scalars
    n = j.size
    hj = project_h(psi.h, j)
    cap = float(np.abs(hj).max(initial=0.0))
    if cap == 0.0:
        return 0.0
    Z = monotone_lattice(n, np.linspace(0.0, cap, _lattice_steps(n)))
    # feasibility: tail sums of (h - z) nonnegative
    d = hj[None, :] - Z
    tails = np.cumsum((d * w)[:, ::-1], axis=1)[:, ::-1]
    feas = np.all(tails >= -1e-12, axis=1)
    Z = np.vstack([Z[feas], hj[None, :]])
    vals = Z @ (w * xv) + t * (model.eval_vec(Z) @ w)
    order = np.argsort(vals)[::-1][:4]

    tailmat = np.triu(np.ones((n, n))) * w
    cons = [optimize.LinearConstraint(-tailmat, -tailmat @ hj, np.inf)]
    if n > 1:
        cons.append(optimize.LinearConstraint(monotone_increments(n), 0.0, np.inf))
    best = float(np.max(vals))
    for i in order:
        res = optimize.minimize(
            lambda z: -(z @ (w * xv) + t * (w @ model.eval_vec(z))),
            Z[i], method="SLSQP", bounds=[(0.0, cap)] * n, constraints=cons,
            options={"maxiter": 200, "ftol": 1e-14})
        if res.success:
            z = np.clip(res.x, 0.0, cap)
            val = z @ (w * xv) + t * (w @ model.eval_vec(z))
            tails = tailmat @ (hj - z)
            if np.all(tails >= -1e-9) and np.all(np.diff(z) >= -1e-9):
                best = max(best, float(val))
    return best


# ---------------------------------------------------------------------------
# one-dimensional Hopf-Lax reduction

def hopf_lax_1d(psi: InitialCondition, conj: ConjugateModel, j: Partition,
                t: float, mu: ConePoint, n_polish: int = 6,
                rng: np.random.Generator = None) -> float:
    """sup over monotone nu of psi^j(nu) - t * sum_k w_k xi*((nu_k - mu_k) / t).

    The conjugate is flat at -xi(0) for nonpositive slopes, so nu is
    free to dip below mu; the search box caps nu at mu plus t times the
    slope at which the marginal conjugate cost exceeds the Lipschitz
    constant of psi.  t = 0 falls back to psi^j(mu) by convention.
    """
    _require_1d(mu, "hopf_lax_1d")
    _require_cone_time(mu, t, "mu")
    if t == 0.0:
        return psi.eval_point(mu)
    w = j.widths
    muv = mu.scalars
    n = j.size
    model = conj.model
    # marginal conjugate slope exceeds lip once the optimizer s passes
    # the Lipschitz constant, i.e. past r = xi'(lip)
    r_cap = model.deriv(psi.lip_l1) if model.poly else 0.0
    if conj.is_regularized:
        r_cap = min(r_cap, conj.base.slope_cap)
    ub = float(muv.max(initial=0.0) + t * r_cap + 1e-9)

    def objective(nu):
        # slopes past the conjugate domain carry a huge-but-finite
        # penalty so SLSQP's finite differences stay well defined
        pen = np.minimum(xi_star_vec(conj, (np.asarray(nu) - muv) / t), 1e12)
        return psi.eval_coords(j, np.asarray(nu)[None, :])[0] \
            - t * float(np.sum(w * pen))

    starts = [muv.copy(), np.minimum(muv + t * r_cap, ub),
              np.zeros(n), np.full(n, min(float(muv.mean()), ub))]
    cheap_psi = psi.kind != KIND_CUSTOM
    budget = 3000 if cheap_psi else 200
    if n <= (5 if cheap_psi else 3):
        NU = monotone_lattice(n, np.linspace(0.0, max(ub, 1e-9),
                                             _lattice_steps(n, budget)))
        pen = xi_star_vec(conj, (NU - muv[None, :]) / t)
        vals = psi.eval_coords(j, NU) - t * (pen @ w)
        order = np.argsort(vals)[::-1][:n_polish]
        starts += [NU[i] for i in order]
    if rng is not None:
        for _ in range(4):
            starts.append(np.sort(rng.uniform(0.0, ub, size=n)))
    return _polish(objective, starts, ub, maxiter=200 if cheap_psi else 60)


# ---------------------------------------------------------------------------
# surfaces

def solve_surface(psi: InitialCondition, model, j: Partition, times,
                  samples, method: str = "hopf_lax") -> SolutionSurface:
    """Tabulate the chosen formula over a time grid and sample set."""
    times = np.asarray(times, dtype=float)
    samples = tuple(samples)
    vals = np.empty((times.size, len(samples)))
    for si, x in enumerate(samples):
        for ti, t in enumerate(times):
            if method == "hopf_lax":
                vals[ti, si] = hopf_lax(psi, model, j, float(t), x)
            elif method == "hopf_lax_separable":
                vals[ti, si] = hopf_lax_separable(psi, model, j, float(t), x)
            elif method == "hopf":
                vals[ti, si] = hopf(psi, model, j, float(t), x)
            elif method == "hopf_lax_1d":
                vals[ti, si] = hopf_lax_1d(psi, model, j, float(t), x)
            else:
                raise InvalidInputError(f"unknown method {method!r}")
    return SolutionSurface(j, times, samples, vals, provenance=method)
