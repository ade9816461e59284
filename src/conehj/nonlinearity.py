"""Covariance nonlinearities and their regularized / conjugated forms.

A covariance model xi is a polynomial with nonnegative coefficients
(scalar argument for D = 1, trace polynomial for D > 1) or a user
callable.  The regularization extends xi from the unit ball of the PSD
cone to a globally Lipschitz, proper (and convex, when xi is) function
by competing it against an affine function of the trace.  The monotone
conjugate xi*(r) = sup_{s >= 0} {r s - xi(s)} drives the
one-dimensional Hopf-Lax reduction, and H extends the integrated
nonlinearity off the cone as an infimum over dominating monotone
points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

from .cones import (ConePoint, InvalidInputError, UnsupportedOperationError,
                    is_in_cone, sym)
from .conjugates import monotone_increments


@dataclass(frozen=True)
class CovarianceModel:
    """Covariance function xi.

    ``poly`` maps exponent p >= 2 to the coefficient beta_p^2 >= 0.  For
    D = 1 the model is xi(r) = sum_p beta_p^2 r^p; for D > 1 it is the
    trace polynomial xi(a) = sum_p beta_p^2 tr(a^p).  Polynomial models
    with nonnegative coefficients are convex and proper on the PSD cone.
    """

    D: int = 1
    poly: dict = field(default_factory=dict)
    convex: bool = True
    proper: bool = True

    def __post_init__(self):
        for p, c in self.poly.items():
            if int(p) < 2:
                raise InvalidInputError("polynomial exponents must be >= 2")
            if c < 0:
                raise InvalidInputError("coefficients beta_p^2 must be >= 0")
        object.__setattr__(self, "poly", {int(p): float(c) for p, c in self.poly.items()})

    @classmethod
    def sk(cls, beta: float = 1.0) -> "CovarianceModel":
        """Sherrington-Kirkpatrick covariance xi(r) = beta r^2."""
        return cls(D=1, poly={2: beta})

    def __call__(self, a) -> float:
        if self.D == 1:
            r = float(np.asarray(a).reshape(()) if np.ndim(a) == 0 else
                      np.asarray(a).reshape(-1)[0] if np.size(a) == 1 else np.nan)
            if np.isnan(r):
                raise InvalidInputError("D = 1 model expects a scalar argument")
            return sum(c * r ** p for p, c in self.poly.items())
        m = sym(a)
        if m.shape[0] != self.D:
            raise InvalidInputError(f"expected a {self.D}x{self.D} matrix")
        evals = np.linalg.eigvalsh(m)
        return float(sum(c * np.sum(evals ** p) for p, c in self.poly.items()))

    def eval_vec(self, r: np.ndarray) -> np.ndarray:
        """Vectorized scalar evaluation (D = 1)."""
        if self.D != 1:
            raise UnsupportedOperationError("eval_vec requires D = 1")
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        for p, c in self.poly.items():
            out += c * r ** p
        return out

    def deriv(self, r: float) -> float:
        """xi'(r) for D = 1 models."""
        if self.D != 1:
            raise UnsupportedOperationError("deriv requires D = 1")
        return sum(c * p * r ** (p - 1) for p, c in self.poly.items())

    def grad_sup_norm_on_trace_ball(self, radius: float) -> float:
        """sup of the spectral norm of the gradient over B_tr(radius)."""
        if self.D == 1:
            # xi' is nondecreasing on R_+ for nonnegative coefficients
            return self.deriv(radius)
        # trace polynomial: the sup is attained at a rank-one matrix with
        # full trace budget, where grad = sum_p c p a^(p-1)
        return float(sum(c * p * radius ** (p - 1) for p, c in self.poly.items()))

    def to_json(self):
        return {"D": self.D, "poly": {str(p): c for p, c in self.poly.items()},
                "convex": self.convex, "proper": self.proper}

    @classmethod
    def from_json(cls, obj) -> "CovarianceModel":
        return cls(D=int(obj.get("D", 1)),
                   poly={int(p): float(c) for p, c in obj["poly"].items()},
                   convex=bool(obj.get("convex", True)),
                   proper=bool(obj.get("proper", True)))


@dataclass(frozen=True)
class Regularization:
    """Globally Lipschitz extension of xi from the unit ball of S^D_+.

    On the trace ball B_tr(2D) the value is max(xi(a), xi(0) + 2L(tr(a) - D));
    outside it is the affine branch alone.  L is the sup of the gradient
    norm of xi over B_tr(2D).
    """

    base: CovarianceModel
    L: float

    @property
    def D(self) -> int:
        return self.base.D

    @property
    def slope_cap(self) -> float:
        """Maximal slope along PSD directions (per unit trace): 2L."""
        return 2.0 * self.L

    def __call__(self, a) -> float:
        if self.D == 1:
            r = float(np.asarray(a).reshape(-1)[0])
            affine = self.base(0.0) + 2.0 * self.L * (r - 1.0)
            return max(self.base(r), affine) if r <= 2.0 else affine
        m = sym(a)
        tr = float(np.trace(m))
        affine = self.base(np.zeros((self.D, self.D))) + 2.0 * self.L * (tr - self.D)
        if tr <= 2.0 * self.D:
            return max(self.base(m), affine)
        return affine

    def eval_vec(self, r: np.ndarray) -> np.ndarray:
        if self.D != 1:
            raise UnsupportedOperationError("eval_vec requires D = 1")
        r = np.asarray(r, dtype=float)
        affine = self.base(0.0) + 2.0 * self.L * (r - 1.0)
        return np.where(r <= 2.0, np.maximum(self.base.eval_vec(r), affine), affine)

    def to_json(self):
        return {"base": self.base.to_json(), "L": self.L, "seam_trace": 2 * self.D}

    @classmethod
    def from_json(cls, obj) -> "Regularization":
        return cls(CovarianceModel.from_json(obj["base"]), float(obj["L"]))


def regularize(model: CovarianceModel) -> Regularization:
    """Build the Lipschitz regularization of ``model``.

    For polynomial models L is exact (the gradient bound over B_tr(2D)
    has a closed form); callables would need a sampled estimate, which
    polynomial-only models never hit.
    """
    if not model.proper:
        raise InvalidInputError("regularization requires a proper model")
    L = model.grad_sup_norm_on_trace_ball(2.0 * model.D)
    return Regularization(model, L)


@dataclass(frozen=True)
class ConjugateModel:
    """Monotone conjugate xi*(r) = sup_{s>=0} {rs - xi(s)} for D = 1.

    For a regularized base the effective piece structure is cached: the
    regularization equals xi on [0, s0] and the affine branch beyond, so
    the conjugate is the Legendre transform of xi up to slope
    r0 = xi'(s0) and the chord through the seam from there to the slope
    cap 2L.  A plain base has no seam: r0 and the cap are the largest
    float, or 0 when xi' vanishes identically (then xi* = +inf on r > 0).
    """

    base: object  # CovarianceModel or Regularization

    def __post_init__(self):
        D = self.base.D if hasattr(self.base, "D") else 1
        if D != 1:
            raise UnsupportedOperationError("monotone conjugation requires D = 1")
        model = self.model
        terms = {p: c for p, c in model.poly.items() if c > 0.0}
        if self.is_regularized:
            s0 = _seam_point(self.base)
            r0, cap = model.deriv(s0), self.base.slope_cap
        else:
            s0 = 1.0
            r0 = cap = np.finfo(float).max if terms else 0.0
        for name, value in (("_s0", s0), ("_r0", r0), ("_cap", cap),
                            ("_xi0", model(0.0)), ("_xi_s0", model(s0))):
            object.__setattr__(self, name, float(value))
        # coefficient q of a pure quadratic xi = q s^2, else None
        object.__setattr__(self, "_q", terms[2] if set(terms) == {2} else None)

    @property
    def is_regularized(self) -> bool:
        return isinstance(self.base, Regularization)

    @property
    def model(self) -> CovarianceModel:
        return self.base.base if self.is_regularized else self.base

    def __call__(self, r: float) -> float:
        return xi_star(self, r)

    def eval_vec(self, r) -> np.ndarray:
        return xi_star_vec(self, np.asarray(r, dtype=float))


def _seam_point(reg: Regularization) -> float:
    """First s in [1, 2] where the affine branch overtakes xi.

    xi - affine is convex, nonnegative at s = 1 and nonpositive at
    s = 2, so the crossing is unique on [1, 2].
    """
    model = reg.base
    aff = lambda s: model(0.0) + 2.0 * reg.L * (s - 1.0)
    g = lambda s: model(s) - aff(s)
    if g(1.0) <= 0.0:
        return 1.0
    lo, hi = 1.0, 2.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _inv_deriv_vec(model: CovarianceModel, r: np.ndarray, hi) -> np.ndarray:
    """Solve xi'(s) = r > 0 for s in [0, hi] by monotone Newton iteration.

    With exponents >= 2 and nonnegative coefficients xi' is convex and
    increasing on [0, inf), so Newton started right of the root
    decreases onto it without leaving [root, hi].  The start is the
    least of hi and the per-term roots (r / (p c_p))^(1/(p-1)), each an
    upper bound since xi'(s) >= p c_p s^(p-1); a pure monomial starts at
    its root.  An entry stops at its first step below one ulp (rounding
    makes the last steps of either sign), so each entry's result does
    not depend on the rest of the array.
    """
    terms = [(p, c) for p, c in model.poly.items() if c > 0.0]
    s = hi
    for p, c in terms:
        s = np.minimum(s, (r / (p * c)) ** (1.0 / (p - 1)))
    active = np.ones(r.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):  # xi''(0) = 0
        while active.any():
            d1 = sum(p * c * s ** (p - 1) for p, c in terms) - r
            d2 = sum(p * (p - 1) * c * s ** (p - 2) for p, c in terms)
            step = d1 / d2
            active &= step >= np.spacing(s)
            s = np.where(active, np.clip(s - step, 0.0, hi), s)
    return s


def xi_star_vec(conj: ConjugateModel, r: np.ndarray) -> np.ndarray:
    """Vectorized monotone conjugate, exact to rounding.

    Negative slopes give -xi(0) (the sup sits at s = 0 for nondecreasing
    xi).  On 0 < r <= r0 the maximizer solves xi'(s) = r: in closed form
    s = r / (2q) for a pure quadratic, by ``_inv_deriv_vec`` otherwise.
    Regularized bases continue with the seam chord r s0 - xi(s0) up to
    the slope cap 2L; beyond the cap the conjugate is +inf.
    """
    r = np.asarray(r, dtype=float)
    model = conj.model
    s0, r0 = conj._s0, conj._r0
    if conj._q is not None:
        inner = r * r / (4.0 * conj._q)
    elif r0 > 0.0:
        # entries off the inner branch solve at the bracket's own slope,
        # where the Newton start is already the root
        r_hi = r0 if conj.is_regularized else model.deriv(1.0)
        ri = np.where((r > 0.0) & (r <= r0), r, r_hi)
        hi = s0 if conj.is_regularized else np.maximum(1.0, ri / r_hi)
        s = _inv_deriv_vec(model, ri, hi)
        # r s - xi(s) with r = xi'(s): a sum of nonnegative terms
        inner = sum(c * (p - 1) * s ** p for p, c in model.poly.items())
    else:
        inner = 0.0
    out = np.where(r <= r0, inner,
                   np.where(r <= conj._cap, r * s0 - conj._xi_s0, np.inf))
    return np.where(r > 0.0, out, -conj._xi0)


def xi_star(conj: ConjugateModel, r: float) -> float:
    """Scalar monotone conjugate xi*(r); see ``xi_star_vec``."""
    return float(xi_star_vec(conj, np.array([float(r)]))[0])


def bold_xi(x: ConePoint, model) -> float:
    """Integrated nonlinearity sum_k w_k xi(x_k) of a cone point."""
    w = x.partition.widths
    return float(sum(wk * model(xk) for wk, xk in zip(w, x.coords)))


# ---------------------------------------------------------------------------
# the extended nonlinearity H

def h_eval(kappa: ConePoint, reg: Regularization) -> float:
    """inf of the integrated regularization over monotone points dominating kappa.

    Feasible set: x in C^j with x - kappa in (C^j)*.  On the cone the
    infimum is attained at kappa itself.
    """
    if is_in_cone(kappa):
        return bold_xi(kappa, reg)
    if kappa.dim == 1:
        return _h_eval_1d(kappa, reg)
    raise UnsupportedOperationError(
        "H off the cone is implemented for D = 1 only")


def _h_eval_1d(kappa: ConePoint, reg: Regularization) -> float:
    w = kappa.partition.widths
    k = kappa.scalars
    n = k.size
    tail_k = np.cumsum((w * k)[::-1])[::-1]
    tail_w = np.cumsum(w[::-1])[::-1]

    def objective(x):
        return float(np.sum(w * reg.eval_vec(x)))

    # monotone nonneg chain + weighted tail-sum domination, all linear
    cons = []
    mono = np.vstack([np.eye(1, n), monotone_increments(n)])
    cons.append(optimize.LinearConstraint(mono, 0.0, np.inf))
    tails = np.triu(np.ones((n, n))) * w  # row i: sum_{j>=i} w_j x_j
    cons.append(optimize.LinearConstraint(tails, tail_k, np.inf))

    c0 = max(0.0, float(np.max(tail_k / tail_w)))
    x0 = np.full(n, c0)
    best = objective(x0)
    res = optimize.minimize(objective, x0, method="SLSQP", constraints=cons,
                            options={"maxiter": 300, "ftol": 1e-12})
    if res.success and _feasible_1d(res.x, w, tail_k):
        best = min(best, float(res.fun))
    return best


def _feasible_1d(x, w, tail_k, tol=1e-8):
    if x[0] < -tol or np.any(np.diff(x) < -tol):
        return False
    tails = np.cumsum((w * x)[::-1])[::-1]
    return bool(np.all(tails >= tail_k - tol))


def h_eval_bruteforce(kappa: ConePoint, reg: Regularization,
                      x_max: float = None, steps: int = 60,
                      zoom_rounds: int = 5) -> float:
    """Grid search over the feasible set; oracle for tiny D = 1 problems.

    A global scan locates the basin, then each zoom round re-grids a
    shrinking box around the incumbent; the objective is convex over a
    convex feasible set, so the zoom cannot leave the optimal basin.
    """
    if kappa.dim != 1:
        raise UnsupportedOperationError("brute force oracle requires D = 1")
    w = kappa.partition.widths
    k = kappa.scalars
    n = k.size
    if n > 3:
        raise UnsupportedOperationError("brute force oracle requires |j| <= 3")
    if x_max is None:
        x_max = max(2.0, 2.0 * np.abs(k).max(initial=0.0) + 1.0)
    tail_k = np.cumsum((w * k)[::-1])[::-1]
    tails_mat = np.triu(np.ones((n, n))).T

    def scan(axes):
        grids = np.meshgrid(*axes, indexing="ij")
        X = np.stack([g.ravel() for g in grids], axis=-1)
        ok = X[:, 0] >= 0
        for i in range(1, n):
            ok &= X[:, i] >= X[:, i - 1] - 1e-12
        ok &= np.all((X * w) @ tails_mat >= tail_k - 1e-12, axis=1)
        X = X[ok]
        vals = np.sum(w * reg.eval_vec(X), axis=1)
        i = int(np.argmin(vals))
        return float(vals[i]), X[i]

    best, arg = scan([np.linspace(0.0, x_max, steps)] * n)
    pad = 2.0 * x_max / (steps - 1)
    for _ in range(zoom_rounds):
        axes = [np.linspace(max(0.0, arg[i] - pad), arg[i] + pad, steps)
                for i in range(n)]
        val, cand = scan(axes)
        if val < best:
            best, arg = val, cand
        pad = 4.0 * pad / (steps - 1)
    return best
