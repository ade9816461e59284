"""Variational solution formulas on the cone of monotone scalar paths.

Each route takes the covariance model xi and is implemented for D = 1:

* ``hopf_lax`` (and ``hopf_lax_separable`` for separable psi) — sup over
  cone increments y of psi(x + y) minus the integrated conjugate of the
  regularization xibar at y / t;
* ``hopf`` — sup over cone slopes z of the pairing with x minus the
  monotone conjugate of psi plus the integrated xibar at z (requires
  convex psi);
* ``hopf_lax_1d`` — sup over monotone paths nu of psi(nu) minus the
  pointwise conjugate of xibar at (nu - mu) / t (requires convex psi and
  |j| <= 5).

``hopf_lax`` is a local DC ascent from lattice starts; ``hopf_lax_1d``
is a certified branch and bound, so the two generic routes check each
other independently.  Every route solves the equation of the one
Hamiltonian xibar = ``regularize(model)``, so they agree for convex
nonlinearities and admissible initial data, which the test suite
exploits as a cross-check.

Each route reads the partition j from its point, as a point of H^j fixes j.
The three certified routes take many (t, x) cases at once: ``hopf_batch``,
``hopf_lax_separable_batch`` and ``hopf_lax_1d_batch`` run one search for
all of them, and the one-case route is the batch of one.  A case's search
depends on its own values only, so each value of a batch equals the
one-case call bit for bit.  ``solve_surface`` runs a whole surface of
these routes as one search; ``hopf_lax`` solves point by point.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from math import comb

import numpy as np

from .cones import (ConePoint, InvalidInputError, Partition, StepPath,
                    UnsupportedOperationError, is_in_cone, project_pj)
from .conjugates import monotone_lattice
from .nonlinearity import (CovarianceModel, _pav, regularize, xi_star_deriv,
                           xi_star_vec)

KIND_LINEAR = "linear"
KIND_SEPARABLE = "separable"
KIND_CUSTOM = "custom"


@dataclass(frozen=True)
class InitialCondition:
    """Initial datum psi on monotone step paths, with regularity metadata.

    ``lip_l1`` bounds |psi(mu) - psi(nu)| by lip_l1 * |mu - nu|_{L^1};
    ``lip_h`` is the L^2 (H-norm) Lipschitz constant used by audits.
    Separable data psi(mu) = int phi(mu(s)) ds carry the scalar profile
    ``phi`` (vectorized) for fast per-coordinate evaluation, and its
    derivative ``dphi`` where a closed form is known (``hopf`` needs it).
    The kind decides the rest: psi is convex unless it is custom, and
    dual-increasing unless it is linear with h outside the cone.
    """

    kind: str
    lip_l1: float
    lip_h: float
    h: StepPath = None
    phi: object = None
    dphi: object = None
    fn: object = None

    # -- constructors -------------------------------------------------
    @classmethod
    def linear(cls, h: StepPath) -> "InitialCondition":
        return cls(KIND_LINEAR,
                   lip_l1=float(np.abs(h.values).max(initial=0.0)),
                   lip_h=h.norm(), h=h)

    @classmethod
    def separable(cls, phi, lip: float) -> "InitialCondition":
        """psi(mu) = int phi(mu(s)) ds with phi convex, nondecreasing, lip-Lipschitz.

        Nothing here checks those properties, and the separable routes
        rely on them: their per-coordinate search bounds phi by its chords,
        so a profile that is not convex can lose part of its range to a
        wrong bound and return a wrong value.  That search raises only when
        one of the midpoints it tests lies above its chord.
        """
        return cls(KIND_SEPARABLE, lip_l1=float(lip), lip_h=float(lip), phi=phi)

    @classmethod
    def softplus(cls, weights, thresholds, scales) -> "InitialCondition":
        """Softplus mixture phi(r) = sum_i a_i tau_i log(1 + e^((r - th_i) / tau_i)).

        Increasing and convex for weights a_i >= 0 and scales tau_i > 0,
        with Lipschitz constant sum_i a_i.
        """
        a = np.asarray(weights, dtype=float)
        th = np.asarray(thresholds, dtype=float)
        tau = np.asarray(scales, dtype=float)
        if a.ndim != 1 or a.shape != th.shape or a.shape != tau.shape:
            raise InvalidInputError(
                "softplus weights, thresholds and scales must be lists of "
                "one length")
        if not (np.all(a >= 0.0) and np.all(tau > 0.0)
                and np.all(np.isfinite(np.concatenate([a, th, tau])))):
            raise InvalidInputError(
                "softplus weights must be >= 0, scales > 0, all finite")

        def phi(r):
            r = np.asarray(r, dtype=float)[..., None]
            return np.sum(a * tau * np.logaddexp(0.0, (r - th) / tau), axis=-1)

        def dphi(r):
            r = np.asarray(r, dtype=float)[..., None]
            return np.sum(a * _logistic((r - th) / tau), axis=-1)

        return replace(cls.separable(phi, lip=float(a.sum())), dphi=dphi)

    @classmethod
    def quadratic_monotone(cls, slope: float, curvature: float,
                           cap: float) -> "InitialCondition":
        """Huber profile: quadratic up to ``cap`` then linear; keeps psi Lipschitz.

        Increasing and convex for slope, curvature and cap >= 0.
        """
        a, b, c = float(slope), float(curvature), float(cap)
        if not all(v >= 0.0 and np.isfinite(v) for v in (a, b, c)):
            raise InvalidInputError(
                "quadratic-monotone slope, curvature and cap must be finite "
                "and >= 0")

        def phi(r):
            r = np.asarray(r, dtype=float)
            quad = a * r + 0.5 * b * np.minimum(r, c) ** 2
            return quad + b * c * np.maximum(r - c, 0.0)

        def dphi(r):
            return a + b * np.minimum(np.asarray(r, dtype=float), c)

        return replace(cls.separable(phi, lip=a + b * c), dphi=dphi)

    @classmethod
    def custom(cls, fn, lip_l1: float) -> "InitialCondition":
        """psi^j given by ``fn(j, X)``: rows of C^j coordinates to values.

        X has shape (P, |j|) and ``fn`` returns P values, as a separable
        ``phi`` does entrywise.  Every row ``fn`` sees lies in the cone:
        ``eval_coords`` snaps it there first (``_snap``).
        """
        return cls(KIND_CUSTOM, lip_l1=float(lip_l1), lip_h=float(lip_l1),
                   fn=fn)

    @property
    def dual_increasing(self) -> bool:
        return self.kind != KIND_LINEAR \
            or bool(is_in_cone(ConePoint(self.h.partition, self.h.values)))

    # -- evaluation ---------------------------------------------------
    def eval_point(self, x: ConePoint) -> float:
        return float(self.eval_coords(x.partition, x.scalars[None])[0])

    def eval_coords(self, j: Partition, X: np.ndarray) -> np.ndarray:
        """psi^j over rows of X (shape (P, |j|), scalar coords).

        A custom psi gets the rows snapped onto the cone, and ``fn`` sees
        each distinct row once and must value each alone, as linear and
        separable psi do by ``j.integrate``.
        """
        X = np.asarray(X, dtype=float)
        if self.kind == KIND_LINEAR:
            return j.integrate(X * project_pj(self.h, j).scalars)
        if self.kind == KIND_SEPARABLE:
            return j.integrate(self.phi(X))
        rows, inverse = np.unique(_snap(X), axis=0,
                                  return_inverse=True)
        return np.asarray(self.fn(j, rows), dtype=float)[inverse.reshape(-1)]


def _snap(Y: np.ndarray) -> np.ndarray:
    """Rows of Y onto the cone: floored at 0, then made nondecreasing."""
    return np.maximum.accumulate(np.maximum(Y, 0.0), axis=-1)


def _logistic(z: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-z), from e^-|z| so that no exponential overflows."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


@dataclass(frozen=True)
class SolutionSurface:
    """Tabulated values f(t, x) on a time grid and spatial sample set."""

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
             t: float, route: str):
    """Preconditions shared by every route.

    xi is a CovarianceModel, the point has D = 1, psi is
    dual-increasing, the point has finite coordinates and lies in the
    cone, and t is finite, >= 0.
    """
    if not isinstance(model, CovarianceModel):
        raise InvalidInputError(f"{route} takes the CovarianceModel xi")
    if x.dim != 1:
        raise UnsupportedOperationError(f"{route} is implemented for D = 1 only")
    if not psi.dual_increasing:
        raise InvalidInputError(f"{route} requires a dual-increasing psi")
    if not np.all(np.isfinite(x.coords)):
        raise InvalidInputError("x must have finite coordinates")
    if not is_in_cone(x):
        raise InvalidInputError("x must lie in the cone")
    if not 0.0 <= t < np.inf:
        raise InvalidInputError("t must be nonnegative and finite")


def _coordinates(cases):
    """The coordinates of (t, x) cases in one array, and each one's t."""
    return (np.concatenate([np.full(x.partition.size, float(t)) for t, x in cases]),
            np.concatenate([x.scalars for _, x in cases]))


def _integrate_cases(cases, values: np.ndarray) -> np.ndarray:
    """Per case, the cell integral over x's partition of its entries of ``values``."""
    ends = np.cumsum([x.partition.size for _, x in cases])[:-1]
    return np.array([float(x.partition.integrate(v)) for (_, x), v
                     in zip(cases, np.split(values, ends))])


# A midpoint may lie above its chord by rounding only: this many ulp of the
# larger end value.
_CHORD_SLACK = 16 * np.finfo(float).eps
# phi* is the sup over s in [0, _S_MAX] of zs - phi(s).
_S_MAX = 64.0
# Live intervals kept per entry and round, those of highest bound: on a flat
# stretch every interval's bound exceeds the best value by about h^2 times
# the curvature until h is near sqrt(ulp), so without a cap the live list
# grows to millions of intervals per entry.
_MAX_LIVE = 8


def _branch_and_bound(evaluate, bound, lo: np.ndarray, hi: np.ndarray):
    """Entrywise max of an objective over [lo, hi], certified by interval bounds.

    Piyavskii-Shubert search.  ``evaluate(owner, y, left, right)`` gives,
    for entries ``owner`` at points ``y``, a stack of rows: the objective,
    a convex part of it, then whatever ``bound`` reads; ``left`` and
    ``right`` are the rows at the ends of the interval that ``y`` bisects
    (None at the ends of the box).  ``bound(owner, a, b, left, right)``
    is an upper bound of the objective on each [a, b].  Each round bisects
    every live interval, then drops each half whose bound is at most
    best + ulp(max(1, |best|)) or that is two ulp wide, and keeps at most
    ``_MAX_LIVE`` halves per entry, those of highest bound.  So an entry
    costs its two ends and at most ``_MAX_LIVE`` midpoints a round, and
    as each round halves the widths, down to two ulp, it ends within about
    52 rounds.  An entry's intervals depend on its own values only, so its
    result does not depend on the rest of the batch.

    Returns the best values and the certified gaps: how far the bound of
    any dropped interval exceeds its entry's best value, at least 0.
    Raises InvalidInputError when a midpoint's convex part lies above its
    chord beyond rounding.
    """
    owner = np.arange(lo.size)
    a, b = lo.ravel(), hi.ravel()
    left, right = evaluate(owner, a, None, None), evaluate(owner, b, None, None)
    best = np.maximum(left[0], right[0])
    top = np.full(best.shape, -np.inf)
    live = b - a > 2.0 * np.spacing(b)
    while True:
        owner, a, b = owner[live], a[live], b[live]
        if not owner.size:
            break
        left, right = left[:, live], right[:, live]
        m = 0.5 * (a + b)
        mid = evaluate(owner, m, left, right)
        chord = left[1] + (right[1] - left[1]) * ((m - a) / (b - a))
        scale = np.maximum(np.abs(left[1]), np.abs(right[1]))
        if np.any(mid[1] > chord + _CHORD_SLACK * scale):
            raise InvalidInputError(
                "the convex part of the objective lies above its chord: "
                "the profile is not convex")
        np.maximum.at(best, owner, mid[0])
        owner = np.concatenate([owner, owner])
        a, b = np.concatenate([a, m]), np.concatenate([m, b])
        left = np.concatenate((left, mid), axis=1)
        right = np.concatenate((mid, right), axis=1)
        ub = bound(owner, a, b, left, right)
        bar = best[owner]
        live = (ub > bar + np.spacing(np.maximum(1.0, np.abs(bar)))) \
            & (b - a > 2.0 * np.spacing(b))
        live = _highest_bounds(owner, ub, live)
        np.maximum.at(top, owner[~live], ub[~live])
    return best.reshape(lo.shape), np.maximum(top - best, 0.0).reshape(lo.shape)


def _highest_bounds(owner: np.ndarray, ub: np.ndarray,
                    live: np.ndarray) -> np.ndarray:
    """``live`` narrowed to the ``_MAX_LIVE`` intervals of highest bound per owner.

    Ties keep the earlier interval; the order of one owner's intervals
    does not depend on the other owners, and neither does the choice.
    """
    idx = np.flatnonzero(live)
    if np.bincount(owner[idx]).max(initial=0) <= _MAX_LIVE:
        return live
    idx = idx[np.lexsort((-ub[idx], owner[idx]))]
    group = owner[idx]
    first = np.flatnonzero(np.r_[True, group[1:] != group[:-1]])
    rank = np.arange(idx.size) - np.repeat(first, np.diff(np.r_[first, idx.size]))
    kept = np.zeros_like(live)
    kept[idx[rank < _MAX_LIVE]] = True
    return kept


def _lattice_starts(score, n: int, ub: float) -> list:
    """The six best nodes of the monotone lattice on [0, ub]^n, as DC ascent starts.

    ``score`` maps the lattice, one node per row, to objective values.
    The axis has the most points m for which the lattice's C(m + n - 1, n)
    nodes stay within 3000 (and at least 3).
    """
    m = 3
    while comb(m + n, n) <= 3000:
        m += 1
    Y = monotone_lattice(n, np.linspace(0.0, ub, m))
    order = np.argsort(score(Y))[::-1][:6]
    return [Y[i] for i in order]


# The step of the central differences that give a custom psi's gradient.
_FD_STEP = 1e-6
# Steps per DC ascent run: a run that reaches it has not converged.
_ASCENT_MAX_STEPS = 200


def _penalized(psi: InitialCondition, reg, j: Partition, t: float, shift):
    """F(y) = psi^j(shift + y) - t sum_k w_k xibar*(min(y_k / t, 2L)), and psi^j's gradient.

    F is the functional ``hopf_lax`` maximizes over cone increments y,
    with shift x.  xibar* is finite up to the slope cap 2L, so a slope
    y_k / t that rounds past the cap is taken at the cap.  Returns
    ``value``, F on each row of Y, and ``gradient``, the gradient of
    psi^j at shift + y for one point y: the constant w h^j for linear
    psi, w phi'(shift + y) for separable psi with phi' known, and
    otherwise central differences of step ``_FD_STEP``, whose 2n rows go
    to psi in one ``eval_coords`` call.
    """
    w = j.widths
    cap = reg.slope_cap

    def value(Y):
        pen = xi_star_vec(reg, np.minimum(Y / t, cap))
        return psi.eval_coords(j, shift + Y) - t * j.integrate(pen)

    if psi.kind == KIND_LINEAR:
        g = w * project_pj(psi.h, j).scalars
        return value, lambda y: g
    if psi.kind == KIND_SEPARABLE and psi.dphi is not None:
        return value, lambda y: w * psi.dphi(shift + y)
    n = j.size
    E = _FD_STEP * np.eye(n)

    def gradient(y):
        v = psi.eval_coords(j, shift + y + np.concatenate([E, -E]))
        return (v[:n] - v[n:]) / (2.0 * _FD_STEP)

    return value, gradient


def _polish(value, gradient, starts: list, reg, w: np.ndarray,
            t: float) -> float:
    """Maximize F = psi^j(x + .) - P over the cone box by a DC ascent from each start.

    ``value`` maps points, one per row, to F, and ``gradient`` gives
    psi^j's gradient g at one point.  For convex psi, F is a difference
    of convex functions, psi^j(x + y) and P(y) = t sum_k w_k xibar*(y_k / t).
    Each step replaces psi^j by its tangent at y and moves y to the
    maximizer of <g, y> - P(y) over 0 <= y_1 <= ... <= y_n <= 2Lt, which
    in closed form is y = t xibar'(max(PAV_w(g / w), 0)), PAV_w the
    weighted isotonic regression: a pooled block of terms
    w_k (a_k r - xibar*(r)) takes xibar' of its weighted mean slope.  The
    step lands on the cone and in [0, 2Lt] as xibar' is nondecreasing and
    at most 2L, so it raises F (the convex-concave procedure: Yuille and
    Rangarajan, Neural Computation 15, 2003).  A run stops when F does
    not rise, and the best F seen is returned.  Raises InvalidInputError
    when a run takes ``_ASCENT_MAX_STEPS`` steps.
    """
    best = -np.inf
    for y in starts:
        f = value(y[None, :])[0]
        for _ in range(_ASCENT_MAX_STEPS):
            best = max(best, float(f))
            y = t * reg.deriv(np.maximum(_pav(gradient(y) / w, w), 0.0))
            f_next = value(y[None, :])[0]
            if not f_next > f:
                break
            f = f_next
        else:
            raise InvalidInputError(
                f"a DC ascent run still rose after {_ASCENT_MAX_STEPS} steps: "
                f"the sup cannot be trusted")
    return best


# ---------------------------------------------------------------------------
# Hopf-Lax

def hopf_lax(psi: InitialCondition, model: CovarianceModel, t: float,
             x: ConePoint) -> float:
    """sup over cone increments y of psi^j(x + y) - t * sum_k w_k xibar*(y_k / t).

    The inner infimum over dual slopes collapses to the pointwise
    conjugate for D = 1; the conjugate is +inf past the slope cap 2L,
    which bounds the search box by y <= 2 L t.  ``_polish``'s DC ascent
    searches it from ``_lattice_starts``; it raises InvalidInputError
    when a run reaches the step cap.
    """
    _require(psi, model, x, t, "hopf_lax")
    if t == 0.0:
        return psi.eval_point(x)
    reg, j = regularize(model), x.partition
    value, gradient = _penalized(psi, reg, j, t, x.scalars)
    starts = _lattice_starts(value, j.size, reg.slope_cap * t)
    return _polish(value, gradient, starts, reg, j.widths, t)


def hopf_lax_separable(psi: InitialCondition, model: CovarianceModel,
                       t: float, x: ConePoint) -> float:
    """Fast Hopf-Lax path for separable psi (any |j|).

    The profile phi must be convex and nondecreasing (see
    ``InitialCondition.separable``).  The objective decouples per
    coordinate; monotone selection of the
    per-coordinate maximizers is feasible because the coupling term has
    increasing differences, so the unconstrained per-coordinate suprema
    attain the constrained value.
    """
    return float(hopf_lax_separable_batch(psi, model, [(t, x)])[0])


def hopf_lax_separable_batch(psi: InitialCondition, model: CovarianceModel,
                             cases) -> np.ndarray:
    """``hopf_lax_separable`` at each (t, x) of ``cases``.

    Every coordinate of every case goes through one per-coordinate
    search, whose entries do not depend on the rest of the batch, so each
    value is the one ``hopf_lax_separable`` computes alone.
    """
    if psi.kind != KIND_SEPARABLE:
        raise InvalidInputError("separable path requires a separable psi")
    for t, x in cases:
        _require(psi, model, x, t, "hopf_lax_separable")
    if not cases:
        return np.empty(0)
    tv, xv = _coordinates(cases)
    return _integrate_cases(cases, hopf_lax_pointwise(psi.phi, model, tv, xv))


def hopf_lax_pointwise(phi, model: CovarianceModel, t,
                       xv: np.ndarray) -> np.ndarray:
    """Entrywise sup_y {phi(x + y) - t xibar*(y / t)} over y in [0, 2Lt].

    ``t`` broadcasts against ``xv``; both must be finite and t >= 0.
    Entries with t = 0 are phi(x).  phi must be convex: on [a, b] it lies
    under its chord of slope m, so the objective lies under chord(y) -
    t xibar*(y / t), a concave function whose max sits at the clamp of
    t xibar'(m) to [a, b].
    """
    reg = regularize(model)
    t, xv = np.broadcast_arrays(np.asarray(t, dtype=float),
                                np.asarray(xv, dtype=float))
    if not np.all((t >= 0.0) & (t < np.inf)):
        raise InvalidInputError("t must be nonnegative and finite")
    if not np.all(np.isfinite(xv)):
        raise InvalidInputError("x must have finite coordinates")
    out = np.array(phi(xv), dtype=float)
    pos = t > 0.0
    x, tt = xv[pos], t[pos]

    def evaluate(owner, y, left, right):
        p, t_o = phi(x[owner] + y), tt[owner]
        return np.array([p - t_o * xi_star_vec(reg, y / t_o), p])

    def bound(owner, a, b, left, right):
        t_o = tt[owner]
        slope = (right[1] - left[1]) / (b - a)
        y = np.clip(t_o * reg.deriv(np.maximum(slope, 0.0)), a, b)
        return left[1] + slope * (y - a) - t_o * xi_star_vec(reg, y / t_o)

    out[pos], _ = _branch_and_bound(evaluate, bound, np.zeros_like(x),
                                    reg.slope_cap * tt)
    return out


# ---------------------------------------------------------------------------
# Hopf

def _phi_conjugate(psi: InitialCondition, z: np.ndarray, lo: np.ndarray,
                   hi: np.ndarray):
    """Monotone conjugate phi*(z) = sup_{0 <= s <= 64} zs - phi(s), with its maximizer.

    zs - phi(s) is concave, so its maximizer s* is where phi' crosses z.
    A bracketed false-position search on phi' - z keeps phi'(lo) < z
    unless lo = 0 and phi'(hi) >= z unless hi = 64, so [lo, hi] must
    bracket the crossing on entry.  The better end is then within
    (hi - lo) min(z - phi'(lo), phi'(hi) - z) of phi*(z), as phi' is
    nondecreasing; each entry stops once that is a sixteenth of an ulp
    of max(1, z hi), or once [lo, hi] is two ulp of max(1, hi) wide.
    Each step cuts [lo, hi] where the chord of phi' - z crosses 0, with
    the Illinois safeguard (Dowell and Jarratt, BIT 11, 1971): an end
    kept twice in a row has its weight in the chord halved, so both ends
    close in superlinearly.  A step cuts at the midpoint instead when
    the chord's cut rounds onto an end, or when the last three steps
    did not halve the bracket, so it halves at least every four steps.
    Returns (phi*(z), maximizer, lo, hi); the final brackets bound the
    crossing of any larger or smaller z from one side.
    """
    dlo, dhi = psi.dphi(lo), psi.dphi(hi)
    glo, ghi = dlo - z, dhi - z   # the chord's weights at the two ends
    moved = np.zeros(z.shape, dtype=int)   # the end moved last: +1 lo, -1 hi
    # the bracket's width before each of the last three steps
    widths = [np.full(z.shape, np.inf)] * 3
    while True:
        slack = (hi - lo) * np.minimum(z - dlo, dhi - z)
        open_ = (slack > np.spacing(np.maximum(1.0, z * hi)) / 16) \
            & (hi - lo > 2.0 * np.spacing(np.maximum(hi, 1.0)))
        if not open_.any():
            break
        # an open entry has glo < 0 < ghi, so the cut lies in [lo, hi]
        with np.errstate(divide="ignore", invalid="ignore"):
            cut = lo + (hi - lo) * (glo / (glo - ghi))
        slow = hi - lo > 0.5 * widths[0]
        widths = widths[1:] + [hi - lo]
        cut = np.where((cut > lo) & (cut < hi) & ~slow, cut, 0.5 * (lo + hi))
        d = psi.dphi(cut)
        up, down = open_ & (d < z), open_ & (d >= z)
        ghi = np.where(up & (moved == 1), 0.5 * ghi, ghi)
        glo = np.where(down & (moved == -1), 0.5 * glo, glo)
        lo, dlo = np.where(up, cut, lo), np.where(up, d, dlo)
        hi, dhi = np.where(down, cut, hi), np.where(down, d, dhi)
        glo, ghi = np.where(up, d - z, glo), np.where(down, d - z, ghi)
        moved = np.where(up, 1, np.where(down, -1, moved))
    at_lo, at_hi = z * lo - psi.phi(lo), z * hi - psi.phi(hi)
    take_hi = at_hi >= at_lo
    return (np.where(take_hi, at_hi, at_lo), np.where(take_hi, hi, lo), lo, hi)


def hopf(psi: InitialCondition, model: CovarianceModel, t: float,
         x: ConePoint) -> float:
    """sup over cone slopes z of <x, z> - psi^{j*}(z) + t sum_k w_k xibar(z_k).

    Requires convex psi.  For linear psi = <h, .> the conjugate is 0 on
    {z in C^j : h^j - z in (C^j)*} and +inf outside, with h^j = p_j h in
    the cone since psi is dual-increasing.  Every such z has
    <x, z> <= <x, h^j> (x in the cone, h^j - z in its dual) and tail sums
    at most those of h^j, so sum_k w_k xibar(z_k) <= sum_k w_k xibar(h^j_k)
    for xibar convex and nondecreasing on [0, inf): the sup is attained at
    z = h^j.  For separable psi the optimal z satisfies
    |z|_inf <= lip_l1 of psi (slopes beyond the Lipschitz constant make
    the conjugate +inf), which truncates the search region.  The one-case
    batch of ``hopf_batch``.
    """
    return float(hopf_batch(psi, model, [(t, x)])[0])


def hopf_batch(psi: InitialCondition, model: CovarianceModel,
               cases) -> np.ndarray:
    """``hopf`` at each (t, x) of ``cases``.

    Every coordinate of every case goes through one per-coordinate
    search, whose entries do not depend on the rest of the batch, so each
    value is the one ``hopf`` computes alone, bit for bit.  Every case is
    checked before the search starts.
    """
    for t, x in cases:
        _require(psi, model, x, t, "hopf")
    if psi.kind == KIND_CUSTOM:
        raise InvalidInputError("hopf requires a convex psi")
    if psi.kind == KIND_SEPARABLE and psi.dphi is None:
        raise InvalidInputError("hopf needs the derivative of a separable profile")
    reg = regularize(model)
    if not cases:
        return np.empty(0)
    tv, xv = _coordinates(cases)
    if psi.kind == KIND_LINEAR:
        hj = np.concatenate([project_pj(psi.h, x.partition).scalars for _, x in cases])
        return _integrate_cases(cases, xv * hj + tv * reg(hj))

    # per-coordinate objective x_k z - phi*(z) + t xibar(z) over [0, lip];
    # increasing differences in (z, x_k) make the per-coordinate suprema
    # jointly attainable on the cone for monotone x
    def evaluate(owner, z, left, right):
        # rows: objective, its convex part, phi*, the maximizer of phi*,
        # and the bisection bracket, which bounds the maximizers between
        s_lo = np.zeros_like(z) if left is None else left[4]
        s_hi = np.full_like(z, _S_MAX) if right is None else right[5]
        conj, s, s_lo, s_hi = _phi_conjugate(psi, z, s_lo, s_hi)
        xz, txi = xv[owner] * z, tv[owner] * reg(z)
        return np.array([xz - conj + txi, xz + txi, conj, s, s_lo, s_hi])

    def bound(owner, a, b, left, right):
        # x z + t xibar(z) lies under its chord and -phi* under its tangent
        # lines at a and b, -phi*(e) - s(e) (z - e): for any s >= 0,
        # -phi*(z) <= phi(s) - zs, so the bound holds however accurate s is
        slope = (right[1] - left[1]) / (b - a)
        with np.errstate(divide="ignore", invalid="ignore"):
            cross = (left[2] - right[2] + right[3] * b - left[3] * a) \
                / (right[3] - left[3])
        cross = np.clip(np.where(np.isfinite(cross), cross, a), a, b)

        def upper(z):
            return left[1] + slope * (z - a) + np.minimum(
                -left[2] - left[3] * (z - a), -right[2] - right[3] * (z - b))

        return np.maximum(np.maximum(upper(a), upper(b)), upper(cross))

    best, _ = _branch_and_bound(evaluate, bound, np.zeros_like(xv),
                                np.full_like(xv, psi.lip_l1))
    return _integrate_cases(cases, best)


# ---------------------------------------------------------------------------
# one-dimensional Hopf-Lax reduction

# The gap, times max(1, |max|), to which the simplex search certifies.
_SIMPLEX_GAP = 1e-12
# The largest |j| searched: criterion 12's one-spin half cells take 0.2-0.4 s
# at |j| = 4 and 3-5 s at |j| = 5.
_SIMPLEX_MAX_SIZE = 5
# At a flat max, where the curvatures of psi and of the penalty cancel, the
# live simplices grow as gap^(-|j|/6), past 10^7 at |j| = 4: the search stops
# past this many, and then needs its live bounds within the flat gap.
_SIMPLEX_MAX_LIVE = 8000
_SIMPLEX_FLAT_GAP = 1e-5


def _kuhn_branch_and_bound(psi_at, penalty, n: int,
                           ub: np.ndarray) -> np.ndarray:
    """Max of psi - P_o over the Kuhn simplex {0 <= v_1 <= ... <= v_n <= ub_o}, per owner o.

    Owner o is the o-th entry of ``ub``.  ``psi_at(V)`` gives psi, which
    must be convex, on the rows of V, and ``penalty(owner, V)`` gives
    P_owner, which must be convex and finite, on the rows of V together
    with its gradient rows.  Owner o's simplex has the vertices
    ub_o 1{k >= m}, m = 0..n.  On a sub-simplex with vertices v_i and
    centroid c, psi lies under its vertex interpolant and P above its
    tangent plane at c, so psi - P is at most
    max_i [psi(v_i) - P(c) - grad P(c) . (v_i - c)] there (simplicial
    branch and bound: Horst and Tuy, Global Optimization, 1996).  Each
    round splits every live simplex at the midpoint of its longest edge
    (the first of equal ones), and a simplex stays live while its bound
    exceeds its owner's best vertex value by more than ``_SIMPLEX_GAP``
    times max(1, |best|).  So the value returned, a vertex value, is
    within that gap of the max; once more than ``_SIMPLEX_MAX_LIVE`` of
    an owner's simplices stay live, its search stops, and its gap is
    ``_SIMPLEX_FLAT_GAP`` instead.  An owner's simplices depend on its
    own values only, so when ``psi_at`` and ``penalty`` give each row a
    value that does not depend on the other rows, its result does not
    depend on the rest of the batch; one ``psi_at`` and one ``penalty``
    call a round serve every owner.  ``penalty`` and ``eval_coords`` for
    linear and separable psi are so, by ``Partition.integrate``; a custom
    ``fn`` must see to it itself.

    Raises InvalidInputError when a midpoint's psi lies above its edge's
    chord beyond rounding (psi not convex), and when an owner's max
    cannot be certified: a live simplex no longer splits, or a stopped
    search has a live bound past the flat gap.
    """
    ub = np.asarray(ub, dtype=float)
    edges = np.array(list(combinations(range(n + 1), 2)))
    owner = np.arange(ub.size)
    verts = ub[:, None, None] * (np.arange(n) >= np.arange(n + 1)[:, None])
    psi = psi_at(verts.reshape(-1, n)).reshape(ub.size, n + 1)
    best = np.full(ub.size, -np.inf)
    bound = _simplex_bounds(np.repeat(owner, n + 1), verts.reshape(-1, n),
                            psi.ravel(), owner, verts, psi, penalty, best)
    while True:
        bar = best[owner]
        live = bound > bar + _SIMPLEX_GAP * np.maximum(1.0, np.abs(bar))
        count = np.bincount(owner[live], minlength=ub.size)
        for o in np.flatnonzero(count > _SIMPLEX_MAX_LIVE):
            mine = live & (owner == o)
            gap = float(bound[mine].max()) - best[o]
            if gap > _SIMPLEX_FLAT_GAP * max(1.0, abs(best[o])):
                raise InvalidInputError(
                    f"{count[o]} simplices stay live {gap:.1e} above the "
                    f"best value: the sup cannot be certified")
            live &= ~mine   # stopped: its best value stands
        if not live.any():
            return best
        owner, verts, psi = owner[live], verts[live], psi[live]
        rows = np.arange(len(verts))
        d = verts[:, edges[:, 0]] - verts[:, edges[:, 1]]
        a, b = edges[np.argmax(np.einsum("sek,sek->se", d, d), axis=1)].T
        va, vb = verts[rows, a], verts[rows, b]
        mid = 0.5 * (va + vb)
        if np.any(np.all(mid == va, axis=1) | np.all(mid == vb, axis=1)):
            raise InvalidInputError(
                "a live simplex no longer splits: the sup cannot be certified")
        pm, pa, pb = psi_at(mid), psi[rows, a], psi[rows, b]
        scale = np.maximum(np.abs(pa), np.abs(pb))
        if np.any(pm > 0.5 * (pa + pb) + _CHORD_SLACK * scale):
            raise InvalidInputError(
                "psi lies above its chord: hopf_lax_1d requires a convex psi")
        # the first child keeps a and takes mid for b, the second the reverse
        verts, psi = np.concatenate([verts, verts]), np.concatenate([psi, psi])
        verts[rows, b], verts[rows.size + rows, a] = mid, mid
        psi[rows, b], psi[rows.size + rows, a] = pm, pm
        owner = np.concatenate([owner, owner])
        bound = _simplex_bounds(owner[rows], mid, pm, owner, verts, psi,
                                penalty, best)


def _simplex_bounds(new_owner, new, psi_new, owner, verts, psi, penalty,
                    best):
    """Each simplex's bound, after raising ``best`` to the values at ``new``.

    The rows ``new`` are vertices of the owners ``new_owner``, and
    ``best`` is updated in place.  The bound is
    max_i [psi(v_i) - P(c) - grad P(c) . (v_i - c)], c the simplex's
    centroid; one ``penalty`` call serves both.
    """
    c = verts.mean(axis=1)
    pen, grad = penalty(np.concatenate([new_owner, owner]),
                        np.concatenate([new, c]))
    m = len(new)
    np.maximum.at(best, new_owner, psi_new - pen[:m])
    tangent = pen[m:, None] \
        + np.einsum("sik,sk->si", verts - c[:, None], grad[m:])
    return np.max(psi - tangent, axis=1)


def hopf_lax_1d(psi: InitialCondition, model: CovarianceModel, t: float,
                mu: ConePoint) -> float:
    """sup over monotone nu of psi^j(nu) - t * sum_k w_k xibar*((nu_k - mu_k) / t).

    j is mu's partition; psi must be convex and |j| at most 5.
    ``_kuhn_branch_and_bound`` certifies the sup over 0 <= nu_1 <= ... <=
    nu_n <= ub = max mu + t r_c.  With l = lip_l1, r_c = xibar'(l): xi'(l)
    when l is at most the seam point s0, as the conjugate's slope s(r_c)
    is l there, and the slope cap 2L otherwise.  Past r_c the penalty
    continues by a line of slope l, so it is finite and convex on the
    whole box.  Moving nu_k back to mu_k + t r_c then lowers the penalty
    by at least w_k l times the move and psi by at most that, so the sup
    over the box is the sup over the cone.  The conjugate is flat at
    -xi(0) for nonpositive slopes, so nu is free to dip below mu.  t = 0
    falls back to psi^j(mu) by convention.  Raises InvalidInputError for
    |j| > 5, where ``hopf_lax`` serves, and as the search does.  The
    one-case batch of ``hopf_lax_1d_batch``.
    """
    return float(hopf_lax_1d_batch(psi, model, [(t, mu)])[0])


def hopf_lax_1d_batch(psi: InitialCondition, model: CovarianceModel,
                      cases) -> np.ndarray:
    """``hopf_lax_1d`` at each (t, mu) of ``cases``, every mu on one partition j.

    Every case is checked before psi is first evaluated, and a batch on
    more than one partition is refused, as one search evaluates psi^j for
    a single j.  A case with t = 0 takes ``psi.eval_point(mu)``; the others
    share one ``_kuhn_branch_and_bound`` search, which evaluates psi on
    the rows of all of them in one ``eval_coords`` call a round.  Each case's
    simplices depend on its own values only, so each value is the one
    ``hopf_lax_1d`` computes alone, bit for bit, when psi's value on a
    row does not depend on the other rows: by construction for linear and
    separable psi (``Partition.integrate``), and up to a custom ``fn``
    otherwise.  When one case cannot be certified, the batch raises that
    case's error.
    """
    for t, mu in cases:
        _require(psi, model, mu, t, "hopf_lax_1d")
    if len({mu.partition for _, mu in cases}) > 1:
        raise InvalidInputError("hopf_lax_1d_batch takes points on one partition only")
    if not cases:
        return np.empty(0)
    j = cases[0][1].partition
    n = j.size
    if n > _SIMPLEX_MAX_SIZE:
        raise InvalidInputError(
            f"hopf_lax_1d certifies |j| <= {_SIMPLEX_MAX_SIZE}, not {n}: "
            f"use hopf_lax for finer partitions")
    out = np.array([psi.eval_point(mu) if t == 0.0 else np.nan
                    for t, mu in cases])
    search = np.flatnonzero([t != 0.0 for t, _ in cases])
    if not search.size:
        return out
    reg = regularize(model)
    tt = np.array([float(cases[i][0]) for i in search])
    M = np.array([cases[i][1].scalars for i in search])
    lip = psi.lip_l1
    r_c = float(reg.deriv(lip))

    def penalty(owner, V):
        t = tt[owner]
        r = (V - M[owner]) / t[:, None]
        inner = np.minimum(r, r_c)
        pen = xi_star_vec(reg, inner) + lip * (r - inner)
        slope = np.where(r > r_c, lip, xi_star_deriv(reg, inner))
        return t * j.integrate(pen), j.widths * slope

    out[search] = _kuhn_branch_and_bound(
        lambda V: psi.eval_coords(j, V), penalty, n,
        M.max(axis=1, initial=0.0) + tt * r_c)
    return out


# ---------------------------------------------------------------------------
# surfaces

def solve_surface(psi: InitialCondition, model: CovarianceModel, times,
                  samples, method: str = "hopf_lax") -> SolutionSurface:
    """Tabulate the chosen formula over a time grid and sample set.

    Each sample carries its partition.  ``hopf``, ``hopf_lax_separable``
    and ``hopf_lax_1d`` take every (t, x) of the surface as one batch, so
    each runs one certified search for the whole surface; each value
    equals the route's one-case call bit for bit.  ``hopf_lax``, the DC
    ascent, solves point by point.
    """
    # looked up per call, so a route rebound on this module is the one run
    routes = {
        "hopf_lax": lambda psi, model, cases: [hopf_lax(psi, model, t, x)
                                               for t, x in cases],
        "hopf_lax_separable": hopf_lax_separable_batch,
        "hopf": hopf_batch,
        "hopf_lax_1d": hopf_lax_1d_batch,
    }
    if method not in routes:
        raise InvalidInputError(f"unknown method {method!r}")
    times = np.asarray(times, dtype=float)
    samples = tuple(samples)
    cases = [(float(t), x) for t in times for x in samples]
    vals = np.reshape(routes[method](psi, model, cases), (times.size, len(samples)))
    return SolutionSurface(times, samples, vals)
