"""Covariance nonlinearities and their regularized / conjugated forms.

A covariance model xi is a polynomial in a scalar argument with
nonnegative coefficients.  The regularization xibar extends xi from
[0, 1] to a globally Lipschitz function, convex and nondecreasing on
[0, inf), by competing it against an affine function (an odd power in
xi can leave it concave at negative arguments); ``regularize`` builds
it once per model, and it is the one Hamiltonian of every solver route.
Only this module knows where xibar changes branch: one ``Polynomial`` of
xi gives its seams and the roots of xi'', and ``Regularization.deriv_sup``
takes from them the sup of |xibar'|, ``fd_oracle``'s CFL speed and V.
Its monotone conjugate xibar*(r) = sup_{s >= 0} {r s - xibar(s)} drives
the Hopf-Lax routes, and H extends the integrated nonlinearity off the
cone as an infimum over dominating monotone points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple, Optional

import numpy as np
from numpy.polynomial import Polynomial

from .cones import ConePoint, InvalidInputError


@dataclass(frozen=True)
class CovarianceModel:
    """Covariance function xi(r) = sum_p beta_p^2 r^p.

    ``poly`` maps exponent p >= 2 to the coefficient beta_p^2 >= 0, so xi
    is convex and nondecreasing on [0, inf).
    """

    poly: dict = field(default_factory=dict)

    def __post_init__(self):
        for p, c in self.poly.items():
            if int(p) < 2:
                raise InvalidInputError("polynomial exponents must be >= 2")
            if c < 0:
                raise InvalidInputError("coefficients beta_p^2 must be >= 0")
        # read-only, since ``regularize`` caches its result on the model
        object.__setattr__(self, "poly", MappingProxyType(
            {int(p): float(c) for p, c in self.poly.items()}))

    @classmethod
    def sk(cls, beta: float = 1.0) -> "CovarianceModel":
        """Sherrington-Kirkpatrick covariance xi(r) = beta r^2."""
        return cls(poly={2: beta})

    def __call__(self, r) -> np.ndarray:
        """xi(r), elementwise over an array (0-d for a scalar r)."""
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        for p, c in self.poly.items():
            out += c * r ** p
        return out

    def deriv(self, r: float) -> float:
        """xi'(r)."""
        return sum(c * p * r ** (p - 1) for p, c in self.poly.items())

    @classmethod
    def from_json(cls, obj) -> "CovarianceModel":
        return cls(poly={int(p): float(c) for p, c in obj["poly"].items()})

    @cached_property
    def _regularization(self) -> "Regularization":
        # the largest |xi'| on [-2, 2] sits at 2, as the coefficients are >= 0
        return Regularization(self, float(self.deriv(2.0)))


@dataclass(frozen=True)
class Regularization:
    """Globally Lipschitz extension of xi from [0, 1].

    xibar(r) = max(xi(r), xi(0) + 2L(r - 1)) for r <= 2 and the affine
    branch alone beyond, with L = xi'(2) the largest |xi'| on [-2, 2].
    Its seams, the roots of xi'' and the seam data of the monotone
    conjugate (see ``xi_star_vec``) are computed once, on first use.
    """

    base: CovarianceModel
    L: float

    @property
    def slope_cap(self) -> float:
        """Slope of the affine branch: 2L."""
        return 2.0 * self.L

    def __call__(self, r) -> np.ndarray:
        """xibar(r), elementwise over an array (0-d for a scalar r)."""
        r = np.asarray(r, dtype=float)
        affine = self._affine(r)
        return np.where(r <= 2.0, np.maximum(self.base(r), affine), affine)

    def _affine(self, r):
        """The affine branch xi(0) + 2L(r - 1)."""
        return self.base(0.0) + 2.0 * self.L * (r - 1.0)

    def deriv(self, r) -> np.ndarray:
        """xibar'(r) for r >= 0: xi' up to the seam s0, the slope 2L beyond."""
        r = np.asarray(r, dtype=float)
        return np.where(r <= self._seam.s0, self.base.deriv(r), self.slope_cap)

    def deriv_sup(self, lo: float, hi: float) -> float:
        """sup of |xibar'| over slopes in [lo, hi].

        xibar need not be convex (an odd power in xi leaves it concave at
        negative arguments), so the candidates are lo, hi, each seam inside
        (lo, hi) with p <= 2 and each root of xi''.  A candidate gives |xi'(p)|
        where xi is active and p <= 2, 2L where the affine branch is active
        or p >= 2, and both one-sided slopes at a seam.
        """
        model, cap, seam = self.base, self.slope_cap, self._seam
        cands = []
        for p in [lo, hi, *seam.flexes]:
            if not lo <= p <= hi:
                continue
            affine = self._affine(p)
            if p <= 2.0 and model(p) >= affine:
                cands.append(abs(model.deriv(p)))
            if p >= 2.0 or affine >= model(p):
                cands.append(cap)
        for p in seam.crossings:
            if lo < p < hi and p <= 2.0:
                cands += [abs(model.deriv(p)), cap]
        return float(max(cands))

    @cached_property
    def _seam(self) -> "_Seam":
        model = self.base
        terms = {p: c for p, c in model.poly.items() if c > 0.0}
        xi = Polynomial([model.poly.get(p, 0.0)
                         for p in range(max(model.poly, default=0) + 1)])
        affine = Polynomial([self._affine(0.0), self.slope_cap])
        crossings, flexes = (r[np.isreal(r)].real for r in (
            (xi - affine).trim().roots(), xi.deriv(2).trim().roots()))
        # one root in [1, 2] (convex, > 0 at 1, < 0 at 2); none if xi is 0
        inside = crossings[(crossings >= 1.0) & (crossings <= 2.0)]
        s0 = float(inside[0]) if inside.size else 1.0
        return _Seam(s0=s0, r0=float(model.deriv(s0)), xi_s0=float(model(s0)),
                     xi0=float(model(0.0)),
                     q=terms[2] if set(terms) == {2} else None,
                     crossings=crossings, flexes=flexes)


class _Seam(NamedTuple):
    """Where xibar changes branch: xibar = xi on [0, s0], affine beyond."""

    s0: float
    r0: float  # xi'(s0), the slope where the conjugate leaves xi's own
    xi_s0: float
    xi0: float
    q: Optional[float]  # coefficient of a pure quadratic xi = q s^2, else None
    crossings: np.ndarray  # real roots of xi - affine: the seams of max(xi, affine)
    flexes: np.ndarray  # real roots of xi'': the critical points of xi'


def regularize(model: CovarianceModel) -> Regularization:
    """The Lipschitz regularization of ``model``, built once per model object.

    L = xi'(2) = sum_p c_p p 2^(p-1) is exact for polynomial models.
    """
    if not isinstance(model, CovarianceModel):
        raise InvalidInputError("regularize takes the CovarianceModel xi")
    return model._regularization


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


def _inner_branch(reg: Regularization, r: np.ndarray):
    """The maximizer s and the value r s - xi(s) of xibar* on 0 < r <= r0.

    There s solves xi'(s) = r: s = r / (2q) for a pure quadratic, by
    ``_inv_deriv_vec`` otherwise.  Entries off that branch are solved at
    r0, where the Newton start s0 is already the root; ``_by_branch``
    drops them.  When xi' vanishes identically, r0 = 0 and the branch is
    empty.
    """
    model = reg.base
    seam = reg._seam
    if seam.q is not None:
        return r / (2.0 * seam.q), r * r / (4.0 * seam.q)
    if seam.r0 > 0.0:
        ri = np.where((r > 0.0) & (r <= seam.r0), r, seam.r0)
        s = _inv_deriv_vec(model, ri, seam.s0)
        # r s - xi(s) with r = xi'(s): a sum of nonnegative terms
        return s, sum(c * (p - 1) * s ** p for p, c in model.poly.items())
    return 0.0, 0.0


def _by_branch(reg: Regularization, r: np.ndarray, nonpositive, inner, chord,
               past_cap) -> np.ndarray:
    """Select per entry of r: r <= 0, 0 < r <= r0, r0 < r <= 2L, or r > 2L."""
    out = np.where(r <= reg._seam.r0, inner,
                   np.where(r <= reg.slope_cap, chord, past_cap))
    return np.where(r > 0.0, out, nonpositive)


def xi_star_vec(reg: Regularization, r: np.ndarray) -> np.ndarray:
    """Monotone conjugate xibar*(r) = sup_{s>=0} {rs - xibar(s)}, exact to rounding.

    Negative slopes give -xi(0) (the sup sits at s = 0 for nondecreasing
    xi).  On 0 < r <= r0 the maximizer solves xi'(s) = r (see
    ``_inner_branch``).  From r0 the seam chord r s0 - xi(s0) continues
    up to the slope cap 2L; beyond the cap the conjugate is +inf.  When
    xi' vanishes identically, r0 = 2L = 0 and the conjugate is +inf on
    r > 0.
    """
    r = np.asarray(r, dtype=float)
    seam = reg._seam
    return _by_branch(reg, r, -seam.xi0, _inner_branch(reg, r)[1],
                      r * seam.s0 - seam.xi_s0, np.inf)


def xi_star_deriv(reg: Regularization, r: np.ndarray) -> np.ndarray:
    """(xibar*)'(r): the maximizer s(r) of rs - xibar(s), on the branches of ``xi_star_vec``.

    0 for r <= 0, the root of xi'(s) = r on 0 < r <= r0, the seam point
    s0 on the chord up to 2L, and +inf beyond the cap, where the sup is
    approached as s grows without bound.  At a branch point it is the
    left derivative, which for r = r0 is s0 from either side.
    """
    r = np.asarray(r, dtype=float)
    return _by_branch(reg, r, 0.0, _inner_branch(reg, r)[0], reg._seam.s0,
                      np.inf)


def bold_xi(x: ConePoint, model) -> float:
    """Integrated nonlinearity sum_k w_k xi(x_k) of a cone point."""
    return float(x.partition.integrate(model(x.scalars)))


# ---------------------------------------------------------------------------
# the extended nonlinearity H

def h_eval(kappa: ConePoint, reg: Regularization) -> float:
    """inf of the integrated regularization over monotone points dominating kappa.

    Feasible set: x in C^j with x - kappa in (C^j)*.  For D = 1 the
    infimum is attained at x = max(PAV_w(kappa), 0), PAV_w the weighted
    isotonic regression, which leaves a cone point as it is.  Every
    feasible x is nondecreasing and dominates the tail sums of kappa, so
    its tail-integral function is concave and lies above kappa's, hence
    above their least concave majorant, which is the tail integral of
    PAV_w(kappa).  So x dominates PAV_w(kappa) in increasing convex order,
    and sum_k w_k xibar(x_k) is no smaller for xibar convex and
    nondecreasing on [0, inf).  Feasible x are >= 0, so flooring at 0
    keeps the bound and gives a feasible point.
    """
    j = kappa.partition
    x = np.maximum(_pav(kappa.scalars, j.widths), 0.0)
    return float(j.integrate(reg(x)))


def _pav(k: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weighted nondecreasing least-squares fit of k, by pool adjacent violators."""
    means, weights, sizes = [], [], []
    for value, weight in zip(k, w):
        means.append(value)
        weights.append(weight)
        sizes.append(1)
        while len(means) > 1 and means[-2] > means[-1]:
            m, mw, size = means.pop(), weights.pop(), sizes.pop()
            means[-1] = (weights[-1] * means[-1] + mw * m) / (weights[-1] + mw)
            weights[-1] += mw
            sizes[-1] += size
    return np.repeat(means, sizes)

