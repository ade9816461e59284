"""Refinement studies across nested partitions.

A solution computed on a coarse partition j can be evaluated at fine
states by averaging them down: f_{j -> j'}(t, x) = f_j(t, p_j l_{j'} x).
The harness measures how fast these restricted values approach the
fine-level values along a dyadic chain, fits the empirical decay rate,
and audits the Lipschitz bounds that the formulas must preserve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cones import InvalidInputError, Partition, StepPath, lift_lj, project_pj
from .nonlinearity import CovarianceModel, regularize
from .solvers import (KIND_SEPARABLE, InitialCondition, SolutionSurface,
                      hopf_lax, hopf_lax_separable_batch)


def _solve(psi: InitialCondition, model: CovarianceModel,
           cases) -> np.ndarray:
    """f(t, x) at each (t, x) of ``cases``; separable psi shares one search."""
    if psi.kind == KIND_SEPARABLE:
        return hopf_lax_separable_batch(psi, model, cases)
    return np.array([hopf_lax(psi, model, t, x) for t, x in cases])


@dataclass(frozen=True)
class RefinementStudy:
    """Per-level restriction errors along a dyadic chain and the fitted rate."""

    sizes: np.ndarray          # |j_n| for the coarse level of each gap
    errors: np.ndarray         # e_n = max over test points of the scaled gap
    slope: float               # least-squares slope of log e vs log |j| (last 3)
    constant: float            # fitted multiplicative constant
    test_count: int

    def to_json(self):
        return {"sizes": self.sizes.tolist(), "errors": self.errors.tolist(),
                "slope": self.slope, "constant": self.constant,
                "tests": self.test_count}


def rate_study(psi: InitialCondition, model: CovarianceModel, chain,
               test_points) -> RefinementStudy:
    """Measure e_n = max |f_{j_n -> j_{n+1}} - f_{j_{n+1}}| / (t + |x|) per gap.

    ``chain`` is a nested list of partitions (each refining the last);
    ``test_points`` is a list of (t, mu) with mu a StepPath.  The decay
    exponent is fitted by least squares on the last three gaps; it is NaN
    when any error is not finite.
    """
    chain = list(chain)
    if len(chain) < 3:
        raise InvalidInputError("rate study needs at least 3 levels")
    for a, b in zip(chain, chain[1:]):
        if not b.refines(a):
            raise InvalidInputError("chain partitions must be nested")
    gaps = list(zip(chain, chain[1:]))
    cases, scales = [], []
    for jc, jf in gaps:
        for t, mu in test_points:
            x_fine = project_pj(mu, jf)
            cases += [(t, x_fine), (t, project_pj(lift_lj(x_fine), jc))]
            scales.append(max(t + x_fine.norm(), 1e-12))
    f = _solve(psi, model, cases).reshape(len(gaps), -1, 2)
    gap = np.abs(f[..., 1] - f[..., 0]) / np.reshape(scales, f.shape[:2])
    sizes = np.array([jc.size for jc, _ in gaps], dtype=float)
    # np.max keeps a NaN gap, which the builtin max drops
    errors = np.max(gap, axis=1, initial=0.0)
    tail_s, tail_e = sizes[-3:], errors[-3:]
    good = tail_e > 1e-13
    if not np.all(np.isfinite(errors)):
        slope, constant = np.nan, np.nan
    elif good.sum() >= 2:
        A = np.vstack([np.log(tail_s[good]), np.ones(good.sum())]).T
        coef, *_ = np.linalg.lstsq(A, np.log(tail_e[good]), rcond=None)
        slope, logc = float(coef[0]), float(coef[1])
        constant = float(np.exp(logc))
    else:
        # errors at solver tolerance: exact projective consistency
        slope, constant = -np.inf, 0.0
    return RefinementStudy(sizes, errors, slope, constant, len(list(test_points)))


def seeded_test_points(seed: int, count: int = 32, radius: float = 4.0,
                       fine: int = 128):
    """Deterministic monotone step paths in the ball of the given radius.

    Returns (t, mu) pairs with t cycling through 0.25, 0.5 and 1; mu lives
    on a fine uniform grid so every chain level is a strict coarsening.
    """
    times = (0.25, 0.5, 1.0)
    rng = np.random.default_rng(seed)
    jf = Partition.uniform(fine)
    out = []
    for i in range(count):
        raw = np.cumsum(rng.exponential(1.0, fine))
        raw = raw / raw[-1] * rng.uniform(0.2, 1.0) * radius
        mu = StepPath(jf, raw[:, None, None])
        out.append((float(times[i % len(times)]), mu))
    return out


def lipschitz_audit(surface: SolutionSurface, psi: InitialCondition,
                    model: CovarianceModel) -> dict:
    """Observed difference quotients of a surface versus the formula bounds.

    Spatial quotients are taken in both the H^j norm (bound lip_h) and
    the weighted l1 norm (bound lip_l1); time quotients are bounded by
    xibar(lip_l1), the sup of |xibar| on [0, lip_l1] (xibar is
    nondecreasing and nonnegative there).  Each bound gets 1 % slack.
    """
    slack = 1.01
    samples = surface.samples
    vals = surface.values
    sup_h = sup_l1 = 0.0
    for a in range(len(samples)):
        for b in range(a + 1, len(samples)):
            dh = (samples[a] - samples[b]).norm()
            d1 = (samples[a] - samples[b]).norm_lp(1.0)
            gap = np.abs(vals[:, a] - vals[:, b]).max()
            if dh > 1e-12:
                sup_h = max(sup_h, float(gap / dh))
            if d1 > 1e-12:
                sup_l1 = max(sup_l1, float(gap / d1))
    sup_t = 0.0
    for ti in range(surface.times.size - 1):
        dt = surface.times[ti + 1] - surface.times[ti]
        if dt <= 1e-12:
            continue
        gap = np.abs(vals[ti + 1] - vals[ti]).max()
        sup_t = max(sup_t, float(gap / dt))
    time_bound = float(regularize(model)(psi.lip_l1))
    report = {
        "spatial_h": sup_h, "spatial_h_bound": psi.lip_h,
        "spatial_l1": sup_l1, "spatial_l1_bound": psi.lip_l1,
        "time": sup_t, "time_bound": time_bound,
    }
    report["pass"] = bool(sup_h <= psi.lip_h * slack
                          and sup_l1 <= psi.lip_l1 * slack
                          and sup_t <= time_bound * slack)
    return report
