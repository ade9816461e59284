"""Desk-scale free-energy Monte Carlo for the enriched SK model.

The enriched free energy couples N Ising spins to a Gaussian
interaction with covariance N xi(sigma . tau / N), xi(r) = beta r^2, and
to an ultrametric external field driven by a Poisson-Dirichlet cascade
whose overlap law is a prescribed discrete monotone measure.  Spins are
enumerated exactly (N <= 14); disorder replicas are independent seeded
substreams so estimates are bit-reproducible at any thread count.

The t = 0 value tensorizes to a one-spin functional that is computed
deterministically by a backward recursion over the cascade levels with
Gauss-Hermite quadrature; it doubles as the initial condition for the
variational solvers.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss
from scipy.interpolate import CubicSpline
from scipy.special import logsumexp

from .cones import (DiscreteMeasure, InvalidInputError, StepPath,
                    UnsupportedOperationError, quantile_to_measure)
from .nonlinearity import CovarianceModel
from .solvers import InitialCondition


# ---------------------------------------------------------------------------
# Poisson-Dirichlet cascades

@dataclass(frozen=True)
class CascadeSpec:
    """Cascade shape: level ratios 0 < zeta_1 < ... < zeta_K < 1, truncation M."""

    zetas: tuple
    M: int = 256

    def __post_init__(self):
        z = tuple(float(v) for v in self.zetas)
        if any(not (0.0 < a < 1.0) for a in z) or any(
                b <= a for a, b in zip(z, z[1:])):
            raise InvalidInputError("ratios must increase strictly inside (0, 1)")
        if self.K >= 1 and self.M < 2:
            raise InvalidInputError("truncation M must be at least 2")
        object.__setattr__(self, "zetas", z)

    @property
    def K(self) -> int:
        return len(self.zetas)

    @classmethod
    def for_measure(cls, m: DiscreteMeasure, M: int = 256) -> "CascadeSpec":
        return cls(tuple(m.levels[1:-1]), M)


@dataclass(frozen=True)
class Cascade:
    """Sampled, truncated cascade: leaf weights plus ancestor bookkeeping.

    ``ancestors[k]`` maps each leaf to its depth-(k+1) node id; node ids
    at depth k run over range(node_counts[k]).  For K = 0 there is a
    single leaf of weight 1.
    """

    weights: np.ndarray
    ancestors: tuple
    node_counts: tuple


def sample_cascade(spec: CascadeSpec, rng: np.random.Generator) -> Cascade:
    """Top-M arrivals of the Poisson process u_m = Gamma_m^(-1/zeta) per node.

    Leaf weights are normalized products along root-to-leaf paths.
    """
    if spec.K == 0:
        return Cascade(np.array([1.0]), (), ())
    log_u = np.zeros(1)  # log product along paths, per current-depth node
    node_counts = []
    for k, zeta in enumerate(spec.zetas):
        n_parents = log_u.size
        gaps = rng.exponential(1.0, size=(n_parents, spec.M))
        gamma = np.cumsum(gaps, axis=1)
        child_log_u = -np.log(gamma) / zeta  # decreasing arrivals per parent
        log_u = (log_u[:, None] + child_log_u).ravel()
        node_counts.append(log_u.size)
    # ancestor ids: with a full M-ary layout, leaf i has depth-(k+1)
    # ancestor i // M^(K-1-k)
    P = log_u.size
    anc = []
    for k in range(spec.K):
        stride = spec.M ** (spec.K - 1 - k)
        anc.append(np.arange(P) // stride)
    w = np.exp(log_u - logsumexp(log_u))
    return Cascade(w, tuple(anc), tuple(node_counts))


def pd_squared_weight(spec: CascadeSpec, rng: np.random.Generator) -> float:
    """sum of squared leaf weights for one cascade draw (K = 1 identity check)."""
    c = sample_cascade(spec, rng)
    return float(np.sum(c.weights ** 2))


# ---------------------------------------------------------------------------
# enriched SK free energy

@dataclass(frozen=True)
class SkInstance:
    """N Ising spins, covariance xi(r) = beta r^2, time t, overlap measure."""

    N: int
    beta: float
    t: float
    measure: DiscreteMeasure

    def __post_init__(self):
        if self.measure.dim != 1:
            raise UnsupportedOperationError("scalar overlap structure only")
        if self.N > 14:
            raise UnsupportedOperationError(
                "exact spin enumeration is capped at N = 14")
        if self.N < 1 or self.t < 0 or self.beta < 0:
            raise InvalidInputError("need N >= 1, t >= 0, beta >= 0")

    @property
    def model(self) -> CovarianceModel:
        return CovarianceModel.sk(self.beta)


@dataclass(frozen=True)
class FreeEnergyEstimate:
    mean: float
    se: float
    replicas: int
    N: int
    t: float

    def to_json(self):
        return {"mean": self.mean, "se": self.se, "replicas": self.replicas,
                "N": self.N, "t": self.t}


def _sign_matrix(N: int) -> np.ndarray:
    bits = np.arange(2 ** N)[:, None] >> np.arange(N)[None, :]
    return 1.0 - 2.0 * (bits & 1)


def _replica_value(inst: SkInstance, spec: CascadeSpec, S: np.ndarray,
                   rng: np.random.Generator) -> float:
    N, beta, t = inst.N, inst.beta, inst.t
    q = inst.measure.atoms[:, 0, 0]
    casc = sample_cascade(spec, rng)
    P = casc.weights.size
    # external field per leaf and spin: sqrt(q0) at the root plus
    # sqrt(q_k - q_{k-1}) at each tree level
    W = np.sqrt(q[0]) * rng.standard_normal(N)[None, :] * np.ones((P, 1))
    for k in range(spec.K):
        z = rng.standard_normal((casc.node_counts[k], N))
        W = W + np.sqrt(q[k + 1] - q[k]) * z[casc.ancestors[k]]
    G = rng.standard_normal((N, N))
    energy = np.sqrt(beta / N) * np.einsum("si,ij,sj->s", S, G, S)
    A = np.sqrt(2.0 * t) * energy[:, None] + np.sqrt(2.0) * (S @ W.T) \
        + np.log(casc.weights)[None, :]
    lse = logsumexp(A)
    return -(lse - N * np.log(2.0)) / N + t * beta + q[-1]


def free_energy(inst: SkInstance, spec: CascadeSpec, replicas: int,
                seed: int, threads: int = 1) -> FreeEnergyEstimate:
    """Replica average of the enriched free energy with exact spin sums.

    Each replica draws its disorder from an independent substream keyed
    by (seed, replica index); results are reduced by index so the
    estimate is identical under any thread count.
    """
    if tuple(inst.measure.levels[1:-1]) != spec.zetas:
        raise InvalidInputError("cascade ratios must match the measure levels")
    S = _sign_matrix(inst.N)
    vals = np.empty(replicas)

    def work(r):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(r,)))
        vals[r] = _replica_value(inst, spec, S, rng)

    if threads <= 1:
        for r in range(replicas):
            work(r)
    else:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            list(ex.map(work, range(replicas)))
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / np.sqrt(replicas)) if replicas > 1 else np.inf
    return FreeEnergyEstimate(mean, se, replicas, inst.N, inst.t)


def moment_normalization(N: int, beta: float, t: float, replicas: int,
                         seed: int) -> dict:
    """MC check of E exp(sqrt(2t) H_N(sigma) - N t xi(1)) = 1 for fixed sigma."""
    rng = np.random.default_rng(seed)
    sigma = np.ones(N)
    vals = np.empty(replicas)
    for r in range(replicas):
        G = rng.standard_normal((N, N))
        h = np.sqrt(beta / N) * sigma @ G @ sigma
        vals[r] = np.exp(np.sqrt(2.0 * t) * h - N * t * beta)
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / np.sqrt(replicas))
    return {"mean": mean, "se": se, "pass": bool(abs(mean - 1.0) <= 3.0 * se)}


# ---------------------------------------------------------------------------
# deterministic one-spin functional (t = 0 tensorization)

_GH_NODES, _GH_WEIGHTS = hermgauss(40)
_Z_NODES = np.sqrt(2.0) * _GH_NODES          # standard-normal nodes
_Z_WEIGHTS = _GH_WEIGHTS / np.sqrt(np.pi)


def _log_cosh(x):
    x = np.abs(x)
    return x + np.log1p(np.exp(-2.0 * x)) - np.log(2.0)


def one_spin_psi(measure: DiscreteMeasure, grid_points: int = 601) -> float:
    """psi(rho) = q_K - E log sum_alpha nu_alpha cosh(sqrt(2) w(alpha)).

    Computed by the backward cascade recursion
    Y_{k-1}(w) = (1/zeta_k) log E_z exp(zeta_k Y_k(w + sqrt(dq_k) z))
    with Gauss-Hermite quadrature and cubic-spline tabulation per level.
    """
    q = measure.atoms[:, 0, 0]
    zetas = measure.levels[1:-1]
    K = q.size - 1
    zmax = float(np.abs(_Z_NODES).max())
    sq = np.sqrt(np.maximum(np.diff(q), 0.0))  # sqrt(dq_k), k = 1..K
    half = zmax * (np.sqrt(max(q[0], 0.0)) + np.concatenate(
        ([0.0], np.cumsum(sq)))) + 1.0  # grid half-width needed per depth
    w = np.linspace(-half[K], half[K], grid_points)
    Y = _log_cosh(np.sqrt(2.0) * w)
    for k in range(K, 0, -1):
        wk = np.linspace(-half[k - 1], half[k - 1], grid_points)
        if sq[k - 1] == 0.0:
            Y = CubicSpline(w, Y)(wk)
            w = wk
            continue
        spline = CubicSpline(w, Y)
        args = wk[:, None] + sq[k - 1] * _Z_NODES[None, :]
        inner = zetas[k - 1] * spline(args)
        m = inner.max(axis=1, keepdims=True)
        Y = (np.log(np.exp(inner - m) @ _Z_WEIGHTS) + m[:, 0]) / zetas[k - 1]
        w = wk
    if q[0] > 0.0:
        spline = CubicSpline(w, Y)
        val = float(spline(np.sqrt(q[0]) * _Z_NODES) @ _Z_WEIGHTS)
    else:
        val = float(np.interp(0.0, w, Y))
    return float(q[-1] - val)


def one_spin_initial_condition() -> InitialCondition:
    """The t = 0 free-energy functional as an initial condition on paths."""

    def fn(path: StepPath) -> float:
        # optimizer trial points may sit a hair outside the cone; snap
        # to the nearest monotone nonnegative profile before converting
        vals = np.maximum.accumulate(np.maximum(path.values[:, 0, 0], 0.0))
        mono = StepPath(path.partition, vals[:, None, None])
        return one_spin_psi(quantile_to_measure(mono))

    return InitialCondition.custom(fn, lip_l1=1.0, convex=False,
                                   dual_increasing=True, name="sk-one-spin")


# ---------------------------------------------------------------------------
# bound check against the variational value

def bound_check(estimates, f_value: float) -> dict:
    """Validate F_bar_N >= f - 3 SE - c/N with the smallest admissible c >= 0.

    ``estimates`` is a list of FreeEnergyEstimate at increasing N.  Also
    reports whether the gap F_bar_N - f is nonincreasing in N within
    combined standard errors.
    """
    estimates = sorted(estimates, key=lambda e: e.N)
    c = 0.0
    for e in estimates:
        c = max(c, e.N * (f_value - e.mean))
    c = max(c, 0.0)
    rows = []
    for e in estimates:
        ok = e.mean >= f_value - 3.0 * e.se - c / e.N - 1e-12
        rows.append({"N": e.N, "gap": e.mean - f_value, "se": e.se, "pass": bool(ok)})
    trend = True
    for a, b in zip(estimates, estimates[1:]):
        if (b.mean - f_value) > (a.mean - f_value) + 3.0 * (a.se + b.se):
            trend = False
    return {"f": f_value, "c": c, "points": rows,
            "trend_nonincreasing": trend,
            "pass": bool(all(r["pass"] for r in rows))}
