"""Desk-scale free-energy Monte Carlo for the enriched SK model.

The enriched free energy couples N Ising spins to a Gaussian
interaction with covariance N xi(sigma . tau / N), xi(r) = beta r^2, and
to an ultrametric external field driven by a Poisson-Dirichlet cascade
whose overlap law is a prescribed discrete monotone measure.  Spins are
enumerated exactly (N <= 14); disorder replicas are independent seeded
substreams so estimates are bit-reproducible at any thread count.  A
replica never forms its 2^N x M^K exponent matrix: it splits the spins
into the low floor(N/2) and high ceil(N/2) bits of the sign index, so
the sum over spins and leaves is one (2^ceil(N/2) x M^K) (M^K x
2^floor(N/2)) matmul of exponentials, each factor shifted by its column
maxima (``_exp_shifted``, which also normalizes the cascade weights).
``free_energy`` refuses a run whose threads would hold more than 2 GiB
of replica arrays at once.

The t = 0 value tensorizes to a one-spin functional that is computed
deterministically by a backward recursion over the cascade levels; it
doubles as the initial condition for the variational solvers.  Each
level is a Gaussian mean taken by discrete convolution on one uniform
lattice, so no level interpolates; a deviation below 1.25 lattice
spacings takes a fourth-order Taylor rule with centred differences.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cones import (DiscreteMeasure, InvalidInputError,
                    UnsupportedOperationError)
from .solvers import InitialCondition


# ---------------------------------------------------------------------------
# max-shifted exponentials

def _exp_shifted(a: np.ndarray):
    """Overwrite a with exp(a - m) and return m, the maximum along axis 0.

    The one log-sum-exp kernel, in place: a vector is shifted by its
    maximum, log sum exp(a) = m + log sum(result), and a matrix by its
    column maxima.
    """
    m = a.max(axis=0)
    a -= m
    np.exp(a, out=a)
    return m


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


def sample_cascade(spec: CascadeSpec, rng: np.random.Generator) -> np.ndarray:
    """Leaf weights: top-M arrivals of u_m = Gamma_m^(-1/zeta) per node.

    Leaf weights are normalized products along root-to-leaf paths.  The
    tree is full M-ary with leaves in depth-first order, so the M^(K-1-k)
    consecutive leaves from i M^(K-1-k) on share their depth-(k+1)
    ancestor i.  For K = 0 there is a single leaf of weight 1.
    """
    if spec.K == 0:
        return np.array([1.0])
    log_u = np.zeros(1)  # log product along paths, per current-depth node
    for zeta in spec.zetas:
        gaps = rng.exponential(1.0, size=(log_u.size, spec.M))
        gamma = np.cumsum(gaps, axis=1)
        child_log_u = -np.log(gamma) / zeta  # decreasing arrivals per parent
        log_u = (log_u[:, None] + child_log_u).ravel()
    _exp_shifted(log_u)
    return log_u / log_u.sum()


def pd_squared_weight(spec: CascadeSpec, rng: np.random.Generator) -> float:
    """sum of squared leaf weights for one cascade draw (K = 1 identity check)."""
    return float(np.sum(sample_cascade(spec, rng) ** 2))


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


@dataclass(frozen=True)
class FreeEnergyEstimate:
    mean: float
    se: float
    replicas: int
    N: int
    t: float


_MEMORY_CAP = 2 ** 31   # bytes of replica arrays held at once


def _replica_bytes(N: int, spec: CascadeSpec) -> int:
    """Upper bound on the bytes one ``_replica_value`` holds at once.

    With L = M^K leaves and the sign index split into lo = N // 2 and
    hi = N - lo bits, a replica holds 8-byte floats for
      - its leaf arrays, L (2N + 3): the weights, the fields, one level's
        field draws and the column shifts (the cascade sampler's five
        working arrays fit in the same space);
      - the two factor blocks, (2^lo + 2^hi) L;
      - the energy terms, 2^N (2N + 2);
    plus 64 KiB for numpy's ufunc buffers and array headers.
    """
    L = spec.M ** spec.K
    lo = N // 2
    return (8 * (L * (2 * N + 3) + (2 ** lo + 2 ** (N - lo)) * L
                 + 2 ** N * (2 * N + 2)) + 2 ** 16)


def _sign_matrix(N: int) -> np.ndarray:
    bits = np.arange(2 ** N)[:, None] >> np.arange(N)[None, :]
    return 1.0 - 2.0 * (bits & 1)


def _leaf_fields(q: np.ndarray, spec: CascadeSpec, N: int,
                 rng: np.random.Generator) -> np.ndarray:
    """External field per leaf and spin, an M^K x N array.

    sqrt(q_0) at the root plus sqrt(q_k - q_{k-1}) at each tree level:
    one draw per depth-(k+1) node, added in place to the leaves below it.
    """
    W = np.empty((spec.M ** spec.K, N))
    W[:] = np.sqrt(q[0]) * rng.standard_normal(N)
    for k in range(spec.K):
        z = rng.standard_normal((spec.M ** (k + 1), N))
        z *= np.sqrt(q[k + 1] - q[k])
        block = W.reshape(spec.M ** (k + 1), -1, N)
        block += z[:, None, :]
    return W


def _replica_value(inst: SkInstance, spec: CascadeSpec, S: np.ndarray,
                   rng: np.random.Generator) -> float:
    N, beta, t = inst.N, inst.beta, inst.t
    q = inst.measure.atoms[:, 0, 0]
    weights = sample_cascade(spec, rng)
    W = _leaf_fields(q, spec, N, rng)
    G = rng.standard_normal((N, N))
    energy = np.sqrt(beta / N) * np.sum((S @ G) * S, axis=1)
    # sum_{s, leaf} exp(sqrt(2) s.W + log weight + sqrt(2t) energy): split
    # the sign index into its low and high bits, s = (s', s''), so that
    # exp(sqrt(2) s.W) = exp(sqrt(2) s'.W') exp(sqrt(2) s''.W''); each
    # factor block is shifted by its column maxima, which join the log
    # weights, and the sum over leaves is one matmul
    lo = N // 2
    low = (np.sqrt(2.0) * S[:2 ** lo, :lo]) @ W[:, :lo].T
    high = (np.sqrt(2.0) * S[::2 ** lo, lo:]) @ W[:, lo:].T
    shift = np.log(weights, out=weights)
    shift += _exp_shifted(low)
    shift += _exp_shifted(high)
    m = _exp_shifted(shift)
    low *= shift
    energy *= np.sqrt(2.0 * t)
    m += _exp_shifted(energy)
    # energy[j 2^lo + i] pairs with high row j and low row i
    total = np.vdot(energy, high @ low.T)
    return -(m + np.log(total) - N * np.log(2.0)) / N + t * beta + q[-1]


def free_energy(inst: SkInstance, spec: CascadeSpec, replicas: int,
                seed: int, threads: int = 1) -> FreeEnergyEstimate:
    """Replica average of the enriched free energy with exact spin sums.

    Each replica draws its disorder from an independent substream keyed
    by (seed, replica index); results are reduced by index so the
    estimate is identical under any thread count.  A run whose threads
    would hold more than 2 GiB of replica arrays at once (see
    ``_replica_bytes``) is refused before the first replica.
    """
    if tuple(inst.measure.levels[1:-1]) != spec.zetas:
        raise InvalidInputError("cascade ratios must match the measure levels")
    per_thread = _replica_bytes(inst.N, spec)
    workers = max(threads, 1)
    if workers * per_thread > _MEMORY_CAP:
        raise UnsupportedOperationError(
            f"free_energy at N = {inst.N}, M = {spec.M}, K = {spec.K} needs "
            f"about {per_thread:.2g} bytes per thread on {workers} "
            f"thread(s), over the {_MEMORY_CAP / 2 ** 30:g} GiB cap")
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

_Z_MAX = 8.1         # Gaussian kernels are truncated at 8.1 deviations
_HALF_POINTS = 300   # lattice spacing h: the widest reach spans 300 points
_NARROW = 1.25       # a deviation below 1.25 h takes the Taylor rule
_D2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0               # h^2 F''
_D4 = np.array([-1.0, 12.0, -39.0, 56.0, -39.0, 12.0, -1.0]) / 6.0   # h^4 F''''


def _log_cosh(x):
    x = np.abs(x)
    return x + np.log1p(np.exp(-2.0 * x)) - np.log(2.0)


def _radius(s: float, h: float) -> int:
    """Half-width in lattice points of ``_gauss_mean`` at deviation s."""
    if s == 0.0:
        return 0
    if s < _NARROW * h:
        return 3
    return int(_Z_MAX * s / h)


def _gauss_mean(F: np.ndarray, s: float, h: float) -> np.ndarray:
    """E F(w + s z), z standard normal, on a lattice of spacing h.

    The output lies on the same lattice, ``_radius(s, h)`` points
    narrower on each side; ``one_spin_psi`` states the two rules.
    """
    r = _radius(s, h)
    if r == 0:
        return F
    if s < _NARROW * h:
        a = (s / h) ** 2
        return (F[3:-3] + 0.5 * a * np.convolve(F, _D2, mode="valid")[1:-1]
                + 0.125 * a * a * np.convolve(F, _D4, mode="valid"))
    x = np.arange(-r, r + 1) * (h / s)
    g = np.exp(-0.5 * x * x)
    return np.convolve(F, g / g.sum(), mode="valid")


def one_spin_psi(measure: DiscreteMeasure) -> float:
    """psi(rho) = q_K - E log sum_alpha nu_alpha cosh(sqrt(2) w(alpha)).

    Computed by the backward cascade recursion
    Y_K(w) = log cosh(sqrt(2) w),
    Y_{k-1}(w) = (1/zeta_k) log E_z exp(zeta_k Y_k(w + sqrt(dq_k) z)),
    psi = q_K - E_z Y_0(sqrt(q_0) z),
    on one uniform lattice w = h (-n..n) with
    h = (8.1 (sqrt(q_0) + sum_k sqrt(dq_k)) + 1) / 300.

    Every Gaussian mean is ``_gauss_mean``, whose output stays on the same
    lattice, narrower by its half-width, so no level interpolates; n is
    the sum of those half-widths, so the last mean leaves the single value
    at w = 0.  At deviation s >= 1.25 h the mean is a convolution with the
    sampled Gaussian, normalized and truncated at 8.1 s.  Below that the
    sampled kernel is too coarse for the trapezoid rule, and the mean is
    the Taylor rule E F(w + s z) ~ F + (s^2/2) F'' + (s^4/8) F'''' with
    centred 5- and 7-point differences; such steps come from nearly equal
    atoms and from a tiny q_0.  dq_k = 0 leaves Y unchanged, which is
    exact.  Against nested Gauss-Hermite quadrature the convolution is
    off by about 1e-14 and the Taylor rule by up to 1.5e-10, just below
    the switch.
    """
    return _one_spin_value(measure.atoms[:, 0, 0], measure.levels[1:-1])


def _one_spin_value(q: np.ndarray, zetas: np.ndarray) -> float:
    """``one_spin_psi`` at atoms q >= 0 and levels (0, zetas, 1).

    q is nondecreasing, and a step below 0 counts as 0.  A zero step is
    skipped, which is exact: tied atoms give bit for bit the value of the
    measure that merges them.
    """
    s = np.sqrt(np.maximum(np.diff(q, prepend=0.0), 0.0))  # sqrt(q_0), sqrt(dq_k)
    h = (_Z_MAX * s.sum() + 1.0) / _HALF_POINTS
    n = sum(_radius(v, h) for v in s)
    Y = _log_cosh(np.sqrt(2.0) * h * np.arange(-n, n + 1))
    for k in range(q.size - 1, 0, -1):
        if s[k] == 0.0:
            continue
        inner = zetas[k - 1] * Y
        m = _exp_shifted(inner)
        Y = (np.log(_gauss_mean(inner, s[k], h)) + m) / zetas[k - 1]
    return float(q[-1] - _gauss_mean(Y, s[0], h)[0])


def one_spin_initial_condition() -> InitialCondition:
    """The t = 0 free-energy functional as an initial condition on C^j.

    A row of coordinates is the quantile path of the measure with atom
    x_k from level t_{k-1} on, so psi^j(x) is ``_one_spin_value`` at
    zetas t_1, ..., t_{|j|-1}.
    """

    def fn(j, X):
        return [_one_spin_value(x, j.breaks[:-1]) for x in X]

    return InitialCondition.custom(fn, lip_l1=1.0)


# ---------------------------------------------------------------------------
# bound check against the variational value

def bound_check(estimates, f_value: float) -> dict:
    """Validate FreeEnergyEstimates F_bar_N >= f - 3 SE - c/N, c fitted at the least N.

    c = max(0, N (f - F_bar_N)) there, so the larger N test the c/N rate.
    Also reports whether the gap F_bar_N - f is nonincreasing in N within
    combined standard errors.
    """
    estimates = sorted(estimates, key=lambda e: e.N)
    c = max(0.0, estimates[0].N * (f_value - estimates[0].mean))
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
