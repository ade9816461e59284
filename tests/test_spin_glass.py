"""Cascade sampler, free-energy Monte Carlo, and the one-spin recursion."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
from scipy import integrate
from scipy.special import logsumexp

from conehj import (CascadeSpec, CovarianceModel, DiscreteMeasure,
                    InitialCondition, InvalidInputError, Partition,
                    SkInstance, UnsupportedOperationError, bound_check,
                    free_energy, hopf_lax, hopf_lax_1d, measure_to_quantile,
                    moment_normalization, one_spin_initial_condition,
                    one_spin_psi, project_pj, sample_cascade)
from conehj import spin_glass
from conehj.spin_glass import (FreeEnergyEstimate, _one_spin_values,
                               _replica_bytes, _replica_value, _sign_matrix,
                               pd_squared_weight)

HALF = DiscreteMeasure(np.array([0.0, 0.3]), np.array([0.0, 0.5, 1.0]))


# ---------------------------------------------------------------------------
# cascades

def test_cascade_spec_validation():
    with pytest.raises(InvalidInputError):
        CascadeSpec((0.5, 0.4))
    with pytest.raises(InvalidInputError):
        CascadeSpec((0.0,))
    with pytest.raises(InvalidInputError):
        CascadeSpec((0.5,), M=1)


def test_cascade_spec_for_measure():
    spec = CascadeSpec.for_measure(HALF)
    assert spec.zetas == (0.5,)
    assert CascadeSpec.for_measure(DiscreteMeasure.delta(0.0)).K == 0


def test_trivial_cascade_single_leaf():
    w = sample_cascade(CascadeSpec(()), np.random.default_rng(0))
    np.testing.assert_array_equal(w, [1.0])


def test_cascade_weights_normalized_and_sorted_arrivals():
    rng = np.random.default_rng(1)
    w = sample_cascade(CascadeSpec((0.5,), M=64), rng)
    assert w.shape == (64,)
    assert w.sum() == pytest.approx(1.0)
    # arrivals u_m are decreasing per node, so leaf weights are sorted
    assert np.all(np.diff(w) <= 1e-15)


def test_two_level_cascade_shape():
    rng = np.random.default_rng(2)
    w = sample_cascade(CascadeSpec((0.3, 0.7), M=8), rng)
    assert w.shape == (64,)
    assert w.sum() == pytest.approx(1.0)


def test_pd_squared_weight_identity():
    # E sum nu^2 = 1 - zeta for a single level
    rng = np.random.default_rng(3)
    spec = CascadeSpec((0.5,), M=256)
    vals = np.array([pd_squared_weight(spec, rng) for _ in range(600)])
    se = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean() - 0.5) <= 3.0 * se


# ---------------------------------------------------------------------------
# free energy MC

def test_instance_validation():
    with pytest.raises(UnsupportedOperationError):
        SkInstance(15, 1.0, 0.0, HALF)
    with pytest.raises(InvalidInputError):
        SkInstance(4, 1.0, -0.1, HALF)
    for beta, t in ((np.nan, 0.25), (np.inf, 0.25), (0.5, np.nan),
                    (0.5, np.inf)):
        with pytest.raises(InvalidInputError, match="finite"):
            SkInstance(4, beta, t, HALF)


def test_moment_normalization_small_n():
    for N in (2, 3):
        rep = moment_normalization(N, 0.5, 0.5, 4000, seed=N)
        assert rep["pass"]


def test_free_energy_thread_determinism():
    inst = SkInstance(4, 0.5, 0.25, HALF)
    spec = CascadeSpec.for_measure(HALF, M=64)
    a = free_energy(inst, spec, 40, seed=11, threads=1)
    b = free_energy(inst, spec, 40, seed=11, threads=4)
    assert a.mean == b.mean and a.se == b.se


def test_free_energy_thread_determinism_at_the_benchmark_size():
    inst = SkInstance(12, 0.5, 0.25, HALF)
    spec = CascadeSpec.for_measure(HALF, M=256)
    a = free_energy(inst, spec, 48, seed=11, threads=1)
    b = free_energy(inst, spec, 48, seed=11, threads=2)
    assert a.mean == b.mean and a.se == b.se


def _replica_value_reference(inst, spec, S, rng):
    """One replica as first formulated: scipy's logsumexp for the cascade
    and the exponent matrix, the field broadcast with np.ones and the
    energy by einsum.  Draws in the same order as ``_replica_value``."""
    N, beta, t = inst.N, inst.beta, inst.t
    q = inst.measure.atoms[:, 0, 0]
    weights = np.array([1.0])
    if spec.K:
        log_u = np.zeros(1)
        for zeta in spec.zetas:
            gaps = rng.exponential(1.0, size=(log_u.size, spec.M))
            log_u = (log_u[:, None] - np.log(np.cumsum(gaps, axis=1)) / zeta).ravel()
        weights = np.exp(log_u - logsumexp(log_u))
    W = np.sqrt(q[0]) * rng.standard_normal(N)[None, :] * np.ones((weights.size, 1))
    for k in range(spec.K):
        z = rng.standard_normal((spec.M ** (k + 1), N))
        W = W + np.sqrt(q[k + 1] - q[k]) * np.repeat(
            z, spec.M ** (spec.K - 1 - k), axis=0)
    G = rng.standard_normal((N, N))
    energy = np.sqrt(beta / N) * np.einsum("si,ij,sj->s", S, G, S)
    A = np.sqrt(2.0 * t) * energy[:, None] + np.sqrt(2.0) * (S @ W.T) \
        + np.log(weights)[None, :]
    return -(logsumexp(A) - N * np.log(2.0)) / N + t * beta + q[-1]


def _three_replicas_match_the_reference(inst, spec):
    S = _sign_matrix(inst.N)
    for r in range(3):
        key = np.random.SeedSequence(7, spawn_key=(r,))
        got = _replica_value(inst, spec, S, np.random.default_rng(key))
        ref = _replica_value_reference(inst, spec, S, np.random.default_rng(key))
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-15)


def _grid_measure(K, q0):
    return DiscreteMeasure(q0 + np.array([0.0, 0.25, 0.6])[:K + 1],
                           np.array([[0.0, 1.0], [0.0, 0.5, 1.0],
                                     [0.0, 0.35, 0.7, 1.0]][K]))


# N = 5 and 13 split the spins into halves of unequal size
REPLICA_GRID = (list(itertools.product((0, 1, 2), (8, 64), (1, 4, 10),
                                       (0.0, 0.3), (0.0, 0.1)))
                + list(itertools.product((0, 1, 2), (8,), (5, 13),
                                         (0.0, 0.3), (0.0, 0.1))))


@pytest.mark.parametrize("K, M, N, t, q0", REPLICA_GRID)
def test_replica_value_matches_the_reference_formulation(K, M, N, t, q0):
    measure = _grid_measure(K, q0)
    _three_replicas_match_the_reference(SkInstance(N, 0.5, t, measure),
                                        CascadeSpec.for_measure(measure, M=M))


def test_replica_value_matches_the_reference_with_far_apart_shifts():
    # at beta = 4, t = 4 the energy term peaks at 55-84 and the field term
    # at 18-21, and the largest exponent sits 9-16 below their sum: the
    # factored sum adds products of numbers far below 1
    measure = DiscreteMeasure(np.array([0.5, 1.0]), np.array([0.0, 0.5, 1.0]))
    _three_replicas_match_the_reference(SkInstance(14, 4.0, 4.0, measure),
                                        CascadeSpec.for_measure(measure, M=64))


def _traced_peak(K, M, N):
    """Peak bytes traced over one replica; numpy reports every array
    buffer to tracemalloc, Python its objects."""
    measure = _grid_measure(K, 0.1)
    inst = SkInstance(N, 0.5, 0.25, measure)
    spec = CascadeSpec.for_measure(measure, M=M)
    S = _sign_matrix(N)
    rng = np.random.default_rng(3)
    tracemalloc.start()
    try:
        _replica_value(inst, spec, S, rng)
        return tracemalloc.get_traced_memory()[1], _replica_bytes(N, spec)
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("K, M", [(0, 256), (1, 256), (2, 64)])
@pytest.mark.parametrize("N", [1, 5, 12])
def test_replica_memory_estimate_bounds_the_traced_peak(K, M, N):
    peak, estimate = _traced_peak(K, M, N)
    assert peak <= estimate


def test_replica_holds_no_dense_exponent_matrix():
    # the dense 2^N x M^K matrix is 8.4 MB here; the factored replica
    # holds about 0.5 MB
    peak, _ = _traced_peak(1, 256, 12)
    assert peak < 8 * 2 ** 12 * 256 / 4


def _no_replica(*args):
    raise AssertionError("a replica ran past the memory guard")


def test_free_energy_refuses_replica_matrices_over_2_gib(monkeypatch):
    # 2^14 states and 400000 leaves hold 9.2e8 bytes per thread, mostly
    # the two 2^7 x 400000 factor blocks: one or two threads fit under the
    # cap, three do not; refused before any replica
    monkeypatch.setattr(spin_glass, "_replica_value", _no_replica)
    inst = SkInstance(14, 0.5, 0.25, HALF)
    spec = CascadeSpec((0.5,), M=400000)
    with pytest.raises(AssertionError, match="ran past the memory guard"):
        free_energy(inst, spec, 10, seed=0, threads=2)
    with pytest.raises(UnsupportedOperationError, match=r"9\.2e\+08 bytes per thread"):
        free_energy(inst, spec, 10, seed=0, threads=3)


def test_free_energy_requires_matching_levels():
    inst = SkInstance(4, 0.5, 0.25, HALF)
    with pytest.raises(InvalidInputError):
        free_energy(inst, CascadeSpec((0.25,)), 10, seed=0)


def test_single_spin_matches_recursion():
    inst = SkInstance(1, 0.5, 0.0, HALF)
    spec = CascadeSpec.for_measure(HALF)
    est = free_energy(inst, spec, 1500, seed=5)
    exact = one_spin_psi(HALF)
    assert abs(est.mean - exact) <= 3.0 * est.se


# ---------------------------------------------------------------------------
# one-spin recursion

def test_one_spin_psi_delta_zero():
    # no external field: psi = 0 - log cosh(0) = 0
    assert one_spin_psi(DiscreteMeasure.delta(0.0)) == pytest.approx(0.0)


def test_one_spin_psi_delta_q_closed_form():
    # K = 0 with field sqrt(q) z: psi = q - E log cosh(sqrt(2 q) z)
    q = 0.2
    z, w = np.polynomial.hermite.hermgauss(60)
    z = np.sqrt(2.0) * z
    w = w / np.sqrt(np.pi)
    expected = q - float(np.log(np.cosh(np.sqrt(2 * q) * z)) @ w)
    m = DiscreteMeasure.delta(q)
    # both sides are exact to rounding: the lattice convolution and
    # 60-node Gauss-Hermite on a function analytic near the real line
    assert one_spin_psi(m) == pytest.approx(expected, abs=1e-12)


def _nested_gauss_hermite_psi(measure, nodes):
    """psi by nested Gauss-Hermite quadrature, with no lattice."""
    q = measure.atoms[:, 0, 0]
    zetas = measure.levels[1:-1]
    x, wts = hermgauss(nodes)
    z, wz = math.sqrt(2.0) * x, wts / math.sqrt(math.pi)

    def Y(k, w):
        if k == q.size - 1:
            return np.logaddexp(math.sqrt(2.0) * w, -math.sqrt(2.0) * w) - math.log(2.0)
        inner = zetas[k] * Y(k + 1, w[..., None] + math.sqrt(q[k + 1] - q[k]) * z)
        m = inner.max(axis=-1)
        return (np.log(np.exp(inner - m[..., None]) @ wz) + m) / zetas[k]

    return float(q[-1] - Y(0, math.sqrt(q[0]) * z) @ wz)


def _quad_psi(q):
    """psi of the K = 0 measure delta_q by adaptive quadrature."""
    a = math.sqrt(2.0 * q)

    def f(z):
        return (np.logaddexp(a * z, -a * z) - math.log(2.0)) \
            * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

    return q - integrate.quad(f, -np.inf, np.inf, epsabs=1e-15, limit=200)[0]


def _one_spin_family(seed=2024, size=60):
    """1-3 atoms; q0 = 0, tiny q0 in [1e-12, 1e-3], or q0 in [0, 0.8];
    some neighbouring atoms only 1e-12 to 1e-2 apart."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(size):
        n, kind = 1 + i % 3, (i // 3) % 4
        q0 = [0.0, 10 ** rng.uniform(-12, -3), rng.uniform(0.0, 0.8),
              rng.uniform(0.0, 0.8)][kind]
        gaps = rng.uniform(0.05, 0.5, n - 1)
        if kind == 3 and n > 1:
            gaps[rng.integers(n - 1)] = 10 ** rng.uniform(-12, -2)
        levels = np.sort(rng.uniform(0.05, 0.95, n - 1))
        out.append(DiscreteMeasure(q0 + np.concatenate(([0.0], np.cumsum(gaps))),
                                   np.concatenate(([0.0], levels, [1.0]))))
    return out


def test_one_spin_psi_matches_nested_quadrature():
    family = _one_spin_family()
    for m in family:
        ref = _nested_gauss_hermite_psi(m, 200 if m.atoms.shape[0] <= 2 else 120)
        assert abs(one_spin_psi(m) - ref) <= 1e-8, (m.atoms.ravel(), m.levels)
    for m in family:
        if m.atoms.shape[0] == 1:
            q = float(m.atoms[0, 0, 0])
            assert abs(one_spin_psi(m) - _quad_psi(q)) <= 1e-8, q
    for q in (0.2, 0.8, 1.5):
        assert abs(one_spin_psi(DiscreteMeasure.delta(q)) - _quad_psi(q)) <= 1e-8, q


def test_one_spin_initial_condition_on_paths():
    # a row of coordinates is the quantile path of a measure: tied
    # coordinates, a zero first one and a dip below a tie (snapped onto
    # the cone) give bit for bit the value of the merged measure
    psi = one_spin_initial_condition()
    X = np.array([[0.0, 0.0, 0.3, 0.3], [0.2, 0.2, 0.2, 0.2],
                  [0.3, 0.3 - 1e-9, 0.3, 0.3]])
    merged = [HALF, DiscreteMeasure.delta(0.2), DiscreteMeasure.delta(0.3)]
    assert psi.eval_coords(Partition.uniform(4), X).tolist() \
        == [one_spin_psi(m) for m in merged]


def _one_spin_value_reference(q, zetas):
    """One row as first formulated: the full lattice w = h (-n..n), one
    level after another, the Taylor rule as three terms and a zero step
    skipped."""
    s = np.sqrt(np.maximum(np.diff(q, prepend=0.0), 0.0))
    h = (8.1 * s.sum() + 1.0) / 300

    def radius(v):
        return 0 if v == 0.0 else 3 if v < 1.25 * h else int(8.1 * v / h)

    def mean(F, v):
        r = radius(v)
        if r == 0:
            return F
        if v < 1.25 * h:
            a = (v / h) ** 2
            d2 = np.convolve(F, np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0,
                             mode="valid")[1:-1]
            d4 = np.convolve(F, np.array([-1.0, 12.0, -39.0, 56.0, -39.0, 12.0,
                                          -1.0]) / 6.0, mode="valid")
            return F[3:-3] + 0.5 * a * d2 + 0.125 * a * a * d4
        g = np.exp(-0.5 * (np.arange(-r, r + 1) * (h / v)) ** 2)
        return np.convolve(F, g / g.sum(), mode="valid")

    n = sum(radius(v) for v in s)
    w = math.sqrt(2.0) * h * np.abs(np.arange(-n, n + 1))
    Y = w + np.log1p(np.exp(-2.0 * w)) - math.log(2.0)
    for k in range(q.size - 1, 0, -1):
        if s[k] > 0.0:
            inner = zetas[k - 1] * Y
            m = inner.max()
            Y = (np.log(mean(np.exp(inner - m), s[k])) + m) / zetas[k - 1]
    return float(q[-1] - mean(Y, s[0])[0])


def _one_spin_batches(n, seed, count=8):
    """Random batches of 1-64 rows of n atoms with shared levels.  Each
    step (the first atom included) is 0 (a tie, or a zero first atom),
    1e-12, in the Taylor range below 1.25 h, or of order 0.1."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        P = int(rng.integers(1, 65))
        kind = rng.integers(0, 4, (P, n))
        steps = np.choose(kind, [np.zeros((P, n)), np.full((P, n), 1e-12),
                                 10 ** rng.uniform(-9.0, -5.5, (P, n)),
                                 rng.uniform(0.01, 0.4, (P, n))])
        yield np.cumsum(steps, axis=1), np.sort(rng.uniform(0.05, 0.95, n - 1))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_one_spin_values_give_each_row_its_value_alone(n):
    for Q, zetas in _one_spin_batches(n, seed=n):
        got = _one_spin_values(Q, zetas)
        assert got.tolist() == [_one_spin_values(Q[p:p + 1], zetas)[0]
                                for p in range(Q.shape[0])]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_one_spin_values_match_the_full_lattice_reference(n):
    taylor = 0
    for Q, zetas in _one_spin_batches(n, seed=100 + n):
        S = np.sqrt(np.diff(Q, axis=1, prepend=0.0))
        h = (8.1 * S.sum(axis=1) + 1.0) / 300
        taylor += np.count_nonzero((S > 1e-6) & (S < 1.25 * h[:, None]))
        for q, got in zip(Q, _one_spin_values(Q, zetas)):
            ref = _one_spin_value_reference(q, zetas)
            assert abs(got - ref) <= 1e-14 * max(1.0, abs(ref)), (q, zetas)
    assert taylor > 0   # the Taylor rule is exercised beyond the 1e-12 steps


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_one_spin_values_skip_a_zero_step_bit_for_bit(n):
    # a row with tied atoms gives bit for bit the value of the row that
    # merges them, whose levels drop the tied atoms' own
    for Q, zetas in _one_spin_batches(n, seed=200 + n, count=4):
        levels = np.concatenate(([0.0], zetas))
        for q, got in zip(Q, _one_spin_values(Q, zetas)):
            keep = np.diff(q, prepend=-1.0) > 0.0
            keep[0] = True
            merged = _one_spin_values(q[keep][None], levels[keep][1:])[0]
            assert got == merged, q


@pytest.mark.parametrize("route", [hopf_lax, hopf_lax_1d],
                         ids=["hopf_lax", "hopf_lax_1d"])
def test_custom_psi_sees_only_cone_rows(route):
    one_spin = one_spin_initial_condition()
    rows = []

    def fn(j, X):
        rows.append(np.array(X))
        return one_spin.fn(j, X)

    psi = InitialCondition.custom(fn, one_spin.lip_l1)
    j = Partition.uniform(3)
    mu = project_pj(measure_to_quantile(HALF), j)
    for t in (0.25, 0.5):
        route(psi, CovarianceModel.sk(0.5), t, mu)
    X = np.concatenate(rows)
    assert X.shape[1] == 3 and X.shape[0] > 100
    assert np.all(X >= 0.0) and np.all(np.diff(X, axis=1) >= 0.0)


# criterion 12's cells: the one-spin psi at beta = 0.5 and t = 0.25, 0.5.  A
# search over the face nu = (0, 0, a, a) of C^4 finds the half cell's sups.
HALF_FACE_SUP = {0.25: 0.039299730438, 0.5: 0.051866354612}


@pytest.mark.parametrize("t", sorted(HALF_FACE_SUP))
def test_hopf_lax_1d_reaches_the_face_sup_of_the_half_cell(t):
    psi = one_spin_initial_condition()
    model = CovarianceModel.sk(0.5)
    j = Partition.uniform(4)
    mu = project_pj(measure_to_quantile(HALF), j)
    f = hopf_lax_1d(psi, model, t, mu)
    assert abs(f - HALF_FACE_SUP[t]) <= 1e-10, f
    assert hopf_lax_1d(psi, model, t, mu) == f


@pytest.mark.parametrize("t", sorted(HALF_FACE_SUP))
@pytest.mark.parametrize("measure", [DiscreteMeasure.delta(0.0), HALF],
                         ids=["delta0", "half"])
def test_hopf_lax_1d_does_not_fall_as_the_partition_refines(measure, t):
    # mu is a step path on |j| = 2.  C^2 lifts into C^4 with psi and the
    # penalty unchanged, so f^4 >= f^2 holds exactly
    psi = one_spin_initial_condition()
    model = CovarianceModel.sk(0.5)
    f = [hopf_lax_1d(psi, model, t,
                     project_pj(measure_to_quantile(measure), j))
         for j in (Partition.uniform(2), Partition.uniform(4))]
    assert f[1] >= f[0] - 1e-10, f


# ---------------------------------------------------------------------------
# bound bookkeeping

def _est(N, mean, se=0.001):
    return FreeEnergyEstimate(mean, se, 100, N, 0.25)


def test_bound_check_pass_and_trend():
    rep = bound_check([_est(6, 0.13), _est(8, 0.12), _est(10, 0.11)], 0.1)
    assert rep["pass"] and rep["trend_nonincreasing"]
    assert rep["c"] == 0.0


def test_bound_check_absorbs_1_over_n_deficit():
    # means below f by about 1/N are admissible with c > 0
    rep = bound_check([_est(5, 0.1 - 0.02), _est(10, 0.1 - 0.01)], 0.1)
    assert rep["pass"]
    assert rep["c"] == pytest.approx(0.1, abs=1e-9)


def test_bound_check_detects_increasing_gap():
    rep = bound_check([_est(6, 0.11), _est(8, 0.2)], 0.1)
    assert not rep["trend_nonincreasing"]


def test_bound_check_fails_a_deficit_the_smallest_n_cannot_explain():
    # negative control: c = 6 is fitted at N = 6, and the estimates 3 and
    # 5 below f at N = 8 and 10 lie far past f - 3 SE - c/N
    rep = bound_check([_est(6, 0.1 - 1.0), _est(8, 0.1 - 3.0),
                       _est(10, 0.1 - 5.0)], 0.1)
    assert not rep["pass"]
    assert rep["c"] == pytest.approx(6.0)
    assert [p["pass"] for p in rep["points"]] == [True, False, False]
