"""Variational solvers: route agreement, closed forms, and regularity."""

import functools
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conehj import (ConePoint, CovarianceModel, InitialCondition,
                    InvalidInputError, Partition, StepPath,
                    UnsupportedOperationError, acceptance, bold_xi, hopf,
                    hopf_lax, hopf_lax_1d, hopf_lax_pointwise,
                    hopf_lax_separable, measure_to_quantile,
                    one_spin_initial_condition, project_pj, regularize,
                    solve_surface, xi_star_vec)
from conehj import solvers
from conehj.solvers import _S_MAX, _branch_and_bound, _phi_conjugate

MODEL = CovarianceModel.sk(1.0)
REG = regularize(MODEL)


def _softplus_psi(seed, lip=1.0):
    rng = np.random.default_rng(seed)
    m = 2
    a = rng.uniform(0.2, 1.0, m)
    a *= lip / a.sum()
    th = rng.uniform(0.0, 2.0, m)
    tau = rng.uniform(0.3, 1.0, m)
    return InitialCondition.softplus(a, th, tau)


# ---------------------------------------------------------------------------
# initial conditions

def test_linear_psi_is_the_pairing():
    j = Partition.uniform(2)
    h = StepPath(j, [0.5, 1.0])
    psi = InitialCondition.linear(h)
    x = ConePoint(j, [1.0, 2.0])
    assert psi.eval_point(x) == pytest.approx(0.5 * (0.5 + 2.0))
    assert psi.lip_l1 == pytest.approx(1.0)
    assert psi.dual_increasing


def test_separable_psi_integrates_profile():
    j = Partition(np.array([0.25, 1.0]))
    psi = InitialCondition.quadratic_monotone(0.5, 0.5, 10.0)
    x = ConePoint(j, [1.0, 2.0])
    expected = 0.25 * (0.5 + 0.25) + 0.75 * (1.0 + 1.0)
    assert psi.eval_point(x) == pytest.approx(expected)


def test_eval_coords_matches_eval_point():
    j = Partition.uniform(3)
    psi = _softplus_psi(0)
    X = np.array([[0.1, 0.5, 1.0], [0.0, 0.0, 0.0]])
    vals = psi.eval_coords(j, X)
    for row, v in zip(X, vals):
        assert v == pytest.approx(psi.eval_point(ConePoint(j, row)))


# ---------------------------------------------------------------------------
# basic solver behavior

def test_all_routes_return_psi_at_time_zero():
    j = Partition.uniform(2)
    psi = _softplus_psi(1)
    x = ConePoint(j, [0.3, 0.8])
    v0 = psi.eval_point(x)
    assert hopf_lax(psi, MODEL, j, 0.0, x) == pytest.approx(v0)
    assert hopf_lax_separable(psi, MODEL, j, 0.0, x) == pytest.approx(v0)
    assert hopf_lax_1d(psi, MODEL, j, 0.0, x) == pytest.approx(v0)


def test_separable_route_is_exact_at_time_zero():
    # t = 0 entries are phi(x) itself, reduced as psi.eval_point reduces
    # them; at |j| = 3, 5 and 8 a different order of summation moves
    # about a quarter of these points by an ulp
    j = Partition.uniform(3)
    psi = _softplus_psi(1)
    x = ConePoint(j, [0.1, 0.3, 0.8])
    assert hopf_lax_separable(psi, MODEL, j, 0.0, x) == psi.eval_point(x)
    np.testing.assert_array_equal(
        hopf_lax_pointwise(psi.phi, MODEL, 0.0, x.scalars), psi.phi(x.scalars))
    rng = np.random.default_rng(1)
    for n in (3, 5, 8):
        j = Partition.uniform(n)
        for _ in range(20):
            x = ConePoint(j, np.cumsum(rng.uniform(0.0, 1.0, n)))
            assert hopf_lax_separable(psi, MODEL, j, 0.0, x) == psi.eval_point(x)


def test_solution_increases_in_time():
    # xibar* >= -xibar(0) = 0 here, so larger t can only help
    j = Partition.uniform(2)
    psi = _softplus_psi(2)
    x = ConePoint(j, [0.2, 0.6])
    vals = [hopf_lax_separable(psi, MODEL, j, t, x) for t in (0.0, 0.25, 1.0)]
    assert vals[0] <= vals[1] + 1e-10 <= vals[2] + 2e-10


def test_four_routes_agree_on_separable_data():
    rng = np.random.default_rng(3)
    for i in range(5):
        n = int(rng.integers(1, 4))
        j = Partition.uniform(n)
        psi = _softplus_psi(100 + i, lip=0.9)
        x = ConePoint(j, np.cumsum(rng.uniform(0, 1, n)))
        t = (0.1, 0.5, 1.0)[i % 3]
        a = hopf_lax(psi, MODEL, j, t, x)
        b = hopf_lax_separable(psi, MODEL, j, t, x)
        c = hopf(psi, MODEL, j, t, x)
        d = hopf_lax_1d(psi, MODEL, j, t, x)
        assert b == pytest.approx(a, abs=1e-6)
        assert c == pytest.approx(a, abs=1e-6)
        assert d == pytest.approx(a, abs=1e-6)


def test_linear_closed_form():
    # for psi = <h, .> the optimal slope is h itself:
    # f(t, x) = <x, h> + t sum_k w_k xibar(h_k)
    rng = np.random.default_rng(4)
    for n in (1, 2, 3):
        j = Partition.uniform(n)
        # slopes below the regularization seam, where xibar = xi and the
        # regularized and plain routes share the closed form
        h = StepPath(j, np.sort(rng.uniform(0.0, 1.0, n)))
        psi = InitialCondition.linear(h)
        x = ConePoint(j, np.cumsum(rng.uniform(0, 1, n)))
        hj = ConePoint(j, h.values)
        for t in (0.1, 1.0):
            closed = x.inner(hj) + t * bold_xi(hj, REG)
            assert hopf_lax(psi, MODEL, j, t, x) == pytest.approx(closed, abs=1e-6)
            assert hopf(psi, MODEL, j, t, x) == pytest.approx(closed, abs=1e-6)


def test_linear_hopf_dominates_every_feasible_slope():
    # psi = <h, .> with h on a finer partition than j: the sup over slopes
    # z in C^j with h^j - z in (C^j)* is attained at z = h^j
    rng = np.random.default_rng(6)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        j = Partition(np.append(np.sort(rng.uniform(0.05, 0.95, n - 1)), 1.0))
        fine = j.union(Partition(np.append(np.sort(rng.uniform(0.05, 0.95, 3)), 1.0)))
        h = StepPath(fine, np.sort(rng.uniform(0.0, 1.5, fine.size)))
        psi = InitialCondition.linear(h)
        hj = project_pj(h, j).scalars
        x = ConePoint(j, np.cumsum(rng.uniform(0, 1, n)))
        t = float(rng.uniform(0.0, 1.0))
        value = hopf(psi, MODEL, j, t, x)
        w = j.widths

        def tail(v):
            return np.cumsum((w * v)[::-1])[::-1]

        for _ in range(20):
            z = np.sort(rng.uniform(0.0, 1.5, n))
            z *= rng.uniform() * min(1.0, np.min(tail(hj) / tail(z)))
            assert np.all(tail(hj - z) >= -1e-12)
            assert value >= w @ (x.scalars * z + t * MODEL(z)) - 1e-12


def test_hopf_requires_convexity():
    # a custom psi is the one kind that need not be convex
    j = Partition.uniform(2)
    psi = InitialCondition.custom(lambda j, X: np.zeros(len(X)), lip_l1=1.0)
    x = ConePoint(j, [0.1, 0.2])
    with pytest.raises(InvalidInputError, match="convex"):
        hopf(psi, MODEL, j, 0.5, x)


def test_hopf_needs_the_profile_derivative():
    j = Partition.uniform(2)
    psi = InitialCondition.separable(lambda r: 0.5 * np.asarray(r, float), lip=0.5)
    with pytest.raises(InvalidInputError, match="derivative"):
        hopf(psi, MODEL, j, 0.5, ConePoint(j, [0.1, 0.2]))


@pytest.mark.parametrize("psi", [
    InitialCondition.softplus([0.4, 0.5], [0.3, 1.2], [0.4, 0.8]),
    InitialCondition.quadratic_monotone(0.4, 0.3, 1.0)],
    ids=["softplus", "huber"])
def test_profile_derivative_matches_central_differences(psi):
    r = np.linspace(0.0, 3.0, 61) + 0.013  # off the Huber kink at r = 1
    h = 1e-6
    fd = (psi.phi(r + h) - psi.phi(r - h)) / (2 * h)
    np.testing.assert_allclose(psi.dphi(r), fd, rtol=0.0, atol=1e-8)


def test_hopf_rejects_custom_kind():
    # a custom psi carries no conjugate, so hopf rejects it even when the
    # callable happens to be convex (here linear)
    j = Partition.uniform(2)
    psi = InitialCondition.custom(lambda j, X: 0.5 * X.sum(axis=1), 1.0)
    x = ConePoint(j, [0.1, 0.2])
    with pytest.raises(InvalidInputError):
        hopf(psi, MODEL, j, 0.5, x)


def test_solvers_reject_points_outside_cone():
    j = Partition.uniform(2)
    psi = _softplus_psi(5)
    bad = ConePoint(j, [0.5, 0.1])
    with pytest.raises(InvalidInputError):
        hopf_lax(psi, MODEL, j, 0.5, bad)
    with pytest.raises(InvalidInputError):
        hopf_lax_1d(psi, MODEL, j, 0.5, bad)


def test_negative_time_rejected():
    j = Partition.uniform(1)
    psi = _softplus_psi(6)
    x = ConePoint(j, [0.5])
    with pytest.raises(InvalidInputError):
        hopf_lax(psi, MODEL, j, -0.1, x)
    with pytest.raises(InvalidInputError, match="t must be nonnegative"):
        hopf_lax_1d(psi, MODEL, j, -0.1, x)
    with pytest.raises(InvalidInputError, match="t must be nonnegative"):
        hopf_lax_pointwise(psi.phi, MODEL, np.array([0.5, -0.1]), x.scalars)


def test_separable_route_enforces_the_shared_preconditions():
    j = Partition.uniform(3)
    psi = InitialCondition.quadratic_monotone(0.5, 0.5, 10)
    with pytest.raises(InvalidInputError, match="t must be nonnegative"):
        hopf_lax_separable(psi, MODEL, j, -0.5, ConePoint(j, [0.2, 0.5, 0.9]))
    with pytest.raises(InvalidInputError, match="x must lie in the cone"):
        hopf_lax_separable(psi, MODEL, j, 0.5, ConePoint(j, [0.9, 0.5, 0.2]))


# ---------------------------------------------------------------------------
# the branch-and-bound kernel shared by both per-coordinate sups

def _lipschitz_search(f, lo, hi):
    """``_branch_and_bound`` on f(owner, s), 1-Lipschitz, with the
    Piyavskii-Shubert bound (f(a) + f(b) + (b - a)) / 2 and no convex part."""
    def evaluate(owner, s, left, right):
        return np.stack([f(owner, s), np.zeros_like(s)])

    def bound(owner, a, b, left, right):
        return 0.5 * (left[0] + right[0] + (b - a))

    return _branch_and_bound(evaluate, bound, lo, hi)


def test_branch_and_bound_finds_a_kink_to_the_ulp():
    # the bound of an interval that holds the kink is 0, so it is bisected
    # until the best value is within ulp(1) of 0 or it is two ulp wide,
    # with a midpoint within one ulp of c
    c = np.array([0.3, 1.0, np.pi / 2, 2.9])
    best, gap = _lipschitz_search(lambda owner, s: -np.abs(s - c[owner]),
                                  np.zeros(4), np.full(4, 4.0))
    ulp = np.spacing(np.maximum(1.0, c))
    assert np.all(best <= 0.0) and np.all(best >= -ulp)
    assert np.all(gap <= ulp)


def test_branch_and_bound_finds_interior_maxima_to_the_ulp():
    # phi(r) = c r: the maximizer y = 2ct is interior and the sup is
    # cx + c^2 t, as xibar*(r) = r^2 / 4 below its seam slope 2 s0 > 2c
    c, x = 0.5, np.array([0.0, 0.3, 1.0, np.pi / 2])
    for t in (0.3, np.pi / 4, 1.0):
        got = hopf_lax_pointwise(lambda r: c * r, MODEL, t, x)
        exact = c * x + c * c * t
        assert np.all(np.abs(got - exact) <= 2 * np.spacing(np.maximum(1.0, exact)))


def test_branch_and_bound_is_exact_at_the_ends_of_the_box():
    x = np.array([0.0, 0.3, 1.7])
    for t in (0.25, 1.0):
        # flat phi below 5: the objective -t xibar*(y / t) peaks at y = 0
        got = hopf_lax_pointwise(lambda r: np.maximum(r - 5.0, 0.0), MODEL, t, x)
        np.testing.assert_array_equal(got, 0.0)
        # slope 2 beats the conjugate's slope s0 < 2 everywhere, so the
        # objective increases up to the slope cap y = 2Lt
        top = REG.slope_cap * t
        got = hopf_lax_pointwise(lambda r: 2.0 * r, MODEL, t, x)
        np.testing.assert_array_equal(
            got, 2.0 * (x + top) - t * xi_star_vec(REG, top / t))


def test_entries_are_bit_identical_alone_and_in_a_batch():
    # each entry's intervals evolve from its own values only
    phi = PROFILES["bench-softplus"].phi
    t = np.array([0.0, 0.1, 0.5, 1.0])[:, None]
    xs = np.linspace(0.0, 2.0, 7)
    table = hopf_lax_pointwise(phi, MODEL, t, xs)
    assert table.shape == (4, 7)
    np.testing.assert_array_equal(table[0], phi(xs))
    for i, ti in enumerate(t[:, 0]):
        for k, xk in enumerate(xs):
            alone = hopf_lax_pointwise(phi, MODEL, ti, np.array([xk]))
            assert alone[0] == table[i, k], (ti, xk)


def test_branch_and_bound_evaluates_phi_at_most_70_times_per_point():
    profile = PROFILES["bench-softplus"]
    sizes = []

    def phi(r):
        sizes.append(np.size(r))
        return profile.phi(r)

    xs = np.linspace(0.0, 5.0, 200)
    for t in (0.1, 0.5, 1.0):
        sizes.clear()
        hopf_lax_pointwise(phi, MODEL, t, xs)
        # one call for phi(x), then the two box ends and every midpoint
        assert sum(sizes) <= 70 * xs.size, (t, sum(sizes) / xs.size)


FLAT = InitialCondition.quadratic_monotone(0.0, 0.5, 2.0)


@pytest.mark.parametrize("route", ["hopf_lax_pointwise", "hopf"])
def test_a_flat_objective_costs_at_most_max_live_midpoints_a_round(
        route, monkeypatch):
    # phi(r) = r^2 / 4 up to r = 2 at t = 1, x = 0: phi(y) - y^2 / 4 is 0 on
    # [0, 2], and for hopf phi*(z) = z^2 = t xi(z) on [0, 1].  A width-h
    # interval's bound is about h^2 / 16 (h^2 / 2 for hopf) above the best
    # value, so it is dropped only once h < 6e-8 (2e-8), 27 halvings of
    # the boxes [0, 8] and [0, 1]; each round bisects at most _MAX_LIVE
    exact = solvers._branch_and_bound
    seen = {}

    def counted(evaluate, bound, lo, hi):
        def tally(owner, y, left, right):
            seen["points"] = seen.get("points", 0) + y.size
            return evaluate(owner, y, left, right)

        seen["best"], seen["gap"] = exact(tally, bound, lo, hi)
        return seen["best"], seen["gap"]

    monkeypatch.setattr(solvers, "_branch_and_bound", counted)
    if route == "hopf":
        j = Partition.uniform(1)
        hopf(FLAT, MODEL, j, 1.0, ConePoint(j, [0.0]))
    else:
        hopf_lax_pointwise(FLAT.phi, MODEL, 1.0, np.array([0.0]))
    assert seen["points"] <= 2 + 27 * solvers._MAX_LIVE
    # the sup is 0: found to rounding, and within the certified gap
    assert abs(seen["best"][0]) <= np.spacing(1.0)
    assert 0.0 <= seen["gap"][0] and seen["best"][0] + seen["gap"][0] >= 0.0


def test_branch_and_bound_keeps_the_intervals_of_highest_bound():
    # per owner, the _MAX_LIVE live intervals of highest bound, ties to
    # the earlier one, alike in a batch and alone
    k = solvers._MAX_LIVE
    owner = np.repeat([0, 1, 2], [k + 3, k, 2])
    ub = np.arange(owner.size, dtype=float)[::-1] % 5
    live = np.ones(owner.size, bool)
    kept = solvers._highest_bounds(owner, ub, live)
    for o in range(3):
        mine = owner == o
        alone = solvers._highest_bounds(np.zeros(mine.sum(), int), ub[mine],
                                        live[mine])
        np.testing.assert_array_equal(kept[mine], alone)
        assert kept[mine].sum() == min(k, mine.sum())
        assert ub[mine][kept[mine]].min() >= ub[mine][~kept[mine]].max(
            initial=-np.inf)
    # a 1-Lipschitz objective that is 0 everywhere: an interval's bound is
    # half its width, so only the cap keeps the search from holding every
    # interval down to width 2 ulp(1); what it drops shows in the gap
    best, gap = _lipschitz_search(lambda owner, s: np.zeros_like(s),
                                  np.zeros(2), np.array([1.0, 4.0]))
    np.testing.assert_array_equal(best, 0.0)
    assert np.all(gap > 0.0)


def test_branch_and_bound_rejects_a_profile_above_its_chord():
    with pytest.raises(InvalidInputError, match="not convex"):
        hopf_lax_pointwise(lambda r: np.minimum(r, 1.0), MODEL, 1.0,
                           np.array([0.0, 0.5]))


def _zoom_from(f, lo, hi, top, scans):
    """Best value of f in the last of len(scans) uniform scans, the first
    over the windows [lo, hi] and each next one over two spacings either
    side of the argmax, within [0, top]."""
    for scan in scans:
        grid = lo[..., None] + (hi - lo)[..., None] * np.linspace(0.0, 1.0, scan)
        vals = f(grid)
        k = np.argmax(vals, axis=-1)[..., None]
        best = np.take_along_axis(vals, k, axis=-1)[..., 0]
        centers = np.take_along_axis(grid, k, axis=-1)[..., 0]
        span = (hi - lo) / (scan - 1)
        lo = np.maximum(centers - 2 * span, 0.0)
        hi = np.minimum(centers + 2 * span, top)
    return best


@pytest.mark.parametrize("seed", range(4))
def test_branch_and_bound_matches_the_zoom_it_replaced(seed):
    # both sups against the zoom they replaced: a 513-point scan of the box,
    # then ten 129-point rounds over two spacings either side of the argmax.
    # The zoom keeps the largest rounding of thousands of values near the
    # max, and the search stops within one ulp of its bounds, so allow
    # 8 ulp of max(1, |value|) either way
    psi = _softplus_psi(seed)
    xv = np.sort(np.random.default_rng(seed).uniform(0.0, 2.0, 5))
    j = Partition.uniform(5)
    scans = [513] + [129] * 10
    zoom = _zoom_from(lambda y: psi.phi(xv[:, None] + y) - xi_star_vec(REG, y),
                      np.zeros(5), np.full(5, REG.slope_cap), REG.slope_cap,
                      scans)
    got = hopf_lax_pointwise(psi.phi, MODEL, 1.0, xv)
    assert np.all(np.abs(got - zoom) <= 8 * np.spacing(np.maximum(1.0, zoom)))
    zoom = _zoom_from(
        lambda z: xv[:, None] * z - _conjugate(psi, z.ravel()).reshape(z.shape)
        + 0.7 * MODEL(z), np.zeros(5), np.full(5, psi.lip_l1), psi.lip_l1, scans)
    zoom = float(np.sum(j.widths * zoom))
    got = hopf(psi, MODEL, j, 0.7, ConePoint(j, xv))
    assert abs(got - zoom) <= 8 * np.spacing(max(1.0, abs(zoom)))


# ---------------------------------------------------------------------------
# the per-coordinate sups against dense references: a uniform scan of the
# whole box, then zoom rounds over two spacings either side of its argmax

def _profiles():
    """The separable profiles that criteria 7, 9 and 11 draw at their
    default seeds, criterion 11's Huber profile, the benchmark's softplus
    and a near-tie of two peaks."""
    rng = np.random.default_rng(6)
    out = {f"c7-pwl{k}": InitialCondition.separable(
        acceptance._random_pwl_profile(rng), lip=1.0) for k in range(10)}
    out["c7-softplus"] = acceptance._random_softplus(rng, lip_target=0.9)
    out["c9-softplus"] = acceptance._random_softplus(
        np.random.default_rng(8), lip_target=1.0)
    out["c9-linear"] = InitialCondition.separable(
        lambda r: 0.3 * np.asarray(r, float), lip=0.3)
    out["c11-softplus"] = acceptance._random_softplus(
        np.random.default_rng(10), lip_target=1.0)
    out["c11-huber"] = InitialCondition.quadratic_monotone(0.4, 0.3, 1.0)
    out["bench-softplus"] = InitialCondition.softplus(
        [0.4, 0.5], [0.3, 1.2], [0.4, 0.8])
    # at x = 0, t = 1 the objective phi(y) - y^2 / 4 has local maxima at
    # y = 0.5 and y = 1.5625, the second higher by 1.9e-4; a search that
    # settles on the first misses the sup
    out["two-peaks"] = InitialCondition.softplus(
        [0.25, 0.53125], [0.0, 1.0309], [1e-3, 1e-3])
    # the same shape with the second peak, at y = 1.5703125, only 5.0e-6
    # above the first: halfway between two nodes of a 513-point scan of
    # [0, 8], which settles on the lower one
    out["near-tie"] = InitialCondition.softplus(
        [0.25, 0.53515625], [0.0, 1.0351469], [1e-3, 1e-3])
    return out


PROFILES = _profiles()
DENSE_TIMES = (0.1, 0.25, 0.5, 1.0)


def _chunked(phi, r, size=2 ** 14):
    """phi on a long 1-D array, evaluated in fixed-size chunks to bound
    the memory of the profiles' broadcast over a trailing term axis."""
    return np.concatenate([phi(r[i:i + size]) for i in range(0, r.size, size)])


@functools.cache
def _dense_conjugate():
    """xibar* at the 2^20 + 1 slopes 8 i / 2^20 that split [0, 8] evenly."""
    return xi_star_vec(REG, np.arange(2 ** 20 + 1) * (REG.slope_cap / 2 ** 20))


def _dense_shortfall(name):
    """How far hopf_lax_pointwise falls short of a dense scan of the
    objective of profile ``name`` at x = 0, 0.5, 1, one row per time."""
    phi = PROFILES[name].phi
    n = 2 ** 20
    # 0.5 k is a multiple of every spacing 8t / 2^20 below, so at each t
    # one lattice of phi serves the scans at all three x
    xs = np.array([0.0, 0.5, 1.0])
    buf = np.empty(n + 1)
    rows = []
    for t in DENSE_TIMES:
        top = REG.slope_cap * t
        h = top / n
        offsets = np.round(xs / h).astype(int)
        lattice = _chunked(phi, np.arange(offsets[-1] + n + 1) * h)
        pen = t * _dense_conjugate()
        peak = h * np.array([np.argmax(np.subtract(lattice[m:m + n + 1], pen,
                                                   out=buf)) for m in offsets])
        # 256-fold narrower per round, down to 2^-48 h: kinks of phi need
        # the maximizer to the last bit
        ref = _zoom_from(
            lambda y: phi(xs[:, None] + y) - t * xi_star_vec(REG, y / t),
            np.maximum(peak - 2 * h, 0.0), np.minimum(peak + 2 * h, top), top,
            [1025] * 6)
        rows.append(ref - hopf_lax_pointwise(phi, MODEL, t, xs))
    return np.array(rows)


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_hopf_lax_pointwise_matches_a_2_20_point_scan(name):
    shortfall = _dense_shortfall(name)
    assert np.all(shortfall <= 1e-15), shortfall


def test_a_lowered_bound_fails_the_near_tie_case(monkeypatch):
    # negative control: bounds 1e-5 too low drop the higher of the two peaks
    exact = solvers._branch_and_bound
    monkeypatch.setattr(
        solvers, "_branch_and_bound", lambda evaluate, bound, lo, hi: exact(
            evaluate, lambda *args: bound(*args) - 1e-5, lo, hi))
    assert _dense_shortfall("near-tie").max() > 1e-15


@pytest.mark.parametrize("name", ["bench-softplus", "c11-huber"])
def test_hopf_matches_a_2_16_point_scan_of_its_outer_objective(name):
    psi = PROFILES[name]
    n = 2 ** 16
    top = psi.lip_l1
    h = top / n
    z = np.arange(n + 1) * h
    # phi* once for every x and t
    conj = _conjugate(psi, z)
    j = Partition.uniform(5)
    xs = np.linspace(0.0, 2.0, 5)
    for t in DENSE_TIMES:
        peak = h * np.argmax(xs[:, None] * z - conj + t * MODEL(z), axis=1)
        # the objective is C^1, so 32-fold rounds down to 2^-20 h suffice
        ref = _zoom_from(
            lambda s: xs[:, None] * s
            - _conjugate(psi, s.ravel()).reshape(s.shape) + t * MODEL(s),
            np.maximum(peak - 2 * h, 0.0), np.minimum(peak + 2 * h, top), top,
            [129] * 4)
        got = hopf(psi, MODEL, j, t, ConePoint(j, xs))
        assert float(np.sum(j.widths * ref)) - got <= 1e-15, t


# ---------------------------------------------------------------------------
# hopf_lax: the DC ascent

def _gradient_of(monkeypatch, route, psi, j, t, x):
    """psi^j's gradient, as a route passes it to the ascent."""
    seen = {}

    def capture(value, gradient, starts, reg, w, t):
        seen["gradient"] = gradient
        return 0.0

    monkeypatch.setattr(solvers, "_polish", capture)
    route(psi, MODEL, j, t, x)
    return seen["gradient"]


GRADIENT_PSIS = {
    "linear": InitialCondition.linear(
        StepPath(Partition.uniform(3), np.array([0.2, 0.5, 0.9]))),
    "softplus": PROFILES["bench-softplus"],
}
ROUTE_POINTS = ([0.1, 0.4, 1.2], [0.5, 0.9, 1.6], [0.8, 1.7, 2.3])
ROUTE_TIMES = (0.1, 0.5, 1.0)


@pytest.mark.parametrize("route", [hopf_lax], ids=["hopf_lax"])
@pytest.mark.parametrize("name", GRADIENT_PSIS)
def test_route_gradient_matches_central_differences(monkeypatch, route, name):
    # the gradient the ascent linearizes with is psi^j's, not F's
    j = Partition.uniform(3)
    psi = GRADIENT_PSIS[name]
    x = ConePoint(j, np.array([0.1, 0.4, 0.8]))
    rng = np.random.default_rng(3)
    h = 1e-6
    for t in (0.3, 1.0):
        gradient = _gradient_of(monkeypatch, route, psi, j, t, x)
        for y in np.sort(rng.uniform(0.02, 0.98, (20, 3)) * REG.slope_cap * t,
                         axis=1):
            central = [(psi.eval_point(ConePoint(j, x.scalars + y + h * e))
                        - psi.eval_point(ConePoint(j, x.scalars + y - h * e)))
                       / (2 * h) for e in np.eye(3)]
            np.testing.assert_allclose(gradient(y), central, rtol=0.0,
                                       atol=1e-8, err_msg=f"t={t}, y={y}")


def test_custom_psi_keeps_finite_differences(monkeypatch):
    # one eval_coords call of 2n rows per gradient, whose values give
    # central differences of step 1e-6
    calls = []

    def fn(j, X):
        calls.append(X.shape)
        return 0.5 * (X ** 2) @ j.widths

    j = Partition.uniform(3)
    x = ConePoint(j, np.array([0.1, 0.3, 0.6]))
    gradient = _gradient_of(monkeypatch, hopf_lax,
                            InitialCondition.custom(fn, 1.0), j, 0.5, x)
    calls.clear()
    y = np.array([0.05, 0.2, 0.4])
    np.testing.assert_allclose(gradient(y), j.widths * (x.scalars + y),
                               rtol=0.0, atol=1e-9)
    assert calls == [(6, 3)]


@pytest.mark.parametrize("name", GRADIENT_PSIS)
def test_ascent_evaluates_only_points_of_the_box(monkeypatch, name):
    # the step lands on the cone and in [0, 2Lt] with no clip or snap
    penalized = solvers._penalized
    boxes = []

    def recording(psi, reg, j, t, shift):
        value, gradient = penalized(psi, reg, j, t, shift)
        points = []
        boxes.append((reg.slope_cap * t, points))

        def seen(Y):
            points.append(np.array(Y, ndmin=2))
            return value(Y)

        return seen, gradient

    monkeypatch.setattr(solvers, "_penalized", recording)
    j = Partition.uniform(3)
    for x in ROUTE_POINTS:
        for t in ROUTE_TIMES:
            hopf_lax(GRADIENT_PSIS[name], MODEL, j, t, ConePoint(j, np.array(x)))
    assert len(boxes) == 9
    for ub, points in boxes:
        steps = np.concatenate([p for p in points if len(p) == 1])
        assert steps.shape[0] >= 12 and steps.shape[1] == 3
        P = np.concatenate(points)
        assert np.all((P >= 0.0) & (P <= ub)), ub
        assert np.all(np.diff(P, axis=1) >= 0.0)


def _run_steps(monkeypatch):
    """Record each ascent run's step count: the run alone, one start at a time."""
    polish = solvers._polish
    steps = []

    def per_run(value, gradient, starts, *args):
        best = -np.inf
        for s in starts:
            calls = []

            def counted(y):
                calls.append(1)
                return gradient(y)

            best = max(best, polish(value, counted, [s], *args))
            steps.append(len(calls))
        return best

    monkeypatch.setattr(solvers, "_polish", per_run)
    return steps


def test_ascent_runs_stay_under_the_step_ceiling(monkeypatch):
    # measured: at most 20 steps a run on the routes config, 44 in
    # criterion 5 and 38 in criterion 6, far under the cap of 200
    steps = _run_steps(monkeypatch)
    psi = PROFILES["bench-softplus"]
    j = Partition.uniform(3)
    for x in ROUTE_POINTS:
        for t in ROUTE_TIMES:
            assert hopf_lax(psi, MODEL, j, t, ConePoint(j, np.array(x))) \
                == pytest.approx(hopf(psi, MODEL, j, t, ConePoint(j, np.array(x))),
                                 abs=1e-12)
    assert len(steps) == 54 and max(steps) <= 30, steps
    for crit in (acceptance.crit_variational, acceptance.crit_1d_reduction):
        rep = crit()
        assert rep["pass"], rep
    assert max(steps) <= 60, max(steps)


HALF_CELL = """
import json, sys
from conehj import (CovarianceModel, Partition, hopf_lax, measure_to_quantile,
                    one_spin_initial_condition, project_pj)
from conehj.acceptance import _half_measure
psi, model = one_spin_initial_condition(), CovarianceModel.sk(0.5)
out = {}
for n in (4, 8):
    j = Partition.uniform(n)
    mu = project_pj(measure_to_quantile(_half_measure()), j)
    for t in (0.25, 0.5):
        out[f"{n}-{t}"] = hopf_lax(psi, model, j, t, mu).hex()
print(json.dumps(out))
"""


@functools.cache
def _half_cell_values(blas_threads: int) -> dict:
    """hopf_lax on criterion 12's half cell at |j| = 4 and 8, in a fresh process."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path,
               OPENBLAS_NUM_THREADS=str(blas_threads))
    proc = subprocess.run([sys.executable, "-c", HALF_CELL], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return {k: float.fromhex(v) for k, v in
            json.loads(proc.stdout.strip().splitlines()[-1]).items()}


def test_half_cell_does_not_depend_on_the_blas_thread_count():
    assert _half_cell_values(1) == _half_cell_values(2)


def test_half_cell_is_not_below_the_certified_value():
    # f^8 >= f^4, and hopf_lax_1d certifies f^4 to 1e-12
    psi, model = one_spin_initial_condition(), CovarianceModel.sk(0.5)
    j = Partition.uniform(4)
    mu = project_pj(measure_to_quantile(acceptance._half_measure()), j)
    got = _half_cell_values(1)
    for t in (0.25, 0.5):
        certified = hopf_lax_1d(psi, model, j, t, mu)
        assert abs(got[f"4-{t}"] - certified) <= 1e-10, t
        assert got[f"8-{t}"] >= certified - 1e-10, t


def test_a_run_at_the_step_cap_raises(monkeypatch):
    monkeypatch.setattr(solvers, "_ASCENT_MAX_STEPS", 1)
    j = Partition.uniform(3)
    with pytest.raises(InvalidInputError, match="after 1 steps"):
        hopf_lax(PROFILES["bench-softplus"], MODEL, j, 0.5,
                 ConePoint(j, np.array([0.1, 0.4, 1.2])))


# ---------------------------------------------------------------------------
# hopf_lax_1d: the certified search over the Kuhn simplex

def test_custom_fn_sees_each_distinct_row_once():
    calls = []

    def fn(j, X):
        calls.append(np.array(X))
        return X @ j.widths

    psi = InitialCondition.custom(fn, 1.0)
    j = Partition.uniform(2)
    # the third row snaps onto the second, and the last repeats the first
    X = np.array([[0.1, 0.3], [0.2, 0.2], [0.2, 0.1], [0.1, 0.3]])
    np.testing.assert_array_equal(psi.eval_coords(j, X), [0.2, 0.2, 0.2, 0.2])
    assert len(calls) == 1 and calls[0].shape == (2, 2)


def test_hopf_lax_1d_past_the_seam_matches_the_linear_closed_form():
    # a slope h_k past the seam point s0 ~ 1.17 (lip_l1 = 1.5) takes the
    # box out to the slope cap: f = <x, h> + t sum_k w_k xibar(h_k)
    j = Partition.uniform(2)
    h = np.array([0.5, 1.5])
    psi = InitialCondition.linear(StepPath(j, h))
    assert psi.lip_l1 > REG._seam.s0
    x = ConePoint(j, [0.1, 0.4])
    for t in (0.1, 0.5):
        closed = float(j.widths @ (x.scalars * h + t * REG(h)))
        assert abs(hopf_lax_1d(psi, MODEL, j, t, x) - closed) <= 1e-10, t


def test_a_search_stopped_past_the_flat_gap_raises(monkeypatch):
    # with room for one live simplex the search stops after its first
    # split, its bounds far above the best vertex value
    monkeypatch.setattr(solvers, "_SIMPLEX_MAX_LIVE", 1)
    j = Partition.uniform(2)
    with pytest.raises(InvalidInputError, match="cannot be certified"):
        hopf_lax_1d(_softplus_psi(2), MODEL, j, 0.5, ConePoint(j, [0.1, 0.4]))


def test_hopf_lax_1d_refuses_a_concave_psi():
    j = Partition.uniform(2)
    psi = InitialCondition.custom(lambda j, X: -(X @ j.widths - 0.3) ** 2,
                                  lip_l1=2.0)
    with pytest.raises(InvalidInputError, match="convex"):
        hopf_lax_1d(psi, MODEL, j, 0.5, ConePoint(j, [0.1, 0.4]))


def test_hopf_lax_1d_refuses_more_than_five_coordinates():
    psi = _softplus_psi(1)
    for n in (6, 8):
        j = Partition.uniform(n)
        x = ConePoint(j, np.linspace(0.1, 0.6, n))
        for t in (0.0, 0.5):
            with pytest.raises(InvalidInputError, match="hopf_lax for finer"):
                hopf_lax_1d(psi, MODEL, j, t, x)


# ---------------------------------------------------------------------------
# the monotone conjugate phi*(z) = sup_{0 <= s <= 64} zs - phi(s)

def _conjugate(psi, z):
    """phi* by bisection over the whole search range [0, 64]."""
    return _phi_conjugate(psi, z, np.zeros_like(z), np.full_like(z, _S_MAX))[0]


def test_phi_conjugate_of_the_huber_profile_in_all_three_regimes():
    a, b, c = 0.3, 0.5, 2.0
    psi = InitialCondition.quadratic_monotone(a, b, c)
    z = np.linspace(-0.5, 2.5, 3001)
    # maximizer at s = 0, inside (0, c], and at the search cap s = 64
    closed = np.where(z <= a, 0.0,
                      np.where(z <= a + b * c, (z - a) ** 2 / (2 * b),
                               64.0 * z - psi.phi(64.0)))
    got = _conjugate(psi, z)
    for mask in (z <= a, (z > a) & (z <= a + b * c), z > a + b * c):
        assert mask.any()
        np.testing.assert_allclose(got[mask], closed[mask], rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("seed", range(6))
def test_phi_conjugate_matches_the_zoom_it_replaced(seed):
    # slopes below the Lipschitz constant 1 keep the maximizer interior;
    # past it both searches return 64 z - phi(64), whose rounding is at the
    # scale of 64 rather than of the value (the Huber test covers that cap)
    psi = _softplus_psi(seed)
    z = np.linspace(0.0, 0.9, 1025)
    zoom = _zoom_from(lambda s: z[..., None] * s - psi.phi(s), np.zeros_like(z),
                      np.full_like(z, 64.0), 64.0, [257] * 6)
    got = _conjugate(psi, z)
    assert got.shape == z.shape
    ulp = np.finfo(float).eps * np.maximum(1.0, np.abs(zoom))
    assert np.all(np.abs(got - zoom) <= 4 * ulp)


def test_phi_conjugate_stops_at_float_precision():
    profile = _softplus_psi(0)
    sizes = []

    def dphi(r):
        sizes.append(r.size)
        return profile.dphi(r)

    z = np.linspace(0.0, 1.2, 301)
    _phi_conjugate(replace(profile, dphi=dphi), z, np.zeros_like(z),
                   np.full_like(z, _S_MAX))
    # phi' at both ends, then one call per step.  The error bound
    # (hi - lo) min(z - phi'(lo), phi'(hi) - z) is at most
    # phi''_max (hi - lo)^2, and phi'' <= sum_i a_i / (4 tau_i) < 1 here, so
    # bisection meets it within 6 + 28 = 34 halvings of [0, 64].  The
    # false-position steps must do no worse: they close in on the crossing
    # superlinearly, and a step falls back to the midpoint only when the
    # last three did not halve the bracket (19 steps here)
    assert len(sizes) <= 2 + 34
    assert all(size == z.size for size in sizes)


def test_phi_conjugate_calls_for_the_routes_profile():
    # the nine hopf values of a three-point, three-time solve on the
    # benchmark softplus: 1567 calls of phi', where bisection took 4546
    profile = PROFILES["bench-softplus"]
    calls = []

    def dphi(r):
        calls.append(1)
        return profile.dphi(r)

    psi = replace(profile, dphi=dphi)
    j = Partition.uniform(3)
    for x in ([0.1, 0.4, 1.2], [0.5, 0.9, 1.6], [0.8, 1.7, 2.3]):
        for t in (0.1, 0.5, 1.0):
            hopf(psi, MODEL, j, t, ConePoint(j, np.array(x)))
    assert len(calls) <= 2300, len(calls)


# ---------------------------------------------------------------------------
# surfaces

def test_solve_surface_shape_and_t0_row():
    j = Partition.uniform(3)
    psi = _softplus_psi(7)
    samples = [ConePoint(j, [0.0, 0.0, 0.0]), ConePoint(j, [0.2, 0.5, 0.9])]
    surf = solve_surface(psi, MODEL, j, [0.0, 0.5], samples,
                         method="hopf_lax_separable")
    assert surf.values.shape == (2, 2)
    for si, x in enumerate(samples):
        assert surf.values[0, si] == pytest.approx(psi.eval_point(x))


ROUTES = (hopf_lax, hopf_lax_separable, hopf, hopf_lax_1d)


@pytest.mark.parametrize("route", ROUTES, ids=lambda r: r.__name__)
def test_solve_surface_runs_the_named_route(route):
    # three routes take the surface as one batch, and each value must be
    # the one-case call's, bit for bit
    j = Partition.uniform(2)
    psi = _softplus_psi(12, lip=0.9)
    samples = [ConePoint(j, [0.1, 0.4]), ConePoint(j, [0.3, 0.8]),
               ConePoint(j, [0.0, 1.1])]
    times = [0.0, 0.5, 1.0]
    surf = solve_surface(psi, MODEL, j, times, samples, method=route.__name__)
    direct = [[route(psi, MODEL, j, t, x) for x in samples] for t in times]
    np.testing.assert_array_equal(surf.values, direct)


# ---------------------------------------------------------------------------
# batches: one certified search for many cases

BATCH_PSIS = {
    "linear": lambda j: InitialCondition.linear(
        StepPath(j, np.linspace(0.2, 0.9, j.size))),
    "softplus": lambda j: _softplus_psi(13, lip=0.9),
    "one-spin": lambda j: one_spin_initial_condition(),
}


def _mixed_cases(j, seed):
    # t = 0 sits inside the batch, between searched cases
    rng = np.random.default_rng(seed)
    return [(t, ConePoint(j, np.cumsum(rng.uniform(0.0, 0.4, j.size))))
            for t in (0.5, 0.0, 0.1, 1.0, 0.0, 0.25)]


@pytest.mark.parametrize("kind", sorted(BATCH_PSIS))
@pytest.mark.parametrize("n", [2, 3])
def test_hopf_lax_1d_batch_is_bit_identical_to_each_case_alone(kind, n):
    j = Partition.uniform(n)
    psi = BATCH_PSIS[kind](j)
    model = CovarianceModel.sk(0.5) if kind == "one-spin" else MODEL
    cases = _mixed_cases(j, n)
    batch = solvers.hopf_lax_1d_batch(psi, model, j, cases)
    alone = [hopf_lax_1d(psi, model, j, t, mu) for t, mu in cases]
    np.testing.assert_array_equal(batch, alone)
    for (t, mu), v in zip(cases, batch):
        if t == 0.0:
            assert v == psi.eval_point(mu)
    # and in another order, with the cases shared out differently
    np.testing.assert_array_equal(
        solvers.hopf_lax_1d_batch(psi, model, j, cases[::-1]), alone[::-1])


@pytest.mark.parametrize("kind", ["linear", "softplus"])
def test_hopf_lax_1d_batch_sees_each_case_s_own_vertex_values(monkeypatch,
                                                               kind):
    # every vertex a case visits, and psi there, bit for bit as alone.
    # The first round splits one simplex alone and one per case in a
    # batch; at these mu a linear psi's first midpoint, as one row of a
    # matrix product, rounds unlike the rows of a longer one, so psi's
    # cell sum must take each row on its own
    j = Partition.uniform(3)
    psi = BATCH_PSIS[kind](j)
    cases = [(0.5, ConePoint(j, np.cumsum(
        np.random.default_rng(k).uniform(0.0, 0.4, 3)))) for k in (6, 8, 13)]
    exact = solvers._simplex_bounds
    seen = []

    def recorded(new_owner, new, psi_new, *rest):
        seen.append((new_owner, new, psi_new))
        return exact(new_owner, new, psi_new, *rest)

    monkeypatch.setattr(solvers, "_simplex_bounds", recorded)

    def visits(owner):
        rows = [(new[o == owner], p[o == owner]) for o, new, p in seen]
        return np.concatenate([r for r, _ in rows]), \
            np.concatenate([p for _, p in rows])

    solvers.hopf_lax_1d_batch(psi, MODEL, j, cases)
    batch = [visits(k) for k in range(len(cases))]
    for k, (t, mu) in enumerate(cases):
        seen.clear()
        hopf_lax_1d(psi, MODEL, j, t, mu)
        for got, want in zip(batch[k], visits(0)):
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("kind", ["linear", "softplus"])
def test_hopf_batch_is_bit_identical_to_each_case_alone(kind):
    # cases on two partitions share one per-coordinate search
    cases = [(j, t, x) for n in (2, 3)
             for j in [Partition.uniform(n)] for t, x in _mixed_cases(j, n)]
    # a linear psi's h lives on |j| = 3, and project_pj maps it onto each j
    psi = BATCH_PSIS[kind](Partition.uniform(3))
    batch = solvers.hopf_batch(psi, MODEL, cases)
    alone = [hopf(psi, MODEL, j, t, x) for j, t, x in cases]
    np.testing.assert_array_equal(batch, alone)
    np.testing.assert_array_equal(solvers.hopf_batch(psi, MODEL, cases[::-1]),
                                  alone[::-1])
    assert solvers.hopf_batch(psi, MODEL, []).shape == (0,)


# the linear psi of ROADMAP item 2 above the seam: its sup is flat, and at
# 64 live simplices a case stops (within the flat gap), is certified, or
# raises, by its t and mu
SEAM_J = Partition.uniform(3)
SEAM_H = np.array([0.5, 1.4, 1.5])
SEAM_PSI = InitialCondition.linear(StepPath(SEAM_J, SEAM_H))
FLAT_CASE = (0.01, ConePoint(SEAM_J, [0.2, 0.5, 0.9]))
FIRM_CASES = [(1.0, ConePoint(SEAM_J, [0.0, 0.0, 0.0])),
              (0.5, ConePoint(SEAM_J, [1.0, 1.0, 1.0]))]
STUCK_CASE = (0.5, ConePoint(SEAM_J, [0.2, 0.5, 0.9]))


def _seam_closed_form(t, mu):
    return float(SEAM_J.widths @ (mu.scalars * SEAM_H + t * REG(SEAM_H)))


def test_each_owner_stops_or_raises_on_its_own(monkeypatch):
    assert SEAM_PSI.lip_l1 > REG._seam.s0
    certified = [hopf_lax_1d(SEAM_PSI, MODEL, SEAM_J, t, mu)
                 for t, mu in [FLAT_CASE] + FIRM_CASES]
    monkeypatch.setattr(solvers, "_SIMPLEX_MAX_LIVE", 64)
    cases = [FIRM_CASES[0], FLAT_CASE, (0.0, FLAT_CASE[1]), FIRM_CASES[1]]
    batch = solvers.hopf_lax_1d_batch(SEAM_PSI, MODEL, SEAM_J, cases)
    alone = [hopf_lax_1d(SEAM_PSI, MODEL, SEAM_J, t, mu) for t, mu in cases]
    np.testing.assert_array_equal(batch, alone)
    # the flat case stopped: off its full search, within the flat gap
    flat = _seam_closed_form(*FLAT_CASE)
    assert batch[1] != certified[0]
    assert abs(batch[1] - flat) <= solvers._SIMPLEX_FLAT_GAP * max(1.0, abs(flat))
    assert abs(certified[0] - flat) <= 1e-10
    # the firm cases kept their certified values
    assert [batch[0], batch[3]] == certified[1:]
    for (t, mu), v in zip(FIRM_CASES, certified[1:]):
        assert abs(v - _seam_closed_form(t, mu)) <= 1e-10
    # a case that cannot be certified fails the batch with its own error
    with pytest.raises(InvalidInputError) as alone_err:
        hopf_lax_1d(SEAM_PSI, MODEL, SEAM_J, *STUCK_CASE)
    assert "cannot be certified" in str(alone_err.value)
    with pytest.raises(InvalidInputError) as batch_err:
        solvers.hopf_lax_1d_batch(SEAM_PSI, MODEL, SEAM_J,
                                  FIRM_CASES + [FLAT_CASE, STUCK_CASE])
    assert str(batch_err.value) == str(alone_err.value)


def _counting_psis(calls):
    def fn(j, X):
        calls.append(len(X))
        return X @ j.widths

    profile = _softplus_psi(14)

    def phi(r):
        calls.append(np.size(r))
        return profile.phi(r)

    def dphi(r):
        calls.append(np.size(r))
        return profile.dphi(r)

    return (InitialCondition.custom(fn, 1.0),
            replace(profile, phi=phi, dphi=dphi))


def _bad_last_cases(j):
    """Two valid cases, then one that breaks a rule, with the rule's error."""
    good = [(t, ConePoint(j, np.linspace(0.1, 0.3, j.size)))
            for t in (0.0, 0.5)]
    other = Partition(np.linspace(0.0, 1.0, j.size + 1)[1:] ** 2)
    decreasing = ConePoint(j, np.linspace(0.3, 0.1, j.size))
    return {
        "off the cone": (good + [(0.5, decreasing)], "lie in the cone"),
        "negative t": (good + [(-0.1, good[0][1])], "nonnegative"),
        "another partition": (
            good + [(0.5, ConePoint(other, good[0][1].scalars))],
            "partition j"),
    }


@pytest.mark.parametrize("bad", ["off the cone", "negative t",
                                 "another partition"])
def test_hopf_lax_1d_batch_checks_every_case_before_evaluating_psi(bad):
    calls = []
    psi, _ = _counting_psis(calls)
    j = Partition.uniform(2)
    cases, error = _bad_last_cases(j)[bad]
    with pytest.raises(InvalidInputError, match=error):
        solvers.hopf_lax_1d_batch(psi, MODEL, j, cases)
    assert calls == []


def test_hopf_lax_1d_batch_checks_the_size_before_evaluating_psi():
    calls = []
    psi, _ = _counting_psis(calls)
    j = Partition.uniform(6)
    cases = [(0.0, ConePoint(j, np.linspace(0.1, 0.6, 6)))]
    with pytest.raises(InvalidInputError, match="hopf_lax for finer"):
        solvers.hopf_lax_1d_batch(psi, MODEL, j, cases)
    assert calls == []


@pytest.mark.parametrize("bad", ["off the cone", "negative t"])
def test_hopf_batch_checks_every_case_before_evaluating_psi(bad):
    calls = []
    _, psi = _counting_psis(calls)
    j = Partition.uniform(2)
    cases, error = _bad_last_cases(j)[bad]
    with pytest.raises(InvalidInputError, match=error):
        solvers.hopf_batch(psi, MODEL, [(j, t, x) for t, x in cases])
    assert calls == []


@pytest.mark.parametrize("method, kernel", [
    ("hopf", "_branch_and_bound"), ("hopf_lax_1d", "_kuhn_branch_and_bound"),
    ("hopf_lax_separable", "_branch_and_bound")])
def test_a_surface_is_one_search(monkeypatch, method, kernel):
    j = Partition.uniform(3)
    psi = PROFILES["bench-softplus"]
    samples = [ConePoint(j, np.array(x)) for x in
               ([0.1, 0.4, 1.2], [0.5, 0.9, 1.6], [0.8, 1.7, 2.3])]
    exact = getattr(solvers, kernel)
    calls = []

    def counted(*args):
        calls.append(1)
        return exact(*args)

    monkeypatch.setattr(solvers, kernel, counted)
    solve_surface(psi, MODEL, j, [0.1, 0.5, 1.0], samples, method=method)
    assert len(calls) == 1


@pytest.mark.parametrize("route", (hopf_lax, hopf, hopf_lax_1d),
                         ids=lambda r: r.__name__)
def test_routes_reject_a_psi_that_is_not_dual_increasing(route):
    j = Partition.uniform(2)
    psi = InitialCondition.linear(StepPath(j, np.array([1.0, 0.2])))
    assert not psi.dual_increasing
    for t in (0.0, 0.5):
        with pytest.raises(InvalidInputError, match="dual-increasing"):
            route(psi, MODEL, j, t, ConePoint(j, [0.1, 0.4]))


@pytest.mark.parametrize("route", ROUTES, ids=lambda r: r.__name__)
def test_routes_reject_matrix_models(route):
    j = Partition.uniform(2)
    psi = _softplus_psi(11)
    with pytest.raises(UnsupportedOperationError, match="D = 1"):
        route(psi, MODEL, j, 0.5,
              ConePoint(j, np.stack([0.3 * np.eye(2), 0.8 * np.eye(2)])))


@pytest.mark.parametrize("wrong", [REG], ids=["regularization"])
@pytest.mark.parametrize("route", ROUTES, ids=lambda r: r.__name__)
def test_routes_take_only_the_covariance_model(route, wrong):
    # each route derives its own regularization or conjugate from xi
    j = Partition.uniform(2)
    psi = _softplus_psi(11)
    x = ConePoint(j, [0.3, 0.8])
    for t in (0.0, 0.5):
        with pytest.raises(InvalidInputError, match="CovarianceModel"):
            route(psi, wrong, j, t, x)
        with pytest.raises(InvalidInputError, match="CovarianceModel"):
            solve_surface(psi, wrong, j, [t], [x], method=route.__name__)
    with pytest.raises(InvalidInputError, match="CovarianceModel"):
        hopf_lax_pointwise(psi.phi, wrong, 0.5, x.scalars)


def test_solve_surface_unknown_method():
    j = Partition.uniform(1)
    psi = _softplus_psi(8)
    with pytest.raises(InvalidInputError):
        solve_surface(psi, MODEL, j, [0.0], [ConePoint(j, [0.1])],
                      method="bogus")


def test_spatial_lipschitz_bound_observed():
    # |f(t,x) - f(t,y)| <= lip_l1 * |x - y|_l1 along the semigroup
    j = Partition.uniform(4)
    psi = _softplus_psi(9, lip=0.8)
    rng = np.random.default_rng(10)
    for _ in range(10):
        x = ConePoint(j, np.cumsum(rng.uniform(0, 0.5, 4)))
        y = ConePoint(j, np.cumsum(rng.uniform(0, 0.5, 4)))
        fx = hopf_lax_separable(psi, MODEL, j, 0.7, x)
        fy = hopf_lax_separable(psi, MODEL, j, 0.7, y)
        assert abs(fx - fy) <= 0.8 * (x - y).norm_lp(1.0) + 1e-8
