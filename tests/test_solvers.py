"""Variational solvers: route agreement, closed forms, and regularity."""

import functools

import numpy as np
import pytest

from conehj import (ConePoint, CovarianceModel, InitialCondition,
                    InvalidInputError, Partition, StepPath,
                    UnsupportedOperationError, acceptance, bold_xi, hopf,
                    hopf_lax, hopf_lax_1d, hopf_lax_pointwise,
                    hopf_lax_separable, project_pj, regularize, solve_surface,
                    xi_star_vec)
from conehj.solvers import _ZOOM, _phi_conjugate_vec, _zoom_argmax

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
    # the per-coordinate search box is {0} at t = 0, so no t = 0 branch is needed
    j = Partition.uniform(3)
    psi = _softplus_psi(1)
    x = ConePoint(j, [0.1, 0.3, 0.8])
    assert hopf_lax_separable(psi, MODEL, j, 0.0, x) == psi.eval_point(x)
    np.testing.assert_array_equal(
        hopf_lax_pointwise(psi.phi, MODEL, 0.0, x.scalars), psi.phi(x.scalars))


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
        d = hopf_lax_1d(psi, MODEL, j, t, x, rng=rng)
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
    j = Partition.uniform(2)
    psi = InitialCondition.custom(lambda p: 0.0, lip_l1=1.0, convex=False)
    x = ConePoint(j, [0.1, 0.2])
    with pytest.raises(InvalidInputError):
        hopf(psi, MODEL, j, 0.5, x)


def test_hopf_rejects_custom_kind():
    j = Partition.uniform(2)
    psi = InitialCondition.custom(lambda p: 0.0, lip_l1=1.0, convex=True)
    x = ConePoint(j, [0.1, 0.2])
    with pytest.raises(UnsupportedOperationError):
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


def test_separable_route_enforces_the_shared_preconditions():
    j = Partition.uniform(3)
    psi = InitialCondition.quadratic_monotone(0.5, 0.5, 10)
    with pytest.raises(InvalidInputError, match="t must be nonnegative"):
        hopf_lax_separable(psi, MODEL, j, -0.5, ConePoint(j, [0.2, 0.5, 0.9]))
    with pytest.raises(InvalidInputError, match="x must lie in the cone"):
        hopf_lax_separable(psi, MODEL, j, 0.5, ConePoint(j, [0.9, 0.5, 0.2]))


# ---------------------------------------------------------------------------
# the shared zoom search

def _counted(f):
    calls = []

    def g(s):
        calls.append(s.shape)
        return f(s)
    return g, calls


def test_zoom_finds_interior_maxima_to_the_ulp():
    c = np.array([1.0, np.pi / 2, 2.9])
    f, calls = _counted(lambda s: -(s - c[:, None]) ** 2)
    best = _zoom_argmax(f, c.shape, 4.0)
    assert np.all(best <= 0.0) and np.all(best >= -np.spacing(c) ** 2)
    # spacing 4 * 2^-9 * 32^-k reaches one ulp of c >= 1 at round k = 9,
    # so the last of the eleven rounds is skipped
    assert len(calls) == len(_ZOOM) - 1 == 10
    # below 1 the ulp is smaller: 0.3 needs all eleven rounds, whose last
    # spacing 2^-57 is below its ulp 2^-54
    c = np.array([0.3])
    f, calls = _counted(lambda s: -(s - c[:, None]) ** 2)
    best = _zoom_argmax(f, c.shape, 4.0)
    assert np.all(best <= 0.0) and np.all(best >= -np.spacing(c) ** 2)
    assert len(calls) == len(_ZOOM) == 11


def test_zoom_keeps_every_round_while_windows_are_wide():
    # spacing 2 * 2^-9 * 32^-k first reaches one ulp of 0.4 (2^-54) at the
    # last round, k = 10
    c = np.array([0.4, 1.7])
    f, calls = _counted(lambda s: -np.abs(s - c[:, None]))
    _zoom_argmax(f, c.shape, 2.0)
    assert [shape[-1] for shape in calls] == [513] + [129] * 10


def _reference_zoom(f, shape, top, scans):
    """The zoom loop the three searches ran before sharing one helper."""
    return _zoom_from(f, np.zeros(shape), np.full(shape, top), top, scans)


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
def test_zoom_matches_the_loop_it_replaced(seed):
    psi = _softplus_psi(seed)
    xv = np.sort(np.random.default_rng(seed).uniform(0.0, 2.0, 5))
    hopf_like = lambda z: xv[:, None] * z - psi.phi(z) + 0.7 * MODEL(z)
    pointwise = lambda y: psi.phi(xv[:, None] + y) - xi_star_vec(REG, y)
    # the early stop only skips rounds that re-grid below one ulp
    for f, top in ((hopf_like, psi.lip_l1), (pointwise, REG.slope_cap)):
        np.testing.assert_allclose(
            _zoom_argmax(f, xv.shape, top),
            _reference_zoom(f, xv.shape, top, _ZOOM),
            rtol=4 * np.finfo(float).eps, atol=0.0)


def test_zoom_at_the_boundary_runs_all_rounds():
    # a centre at 0 has an ulp far below any spacing, so no early stop
    f, calls = _counted(lambda s: -s)
    best = _zoom_argmax(f, (3,), 1.0)
    np.testing.assert_array_equal(best, 0.0)
    assert len(calls) == len(_ZOOM) == 11


# ---------------------------------------------------------------------------
# the one schedule against dense references: a uniform scan of the whole
# box, then zoom rounds over two spacings either side of its argmax

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
    # y = 0.5 and y = 1.5625, the second higher by 1.9e-4.  The first sits on
    # a node of every first scan and the second halfway between two nodes
    # of a 65-point one, so scans of 65 points or fewer settle on the lower
    # peak, and the zoom's window around it does not reach the higher one.
    # A 513-point scan (spacing 1/64) loses at most (1/128)^2 / 4 = 1.5e-5
    # at either peak, wherever they fall.
    out["two-peaks"] = InitialCondition.softplus(
        [0.25, 0.53125], [0.0, 1.0309], [1e-3, 1e-3])
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


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_hopf_lax_pointwise_matches_a_2_20_point_scan(name):
    phi = PROFILES[name].phi
    n = 2 ** 20
    # 0.5 k is a multiple of every spacing 8t / 2^20 below, so at each t
    # one lattice of phi serves the scans at all three x
    xs = np.array([0.0, 0.5, 1.0])
    buf = np.empty(n + 1)
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
        got = hopf_lax_pointwise(phi, MODEL, t, xs)
        assert np.all(ref - got <= 1e-15), (t, ref - got)


@pytest.mark.parametrize("name", ["bench-softplus", "c11-huber"])
def test_hopf_matches_a_2_16_point_scan_of_its_outer_objective(name):
    psi = PROFILES[name]
    n = 2 ** 16
    top = psi.lip_l1
    h = top / n
    z = np.arange(n + 1) * h
    # phi* once for every x and t
    conj = _phi_conjugate_vec(psi, z)
    j = Partition.uniform(5)
    xs = np.linspace(0.0, 2.0, 5)
    for t in DENSE_TIMES:
        peak = h * np.argmax(xs[:, None] * z - conj + t * MODEL(z), axis=1)
        # the objective is C^1, so 32-fold rounds down to 2^-20 h suffice
        ref = _zoom_from(
            lambda s: xs[:, None] * s - _phi_conjugate_vec(psi, s)
            + t * MODEL(s),
            np.maximum(peak - 2 * h, 0.0), np.minimum(peak + 2 * h, top), top,
            [129] * 4)
        got = hopf(psi, MODEL, j, t, ConePoint(j, xs))
        assert float(np.sum(j.widths * ref)) - got <= 1e-15, t


# ---------------------------------------------------------------------------
# the monotone conjugate phi*(z) = sup_{0 <= s <= 64} zs - phi(s)

def test_phi_conjugate_of_the_huber_profile_in_all_three_regimes():
    a, b, c = 0.3, 0.5, 2.0
    psi = InitialCondition.quadratic_monotone(a, b, c)
    z = np.linspace(-0.5, 2.5, 3001)
    # maximizer at s = 0, inside (0, c], and at the search cap s = 64
    closed = np.where(z <= a, 0.0,
                      np.where(z <= a + b * c, (z - a) ** 2 / (2 * b),
                               64.0 * z - psi.phi(64.0)))
    got = _phi_conjugate_vec(psi, z)
    for mask in (z <= a, (z > a) & (z <= a + b * c), z > a + b * c):
        assert mask.any()
        np.testing.assert_allclose(got[mask], closed[mask], rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("seed", range(6))
def test_phi_conjugate_matches_the_zoom_it_replaced(seed):
    # slopes below the Lipschitz constant 1 keep the maximizer interior;
    # past it both searches return 64 z - phi(64), whose rounding is at the
    # scale of 64 rather than of the value (the Huber test covers that cap)
    psi = _softplus_psi(seed)
    z = np.linspace(0.0, 0.9, 1025).reshape(5, 205)
    zoom = _reference_zoom(lambda s: z[..., None] * s - psi.phi(s),
                           z.shape, 64.0, [257] * 6)
    got = _phi_conjugate_vec(psi, z)
    assert got.shape == z.shape
    ulp = np.finfo(float).eps * np.maximum(1.0, np.abs(zoom))
    assert np.all(np.abs(got - zoom) <= 4 * ulp)


def test_phi_conjugate_stops_at_float_precision():
    profile = _softplus_psi(0)
    phi, calls = _counted(profile.phi)
    psi = InitialCondition.separable(phi, lip=profile.lip_l1)
    z = np.linspace(0.0, 1.2, 301)
    _phi_conjugate_vec(psi, z)
    # golden sections from width 64 down to 4 ulp of 1 take about 80 steps,
    # one profile evaluation each, over the whole array at once
    assert len(calls) <= 90
    assert all(shape == z.shape for shape in calls)


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
    j = Partition.uniform(2)
    psi = _softplus_psi(12, lip=0.9)
    samples = [ConePoint(j, [0.1, 0.4]), ConePoint(j, [0.3, 0.8])]
    times = [0.0, 0.5]
    surf = solve_surface(psi, MODEL, j, times, samples, method=route.__name__)
    direct = [[route(psi, MODEL, j, t, x) for x in samples] for t in times]
    np.testing.assert_array_equal(surf.values, direct)


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
