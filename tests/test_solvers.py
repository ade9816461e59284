"""Variational solvers: route agreement, closed forms, and regularity."""

import numpy as np
import pytest

from conehj import (ConePoint, ConjugateModel, CovarianceModel,
                    InitialCondition, InvalidInputError, Partition, StepPath,
                    UnsupportedOperationError, bold_xi, hopf, hopf_lax,
                    hopf_lax_1d, hopf_lax_separable, regularize,
                    solve_surface)
from conehj.solvers import _phi_conjugate_vec, _zoom_argmax

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
    assert hopf_lax(psi, REG, j, 0.0, x) == pytest.approx(v0)
    assert hopf_lax_separable(psi, REG, j, 0.0, x) == pytest.approx(v0)
    assert hopf_lax_1d(psi, ConjugateModel(REG), j, 0.0, x) == pytest.approx(v0)


def test_solution_increases_in_time():
    # xibar* >= -xibar(0) = 0 here, so larger t can only help
    j = Partition.uniform(2)
    psi = _softplus_psi(2)
    x = ConePoint(j, [0.2, 0.6])
    vals = [hopf_lax_separable(psi, REG, j, t, x) for t in (0.0, 0.25, 1.0)]
    assert vals[0] <= vals[1] + 1e-10 <= vals[2] + 2e-10


def test_four_routes_agree_on_separable_data():
    rng = np.random.default_rng(3)
    conj = ConjugateModel(REG)
    for i in range(5):
        n = int(rng.integers(1, 4))
        j = Partition.uniform(n)
        psi = _softplus_psi(100 + i, lip=0.9)
        x = ConePoint(j, np.cumsum(rng.uniform(0, 1, n)))
        t = (0.1, 0.5, 1.0)[i % 3]
        a = hopf_lax(psi, REG, j, t, x)
        b = hopf_lax_separable(psi, REG, j, t, x)
        c = hopf(psi, MODEL, j, t, x)
        d = hopf_lax_1d(psi, conj, j, t, x, rng=rng)
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
            assert hopf_lax(psi, REG, j, t, x) == pytest.approx(closed, abs=1e-6)
            assert hopf(psi, MODEL, j, t, x) == pytest.approx(closed, abs=1e-6)


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
        hopf_lax(psi, REG, j, 0.5, bad)
    with pytest.raises(InvalidInputError):
        hopf_lax_1d(psi, ConjugateModel(REG), j, 0.5, bad)


def test_negative_time_rejected():
    j = Partition.uniform(1)
    psi = _softplus_psi(6)
    x = ConePoint(j, [0.5])
    with pytest.raises(InvalidInputError):
        hopf_lax(psi, REG, j, -0.1, x)
    with pytest.raises(InvalidInputError, match="t must be nonnegative"):
        hopf_lax_1d(psi, ConjugateModel(REG), j, -0.1, x)


def test_separable_route_enforces_the_shared_preconditions():
    j = Partition.uniform(3)
    psi = InitialCondition.quadratic_monotone(0.5, 0.5, 10)
    with pytest.raises(InvalidInputError, match="t must be nonnegative"):
        hopf_lax_separable(psi, REG, j, -0.5, ConePoint(j, [0.2, 0.5, 0.9]))
    with pytest.raises(InvalidInputError, match="x must lie in the cone"):
        hopf_lax_separable(psi, REG, j, 0.5, ConePoint(j, [0.9, 0.5, 0.2]))


# ---------------------------------------------------------------------------
# the shared zoom search

def _counted(f):
    calls = []

    def g(s):
        calls.append(s.shape)
        return f(s)
    return g, calls


def test_zoom_finds_interior_maxima_to_the_ulp():
    c = np.array([0.3, 1.0, np.pi / 2, 2.9])
    f, calls = _counted(lambda s: -(s - c[:, None]) ** 2)
    best = _zoom_argmax(f, c.shape, 4.0, [2049] * 8)
    assert np.all(best <= 0.0) and np.all(best >= -np.spacing(c) ** 2)
    # spacing 4 (4/2048)^(k-1) / 2048 reaches one ulp of c ~ 1 at round 6
    assert len(calls) == 6


def test_zoom_keeps_every_round_while_windows_are_wide():
    c = np.array([0.4, 1.7])
    f, calls = _counted(lambda s: -np.abs(s - c[:, None]))
    _zoom_argmax(f, c.shape, 2.0, [1025] + [257] * 6)
    assert [shape[-1] for shape in calls] == [1025] + [257] * 6


def _reference_zoom(f, shape, top, scans):
    """The zoom loop the three searches ran before sharing one helper."""
    lo = np.zeros(shape)
    hi = np.full(shape, top)
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
    hopf_like = lambda z: xv[:, None] * z - psi.phi(z) + 0.7 * MODEL.eval_vec(z)
    for scans in ([1025] + [257] * 6, [257] * 6):
        np.testing.assert_array_equal(
            _zoom_argmax(hopf_like, xv.shape, psi.lip_l1, scans),
            _reference_zoom(hopf_like, xv.shape, psi.lip_l1, scans))
    # the early stop only skips rounds that re-grid below one ulp
    conj = ConjugateModel(REG)
    pointwise = lambda y: psi.phi(xv[:, None] + y) - conj.eval_vec(y)
    np.testing.assert_allclose(
        _zoom_argmax(pointwise, xv.shape, REG.slope_cap, [2049] * 8),
        _reference_zoom(pointwise, xv.shape, REG.slope_cap, [2049] * 8),
        rtol=4 * np.finfo(float).eps, atol=0.0)


def test_zoom_at_the_boundary_runs_all_rounds():
    # a centre at 0 has an ulp far below any spacing, so no early stop
    f, calls = _counted(lambda s: -s)
    best = _zoom_argmax(f, (3,), 1.0, [2049] * 8)
    np.testing.assert_array_equal(best, 0.0)
    assert len(calls) == 8


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
    zoom = _zoom_argmax(lambda s: z[..., None] * s - psi.phi(s),
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
    surf = solve_surface(psi, REG, j, [0.0, 0.5], samples,
                         method="hopf_lax_separable")
    assert surf.values.shape == (2, 2)
    for si, x in enumerate(samples):
        assert surf.values[0, si] == pytest.approx(psi.eval_point(x))


def test_solve_surface_unknown_method():
    j = Partition.uniform(1)
    psi = _softplus_psi(8)
    with pytest.raises(InvalidInputError):
        solve_surface(psi, REG, j, [0.0], [ConePoint(j, [0.1])],
                      method="bogus")


def test_spatial_lipschitz_bound_observed():
    # |f(t,x) - f(t,y)| <= lip_l1 * |x - y|_l1 along the semigroup
    j = Partition.uniform(4)
    psi = _softplus_psi(9, lip=0.8)
    rng = np.random.default_rng(10)
    for _ in range(10):
        x = ConePoint(j, np.cumsum(rng.uniform(0, 0.5, 4)))
        y = ConePoint(j, np.cumsum(rng.uniform(0, 0.5, 4)))
        fx = hopf_lax_separable(psi, REG, j, 0.7, x)
        fy = hopf_lax_separable(psi, REG, j, 0.7, y)
        assert abs(fx - fy) <= 0.8 * (x - y).norm_lp(1.0) + 1e-8
