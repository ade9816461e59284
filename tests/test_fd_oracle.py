"""Lax-Friedrichs oracle and the penalized comparison functional."""

import numpy as np
import pytest

from conehj import (CovarianceModel, FdGrid, FdSurface, InvalidInputError,
                    comparison_check, fd_solve, hopf_lax_pointwise, regularize)

MODEL = CovarianceModel.sk(1.0)
REG = regularize(MODEL)


def test_deriv_sup_at_convex_endpoints():
    # xibar' in slope: 2r on the quadratic branch, 8 on the affine branch
    assert REG.deriv_sup(0.0, 1.0) == 2.0
    assert REG.deriv_sup(0.0, 5.0) == 8.0
    # the slope ball of the comparison functional: |xi'(-8.7)| beats 2L
    assert REG.deriv_sup(-8.7, 8.7) == 17.4


@pytest.mark.parametrize("poly, lo, hi", [
    ({3: 1.0}, -6.45, -4.99),        # the sup sits at the seam r = -5.338
    ({3: 1.0}, -1.0, 0.5),
    ({2: 0.5, 3: 0.3}, -8.0, 3.0),
    ({2: 0.5, 3: 0.3}, -3.0, -0.5),
    ({2: 1.0}, -8.7, 8.7),
    ({2: 0.25, 4: 0.1}, -4.0, 2.5),
])
def test_deriv_sup_matches_a_fine_gradient(poly, lo, hi):
    # xibar = max(xi, affine) is concave at negative arguments for an odd
    # power, so the sup can sit at an interior seam rather than an endpoint
    model = CovarianceModel(poly=poly)
    r = np.linspace(lo, hi, 200_001)
    reg = regularize(model)
    fine = float(np.abs(np.gradient(reg(r), r)).max())
    sup = reg.deriv_sup(lo, hi)
    # a difference quotient is a mean of xibar', so it cannot pass the sup
    assert fine <= sup * (1.0 + 1e-9)
    assert sup - fine <= 1e-4 * sup, (sup, fine)


def test_grid_cfl_guard():
    grid = FdGrid(x_max=1.0, dx=0.01, dt=0.01, slope_cap=1.0)  # cfl = 2
    with pytest.raises(InvalidInputError):
        grid.validate(MODEL)
    ok = FdGrid.make(MODEL, 1.0, 0.01, 1.0)
    assert ok.validate(MODEL) <= 0.5


def test_linear_data_propagates_exactly():
    # phi(x) = a x solves f(t,x) = a x + t xibar(a) exactly, and the
    # scheme reproduces it to rounding because the average term is exact
    a = 0.7
    # slope cap equal to the data slope makes the ghost extension exact,
    # so the whole grid stays on the closed-form solution
    grid = FdGrid.make(MODEL, 2.0, 0.01, slope_cap=a)
    surf = fd_solve(lambda x: a * np.asarray(x), MODEL, grid, T=0.5)
    for ti, t in enumerate(surf.times):
        expected = a * surf.xs + t * REG(a)
        np.testing.assert_allclose(surf.values[ti], expected, atol=1e-10)


def test_scheme_rejects_decreasing_data():
    grid = FdGrid.make(MODEL, 1.0, 0.01, 1.0)
    with pytest.raises(InvalidInputError):
        fd_solve(lambda x: -np.asarray(x), MODEL, grid, T=0.1)


def test_scheme_rejects_steep_data():
    grid = FdGrid.make(MODEL, 1.0, 0.01, slope_cap=0.5)
    with pytest.raises(InvalidInputError):
        fd_solve(lambda x: np.asarray(x), MODEL, grid, T=0.1)


def test_fd_converges_to_variational_solution():
    def phi(x):
        x = np.asarray(x, dtype=float)
        return 0.3 * x + 0.5 * np.maximum(x - 0.8, 0.0)

    grid = FdGrid.make(MODEL, 4.0, 1.0 / 200, 1.0)
    fd = fd_solve(phi, MODEL, grid, T=1.0)
    xs = fd.xs[fd.xs <= 1.5][::8]
    ref = hopf_lax_pointwise(phi, MODEL, 1.0, xs)
    got = np.interp(xs, fd.xs, fd.values[-1])
    assert np.abs(got - ref).max() <= 10.0 * grid.dx * 2.0


def _toy_surfaces():
    times = np.linspace(0.0, 1.0, 9)
    xs = np.linspace(0.0, 4.0, 41)
    base = 0.5 * xs[None, :] + 0.2 * times[:, None]
    u = FdSurface(times, xs, base)
    return times, xs, u


def test_comparison_passes_for_ordered_pair():
    times, xs, u = _toy_surfaces()
    v = FdSurface(times, xs, u.values + 0.01)  # v >= u everywhere
    rep = comparison_check(u, v, L=1.0, model=MODEL, tol=1e-9)
    assert rep.passed and rep.t_star == 0.0


def test_comparison_negative_control_fails():
    times, xs, u = _toy_surfaces()
    # the drift must outrun the penalty cone M (|x| + V t - R)_+ near
    # t = 0, so it is taken large relative to the cone speed
    drift = FdSurface(times, xs, u.values - 10.0 * times[:, None])
    rep = comparison_check(u, drift, L=1.0, model=MODEL, tol=1e-3)
    assert not rep.passed
    assert rep.margin > 0
    assert rep.t_star > 0


def test_comparison_requires_matching_grids():
    times, xs, u = _toy_surfaces()
    other = FdSurface(times, xs[:-1], u.values[:, :-1])
    with pytest.raises(InvalidInputError):
        comparison_check(u, other, L=1.0, model=MODEL, tol=1e-3)


def test_comparison_report_json():
    times, xs, u = _toy_surfaces()
    v = FdSurface(times, xs, u.values)
    rep = comparison_check(u, v, L=1.0, model=MODEL, tol=1e-9)
    blob = rep.to_json()
    assert blob["pass"] is True
    assert set(blob) >= {"M", "R", "V", "t_star", "x_star", "margin"}
