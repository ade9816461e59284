"""Lax-Friedrichs oracle and the penalized comparison functional."""

import numpy as np
import pytest

from conehj import (CovarianceModel, FdGrid, FdSurface, InitialCondition,
                    InvalidInputError, comparison_check, fd_oracle, fd_solve,
                    hopf_lax_pointwise, regularize)
from conehj.nonlinearity import Regularization

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


# ---------------------------------------------------------------------------
# degenerate grids and times

@pytest.mark.parametrize("x_max, dx, match", [
    (1.0, 0.0, "finite and positive"),
    (1.0, -0.01, "finite and positive"),
    (1.0, np.inf, "finite and positive"),
    (1.0, np.nan, "finite and positive"),
    (0.0, 0.01, "finite and positive"),
    (-1.0, 0.01, "finite and positive"),
    (np.inf, 0.01, "finite and positive"),
    (np.nan, 0.01, "finite and positive"),
    (0.005, 0.01, "at least 2 nodes"),   # x_max / dx = 0.5 rounds to 0
    (1e300, 1e-300, "overflows"),
], ids=["dx-0", "dx-negative", "dx-inf", "dx-nan", "x_max-0", "x_max-negative",
        "x_max-inf", "x_max-nan", "one-node", "node-count-overflows"])
def test_degenerate_grids_are_refused(x_max, dx, match):
    with pytest.raises(InvalidInputError, match=match):
        FdGrid.make(MODEL, x_max, dx, 1.0)
    grid = FdGrid(x_max, dx, 1e-3, 1.0)
    with pytest.raises(InvalidInputError, match=match):
        grid.validate(MODEL)
    with pytest.raises(InvalidInputError, match=match):
        fd_solve(lambda x: 0.5 * np.asarray(x), MODEL, grid, 0.1)


@pytest.mark.parametrize("dt", [0.0, -1e-3, np.inf, np.nan])
def test_validate_refuses_a_degenerate_time_step(dt):
    with pytest.raises(InvalidInputError, match="dt must be finite and positive"):
        FdGrid(1.0, 0.01, dt, 1.0).validate(MODEL)


@pytest.mark.parametrize("T", [-1.0, np.inf, np.nan])
def test_fd_solve_refuses_a_negative_or_non_finite_T(T):
    grid = FdGrid.make(MODEL, 1.0, 0.05, 1.0)
    with pytest.raises(InvalidInputError, match="T must be nonnegative and finite"):
        fd_solve(lambda x: 0.5 * np.asarray(x), MODEL, grid, T)


def test_comparison_refuses_surfaces_without_a_later_snapshot():
    # T = 0 leaves the t = 0 row alone, against which the gate cannot fail
    grid = FdGrid.make(MODEL, 1.0, 0.05, 1.0)
    surf = fd_solve(lambda x: 0.5 * np.asarray(x), MODEL, grid, 0.0)
    assert surf.times.tolist() == [0.0]
    with pytest.raises(InvalidInputError, match="one after it"):
        comparison_check(surf, surf, L=1.0, model=MODEL, tol=1e-9)
    times, xs, u = _toy_surfaces()
    late = FdSurface(times[1:], xs, u.values[1:])
    with pytest.raises(InvalidInputError, match="t = 0 snapshot"):
        comparison_check(late, late, L=1.0, model=MODEL, tol=1e-9)


# ---------------------------------------------------------------------------
# the step loop, bit for bit

def _two_call_fd_solve(phi, model, grid, T):
    """The Lax-Friedrichs step with xibar on the interior and again at x = 0."""
    reg = regularize(model)
    u = np.asarray(phi(grid.xs), dtype=float)
    n_steps = int(np.ceil(T / grid.dt))
    dt = T / n_steps
    snap_at = np.unique(np.round(np.linspace(0, n_steps, 33)).astype(int))
    rows = []
    for step in range(n_steps + 1):
        if step in snap_at:
            rows.append(u.copy())
        if step == n_steps:
            break
        left = u[:-1]
        right = np.concatenate((u[2:], [u[-1] + grid.slope_cap * grid.dx]))
        up = np.empty_like(u)
        up[1:] = 0.5 * (right + left) + dt * reg((right - left) / (2.0 * grid.dx))
        up[0] = u[0] + dt * reg((u[1] - u[0]) / grid.dx)
        u = up
    return snap_at * dt, np.asarray(rows)


SOFTPLUS = InitialCondition.softplus([0.4, 0.5], [0.3, 1.2], [0.4, 0.8])


@pytest.mark.parametrize("poly", [{2: 1.0}, {2: 0.5, 3: 0.3}], ids=["sk", "mixed-2-3"])
def test_fd_solve_is_bitwise_the_two_call_step(poly):
    model = CovarianceModel(poly=poly)
    grid = FdGrid.make(model, 1.0, 0.02, SOFTPLUS.lip_l1)
    T = 0.37
    n_steps = int(np.ceil(T / grid.dt))
    # 33 snapshots of a step count that 32 does not divide: rounded times
    assert n_steps > 32 and n_steps % 32 != 0
    surf = fd_solve(SOFTPLUS.phi, model, grid, T)
    times, values = _two_call_fd_solve(SOFTPLUS.phi, model, grid, T)
    assert surf.values.shape == (33, 51)
    np.testing.assert_array_equal(surf.times, times)
    np.testing.assert_array_equal(surf.values, values)


def test_each_step_evaluates_xibar_once_on_every_node(monkeypatch):
    shapes = []

    class Counting(Regularization):
        def __call__(self, r):
            shapes.append(np.shape(r))
            return super().__call__(r)

    monkeypatch.setattr(fd_oracle, "regularize",
                        lambda model: Counting(model, regularize(model).L))
    grid = FdGrid.make(MODEL, 1.0, 0.02, SOFTPLUS.lip_l1)
    surf = fd_solve(SOFTPLUS.phi, MODEL, grid, 0.37)
    assert shapes == [surf.xs.shape] * int(np.ceil(0.37 / grid.dt))
