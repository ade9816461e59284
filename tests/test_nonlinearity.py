"""Covariance models, regularization, conjugates, and the extended H."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize_scalar

from conehj import (ConePoint, CovarianceModel, FdGrid, FdSurface,
                    InvalidInputError, Partition, UnsupportedOperationError,
                    bold_xi, comparison_check, h_eval, hopf_lax_pointwise,
                    regularize, xi_star_vec)
from conehj import nonlinearity
from conehj.acceptance import _h_bracket
from conehj.nonlinearity import _inv_deriv_vec, xi_star_deriv


# ---------------------------------------------------------------------------
# models

def test_sk_model_values():
    m = CovarianceModel.sk(0.5)
    assert m(0.0) == 0.0
    assert m(2.0) == pytest.approx(2.0)
    assert m.deriv(1.0) == pytest.approx(1.0)
    # an array is evaluated entrywise, as each scalar alone
    rs = np.linspace(-1.0, 3.0, 41)
    np.testing.assert_array_equal(m(rs), [m(r) for r in rs])


def test_model_rejects_bad_poly():
    with pytest.raises(InvalidInputError):
        CovarianceModel(poly={1: 1.0})
    with pytest.raises(InvalidInputError):
        CovarianceModel(poly={2: -1.0})


def test_model_json_round_trip():
    rt = CovarianceModel.from_json({"poly": {"2": 0.5, "4": 0.25}})
    assert rt == CovarianceModel(poly={2: 0.5, 4: 0.25})


# ---------------------------------------------------------------------------
# regularization

def test_regularization_closed_form_sk():
    reg = regularize(CovarianceModel.sk(1.0))
    assert reg.L == pytest.approx(4.0)
    xs = np.linspace(-1, 4, 101)
    for a in xs:
        expected = max(a ** 2, 8.0 * (a - 1.0)) if a <= 2 else 8.0 * (a - 1.0)
        assert reg(a) == pytest.approx(expected, abs=0)
    # the whole array in one call gives the same values
    np.testing.assert_array_equal(reg(xs), [reg(a) for a in xs])


def test_regularization_coincides_near_origin():
    reg = regularize(CovarianceModel.sk(1.0))
    xs = np.linspace(0.0, 1.0, 50)
    np.testing.assert_array_equal(reg(xs), xs ** 2)


@settings(max_examples=80, deadline=None)
@given(st.floats(-3, 5), st.floats(-3, 5))
def test_regularization_lipschitz_and_convex(a, b):
    reg = regularize(CovarianceModel.sk(1.0))
    assert abs(reg(a) - reg(b)) <= reg.slope_cap * abs(a - b) + 1e-12
    mid = reg(0.5 * (a + b))
    assert mid <= 0.5 * (reg(a) + reg(b)) + 1e-12


# ---------------------------------------------------------------------------
# monotone conjugate

def _conj_oracle(model, reg, r, kinks=()):
    """Independent 1-d maximization of rs - xibar(s) over s >= 0.

    Bounded Brent stops about 1e-8 short of a maximizer at a kink of
    xibar or at an end of the search interval, which costs a first-order
    error there; ``kinks`` lists such points to evaluate exactly.
    """
    res = minimize_scalar(lambda s: -(r * s - reg(s)),
                          bounds=(0.0, 50.0), method="bounded",
                          options={"xatol": 1e-12})
    return max([-res.fun] + [r * s - reg(s) for s in kinks])


def test_conjugate_pure_quadratic_closed_form():
    reg = regularize(CovarianceModel.sk(1.0))
    # r^2 / 4 on [0, r0], r0 = 2 s0 ~ 2.34
    for r in (0.0, 0.5, 1.0, 2.0):
        assert xi_star_vec(reg, r) == pytest.approx(r ** 2 / 4.0, abs=1e-12)
    # flat at -xi(0) = 0 for nonpositive slopes
    assert xi_star_vec(reg, -2.0) == 0.0


def test_conjugate_of_regularized_matches_oracle():
    model = CovarianceModel.sk(1.0)
    reg = regularize(model)
    rs = np.linspace(0.0, 7.9, 40)
    for r, v in zip(rs, xi_star_vec(reg, rs)):
        assert v == pytest.approx(_conj_oracle(model, reg, r), abs=1e-7)
    # +inf past the slope cap
    assert xi_star_vec(reg, 8.0 + 1e-9) == np.inf


def test_conjugate_mixed_quartic_matches_oracle():
    model = CovarianceModel(poly={2: 0.5, 4: 0.25})
    reg = regularize(model)
    rs = np.linspace(0.0, reg.slope_cap - 1e-6, 25)
    for r, v in zip(rs, xi_star_vec(reg, rs)):
        assert v == pytest.approx(_conj_oracle(model, reg, r), abs=1e-7)


def test_conjugate_seam_slope_sk():
    # the regularized sk nonlinearity switches to the affine branch at
    # s0 = 4 - 2 sqrt(2); the conjugate kinks at xi'(s0)
    reg = regularize(CovarianceModel.sk(1.0))
    s0 = 4.0 - 2.0 * np.sqrt(2.0)
    assert reg._seam.s0 == pytest.approx(s0, abs=1e-12)
    assert reg._seam.r0 == pytest.approx(2.0 * s0, abs=1e-12)


def test_conjugate_vectorized_matches_scalar():
    reg = regularize(CovarianceModel.sk(1.0))
    rs = np.linspace(-1.0, 7.5, 30)
    vec = xi_star_vec(reg, rs)
    for r, v in zip(rs, vec):
        assert v == pytest.approx(float(xi_star_vec(reg, float(r))), abs=1e-12)


def test_fenchel_young_inequality():
    reg = regularize(CovarianceModel.sk(1.0))
    rng = np.random.default_rng(0)
    for _ in range(200):
        r = rng.uniform(-1, 7.9)
        s = rng.uniform(0, 3)
        assert r * s <= reg(s) + xi_star_vec(reg, r) + 1e-9


def test_regularization_and_its_seam_are_built_once_per_model(monkeypatch):
    roots = []
    true_roots = nonlinearity.Polynomial.roots
    monkeypatch.setattr(nonlinearity.Polynomial, "roots",
                        lambda poly: roots.append(poly) or true_roots(poly))
    model = CovarianceModel(poly={2: 0.5, 3: 0.7})
    reg = regularize(model)
    assert regularize(model) is reg
    surface = FdSurface(np.array([0.0, 0.1]), np.linspace(0.0, 1.0, 3),
                        np.zeros((2, 3)))
    for t in (0.25, 0.5):
        hopf_lax_pointwise(lambda r: 0.5 * r, model, t, np.array([0.1, 0.4]))
        xi_star_vec(regularize(model), np.array([0.5, 1.0]))
        FdGrid.make(model, 1.0, 0.05, slope_cap=1.0).validate(model)
        comparison_check(surface, surface, 0.5, model, tol=1e-9)
    # one root set each for xi - affine and xi'', whoever asked first
    assert len(roots) == 2
    # an equal model object gets its own regularization
    assert regularize(CovarianceModel(poly={2: 0.5, 3: 0.7})) is not reg
    # the coefficients cannot change under the cached regularization
    with pytest.raises(TypeError):
        model.poly[2] = 2.0


KERNEL_POLYS = [{2: 1.0}, {2: 0.5, 3: 0.7}, {3: 1.0}, {2: 0.25, 4: 1.0}]
# case ids are those of the regularized half of the former plain/regularized
# grid, so each case keeps its name
KERNEL_IDS = [f"poly{2 * i + 1}-True" for i in range(len(KERNEL_POLYS))]
ZERO_POLYS = [{}, {2: 0.0}, {3: 0.0}]
ZERO_IDS = [f"True-poly{i}" for i in range(len(ZERO_POLYS))]


def _kernel_reg(poly):
    model = CovarianceModel(poly=poly)
    return model, regularize(model)


def _kernel_slopes(reg):
    cap = reg.slope_cap
    return np.concatenate([np.linspace(-1.0, 1.1 * cap, 301),
                           [0.0, reg._seam.r0, cap, np.nextafter(cap, np.inf)]])


def _seam(model, reg):
    """Where the affine branch overtakes xi, solved independently."""
    gap = lambda s: model(s) - (model(0.0) + reg.slope_cap * (s - 1.0))
    return 1.0 if gap(1.0) <= 0.0 else brentq(gap, 1.0, 2.0, xtol=1e-300)


@pytest.mark.parametrize("poly", KERNEL_POLYS, ids=KERNEL_IDS)
def test_conjugate_kernel_matches_oracle(poly):
    model, reg = _kernel_reg(poly)
    kinks = (0.0, _seam(model, reg))
    rs = _kernel_slopes(reg)
    vals = xi_star_vec(reg, rs)
    for r, v in zip(rs, vals):
        if r > reg.slope_cap:
            assert v == np.inf
        else:
            assert v == pytest.approx(_conj_oracle(model, reg, r, kinks), abs=1e-9)


@pytest.mark.parametrize("poly", KERNEL_POLYS, ids=KERNEL_IDS)
def test_conjugate_kernel_fenchel_young_equality(poly):
    model, reg = _kernel_reg(poly)
    s0, r0 = reg._seam.s0, reg._seam.r0
    for r in np.geomspace(1e-3, 1.0, 40) * r0:
        s = brentq(lambda u: model.deriv(u) - r, 0.0, 10.0,
                   xtol=1e-300, rtol=4 * np.finfo(float).eps)
        assert model.deriv(s) == pytest.approx(r, rel=1e-12)
        assert r * s - model(s) == pytest.approx(xi_star_vec(reg, r), rel=1e-12)
        if len(poly) > 1 or 2 not in poly:
            # the Newton solve itself lands on xi'(s) = r
            k = _inv_deriv_vec(model, np.array([r]), s0)[0]
            assert model.deriv(k) == pytest.approx(r, rel=1e-12)
    # past r0 the maximizer stays at the seam s0 up to the slope cap
    for r in np.linspace(r0, reg.slope_cap, 9):
        assert reg(s0) + xi_star_vec(reg, r) == pytest.approx(r * s0, rel=1e-12)


@pytest.mark.parametrize("poly", KERNEL_POLYS, ids=KERNEL_IDS)
def test_conjugate_kernel_vector_and_scalar_agree_bitwise(poly):
    # each entry of an array call equals the call on that entry alone,
    # given as a one-element array or as a float
    _, reg = _kernel_reg(poly)
    rs = _kernel_slopes(reg)
    alone = np.concatenate([xi_star_vec(reg, rs[i:i + 1]) for i in range(rs.size)])
    scalar = np.array([float(xi_star_vec(reg, float(r))) for r in rs])
    np.testing.assert_array_equal(xi_star_vec(reg, rs), alone)
    np.testing.assert_array_equal(xi_star_vec(reg, rs), scalar)


@pytest.mark.parametrize("betas", [(1.0, 0.5, 0.3, 1.7)], ids=["True"])
def test_sk_closed_form_is_exact_to_an_ulp(betas):
    rng = np.random.default_rng(4)
    for beta in betas:
        _, reg = _kernel_reg({2: beta})
        rs = rng.uniform(0.0, reg._seam.r0, 200)
        for r, v in zip(rs, xi_star_vec(reg, rs)):
            exact = float(Fraction(r) ** 2 / (4 * Fraction(beta)))
            assert abs(v - exact) <= np.spacing(exact)


@pytest.mark.parametrize("poly", ZERO_POLYS, ids=ZERO_IDS)
def test_conjugate_of_zero_model_is_infinite(poly):
    # xi' == 0: rs - xi(s) grows without bound for every r > 0
    _, reg = _kernel_reg(poly)
    vals = xi_star_vec(reg, np.array([-1.0, 0.0, 1e-12, 0.5, 3.0]))
    assert vals.dtype == float
    np.testing.assert_array_equal(vals, [0.0, 0.0, np.inf, np.inf, np.inf])


# the derivative (xibar*)'(r), the maximizer s(r)

DERIV_MODELS = {"sk": {2: 1.0}, "sk-half": {2: 0.5}, "mixed": {2: 1.0, 4: 0.5}}


def _central(reg, r, h):
    return (xi_star_vec(reg, r + h) - xi_star_vec(reg, r - h)) / (2.0 * h)


@pytest.mark.parametrize("name", DERIV_MODELS)
def test_conjugate_derivative_matches_central_differences_on_every_branch(name):
    model, reg = _kernel_reg(DERIV_MODELS[name])
    s0, r0, cap = reg._seam.s0, reg._seam.r0, reg.slope_cap
    h = 1e-6
    branches = {
        # the flat branch, where the sup sits at s = 0
        "nonpositive": (np.linspace(-2.0, -2.0 * h, 9), 0.0),
        # xi'(s) = r: r / (2q) for a pure quadratic, Newton for the mixed xi
        "inner": (np.linspace(0.05, 0.95, 19) * r0, None),
        # the seam chord r s0 - xi(s0), up to the slope cap 2L
        "chord": (r0 + np.linspace(0.05, 0.95, 19) * (cap - r0), s0),
    }
    for branch, (rs, known) in branches.items():
        got = xi_star_deriv(reg, rs)
        np.testing.assert_allclose(got, _central(reg, rs, h), rtol=1e-7,
                                   atol=1e-9, err_msg=branch)
        if known is not None:
            np.testing.assert_array_equal(got, known, err_msg=branch)
    rs = branches["inner"][0]
    if len(DERIV_MODELS[name]) == 1:
        np.testing.assert_allclose(xi_star_deriv(reg, rs),
                                   rs / (2.0 * DERIV_MODELS[name][2]), rtol=1e-15)
    else:
        np.testing.assert_allclose(model.deriv(xi_star_deriv(reg, rs)), rs,
                                   rtol=1e-14)


@pytest.mark.parametrize("poly", KERNEL_POLYS, ids=KERNEL_IDS)
def test_conjugate_derivative_is_the_maximizer(poly):
    # xibar*(r) = r s(r) - xibar(s(r)): s(r) attains the sup, on each branch
    model, reg = _kernel_reg(poly)
    rs = _kernel_slopes(reg)
    s = xi_star_deriv(reg, rs)
    fin = rs <= reg.slope_cap
    np.testing.assert_allclose(rs[fin] * s[fin] - reg(s[fin]),
                               xi_star_vec(reg, rs[fin]), rtol=1e-13, atol=1e-15)
    # past the cap the sup is +inf, approached as s grows without bound
    assert np.all(s[~fin] == np.inf)
    # continuous at the seam slope r0 and nondecreasing, as xibar* is convex
    r0 = reg._seam.r0
    assert xi_star_deriv(reg, r0) == reg._seam.s0
    assert xi_star_deriv(reg, np.nextafter(r0, 0.0)) == pytest.approx(
        reg._seam.s0, rel=1e-12)
    assert np.all(np.diff(s[:301][fin[:301]]) >= 0.0)


@pytest.mark.parametrize("poly", ZERO_POLYS, ids=ZERO_IDS)
def test_conjugate_derivative_of_zero_model(poly):
    _, reg = _kernel_reg(poly)
    np.testing.assert_array_equal(
        xi_star_deriv(reg, np.array([-1.0, 0.0, 1e-12, 3.0])),
        [0.0, 0.0, np.inf, np.inf])


# ---------------------------------------------------------------------------
# bold xi and H

def test_bold_xi_is_weighted_sum():
    j = Partition(np.array([0.25, 1.0]))
    x = ConePoint(j, [1.0, 2.0])
    m = CovarianceModel.sk(1.0)
    assert bold_xi(x, m) == pytest.approx(0.25 * 1.0 + 0.75 * 4.0)


def test_h_on_cone_equals_bold_xi():
    reg = regularize(CovarianceModel.sk(1.0))
    j = Partition.uniform(3)
    x = ConePoint(j, [0.2, 0.5, 1.1])
    assert h_eval(x, reg) == pytest.approx(bold_xi(x, reg))


@pytest.mark.parametrize("model", [CovarianceModel.sk(1.0),
                                   CovarianceModel(poly={2: 0.5, 3: 0.3})],
                         ids=["sk", "cubic"])
def test_h_lies_in_its_weak_duality_bracket(model):
    # lower <= H <= upper, and the bracket closes to rounding, on
    # non-uniform partitions up to |j| = 8 with kappa on both sides of
    # the seam
    reg = regularize(model)
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        j = Partition(np.append(np.sort(rng.uniform(0.05, 0.95, n - 1)), 1.0))
        kappa = ConePoint(j, rng.normal(0.0, 1.5, n))
        h = h_eval(kappa, reg)
        lower, upper = _h_bracket(kappa, reg)
        scale = 1.0 + abs(h)
        assert lower - 1e-12 * scale <= h <= upper + 1e-12 * scale
        assert upper - lower <= 1e-12 * scale


def test_h_off_cone_hand_values():
    # x = max(PAV_w(kappa), 0): [1, 0] pools to [0.5, 0.5], and [-1, 0.5]
    # is already nondecreasing and floors to [0, 0.5]
    reg = regularize(CovarianceModel.sk(1.0))
    j = Partition.uniform(2)
    assert h_eval(ConePoint(j, [1.0, 0.0]), reg) == 0.25
    assert h_eval(ConePoint(j, [-1.0, 0.5]), reg) == 0.125


def test_h_is_below_every_feasible_point_on_non_uniform_partitions():
    reg = regularize(CovarianceModel.sk(1.0))
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        j = Partition(np.append(np.sort(rng.uniform(0.05, 0.95, n - 1)), 1.0))
        x = ConePoint(j, np.sort(rng.exponential(1.0, n)))
        # kappa = x - d with d in the dual cone, so x is feasible for kappa
        tails = np.append(rng.uniform(0.0, 1.0, n), 0.0)
        kappa = x - ConePoint(j, (tails[:-1] - tails[1:]) / j.widths)
        assert h_eval(kappa, reg) <= bold_xi(x, reg) + 1e-12


def test_h_on_a_thin_first_cell():
    # kappa is nondecreasing and positive, so H is its own integrated
    # xibar: 0.085159 * 0.44484187^2 + 0.914841 * 8 (1.30300528 - 1)
    reg = regularize(CovarianceModel.sk(1.0))
    kappa = ConePoint(Partition(np.array([0.085159, 1.0])),
                      [0.44484187, 1.30300528])
    assert h_eval(kappa, reg) == pytest.approx(2.23446, abs=1e-5)


def test_h_monotone_along_dual_directions():
    reg = regularize(CovarianceModel.sk(1.0))
    rng = np.random.default_rng(2)
    j = Partition.uniform(3)
    for _ in range(30):
        kappa = ConePoint(j, rng.normal(0, 1.5, 3))
        tails = np.concatenate((rng.uniform(0, 1, 3), [0.0]))
        d = ConePoint(j, (tails[:-1] - tails[1:]) / j.widths)
        assert h_eval(kappa + d, reg) >= h_eval(kappa, reg) - 1e-6


def test_h_matrix_dimension_unsupported_off_cone():
    reg = regularize(CovarianceModel.sk(1.0))
    j = Partition.uniform(1)
    off = ConePoint(j, -np.eye(2)[None])
    with pytest.raises(UnsupportedOperationError):
        h_eval(off, reg)
