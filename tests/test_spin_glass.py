"""Cascade sampler, free-energy Monte Carlo, and the one-spin recursion."""

import numpy as np
import pytest

from conehj import (CascadeSpec, CovarianceModel, DiscreteMeasure,
                    InvalidInputError, Partition, SkInstance, StepPath,
                    UnsupportedOperationError, bound_check, free_energy,
                    moment_normalization, one_spin_initial_condition,
                    one_spin_psi, sample_cascade)
from conehj.spin_glass import FreeEnergyEstimate, pd_squared_weight

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
    # spline tabulation limits accuracy to a few 1e-9
    assert one_spin_psi(m) == pytest.approx(expected, abs=1e-7)


def test_one_spin_initial_condition_on_paths():
    psi = one_spin_initial_condition()
    path = StepPath(Partition.uniform(2), [0.0, 0.3])
    assert psi(path) == pytest.approx(one_spin_psi(HALF), abs=1e-12)
    # slightly disordered values are snapped to a monotone profile
    wiggly = StepPath(Partition.uniform(2), [0.3, 0.3 - 1e-9])
    assert psi(wiggly) == pytest.approx(
        one_spin_psi(DiscreteMeasure.delta(0.3)), abs=1e-6)


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
