"""Refinement studies and regularity audits across nested partitions."""

import numpy as np
import pytest

from conehj import (ConePoint, CovarianceModel, InitialCondition,
                    InvalidInputError, Partition, StepPath, hopf_lax_separable,
                    lift_lj, lift_restrict, lipschitz_audit, project_pj,
                    rate_study, regularize, seeded_test_points, solve_surface)

REG = regularize(CovarianceModel.sk(1.0))


def _softplus():
    return InitialCondition.softplus([0.5, 0.5], [0.3, 1.1], [0.4, 0.7])


def test_lift_restrict_requires_nesting():
    with pytest.raises(InvalidInputError):
        lift_restrict(lambda t, x: 0.0, Partition.uniform(3),
                      Partition.uniform(4))


def test_lift_restrict_evaluates_on_coarse_average():
    jc, jf = Partition.uniform(2), Partition.uniform(4)
    seen = {}

    def f(t, x):
        seen["x"] = x
        return float(x.scalars.sum())

    g = lift_restrict(f, jc, jf)
    x_fine = ConePoint(jf, [1.0, 1.0, 3.0, 3.0])
    val = g(0.5, x_fine)
    assert seen["x"].partition == jc
    np.testing.assert_allclose(seen["x"].scalars, [1.0, 3.0])
    assert val == pytest.approx(4.0)


def test_seeded_test_points_deterministic_and_monotone():
    a = seeded_test_points(5, count=8, fine=32)
    b = seeded_test_points(5, count=8, fine=32)
    assert len(a) == 8
    for (ta, mua), (tb, mub) in zip(a, b):
        assert ta == tb
        np.testing.assert_array_equal(mua.values, mub.values)
        assert np.all(np.diff(mua.values[:, 0, 0]) >= 0)


def test_rate_study_decays_for_separable_data():
    chain = [Partition.uniform(n) for n in (4, 8, 16, 32)]
    pts = seeded_test_points(0, count=8, fine=64)
    study = rate_study(_softplus(), REG, chain, pts)
    assert study.errors.shape == (3,)
    # refinement errors decrease monotonically along the chain
    assert np.all(np.diff(study.errors) < 0)
    assert study.slope <= -0.4


def test_rate_study_exact_for_factoring_data():
    lin = InitialCondition.separable(lambda r: 0.25 * np.asarray(r, float),
                                     lip=0.25)
    chain = [Partition.uniform(n) for n in (4, 8, 16)]
    pts = seeded_test_points(1, count=6, fine=32)
    study = rate_study(lin, REG, chain, pts)
    assert float(study.errors.max()) <= 1e-10
    assert study.constant == 0.0


def test_rate_study_needs_three_levels():
    with pytest.raises(InvalidInputError):
        rate_study(_softplus(), REG,
                   [Partition.uniform(2), Partition.uniform(4)], [])


def test_restriction_error_definition():
    # the study's per-gap error matches a direct two-level computation
    psi = _softplus()
    jc, jf = Partition.uniform(4), Partition.uniform(8)
    t, mu = seeded_test_points(2, count=1, fine=32)[0]
    x_fine = project_pj(mu, jf)
    x_coarse = project_pj(lift_lj(x_fine), jc)
    f_fine = hopf_lax_separable(psi, REG, jf, t, x_fine)
    f_restr = hopf_lax_separable(psi, REG, jc, t, x_coarse)
    direct = abs(f_restr - f_fine) / (t + x_fine.norm())
    study = rate_study(psi, REG,
                       [jc, jf, Partition.uniform(16)], [(t, mu)],
                       fit_levels=2)
    assert study.errors[0] == pytest.approx(direct, rel=1e-12)


def test_lipschitz_audit_passes_on_solved_surface():
    j = Partition.uniform(8)
    psi = _softplus()
    rng = np.random.default_rng(3)
    samples = [ConePoint(j, np.cumsum(rng.uniform(0, 0.3, 8)))
               for _ in range(5)]
    surf = solve_surface(psi, REG, j, [0.0, 0.5, 1.0], samples,
                         method="hopf_lax_separable")
    rep = lipschitz_audit(surf, psi, REG)
    assert rep["pass"]
    assert rep["spatial_l1"] <= rep["spatial_l1_bound"] * 1.01
    assert rep["time"] <= rep["time_bound"] * 1.01


def test_lipschitz_audit_flags_fabricated_surface():
    from conehj import SolutionSurface
    j = Partition.uniform(2)
    psi = _softplus()
    samples = (ConePoint(j, [0.0, 0.0]), ConePoint(j, [0.1, 0.1]))
    # a fake surface with a spatial jump far beyond lip bounds
    vals = np.array([[0.0, 5.0], [0.0, 5.0]])
    surf = SolutionSurface(j, np.array([0.0, 1.0]), samples, vals, "fake")
    rep = lipschitz_audit(surf, psi, REG)
    assert not rep["pass"]
