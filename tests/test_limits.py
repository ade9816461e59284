"""Refinement studies and regularity audits across nested partitions."""

import json

import numpy as np
import pytest

from conehj import (ConePoint, CovarianceModel, InitialCondition,
                    InvalidInputError, Partition, StepPath, acceptance,
                    hopf_lax_separable, lift_lj, limits, lipschitz_audit,
                    project_pj, rate_study, seeded_test_points, solve_surface)
from conehj.cli import main

MODEL = CovarianceModel.sk(1.0)


def _softplus():
    return InitialCondition.softplus([0.5, 0.5], [0.3, 1.1], [0.4, 0.7])


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
    study = rate_study(_softplus(), MODEL, chain, pts)
    assert study.errors.shape == (3,)
    # refinement errors decrease monotonically along the chain
    assert np.all(np.diff(study.errors) < 0)
    assert study.slope <= -0.4


def test_rate_study_exact_for_factoring_data():
    lin = InitialCondition.separable(lambda r: 0.25 * np.asarray(r, float),
                                     lip=0.25)
    chain = [Partition.uniform(n) for n in (4, 8, 16)]
    pts = seeded_test_points(1, count=6, fine=32)
    study = rate_study(lin, MODEL, chain, pts)
    assert float(study.errors.max()) <= 1e-10
    assert study.constant == 0.0


def _nan_solve(psi, model, cases):
    return np.full(len(cases), np.nan)


def test_nan_solutions_fail_the_rate_gate(monkeypatch):
    # NaN errors once read as exact projective consistency (slope -inf)
    monkeypatch.setattr(limits, "_solve", _nan_solve)
    rep = acceptance.crit_rate()
    assert not rep["pass"], rep
    assert np.isnan(rep["slope"])


def _strict_load(path):
    """Parse a JSON file, refusing the bare NaN and Infinity tokens."""
    def refuse(token):
        raise ValueError(f"{path.name} holds the non-JSON token {token}")
    return json.loads(path.read_text(), parse_constant=refuse)


def test_converge_on_nan_solutions_exits_2(tmp_path, monkeypatch):
    monkeypatch.setattr(limits, "_solve", _nan_solve)
    cfg = {"psi": {"kind": "softplus",
                   "profile": {"weights": [0.5], "thresholds": [0.5],
                               "scales": [0.5]}},
           "xi": {"poly": {"2": 1.0}}, "levels": [4, 8, 16], "points": 4}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["converge", "--config", str(path),
                 "--out", str(tmp_path)]) == 2
    study = _strict_load(tmp_path / "converge.meta.json")["study"]
    assert study["slope"] == "nan" and study["errors"] == ["nan", "nan"]
    assert study["pass"] is False


def test_accept_json_from_a_nan_report_is_strict(tmp_path, monkeypatch):
    monkeypatch.setattr(limits, "_solve", _nan_solve)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"criteria": [9]}))
    assert main(["accept", "--config", str(path), "--out", str(tmp_path)]) == 2
    report, = _strict_load(tmp_path / "accept.json")
    assert report["slope"] == "nan" and report["pass"] is False
    assert report["factoring_max_error"] == "nan"


def test_rate_study_needs_three_levels():
    with pytest.raises(InvalidInputError):
        rate_study(_softplus(), MODEL,
                   [Partition.uniform(2), Partition.uniform(4)], [])


def test_restriction_error_definition():
    # the study's per-gap error matches a direct two-level computation
    psi = _softplus()
    jc, jf = Partition.uniform(4), Partition.uniform(8)
    t, mu = seeded_test_points(2, count=1, fine=32)[0]
    x_fine = project_pj(mu, jf)
    x_coarse = project_pj(lift_lj(x_fine), jc)
    f_fine = hopf_lax_separable(psi, MODEL, jf, t, x_fine)
    f_restr = hopf_lax_separable(psi, MODEL, jc, t, x_coarse)
    direct = abs(f_restr - f_fine) / (t + x_fine.norm())
    study = rate_study(psi, MODEL,
                       [jc, jf, Partition.uniform(16)], [(t, mu)])
    assert study.errors[0] == pytest.approx(direct, rel=1e-12)


def test_lipschitz_audit_passes_on_solved_surface():
    j = Partition.uniform(8)
    psi = _softplus()
    rng = np.random.default_rng(3)
    samples = [ConePoint(j, np.cumsum(rng.uniform(0, 0.3, 8)))
               for _ in range(5)]
    surf = solve_surface(psi, MODEL, j, [0.0, 0.5, 1.0], samples,
                         method="hopf_lax_separable")
    rep = lipschitz_audit(surf, psi, MODEL)
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
    surf = SolutionSurface(j, np.array([0.0, 1.0]), samples, vals)
    rep = lipschitz_audit(surf, psi, MODEL)
    assert not rep["pass"]
