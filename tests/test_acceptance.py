"""End-to-end acceptance battery.

Each test drives one numbered checker from ``conehj.acceptance`` at its
full advertised scale and asserts that the report passes within its
stated tolerance and wall-clock budget.  The battery is the release
gate; per-checker details (worst errors, margins, fitted slopes) live
in the report dictionaries asserted below and surface on failure.
"""

from conehj import acceptance, solvers

THREADS = 4


def _check(report, budget_s):
    assert report["pass"], report
    assert report["seconds"] <= budget_s, report


def test_01_cone_algebra_properties():
    # 7 structural identities of the projection/lift pair, 1e4 cases,
    # matrix dimensions 1-3, partitions up to 16 cells, rel err <= 1e-10
    rep = acceptance.crit_cone_algebra(seed=1)
    _check(rep, 10.0)
    assert rep["cases"] == 10_000
    assert max(rep["worst"].values()) <= 1e-10
    # membership violations would have been recorded as unit errors
    assert rep["worst"].get("cone_image", 0.0) == 0.0
    assert rep["worst"].get("dual_image", 0.0) == 0.0


def test_02_rearrangement():
    # monotone rearrangement: dual-tail domination, L^p statistics
    # preservation, idempotence, all within 1e-12 on 1e4 cases
    rep = acceptance.crit_rearrangement(seed=2)
    _check(rep, 5.0)
    assert max(rep["worst"].values()) <= 1e-12


def test_03_regularization_closed_form():
    # exact piecewise match on 1e3 points plus 1e4-pair Lipschitz and
    # convexity scans
    rep = acceptance.crit_regularization(seed=3)
    _check(rep, 5.0)
    assert rep["exact_gap"] == 0.0
    assert rep["coincide_gap"] == 0.0
    assert rep["lipschitz_violation"] <= 1e-12
    assert rep["convexity_violation"] <= 1e-12


def test_04_hamiltonian_properties():
    # monotonicity, lower bound, convexity, coarsening consistency on
    # >= 1e3 optimizer cases, brute-force agreement within 1e-4
    rep = acceptance.crit_h_properties(seed=4)
    _check(rep, 120.0)
    assert rep["optimizer_cases"] >= 1000
    assert rep["worst"]["bruteforce"] <= 1e-4


def test_05_variational_routes_agree():
    # conjugate-dual route vs direct route on 100 instances (1e-4), and
    # the linear closed form to 1e-6
    rep = acceptance.crit_variational(seed=5)
    _check(rep, 300.0)
    assert rep["worst_hopf_gap"] <= 1e-4
    assert rep["worst_linear_gap"] <= 1e-6


def test_05_shifted_conjugate_fails_the_gate(monkeypatch):
    # negative control: a phi* off by 1e-3 moves every hopf value by 1e-3
    exact = solvers._phi_conjugate_vec
    monkeypatch.setattr(solvers, "_phi_conjugate_vec",
                        lambda psi, z: exact(psi, z) + 1e-3)
    rep = acceptance.crit_variational(instances=6)
    assert not rep["pass"], rep
    assert rep["worst_hopf_gap"] > rep["tol"]


def test_06_dimension_reduction():
    rep = acceptance.crit_1d_reduction(seed=6)
    _check(rep, 180.0)
    assert rep["instances"] == 100
    assert rep["worst_gap"] <= 1e-4


def test_07_finite_difference_oracle():
    # |fd - variational| <= 10 dx (1 + T) at dx = 1/400, T = 1, plus a
    # first-order Richardson ratio in [1.5, 3]
    rep = acceptance.crit_pde_oracle(seed=7)
    _check(rep, 120.0)
    assert rep["worst_gap"] <= rep["tol"]
    assert 1.5 <= rep["richardson_ratio"] <= 3.0


def test_08_comparison_principle():
    # penalized max sits at t = 0 for the ordered pair; a drifting
    # negative control is rejected with positive margin
    rep = acceptance.crit_comparison(seed=8)
    _check(rep, 60.0)
    assert rep["t_star"] == 0.0
    assert rep["control_failed"]
    assert rep["control_margin"] > 0.0


def test_09_refinement_rate():
    rep = acceptance.crit_rate(seed=9)
    _check(rep, 600.0)
    assert rep["slope"] <= -0.4
    assert rep["factoring_max_error"] <= 1e-9


def test_10_fenchel_moreau_checks():
    rep = acceptance.crit_fm(seed=10)
    _check(rep, 300.0)
    assert rep["convex_failures"] == 0
    assert rep["nonmonotone_witnessed"] == 10


def test_11_lipschitz_audits():
    rep = acceptance.crit_lipschitz(seed=11)
    _check(rep, 600.0)
    assert len(rep["audits"]) == 3
    for audit in rep["audits"]:
        assert audit["spatial_l1"] <= audit["spatial_l1_bound"] * 1.01


def test_12_free_energy_bound():
    rep = acceptance.crit_spin_glass(seed=12, replicas=1000, threads=THREADS)
    _check(rep, 1800.0)
    assert all(m["pass"] for m in rep["moment"])
    assert rep["one_spin"]["pass"]
    assert rep["pd_identity"]["pass"]
    for key, sub in rep["bounds"].items():
        assert sub["pass"] and sub["trend_nonincreasing"], (key, sub)


def test_13_threaded_determinism():
    rep = acceptance.crit_determinism(seed=13, threads=THREADS)
    _check(rep, 120.0)
    assert rep["hashes"][0] == rep["hashes"][1]
    assert all(code == 0 for code in rep["exit_codes"])
