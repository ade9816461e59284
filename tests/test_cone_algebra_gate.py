"""Negative controls for acceptance criterion 1 (the cone-algebra gate).

The gate runs its cases as stacked batches through the averaging matrix
and the refinement gather of ``conehj.cones``.  Deliberately wrong
operators must make it fail; the true ones must let a small run pass.
"""

from conehj import acceptance
from conehj.acceptance import crit_cone_algebra
from conehj.cones import averaging_matrix, refinement_index

CASES = 96   # two cases per scene


def test_small_run_passes_with_true_operators():
    rep = crit_cone_algebra(seed=1, cases=CASES)
    assert rep["pass"], rep
    assert max(rep["worst"].values()) <= 1e-10


def test_perturbed_cell_weight_fails_the_gate(monkeypatch):
    def averaging(src, dst):
        a = averaging_matrix(src, dst).copy()
        a[0, 0] *= 1.0 + 1e-6   # the first cells of src and dst always overlap
        return a

    monkeypatch.setattr(acceptance, "averaging_matrix", averaging)
    rep = crit_cone_algebra(seed=1, cases=CASES)
    assert not rep["pass"], rep
    assert rep["worst"]["adjoint"] > rep["tol"]
    assert rep["worst"]["left_inverse"] > rep["tol"]


def test_lift_breaking_the_isometry_fails_the_gate(monkeypatch):
    def lift(src, grid):
        idx = refinement_index(src, grid).copy()
        idx[-1] = idx[0]   # the last grid cell repeats the first source cell
        return idx

    monkeypatch.setattr(acceptance, "refinement_index", lift)
    rep = crit_cone_algebra(seed=1, cases=CASES)
    assert not rep["pass"], rep
    assert rep["worst"]["isometry"] > rep["tol"]


def test_row_reversed_projection_fails_the_cone_and_dual_images(monkeypatch):
    # the cell averages come out in reverse order: a nondecreasing path
    # projects to a nonincreasing point and the dual tails lose their sign
    monkeypatch.setattr(acceptance, "averaging_matrix",
                        lambda src, dst: averaging_matrix(src, dst)[::-1])
    rep = crit_cone_algebra(seed=1, cases=CASES)
    assert not rep["pass"], rep
    assert rep["worst"]["cone_image"] == 1.0
    assert rep["worst"]["dual_image"] == 1.0
