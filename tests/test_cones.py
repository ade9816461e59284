"""Cone algebra: partitions, projections, lifts, rearrangement, measures."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conehj import (ConePoint, DiscreteMeasure, InvalidInputError, Partition,
                    StepPath, UnsupportedOperationError, is_in_cone,
                    is_in_dual, lift_lj, measure_to_quantile, project_pj,
                    rearrange_sharp, wasserstein_p)


# ---------------------------------------------------------------------------
# partitions

def test_uniform_partition_geometry():
    j = Partition.uniform(4)
    assert j.size == 4
    np.testing.assert_allclose(j.edges, [0.0, 0.25, 0.5, 0.75, 1.0])
    np.testing.assert_allclose(j.widths, 0.25)
    assert j.is_uniform and j.is_dyadic


def test_dyadic_refinement_chain():
    for k in range(4):
        assert Partition.dyadic(k + 1).refines(Partition.dyadic(k))
        assert not Partition.dyadic(k).refines(Partition.dyadic(k + 1))


def test_partition_union_is_common_refinement():
    a = Partition(np.array([0.3, 1.0]))
    b = Partition(np.array([0.5, 1.0]))
    u = a.union(b)
    np.testing.assert_allclose(u.breaks, [0.3, 0.5, 1.0])
    assert u.refines(a) and u.refines(b)


def _random_partition(n, rng):
    return Partition(np.sort(np.r_[rng.uniform(0.0, 1.0, n - 1), 1.0]))


def _first_batch_dependent_row(reduce, n, layout, rows=300):
    """Least P at which ``reduce`` on the first P rows differs from those
    rows of the full batch, or None; the rows are C-ordered, Fortran-ordered
    or a strided view."""
    rng = np.random.default_rng(n)
    j = _random_partition(n, rng)
    wide = rng.normal(size=(rows, 2 * n))
    X = wide[:, ::2] if layout == "strided" else np.ascontiguousarray(wide[:, :n])
    full = reduce(j, X)
    for P in range(1, rows + 1):
        head = np.asfortranarray(X[:P]) if layout == "F" else X[:P]
        if not np.array_equal(reduce(j, head), full[:P]):
            return P
    return None


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
@pytest.mark.parametrize("n", [1, 3, 8, 16, 64])
def test_integrate_gives_each_row_its_value_in_any_batch(n, layout):
    assert _first_batch_dependent_row(
        lambda j, X: j.integrate(X), n, layout) is None
    # a 1-d input is its one-row batch, and the sum is the weighted one
    rng = np.random.default_rng(n)
    j, x = _random_partition(n, rng), rng.normal(size=n)
    assert j.integrate(x) == j.integrate(x[None])[0]
    assert j.integrate(x) == pytest.approx(
        float(sum(Fraction(w) * Fraction(v) for w, v in zip(j.widths, x))),
        rel=1e-13, abs=1e-15)


@pytest.mark.parametrize("n", [8, 16])
def test_row_check_sees_a_matrix_product_with_the_widths(n):
    # the same check fails for X @ w, whose rows depend on the batch size
    assert _first_batch_dependent_row(
        lambda j, X: X @ j.widths, n, "C") is not None


def test_partition_rejects_bad_breaks():
    with pytest.raises(InvalidInputError):
        Partition(np.array([0.5, 0.25, 1.0]))
    with pytest.raises(InvalidInputError):
        Partition(np.array([0.5]))  # must end at 1
    with pytest.raises(InvalidInputError):
        Partition(np.array([]))


def test_equal_partitions_built_separately_are_equal_and_hash_equal():
    a = Partition.uniform(4)
    b = Partition(np.array([0.25, 0.5, 0.75, 1.0]))
    c = Partition.from_json({"breaks": [0.25, 0.5, 0.75, 1.0]})
    assert a is not b
    assert a == b == c
    assert hash(a) == hash(b) == hash(c)
    assert {a: "found"}[b] == "found"
    other = Partition(np.array([0.25, 0.5, 0.8, 1.0]))
    assert a != other
    assert a != a.breaks


def test_cone_objects_compare_and_hash_by_identity():
    j = Partition.uniform(2)
    objs = [ConePoint(j, [1.0, 2.0]), StepPath(j, [1.0, 2.0]),
            DiscreteMeasure(np.array([0.5, 1.0]), np.array([0.0, 0.5, 1.0]))]
    twins = [ConePoint(j, [1.0, 2.0]), StepPath(j, [1.0, 2.0]),
             DiscreteMeasure(np.array([0.5, 1.0]), np.array([0.0, 0.5, 1.0]))]
    for obj, twin in zip(objs, twins):
        assert (obj == obj) is True
        assert (obj == twin) is False
        assert (obj != twin) is True
        assert len({obj, obj, twin}) == 2
        assert {obj: "found"}[obj] == "found"


def test_partition_json_round_trip():
    for j in (Partition.uniform(3), Partition.dyadic(2),
              Partition(np.array([0.1, 0.7, 1.0]))):
        assert Partition.from_json(j.to_json()) == j


# ---------------------------------------------------------------------------
# cone membership

def test_cone_membership_scalar():
    j = Partition.uniform(3)
    assert is_in_cone(ConePoint(j, [0.1, 0.5, 0.5]))
    assert not is_in_cone(ConePoint(j, [0.5, 0.1, 0.7]))
    assert not is_in_cone(ConePoint(j, [-0.1, 0.2, 0.3]))


def test_cone_membership_matrix():
    j = Partition.uniform(2)
    a = np.array([np.eye(2), 2 * np.eye(2)])
    assert is_in_cone(ConePoint(j, a))
    b = np.array([2 * np.eye(2), np.eye(2)])
    assert not is_in_cone(ConePoint(j, b))


@pytest.mark.parametrize("D", [2, 3])
def test_membership_matches_eigenvalue_reference(D):
    # random PSD steps shifted across the tolerance, so both answers occur
    rng = np.random.default_rng(20 + D)
    j = Partition(np.array([0.2, 0.45, 0.7, 1.0]))
    seen = set()
    for _ in range(400):
        b = rng.normal(size=(4, D, D))
        shift = rng.uniform(-0.3, 0.05) * np.eye(D)
        steps = b @ np.swapaxes(b, 1, 2) * rng.uniform(0.0, 1.0, (4, 1, 1)) + shift
        x = ConePoint(j, np.cumsum(steps, axis=0))
        tol = 1e-9 * (1.0 + np.linalg.norm(x.coords))
        diffs = np.diff(x.coords, axis=0, prepend=np.zeros((1, D, D)))
        in_cone = bool(np.all(np.linalg.eigvalsh(diffs)[:, 0] >= -tol))
        w = j.widths[:, None, None]
        tails = np.cumsum((w * x.coords)[::-1], axis=0)[::-1]
        in_dual = bool(np.all(np.linalg.eigvalsh(tails)[:, 0] >= -tol))
        assert is_in_cone(x) == in_cone
        assert is_in_dual(x) == in_dual
        seen.add(in_cone)
    assert seen == {True, False}


def test_dual_membership_via_tail_sums():
    j = Partition.uniform(2)
    # tails: (x1 + x2)/2 and x2/2; negative first entry can still be dual
    assert is_in_dual(ConePoint(j, [-0.5, 1.0]))
    assert not is_in_dual(ConePoint(j, [1.0, -2.0]))


def test_dual_pairing_nonnegative():
    rng = np.random.default_rng(0)
    j = Partition.uniform(5)
    for _ in range(200):
        x = ConePoint(j, np.cumsum(rng.uniform(0, 1, 5)))
        tails = rng.uniform(0, 1, 6)
        tails[-1] = 0.0
        d = ConePoint(j, (tails[:-1] - tails[1:]) / j.widths)
        assert is_in_dual(d)
        assert x.inner(d) >= -1e-12


# ---------------------------------------------------------------------------
# projection / lift

def test_project_cell_averages_by_hand():
    # path with value 1 on [0, 0.5) and 3 on [0.5, 1), averaged on thirds
    path = StepPath(Partition(np.array([0.5, 1.0])), [1.0, 3.0])
    x = project_pj(path, Partition.uniform(3))
    # cells: [0,1/3): 1; [1/3,2/3): (1*1/6 + 3*1/6)/(1/3) = 2; [2/3,1): 3
    np.testing.assert_allclose(x.scalars, [1.0, 2.0, 3.0])


def _random_cut_partition(rng, n):
    """n cells with full-precision random interior breaks."""
    cuts = np.sort(rng.uniform(0.0, 1.0, n - 1))
    return Partition(np.concatenate((cuts, [1.0])))


def _random_sym_values(rng, n, D):
    a = rng.normal(size=(n, D, D))
    return 0.5 * (a + np.swapaxes(a, 1, 2))


def _exact_cell_average(path, j):
    """Cell averages in rational arithmetic, from pairwise cell overlaps."""
    src = [Fraction(float(t)) for t in path.partition.edges]
    dst = [Fraction(float(t)) for t in j.edges]
    D = path.dim
    out = np.empty((j.size, D, D))
    for k in range(j.size):
        overlaps = [(i, min(dst[k + 1], src[i + 1]) - max(dst[k], src[i]))
                    for i in range(path.partition.size)]
        overlaps = [(i, o) for i, o in overlaps if o > 0]
        for p in range(D):
            for q in range(D):
                total = sum(o * Fraction(float(path.values[i, p, q]))
                            for i, o in overlaps)
                out[k, p, q] = float(total / (dst[k + 1] - dst[k]))
    return out


def _union_grid_reduceat(path, j):
    """The union-grid projection: refine to the union, sum cell blocks."""
    g = path.partition.union(j)
    fine = path.refine_to(g)
    mids = 0.5 * (g.edges[:-1] + g.edges[1:])
    owner = np.searchsorted(j.breaks, mids, side="right")
    starts = np.searchsorted(owner, np.arange(j.size), side="left")
    cellint = g.widths[:, None, None] * fine.values
    return np.add.reduceat(cellint, starts, axis=0) / j.widths[:, None, None]


@pytest.mark.parametrize("D", [1, 2, 3])
def test_project_matches_exact_cell_average_on_non_nested_partitions(D):
    # errors are relative to the largest input value, the scale of every
    # cell average
    rng = np.random.default_rng(10 + D)
    for _ in range(25):
        g = _random_cut_partition(rng, int(rng.integers(2, 17)))
        j = _random_cut_partition(rng, int(rng.integers(2, 17)))
        assert not g.refines(j) and not j.refines(g)
        path = StepPath(g, _random_sym_values(rng, g.size, D))
        got = project_pj(path, j).coords
        scale = np.abs(path.values).max()
        assert np.abs(got - _exact_cell_average(path, j)).max() <= 1e-14 * scale
        assert np.abs(got - _union_grid_reduceat(path, j)).max() <= 1e-14 * scale


def test_lift_then_project_is_identity():
    rng = np.random.default_rng(1)
    j = Partition(np.array([0.2, 0.55, 1.0]))
    x = ConePoint(j, rng.normal(size=3))
    rt = project_pj(lift_lj(x), j)
    np.testing.assert_allclose(rt.scalars, x.scalars, atol=1e-14)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 10_000))
def test_projection_lift_adjointness(m, n, seed):
    rng = np.random.default_rng(seed)
    g = Partition.uniform(m)
    j = Partition.uniform(n)
    iota = StepPath(g, rng.normal(size=m))
    x = ConePoint(j, rng.normal(size=n))
    lhs = project_pj(iota, j).inner(x)
    rhs = iota.inner(lift_lj(x))
    assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(0, 10_000))
def test_lift_is_isometric(n, seed):
    rng = np.random.default_rng(seed)
    x = ConePoint(Partition.uniform(n), rng.normal(size=n))
    assert abs(lift_lj(x).norm() - x.norm()) <= 1e-12 * (1 + x.norm())


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 10_000))
def test_projection_is_a_contraction(m, n, seed):
    rng = np.random.default_rng(seed)
    iota = StepPath(Partition.uniform(m), rng.normal(size=m))
    p = project_pj(iota, Partition.uniform(n))
    assert p.norm() <= iota.norm() * (1 + 1e-12)


def test_projectivity_on_nested_partitions():
    rng = np.random.default_rng(2)
    iota = StepPath(Partition.uniform(12), rng.normal(size=12))
    jc, jf = Partition.dyadic(1), Partition.dyadic(3)
    a = project_pj(lift_lj(project_pj(iota, jf)), jc)
    b = project_pj(iota, jc)
    np.testing.assert_allclose(a.coords, b.coords, atol=1e-13)


def test_projection_preserves_cone_and_dual():
    rng = np.random.default_rng(3)
    g = Partition.uniform(9)
    j = Partition(np.array([0.4, 0.9, 1.0]))
    mono = StepPath(g, np.cumsum(rng.uniform(0, 1, 9)))
    assert is_in_cone(project_pj(mono, j))
    tails = np.concatenate((rng.uniform(0, 1, 9), [0.0]))
    dual = StepPath(g, (tails[:-1] - tails[1:]) / g.widths)
    assert is_in_dual(project_pj(dual, j))


def test_coarsen_is_conditional_expectation():
    path = StepPath(Partition.uniform(4), [1.0, 3.0, 5.0, 7.0])
    c = lift_lj(project_pj(path, Partition.uniform(2)))
    assert c.partition.size == 2
    np.testing.assert_allclose(c.values[:, 0, 0], [2.0, 6.0])


def test_refine_to_requires_nesting():
    path = StepPath(Partition.uniform(3), [1.0, 2.0, 3.0])
    with pytest.raises(InvalidInputError):
        path.refine_to(Partition.uniform(2))


# ---------------------------------------------------------------------------
# rearrangement

def test_rearrangement_sorts_and_dominates():
    x = ConePoint(Partition.uniform(4), [2.0, -1.0, 3.0, 0.0])
    s = rearrange_sharp(x)
    np.testing.assert_allclose(s.scalars, [-1.0, 0.0, 2.0, 3.0])
    assert is_in_dual(s - x)


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 12), st.integers(0, 10_000))
def test_rearrangement_properties(n, seed):
    rng = np.random.default_rng(seed)
    x = ConePoint(Partition.uniform(n), rng.uniform(-2, 3, n))
    s = rearrange_sharp(x)
    assert is_in_dual(s - x, tol=1e-10)
    assert np.allclose(sorted(x.scalars), s.scalars)
    assert np.array_equal(rearrange_sharp(s).scalars, s.scalars)


def test_rearrangement_rejects_nonuniform():
    x = ConePoint(Partition(np.array([0.3, 1.0])), [1.0, 0.0])
    with pytest.raises(UnsupportedOperationError):
        rearrange_sharp(x)


# ---------------------------------------------------------------------------
# measures and the quantile isometry

def test_quantile_embedding_round_trip():
    m = DiscreteMeasure(np.array([0.0, 0.3]), np.array([0.0, 0.5, 1.0]))
    q = measure_to_quantile(m)
    np.testing.assert_allclose(q.values[:, 0, 0], [0.0, 0.3])
    np.testing.assert_array_equal(q.partition.breaks, m.levels[1:])


def test_wasserstein_matches_direct_quantile_integral():
    m1 = DiscreteMeasure.delta(0.0)
    m2 = DiscreteMeasure(np.array([0.0, 1.0]), np.array([0.0, 0.5, 1.0]))
    # quantile gap is 1 on half the interval: W_p = (0.5)^(1/p)
    assert wasserstein_p(m1, m2, 1.0) == pytest.approx(0.5)
    assert wasserstein_p(m1, m2, 2.0) == pytest.approx(np.sqrt(0.5))


def test_measure_validation():
    levels = np.array([0.0, 0.5, 1.0])
    with pytest.raises(InvalidInputError):
        DiscreteMeasure(np.array([0.3, 0.0]), levels)
    with pytest.raises(InvalidInputError):
        DiscreteMeasure(np.array([0.0, 0.3]), np.array([0.0, 0.5, 0.9]))
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidInputError):
            DiscreteMeasure(np.array([0.0, bad]), levels)
    # each step a_k - a_{k-1}, and a_0, may dip below the PSD cone by
    # 1e-9 (1 + |step|_F) and no further; ``rest`` sets the step's norm
    for rest in ([], [0.0], [0.7]):
        D = len(rest) + 1
        tol = 1e-9 * (1.0 + np.linalg.norm(rest))
        base = 0.3 * np.eye(D)
        for dip, ok in ((0.5, True), (2.0, False)):
            step = np.diag(rest + [-dip * tol])
            for atoms in ([base, base + step], [step, step + base]):
                if ok:
                    DiscreteMeasure(np.array(atoms), levels)
                else:
                    with pytest.raises(InvalidInputError):
                        DiscreteMeasure(np.array(atoms), levels)


def test_delta_shapes_and_validation():
    # a scalar is one 1x1 atom, a symmetric matrix one (D, D) atom
    assert DiscreteMeasure.delta(0.3).atoms.shape == (1, 1, 1)
    q = np.array([[0.5, 0.1], [0.1, 0.4]])
    m = DiscreteMeasure.delta(q)
    assert m.atoms.shape == (1, 2, 2)
    np.testing.assert_array_equal(m.atoms[0], q)
    np.testing.assert_array_equal(m.levels, [0.0, 1.0])
    for bad in (np.array([[0.5, 0.2], [0.1, 0.4]]),   # not symmetric
                np.zeros((2, 3)),                      # not square
                np.array([0.3, 0.4])):                 # not a matrix
        with pytest.raises(InvalidInputError):
            DiscreteMeasure.delta(bad)


# ---------------------------------------------------------------------------
# containers

def test_cone_point_arithmetic_and_json():
    j = Partition.uniform(2)
    x = ConePoint(j, [1.0, 2.0])
    y = ConePoint(j, [0.5, 0.5])
    np.testing.assert_allclose((x + y).scalars, [1.5, 2.5])
    np.testing.assert_allclose((x - y).scalars, [0.5, 1.5])
    np.testing.assert_allclose((2.0 * x).scalars, [2.0, 4.0])
    assert x.inner(y) == pytest.approx(0.5 * (0.5 + 1.0))


def test_step_path_inner_across_grids():
    a = StepPath(Partition.uniform(2), [1.0, 3.0])
    b = StepPath(Partition(np.array([0.25, 1.0])), [4.0, 0.0])
    # overlap: [0, 0.25) -> 1*4, elsewhere 0
    assert a.inner(b) == pytest.approx(1.0)


def test_public_constructors_reject_asymmetric_matrices():
    j = Partition.uniform(2)
    bad = np.array([[[1.0, 0.5], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]])
    with pytest.raises(InvalidInputError):
        ConePoint(j, bad)
    with pytest.raises(InvalidInputError):
        StepPath(j, bad)
    with pytest.raises(InvalidInputError):
        StepPath.from_json({"partition": {"uniform": 2}, "values": bad.tolist()})


def test_public_constructors_reject_wrong_cell_counts_and_roles():
    j = Partition.uniform(3)
    with pytest.raises(InvalidInputError):
        ConePoint(j, [1.0, 2.0])
    with pytest.raises(InvalidInputError):
        StepPath(j, np.zeros((4, 2, 2)))


def test_derived_points_are_read_only_and_symmetric():
    rng = np.random.default_rng(4)
    g, j = Partition.uniform(5), Partition(np.array([0.3, 0.7, 1.0]))
    path = StepPath(g, _random_sym_values(rng, 5, 3))
    x = project_pj(path, j)
    for arr in (x.coords, (x + x).coords, (2.0 * x).coords, lift_lj(x).values,
                path.refine_to(g.union(j)).values, (path - path).values):
        assert not arr.flags.writeable
        np.testing.assert_array_equal(arr, np.swapaxes(arr, 1, 2))


def test_mismatched_spaces_raise():
    x = ConePoint(Partition.uniform(2), [1.0, 2.0])
    y = ConePoint(Partition.uniform(3), [1.0, 2.0, 3.0])
    with pytest.raises(InvalidInputError):
        x.inner(y)
    a = StepPath(Partition.uniform(2), [1.0, 2.0])
    b = StepPath(Partition.uniform(2), np.stack([np.eye(2)] * 2))
    for op in (a.inner, a.__add__, a.__sub__):
        with pytest.raises(InvalidInputError):
            op(b)
