"""Grid functions, monotone conjugation, and the biconjugation harness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conehj import (GridFunction, InvalidInputError, Partition,
                    dual_increasing_check, fm_verify, mono_conjugate,
                    monotone_lattice)
from conehj.conjugates import convexity_check


def test_monotone_lattice_counts():
    axis = np.linspace(0.0, 1.0, 4)
    # nondecreasing n-tuples from 4 values: C(4 + n - 1, n)
    assert monotone_lattice(1, axis).shape == (4, 1)
    assert monotone_lattice(2, axis).shape == (10, 2)
    assert monotone_lattice(3, axis).shape == (20, 3)
    for row in monotone_lattice(3, axis):
        assert np.all(np.diff(row) >= 0)


def test_grid_function_from_callable():
    j = Partition.uniform(2)
    g = GridFunction.from_callable(j, lambda x: float(x.sum()), steps=5)
    assert g.values.size == g.nodes.shape[0]
    i = int(np.argmax(np.all(g.nodes == 2.0, axis=1)))
    assert g.values[i] == pytest.approx(4.0)


def test_grid_function_json_round_trip_with_inf():
    j = Partition.uniform(1)
    g = GridFunction(j, np.linspace(0, 2, 5),
                     np.array([0.0, 1.0, np.inf, 2.0, 3.0]))
    rt = GridFunction.from_json(g.to_json())
    np.testing.assert_array_equal(rt.values, g.values)


def test_grid_function_from_json_rejects_unknown_keys():
    g = GridFunction.from_callable(Partition.uniform(1), lambda x: float(x[0]), steps=3)
    with pytest.raises(InvalidInputError, match="flags"):
        GridFunction.from_json(dict(g.to_json(), flags={"convex": True}))


def test_conjugate_of_linear_is_indicator():
    # g(x) = <c, x> has monotone conjugate 0 where c - y is dual-PSD
    j = Partition.uniform(2)
    w = j.widths
    c = np.array([0.5, 1.0])
    g = GridFunction.from_callable(j, lambda x: float(np.sum(w * c * x)),
                                   x_max=2.0, steps=9)
    gs = mono_conjugate(g)
    for node, val in zip(gs.nodes, gs.values):
        d = c - node
        tails = np.cumsum((d * w)[::-1])[::-1]
        if np.all(tails >= -1e-12):
            assert val == pytest.approx(0.0, abs=1e-12)
        else:
            assert val > 0


def test_biconjugate_never_exceeds_original():
    rng = np.random.default_rng(0)
    j = Partition.uniform(2)
    w = j.widths
    for _ in range(10):
        a, b = rng.uniform(0.2, 1.0), rng.uniform(0.0, 0.5)
        g = GridFunction.from_callable(
            j, lambda x: float(np.sum(w * (a * x + b * x ** 2))), steps=9)
        gss = mono_conjugate(mono_conjugate(g))
        assert np.all(gss.values <= g.values + 1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 10_000))
def test_conjugation_reverses_order(n, seed):
    rng = np.random.default_rng(seed)
    j = Partition.uniform(n)
    w = j.widths
    a1, a2 = sorted(rng.uniform(0.1, 1.0, 2))
    g1 = GridFunction.from_callable(j, lambda x: float(a1 * np.sum(w * x)),
                                    steps=7)
    g2 = GridFunction.from_callable(j, lambda x: float(a2 * np.sum(w * x)),
                                    steps=7)
    # g1 <= g2 pointwise implies g1* >= g2*
    s1, s2 = mono_conjugate(g1), mono_conjugate(g2)
    assert np.all(s1.values >= s2.values - 1e-12)


def test_dual_increasing_check_flags_decreasing():
    j = Partition.uniform(2)
    w = j.widths
    g = GridFunction.from_callable(j, lambda x: float(-np.sum(w * x)), steps=5)
    ok, ce = dual_increasing_check(g)
    assert not ok and ce is not None
    # the witness is a genuinely ordered pair with decreasing values
    assert ce["g_x"] < ce["g_x_prime"]


def test_convexity_check_flags_concave():
    j = Partition.uniform(1)
    g = GridFunction.from_callable(j, lambda x: float(np.sqrt(x[0])), steps=9)
    ok, ce = convexity_check(g)
    assert not ok and ce is not None


def test_fm_verify_convex_passes():
    j = Partition.uniform(2)
    w = j.widths
    g = GridFunction.from_callable(
        j, lambda x: float(np.sum(w * (0.5 * x + 0.25 * x ** 2))), steps=9)
    rep = fm_verify(g)
    assert rep["pass"]
    assert rep["overshoot"] <= 1e-9


def test_fm_verify_refuses_nonmonotone_with_witness():
    j = Partition.uniform(2)
    w = j.widths
    g = GridFunction.from_callable(j, lambda x: float(-np.sum(w * x)), steps=9)
    rep = fm_verify(g)
    assert not rep["pass"]
    assert rep["refused"] == "dual_increasing"
    assert rep["witness"] is not None
