"""Tests of the benchmark itself: run with ``python3 -m pytest bench``.

Each output check is fed a synthetic output that is right, and one that is
wrong in the way the check exists to catch (the negative control); the
wrong one must be rejected.
"""

import csv
import io
import json
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import spans
import workloads
from checks import (cell_average_measure, check_compare, check_converge,
                    check_estimates, check_hj_initial_value, check_hj_monotone,
                    check_routes, one_spin_psi_quadrature)

ROOT = Path(__file__).resolve().parent.parent


def _csv(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\r\n")
    w.writerow(header)
    w.writerows([[format(v, ".17g") if isinstance(v, float) else v for v in r]
                 for r in rows])
    return buf.getvalue()


def test_converge_rejects_errors_that_do_not_decay():
    sizes = [4, 8, 16]
    good = _csv(["level_size", "error"], [(n, 0.3 / n) for n in sizes])
    flat = _csv(["level_size", "error"], [(n, 0.02 * (1 + 0.01 * k))
                                          for k, n in enumerate(sizes)])
    assert check_converge(good).passed
    assert not check_converge(flat).passed


def _compare_rows(shift):
    xs = np.arange(0, 201) * 0.025
    rows = []
    for t in np.linspace(0.0, 1.0, 33):
        u = np.log1p(np.exp(xs - 1.0)) + 0.3 * t
        rows += [(float(t), float(x), float(a), float(a + 1e-3 * np.sin(x) + shift))
                 for x, a in zip(xs, u)]
    return _csv(["t", "x", "hopf_lax", "fd"], rows)


def test_compare_rejects_shifted_fd_column():
    assert check_compare(_compare_rows(0.0), dx=1 / 400, T=1.0).passed
    assert not check_compare(_compare_rows(0.1), dx=1 / 400, T=1.0).passed


def _route_texts(shift_hopf_lax):
    values = {(t, s): 0.1 * s + t for t in (0.1, 0.5, 1.0) for s in range(3)}
    texts = {}
    for m in workloads.ROUTE_METHODS:
        d = shift_hopf_lax if m == "hopf_lax" else 0.0
        texts[m] = _csv(["t", "sample_id", "value", "method"],
                        [(t, s, v + d, m) for (t, s), v in values.items()])
    return texts


def test_routes_reject_one_shifted_route():
    assert check_routes(_route_texts(0.0), n_values=9).passed
    assert not check_routes(_route_texts(1e-3), n_values=9).passed


def _bound_report(f_values):
    return json.dumps({str(float(t)): {"f": f} for t, f in
                       zip(workloads.SG_TIMES, f_values)})


def test_hj_value_must_not_decrease_in_t():
    t = workloads.SG_TIMES
    assert check_hj_monotone(_bound_report([0.02, 0.03, 0.04]), t).passed
    assert not check_hj_monotone(_bound_report([0.02, 0.03, 0.029]), t).passed


def _sg_csv(mean0, se, later=(0.04, 0.01, 48)):
    return _csv(["N", "t", "mean", "se", "replicas"],
                [(12, 0.0, mean0, se, 48), (12, 0.25, *later), (12, 0.5, *later)])


def test_t0_estimate_rejects_five_standard_error_shift():
    psi, se = 0.0303, 0.01
    assert check_estimates(_sg_csv(psi + 0.5 * se, se), psi, 3, 48).passed
    assert not check_estimates(_sg_csv(psi + 5.0 * se, se), psi, 3, 48).passed
    assert not check_estimates(_sg_csv(psi - 5.0 * se, se), psi, 3, 48).passed


@pytest.mark.parametrize("later", [(float("nan"), 0.01, 48), (0.04, 0.0, 48),
                                   (0.04, float("inf"), 48), (0.04, 0.01, 47)])
def test_estimates_reject_a_malformed_later_row(later):
    psi = 0.0303
    assert not check_estimates(_sg_csv(psi, 0.01, later), psi, 3, 48).passed


def test_estimates_reject_a_missing_row():
    psi = 0.0303
    assert not check_estimates(_sg_csv(psi, 0.01), psi, 4, 48).passed


def test_hj_initial_value_rejects_a_shifted_f0():
    atoms, levels = cell_average_measure([0.0, 0.3], [0.0, 0.5, 1.0], 3)
    assert atoms.tolist() == pytest.approx([0.0, 0.15, 0.3], abs=1e-15)
    psi = one_spin_psi_quadrature(atoms, levels)
    assert check_hj_initial_value(_bound_report([psi, 0.03, 0.04]), psi).passed
    assert not check_hj_initial_value(_bound_report([psi + 1e-4, 0.03, 0.04]),
                                      psi).passed


def test_quadrature_psi_of_a_point_mass_is_closed_form():
    # one level: psi(delta_q) = q - E log cosh(sqrt(2q) z)
    q = 0.4
    z = np.random.default_rng(0).standard_normal(2_000_000)
    mc = q - np.mean(np.log(np.cosh(np.sqrt(2 * q) * z)))
    assert one_spin_psi_quadrature([q], [0.0, 1.0]) == pytest.approx(mc, abs=2e-3)


def test_self_time_subtracts_children_per_thread():
    tr = spans.Tracer()
    inner = tr.wrap("inner", lambda: time.sleep(0.02))

    def outer():
        time.sleep(0.01)
        inner()
        # a span on another thread is a root there, not a child of outer
        th = threading.Thread(target=inner)
        th.start()
        th.join(timeout=5)
        assert not th.is_alive()

    tr.wrap("outer", outer)()
    selfs = tr.self_times()
    outer_id = next(s[0] for s in tr.spans if s[2] == "outer")
    assert {s[1] for s in tr.spans if s[2] == "inner"} == {None, outer_id}
    assert selfs["inner"] == pytest.approx(0.04, abs=0.015)
    # outer covers its own sleep plus the other thread's 0.02 s, not its child
    assert selfs["outer"] == pytest.approx(0.03, abs=0.015)


def test_every_layer_metric_names_a_traced_layer():
    # a misspelt name would read 0 on every run
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = {t[0] for t in spans.TARGETS} | {
        "solvers.slsqp", "cones.averaging_matrix", "process"}
    for m in spec["per_layer"]:
        assert m["name"].rsplit(".", 1)[0] in layers, m["name"]
