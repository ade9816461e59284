"""Command-line entry points: configs, artifacts, exit codes, determinism."""

import hashlib
import json
import time
import warnings

import numpy as np
import pytest

from conehj import (CovarianceModel, DiscreteMeasure, GridFunction,
                    Partition, measure_to_quantile,
                    one_spin_initial_condition, project_pj, solvers,
                    spin_glass)
from conehj.cli import main

SOLVE_CONFIG = {
    "psi": {"kind": "quadratic-monotone", "slope": 0.5, "curvature": 0.5,
            "cap": 10.0},
    "xi": {"poly": {"2": 1.0}},
    "partition": {"uniform": 2},
    "times": [0.0, 0.5],
    "samples": [[0.1, 0.4], [0.0, 0.0]],
    "method": "hopf_lax_separable",
}


def _write(tmp_path, config, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(config))
    return str(p)


def _run(tmp_path, command, config, *extra):
    return main([command, "--config", _write(tmp_path, config),
                 "--out", str(tmp_path), *extra])


def test_solve_writes_csv_and_sidecar(tmp_path, capsys):
    assert _run(tmp_path, "solve", SOLVE_CONFIG) == 0
    raw = (tmp_path / "solve.csv").read_bytes()
    assert b"\r\n" in raw  # RFC-4180 line endings
    lines = raw.decode().strip().splitlines()
    assert lines[0] == "t,sample_id,value,method"
    # the t = 0 rows reproduce the initial condition exactly
    rows = [ln.split(",") for ln in lines[1:]]
    t0 = {int(r[1]): float(r[2]) for r in rows if float(r[0]) == 0.0}
    # psi(x) = integral of 0.5 r + 0.25 r^2 against cell weights 1/2
    expected0 = 0.5 * (0.5 * 0.1 + 0.25 * 0.01) + 0.5 * (0.5 * 0.4 + 0.25 * 0.16)
    assert t0[0] == pytest.approx(expected0, abs=1e-15)
    assert t0[1] == 0.0
    meta = json.loads((tmp_path / "solve.meta.json").read_text())
    blob = json.dumps(SOLVE_CONFIG, sort_keys=True).encode()
    assert meta["config_sha256"] == hashlib.sha256(blob).hexdigest()
    assert meta["seed"] == 0
    assert "version" in meta


def test_solve_reruns_are_byte_identical(tmp_path):
    assert _run(tmp_path, "solve", SOLVE_CONFIG, "--seed", "7") == 0
    first = (tmp_path / "solve.csv").read_bytes()
    assert _run(tmp_path, "solve", SOLVE_CONFIG, "--seed", "7") == 0
    assert (tmp_path / "solve.csv").read_bytes() == first


def test_solve_unknown_method_exits_1(tmp_path, capsys):
    cfg = dict(SOLVE_CONFIG, method="bogus")
    assert _run(tmp_path, "solve", cfg) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_config_keys_exit_1(tmp_path, capsys):
    cfg = dict(SOLVE_CONFIG, extra_knob=1)
    assert _run(tmp_path, "solve", cfg) == 1
    err = capsys.readouterr().err
    assert "extra_knob" in err and "allowed" in err


def test_unknown_xi_keys_exit_1(tmp_path, capsys):
    cfg = dict(SOLVE_CONFIG, xi={"poly": {"2": 1.0}, "beta": 7})
    assert _run(tmp_path, "solve", cfg) == 1
    err = capsys.readouterr().err
    assert "beta" in err and "allowed" in err


def test_matrix_xi_exits_1_with_an_error_line(tmp_path, capsys):
    cfg = dict(SOLVE_CONFIG, xi={"poly": {"2": 1.0}, "D": 2})
    assert _run(tmp_path, "solve", cfg) == 1
    assert capsys.readouterr().err == \
        "error: unknown keys ['D'] in xi; allowed: ['poly']\n"


def test_hopf_agrees_with_hopf_lax_separable_past_the_seam(tmp_path):
    # Lipschitz 0.5 + 1.5 = 2 exceeds the seam point s0 ~ 1.17 of SK at
    # beta = 1, so hopf must search slopes where xibar is affine
    cfg = {"psi": {"kind": "quadratic-monotone", "slope": 0.5,
                   "curvature": 1.0, "cap": 1.5},
           "xi": {"poly": {"2": 1.0}}, "partition": {"uniform": 2},
           "times": [0.1, 0.5], "samples": [[0.2, 0.6]]}
    values = {}
    for method in ("hopf", "hopf_lax_separable"):
        out = tmp_path / method
        assert main(["solve", "--config",
                     _write(tmp_path, dict(cfg, method=method)),
                     "--out", str(out)]) == 0
        lines = (out / "solve.csv").read_text().strip().splitlines()[1:]
        values[method] = np.array([float(ln.split(",")[2]) for ln in lines])
    assert values["hopf"].size == 2
    np.testing.assert_allclose(values["hopf"], values["hopf_lax_separable"],
                               rtol=0.0, atol=1e-10)


# the benchmark's softplus profile, Lipschitz 0.9, at a small size
COMPARE_CONFIG = {
    "psi": {"kind": "softplus",
            "profile": {"weights": [0.4, 0.5], "thresholds": [0.3, 1.2],
                        "scales": [0.4, 0.8]}},
    "xi": {"poly": {"2": 1.0}},
    "T": 0.25, "dx": 0.02, "x_max": 1.0,
}


def test_compare_passes_and_tabulates_every_node(tmp_path):
    assert _run(tmp_path, "compare", COMPARE_CONFIG) == 0
    rep = json.loads((tmp_path / "compare.json").read_text())
    assert rep["pass"] is True
    assert rep["margin"] <= 10.0 * 0.02 * (1.0 + 0.25)
    lines = (tmp_path / "compare.csv").read_text().strip().splitlines()
    assert lines[0] == "t,x,hopf_lax,fd"
    pairs = [tuple(ln.split(",")[:2]) for ln in lines[1:]]
    ts, xs = {t for t, _ in pairs}, {x for _, x in pairs}
    assert len(xs) == 51  # x = 0, 0.02, ..., 1
    assert sorted(pairs) == sorted((t, x) for t in ts for x in xs)


def _linear_h(**extra):
    h = {"partition": {"uniform": 2}, "values": [0.2, 0.5], **extra}
    return dict(SOLVE_CONFIG, psi={"kind": "linear", "h": h},
                method="hopf_lax")


def _softplus(**profile):
    psi = {"kind": "softplus",
           "profile": dict(COMPARE_CONFIG["psi"]["profile"], **profile)}
    return dict(COMPARE_CONFIG, psi=psi)


FM_CONFIG = {"function": {"partition": {"uniform": 1}, "axis": [0.0, 1.0],
                          "values": [0.0, 1.0]}}
SPINGLASS_MEASURE = {"atoms": [[[0.0]], [[0.3]]], "levels": [0.0, 0.5, 1.0]}
SPINGLASS_CONFIG = {"N_list": [2], "beta": 0.5, "t_list": [0.25],
                    "measure": SPINGLASS_MEASURE, "cascade": {"M": 8},
                    "replicas": 4, "hj_level": 2}


@pytest.mark.parametrize("command, config, expected", [
    ("compare", dict(COMPARE_CONFIG, tol=1e9), "'tol'"),
    ("compare", dict(COMPARE_CONFIG, slope_cap=0.9), "'slope_cap'"),
    ("fm-verify", dict(FM_CONFIG, tol=1e9), "'tol'"),
    ("solve", _linear_h(role="dual-certificate"), "'role'"),
    ("spinglass", dict(SPINGLASS_CONFIG,
                       measure=dict(SPINGLASS_MEASURE, bogus=7)), "'bogus'"),
    ("solve", dict(SOLVE_CONFIG, psi={"kind": "linear", "h": 5}),
     "psi.h must be a JSON object"),
    ("fm-verify", {"function": 5}, "grid function must be a JSON object"),
    ("solve", [SOLVE_CONFIG], "solve config must be a JSON object"),
    # profiles that are not increasing and convex
    ("compare", _softplus(weights=[-0.5, 1.0]), "weights must be >= 0"),
    ("compare", _softplus(scales=[0.4, 0.0]), "scales > 0"),
    ("compare", _softplus(thresholds=[0.3]), "lists of one length"),
    ("solve", dict(SOLVE_CONFIG, psi=dict(SOLVE_CONFIG["psi"], curvature=-0.5)),
     "must be finite and >= 0"),
], ids=["compare-tol", "compare-slope-cap", "fm-verify-tol", "psi-h-role",
        "spinglass-measure", "psi-h-not-an-object", "function-not-an-object",
        "config-not-an-object", "softplus-negative-weight",
        "softplus-zero-scale", "softplus-lengths", "huber-negative-curvature"])
def test_removed_keys_and_bad_nested_objects_exit_1(tmp_path, capsys,
                                                     command, config, expected):
    assert _run(tmp_path, command, config) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and expected in err


@pytest.mark.parametrize("command, config, expected", [
    ("solve", dict(SOLVE_CONFIG, times=[float("nan")]), "t must be nonnegative"),
    ("solve", dict(SOLVE_CONFIG, times=[float("inf")]), "t must be nonnegative"),
    ("solve", dict(SOLVE_CONFIG, xi={"poly": {"2": float("nan")}}),
     "must be finite"),
    ("spinglass", dict(SPINGLASS_CONFIG, t_list=[float("nan")]),
     "t must be nonnegative"),
    ("spinglass", dict(SPINGLASS_CONFIG, t_list=[float("inf")]),
     "t must be nonnegative"),
    ("spinglass", dict(SPINGLASS_CONFIG, beta=float("nan")), "must be finite"),
], ids=["solve-t-nan", "solve-t-inf", "solve-xi-nan", "spinglass-t-nan",
        "spinglass-t-inf", "spinglass-beta-nan"])
def test_non_finite_config_values_exit_1(tmp_path, capsys, command, config,
                                         expected):
    # json reads NaN and Infinity; no route may turn them into a value
    assert _run(tmp_path, command, config) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and expected in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("config, expected", [
    (dict(COMPARE_CONFIG, dx=0.0), "dx and x_max must be finite and positive"),
    (dict(COMPARE_CONFIG, dx=-0.01), "dx and x_max must be finite and positive"),
    (dict(COMPARE_CONFIG, x_max=-1.0), "dx and x_max must be finite and positive"),
    (dict(COMPARE_CONFIG, x_max=0.0), "dx and x_max must be finite and positive"),
    (dict(COMPARE_CONFIG, dx=float("inf")), "dx and x_max must be finite and positive"),
    (dict(COMPARE_CONFIG, x_max=float("inf")), "dx and x_max must be finite and positive"),
    (dict(COMPARE_CONFIG, x_max=0.01), "at least 2 nodes"),
    (dict(COMPARE_CONFIG, T=float("inf")), "T must be nonnegative and finite"),
    (dict(COMPARE_CONFIG, T=-1.0), "T must be nonnegative and finite"),
    (dict(COMPARE_CONFIG, T=0.0), "the t = 0 snapshot and one after it"),
], ids=["dx-0", "dx-negative", "x_max-negative", "x_max-0", "dx-inf",
        "x_max-inf", "one-node", "T-inf", "T-negative", "T-0"])
def test_degenerate_compare_grids_exit_1(tmp_path, capsys, config, expected):
    # at T = 0 the only row is t = 0, where the comparison gate cannot fail
    assert _run(tmp_path, "compare", config) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and expected in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("method", ["hopf", "hopf_lax", "hopf_lax_1d",
                                    "hopf_lax_separable"])
def test_solve_refuses_an_infinite_coordinate_before_any_search(tmp_path, capsys,
                                                                method):
    cfg = dict(SOLVE_CONFIG, samples=[[0.1, float("inf")]], method=method)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run(tmp_path, "solve", cfg) == 1
    assert capsys.readouterr().err == "error: x must have finite coordinates\n"
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command, config, expected", [
    ("solve", dict(SOLVE_CONFIG, times=[[0.5]]), "wrong type in config"),
    ("solve", dict(SOLVE_CONFIG, samples=[{"x": [0.1, 0.4]}]),
     "wrong type in config"),
    ("solve", dict(SOLVE_CONFIG, samples=[[0.1, [0.4]]]), "inhomogeneous"),
    ("solve", dict(SOLVE_CONFIG, samples=[[[0.1, 0.4]]]), "coords must have shape"),
    ("compare", dict(COMPARE_CONFIG, T="soon"), "could not convert"),
    ("compare", dict(COMPARE_CONFIG, T=[1.0]), "wrong type in config"),
], ids=["solve-nested-times", "solve-sample-object", "solve-ragged-sample",
        "solve-nested-sample", "compare-string-T", "compare-list-T"])
def test_config_values_of_the_wrong_type_exit_1(tmp_path, capsys, command, config,
                                                expected):
    # main returns 1 with an error line: no traceback escapes it
    assert _run(tmp_path, command, config) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and expected in err
    assert "Traceback" not in err


def test_compare_with_a_matrix_xi_exits_1(tmp_path, capsys):
    cfg = {"psi": {"kind": "softplus",
                   "profile": {"weights": [0.5], "thresholds": [0.5],
                               "scales": [0.5]}},
           "xi": {"poly": {"2": 1.0}, "D": 2}}
    assert _run(tmp_path, "compare", cfg) == 1
    assert capsys.readouterr().err == \
        "error: unknown keys ['D'] in xi; allowed: ['poly']\n"


@pytest.mark.parametrize("argv", [
    ["solve"],                                          # no --config
    ["solve", "--config", "c.json", "--tol-scale", "2"],  # unknown flag
    ["bogus", "--config", "c.json"],                    # unknown command
], ids=["missing-config", "unknown-flag", "unknown-command"])
def test_usage_errors_exit_1(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert any(ln.startswith("error: ")
               for ln in capsys.readouterr().err.splitlines())


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: conehj" in capsys.readouterr().out


def test_missing_config_key_exits_1(tmp_path, capsys):
    cfg = {k: v for k, v in SOLVE_CONFIG.items() if k != "times"}
    assert _run(tmp_path, "solve", cfg) == 1
    assert "missing config key" in capsys.readouterr().err


def test_malformed_json_exits_1(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["solve", "--config", str(p), "--out", str(tmp_path)]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_missing_config_file_exits_1(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 1
    assert "cannot read config" in capsys.readouterr().err


def _grid_function(convex: bool) -> GridFunction:
    j = Partition.uniform(2)
    if convex:
        fn = lambda x: float(np.sum(0.5 * x + 0.25 * x ** 2))
    else:
        fn = lambda x: float(-np.sum(x))
    return GridFunction.from_callable(j, fn, x_max=2.0, steps=7)


def test_fm_verify_pass_exits_0(tmp_path):
    cfg = {"function": _grid_function(convex=True).to_json()}
    assert _run(tmp_path, "fm-verify", cfg) == 0
    rep = json.loads((tmp_path / "fm_verify.json").read_text())
    assert rep["pass"]


def test_fm_verify_failure_exits_2_with_witness(tmp_path):
    cfg = {"function": _grid_function(convex=False).to_json()}
    assert _run(tmp_path, "fm-verify", cfg) == 2
    rep = json.loads((tmp_path / "fm_verify.json").read_text())
    assert not rep["pass"]
    assert rep["witness"] is not None


def test_fm_verify_unknown_function_keys_exit_1(tmp_path, capsys):
    function = dict(_grid_function(convex=True).to_json(), flags={"bogus": True})
    assert _run(tmp_path, "fm-verify", {"function": function}) == 1
    assert "flags" in capsys.readouterr().err


def test_converge_on_linear_data_exits_0(tmp_path):
    cfg = {
        "psi": {"kind": "softplus",
                "profile": {"weights": [0.5], "thresholds": [0.5],
                            "scales": [0.5]}},
        "xi": {"poly": {"2": 1.0}},
        "levels": [4, 8, 16],
        "points": 4,
        "radius": 2.0,
        "slope_max": -0.4,
    }
    assert _run(tmp_path, "converge", cfg) == 0
    lines = (tmp_path / "converge.csv").read_text().strip().splitlines()
    assert lines[0] == "level_size,error"
    assert len(lines) == 3  # two refinement gaps
    meta = json.loads((tmp_path / "converge.meta.json").read_text())
    assert meta["study"]["pass"]


def test_accept_criterion_4_at_seed_1_exits_0(tmp_path):
    # seed 1 runs criterion 4 at seed 5, whose kappa the grid search
    # that was its reference missed by 6.8e-4
    assert _run(tmp_path, "accept", {"criteria": [4]}, "--seed", "1") == 0
    rep = json.loads((tmp_path / "accept.json").read_text())
    assert [r["criterion"] for r in rep] == [4]


def test_spinglass_artifacts_and_determinism(tmp_path):
    cfg = {
        "N_list": [2, 4],
        "beta": 0.5,
        "t_list": [0.25],
        "measure": {"atoms": [[[0.0]], [[0.3]]], "levels": [0.0, 0.5, 1.0]},
        "cascade": {"M": 32},
        "replicas": 60,
        "hj_level": 2,
    }
    assert _run(tmp_path, "spinglass", cfg, "--threads", "1") == 0
    first = (tmp_path / "spinglass.csv").read_bytes()
    assert _run(tmp_path, "spinglass", cfg, "--threads", "3") == 0
    assert (tmp_path / "spinglass.csv").read_bytes() == first
    bound = json.loads((tmp_path / "spinglass_bound.json").read_text())
    assert bound["0.25"]["pass"]


def test_spinglass_over_the_memory_cap_exits_1_at_once(tmp_path, capsys,
                                                       monkeypatch):
    # K = 2, M = 1024, N = 14: the two 2^7 x 1024^2 factor blocks alone
    # hold 2.1e9 bytes per thread, refused before any replica runs
    def no_replica(*args):
        raise AssertionError("a replica ran past the memory guard")

    monkeypatch.setattr(spin_glass, "_replica_value", no_replica)
    cfg = {"N_list": [14], "beta": 0.5, "t_list": [0.25],
           "measure": {"atoms": [[[0.0]], [[0.2]], [[0.5]]],
                       "levels": [0.0, 0.3, 0.7, 1.0]},
           "cascade": {"M": 1024}, "replicas": 10, "hj_level": 2}
    t0 = time.perf_counter()
    assert _run(tmp_path, "spinglass", cfg) == 1
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "2.4e+09 bytes per thread" in err


def test_spinglass_f_does_not_depend_on_the_seed(tmp_path):
    # the seed drives the replicas only; the HJ value is one deterministic
    # search
    cfg = {"N_list": [2], "beta": 0.5, "t_list": [0.5],
           "measure": {"atoms": [[[0.0]], [[0.3]]], "levels": [0.0, 0.5, 1.0]},
           "cascade": {"M": 32}, "replicas": 20, "hj_level": 3}
    f = []
    for seed in ("101", "102"):
        out = tmp_path / seed
        assert main(["spinglass", "--config", _write(tmp_path, cfg),
                     "--out", str(out), "--seed", seed]) == 0
        f.append(json.loads((out / "spinglass_bound.json").read_text())["0.5"]["f"])
    assert f[0] == f[1]


def test_spinglass_solves_its_t_list_in_one_search(tmp_path, monkeypatch):
    exact = solvers._kuhn_branch_and_bound
    calls = []

    def counted(*args):
        calls.append(1)
        return exact(*args)

    monkeypatch.setattr(solvers, "_kuhn_branch_and_bound", counted)
    cfg = dict(SPINGLASS_CONFIG, t_list=[0.0, 0.25, 0.5])
    assert _run(tmp_path, "spinglass", cfg) == 0
    assert len(calls) == 1
    # each f is the one-case value, bit for bit
    bound = json.loads((tmp_path / "spinglass_bound.json").read_text())
    j = Partition.uniform(cfg["hj_level"])
    mu = project_pj(measure_to_quantile(
        DiscreteMeasure.from_json(SPINGLASS_MEASURE)), j)
    for t in cfg["t_list"]:
        assert bound[str(t)]["f"] == solvers.hopf_lax_1d(
            one_spin_initial_condition(), CovarianceModel.sk(0.5), t, mu)


def test_hopf_lax_1d_past_five_coordinates_exits_1(tmp_path, capsys,
                                                  monkeypatch):
    cfg = dict(SOLVE_CONFIG, partition={"uniform": 6}, method="hopf_lax_1d",
               samples=[[0.1, 0.2, 0.3, 0.4, 0.5, 0.6]])
    assert _run(tmp_path, "solve", cfg) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "use hopf_lax" in err

    # spinglass solves its HJ side first, so it refuses before any replica
    def no_replica(*args):
        raise AssertionError("a replica ran before hj_level was refused")

    monkeypatch.setattr(spin_glass, "_replica_value", no_replica)
    cfg = {"N_list": [2], "beta": 0.5, "t_list": [0.25],
           "measure": {"atoms": [[[0.0]], [[0.3]]], "levels": [0.0, 0.5, 1.0]},
           "cascade": {"M": 32}, "replicas": 20, "hj_level": 6}
    assert _run(tmp_path, "spinglass", cfg) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "use hopf_lax" in err


def test_values_use_17_significant_digits(tmp_path):
    assert _run(tmp_path, "solve", SOLVE_CONFIG) == 0
    lines = (tmp_path / "solve.csv").read_text().strip().splitlines()
    # round-tripping the printed value must be lossless
    for ln in lines[1:]:
        v = ln.split(",")[2]
        assert format(float(v), ".17g") == v
