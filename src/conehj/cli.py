"""Experiment orchestration: config parsing, runners, CSV/JSON artifacts.

Subcommands: solve, converge, fm-verify, compare, spinglass, accept.
Every run writes RFC-4180 CSVs (17 significant digits) plus a JSON
sidecar carrying the config hash, package version, and seed, so equal
configs and seeds produce byte-identical artifacts at any thread count.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .cones import (ConePoint, DiscreteMeasure, InvalidInputError, Partition,
                    StepPath, UnsupportedOperationError, measure_to_quantile,
                    project_pj)
from .conjugates import GridFunction, fm_verify
from .fd_oracle import comparison_check, fd_vs_hopf_lax
from .limits import rate_study, seeded_test_points
from .nonlinearity import CovarianceModel
from .solvers import InitialCondition, hopf_lax_1d_batch, solve_surface
from .spin_glass import (CascadeSpec, SkInstance, bound_check, free_energy,
                         one_spin_initial_condition)

log = logging.getLogger("conehj")


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\r\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def _strict(obj):
    """obj with every non-finite float replaced by "nan", "inf" or "-inf"."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    return obj


def _write_json(path: Path, obj):
    """Write obj as strict JSON: indented, sorted keys, a trailing newline.

    Non-finite floats become the strings "nan", "inf" and "-inf", as
    ``GridFunction.to_json`` writes "inf", so a strict parser reads every
    artifact.
    """
    with open(path, "w") as fh:
        json.dump(_strict(obj), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def write_sidecar(path: Path, config: dict, seed: int, extra=None):
    blob = json.dumps(config, sort_keys=True).encode()
    meta = {"config_sha256": hashlib.sha256(blob).hexdigest(),
            "version": __version__, "seed": seed,
            "numpy": np.__version__}
    if extra:
        meta.update(extra)
    _write_json(path, meta)


def _check_keys(obj: dict, allowed, where: str):
    if not isinstance(obj, dict):
        raise InvalidInputError(f"{where} must be a JSON object")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise InvalidInputError(f"unknown keys {sorted(unknown)} in {where}; "
                                f"allowed: {sorted(allowed)}")


# ---------------------------------------------------------------------------
# config -> model objects

def parse_psi(obj: dict) -> InitialCondition:
    _check_keys(obj, {"kind", "h", "profile", "slope", "curvature", "cap"}, "psi")
    kind = obj.get("kind")
    if kind == "linear":
        _check_keys(obj["h"], {"partition", "values"}, "psi.h")
        return InitialCondition.linear(StepPath.from_json(obj["h"]))
    if kind == "quadratic-monotone":
        return InitialCondition.quadratic_monotone(
            obj.get("slope", 0.5), obj.get("curvature", 0.5), obj.get("cap", 1.0))
    if kind == "softplus":
        prof = obj["profile"]
        _check_keys(prof, {"weights", "thresholds", "scales"}, "psi.profile")
        return InitialCondition.softplus(prof["weights"], prof["thresholds"],
                                         prof["scales"])
    if kind == "sk-one-spin":
        return one_spin_initial_condition()
    raise InvalidInputError(f"unknown psi kind {kind!r}")


def parse_xi(obj: dict) -> CovarianceModel:
    _check_keys(obj, {"poly"}, "xi")
    return CovarianceModel.from_json(obj)


# ---------------------------------------------------------------------------
# runners; each returns (exit_code, summary string)

def run_solve(config: dict, out: Path, seed: int, threads: int):
    _check_keys(config, {"psi", "xi", "partition", "times", "samples", "method"},
                "solve config")
    psi = parse_psi(config["psi"])
    model = parse_xi(config["xi"])
    j = Partition.from_json(config["partition"])
    times = [float(t) for t in config["times"]]
    samples = [ConePoint(j, np.asarray(s, dtype=float)) for s in config["samples"]]
    method = config.get("method", "hopf_lax")
    surf = solve_surface(psi, model, times, samples, method=method)
    rows = [(t, si, surf.values[ti, si], method)
            for ti, t in enumerate(surf.times) for si in range(len(samples))]
    write_csv(out / "solve.csv", ["t", "sample_id", "value", "method"], rows)
    write_sidecar(out / "solve.meta.json", config, seed)
    return 0, f"solve: {len(rows)} values via {method}"


def run_converge(config: dict, out: Path, seed: int, threads: int):
    _check_keys(config, {"psi", "xi", "levels", "points", "radius", "slope_max"},
                "converge config")
    psi = parse_psi(config["psi"])
    model = parse_xi(config["xi"])
    levels = [int(n) for n in config.get("levels", [4, 8, 16, 32, 64])]
    chain = [Partition.uniform(n) for n in levels]
    pts = seeded_test_points(seed, count=int(config.get("points", 32)),
                             radius=float(config.get("radius", 4.0)),
                             fine=2 * max(levels))
    study = rate_study(psi, model, chain, pts)
    rows = [(int(s), e) for s, e in zip(study.sizes, study.errors)]
    write_csv(out / "converge.csv", ["level_size", "error"], rows)
    slope_max = float(config.get("slope_max", -0.4))
    passed = study.slope <= slope_max
    summary = dict(study.to_json(), **{"pass": bool(passed)})
    write_sidecar(out / "converge.meta.json", config, seed, {"study": summary})
    return (0 if passed else 2), f"converge: slope {study.slope:.3f} " \
                                 f"({'pass' if passed else 'FAIL'})"


def run_fm_verify(config: dict, out: Path, seed: int, threads: int):
    _check_keys(config, {"function"}, "fm-verify config")
    report = fm_verify(GridFunction.from_json(config["function"]))
    _write_json(out / "fm_verify.json", report)
    write_sidecar(out / "fm_verify.meta.json", config, seed)
    return (0 if report["pass"] else 2), f"fm-verify: {report}"


def run_compare(config: dict, out: Path, seed: int, threads: int):
    _check_keys(config, {"xi", "psi", "T", "dx", "x_max"}, "compare config")
    model = parse_xi(config["xi"])
    psi = parse_psi(config["psi"])
    if psi.kind != "separable":
        raise InvalidInputError("compare requires a separable psi profile")
    T = float(config.get("T", 1.0))
    dx = float(config.get("dx", 1.0 / 400))
    x_max = float(config.get("x_max", 5.0))
    u, v = fd_vs_hopf_lax(psi.phi, model, x_max, dx, T, psi.lip_l1)
    rep = comparison_check(u, v, L=psi.lip_l1, model=model,
                           tol=10.0 * dx * (1.0 + T))
    xs = u.xs.tolist()
    rows = [(t, x, a, b) for t, hl, fd in zip(u.times.tolist(), u.values.tolist(),
                                             v.values.tolist())
            for x, a, b in zip(xs, hl, fd)]
    write_csv(out / "compare.csv", ["t", "x", "hopf_lax", "fd"], rows)
    _write_json(out / "compare.json", rep.to_json())
    write_sidecar(out / "compare.meta.json", config, seed)
    return (0 if rep.passed else 2), f"compare: margin {rep.margin:.2e} " \
                                     f"({'pass' if rep.passed else 'FAIL'})"


def run_spinglass(config: dict, out: Path, seed: int, threads: int):
    _check_keys(config, {"N_list", "beta", "t_list", "measure", "cascade",
                         "replicas", "hj_level"}, "spinglass config")
    _check_keys(config["measure"], {"atoms", "levels"}, "spinglass.measure")
    measure = DiscreteMeasure.from_json(config["measure"])
    casc = config.get("cascade", {})
    _check_keys(casc, {"M"}, "spinglass.cascade")
    spec = CascadeSpec.for_measure(measure, M=int(casc.get("M", 256)))
    beta = float(config["beta"])
    replicas = int(config.get("replicas", 1000))
    # the HJ side first, so that a level hopf_lax_1d refuses exits at once;
    # one certified search serves the whole t_list
    model = CovarianceModel.sk(beta)
    psi = one_spin_initial_condition()
    j = Partition.uniform(int(config.get("hj_level", 4)))
    mu = project_pj(measure_to_quantile(measure), j)
    times = [float(t) for t in config["t_list"]]
    f = dict(zip(times, map(float, hopf_lax_1d_batch(
        psi, model, [(t, mu) for t in times]))))
    rows = []
    results = {}
    for t in config["t_list"]:
        for N in config["N_list"]:
            inst = SkInstance(int(N), beta, float(t), measure)
            est = free_energy(inst, spec, replicas,
                              seed=seed + 1000 * int(round(1e6 * float(t))) + int(N),
                              threads=threads)
            rows.append((int(N), float(t), est.mean, est.se, replicas))
            results.setdefault(float(t), []).append(est)
    write_csv(out / "spinglass.csv", ["N", "t", "mean", "se", "replicas"], rows)
    # bound report per time
    reports = {}
    all_pass = True
    for t, ests in sorted(results.items()):
        rep = bound_check(ests, f[t])
        reports[str(t)] = rep
        all_pass = all_pass and rep["pass"]
    _write_json(out / "spinglass_bound.json", reports)
    write_sidecar(out / "spinglass.meta.json", config, seed)
    return (0 if all_pass else 2), f"spinglass: {len(rows)} estimates, " \
                                   f"bound {'pass' if all_pass else 'FAIL'}"


def run_accept(config: dict, out: Path, seed: int, threads: int):
    from . import acceptance
    _check_keys(config, {"criteria", "replicas"}, "accept config")
    wanted = config.get("criteria")
    reports = acceptance.run_all(seed=seed, criteria=wanted,
                                 replicas=int(config.get("replicas", 1000)),
                                 threads=threads)
    rows = [(r["criterion"], r["name"], int(r["pass"]), r["seconds"]) for r in reports]
    write_csv(out / "accept.csv", ["criterion", "name", "pass", "seconds"], rows)
    _write_json(out / "accept.json", reports)
    write_sidecar(out / "accept.meta.json", config, seed)
    ok = all(r["pass"] for r in reports)
    for r in reports:
        print(f"criterion {r['criterion']:2d} {r['name']:<24s} "
              f"{'pass' if r['pass'] else 'FAIL'} ({r['seconds']:.1f}s)")
    return (0 if ok else 2), f"accept: {sum(r['pass'] for r in reports)}" \
                             f"/{len(reports)} criteria pass"


RUNNERS = {"solve": run_solve, "converge": run_converge,
           "fm-verify": run_fm_verify, "compare": run_compare,
           "spinglass": run_spinglass, "accept": run_accept}


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, since exit status 2 means a check failed."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def main(argv=None) -> int:
    parser = _Parser(
        prog="conehj",
        description="Cone Hamilton-Jacobi experiments: variational solvers, "
                    "convergence studies, conjugation checks, and the SK "
                    "free-energy validator.")
    parser.add_argument("command", choices=sorted(RUNNERS))
    parser.add_argument("--config", required=True, help="JSON experiment config")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args(argv)
    logging.basicConfig(level=os.environ.get("CONEHJ_LOG", "WARNING").upper())
    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        print("expected a JSON object; see the command schemas in the README",
              file=sys.stderr)
        return 1
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        code, summary = RUNNERS[args.command](config, out, args.seed,
                                              args.threads)
    except KeyError as exc:
        print(f"error: missing config key {exc}", file=sys.stderr)
        return 1
    except TypeError as exc:
        # a config value of the wrong type, as a list where a number belongs
        print(f"error: wrong type in config: {exc}", file=sys.stderr)
        return 1
    except (UnsupportedOperationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(summary)
    return code


if __name__ == "__main__":
    sys.exit(main())
