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
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .cones import (ConePoint, DiscreteMeasure, InvalidInputError, Partition,
                    StepPath, measure_to_quantile, project_pj)
from .conjugates import GridFunction, fm_verify
from .fd_oracle import FdGrid, FdSurface, comparison_check, fd_solve
from .limits import rate_study, seeded_test_points
from .nonlinearity import ConjugateModel, CovarianceModel, regularize
from .solvers import InitialCondition, hopf_lax_1d, solve_surface
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


def write_sidecar(path: Path, config: dict, seed: int, extra=None):
    blob = json.dumps(config, sort_keys=True).encode()
    meta = {"config_sha256": hashlib.sha256(blob).hexdigest(),
            "version": __version__, "seed": seed,
            "numpy": np.__version__}
    if extra:
        meta.update(extra)
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _check_keys(obj: dict, allowed, where: str):
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
        h = StepPath.from_json(obj["h"])
        return InitialCondition.linear(h)
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
    return CovarianceModel.from_json(obj)


# ---------------------------------------------------------------------------
# runners; each returns (exit_code, summary string)

def run_solve(config: dict, out: Path, seed: int, threads: int, tol_scale: float):
    _check_keys(config, {"psi", "xi", "partition", "times", "samples", "method"},
                "solve config")
    psi = parse_psi(config["psi"])
    model = parse_xi(config["xi"])
    j = Partition.from_json(config["partition"])
    times = [float(t) for t in config["times"]]
    samples = [ConePoint(j, np.asarray(s, dtype=float)) for s in config["samples"]]
    method = config.get("method", "hopf_lax")
    arg = model if method == "hopf" else regularize(model)
    if method == "hopf_lax_1d":
        arg = ConjugateModel(arg)
    surf = solve_surface(psi, arg, j, times, samples, method=method)
    rows = [(t, si, surf.values[ti, si], method)
            for ti, t in enumerate(surf.times) for si in range(len(samples))]
    write_csv(out / "solve.csv", ["t", "sample_id", "value", "method"], rows)
    write_sidecar(out / "solve.meta.json", config, seed)
    return 0, f"solve: {len(rows)} values via {method}"


def run_converge(config: dict, out: Path, seed: int, threads: int, tol_scale: float):
    _check_keys(config, {"psi", "xi", "levels", "points", "radius", "slope_max"},
                "converge config")
    psi = parse_psi(config["psi"])
    reg = regularize(parse_xi(config["xi"]))
    levels = [int(n) for n in config.get("levels", [4, 8, 16, 32, 64])]
    chain = [Partition.uniform(n) for n in levels]
    pts = seeded_test_points(seed, count=int(config.get("points", 32)),
                             radius=float(config.get("radius", 4.0)),
                             fine=2 * max(levels))
    study = rate_study(psi, reg, chain, pts)
    rows = [(int(s), e) for s, e in zip(study.sizes, study.errors)]
    write_csv(out / "converge.csv", ["level_size", "error"], rows)
    slope_max = float(config.get("slope_max", -0.4))
    passed = study.slope <= slope_max or not np.isfinite(study.slope)
    summary = dict(study.to_json(), **{"pass": bool(passed)})
    write_sidecar(out / "converge.meta.json", config, seed, {"study": summary})
    return (0 if passed else 2), f"converge: slope {study.slope:.3f} " \
                                 f"({'pass' if passed else 'FAIL'})"


def run_fm_verify(config: dict, out: Path, seed: int, threads: int, tol_scale: float):
    _check_keys(config, {"function", "tol"}, "fm-verify config")
    g = GridFunction.from_json(config["function"])
    tol = config.get("tol")
    report = fm_verify(g, None if tol is None else float(tol) * tol_scale)
    with open(out / "fm_verify.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_sidecar(out / "fm_verify.meta.json", config, seed)
    return (0 if report["pass"] else 2), f"fm-verify: {report}"


def run_compare(config: dict, out: Path, seed: int, threads: int, tol_scale: float):
    _check_keys(config, {"xi", "psi", "T", "dx", "slope_cap", "x_max", "tol"},
                "compare config")
    from .solvers import hopf_lax_pointwise
    reg = regularize(parse_xi(config["xi"]))
    psi = parse_psi(config["psi"])
    if psi.kind != "separable":
        raise InvalidInputError("compare requires a separable psi profile")
    T = float(config.get("T", 1.0))
    dx = float(config.get("dx", 1.0 / 400))
    cap = float(config.get("slope_cap", psi.lip_l1))
    x_max = float(config.get("x_max", 5.0))
    grid = FdGrid.make(reg, x_max, dx, cap)
    fd = fd_solve(psi.phi, reg, grid, T)
    sub = slice(0, fd.xs.size, max(1, fd.xs.size // 200))
    xs = fd.xs[sub]
    vals = np.empty((fd.times.size, xs.size))
    for ti, t in enumerate(fd.times):
        if t == 0.0:
            vals[ti] = psi.phi(xs)
        else:
            vals[ti] = hopf_lax_pointwise(psi.phi, reg, float(t), xs,
                                          scan=513, zoom_rounds=7)
    u = FdSurface(fd.times, xs, vals, "hopf_lax")
    v = FdSurface(fd.times, xs, fd.values[:, sub], "fd_oracle")
    tol = float(config.get("tol", 10.0 * dx * (1.0 + T))) * tol_scale
    rep = comparison_check(u, v, L=cap, reg=reg, tol=tol)
    rows = [(t, x, u.values[ti, xi_], v.values[ti, xi_])
            for ti, t in enumerate(u.times) for xi_, x in enumerate(xs)]
    write_csv(out / "compare.csv", ["t", "x", "hopf_lax", "fd"], rows)
    with open(out / "compare.json", "w") as fh:
        json.dump(rep.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_sidecar(out / "compare.meta.json", config, seed)
    return (0 if rep.passed else 2), f"compare: margin {rep.margin:.2e} " \
                                     f"({'pass' if rep.passed else 'FAIL'})"


def run_spinglass(config: dict, out: Path, seed: int, threads: int, tol_scale: float):
    _check_keys(config, {"N_list", "beta", "t_list", "measure", "cascade",
                         "replicas", "hj_level"}, "spinglass config")
    measure = DiscreteMeasure.from_json(config["measure"])
    casc = config.get("cascade", {})
    _check_keys(casc, {"M"}, "spinglass.cascade")
    spec = CascadeSpec.for_measure(measure, M=int(casc.get("M", 256)))
    beta = float(config["beta"])
    replicas = int(config.get("replicas", 1000))
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
    # HJ-side value and bound report per time
    model = CovarianceModel.sk(beta)
    conj = ConjugateModel(model)
    psi = one_spin_initial_condition()
    level = int(config.get("hj_level", 4))
    j = Partition.uniform(level)
    mu = project_pj(measure_to_quantile(measure), j)
    reports = {}
    all_pass = True
    for t, ests in sorted(results.items()):
        rng = np.random.default_rng(seed)
        f = hopf_lax_1d(psi, conj, j, float(t), mu, rng=rng)
        rep = bound_check(ests, f)
        reports[str(t)] = rep
        all_pass = all_pass and rep["pass"]
    with open(out / "spinglass_bound.json", "w") as fh:
        json.dump(reports, fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_sidecar(out / "spinglass.meta.json", config, seed)
    return (0 if all_pass else 2), f"spinglass: {len(rows)} estimates, " \
                                   f"bound {'pass' if all_pass else 'FAIL'}"


def run_accept(config: dict, out: Path, seed: int, threads: int, tol_scale: float):
    from . import acceptance
    _check_keys(config, {"criteria", "replicas"}, "accept config")
    wanted = config.get("criteria")
    reports = acceptance.run_all(seed=seed, criteria=wanted,
                                 replicas=int(config.get("replicas", 1000)),
                                 tol_scale=tol_scale, threads=threads)
    rows = [(r["criterion"], r["name"], int(r["pass"]), r["seconds"]) for r in reports]
    write_csv(out / "accept.csv", ["criterion", "name", "pass", "seconds"], rows)
    with open(out / "accept.json", "w") as fh:
        json.dump(reports, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="conehj",
        description="Cone Hamilton-Jacobi experiments: variational solvers, "
                    "convergence studies, conjugation checks, and the SK "
                    "free-energy validator.")
    parser.add_argument("command", choices=sorted(RUNNERS))
    parser.add_argument("--config", required=True, help="JSON experiment config")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--tol-scale", type=float, default=1.0)
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
                                              args.threads, args.tol_scale)
    except KeyError as exc:
        print(f"error: missing config key {exc}", file=sys.stderr)
        return 1
    except (InvalidInputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(summary)
    return code


if __name__ == "__main__":
    sys.exit(main())
