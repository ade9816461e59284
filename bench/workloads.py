"""Workload definitions: the configs each workload hands to ``conehj``.

A workload is a list of CLI calls (one round) plus the checks run on what
those calls wrote.  Configs depend only on the benchmark seed, which is also
passed to every call as ``--seed``.  Within a workload every call of one
kind has the same size, and the size of a round's work does not depend on
the seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from checks import (cell_average_measure, check_compare, check_converge,
                    check_estimates, check_hj_initial_value, check_hj_monotone,
                    check_routes, one_spin_psi_quadrature)

# one fixed increasing convex softplus profile with two kinks, Lipschitz 0.9
SOFTPLUS = {"kind": "softplus",
            "profile": {"weights": [0.4, 0.5], "thresholds": [0.3, 1.2],
                        "scales": [0.4, 0.8]}}
XI_SK = {"poly": {"2": 1.0}}                   # xi(r) = r^2

CONVERGE = {"psi": SOFTPLUS, "xi": XI_SK, "levels": [4, 8, 16, 32],
            "points": 6, "radius": 4.0, "slope_max": -0.4}
COMPARE = {"psi": SOFTPLUS, "xi": XI_SK, "T": 1.0, "dx": 1.0 / 400}

ROUTE_METHODS = ("hopf", "hopf_lax", "hopf_lax_1d")
ROUTE_TIMES = [0.1, 0.5, 1.0]
ROUTE_SAMPLES = 3

SG_TIMES = [0.0, 0.25, 0.5]
SG_MEASURE = {"atoms": [[[0.0]], [[0.3]]], "levels": [0.0, 0.5, 1.0]}
SPINGLASS = {"N_list": [12], "beta": 0.5, "t_list": SG_TIMES,
             "measure": SG_MEASURE, "cascade": {"M": 256}, "replicas": 48,
             "hj_level": 3}


@dataclass(frozen=True)
class Call:
    """One ``conehj`` invocation: command, config file and extra flags."""

    command: str
    config: str
    out: str
    flags: tuple = ()


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    configs: dict          # file name -> config object
    calls: tuple
    check: Callable        # output directory -> list of Check
    check_names: tuple

    def write_configs(self, directory: Path):
        directory.mkdir(parents=True, exist_ok=True)
        for name, cfg in self.configs.items():
            (directory / name).write_text(json.dumps(cfg, indent=1, sort_keys=True))


def route_samples(seed: int) -> list:
    """Monotone nonnegative points of C^3 with increments uniform in [0, 1]."""
    rng = np.random.default_rng(seed)
    return [np.cumsum(rng.uniform(0.0, 1.0, 3)).tolist()
            for _ in range(ROUTE_SAMPLES)]


def _check_separable(out: Path) -> list:
    return [check_converge((out / "converge" / "converge.csv").read_text(),
                           CONVERGE["slope_max"]),
            check_compare((out / "compare" / "compare.csv").read_text(),
                          COMPARE["dx"], COMPARE["T"])]


def _check_routes(out: Path) -> list:
    texts = {m: (out / m / "solve.csv").read_text() for m in ROUTE_METHODS}
    return [check_routes(texts, len(ROUTE_TIMES) * ROUTE_SAMPLES)]


def _check_spin_glass(out: Path) -> list:
    report = (out / "spinglass" / "spinglass_bound.json").read_text()
    estimates = (out / "spinglass" / "spinglass.csv").read_text()
    psi = one_spin_psi_quadrature(SG_MEASURE["atoms"], SG_MEASURE["levels"])
    psi_j = one_spin_psi_quadrature(*cell_average_measure(
        SG_MEASURE["atoms"], SG_MEASURE["levels"], SPINGLASS["hj_level"]))
    return [check_estimates(estimates, psi,
                            len(SPINGLASS["N_list"]) * len(SG_TIMES),
                            SPINGLASS["replicas"]),
            check_hj_initial_value(report, psi_j),
            check_hj_monotone(report, SG_TIMES)]


def make(name: str, seed: int) -> Workload:
    if name == "separable":
        return Workload(name, seed, {"converge.json": CONVERGE,
                                     "compare.json": COMPARE},
                        (Call("converge", "converge.json", "converge"),
                         Call("compare", "compare.json", "compare")),
                        _check_separable, ("converge_decay", "compare_fd_agreement"))
    if name == "routes":
        samples = route_samples(seed)
        configs = {f"solve_{m}.json": {"psi": SOFTPLUS, "xi": XI_SK,
                                       "partition": {"uniform": 3},
                                       "times": ROUTE_TIMES, "samples": samples,
                                       "method": m}
                   for m in ROUTE_METHODS}
        return Workload(name, seed, configs,
                        tuple(Call("solve", f"solve_{m}.json", m)
                              for m in ROUTE_METHODS),
                        _check_routes, ("routes_agreement",))
    if name == "spin-glass":
        return Workload(name, seed, {"spinglass.json": SPINGLASS},
                        (Call("spinglass", "spinglass.json", "spinglass",
                              ("--threads", "2")),),
                        _check_spin_glass,
                        ("spinglass_estimates", "spinglass_f0_psi",
                         "spinglass_hj_monotone"))
    raise KeyError(name)
