"""Benchmark of the ``conehj`` command on three workloads.

    python3 bench/run.py --workload {separable,routes,spin-glass} \\
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a source checkout; ``conehj`` is imported from its
``src`` tree, never from an installed copy.  Each workload runs in a fresh
worker process (``worker.py``) with OpenBLAS pinned to one thread.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics ``setup_s``, ``wall_s`` and ``peak_rss_mb``; with
``--trace 1`` it holds the per-layer metrics of one traced round.  A full
record of the run (environment, set-up samples, rounds, checks) is written
to ``.bench_out/`` at the root of the checkout.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SETUP_SAMPLES = 5        # set-up probes, the measured process included
DEADLINE_S = 170.0       # the whole run, probes included
BLAS_THREADS = "1"


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    return env


def _git_sha():
    # a checkout that is not a git work tree has no SHA; never look above it
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _spawn(args, timeout: float) -> float:
    """Run one worker to its end; returns its set-up seconds."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker exceeded {timeout:.0f} s: {' '.join(args)}")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{err.strip()}")
    ready = [ln for ln in out.splitlines() if ln.startswith("READY ")]
    if not ready:
        raise BenchError("worker never reported READY")
    return float(ready[0].split()[1]) - t0


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    if not (ROOT / "src" / "conehj" / "cli.py").is_file():
        raise BenchError(f"no conehj source tree under {ROOT / 'src'}")
    deadline = time.monotonic() + DEADLINE_S
    run_dir = ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}"
    base = ["--workload", workload, "--seed", str(seed)]

    def probe(k):
        return _spawn(base + ["--dir", str(run_dir / f"setup{k}"), "--setup-only"],
                      timeout=deadline - time.monotonic())

    # probes on both sides of the measured run, so that the median spans the
    # machine's slow drift over the whole run rather than one moment of it
    before = SETUP_SAMPLES // 2
    setups = [probe(k) for k in range(before)]
    result_path = run_dir / "worker.json"
    setups.append(_spawn(base + ["--seconds", str(seconds), "--trace", str(trace),
                                 "--dir", str(run_dir), "--result", str(result_path)],
                         timeout=deadline - time.monotonic()))
    setups += [probe(k) for k in range(before, SETUP_SAMPLES - 1)]
    res = json.loads(result_path.read_text())
    env = {"nproc": os.cpu_count(),
           "cpus_allowed": len(os.sched_getaffinity(0)),
           "python": platform.python_version(), **res["versions"],
           "OPENBLAS_NUM_THREADS": BLAS_THREADS, "git_sha": _git_sha()}
    if trace:
        metrics = {m["name"]: {"value": res["layers"].get(m["name"], 0),
                               "unit": m["unit"]} for m in SPEC["per_layer"]}
    else:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
                   "wall_s": {"value": res["wall_s"], "unit": "s"},
                   "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"}}
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "env": env, "setup_samples_s": setups,
              "correct": res["correct"], "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics,
              "rounds": res["rounds"]}
    if trace:
        record["untraced_layers"] = res["untraced_layers"]
    (ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1))
    return record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        rec = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("env: " + json.dumps(rec["env"], sort_keys=True))
    for r in rec["rounds"]:
        print(f"round: wall {r['wall_s']:.3f} s, exit codes {r['exit_codes']}, "
              + "; ".join(f"{c['name']} {'ok' if c['passed'] else 'FAIL'} "
                          f"({c['detail']})" for c in r["checks"]))
    print(json.dumps({"correct": rec["correct"], "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": rec["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
