"""One benchmark process: set up a workload, run it through the CLI, check it.

Started by ``run.py``, once per set-up sample (``--setup-only``) and once for
the measured run.  It imports ``conehj`` from the ``src`` tree next to this
directory, writes the workload's configs, and prints ``READY <t>`` with the
monotonic clock; ``run.py`` takes set-up time from its own clock at spawn to
that instant.  The measured run then calls ``conehj.cli.main`` in-process,
round after round, and writes its result as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import conehj.cli  # noqa: E402

import workloads  # noqa: E402
from checks import Check  # noqa: E402


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _versions() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "conehj": conehj.__version__}


def run_round(work, configs: Path, out: Path) -> tuple:
    """All CLI calls of one round.

    Returns the wall seconds of each call inside ``conehj.cli.main``, the CPU
    seconds of all of them, each call's exit code, and what the calls printed.
    """
    if out.exists():
        shutil.rmtree(out)
    walls, cpu, codes, log = [], 0.0, [], io.StringIO()
    for call in work.calls:
        argv = [call.command, "--config", str(configs / call.config),
                "--out", str(out / call.out), "--seed", str(work.seed), *call.flags]
        with contextlib.redirect_stdout(log):
            cpu0, start = _cpu_s(), time.perf_counter()
            try:
                code = conehj.cli.main(argv)
            except Exception:  # a crash is a failed call, not a lost run
                code = "exception"
                traceback.print_exc(file=log)
            walls.append(time.perf_counter() - start)
            cpu += _cpu_s() - cpu0
        codes.append(code)
    return walls, cpu, codes, log.getvalue()


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--dir", required=True, help="scratch directory of this run")
    p.add_argument("--result", help="where the measured run writes its JSON")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(conehj.cli.__file__).resolve().parents:
        print(f"error: conehj was imported from {conehj.cli.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 1
    work = workloads.make(args.workload, args.seed)
    run_dir = Path(args.dir)
    work.write_configs(run_dir / "configs")
    print(f"READY {time.monotonic():.9f}", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    walls, cpus, rounds, failed, attempted = [], [], [], 0, 0
    start = time.perf_counter()
    while True:
        call_walls, cpu, codes, log = run_round(work, run_dir / "configs",
                                                run_dir / "out")
        if not walls:
            # the program's peak, read before the checks allocate; a later
            # round can raise it (allocator arenas of the thread pool), and
            # the round count depends on speed
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wall = sum(call_walls)
        walls.append(wall)
        cpus.append(cpu)
        attempted += len(codes)
        failed += sum(code != 0 for code in codes)
        if all(code == 0 for code in codes):
            round_checks = work.check(run_dir / "out")
        else:
            round_checks = [Check(name, False, "a CLI call failed")
                            for name in work.check_names]
        attempted += len(round_checks)
        failed += sum(not c.passed for c in round_checks)
        rounds.append({"wall_s": wall, "call_wall_s": call_walls, "cpu_s": cpu,
                       "exit_codes": codes,
                       "checks": [c.__dict__ for c in round_checks],
                       "cli_output": log.splitlines()})
        elapsed = time.perf_counter() - start
        # traced runs measure one round: the per-layer counts then repeat
        # exactly.  Otherwise start a round only if it should end in time.
        if tracer or elapsed + statistics.median(walls) > args.seconds:
            break

    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "versions": _versions(),
        "correct": failed == 0,
        "attempted": attempted, "failed": failed,
        "wall_s": statistics.median(walls),
        "peak_rss_mb": peak_rss_mb,
        "rounds": rounds,
    }
    if tracer:
        result["layers"] = tracer.metrics(cpu_s=cpus[0], wall_s=walls[0])
        result["untraced_layers"] = tracer.missing
        tracer.write(run_dir / "trace.json")
    Path(args.result).write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
