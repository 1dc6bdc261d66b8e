"""In-process CLI benchmark for affinelogic.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --smoke

One workload runs in one single-threaded process: it imports the program
from ``src/``, generates its inputs from the seed, writes them under
``perfbench/out/``, runs untimed warm-up jobs, then runs whole rounds of
jobs through ``affinelogic.cli.main(argv)`` for at least ``--seconds`` of
job time, checking every output against the benchmark's own computations.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
``--workload all`` runs every workload in its own process and prints a
table.  ``--smoke`` runs one job of each kind of every workload.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from harness import percentile, report_failure, run_job  # noqa: E402

WORKLOADS = {
    "pra-qe": "wl_pra",
    "space-sentences": "wl_spaces",
    "family-lp": "wl_family",
    "mean-validate": "wl_mean",
}
SETUPS = 5  # set-ups per run; setup_s reports their median
TAIL = 90  # the tail percentile reported as job_ms.p90
MIN_JOBS = 100  # so that ten jobs lie beyond the tail percentile
DEADLINE_S = 150.0  # stop starting rounds after this much wall time

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_ms.p50": "ms",
    f"job_ms.p{TAIL}": "ms",
    "job_cpu_ms.p50": "ms",
    "peak_rss_mb": "MB",
}


def import_program():
    """Import affinelogic from this checkout's src/, never from elsewhere."""
    if not (SRC / "affinelogic" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import affinelogic.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "affinelogic").resolve():
        raise SystemExit(f"perfbench: imported affinelogic from {cli.__file__}, not {SRC}")
    return cli


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    cli = import_program()
    import_s = time.perf_counter() - T_START
    tracer = None
    if trace:
        from tracing import SETUP_JOB, WARMUP_JOB, Tracer

        tracer = Tracer()
        tracer.install()
    module = importlib.import_module(WORKLOADS[name])
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{name}-{seed}-{os.getpid()}"
    correct = True
    try:
        setup_times = []
        for _ in range(SETUPS):
            s0 = time.perf_counter()
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            if tracer:
                tracer.job_id = SETUP_JOB
            rounds, warm = module.build(seed, work)
            if tracer:
                tracer.job_id = WARMUP_JOB
            for job in warm:
                outcome = run_job(cli, job)
                if outcome.failed:
                    report_failure(outcome)
                    correct = correct and not outcome.wrong
            setup_times.append(time.perf_counter() - s0)
        gc.collect()

        walls: list[float] = []
        cpus: list[float] = []
        failed = 0
        r = 0
        while sum(walls) < seconds or len(walls) < MIN_JOBS:
            if time.perf_counter() - T_START > DEADLINE_S:
                break
            for job in rounds[r % len(rounds)]:
                if tracer:
                    tracer.job_id = len(walls)
                outcome = run_job(cli, job)
                walls.append(outcome.wall_s)
                cpus.append(outcome.cpu_s)
                if outcome.failed:
                    failed += 1
                    report_failure(outcome)
                    correct = correct and not outcome.wrong
            r += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    end_to_end = {
        "setup_s": import_s + statistics.median(setup_times),
        "jobs_per_s": len(walls) / sum(walls),
        "job_ms.p50": 1000.0 * percentile(walls, 50),
        f"job_ms.p{TAIL}": 1000.0 * percentile(walls, TAIL),
        "job_cpu_ms.p50": 1000.0 * percentile(cpus, 50),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        from tracing import PER_LAYER

        tracer.uninstall()
        tracer.write(str(OUT / f"trace-{name}-s{seed}.spans"))
        # The traced run's own end-to-end figures, for the tracing overhead.
        sys.stderr.write(f"traced {name}: {json.dumps(end_to_end)}\n")
        metrics, units = tracer.layer_metrics(len(walls), SETUPS), PER_LAYER
    else:
        metrics, units = end_to_end, END_TO_END
    return {
        "correct": correct,
        "attempted": len(walls),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def run_smoke(seed: int) -> dict:
    """One job of each kind of every workload, all checks on."""
    cli = import_program()
    OUT.mkdir(exist_ok=True)
    attempted = failed = 0
    correct = True
    for name, modname in WORKLOADS.items():
        work = OUT / f"smoke-{name}-{os.getpid()}"
        try:
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            _, warm = importlib.import_module(modname).build(seed, work)
            for job in warm:
                outcome = run_job(cli, job)
                attempted += 1
                if outcome.failed:
                    failed += 1
                    report_failure(outcome)
                    correct = correct and not outcome.wrong
            print(f"smoke {name}: {len(warm)} jobs")
        finally:
            shutil.rmtree(work, ignore_errors=True)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": {}}


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Each workload in its own process, one after another; prints a table."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, timeout=600, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: workload {name} exited {proc.returncode}")
        res = json.loads(lines[-1])
        results[name] = res
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, correct {res['correct']}")
        for metric, mv in res["metrics"].items():
            print(f"  {metric:32s} {mv['value']:14.4f} {mv['unit']}")
    OUT.mkdir(exist_ok=True)
    (OUT / f"results-s{seed}-t{trace}.json").write_text(json.dumps(results, indent=2) + "\n")
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}/{metric}": mv for name, r in results.items() for metric, mv in r["metrics"].items()
        },
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one job of each kind per workload")
    args = ap.parse_args()
    if args.smoke:
        result = run_smoke(args.seed)
    elif args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    elif args.workload:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        ap.error("give --workload or --smoke")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
