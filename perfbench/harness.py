"""Jobs run in-process through ``affinelogic.cli.main(argv)``.

A job is one or more CLI calls made one after another, each with the exit
codes that count as a correct verdict, and a check that reads the captured
standard outputs.  A job fails if a call exits 2 or with a code it does not
allow, if an exception escapes ``main``, or if its check fails.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Callable

from reference import CheckFailed


@dataclass
class Job:
    kind: str
    calls: list[tuple[list[str], tuple[int, ...]]]  # (argv, exit codes allowed)
    check: Callable[[list[str]], None]  # reads the calls' standard outputs


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    failed: bool
    wrong: bool  # the program answered, and the answer failed its check
    message: str = ""


def _call(cli, argv: list[str]) -> tuple[int | None, str, str]:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # an exception escaping main fails the job; keep its traceback
        return None, out.getvalue(), traceback.format_exc(limit=3)
    return code, out.getvalue(), err.getvalue()


def run_job(cli, job: Job) -> Outcome:
    wall, cpu = time.perf_counter, time.process_time
    outputs: list[str] = []
    problem = ""
    w0, c0 = wall(), cpu()
    for argv, allowed in job.calls:
        code, out, err = _call(cli, argv)
        outputs.append(out)
        if code not in allowed:  # None (an exception) and 2 are never allowed
            problem = f"{job.kind}: {' '.join(argv)[:200]} exited {code}: {err.strip()[-400:]}"
            break
    w1, c1 = wall(), cpu()
    if problem:
        return Outcome(w1 - w0, c1 - c0, True, False, problem)
    try:
        job.check(outputs)
    except (CheckFailed, KeyError, ValueError, TypeError, IndexError) as exc:
        return Outcome(w1 - w0, c1 - c0, True, True, f"{job.kind}: check failed: {exc!r}")
    return Outcome(w1 - w0, c1 - c0, False, False)


def one_per_kind(jobs: list[Job]) -> list[Job]:
    """The first job of each kind, in order: the warm-up and smoke set."""
    seen: dict[str, Job] = {}
    for job in jobs:
        seen.setdefault(job.kind, job)
    return list(seen.values())


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated q-th percentile (0 <= q <= 100)."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def report_failure(outcome: Outcome) -> None:
    sys.stderr.write(outcome.message + "\n")
