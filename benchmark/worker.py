"""Runs one workload in this fresh process and prints one JSON line.

Started by ``run.py``, never imported by it, so each workload gets its own
interpreter and ``ru_maxrss`` is that workload's own high-water mark.

Modes:

* ``--setup``: import ``quadlab.cli``, build the workload's inputs, exit.
  ``run.py`` times this whole process as the set-up cost.
* default: one untimed warm-up job, then jobs back to back (a closed loop,
  one job at a time) until ``--seconds`` have passed.  With ``--trace 1``
  jobs alternate untraced and traced, so the two medians give the tracing
  overhead and every traced report is checked byte for byte against the
  untraced warm-up (tracing must change no behaviour).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy
import quadlab
import quadlab.cli as cli
from calibrate import calibration_seconds
from tracer import Tracer, median_metrics
from workloads import Workload, report_fingerprint

ROOT = Path(__file__).resolve().parents[1]


def execute(step):
    """Run one step; command reports are captured, not printed."""
    if step[0] == "call":
        return step[2]()
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(step[1]))
    return code, stdout.getvalue()


def collect(step, raw):
    """Turn a step's raw result into the output the checks read.

    Files a command wrote are read and then removed, so the next job cannot
    pass its checks on this job's files.
    """
    if step[0] == "call":
        return raw
    code, text = raw
    csv = None
    if step[2] is not None:
        out = Path(step[2])
        csv_path = out.with_suffix(".samples.csv")
        text = out.read_text() if out.exists() else ""
        csv = csv_path.read_text() if csv_path.exists() else ""
        out.unlink(missing_ok=True)
        csv_path.unlink(missing_ok=True)
    try:
        report = json.loads(text)
    except ValueError:
        report = None
    return {"code": code, "text": text, "csv": csv, "report": report}


def run_job(workload):
    """One pass over the steps: (seconds, outputs, errors).

    Only the steps are timed; reading back files and checking are not.  A
    step that raises is recorded as an error and the job goes on.
    """
    raws, errors = [], []
    start = time.perf_counter()
    for i, step in enumerate(workload.steps):
        try:
            raws.append(execute(step))
        except Exception:  # a traceback is a failed job, never a stopped run
            raws.append(None)
            errors.append(f"step {i} raised:\n{traceback.format_exc()}")
    elapsed = time.perf_counter() - start
    outputs = [collect(s, r) if r is not None else None for s, r in zip(workload.steps, raws)]
    return elapsed, outputs, errors


def output_bytes(outputs) -> tuple[int, int]:
    report = sum(len(o["text"].encode()) for o in outputs if isinstance(o, dict))
    csv = sum(len(o["csv"].encode()) for o in outputs if isinstance(o, dict) and o["csv"])
    return report, csv


def measure(workload, seconds: float, trace: bool) -> dict:
    """Warm up, then run jobs until ``seconds`` have passed.

    The calibration loop runs before the first job and after every job;
    each job's time is also recorded as a multiple of the mean of the two
    calibration passes around it.
    """
    tracer = Tracer() if trace else None
    _, warm, warm_errors = run_job(workload)
    reference = None if warm_errors else report_fingerprint(warm)
    times = {False: [], True: []}
    ratios = {False: [], True: []}
    layers, failures, calibrations = [], [], [calibration_seconds()]
    attempted = failed = 0
    report_bytes = csv_bytes = 0
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and attempted % 2 == 1
        gc.collect()
        if traced:
            tracer.install()
        try:
            elapsed, outputs, errors = run_job(workload)
        finally:
            if traced:
                tracer.uninstall()
        calibrations.append(calibration_seconds())
        if traced:
            layers.append(tracer.job_metrics())
        problems = list(errors)
        if not errors:
            problems += workload.check(outputs)
            if report_fingerprint(outputs) != reference:
                problems.append(
                    ("traced " if traced else "")
                    + "report bytes differ from the warm-up job's"
                )
            report_bytes, csv_bytes = output_bytes(outputs)
        attempted += 1
        failed += bool(problems)
        failures.extend(problems)
        times[traced].append(elapsed)
        ratios[traced].append(elapsed / ((calibrations[-2] + calibrations[-1]) / 2.0))
        if time.perf_counter() >= deadline and (not trace or times[True]):
            break
    result = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:5],
        "job_times": times[False],
        "job_ratios": ratios[False],
        "calibration_times": calibrations,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "report_bytes": report_bytes,
        "csv_bytes": csv_bytes,
    }
    if trace:
        result["traced_job_ratios"] = ratios[True]
        result["layers"] = median_metrics(layers)
    return result


def environment(seed: int) -> dict:
    return {
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup", action="store_true")
    args = parser.parse_args(argv)

    expected = ROOT / "src" / "quadlab"
    if Path(quadlab.__file__).resolve().parent != expected:
        print(f"error: imported quadlab from {quadlab.__file__}, not {expected}", file=sys.stderr)
        return 1

    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmpdir:
        workload = Workload(args.workload, args.seed, tmpdir)
        if args.setup:
            return 0
        result = measure(workload, args.seconds, bool(args.trace))
    result["env"] = environment(args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
