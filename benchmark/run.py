"""quadlab benchmark: time from a command to a checked verdict.

Usage, from the repository root:

    python3 benchmark/run.py --workload certify_probes --seed 1 --seconds 25 --trace 0

Prints every metric by name with its unit, the run environment, and, as the
last line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  See ``benchmark/README.md`` for the workloads and
what each metric should move.

Each workload runs in its own fresh worker process (``worker.py``) against
the package under ``src/``.  BLAS and OpenMP pools are pinned to one thread
in every child, so a job is a single-threaded closed loop.  Set-up cost is
taken from several further fresh processes that only import ``quadlab.cli``
and build the workload's inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

MANIFEST = ROOT / "BENCHMARK.json"

# One thread per BLAS/OpenMP pool (at most nproc): jobs are single-threaded,
# and spare cores absorb noise from the rest of the machine.
THREADS = "1"
_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

# Fresh processes timed for setup_s; the median is reported.
SETUP_PROBES = 7
SETUP_TIMEOUT_S = 10
# The worker gets its measuring time plus room for start-up and the warm-up job.
WORKER_SLACK_S = 60


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in _THREAD_VARS:
        env[var] = THREADS
    return env


def run_worker(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run worker.py to completion; on timeout it is killed and reaped."""
    return subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of fresh processes that import and build inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        done = run_worker(
            ["--setup", "--workload", workload, "--seed", str(seed)], SETUP_TIMEOUT_S
        )
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"set-up process exited {done.returncode}")
    return statistics.median(times)


def tail_note(times: list[float]) -> str:
    """The highest percentile with at least ten jobs beyond it (information)."""
    n = len(times)
    for p in (99, 95, 90, 75, 50):
        if n * (1 - p / 100) >= 10:
            cut = statistics.quantiles(times, n=100, method="inclusive")[p - 1]
            return f"p{p} = {cut:.4f} s over {n} jobs"
    return f"no percentile has 10 jobs beyond it ({n} jobs)"


def main(argv=None) -> int:
    # Workload and metric names and units come from the benchmark manifest.
    manifest = json.loads(MANIFEST.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in manifest["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "quadlab" / "cli.py").is_file():
        print(f"error: no quadlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 1

    setup_s = None if args.trace else setup_seconds(args.workload, args.seed)
    done = run_worker(
        [
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ],
        args.seconds + WORKER_SLACK_S,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"error: worker exited {done.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])

    times, ratios = result["job_times"], result["job_ratios"]
    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        values = dict(result["layers"])
        values["cli.report_bytes"] = result["report_bytes"]
        values["cli.csv_bytes"] = result["csv_bytes"]
        values["trace.overhead_frac"] = (
            statistics.median(result["traced_job_ratios"]) / statistics.median(ratios) - 1.0
        )
    else:
        values = {
            "job_p50_cal": statistics.median(ratios),
            "setup_s": setup_s,
            "peak_rss_mb": result["peak_rss_mb"],
            "ok_frac": (attempted - failed) / attempted,
        }
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in manifest[kind]
    }

    env = dict(result["env"], workload=args.workload, seconds=args.seconds, trace=args.trace)
    print("env " + json.dumps(env, sort_keys=True))
    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{'failed_frac':34s} {failed / attempted:>16.6g} ratio ({failed} of {attempted} jobs)")
    print(f"info: job_p50_s {statistics.median(times):.6g} s, job_min_s {min(times):.6g} s (raw wall time)")
    print(f"info: calibration loop median {statistics.median(result['calibration_times']):.6g} s")
    print(f"info: untraced job time {tail_note(times)}")
    for failure in result["failures"]:
        print(f"check failed: {failure}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
