"""Self-test of the tracer: tracing must change no behaviour.

For each workload, runs one job untraced and one traced and requires equal
report bytes (minus ``runtime_ms``) and passing checks, then requires that
uninstalling the tracer restored every wrapped function.  Exits 0 when all
hold, 1 otherwise.  Run from the repository root:

    python3 benchmark/selftest.py [--seed S]
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import quadlab  # noqa: E402
import quadlab.cli  # noqa: E402,F401  (loads every quadlab module)
from tracer import Tracer  # noqa: E402
from worker import run_job  # noqa: E402
from workloads import Workload, report_fingerprint  # noqa: E402


def bindings() -> dict:
    """Every function-valued binding the tracer may touch."""
    snapshot = {}
    for key, mod in sys.modules.items():
        if key == "quadlab" or key.startswith("quadlab."):
            for attr, value in vars(mod).items():
                if callable(value):
                    snapshot[(key, attr)] = value
    snapshot["MapHandle.__call__"] = vars(quadlab.MapHandle)["__call__"]
    snapshot["QuadraticForm.__call__"] = vars(quadlab.QuadraticForm)["__call__"]
    return snapshot


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    problems = []
    before = bindings()
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmpdir:
        for name in names:
            workload = Workload(name, args.seed, tmpdir)
            _, plain, errors = run_job(workload)
            tracer = Tracer()
            tracer.install()
            try:
                _, traced, traced_errors = run_job(workload)
            finally:
                tracer.uninstall()
            metrics = tracer.job_metrics()
            problems += [f"{name}: {e}" for e in errors + traced_errors]
            if errors or traced_errors:
                continue
            problems += [f"{name}: {e}" for e in workload.check(plain) + workload.check(traced)]
            if report_fingerprint(plain) != report_fingerprint(traced):
                problems.append(f"{name}: traced report bytes differ from untraced")
            if metrics["cli.self_s"] <= 0.0:
                problems.append(f"{name}: tracer recorded no cli.main span")
            print(f"{name}: traced and untraced reports identical")
    if bindings() != before:
        problems.append("uninstall left a wrapped function bound")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
