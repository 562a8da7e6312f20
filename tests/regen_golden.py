"""Golden digests: the sha256 of every report and emitted CSV the package
documents or benchmarks, at test size.

Each entry is one ``quadlab`` command line or one library call:

* every ``CLI_EXAMPLES`` entry of ``test_acceptance.py``;
* the benchmark's command lines (``benchmark/workloads.py``) at seeds 1-3,
  shrunk to test size;
* ``verify_czerwik(...).to_dict()`` as the benchmark calls it, shrunk the
  same way;
* a few sine-noise command lines at seed 1, whose extraction and noise
  reduce rows of 2 to 12 elements;
* one exponent scan whose norm passes span two row blocks at the small
  blocks of ``test_golden.py``.

A report is digested without its ``runtime_ms`` line, an emitted CSV as
written, and a library report as its sorted JSON.  ``portable`` entries go
only through ``+ - * /``, ``sqrt``, draws from SFC64 streams seeded by
``SeedSequence`` spawn keys (``space.generator``) and the BLAS-free row
kernels (``row_sums`` and the einsums of ``form_rows``), which give the
same bits on every CPU (numpy does not promise a ``Generator``'s stream
across its versions; ``test_space.py`` pins the first draws); an integer
power from 1 to 8 (the p-norm's coordinate powers, the exponent scan, the
``cube`` map, the decay noise) is a product chain (``space._power``), so
it is portable too.  One exception: an accepted ``detect-ip`` reports LAPACK's ``eigvalsh`` as
``gram_min_eigenvalue``, whose last bit may differ by BLAS core type in
larger dims, though not at the dims 2 and 3 pinned here.  ``libm`` entries
also go through numpy's ``pow`` or ``sin``, whose last bit follows numpy's
SIMD dispatch: the p-norm's root ``** (1/p)`` for p other than 1 and 2, a
decay or scan exponent that is not an integer from 1 to 8, and the sine
noise.  (The CSV kernel's ``log10`` changes bits across the dispatch too,
but its shortest-digits search corrects the exponent either way, so no CSV
moves.)  A command line that exits 2 (a usage error) computes nothing, so
it is ``portable`` whatever it names.  A ``portable`` entry has one digest;
a ``libm`` entry has one per dispatch target (:func:`dispatch_target`), and
regenerating computes them under numpy's own pick and, in subprocesses,
with ``NPY_DISABLE_CPU_FEATURES`` set to ``X86_V4`` (as on a CPU without
AVX512) and to ``X86_V4 X86_V3`` (as on one without AVX2 either).  It
refuses to write when a ``portable`` entry differs between the runs.  On a
host with fewer levels, runs that give the same target write it once.

``tests/test_golden.py`` recomputes every entry.  A change that means to
move bytes regenerates the file and lists every moved entry::

    PYTHONPATH=src python tests/regen_golden.py
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from quadlab import (
    NoiseModel,
    Sampler,
    euclidean,
    make_perturbed,
    random_symmetric_form,
    verify_czerwik,
)
from quadlab.cli import main as cli_main
from quadlab.space import _CHAIN_MAX

from test_acceptance import CLI_EXAMPLES

GOLDEN = Path(__file__).with_name("golden.json")

_RUNTIME_LINE = re.compile(r'^\s*"runtime_ms": [^,\n]+,?\n', re.MULTILINE)

# The benchmark's command lines with their sizes cut; the last one emits
# its samples CSV, as the certify_bulk workload's does.
_BENCH_LINES = [
    "certify --dim 8 --codim 2 --r 1/3 --d 1 --noise uniform:0.05 --samples 1000 --probes 512",
    "certify --dim 8 --codim 2 --r 1/3 --d 2.95 --radius-max 2 --noise uniform:0.05 "
    "--samples 20000 --probes 8",
    "detect-ip --dim 8 --norm p:3 --samples 20000",
    "detect-ip --dim 2 --norm weighted --gram 2,1;1,3 --samples 20000",
    "exponents --dim 4 --r 1/3 --samples 20000",
    "exponents --dim 4 --norm p:1 --r 1/3 --samples 20000",
    "profile --dim 8 --codim 2 --n-min 1 --n-max 8 --per-shell 5000 --noise decay:1,1 "
    "--decay-tol 0.8",
    "profile --dim 8 --codim 2 --n-min 1 --n-max 8 --per-shell 5000 --noise constant:1 "
    "--decay-tol 0.02",
]
_EMIT_LINE = (
    "certify --dim 8 --codim 2 --r 1/3 --d 1 --noise uniform:0.05 --samples 20000 --probes 8"
)
_SEEDS = (1, 2, 3)

_SINE_LINES = [
    "certify --dim 3 --codim 2 --noise sine:0.1 --samples 2000 --probes 64",
    "certify --dim 12 --codim 2 --r 1/3 --d 1 --noise sine:0.05 --samples 2000 --probes 64",
    "profile --dim 8 --codim 2 --noise sine:0.3",
    "residual --dim 3 --r 1/3 --noise sine:0.2 --x 1,2,3 --y -2,0.5,1",
]

# 1500 pairs of dim 4: two blocks of 1024 rows at test_golden.py's small
# blocks, a span that no other entry's passes reach.
_TWO_BLOCK_LINE = "exponents --dim 4 --r 1/3 --samples 1500 --seed 1"


# numpy's x86-64 dispatch levels, highest first.
_TARGETS = ("X86_V4", "X86_V3", "X86_V2")

# NPY_DISABLE_CPU_FEATURES of the subprocess runs: numpy's pick one and two
# levels down.
_DISABLED = ("X86_V4", "X86_V4 X86_V3")


def dispatch_target() -> str:
    """The highest x86-64 level numpy dispatches to in this process
    ("baseline" below X86_V2 or off x86-64), the key of a ``libm`` digest."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return next((t for t in _TARGETS if __cpu_features__.get(t)), "baseline")


def _libm(argv) -> bool:
    """Whether a command line's values go through ``pow`` or ``sin``: a
    p-norm's root (p other than 1 and 2), a decay or scan exponent that is
    not an integer from 1 to 8, or the sine noise.  Read from the options
    alone; :func:`compute` files a line that exits 2 as ``portable``."""
    opts = dict(zip(argv, argv[1:]))
    norm, noise, grid = (opts.get(o, "") for o in ("--norm", "--noise", "--grid"))
    exponents = grid.replace(";", ",").split(",") if grid else []
    if noise.startswith("decay:"):
        exponents.append(noise.split(",")[-1])
    return (
        noise.startswith("sine:")
        or (norm.startswith("p:") and float(norm[2:]) not in (1.0, 2.0))
        or not all(float(e) in range(1, _CHAIN_MAX + 1) for e in exponents)
    )


def _run(argv) -> dict:
    """Digests of one command line's report and CSV, run in a scratch
    directory so that a relative ``--out`` names the same file every time."""
    stdout = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
                code = cli_main(list(argv))
            out = {"code": code}
            if "--out" in argv:
                report = Path(argv[argv.index("--out") + 1])
                text = report.read_text()
                out["csv"] = _sha(report.with_suffix(".samples.csv").read_text())
            else:
                text = stdout.getvalue()
        finally:
            os.chdir(cwd)
    out["report"] = _sha(_RUNTIME_LINE.sub("", text))
    return out


def _czerwik(seed: int) -> dict:
    dim8 = euclidean(8)
    f = make_perturbed(
        random_symmetric_form(dim8, euclidean(2), seed=seed), NoiseModel.constant(0.05)
    )
    report = verify_czerwik(f, dim8, Sampler.restricted_pairs(seed, 1000, 2.0), probe_count=32)
    return {"report": _sha(json.dumps(report.to_dict(), sort_keys=True))}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def compute() -> dict:
    """``{group: {name: digests}}`` for every entry."""
    groups = {"portable": {}, "libm": {}}

    def add(argv):
        digests = _run(argv)
        group = "libm" if digests["code"] != 2 and _libm(argv) else "portable"
        groups[group][" ".join(argv)] = digests

    for argv, _ in CLI_EXAMPLES:
        add(argv)
    for seed in _SEEDS:
        for line in _BENCH_LINES:
            add([*line.split(), "--seed", str(seed)])
        add([*_EMIT_LINE.split(), "--seed", str(seed), "--emit-samples", "--out", "bulk.json"])
        groups["portable"][f"verify_czerwik seed {seed}"] = _czerwik(seed)
    for line in _SINE_LINES:
        add([*line.split(), "--seed", "1"])
    add(_TWO_BLOCK_LINE.split())
    return groups


def regenerate() -> dict:
    """:func:`compute` with each ``libm`` entry's digests keyed by dispatch
    target: numpy's own pick here and each ``_DISABLED`` setting in a
    subprocess.  Raises ``SystemExit`` if a ``portable`` entry differs."""
    runs = [{"target": dispatch_target(), "groups": compute()}]
    portable = runs[0]["groups"]["portable"]
    for disabled in _DISABLED:
        other = subprocess.run(
            [sys.executable, __file__, "--json"],
            env={**os.environ, "NPY_DISABLE_CPU_FEATURES": disabled},
            capture_output=True,
            text=True,
            check=True,
        )
        runs.append(json.loads(other.stdout))
        there = runs[-1]["groups"]["portable"]
        moved = [name for name, digests in portable.items() if there[name] != digests]
        if moved:
            raise SystemExit(f"portable entries differ with {disabled} switched off: {moved}")
    libm = {
        name: {run["target"]: run["groups"]["libm"][name] for run in runs}
        for name in runs[0]["groups"]["libm"]
    }
    return {"portable": portable, "libm": libm}


if __name__ == "__main__":
    if sys.argv[1:] == ["--json"]:
        print(json.dumps({"target": dispatch_target(), "groups": compute()}))
    else:
        golden = regenerate()
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        targets = sorted({t for digests in golden["libm"].values() for t in digests})
        print(f"wrote {GOLDEN}; libm digests for {', '.join(targets)}")
