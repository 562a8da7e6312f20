"""The four benchmark workloads: their inputs, the reason each exists, and
the verdict checks that decide whether a job was correct.

A workload is a list of steps.  A step is either one ``quadlab`` command
line, driven through ``quadlab.cli.main`` in-process, or one library call.
Every command line carries the workload seed, so equal seeds give equal
inputs.  One pass over the steps is a *job*; ``Workload.check`` turns the
job's outputs into a list of failed checks (empty when the job is correct).

Later changes cite these workload names.  Each ``_steps_*`` method says
which layer its workload stresses and which it bypasses, so a change to one
layer predicts a move on one workload and no change on another; the
benchmark README gives the full reasoning and the per-layer predictions.
"""

from __future__ import annotations

import json
import math
import re

from quadlab import perturb, space, stability

_RUNTIME_LINE = re.compile(r'^\s*"runtime_ms": [^,\n]+,?\n', re.MULTILINE)

# Weights r = 1/3, s = 2/3 used by both certify workloads.
_R, _S = 1.0 / 3.0, 2.0 / 3.0
_NOISE = 0.05
# Triangle-inequality ceiling on the weighted residual of a map whose noise
# has sup-norm below _NOISE per coordinate, over a two-coordinate codomain.
_CODIM2_CEILING = math.sqrt(2.0) * (1.0 + _R + _S + _R * _S) * _NOISE


def strip_runtime(text: str) -> str:
    """Report text without its ``runtime_ms`` line, the one varying field."""
    return _RUNTIME_LINE.sub("", text)


class Workload:
    """One workload's steps, built from a seed, and its verdict checks.

    ``steps`` holds ``("cli", argv, out_path)`` entries (``out_path`` is the
    ``--out`` file, or None when the report goes to stdout) and
    ``("call", label, thunk)`` entries for library calls.
    """

    def __init__(self, name: str, seed: int, tmpdir: str):
        build = getattr(self, f"_steps_{name}", None)
        if build is None:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.seed = seed
        self.tmpdir = tmpdir
        self.steps = build()

    # -- inputs ---------------------------------------------------------

    def _cli(self, line: str, out: str | None = None):
        argv = line.split() + ["--seed", str(self.seed)]
        if out is not None:
            out = f"{self.tmpdir}/{out}"
            argv += ["--emit-samples", "--out", out]
        return ("cli", argv, out)

    def _steps_certify_probes(self):
        """Extraction-bound: 544 + 4x64 one-point extractions, each ~16
        one-row map calls, most of it in the splitmix noise hash.  Stresses
        stability, quadratic.map and perturb.noise; bypasses geometry and
        asymptotics."""
        dim8 = space.euclidean(8)
        f = perturb.make_perturbed(
            perturb.random_symmetric_form(dim8, space.euclidean(2), seed=self.seed),
            perturb.NoiseModel.constant(_NOISE),
        )
        sampler = space.Sampler.restricted_pairs(self.seed, 1000, 2.0)

        def czerwik():
            return stability.verify_czerwik(f, dim8, sampler, probe_count=32)

        return [
            self._cli(
                "certify --dim 8 --codim 2 --r 1/3 --d 1 --noise uniform:0.05 "
                "--samples 1000 --probes 512"
            ),
            ("call", "verify_czerwik", czerwik),
        ]

    def _steps_certify_bulk(self):
        """Sampling- and residual-bound, and writes a file: rejection rounds
        at d=2.95 in a radius-2 ball (about 1/7 accepted), one 200k-row
        residual, and a 6.8 MB emitted CSV.  Stresses space.sample_pairs,
        quadratic.residual and cli output.

        Uniform radii in [0, 2] meet norm(x) + norm(y) >= d with probability
        (4 - d)^2 / 8.  At d = 3 that is exactly 1/8, so the 200k request
        needs 8 or 9 rounds of 200k candidates depending on the seed; at
        d = 2.95 (0.138) it needs 8 rounds for every seed tried, so seeds change
        the inputs but not the amount of work."""
        return [
            self._cli(
                "certify --dim 8 --codim 2 --r 1/3 --d 2.95 --radius-max 2 "
                "--noise uniform:0.05 --samples 200000 --probes 8"
            ),
            self._cli(
                "certify --dim 8 --codim 2 --r 1/3 --d 1 --noise uniform:0.05 "
                "--samples 20000 --probes 8",
                out="bulk.json",
            ),
        ]

    def _steps_geometry_scan(self):
        """Norm-bound, no maps: norm_eval (3,247 calls per 81-pattern scan)
        and the unconstrained d=0 sampler.  Bypasses quadratic, perturb and
        stability, so changes there predict no change here."""
        return [
            self._cli("detect-ip --dim 8 --norm p:3 --samples 200000"),
            self._cli("detect-ip --dim 2 --norm weighted --gram 2,1;1,3 --samples 200000"),
            self._cli("exponents --dim 4 --r 1/3 --samples 20000"),
            self._cli("exponents --dim 4 --norm p:1 --r 1/3 --samples 20000"),
        ]

    def _steps_shell_profile(self):
        """Shell sampler plus 64 residual batches of 5k pairs with hash-free
        noise.  The only workload that runs asymptotics; bypasses the
        restricted-pair sampler and extraction."""
        base = (
            "profile --dim 8 --codim 2 --n-min 1 --n-max 64 --per-shell 5000 "
        )
        return [
            self._cli(base + "--noise decay:1,1 --decay-tol 0.8"),
            self._cli(base + "--noise constant:1 --decay-tol 0.02"),
        ]

    # -- checks ---------------------------------------------------------

    def check(self, outputs: list) -> list[str]:
        """Failed verdict checks for one job's outputs (empty when correct).

        ``outputs[i]`` belongs to ``steps[i]``: for a command line it is a
        dict with ``code``, ``report`` (parsed JSON or None) and ``csv``
        (text or None); for a library call it is the returned object.
        """
        failures: list[str] = []
        try:
            getattr(self, f"_check_{self.name}")(outputs, failures)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            failures.append(f"malformed output: {type(exc).__name__}: {exc}")
        return failures

    @staticmethod
    def _expect(failures: list, ok: bool, what: str):
        if not ok:
            failures.append(what)

    def _check_certificate(self, out: dict, failures: list, step: str):
        results = out["report"]["results"]
        self._expect(failures, out["code"] == 0, f"{step}: exit {out['code']}, expected 0")
        self._expect(failures, results["pass"] is True, f"{step}: certificate did not pass")
        self._expect(failures, results["inconclusive"] is False, f"{step}: inconclusive")
        self._expect(
            failures,
            results["delta_hat"] <= _CODIM2_CEILING,
            f"{step}: delta_hat {results['delta_hat']!r} above ceiling {_CODIM2_CEILING!r}",
        )

    def _check_certify_probes(self, outputs, failures):
        self._check_certificate(outputs[0], failures, "certify")
        rep = outputs[1]
        self._expect(failures, rep.within_bound, "czerwik: half-defect bound violated")
        self._expect(failures, rep.homogeneity_ok, "czerwik: limit not t^2-homogeneous")
        # A constant shift attains the half-defect bound exactly.
        gap = abs(rep.max_deviation - rep.delta_hat / 2.0)
        self._expect(failures, gap <= 1e-9, f"czerwik: bound not attained (gap {gap:.3e})")

    def _check_certify_bulk(self, outputs, failures):
        self._check_certificate(outputs[0], failures, "certify d=3")
        self._check_certificate(outputs[1], failures, "certify emit")
        lines = outputs[1]["csv"].splitlines()
        self._expect(failures, len(lines) == 20001, f"emit: {len(lines)} CSV lines, expected 20001")
        self._expect(failures, lines[0].endswith(",residual_norm"), "emit: bad CSV header")
        csv_max = max(float(line.rpartition(",")[2]) for line in lines[1:])
        delta_hat = outputs[1]["report"]["results"]["delta_hat"]
        self._expect(
            failures,
            csv_max == delta_hat,
            f"emit: CSV max residual {csv_max!r} != delta_hat {delta_hat!r}",
        )

    def _check_geometry_scan(self, outputs, failures):
        p3, weighted, scan_euclid, scan_p1 = outputs
        self._expect(failures, p3["code"] == 1, f"detect-ip p:3: exit {p3['code']}, expected 1")
        self._expect(
            failures, weighted["code"] == 0, f"detect-ip weighted: exit {weighted['code']}, expected 0"
        )
        gram = weighted["report"]["results"]["recovered_gram"]
        err = max(abs(g - e) for row, erow in zip(gram, [[2, 1], [1, 3]]) for g, e in zip(row, erow))
        self._expect(failures, err <= 1e-10, f"detect-ip weighted: Gram off by {err:.3e}")
        for out, expected, label in (
            (scan_euclid, [[2.0, 2.0, 2.0, 2.0]], "euclidean"),
            (scan_p1, [], "p:1"),
        ):
            self._expect(failures, out["code"] == 0, f"exponents {label}: exit {out['code']}")
            flagged = out["report"]["results"]["flagged"]
            self._expect(failures, flagged == expected, f"exponents {label}: flagged {flagged}")

    def _check_shell_profile(self, outputs, failures):
        decay, const = outputs
        # Default weights r = s = 1/2 and an identity form over two output
        # coordinates.  Decaying noise 1/(1+|x|): the sup over a shell of
        # joint radius t sits at pairs with one argument near 0, where each
        # coordinate's residual tends to 1/2 - 2/(2+t) + 1/(4(1+t)); over the
        # tail shells t in [49, 65) that is sqrt(2) times 0.466..0.474, so
        # 0.659..0.670, and the sampled tail max lands at about 0.667.
        # Constant noise c = 1 leaves exactly sqrt(2) * r * s * c everywhere.
        v = decay["report"]["results"]["verdict"]
        self._expect(failures, decay["code"] == 0, f"profile decay: exit {decay['code']}")
        self._expect(
            failures, v["verdict"] == "asymptotically_quadratic", f"profile decay: {v['verdict']}"
        )
        self._expect(
            failures,
            abs(v["tail_max"] - 2.0 / 3.0) <= 0.01,
            f"profile decay: tail max {v['tail_max']!r}, expected about 0.667",
        )
        v = const["report"]["results"]["verdict"]
        self._expect(failures, const["code"] == 1, f"profile constant: exit {const['code']}")
        self._expect(failures, v["verdict"] == "persistent_defect", f"profile constant: {v['verdict']}")
        persistent = math.sqrt(2.0) * 0.25
        self._expect(
            failures,
            abs(v["tail_max"] - persistent) <= 1e-9,
            f"profile constant: tail max {v['tail_max']!r}, expected {persistent!r}",
        )


def report_fingerprint(outputs: list) -> list:
    """What must repeat byte for byte between jobs of one seed.

    Command reports minus ``runtime_ms``, emitted CSV text, and the JSON of
    library reports.
    """
    prints = []
    for out in outputs:
        if isinstance(out, dict):
            prints.append((out["code"], strip_runtime(out["text"]), out["csv"]))
        else:
            prints.append(json.dumps(out.to_dict(), sort_keys=True))
    return prints
