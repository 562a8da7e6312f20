"""Acceptance gate: eight end-to-end criteria, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
Each criterion states its tolerance inline; timing budgets are asserted
where the criterion carries one.
"""

import io
import json
import re
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout

import numpy as np
import pytest

from quadlab import (
    NoiseModel,
    Sampler,
    VERDICT_DECAYING,
    VERDICT_PERSISTENT,
    asymptotic_verdict,
    certify,
    default_exponent_grid,
    detect_inner_product,
    equation_params,
    euclidean,
    exponent_scan,
    extract_quadratic,
    make_odd_witness,
    make_perturbed,
    p_norm,
    random_symmetric_form,
    residual_gq,
    residual_q,
    sample_pairs_restricted,
    shell_delta_profile,
    stability_constants,
    sup_norm,
    weighted_quadratic,
)
from quadlab.cli import main as cli_main


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {label}")
        raise
    print(f"[PASS] criterion {number}: {label}")


def _row_norms(v):
    return np.sqrt(np.sum(np.atleast_2d(v) ** 2, axis=-1))


def test_criterion_1_exact_solutions_kill_both_residuals():
    started = time.perf_counter()
    with criterion(1, "exact forms satisfy both equations to 1e-9 (normalized)"):
        rng = np.random.default_rng(1001)
        weights = [equation_params(r) for r in ("1/2", "1/3", "-1", "2/3")]
        worst = 0.0
        for i in range(20):
            dim = int(rng.integers(1, 9))
            codim = int(rng.integers(1, 4))
            form = random_symmetric_form(euclidean(dim), euclidean(codim), seed=2000 + i)
            xs, ys, *_ = sample_pairs_restricted(
                euclidean(dim), 0.0, Sampler.restricted_pairs(3000 + i, 10_000, 3.0)
            )
            # Normalize by the size of the quantities that cancel.
            scale = 1.0 + _row_norms(form(xs)) + _row_norms(form(ys))
            worst = max(worst, (_row_norms(residual_q(form, xs, ys)) / scale).max())
            for params in weights:
                res = residual_gq(form, params, xs, ys)
                worst = max(worst, (_row_norms(res) / scale).max())
        assert worst <= 1e-9, f"worst normalized residual {worst:.3e}"
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_2_half_defect_bound_is_attained():
    started = time.perf_counter()
    with criterion(2, "constant shifts attain the half-defect bound exactly"):
        space = euclidean(3)
        form = random_symmetric_form(space, euclidean(1), seed=4000)
        for c in (0.05, 1.0, -3.0):
            f = make_perturbed(form, NoiseModel.constant(c))
            xs, ys, *_ = sample_pairs_restricted(
                space, 0.0, Sampler.restricted_pairs(4100, 2000, 2.0)
            )
            delta_hat = float(np.abs(residual_q(f, xs, ys)).max())
            assert abs(delta_hat - 2.0 * abs(c)) <= 1e-10

            probes, *_ = sample_pairs_restricted(
                space, 0.0, Sampler.restricted_pairs(4200, 40, 2.0)
            )
            max_dev = 0.0
            for probe in probes:
                limit, _ = extract_quadratic(f, probe, max_iters=26)
                err = abs(float(limit[0]) - float(form(probe)[0]))
                assert err <= 1e-9 * (1.0 + abs(c))
                max_dev = max(max_dev, abs(float(f(probe)[0]) - float(limit[0])))
            assert abs(max_dev - delta_hat / 2.0) <= 1e-9
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_3_constants_match_closed_forms():
    with criterion(3, "stability constants match the closed forms to 1e-12"):
        c = stability_constants(equation_params("1/2"), d=1.0, delta=0.1)
        for got, want in [
            (c.near_origin_bound, 12.0),
            (c.global_q_bound, 48.0),
            (c.c_restricted, 4.8),
            (c.c_global, 22.8),
            (c.c_approx, 11.4),
        ]:
            assert got == pytest.approx(want, rel=1e-12)
        c = stability_constants(equation_params("1/3"), d=1.0, delta=1.0)
        for got, want in [
            (c.near_origin_bound, 20.0),
            (c.global_q_bound, 80.0),
            (c.c_restricted, 54.0),
            (c.c_global, 256.5),
            (c.c_approx, 128.25),
        ]:
            assert got == pytest.approx(want, rel=1e-12)


def test_criterion_4_certification_is_sound_for_bounded_noise():
    started = time.perf_counter()
    with criterion(4, "bounded-noise certificates pass with in-ceiling defects"):
        for i in range(10):
            form = random_symmetric_form(euclidean(3), euclidean(1), seed=5000 + i)
            for delta0 in (0.01, 0.1):
                for r in ("1/2", "1/3"):
                    params = equation_params(r)
                    f = make_perturbed(
                        form, NoiseModel.uniform_bounded(delta0, seed=5100 + i)
                    )
                    cert = certify(
                        f,
                        params,
                        1.0,
                        euclidean(3),
                        Sampler.restricted_pairs(5200 + i, 600, 2.0),
                    )
                    assert cert.passed is True, (i, delta0, r, cert.warnings)
                    ceiling = (
                        1.0 + abs(params.r) + abs(params.s) + abs(params.rs)
                    ) * delta0
                    assert cert.delta_hat <= ceiling
        elapsed = time.perf_counter() - started
        assert elapsed < 20.0, f"took {elapsed:.1f}s"


def test_criterion_5_linear_witness_residual_closed_form():
    with criterion(5, "linear maps leave weighted residual r*s*L(x) at (x, 0)"):
        params = equation_params("1/2")
        rng = np.random.default_rng(6000)
        for i in range(5):
            L = rng.standard_normal((2, 3))
            f = make_odd_witness(L)
            xs, *_ = sample_pairs_restricted(
                euclidean(3), 0.0, Sampler.restricted_pairs(6100 + i, 1000, 3.0)
            )
            got = residual_gq(f, params, xs, np.zeros_like(xs))
            want = params.rs * (xs @ L.T)
            scale = 1.0 + _row_norms(want)
            assert (_row_norms(got - want) / scale).max() <= 1e-12


def test_criterion_6_geometry_detection_and_exponent_forcing():
    with criterion(6, "inner-product detection and all-squares exponent forcing"):
        sampler = Sampler.restricted_pairs(7000, 400, 2.0)

        verdict = detect_inner_product(euclidean(2), sampler)
        assert verdict.accepted
        assert np.abs(verdict.recovered_gram - np.eye(2)).max() <= 1e-10

        g = np.array([[2.0, 1.0], [1.0, 3.0]])
        verdict = detect_inner_product(weighted_quadratic(g), sampler)
        assert verdict.accepted
        assert np.abs(verdict.recovered_gram - g).max() <= 1e-10

        for space in (p_norm(2, 1.0), p_norm(2, 3.0), sup_norm(2)):
            verdict = detect_inner_product(space, sampler)
            assert not verdict.accepted
            assert verdict.basis_witness_max >= 0.5

        table = exponent_scan(
            euclidean(2),
            equation_params("1/3"),
            default_exponent_grid(),
            Sampler.restricted_pairs(7100, 400, 2.0),
            tol=1e-9,
        )
        assert [e.astuple() for e in table.flagged()] == [(2.0, 2.0, 2.0, 2.0)]


def test_criterion_7_shell_profiles_discriminate_decay_from_persistence():
    started = time.perf_counter()
    with criterion(7, "decay noise reads asymptotically quadratic, constant persists"):
        space = euclidean(6)
        params = equation_params("1/2")
        form = random_symmetric_form(space, euclidean(1), seed=5)

        f_decay = make_perturbed(form, NoiseModel.decay(1.0, alpha=1.0))
        profile = shell_delta_profile(f_decay, params, space, 1, 16, 200, seed=3)
        # At r = s = 1/2 the form's residual vanishes, so shell n sees the
        # noise's alone: D = e((x+y)/2) + e(x-y)/4 - e(x)/2 - e(y)/2, with
        # e(z) = g(|z|), g(t) = 1/(1+t) decreasing and convex, and |x| + |y|
        # in [n, n+1).  |x+y| + |x-y| >= 2 max(|x|, |y|) >= n, and the first
        # two terms are convex in |x+y| along that bound, so they peak at
        # x = -y, at most 1 + g(n)/4; by convexity the last two take at least
        # g((n+1)/2) = 2/(n+3).  So D < 1 + 1/(4(n+1)) - 2/(n+3), and -D <
        # (1 + g(n))/2 - 2/(n+3) - g(n+1)/4 is smaller.  The allowance covers
        # the rounding of form values of at most sum|B| (n+1)^2.
        n = np.arange(1, 17)
        envelope = 1.0 + 1.0 / (4.0 * (n + 1)) - 2.0 / (n + 3)
        allowance = 64.0 * np.finfo(float).eps * (np.abs(form.coeffs).sum() * (n + 1) ** 2 + 1.0)
        excess = profile.deltas - envelope - allowance
        worst = excess.argmax()
        assert excess[worst] <= 0.0, f"shell {n[worst]} is {excess[worst]:.3e} above the bound"
        verdict = asymptotic_verdict(profile, decay_tol=0.6)
        assert verdict.verdict == VERDICT_DECAYING

        f_const = make_perturbed(form, NoiseModel.constant(1.0))
        profile = shell_delta_profile(f_const, params, space, 1, 16, 200, seed=3)
        verdict = asymptotic_verdict(profile, decay_tol=0.02)
        assert verdict.verdict == VERDICT_PERSISTENT

        elapsed = time.perf_counter() - started
        assert elapsed < 15.0, f"took {elapsed:.1f}s"


# Every command-line example the package documents, with its contracted
# exit code.  Criterion 8 runs each twice and demands byte-identical
# reports modulo the runtime_ms line.
CLI_EXAMPLES = [
    (["certify", "--dim", "2", "--r", "1/2", "--d", "1", "--noise",
      "constant:0.05", "--samples", "5000", "--seed", "42"], 0),
    (["certify", "--r", "1/1"], 2),
    (["certify", "--dim", "2", "--noise", "none", "--samples", "1000",
      "--seed", "7"], 0),
    (["detect-ip", "--dim", "3", "--norm", "euclidean", "--seed", "1"], 0),
    (["detect-ip", "--dim", "2", "--norm", "p:1", "--seed", "1"], 1),
    (["detect-ip", "--dim", "2", "--norm", "weighted", "--gram", "2,0;0,3",
      "--seed", "1"], 0),
    (["exponents", "--dim", "2", "--r", "1/3", "--samples", "300",
      "--seed", "9"], 0),
    (["exponents", "--dim", "2", "--grid", "0,2,2,2"], 2),
    (["exponents", "--dim", "2", "--norm", "p:1", "--r", "1/3",
      "--samples", "300", "--seed", "9"], 0),
    (["profile", "--dim", "6", "--noise", "decay:1,1", "--n-min", "1",
      "--n-max", "16", "--per-shell", "200", "--seed", "3",
      "--decay-tol", "0.6"], 0),
    (["profile", "--dim", "6", "--noise", "constant:1", "--n-min", "1",
      "--n-max", "16", "--per-shell", "200", "--seed", "3",
      "--decay-tol", "0.02"], 1),
    (["profile", "--dim", "2", "--n-min", "1", "--n-max", "3",
      "--per-shell", "50"], 2),
    (["residual", "--dim", "1", "--r", "1/3", "--noise", "none",
      "--x", "3", "--y", "0"], 0),
    (["residual", "--dim", "1", "--r", "1/3", "--noise", "constant:5",
      "--x", "3", "--y", "0"], 0),
    (["residual", "--dim", "1", "--map", "cube", "--x", "1", "--y", "1"], 0),
    (["certify", "--r", "-1/7"], 0),
]

_RUNTIME_LINE = re.compile(r'^\s*"runtime_ms": [^,\n]+,?$', re.MULTILINE)


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(list(argv))
    return code, out.getvalue()


def test_criterion_8_cli_examples_are_deterministic():
    with criterion(8, "all documented CLI runs repeat byte-identically"):
        for argv, want_code in CLI_EXAMPLES:
            code_a, out_a = _run_cli(argv)
            code_b, out_b = _run_cli(argv)
            assert code_a == want_code, (argv, code_a)
            assert code_b == want_code
            if want_code == 2:
                assert out_a == out_b == ""
                continue
            assert _RUNTIME_LINE.sub("", out_a) == _RUNTIME_LINE.sub("", out_b), argv

        # Spot facts from the documented examples.
        _, out = _run_cli(CLI_EXAMPLES[0][0])
        results = json.loads(out)["results"]
        assert results["delta_hat"] == pytest.approx(0.0125, rel=1e-9)
        assert results["pass"] is True

        _, out = _run_cli(CLI_EXAMPLES[2][0])
        assert json.loads(out)["results"]["delta_hat"] <= 1e-10

        _, out = _run_cli(CLI_EXAMPLES[5][0])
        gram = np.asarray(json.loads(out)["results"]["recovered_gram"])
        assert np.abs(gram - np.array([[2.0, 0.0], [0.0, 3.0]])).max() <= 1e-10

        _, out = _run_cli(CLI_EXAMPLES[6][0])
        assert json.loads(out)["results"]["flagged"] == [[2.0, 2.0, 2.0, 2.0]]

        _, out = _run_cli(CLI_EXAMPLES[8][0])
        assert json.loads(out)["results"]["flagged"] == []

        _, out = _run_cli(CLI_EXAMPLES[13][0])
        assert json.loads(out)["results"]["gq_residual_norm"] == pytest.approx(
            10.0 / 9.0, rel=1e-12
        )

        _, out = _run_cli(CLI_EXAMPLES[14][0])
        assert json.loads(out)["results"]["q_residual"][0] == pytest.approx(4.0)
