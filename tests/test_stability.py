"""Stability constants, limit extraction, certification, and the classical
half-defect bound."""

import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from quadlab import (
    ExtractionDiagnostics,
    ExtractionError,
    InfeasibleDomainError,
    MapHandle,
    NoiseModel,
    ParameterError,
    Sampler,
    certify,
    equation_params,
    estimate_delta_restricted,
    euclidean,
    extract_quadratic,
    extract_quadratic_batch,
    make_perturbed,
    norm_eval,
    p_norm,
    random_symmetric_form,
    sample_pairs_restricted,
    stability_constants,
    verify_czerwik,
)
from quadlab.errors import DimensionMismatchError
from quadlab.quadratic import as_map
from quadlab.stability import _probes


SRC = Path(__file__).resolve().parents[1] / "src"

# Prints one digest of sine-noise extraction records (deviations,
# iterations, limits) at dims 2, 3, 8 and 12, and of sine noise values at
# random frequencies.
_SINE_DIGEST = """
import hashlib
import numpy as np
from quadlab import (
    NoiseModel, euclidean, extract_quadratic_batch, make_perturbed, noise_values,
    random_symmetric_form,
)
digest = hashlib.sha256()
for dim in (2, 3, 8, 12):
    rng = np.random.default_rng(dim)
    noise = NoiseModel.sine(0.3, rng.normal(size=dim))
    f = make_perturbed(random_symmetric_form(euclidean(dim), euclidean(2), seed=dim), noise)
    batch = extract_quadratic_batch(f, rng.normal(size=(64, dim)), max_iters=40, tol=1e-14)
    for record in (batch.deviations, batch.iterations, batch.limits):
        digest.update(np.ascontiguousarray(record).tobytes())
    noise = NoiseModel.sine(1.0, 50.0 * rng.normal(size=dim))
    digest.update(noise_values(noise, rng.normal(size=(64, dim)), 2).tobytes())
print(digest.hexdigest())
"""


def _reference_extract(f, x, max_iters=26, tol=1e-10):
    """The one-point extraction loop that the batch engine replaced, kept as
    the reference for the engine's per-row records; its deviations and
    iterate scales are Euclidean norms from ``norm_eval(None, .)``, the norm
    the engine and the reports use."""
    handle = as_map(f)
    point = np.asarray(x, dtype=np.float64)
    prev = handle(point)
    diag = ExtractionDiagnostics(iterations=0, tol=float(tol))
    if not np.all(np.isfinite(prev)):
        raise ExtractionError("map value at the base point is not finite", diag)
    converged = False
    current = prev
    for n in range(1, max_iters + 1):
        value = handle(point * 2.0**n)
        diag.iterations = n
        if not np.all(np.isfinite(value)):
            raise ExtractionError(f"map value became non-finite at scale 2**{n}", diag)
        current = value / 4.0**n
        dev = norm_eval(None, current - prev)
        diag.deviations.append(dev)
        prev = current
        scale = norm_eval(None, current)
        if np.isfinite(dev) and np.isfinite(scale) and dev <= tol * (1.0 + scale):
            converged = True
            break
    diag.converged = converged
    diag.tail_estimate = diag.deviations[-1] / 3.0 if diag.deviations else 0.0
    return current, diag


def _noise(kind, dim):
    return {
        "none": NoiseModel.none(),
        "constant": NoiseModel.constant(0.3),
        "uniform": NoiseModel.uniform_bounded(0.05, seed=dim),
        "decay": NoiseModel.decay(0.5, 0.7),
        "sine": NoiseModel.sine(0.2, np.linspace(-1.5, 2.0, dim)),
    }[kind]


def _same(a, b):
    """Bitwise equal floats, NaN equal to NaN."""
    return a == b or (np.isnan(a) and np.isnan(b))


def _blowup_map(threshold=0.2, rate=5.0):
    """|x|^2 + sin(3 x_2) plus a term that overflows after fewer doublings the
    larger the first coordinate is above ``threshold`` (and never below it)."""

    def evaluator(rows):
        sq = np.sum(rows * rows, axis=1, keepdims=True)
        lead = rows[:, :1]
        blowup = np.where(lead > threshold, np.exp(rate * lead * sq), 0.0)
        return sq + np.sin(3.0 * rows[:, 1:]) + blowup

    return MapHandle(evaluator, 2, 1)


class TestConstants:
    def test_half_weights_closed_form(self):
        # r = s = 1/2: shape factor 12, near-origin factor 3.
        c = stability_constants(equation_params("1/2"), d=1.0, delta=0.1)
        assert c.near_origin_bound == pytest.approx(12.0, rel=1e-12)
        assert c.global_q_bound == pytest.approx(48.0, rel=1e-12)
        assert c.c_restricted == pytest.approx(4.8, rel=1e-12)
        assert c.c_global == pytest.approx(22.8, rel=1e-12)
        assert c.c_approx == pytest.approx(11.4, rel=1e-12)

    def test_third_weights_closed_form(self):
        # r = 1/3: shape factor 13.5, near-origin factor 5.
        c = stability_constants(equation_params("1/3"), d=1.0, delta=1.0)
        assert c.near_origin_bound == pytest.approx(20.0, rel=1e-12)
        assert c.global_q_bound == pytest.approx(80.0, rel=1e-12)
        assert c.c_restricted == pytest.approx(54.0, rel=1e-12)
        assert c.c_global == pytest.approx(256.5, rel=1e-12)
        assert c.c_approx == pytest.approx(128.25, rel=1e-12)

    def test_scaling_in_d_and_delta(self):
        params = equation_params("1/2")
        base = stability_constants(params, d=1.0, delta=1.0)
        scaled = stability_constants(params, d=3.0, delta=0.5)
        assert scaled.near_origin_bound == pytest.approx(3.0 * base.near_origin_bound)
        assert scaled.c_global == pytest.approx(0.5 * base.c_global)

    def test_approx_is_half_of_global(self):
        c = stability_constants(equation_params("2/3"), d=0.7, delta=0.3)
        assert c.c_approx == c.c_global / 2.0
        assert c.global_q_bound == 4.0 * c.near_origin_bound

    def test_small_rs_inflates_constants(self):
        tight = stability_constants(equation_params("1/2"), d=1.0, delta=1.0)
        loose = stability_constants(equation_params("1/100"), d=1.0, delta=1.0)
        assert loose.c_global > 10.0 * tight.c_global

    @pytest.mark.parametrize("d,delta", [(-1.0, 0.1), (np.inf, 0.1), (1.0, -0.1), (1.0, np.nan)])
    def test_bad_inputs(self, d, delta):
        with pytest.raises(ParameterError):
            stability_constants(equation_params("1/2"), d=d, delta=delta)

    def test_to_dict_keys(self):
        d = stability_constants(equation_params("1/2"), d=1.0, delta=0.1).to_dict()
        assert set(d) == {"d", "delta", "M", "K", "C_restricted", "C_global", "C_approx"}


class TestExtraction:
    def test_exact_form_converges_immediately(self):
        form = random_symmetric_form(euclidean(3), euclidean(1), seed=1)
        x = np.array([0.3, -1.2, 0.7])
        value, diag = extract_quadratic(form, x)
        assert diag.iterations == 1
        assert diag.converged
        assert np.array_equal(value, form(x))

    @pytest.mark.parametrize("c", [5.0, -5.0, 0.01])
    def test_constant_shift_converges_to_form(self, c):
        form = random_symmetric_form(euclidean(2), euclidean(1), seed=2)
        f = make_perturbed(form, NoiseModel.constant(c))
        x = np.array([1.0, -0.5])
        value, diag = extract_quadratic(f, x)
        assert diag.converged
        # Iterate n equals form(x) + c / 4^n exactly up to rounding.
        want_err = abs(c) / 4.0**diag.iterations
        assert abs(value[0] - form(x)[0]) <= want_err * 1.01 + 1e-12

    def test_constant_shift_quarter_ratio(self):
        form = random_symmetric_form(euclidean(2), euclidean(1), seed=3)
        f = make_perturbed(form, NoiseModel.constant(2.0))
        _, diag = extract_quadratic(f, np.array([0.8, 0.6]))
        devs = diag.deviations
        assert len(devs) >= 4
        for a, b in zip(devs[1:4], devs[2:5]):
            assert b / a == pytest.approx(0.25, rel=1e-6)

    def test_bounded_noise_limit_is_near_form(self):
        form = random_symmetric_form(euclidean(3), euclidean(2), seed=4)
        f = make_perturbed(form, NoiseModel.uniform_bounded(0.2, seed=5))
        x = np.array([0.5, 1.0, -0.25])
        value, diag = extract_quadratic(f, x)
        assert diag.converged
        assert np.linalg.norm(value - form(x)) <= 0.2

    def test_tail_estimate_is_third_of_last_deviation(self):
        form = random_symmetric_form(euclidean(2), euclidean(1), seed=6)
        f = make_perturbed(form, NoiseModel.constant(1.0))
        _, diag = extract_quadratic(f, np.array([1.0, 0.0]))
        assert diag.tail_estimate == diag.deviations[-1] / 3.0

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflowing_map_raises_with_diagnostics(self):
        quartic = MapHandle(
            lambda rows: 1e300 * np.sum(rows * rows, axis=-1, keepdims=True) ** 2,
            2,
            1,
        )
        with pytest.raises(ExtractionError) as excinfo:
            extract_quadratic(quartic, np.array([1.0, 1.0]))
        diag = excinfo.value.diagnostics
        assert diag is not None and diag.iterations >= 1

    def test_non_finite_base_point(self):
        bad = MapHandle(lambda rows: np.full((rows.shape[0], 1), np.nan), 2, 1)
        with pytest.raises(ExtractionError):
            extract_quadratic(bad, np.ones(2))

    @pytest.mark.parametrize("kwargs", [{"max_iters": 0}, {"max_iters": 2.5}, {"tol": 0.0}, {"tol": np.inf}])
    def test_bad_controls(self, kwargs):
        form = random_symmetric_form(euclidean(2), euclidean(1), seed=7)
        with pytest.raises(ParameterError):
            extract_quadratic(form, np.ones(2), **kwargs)

    def test_point_shape_check(self):
        form = random_symmetric_form(euclidean(2), euclidean(1), seed=8)
        with pytest.raises(DimensionMismatchError):
            extract_quadratic(form, np.ones(3))


class TestBatchExtraction:
    @pytest.mark.parametrize("codim", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["none", "constant", "uniform", "decay", "sine"])
    def test_rows_match_one_point_loop(self, kind, codim):
        rng = np.random.default_rng(codim)
        for dim in range(1, 9):
            form = random_symmetric_form(euclidean(dim), euclidean(codim), seed=10 * dim + codim)
            f = make_perturbed(form, _noise(kind, dim))
            points = rng.standard_normal((24, dim)) * np.exp(rng.uniform(-4.0, 4.0, (24, 1)))
            points[0] = 0.0
            for max_iters, tol in ((26, 1e-10), (3, 1e-10), (26, 1e-14)):
                batch = extract_quadratic_batch(f, points, max_iters=max_iters, tol=tol)
                assert not np.any(batch.failed_at >= 0)
                assert batch.first_failure is None
                for i, point in enumerate(points):
                    value, diag = _reference_extract(f, point, max_iters, tol)
                    assert np.array_equal(batch.limits[i], value), (dim, i)
                    assert batch.iterations[i] == diag.iterations
                    assert batch.converged[i] == diag.converged
                    count = diag.iterations
                    assert batch.deviations[i, :count].tolist() == diag.deviations
                    assert np.all(np.isnan(batch.deviations[i, count:]))
                    assert batch.tail_estimate[i] == diag.tail_estimate
                    assert batch.diagnostics(i) == diag

    def test_short_budget_leaves_rows_unconverged(self):
        form = random_symmetric_form(euclidean(3), euclidean(2), seed=41)
        f = make_perturbed(form, NoiseModel.constant(1.0))
        points = np.random.default_rng(42).standard_normal((10, 3))
        batch = extract_quadratic_batch(f, points, max_iters=3)
        assert not np.any(batch.converged)
        assert np.all(batch.iterations == 3)
        for i, point in enumerate(points):
            value, diag = _reference_extract(f, point, 3)
            assert not diag.converged
            assert np.array_equal(batch.limits[i], value)
            assert batch.diagnostics(i) == diag

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_failed_rows_match_the_loop_error(self):
        f = _blowup_map()
        points = np.random.default_rng(43).uniform(-1.0, 1.0, (40, 2))
        points[5] = np.nan
        batch = extract_quadratic_batch(f, points)
        assert batch.failed_at[5] == 0
        # The base values stay as the map gave them, failed rows included.
        assert np.array_equal(batch.base, f(points), equal_nan=True)
        assert np.any(batch.failed_at > 0) and np.any(batch.failed_at < 0)
        for i, point in enumerate(points):
            try:
                value, diag = _reference_extract(f, point)
            except ExtractionError as exc:
                assert batch.failure(i) == str(exc)
                assert np.all(np.isnan(batch.limits[i]))
                got = batch.diagnostics(i)
                want = exc.diagnostics
                assert got.iterations == want.iterations == batch.failed_at[i]
                assert got.deviations == want.deviations
                assert not got.converged and got.tol == want.tol
                assert np.isnan(got.tail_estimate) and np.isnan(want.tail_estimate)
                with pytest.raises(ExtractionError, match=re.escape(str(exc))):
                    extract_quadratic(f, point)
            else:
                assert batch.failure(i) is None
                assert np.array_equal(batch.limits[i], value)
                assert batch.diagnostics(i) == diag

    def test_one_map_call_per_doubling(self):
        calls = []

        def evaluator(rows):
            calls.append(rows.shape[0])
            return np.sum(rows * rows, axis=1) + 1.0

        f = MapHandle(evaluator, 2, 1)
        points = np.random.default_rng(44).standard_normal((50, 2))
        batch = extract_quadratic_batch(f, points, max_iters=8)
        assert calls[0] == 50
        assert len(calls) == 1 + batch.iterations.max()
        # A row leaves the batch at the doubling it converges.
        for n, rows in enumerate(calls[1:], start=1):
            assert rows == np.count_nonzero(batch.iterations >= n)

    def test_memory_follows_the_doublings_taken(self):
        # A (64, max_iters) deviation record would take 51 MB here; the rows
        # converge within a few dozen doublings.
        form = random_symmetric_form(euclidean(8), euclidean(2), seed=46)
        f = make_perturbed(form, NoiseModel.uniform_bounded(0.05, seed=1))
        points = np.random.default_rng(47).standard_normal((64, 8))
        tracemalloc.start()
        try:
            batch = extract_quadratic_batch(f, points, max_iters=10**5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(batch.converged)
        assert peak < 2**20
        assert batch.deviations.shape == (64, batch.iterations.max())
        reference = extract_quadratic_batch(f, points)
        assert np.array_equal(batch.deviations, reference.deviations, equal_nan=True)
        assert np.array_equal(batch.limits, reference.limits)

    def test_does_not_write_to_its_input(self):
        identity = MapHandle(lambda rows: rows, 2, 2)
        points = np.array([[1.0, 2.0], [3.0, -4.0]])
        kept = points.copy()
        extract_quadratic_batch(identity, points)
        assert np.array_equal(points, kept)

    def test_deep_doublings_end_the_row_not_the_run(self):
        # |r|^2 (1.5 + sin |r|) never settles, so the row reaches doubling
        # 512, where 4.0**n overflows a Python float.
        def evaluator(rows):
            sq = np.sum(rows * rows, axis=1, keepdims=True)
            return sq * (1.5 + np.sin(np.sqrt(sq)))

        wobble = MapHandle(evaluator, 2, 1)
        point = np.array([1e-3, 0.0])
        with np.errstate(over="ignore", invalid="ignore"):
            batch = extract_quadratic_batch(wobble, point[None, :], max_iters=600)
            # |2**n x|^2 overflows at n = 522: the row fails there.
            assert batch.failed_at[0] == batch.iterations[0] == 522
            assert not batch.converged[0]
            with pytest.raises(ExtractionError, match=r"scale 2\*\*522$"):
                extract_quadratic(wobble, point, max_iters=600)

    def test_power_of_two_scaling_keeps_the_float_power_bits(self):
        tiny = np.nextafter(0.0, 1.0)
        values = np.array(
            [1e-3, -2.5, 1.0 - 2**-53, 2.2250738585072014e-308, 3 * tiny, tiny, 0.0, -0.0,
             1e300, np.inf, -np.inf, np.nan]
        )
        with np.errstate(over="ignore"):
            for n in range(1, 512):
                up, down = np.ldexp(values, n), np.ldexp(values, -2 * n)
                assert np.array_equal(up, values * 2.0**n, equal_nan=True)
                assert np.array_equal(down, values / 4.0**n, equal_nan=True)
                assert np.array_equal(np.signbit(down), np.signbit(values / 4.0**n))

    def test_sine_records_do_not_depend_on_the_blas_core_type(self):
        # OPENBLAS_CORETYPE picks OpenBLAS's kernels for one process.  These
        # four run on any x86-64 CPU; forcing a newer type can crash.
        digests = set()
        for core in (None, "Prescott", "Nehalem", "Haswell"):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
            env["PYTHONPATH"] = str(SRC)
            if core:
                env["OPENBLAS_CORETYPE"] = core
            proc = subprocess.run(
                [sys.executable, "-c", _SINE_DIGEST],
                capture_output=True, text=True, env=env, timeout=120, check=True,
            )
            digests.add(proc.stdout)
        assert len(digests) == 1, digests

    @pytest.mark.parametrize("kwargs", [{"max_iters": 0}, {"max_iters": 2.5}, {"tol": 0.0}, {"tol": np.inf}])
    def test_bad_controls(self, kwargs):
        form = random_symmetric_form(euclidean(2), euclidean(1), seed=45)
        with pytest.raises(ParameterError):
            extract_quadratic_batch(form, np.ones((3, 2)), **kwargs)

    @pytest.mark.parametrize("shape", [(2,), (3, 3), (1, 1), (2, 2, 2)])
    def test_point_shape_check(self, shape):
        form = random_symmetric_form(euclidean(2), euclidean(1), seed=46)
        with pytest.raises(DimensionMismatchError, match="rows of length 2"):
            extract_quadratic_batch(form, np.ones(shape))


class TestDeltaEstimate:
    def test_constant_noise_closed_form(self):
        # Constant shift c leaves weighted residual r*s*c everywhere.
        params = equation_params("1/3")
        form = random_symmetric_form(euclidean(2), euclidean(1), seed=9)
        f = make_perturbed(form, NoiseModel.constant(3.0))
        est = estimate_delta_restricted(
            f, params, 1.0, euclidean(2), Sampler.restricted_pairs(10, 400, 2.0)
        )
        assert est == pytest.approx(abs(params.rs) * 3.0, rel=1e-9)

    def test_exact_form_is_rounding_level(self):
        params = equation_params("1/2")
        form = random_symmetric_form(euclidean(3), euclidean(1), seed=11)
        est = estimate_delta_restricted(
            form, params, 0.5, euclidean(3), Sampler.restricted_pairs(12, 400, 2.0)
        )
        assert est <= 1e-10

    def test_bounded_noise_within_triangle_ceiling(self):
        params = equation_params("1/2")
        delta = 0.1
        form = random_symmetric_form(euclidean(2), euclidean(1), seed=13)
        f = make_perturbed(form, NoiseModel.uniform_bounded(delta, seed=14))
        est = estimate_delta_restricted(
            f, params, 1.0, euclidean(2), Sampler.restricted_pairs(15, 2000, 2.0)
        )
        ceiling = (1.0 + abs(params.rs) + abs(params.r) + abs(params.s)) * delta
        assert 0.0 < est <= ceiling

    def test_infeasible_domain_propagates(self):
        params = equation_params("1/2")
        form = random_symmetric_form(euclidean(2), euclidean(1), seed=16)
        with pytest.raises(InfeasibleDomainError):
            estimate_delta_restricted(
                form, params, 10.0, euclidean(2), Sampler.restricted_pairs(17, 10, 2.0)
            )

    def test_dim_mismatch(self):
        params = equation_params("1/2")
        form = random_symmetric_form(euclidean(2), euclidean(1), seed=18)
        with pytest.raises(DimensionMismatchError):
            estimate_delta_restricted(
                form, params, 1.0, euclidean(3), Sampler.restricted_pairs(19, 10, 2.0)
            )


class TestCertify:
    def _bounded_case(self, **kwargs):
        form = random_symmetric_form(euclidean(3), euclidean(1), seed=20)
        f = make_perturbed(form, NoiseModel.uniform_bounded(0.05, seed=21))
        return certify(
            f,
            equation_params("1/2"),
            1.0,
            euclidean(3),
            Sampler.restricted_pairs(22, 500, 2.0),
            **kwargs,
        )

    def test_bounded_noise_passes(self):
        cert = self._bounded_case()
        assert cert.passed is True
        assert not cert.inconclusive
        assert cert.delta_source == "empirical"
        assert cert.constants.delta == cert.delta_hat
        assert cert.bound_used == cert.constants.c_approx
        assert cert.max_deviation <= cert.bound_used
        assert cert.probe_count == 32 + 32

    def test_delta_override_pins_constants(self):
        cert = self._bounded_case(delta_override=0.5)
        assert cert.delta_source == "override"
        assert cert.constants.delta == 0.5
        # delta_hat is still the empirical estimate, reported alongside.
        assert cert.delta_hat != 0.5

    def test_failing_bound(self):
        # Pinning delta far below the true defect makes the bound unmeetable.
        cert = self._bounded_case(delta_override=1e-9)
        assert cert.passed is False
        assert cert.max_deviation > cert.bound_used

    def test_uneven_map_warns(self):
        form = random_symmetric_form(euclidean(2), euclidean(1), seed=23)
        f = make_perturbed(form, NoiseModel.sine(0.5, [1.0, 2.0]))
        cert = certify(
            f,
            equation_params("1/2"),
            1.0,
            euclidean(2),
            Sampler.restricted_pairs(24, 300, 2.0),
        )
        assert cert.evenness_defect > 0.01
        assert any("uneven" in w for w in cert.warnings)

    def test_quasi_norm_warns(self):
        form = random_symmetric_form(euclidean(2), euclidean(1), seed=25)
        cert = certify(
            form,
            equation_params("1/2"),
            1.0,
            p_norm(2, 0.5),
            Sampler.restricted_pairs(26, 200, 2.0),
        )
        assert any("quasi-norm" in w for w in cert.warnings)

    def test_small_weight_product_warns(self):
        form = random_symmetric_form(euclidean(2), euclidean(1), seed=27)
        cert = certify(
            form,
            equation_params("1/100"),
            1.0,
            euclidean(2),
            Sampler.restricted_pairs(28, 200, 2.0),
        )
        assert any("small" in w for w in cert.warnings)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_blowup_is_inconclusive_not_failed(self):
        exploding = MapHandle(
            lambda rows: np.exp(np.sum(rows * rows, axis=-1, keepdims=True)), 2, 1
        )
        cert = certify(
            exploding,
            equation_params("1/2"),
            1.0,
            euclidean(2),
            Sampler.restricted_pairs(29, 100, 2.0),
        )
        assert cert.inconclusive
        assert cert.passed is None
        assert cert.max_deviation is None
        assert any("extraction failed" in w for w in cert.warnings)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_inconclusive_names_the_loop_failure(self):
        # Some probes past the first failing one fail at an earlier doubling;
        # the warning still names the lowest failing probe, and the
        # iteration count covers only the probes before it, as extracting
        # probe by probe and stopping at the first error did.  Seed 1 draws
        # probes whose first failure is probe 4 (about one seed in five gives
        # such a case, with the first failure past probe 0).
        f = _blowup_map()
        params, sp = equation_params("1/2"), euclidean(2)
        sampler = Sampler.restricted_pairs(1, 100, 2.0)
        cert = certify(f, params, 1.0, sp, sampler)
        xs, *_ = sample_pairs_restricted(sp, 1.0, sampler)
        probes = _probes(sp, sampler, xs, 32)
        iterations, message = [], None
        for i, probe in enumerate(probes):
            try:
                _, diag = _reference_extract(f, probe)
            except ExtractionError as exc:
                message = f"extraction failed at probe {i}: {exc}"
                first, first_n = i, exc.diagnostics.iterations
                break
            iterations.append(diag.iterations)
        assert message is not None and first > 0
        later = extract_quadratic_batch(f, probes[first + 1 :])
        assert np.any((later.failed_at > 0) & (later.failed_at < first_n))
        assert later.iterations.max() > max(iterations)
        assert cert.inconclusive and cert.passed is None
        assert cert.warnings[-1] == message
        assert cert.extraction_iterations_max == max(iterations)

    def test_memory_follows_the_chunk_not_the_batch(self):
        # The residual pass streams its pairs: twice the pairs adds only
        # their radii (two floats a pair, 3.2 MB more at 400k), where the
        # whole batch's rows and norms would add 32 MB more.
        space, params = euclidean(8), equation_params("1/3")
        form = random_symmetric_form(space, euclidean(2), seed=1)
        peaks = []
        for count in (200_000, 400_000):
            sampler = Sampler.restricted_pairs(1, count, 2.0)
            tracemalloc.start()
            try:
                certify(form, params, 2.95, space, sampler, probe_count=1, max_iters=2)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 8 * 2**20, peaks

    def test_map_runs_once_at_the_probes(self):
        # The extraction's base values are the map at the probes; the
        # deviation from the limit reads them instead of a second call.
        calls = []

        def evaluator(rows):
            calls.append(rows.copy())
            return np.sum(rows * rows, axis=1) + 0.25

        params, sp = equation_params("1/2"), euclidean(2)
        sampler = Sampler.restricted_pairs(61, 100, 2.0)
        cert = certify(MapHandle(evaluator, 2, 1), params, 1.0, sp, sampler)
        xs, *_ = sample_pairs_restricted(sp, 1.0, sampler)
        probes = _probes(sp, sampler, xs, 32)
        assert sum(np.array_equal(rows, probes) for rows in calls) == 1
        residual_calls = sum(rows.shape[0] == 100 for rows in calls)
        # The residual pass, the probes, their negatives, one per doubling.
        assert len(calls) == residual_calls + 2 + cert.extraction_iterations_max
        assert cert.max_deviation == pytest.approx(0.25, rel=1e-9)

    def test_report_dict_uses_pass_key(self):
        d = self._bounded_case().to_dict()
        assert d["pass"] is True
        assert "passed" not in d
        assert d["constants"]["C_approx"] == d["bound_used"]

    def test_bad_probe_count(self):
        form = random_symmetric_form(euclidean(2), euclidean(1), seed=30)
        with pytest.raises(ParameterError):
            certify(
                form,
                equation_params("1/2"),
                1.0,
                euclidean(2),
                Sampler.restricted_pairs(31, 10, 2.0),
                probe_count=0,
            )
        for bad in (0, -1):
            with pytest.raises(ParameterError):
                verify_czerwik(
                    form, euclidean(2), Sampler.restricted_pairs(31, 10, 2.0), probe_count=bad
                )


class TestClassicalHalfBound:
    def test_constant_shift_is_sharp(self):
        # f = Q + c: residual sup 2|c|, true distance to the limit exactly |c|.
        c = 0.35
        form = random_symmetric_form(euclidean(2), euclidean(1), seed=32)
        f = make_perturbed(form, NoiseModel.constant(c))
        report = verify_czerwik(f, euclidean(2), Sampler.restricted_pairs(33, 400, 2.0))
        assert report.delta_hat == pytest.approx(2.0 * c, rel=1e-9)
        assert report.bound == report.delta_hat / 2.0
        assert report.max_deviation == pytest.approx(c, rel=1e-6)
        assert report.within_bound
        assert report.homogeneity_ok

    def test_exact_form_trivially_within(self):
        form = random_symmetric_form(euclidean(3), euclidean(1), seed=34)
        report = verify_czerwik(form, euclidean(3), Sampler.restricted_pairs(35, 300, 2.0))
        assert report.delta_hat <= 1e-10
        assert report.max_deviation <= report.bound + 1e-9
        assert report.within_bound
        assert report.homogeneity_ok
        assert set(report.homogeneity_defects) == {0.5, 2.0, 3.0}

    def test_homogeneity_defects_are_small(self):
        form = random_symmetric_form(euclidean(2), euclidean(1), seed=36)
        f = make_perturbed(form, NoiseModel.uniform_bounded(0.01, seed=37))
        report = verify_czerwik(f, euclidean(2), Sampler.restricted_pairs(38, 300, 2.0))
        for defect in report.homogeneity_defects.values():
            assert defect <= 1e-6

    def test_dict_round_trip(self):
        form = random_symmetric_form(euclidean(2), euclidean(1), seed=39)
        d = verify_czerwik(form, euclidean(2), Sampler.restricted_pairs(40, 100, 2.0)).to_dict()
        assert d["within_bound"] is True
        assert set(d["homogeneity_defects"]) == {"0.5", "2.0", "3.0"}
