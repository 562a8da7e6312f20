"""Stability constants, limit extraction, certification, and the classical
half-defect bound."""

import numpy as np
import pytest

from quadlab import (
    ExtractionError,
    InfeasibleDomainError,
    NoiseModel,
    ParameterError,
    Sampler,
    certify,
    equation_params,
    estimate_delta_restricted,
    euclidean,
    extract_quadratic,
    make_perturbed,
    map_from_callable,
    map_from_table,
    p_norm,
    random_symmetric_form,
    stability_constants,
    verify_czerwik,
)
from quadlab.errors import DimensionMismatchError


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
        quartic = map_from_callable(
            lambda rows: 1e300 * np.sum(rows * rows, axis=-1, keepdims=True) ** 2,
            2,
            1,
        )
        with pytest.raises(ExtractionError) as excinfo:
            extract_quadratic(quartic, np.array([1.0, 1.0]))
        diag = excinfo.value.diagnostics
        assert diag is not None and diag.iterations >= 1

    def test_non_finite_base_point(self):
        bad = map_from_callable(lambda rows: np.full((rows.shape[0], 1), np.nan), 2, 1)
        with pytest.raises(ExtractionError):
            extract_quadratic(bad, np.ones(2))

    def test_tabulated_map_rejected(self):
        f = map_from_table(np.array([[1.0, 0.0]]), np.array([1.0]))
        with pytest.raises(ParameterError):
            extract_quadratic(f, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("kwargs", [{"max_iters": 0}, {"max_iters": 2.5}, {"tol": 0.0}, {"tol": np.inf}])
    def test_bad_controls(self, kwargs):
        form = random_symmetric_form(euclidean(2), euclidean(1), seed=7)
        with pytest.raises(ParameterError):
            extract_quadratic(form, np.ones(2), **kwargs)

    def test_point_shape_check(self):
        form = random_symmetric_form(euclidean(2), euclidean(1), seed=8)
        with pytest.raises(DimensionMismatchError):
            extract_quadratic(form, np.ones(3))


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
        exploding = map_from_callable(
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
