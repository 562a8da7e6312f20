"""Residuals, parity, polarization, and the derivation-chain identities."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadlab import (
    EquationParams,
    ParameterError,
    QuadraticForm,
    Sampler,
    derivation_chain_check,
    equation_params,
    euclidean,
    make_odd_witness,
    make_perturbed,
    map_from_callable,
    map_from_table,
    NoiseModel,
    parity_decompose,
    polarize,
    quad_eval,
    residual_gq,
    residual_q,
)
from quadlab.errors import DimensionMismatchError


def _random_form(seed, dim=3, codim=2):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((codim, dim, dim))
    return QuadraticForm((raw + raw.transpose(0, 2, 1)) / 2.0)


class TestEquationParams:
    def test_fraction_string_is_exact(self):
        params = equation_params("1/3")
        assert params.rational_r
        assert params.rational == Fraction(1, 3)
        assert params.r == float(Fraction(1, 3))
        assert params.s == float(Fraction(2, 3))

    def test_decimal_is_not_rational(self):
        params = equation_params(0.4)
        assert not params.rational_r
        assert params.s == 0.6

    def test_decimal_string(self):
        assert equation_params("0.25").r == 0.25

    def test_r_one_is_rejected(self):
        with pytest.raises(ParameterError):
            equation_params("1/1")

    def test_r_zero_is_rejected(self):
        with pytest.raises(ParameterError):
            equation_params(0.0)

    def test_integer_r_goes_exact(self):
        params = equation_params(-1)
        assert params.rational == Fraction(-1)
        assert params.s == 2.0

    def test_direct_construction_validates_s(self):
        with pytest.raises(ParameterError):
            EquationParams(r=0.5, s=0.4)

    def test_small_rs_flag(self):
        assert equation_params("1/200").small_rs
        assert not equation_params("1/2").small_rs

    def test_garbage_string(self):
        with pytest.raises(ParameterError):
            equation_params("one half")
        with pytest.raises(ParameterError):
            equation_params("1/0")


class TestQuadraticForm:
    def test_eval_oracle(self):
        # [[1,2],[2,5]] at (1,1): 1 + 2 + 2 + 5 = 10
        form = QuadraticForm(np.array([[1.0, 2.0], [2.0, 5.0]]))
        assert quad_eval(form, [1.0, 1.0]) == np.array([10.0])

    def test_batch_matches_rows(self):
        form = _random_form(1)
        rng = np.random.default_rng(2)
        xs = rng.standard_normal((40, 3))
        rows = np.array([form(x) for x in xs])
        assert np.array_equal(form(xs), rows)

    @pytest.mark.parametrize("codim", [1, 2, 3])
    def test_row_alone_equals_its_row_in_any_batch(self, codim):
        # einsum sums a 2-variable, 1-output form in another order for one or
        # two rows than for more; evaluation pads small batches so it cannot.
        rng = np.random.default_rng(codim)
        for dim in range(1, 9):
            form = _random_form(dim, dim=dim, codim=codim)
            xs = rng.standard_normal((60, dim)) * 100.0
            alone = np.array([form(x) for x in xs])
            for size in (1, 2, 3, 4, 60):
                batched = np.vstack([form(xs[i : i + size]) for i in range(0, 60, size)])
                assert np.array_equal(batched, alone), (dim, size)

    def test_rejects_asymmetric(self):
        with pytest.raises(ParameterError):
            QuadraticForm(np.array([[1.0, 2.0], [0.0, 5.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatchError):
            QuadraticForm(np.ones((2, 3)))

    def test_coeffs_frozen(self):
        form = _random_form(3)
        with pytest.raises(ValueError):
            form.coeffs[0, 0, 0] = 7.0

    def test_rejects_stacked_batches(self):
        form = _random_form(3)
        batch = np.zeros((2, 3, 3))
        with pytest.raises(DimensionMismatchError):
            form.bilinear(batch, batch)
        with pytest.raises(DimensionMismatchError):
            form(batch)

    def test_bilinear_agrees_with_polarization(self):
        form = _random_form(4)
        rng = np.random.default_rng(5)
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        assert polarize(form, x, y) == pytest.approx(
            form.bilinear(x, y), rel=1e-12, abs=1e-13
        )


class TestResiduals:
    def test_exact_form_kills_classical_residual(self):
        form = _random_form(6)
        rng = np.random.default_rng(7)
        xs = rng.standard_normal((500, 3))
        ys = rng.standard_normal((500, 3))
        res = residual_q(form, xs, ys)
        scale = 1.0 + np.abs(form(xs)).max() + np.abs(form(ys)).max()
        assert np.abs(res).max() <= 1e-12 * scale

    @pytest.mark.parametrize("r", ["1/2", "1/3", "-1", "2/3"])
    def test_exact_form_kills_weighted_residual(self, r):
        params = equation_params(r)
        form = _random_form(8)
        rng = np.random.default_rng(9)
        xs = rng.standard_normal((500, 3))
        ys = rng.standard_normal((500, 3))
        res = residual_gq(form, params, xs, ys)
        scale = 1.0 + np.abs(form(xs)).max() + np.abs(form(ys)).max()
        assert np.abs(res).max() <= 1e-12 * scale

    def test_constant_shift_closed_forms(self):
        # f = Q + c: classical residual is -2c, weighted residual is r*s*c.
        c = 0.7
        form = _random_form(10, dim=2, codim=1)
        f = make_perturbed(form, NoiseModel.constant(c))
        params = equation_params("1/3")
        rng = np.random.default_rng(11)
        xs = rng.standard_normal((200, 2))
        ys = rng.standard_normal((200, 2))
        tol = 1e-12 * (1.0 + abs(c)) + 1e-11 * np.abs(form(xs)).max()
        assert np.abs(residual_q(f, xs, ys) + 2.0 * c).max() <= tol
        assert np.abs(residual_gq(f, params, xs, ys) - params.rs * c).max() <= tol

    def test_odd_witness_weighted_residual_at_y_zero(self):
        # Linear maps leave residual r*s*L(x) at (x, 0).
        L = np.array([[2.0, -1.0]])
        f = make_odd_witness(L)
        params = equation_params("1/2")
        x = np.array([3.0, 1.0])
        got = residual_gq(f, params, x, np.zeros(2))
        want = params.rs * (L @ x)
        assert got == pytest.approx(want, rel=1e-13)

    def test_linear_map_classical_residual_closed_form(self):
        # L(x+y) + L(x-y) - 2 L(x) - 2 L(y) = -2 L(y).
        L = np.array([[1.0, 2.0], [0.5, -1.0]])
        f = make_odd_witness(L)
        rng = np.random.default_rng(12)
        xs = rng.standard_normal((100, 2))
        ys = rng.standard_normal((100, 2))
        got = residual_q(f, xs, ys)
        want = -2.0 * ys @ L.T
        assert np.abs(got - want).max() <= 1e-13

    def test_single_vector_matches_batch(self):
        form = _random_form(13)
        params = equation_params("2/3")
        rng = np.random.default_rng(14)
        xs = rng.standard_normal((5, 3))
        ys = rng.standard_normal((5, 3))
        batch = residual_gq(form, params, xs, ys)
        for i in range(5):
            assert np.array_equal(residual_gq(form, params, xs[i], ys[i]), batch[i])

    def test_shape_mismatch(self):
        form = _random_form(15)
        with pytest.raises(DimensionMismatchError):
            residual_q(form, np.zeros(3), np.zeros(2))

    def test_plain_callable_needs_wrapping(self):
        with pytest.raises(ParameterError):
            residual_q(lambda x: x, np.zeros(2), np.zeros(2))


class TestParity:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_recomposition_within_rounding(self, seed):
        form = _random_form(16, dim=2, codim=1)
        f = make_perturbed(form, NoiseModel.uniform_bounded(0.5, seed=99))
        even, odd = parity_decompose(f)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(2) * 3.0
        resid = np.abs(even(x) + odd(x) - f(x)).max()
        scale = 1.0 + np.abs(f(x)).max() + np.abs(f(-x)).max()
        assert resid <= 1e-12 * scale

    def test_even_part_is_even_bitwise(self):
        f = make_perturbed(_random_form(17, codim=1, dim=3), NoiseModel.constant(0.3))
        even, odd = parity_decompose(f)
        rng = np.random.default_rng(18)
        xs = rng.standard_normal((50, 3))
        assert np.array_equal(even(xs), even(-xs))
        assert np.array_equal(odd(-xs), -odd(xs))

    def test_odd_part_of_linear_map_is_whole_map(self):
        f = make_odd_witness(np.array([[1.0, -2.0, 0.5]]))
        even, odd = parity_decompose(f)
        rng = np.random.default_rng(19)
        xs = rng.standard_normal((50, 3))
        assert np.abs(even(xs)).max() <= 1e-15
        assert odd(xs) == pytest.approx(f(xs), rel=1e-15)


class TestPolarization:
    def test_symmetric_in_arguments_for_forms(self):
        form = _random_form(20)
        rng = np.random.default_rng(21)
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        assert np.array_equal(polarize(form, x, y), polarize(form, y, x))

    def test_additive_in_first_slot(self):
        form = _random_form(22)
        rng = np.random.default_rng(23)
        x1, x2, y = rng.standard_normal((3, 3))
        lhs = polarize(form, x1 + x2, y)
        rhs = polarize(form, x1, y) + polarize(form, x2, y)
        scale = 1.0 + np.abs(lhs).max()
        assert np.abs(lhs - rhs).max() <= 1e-10 * scale


class TestDerivationChain:
    def test_exact_solution_drives_all_identities_to_rounding(self):
        form = _random_form(24, dim=3, codim=1)
        params = equation_params("1/2")
        report = derivation_chain_check(
            form, params, euclidean(3), Sampler.restricted_pairs(25, 300, 2.0)
        )
        assert set(report.defects) == {
            "odd_r_scaling",
            "odd_s_scaling",
            "even_doubling",
            "even_cross_expansion",
        }
        assert report.max_defect <= 1e-10

    def test_constant_shift_breaks_even_identities_by_closed_form(self):
        # f = Q + c has even part Q + c: doubling defect 3|c|, cross
        # expansion defect |c|; the odd identities stay at rounding level.
        c = 0.25
        form = _random_form(26, dim=2, codim=1)
        f = make_perturbed(form, NoiseModel.constant(c))
        report = derivation_chain_check(
            f,
            equation_params("1/2"),
            euclidean(2),
            Sampler.restricted_pairs(27, 200, 2.0),
        )
        assert report.defects["even_doubling"] == pytest.approx(3.0 * c, rel=1e-10)
        assert report.defects["even_cross_expansion"] == pytest.approx(c, rel=1e-10)
        assert report.defects["odd_r_scaling"] <= 1e-12
        assert report.defects["odd_s_scaling"] <= 1e-12

    def test_odd_sine_noise_breaks_odd_identities(self):
        form = _random_form(28, dim=2, codim=1)
        f = make_perturbed(form, NoiseModel.sine(0.5, [1.0, 1.0]))
        report = derivation_chain_check(
            f,
            equation_params("1/2"),
            euclidean(2),
            Sampler.restricted_pairs(29, 300, 2.0),
        )
        assert report.defects["odd_r_scaling"] > 0.01
        assert report.defects["even_doubling"] <= 1e-12


class TestMapHandles:
    def test_tabulated_exact_lookup(self):
        points = np.array([[1.0, 2.0], [3.0, 4.0]])
        values = np.array([10.0, 20.0])
        f = map_from_table(points, values)
        assert f.tabulated
        assert f(np.array([3.0, 4.0])) == np.array([20.0])
        with pytest.raises(ParameterError):
            f(np.array([0.0, 0.0]))

    def test_row_loop_wrapper_matches_vectorized(self):
        def scalar(v):
            return float(v @ v)

        f_slow = map_from_callable(scalar, 3, 1, vectorized=False)
        f_fast = map_from_callable(
            lambda rows: np.sum(rows * rows, axis=-1, keepdims=True), 3, 1
        )
        rng = np.random.default_rng(30)
        xs = rng.standard_normal((20, 3))
        assert f_slow(xs) == pytest.approx(f_fast(xs), rel=1e-15)

    def test_wrong_evaluator_shape_is_caught(self):
        f = map_from_callable(lambda rows: np.ones((rows.shape[0], 3)), 2, 2)
        with pytest.raises(DimensionMismatchError):
            f(np.zeros(2))
