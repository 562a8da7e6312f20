"""Noise models: determinism, exact bounds, and generator validation."""

import warnings

import numpy as np
import pytest

from quadlab import (
    NoiseModel,
    ParameterError,
    QuadraticForm,
    euclidean,
    make_odd_witness,
    make_perturbed,
    make_quadratic,
    noise_values,
    random_symmetric_form,
)
from quadlab.perturb import _GAMMA, _MIX_1, _MIX_2, _mix64


def _mix64_reference(z):
    """The splitmix64 finalizer written with a fresh array per step."""
    z = (z + _GAMMA).astype(np.uint64)
    z = ((z ^ (z >> np.uint64(30))) * _MIX_1).astype(np.uint64)
    z = ((z ^ (z >> np.uint64(27))) * _MIX_2).astype(np.uint64)
    return z ^ (z >> np.uint64(31))


class TestHashNoise:
    def test_bitwise_determinism(self):
        model = NoiseModel.uniform_bounded(0.3, seed=42)
        rng = np.random.default_rng(0)
        xs = rng.standard_normal((200, 4))
        assert np.array_equal(noise_values(model, xs), noise_values(model, xs))

    def test_rowwise_independence(self):
        # Each row's value depends only on its own bits, so evaluating a
        # sub-batch reproduces the full batch's rows exactly.
        model = NoiseModel.uniform_bounded(1.0, seed=7)
        rng = np.random.default_rng(1)
        xs = rng.standard_normal((50, 3))
        full = noise_values(model, xs, codim=2)
        for k in (0, 17, 49):
            assert np.array_equal(noise_values(model, xs[k], codim=2), full[k])

    def test_strict_bound_holds_pointwise(self):
        delta = 0.05
        model = NoiseModel.uniform_bounded(delta, seed=11)
        rng = np.random.default_rng(2)
        xs = rng.standard_normal((1_000_000, 2)) * 100.0
        vals = noise_values(model, xs)
        assert np.abs(vals).max() < delta

    def test_bound_saturates(self):
        # Values should actually fill out the interval, not hide near zero.
        model = NoiseModel.uniform_bounded(1.0, seed=13)
        rng = np.random.default_rng(3)
        vals = noise_values(model, rng.standard_normal((100_000, 2)))
        assert np.abs(vals).max() > 0.9999
        assert abs(vals.mean()) < 0.01

    def test_seed_changes_values(self):
        rng = np.random.default_rng(4)
        xs = rng.standard_normal((100, 3))
        a = noise_values(NoiseModel.uniform_bounded(1.0, seed=1), xs)
        b = noise_values(NoiseModel.uniform_bounded(1.0, seed=2), xs)
        assert not np.array_equal(a, b)

    def test_input_bits_change_values(self):
        model = NoiseModel.uniform_bounded(1.0, seed=5)
        x = np.array([1.0, 2.0])
        y = np.array([1.0, np.nextafter(2.0, 3.0)])
        assert not np.array_equal(noise_values(model, x), noise_values(model, y))

    def test_codim_lanes_differ(self):
        model = NoiseModel.uniform_bounded(1.0, seed=6)
        rng = np.random.default_rng(5)
        vals = noise_values(model, rng.standard_normal((100, 2)), codim=3)
        assert vals.shape == (100, 3)
        assert not np.array_equal(vals[:, 0], vals[:, 1])


    def test_mix64_matches_reference_and_keeps_input(self):
        rng = np.random.default_rng(8)
        words = np.concatenate(
            [
                np.array([0, 2**64 - 1, 2**63, int(_GAMMA)], dtype=np.uint64),
                rng.integers(0, 2**64, 10_000, dtype=np.uint64, endpoint=False),
            ]
        )
        kept = words.copy()
        assert np.array_equal(_mix64(words), _mix64_reference(words))
        assert np.array_equal(words, kept)


@pytest.mark.parametrize(
    "model",
    [
        NoiseModel.none(),
        NoiseModel.constant(0.4),
        NoiseModel.uniform_bounded(0.2, seed=9),
        NoiseModel.decay(0.5, 0.7),
        NoiseModel.sine(0.3, np.linspace(-2.0, 1.5, 9)),
    ],
    ids=lambda m: m.kind,
)
def test_row_alone_equals_its_row_in_any_batch(model):
    # A matrix-vector product would round a row differently for one row
    # than for many, and by batch size once rows are 8 or more long.
    rng = np.random.default_rng(10)
    xs = rng.standard_normal((64, 9)) * np.exp(rng.uniform(-3.0, 6.0, (64, 1)))
    alone = np.array([noise_values(model, x, codim=2) for x in xs])
    for size in (2, 3, 5, 64):
        batched = np.vstack([noise_values(model, xs[i : i + size], 2) for i in range(0, 64, size)])
        assert np.array_equal(batched, alone), size


class TestOtherNoiseKinds:
    def test_none_is_zero(self):
        vals = noise_values(NoiseModel.none(), np.ones((10, 2)), codim=2)
        assert np.array_equal(vals, np.zeros((10, 2)))

    def test_constant_is_exact(self):
        vals = noise_values(NoiseModel.constant(-2.5), np.ones((10, 3)))
        assert np.array_equal(vals, np.full((10, 1), -2.5))

    def test_decay_matches_closed_form(self):
        model = NoiseModel.decay(3.0, alpha=2.0)
        rng = np.random.default_rng(6)
        xs = rng.standard_normal((100, 3))
        want = 3.0 / (1.0 + np.sum(xs * xs, axis=-1) ** 1.0)
        got = noise_values(model, xs)[:, 0]
        assert got == pytest.approx(want, rel=1e-14)

    def test_decay_vanishes_at_infinity(self):
        model = NoiseModel.decay(1.0)
        far = np.full((1, 2), 1e8)
        assert abs(noise_values(model, far)[0, 0]) < 1e-7

    def test_sine_bound_and_oddness(self):
        model = NoiseModel.sine(0.5, [1.0, -2.0])
        rng = np.random.default_rng(7)
        xs = rng.standard_normal((1000, 2)) * 10.0
        vals = noise_values(model, xs)
        assert np.abs(vals).max() <= 0.5
        flipped = noise_values(model, -xs)
        assert np.abs(vals + flipped).max() <= 1e-15

    def test_sine_dim_mismatch(self):
        model = NoiseModel.sine(1.0, [1.0, 2.0])
        with pytest.raises(Exception):
            noise_values(model, np.ones((3, 3)))

    def test_single_vector_shape(self):
        vals = noise_values(NoiseModel.constant(1.0), np.ones(3), codim=2)
        assert vals.shape == (2,)


class TestValidation:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: NoiseModel(kind="squiggle"),
            lambda: NoiseModel.uniform_bounded(-0.1, seed=0),
            lambda: NoiseModel.uniform_bounded(np.inf, seed=0),
            lambda: NoiseModel.uniform_bounded(1.0, seed=-3),
            lambda: NoiseModel.constant(np.nan),
            lambda: NoiseModel.decay(1.0, alpha=0.0),
            lambda: NoiseModel(kind="sine", c=1.0),
            lambda: NoiseModel.sine(1.0, [np.inf, 0.0]),
        ],
    )
    def test_bad_models_rejected(self, build):
        with pytest.raises(ParameterError):
            build()


class TestGenerators:
    def test_make_quadratic_symmetrizes_with_warning(self):
        space = euclidean(2)
        with pytest.warns(UserWarning):
            form = make_quadratic(space, euclidean(1), [[1.0, 4.0], [0.0, 5.0]])
        want = QuadraticForm(np.array([[1.0, 2.0], [2.0, 5.0]]))
        assert np.array_equal(form.coeffs, want.coeffs)
        x = np.array([1.0, 1.0])
        assert np.array_equal(form(x), want(x))

    def test_make_quadratic_symmetric_input_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            make_quadratic(euclidean(2), euclidean(1), [[1.0, 2.0], [2.0, 5.0]])

    def test_make_quadratic_shape_check(self):
        with pytest.raises(Exception):
            make_quadratic(euclidean(3), euclidean(1), np.ones((2, 2)))

    def test_perturbed_constant_is_exact_sum(self):
        form = random_symmetric_form(euclidean(3), euclidean(2), seed=21)
        f = make_perturbed(form, NoiseModel.constant(0.125))
        rng = np.random.default_rng(8)
        xs = rng.standard_normal((50, 3))
        assert np.array_equal(f(xs), form(xs) + 0.125)

    def test_perturbed_none_equals_form(self):
        form = random_symmetric_form(euclidean(2), euclidean(1), seed=22)
        f = make_perturbed(form, NoiseModel.none())
        rng = np.random.default_rng(9)
        xs = rng.standard_normal((50, 2))
        assert np.array_equal(f(xs), form(xs))

    def test_odd_witness_is_odd_bitwise(self):
        f = make_odd_witness(np.array([[1.0, -0.5], [2.0, 3.0]]))
        rng = np.random.default_rng(10)
        xs = rng.standard_normal((50, 2))
        assert np.array_equal(f(-xs), -f(xs))

    def test_odd_witness_row_vector_input(self):
        f = make_odd_witness([3.0, 4.0])
        assert f.domain_dim == 2 and f.codomain_dim == 1
        assert np.array_equal(f(np.array([1.0, 1.0])), np.array([7.0]))

    def test_random_form_determinism_and_symmetry(self):
        a = random_symmetric_form(euclidean(4), euclidean(2), seed=33)
        b = random_symmetric_form(euclidean(4), euclidean(2), seed=33)
        c = random_symmetric_form(euclidean(4), euclidean(2), seed=34)
        assert np.array_equal(a.coeffs, b.coeffs)
        assert not np.array_equal(a.coeffs, c.coeffs)
        assert np.array_equal(a.coeffs, a.coeffs.transpose(0, 2, 1))

    def test_random_form_scale(self):
        a = random_symmetric_form(euclidean(2), euclidean(1), seed=35)
        b = random_symmetric_form(euclidean(2), euclidean(1), seed=35, scale=2.0)
        assert np.array_equal(2.0 * a.coeffs, b.coeffs)

    def test_random_form_bad_scale(self):
        with pytest.raises(ParameterError):
            random_symmetric_form(euclidean(2), euclidean(1), seed=0, scale=np.nan)
