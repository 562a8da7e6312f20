"""Noise models: determinism, exact bounds, and generator validation."""

import warnings
from pathlib import Path

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
from quadlab.errors import DimensionMismatchError
from quadlab.perturb import (
    _GAMMA,
    _MIX_1,
    _MIX_2,
    _SHIFT_1,
    _SHIFT_2,
    _SHIFT_3,
    _hash_unit,
    _mix64,
)

README = Path(__file__).resolve().parent.parent / "README.md"

_HASH_SEEDS = (0, 1, 2**63, 2**64 - 1)
_WORD = 2**64 - 1


def _mix64_reference(z):
    """The splitmix64 finalizer written with a fresh array per step."""
    z = (z + _GAMMA).astype(np.uint64)
    z = ((z ^ (z >> np.uint64(30))) * _MIX_1).astype(np.uint64)
    z = ((z ^ (z >> np.uint64(27))) * _MIX_2).astype(np.uint64)
    return z ^ (z >> np.uint64(31))


def _splitmix64_int(z):
    """The splitmix64 finalizer on one Python int, masked to 64 bits."""
    z = (z + 0x9E3779B97F4A7C15) & _WORD
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _WORD
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _WORD
    return z ^ (z >> 31)


def _hash_unit_reference(rows, seed, codim):
    """The whole noise hash, one row and one lane at a time in Python ints:
    mix the seed, fold in each coordinate's float64 bits and mix, then mix
    the hash with lane k + 1 and keep the top 53 bits."""
    out = []
    for words in rows.view(np.uint64).tolist():
        h = _splitmix64_int(seed)
        for word in words:
            h = _splitmix64_int(h ^ word)
        out.append([(_splitmix64_int(h ^ (k + 1)) >> 11) * 2.0**-53 for k in range(codim)])
    return np.array(out)


def _hash_rows(n, dim, rng):
    """Standard-normal rows with signed zeros, infinities, NaNs (a negative
    and a signalling one), subnormals and huge values written over their
    first entries."""
    specials = np.concatenate(
        [
            [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -2.5e-320, 1e300, -1e300],
            np.array([0x7FF0000000000001], dtype=np.uint64).view(np.float64),
        ]
    )
    rows = rng.standard_normal((n, dim))
    head = min(rows.size, specials.size)
    rows.reshape(-1)[:head] = specials[:head]
    return rows


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

    @pytest.mark.parametrize("seed", _HASH_SEEDS)
    def test_hash_unit_matches_python_int_reference(self, seed):
        rng = np.random.default_rng(seed % 1000)
        for dim in range(1, 10):
            for n in (1, 7, 544):
                rows = _hash_rows(n, dim, rng)
                want = _hash_unit_reference(rows, seed, 4)
                for codim in range(1, 5):
                    got = _hash_unit(rows, seed, codim)
                    assert got.shape == (n, codim)
                    assert np.array_equal(got.view(np.uint64), want[:, :codim].view(np.uint64))

    @pytest.mark.parametrize("seed", _HASH_SEEDS)
    def test_hash_emits_no_warning(self, seed):
        # numpy warns on wraparound in uint64 scalar arithmetic, not in
        # array arithmetic; the hash's modulo-2**64 steps must stay silent.
        model = NoiseModel.uniform_bounded(1.0, seed=seed)
        rows = _hash_rows(7, 3, np.random.default_rng(9))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            noise_values(model, rows, codim=3)
            noise_values(model, rows[0])

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

    def test_readme_pins_the_mixing_constants(self):
        """The README's Determinism section states the constants that fix
        every uniform_bounded noise value."""
        section = README.read_text().split("## Determinism\n", 1)[1].split("\n## ", 1)[0]
        text = " ".join(section.split())
        for constant in (_GAMMA, _MIX_1, _MIX_2):
            assert f"`0x{int(constant):016X}`" in text, hex(constant)
        assert f"shift distances {_SHIFT_1}, {_SHIFT_2} and {_SHIFT_3}" in text


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


def test_sine_frequency_non_finite_entry_is_not_a_shape_error():
    with pytest.raises(ParameterError) as err:
        NoiseModel.sine(1.0, [np.nan, 0.0])
    assert type(err.value) is ParameterError
    assert str(err.value) == "sine frequency must be finite"
    with pytest.raises(DimensionMismatchError):
        NoiseModel.sine(1.0, [[1.0, 0.0]])


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

    def test_make_quadratic_keeps_huge_symmetric_entries_silently(self):
        # Entries near the float64 limit would overflow a sum of the two triangles.
        coeffs = [[1e308, -1.7e308], [-1.7e308, 1.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            form = make_quadratic(euclidean(2), euclidean(1), coeffs)
        assert np.array_equal(form.coeffs[0], coeffs)

    def test_make_quadratic_symmetrizes_huge_entries_without_overflow(self):
        with pytest.warns(UserWarning):
            form = make_quadratic(euclidean(2), euclidean(1), [[1.0, 1.7e308], [1.5e308, 1.0]])
        assert form.coeffs[0, 0, 1] == form.coeffs[0, 1, 0] == 1.6e308

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_make_quadratic_rejects_non_finite_without_a_symmetry_warning(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="finite"):
                make_quadratic(euclidean(2), euclidean(1), [[bad, 0.0], [0.0, 1.0]])
            with pytest.raises(ParameterError, match="finite"):
                make_quadratic(euclidean(2), euclidean(1), [[1.0, bad], [0.0, 1.0]])

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

    def test_odd_witness_non_finite_entry_is_not_a_shape_error(self):
        with pytest.raises(ParameterError) as err:
            make_odd_witness([[np.nan, 0.0]])
        assert type(err.value) is ParameterError
        assert str(err.value) == "witness matrix must be finite"
        with pytest.raises(DimensionMismatchError):
            make_odd_witness(np.ones((1, 2, 2)))

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
