"""Residuals, parity, polarization, and the derivation-chain identities."""

import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadlab import (
    EquationParams,
    MapHandle,
    ParameterError,
    QuadraticForm,
    Sampler,
    derivation_chain_check,
    equation_params,
    euclidean,
    make_odd_witness,
    make_perturbed,
    NoiseModel,
    parity_decompose,
    random_symmetric_form,
    residual_gq,
    residual_q,
)
from quadlab import cli
from quadlab.errors import DimensionMismatchError
from quadlab.space import form_rows, row_blocks

EPS = np.finfo(np.float64).eps


def _random_form(seed, dim=3, codim=2):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((codim, dim, dim))
    return QuadraticForm((raw + raw.transpose(0, 2, 1)) / 2.0)


def _polarize(f, x, y):
    """Polarization ``(f(x+y) - f(x-y)) / 4`` of a map, from its values."""
    return (f(x + y) - f(x - y)) / 4.0


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

    @pytest.mark.parametrize(
        "r, shown",
        [
            (Fraction(10**400, 3), Fraction(10**400, 3)),
            # An int goes exact, as its Fraction.
            (10**400, Fraction(10**400)),
            (True, True),
            (None, None),
            (1j, 1j),
        ],
        ids=["huge-fraction", "huge-int", "True", "None", "1j"],
    )
    def test_weight_without_a_finite_float_is_a_parameter_error(self, r, shown):
        # The exact branches are checked before float(): 10**400 / 3 has none.
        with pytest.raises(ParameterError) as err:
            equation_params(r)
        assert str(err.value) == f"weight r must be finite, got {shown!r}"


class TestQuadraticForm:
    def test_eval_oracle(self):
        # [[1,2],[2,5]] at (1,1): 1 + 2 + 2 + 5 = 10
        form = QuadraticForm(np.array([[1.0, 2.0], [2.0, 5.0]]))
        assert form([1.0, 1.0]) == np.array([10.0])

    def test_batch_matches_rows(self):
        form = _random_form(1)
        rng = np.random.default_rng(2)
        xs = rng.standard_normal((40, 3))
        rows = np.array([form(x) for x in xs])
        assert np.array_equal(form(xs), rows)

    @pytest.mark.parametrize("codim", [1, 2, 3])
    def test_row_alone_equals_its_row_in_any_batch(self, codim):
        # form_rows adds each row's terms in one order whatever the batch
        # size (two-operand einsums, no BLAS), so no batch needs padding.
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_as_non_finite(self, bad):
        # NaN is unequal to itself, so a symmetry test first would misname it.
        with pytest.raises(ParameterError, match="finite"):
            QuadraticForm(np.array([[bad]]))
        with pytest.raises(ParameterError, match="finite"):
            QuadraticForm(np.array([[1.0, bad], [bad, 1.0]]))

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
        assert _polarize(form, x, y) == pytest.approx(
            form.bilinear(x, y), rel=1e-12, abs=1e-13
        )


class TestFormKernel:
    """``QuadraticForm`` values through ``space.form_rows``."""

    @pytest.mark.parametrize("codim", [1, 2, 3])
    def test_row_alone_equals_its_row_at_chunk_edges(self, codim):
        # Sub-batches that end just inside, on and just past a block edge give
        # each row the bits it has in a batch of three whole row blocks.
        rng = np.random.default_rng(40 + codim)
        for dim in range(1, 9):
            form = _random_form(60 + dim, dim=dim, codim=codim)
            block = next(row_blocks(10**9, codim * dim)).stop
            xs = rng.standard_normal((3 * block, dim)) * 100.0
            ys = rng.standard_normal((3 * block, dim))
            whole, pair = form(xs), form.bilinear(xs, ys)
            for size in (1, 2, block - 1, block, block + 1, block + 2):
                for start in (0, 1, block - 1, 2 * block - 2):
                    rows = slice(start, start + size)
                    assert np.array_equal(form(xs[rows]), whole[rows]), (dim, size, start)
                    assert np.array_equal(
                        form.bilinear(xs[rows], ys[rows]), pair[rows]
                    ), (dim, size, start)

    def test_memory_layout_does_not_change_bits(self):
        form = _random_form(70, dim=5, codim=2)
        xs = np.random.default_rng(71).standard_normal((300, 5))
        assert np.array_equal(form(np.asfortranarray(xs)), form(xs))
        assert np.array_equal(form(np.repeat(xs, 2, axis=1)[:, ::2]), form(xs))

    @pytest.mark.parametrize("codim", [1, 2, 3])
    def test_bilinear_matches_exact_rationals(self, codim):
        # Each product x_i B_k[i, j] y_j passes through two sums of dim terms,
        # so the error is at most gamma_{2 dim} = dim eps / (1 - dim eps)
        # times |x|^T |B_k| |y| (Higham, ch. 3): dim ulps of that scale.
        rng = np.random.default_rng(80 + codim)
        for dim in range(1, 9):
            form = _random_form(90 + dim, dim=dim, codim=codim)
            xs = rng.standard_normal((20, dim))
            ys = rng.standard_normal((20, dim))
            got = form.bilinear(xs, ys)
            for n in range(20):
                for k in range(codim):
                    terms = [
                        Fraction(xs[n, i]) * Fraction(form.coeffs[k, i, j]) * Fraction(ys[n, j])
                        for i in range(dim)
                        for j in range(dim)
                    ]
                    exact = sum(terms)
                    scale = sum(abs(t) for t in terms)
                    gamma = Fraction(dim * EPS) / (1 - Fraction(dim * EPS))
                    bound = gamma * scale
                    assert abs(Fraction(got[n, k]) - exact) <= bound, (dim, n, k)

    @pytest.mark.parametrize("codim", [1, 2, 3])
    def test_negation_scaling_and_parity_are_bitwise(self, codim):
        rng = np.random.default_rng(100 + codim)
        for dim in range(1, 9):
            form = _random_form(110 + dim, dim=dim, codim=codim)
            xs = rng.standard_normal((200, dim)) * 100.0
            values = form(xs)
            assert np.array_equal(form(-xs), values)
            for j in range(-3, 4):
                assert np.array_equal(form(2.0**j * xs), 4.0**j * values), (dim, j)
            even, odd = parity_decompose(form)
            assert np.array_equal(even(xs), values)
            assert np.array_equal(odd(xs), np.zeros_like(values))

    @pytest.mark.parametrize("codim", [1, 2, 3])
    def test_agrees_with_three_operand_einsum(self, codim):
        # The reference is the one-step einsum the two-step kernel replaced;
        # the two differ only in rounding, within 8 ulps of |x|^T |B_k| |y|.
        rng = np.random.default_rng(120 + codim)
        for dim in range(1, 9):
            form = _random_form(130 + dim, dim=dim, codim=codim)
            xs = rng.standard_normal((500, dim)) * 10.0
            ys = rng.standard_normal((500, dim))
            want = np.einsum("ni,kij,nj->nk", xs, form.coeffs, ys)
            scale = np.einsum("ni,kij,nj->nk", np.abs(xs), np.abs(form.coeffs), np.abs(ys))
            assert np.all(np.abs(form.bilinear(xs, ys) - want) <= 8.0 * EPS * scale), dim


# Row entries where a diagonal first stage could lose a dense one's bits:
# signed zeros, subnormals, products that overflow, and non-finite values.
_FINITE_EDGES = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -3e-320, 2.2e-308, 1e308, -1e308)
_NON_FINITE = (np.inf, -np.inf, np.nan)


def _bits(values):
    return values.view(np.int64)


def _dense_flat(form):
    """All of ``form.coeffs`` side by side, as :func:`form_rows` takes them:
    the dense first stage over every slice, repeats included."""
    return form.coeffs.transpose(1, 0, 2).reshape(form.domain_dim, -1)


def _salted_batches(draw, n, dim):
    """Two batches of n rows at scales from 1e-300 to 1e150, salted with
    edge values."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    finite_rate = draw(st.sampled_from([0.0, 0.05, 0.5]))
    non_finite_rate = draw(st.sampled_from([0.0, 1e-5, 0.05]))

    def rows():
        out = rng.standard_normal((n, dim)) * rng.choice([1.0, 1e-160, 1e-300, 1e150], (n, dim))
        for rate, edges in ((finite_rate, _FINITE_EDGES), (non_finite_rate, _NON_FINITE)):
            salted = rng.random((n, dim)) < rate
            out[salted] = rng.choice(edges, salted.sum())
        return out

    return rows(), rows()


def _block_edge_count(draw, width):
    """A batch size from one row to just past two row blocks of ``width``
    values a row."""
    block = next(row_blocks(10**9, width)).stop
    return draw(st.one_of(st.integers(1, 40), st.sampled_from([block, block + 1, 2 * block + 1])))


_COEFF_ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -2.5]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _diagonal_cases(draw):
    """A diagonal form, with ±0 among its diagonal entries, and two batches
    of rows, from one row to just past two row blocks, salted with edge
    values."""
    dim, codim = draw(st.integers(1, 9)), draw(st.integers(1, 3))
    n = _block_edge_count(draw, codim * dim)
    diag = np.array(draw(st.lists(_COEFF_ENTRY, min_size=codim * dim, max_size=codim * dim)))
    coeffs = np.zeros((codim, dim, dim))
    coeffs[:, range(dim), range(dim)] = diag.reshape(codim, dim)
    return (QuadraticForm(coeffs), *_salted_batches(draw, n, dim))


class TestDiagonalForm:
    """A form with diagonal matrices skips ``form_rows``' dense first stage
    and keeps its bits."""

    @settings(max_examples=150, deadline=None)
    @given(_diagonal_cases())
    def test_diagonal_form_matches_the_dense_stage_across_block_edges(self, case):
        form, xs, ys = case
        assert form.diag is not None
        flat = _dense_flat(form)
        assert np.array_equal(_bits(form(xs)), _bits(form_rows(xs, flat, xs)))
        assert np.array_equal(_bits(form.bilinear(xs, ys)), _bits(form_rows(xs, flat, ys)))

    def test_diagonal_form_is_fp_silent_on_overflow_and_non_finite_rows(self):
        form = QuadraticForm(np.stack([np.diag([1e300, -2.0, 0.0]), np.diag([-0.0, 1e-320, 3.0])]))
        xs = np.array(
            [
                [1e300, 1.0, 2.0],
                [np.inf, 1.0, 0.0],
                [-1.0, np.nan, 2.0],
                [0.0, 1.0, -np.inf],
                [-5e-324, -0.0, 1e-300],
            ]
        )
        ys = xs[::-1].copy()
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            values, pairs = form(xs), form.bilinear(xs, ys)
        flat = _dense_flat(form)
        assert np.array_equal(_bits(values), _bits(form_rows(xs, flat, xs)))
        assert np.array_equal(_bits(pairs), _bits(form_rows(xs, flat, ys)))

    def test_diagonal_form_routing_follows_the_off_diagonal_entries(self):
        assert np.array_equal(QuadraticForm(np.eye(3)).diag, np.ones((1, 3)))
        tiny = np.eye(3)
        tiny[0, 2] = tiny[2, 0] = 5e-324
        assert QuadraticForm(tiny).diag is None
        assert random_symmetric_form(euclidean(3), euclidean(2), seed=1).diag is None
        signed = np.full((2, 3, 3), -0.0)
        signed[:, range(3), range(3)] = [[1.0, -3.0, 0.5], [-0.0, 2.0, 7.0]]
        form = QuadraticForm(signed)
        assert np.array_equal(form.diag, signed[:, range(3), range(3)])
        xs = np.random.default_rng(3).standard_normal((50, 3)) * 1e-162
        assert np.array_equal(_bits(form(xs)), _bits(form_rows(xs, _dense_flat(form), xs)))


@st.composite
def _repeated_slice_cases(draw):
    """A form of 1 to 4 slices that repeat a drawn pattern of as many base
    matrices, and two batches of rows salted with edge values, across the
    row blocks of the form's distinct slices.  A base is dense or diagonal
    with a zero at a drawn (i, j) and (j, i), or the base before it with
    that zero's sign flipped: the same values in distinct bits."""
    dim, k = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    bases = []
    for _ in range(k):
        if bases and draw(st.booleans()):
            prev, (i, j) = bases[-1]
            base = prev.copy()
            base[i, j] = base[j, i] = -prev[i, j]
        else:
            i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
            entries = draw(st.lists(_COEFF_ENTRY, min_size=dim * dim, max_size=dim * dim))
            upper = np.array(entries).reshape(dim, dim)
            base = np.where(np.triu(np.ones((dim, dim), dtype=bool)), upper, upper.T)
            if draw(st.booleans()):
                base = np.where(np.eye(dim, dtype=bool), base, 0.0)
            base[i, j] = base[j, i] = draw(st.sampled_from([0.0, -0.0]))
        bases.append((base, (i, j)))
    pattern = draw(st.lists(st.integers(0, k - 1), min_size=k, max_size=k))
    coeffs = np.stack([bases[b][0] for b in pattern])
    distinct = len({piece.tobytes() for piece in coeffs})
    n = _block_edge_count(draw, distinct * dim)
    return (QuadraticForm(coeffs), *_salted_batches(draw, n, dim))


class TestRepeatedSlices:
    """A form evaluates each bitwise distinct slice once and copies its
    column to every output that reads it, with the bits of a form of that
    one slice."""

    @settings(max_examples=150, deadline=None)
    @given(_repeated_slice_cases())
    def test_repeated_slices_give_each_output_its_one_slice_bits(self, case):
        form, xs, ys = case
        coeffs = form.coeffs
        keys = [piece.tobytes() for piece in coeffs]
        assert list(form.columns) == [sorted(set(keys), key=keys.index).index(key) for key in keys]
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            values, pairs = form(xs), form.bilinear(xs, ys)
            for k in range(len(coeffs)):
                alone = QuadraticForm(coeffs[k : k + 1])
                assert np.array_equal(_bits(values[:, k]), _bits(alone(xs)[:, 0])), k
                assert np.array_equal(_bits(pairs[:, k]), _bits(alone.bilinear(xs, ys)[:, 0])), k

    def test_repeated_slices_of_the_identity_form_are_one_slice(self):
        form = cli._form_from({"form": "identity", "dim": 4, "codim": 3, "seed": 0})
        assert form.codomain_dim == 3
        assert form.columns.tolist() == [0, 0, 0]
        assert np.array_equal(form.flat, np.eye(4))
        assert np.array_equal(form.diag, np.ones((1, 4)))

    def test_repeated_slices_keep_signed_zeros_apart(self):
        coeffs = np.zeros((4, 2, 2))
        coeffs[1] = coeffs[3] = -0.0
        form = QuadraticForm(coeffs)
        assert form.columns.tolist() == [0, 1, 0, 1]
        assert form.flat.shape == (2, 4)


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
        assert np.array_equal(_polarize(form, x, y), _polarize(form, y, x))

    def test_additive_in_first_slot(self):
        form = _random_form(22)
        rng = np.random.default_rng(23)
        x1, x2, y = rng.standard_normal((3, 3))
        lhs = _polarize(form, x1 + x2, y)
        rhs = _polarize(form, x1, y) + _polarize(form, x2, y)
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
    def test_wrong_evaluator_shape_is_caught(self):
        f = MapHandle(lambda rows: np.ones((rows.shape[0], 3)), 2, 2)
        with pytest.raises(DimensionMismatchError):
            f(np.zeros(2))
