"""Norm evaluation and sampler contracts."""

import copy
import json
import pickle
import sys
import threading
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadlab import (
    Exponents,
    InfeasibleDomainError,
    MapHandle,
    NoiseModel,
    PairSample,
    ParameterError,
    Sampler,
    SpaceSpec,
    certify,
    derivation_chain_check,
    equation_params,
    euclidean,
    extract_quadratic_batch,
    gq_norm_defect,
    make_perturbed,
    noise_values,
    norm_eval,
    p_norm,
    parallelogram_defect,
    random_symmetric_form,
    residual_gq,
    sample_pairs_restricted,
    shell_delta_profile,
    sup_norm,
    verify_czerwik,
    weighted_quadratic,
)
from quadlab import quadratic as quadratic_module
from quadlab import space as space_module
from quadlab import stability as stability_module
from quadlab.errors import DimensionMismatchError
from quadlab.space import form_rows, row_blocks, row_sums

EPS = np.finfo(np.float64).eps


class TestNormValues:
    def test_euclidean_345(self):
        assert norm_eval(euclidean(2), [3.0, 4.0]) == 5.0

    def test_sup_norm(self):
        assert norm_eval(sup_norm(2), [3.0, -4.0]) == 4.0

    def test_one_norm(self):
        assert norm_eval(p_norm(2, 1.0), [3.0, -4.0]) == 7.0

    def test_three_norm(self):
        got = norm_eval(p_norm(2, 3.0), [3.0, 4.0])
        assert got == pytest.approx((27.0 + 64.0) ** (1.0 / 3.0), rel=1e-14)

    def test_weighted_diagonal(self):
        space = weighted_quadratic([[2.0, 0.0], [0.0, 3.0]])
        assert norm_eval(space, [1.0, 1.0]) == pytest.approx(np.sqrt(5.0), rel=1e-14)

    def test_batch_matches_rows(self):
        # Bitwise: one vector is evaluated as a one-row batch.
        space = p_norm(3, 1.5)
        rng = np.random.default_rng(0)
        batch = rng.standard_normal((50, 3))
        rows = np.array([norm_eval(space, row) for row in batch])
        assert np.array_equal(norm_eval(space, batch), rows)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            norm_eval(euclidean(3), [1.0, 2.0])


@settings(max_examples=60, deadline=None)
@given(
    t=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False).filter(
        lambda v: abs(v) > 1e-6
    ),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_absolute_homogeneity(t, seed):
    """n(t x) = |t| n(x) to relative rounding for every norm kind."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(4)
    spaces = [
        euclidean(4),
        sup_norm(4),
        p_norm(4, 1.0),
        p_norm(4, 3.0),
        weighted_quadratic(np.diag([1.0, 2.0, 3.0, 4.0])),
    ]
    for space in spaces:
        lhs = norm_eval(space, t * x)
        rhs = abs(t) * norm_eval(space, x)
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-300)


def _every_norm_kind(dim):
    gram = np.eye(dim) + 0.25 * np.ones((dim, dim))
    return [
        euclidean(dim),
        sup_norm(dim),
        p_norm(dim, 0.5),
        p_norm(dim, 1.0),
        p_norm(dim, 1.5),
        p_norm(dim, 3.0),
        weighted_quadratic(gram),
    ]


_PARAMS = equation_params("1/3")
# Exponents 3 and 1.5 go through pow, not a square.
_EXPONENTS = Exponents(3.0, 1.5, 2.0, 1.0)


def _pair_kernels(dim):
    """(label, fn(x, y)) for each entry point that evaluates vectors or pairs."""
    form = random_symmetric_form(euclidean(dim), euclidean(2), seed=dim)
    kernels = [("bilinear", form.bilinear)]
    for space in _every_norm_kind(dim):
        name = space.norm_kind if space.p is None else f"p{space.p:g}"
        kernels += [
            (f"norm_eval[{name}]", lambda x, y, s=space: norm_eval(s, x)),
            (f"parallelogram_defect[{name}]", lambda x, y, s=space: parallelogram_defect(s, x, y)),
            (
                f"gq_norm_defect[{name}]",
                lambda x, y, s=space: gq_norm_defect(s, _PARAMS, _EXPONENTS, x, y),
            ),
        ]
    for noise in (
        NoiseModel.uniform_bounded(0.2, seed=9),
        NoiseModel.decay(0.5, 0.7),
        NoiseModel.sine(0.3, np.linspace(-2.0, 1.5, dim)),
    ):
        f = make_perturbed(form, noise)
        kernels += [
            (f"noise_values[{noise.kind}]", lambda x, y, m=noise: noise_values(m, x, codim=2)),
            (f"residual_gq[{noise.kind}]", lambda x, y, f=f: residual_gq(f, _PARAMS, x, y)),
        ]
    return kernels


@settings(max_examples=80, deadline=None)
@given(
    dim=st.integers(min_value=1, max_value=6),
    others=st.integers(min_value=0, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    log_scale=st.floats(min_value=-20.0, max_value=20.0),
)
def test_one_vector_is_one_row(dim, others, seed, log_scale):
    """A vector or pair alone gives, bit for bit, its row of the one-row
    batch and of any batch; scalar results are floats, vector results 1-D."""
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((1 + others, dim)) * 10.0**log_scale
    ys = rng.standard_normal((1 + others, dim)) * 10.0**log_scale
    for label, fn in _pair_kernels(dim):
        alone, batch = fn(xs[0], ys[0]), fn(xs, ys)
        if batch.ndim == 1:
            assert type(alone) is float, label
        else:
            assert alone.shape == batch.shape[1:], label
        assert np.array_equal(alone, fn(xs[:1], ys[:1])[0]), label
        assert np.array_equal(alone, batch[0]), label


def test_memory_layout_never_changes_a_rows_bits():
    """Fortran-ordered and column-strided batches give the bits of C-ordered ones."""
    rng = np.random.default_rng(21)
    xs = rng.standard_normal((500, 8)) * 10.0
    ys = rng.standard_normal((500, 8)) * 10.0
    kernels = [("norm_eval-euclidean", lambda x, y: norm_eval(None, x)), *_pair_kernels(8)]
    for label, fn in kernels:
        want = fn(xs, ys)
        for layout in (np.asfortranarray, lambda a: np.repeat(a, 2, axis=1)[:, ::2]):
            assert np.array_equal(fn(layout(xs), layout(ys)), want), label


_FORM = random_symmetric_form(euclidean(3), euclidean(2), seed=1)
_MAP = make_perturbed(_FORM, NoiseModel.uniform_bounded(0.2, seed=9))
_STACKED = np.ones((2, 3, 3))


@pytest.mark.parametrize(
    "call",
    [
        lambda: norm_eval(euclidean(3), _STACKED),
        lambda: noise_values(NoiseModel.decay(0.5, 0.7), _STACKED),
        lambda: _MAP(_STACKED),
        lambda: residual_gq(_MAP, _PARAMS, _STACKED, _STACKED),
        lambda: gq_norm_defect(euclidean(3), _PARAMS, _EXPONENTS, _STACKED, _STACKED),
        lambda: _FORM.bilinear(np.ones(3), np.ones((1, 3))),
        lambda: residual_gq(_MAP, _PARAMS, np.ones(3), np.ones((1, 3))),
    ],
    ids=[
        "norm_eval-stacked",
        "noise_values-stacked",
        "MapHandle-stacked",
        "residual_gq-stacked",
        "gq_norm_defect-stacked",
        "bilinear-vector-with-row",
        "residual_gq-vector-with-row",
    ],
)
def test_only_a_vector_or_rows_is_accepted(call):
    """Stacked batches and a vector paired with a one-row batch are refused."""
    with pytest.raises(DimensionMismatchError):
        call()


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
def test_weighted_norm_rows_match_at_chunk_edges(dim):
    """A weighted norm gives each row the bits it has in a batch of three
    whole row blocks, for sub-batches around every block edge."""
    space = _every_norm_kind(dim)[-1]
    block = next(row_blocks(10**9, dim)).stop
    rows = np.random.default_rng(dim).standard_normal((3 * block, dim)) * 100.0
    whole = norm_eval(space, rows)
    for size in (1, 2, block - 1, block, block + 1, block + 2):
        for start in (0, 1, block - 1, 2 * block - 2):
            batch = slice(start, start + size)
            assert np.array_equal(norm_eval(space, rows[batch]), whole[batch]), (size, start)


_SPECIALS = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 1e308, -1e308, 1.0, -1.0])


def _assert_same_sums(got, want, label):
    """Equal values, NaN in the same places and zeros of the same sign.  The
    sign of a NaN is not compared: numpy's own add loops disagree on it."""
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan), label
    assert np.array_equal(got[~nan], want[~nan]), label
    assert np.array_equal(np.signbit(got[~nan]), np.signbit(want[~nan])), label


def _pairwise_sum(row) -> float:
    """One row summed in Python floats, in the order row_sums states: 0.0
    plus the elements in sequence below 8, and the joined pairs at 8."""
    if len(row) == 8:
        r = [float(x) for x in row]
        return 0.0 + (((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])))
    total = 0.0
    for x in row:
        total += float(x)
    return total


def _edge_rows(rng, n, width):
    """Rows of -0.0, of overflow to inf, of finite values over 24 decades,
    of NaN/+-inf/+-1e308 and of a mix of the last two."""
    finite = rng.standard_normal((n, width)) * 10.0 ** rng.integers(-12, 12, (n, width))
    special = rng.choice(_SPECIALS, (n, width))
    mixed = np.where(rng.random((n, width)) < 0.2, special, finite)
    return [np.full((n, width), -0.0), np.full((n, width), 1e308), finite, special, mixed]


def test_row_sums_follow_their_stated_order():
    """Up to 8 columns, where row_sums adds columns itself, each value is
    the stated order's sum of its row, whatever numpy does."""
    rng = np.random.default_rng(16)
    for width in range(1, 9):
        for n in (0, 1, 40):
            for rows in _edge_rows(rng, n, width):
                with np.errstate(over="ignore", invalid="ignore"):
                    got = row_sums(rows)
                want = np.array([_pairwise_sum(row) for row in rows])
                _assert_same_sums(got, want, (width, n))


def test_row_sums_are_numpys_row_sums_bit_for_bit():
    """row_sums equals np.sum along rows, at every width, in one row and in
    batches of many.  This pins numpy's own order (checked on numpy 2.4),
    which numpy does not document: a failure on another numpy with
    test_row_sums_follow_their_stated_order passing means np.sum changed."""
    rng = np.random.default_rng(17)
    for width in range(1, 301):
        for n in (0, 1, 40):
            for rows in _edge_rows(rng, n, width):
                with np.errstate(over="ignore", invalid="ignore"):
                    got, want = row_sums(rows), np.sum(rows, axis=-1)
                _assert_same_sums(got, want, (np.__version__, width, n))
    for width in (2, 7, 8):
        rows = rng.standard_normal((5000, width)) * 10.0 ** rng.integers(-12, 12, (5000, width))
        _assert_same_sums(row_sums(rows), np.sum(rows, axis=-1), (np.__version__, width))


@pytest.mark.parametrize("dim", range(1, 10))
def test_norms_are_numpys_reductions_bit_for_bit(dim):
    """Euclidean, p- and sup norms give the bits of numpy's row reductions."""
    rows = np.random.default_rng(dim).standard_normal((300, dim)) * 1e3
    rows[::7, 0] = -0.0
    pinned = [
        (euclidean(dim), np.sqrt(np.sum(rows * rows, axis=-1))),
        (p_norm(dim, 3.0), np.sum(np.abs(rows) ** 3.0, axis=-1) ** (1.0 / 3.0)),
        (p_norm(dim, 0.5), np.sum(np.abs(rows) ** 0.5, axis=-1) ** 2.0),
        (sup_norm(dim), np.max(np.abs(rows), axis=-1)),
    ]
    for space, want in pinned:
        assert np.array_equal(norm_eval(space, rows), want), (space.norm_kind, space.p)


@pytest.mark.parametrize("dim", [1, 2, 3, 8])
def test_norm_rows_match_across_block_edges(dim):
    """Every norm kind gives each row the bits it has in a batch of three
    and a bit row blocks, for sub-batches that straddle block edges."""
    block = next(row_blocks(10**9, dim)).stop
    rows = np.random.default_rng(30 + dim).standard_normal((3 * block + 5, dim)) * 100.0
    for space in _every_norm_kind(dim):
        whole = norm_eval(space, rows)
        for start in (0, 1, block - 1):
            for size in (2, block, block + 2):
                batch = slice(start, start + size)
                assert np.array_equal(norm_eval(space, rows[batch]), whole[batch]), (
                    space.norm_kind,
                    space.p,
                    batch,
                )


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
def test_gram_form_agrees_with_three_operand_einsum(dim):
    # x^T G x under a weighted norm's square root, against the one-step
    # einsum the kernel replaced: within 8 ulps of |x|^T |G| |x|.
    space = _every_norm_kind(dim)[-1]
    rows = np.random.default_rng(10 + dim).standard_normal((500, dim))
    got = form_rows(rows, space.gram, rows)[:, 0]
    want = np.einsum("ni,ij,nj->n", rows, space.gram, rows)
    scale = np.einsum("ni,ij,nj->n", np.abs(rows), np.abs(space.gram), np.abs(rows))
    assert np.all(np.abs(got - want) <= 8.0 * EPS * scale)
    assert np.array_equal(norm_eval(space, rows), np.sqrt(got))


def test_triangle_inequality_for_genuine_norms():
    rng = np.random.default_rng(7)
    xs = rng.standard_normal((200, 3))
    ys = rng.standard_normal((200, 3))
    for space in (euclidean(3), sup_norm(3), p_norm(3, 1.0), p_norm(3, 2.5)):
        lhs = norm_eval(space, xs + ys)
        rhs = norm_eval(space, xs) + norm_eval(space, ys)
        assert np.all(lhs <= rhs * (1.0 + 1e-12))


def test_quasi_norm_violates_triangle_and_is_flagged():
    space = p_norm(2, 0.5)
    assert space.is_quasi_norm
    # (|1|^.5 + |1|^.5)^2 = 4 > 1 + 1: e1 + e2 breaks the triangle inequality.
    e1, e2 = np.eye(2)
    assert norm_eval(space, e1 + e2) > norm_eval(space, e1) + norm_eval(space, e2)
    assert not p_norm(2, 1.0).is_quasi_norm
    assert not euclidean(2).is_quasi_norm


class TestSpaceValidation:
    def test_bad_dim(self):
        with pytest.raises(ParameterError):
            euclidean(0)

    def test_bad_p(self):
        with pytest.raises(ParameterError):
            p_norm(2, 0.0)
        with pytest.raises(ParameterError):
            p_norm(2, float("inf"))

    def test_gram_not_symmetric(self):
        with pytest.raises(ParameterError):
            weighted_quadratic([[1.0, 0.1], [0.2, 1.0]])

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_gram_not_finite(self, bad):
        with pytest.raises(ParameterError):
            weighted_quadratic([[1.0, 0.0], [0.0, bad]])

    def test_gram_not_positive_definite(self):
        with pytest.raises(ParameterError):
            weighted_quadratic([[1.0, 2.0], [2.0, 1.0]])

    def test_gram_not_square(self):
        with pytest.raises(DimensionMismatchError):
            weighted_quadratic([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])

    def test_describe_roundtrip(self):
        desc = weighted_quadratic([[2.0, 0.0], [0.0, 3.0]]).describe()
        assert desc["norm"] == "weighted"
        assert desc["gram"] == [[2.0, 0.0], [0.0, 3.0]]


class TestSamplers:
    def test_fields(self):
        sampler = Sampler.restricted_pairs(seed=3, count=10, radius_max=2)
        assert [f.name for f in fields(Sampler)] == ["seed", "count", "radius_max"]
        assert (sampler.seed, sampler.count, sampler.radius_max) == (3, 10, 2.0)
        assert type(sampler.radius_max) is float

    def test_ball_bounds(self):
        # At d = 0 the x half is a ball draw: norms uniform on [0, R] (mean
        # R / 2, sd R / sqrt(12)) and norm-uniform directions.
        space = euclidean(3)
        xs, _ = sample_pairs_restricted(space, 0.0, Sampler.restricted_pairs(1, 500, 1.0))
        norms = norm_eval(space, xs)
        assert xs.shape == (500, 3)
        assert np.all(norms <= 1.0)
        assert abs(norms.mean() - 0.5) <= 4.0 / np.sqrt(12.0 * 500)

    def test_bitwise_determinism(self):
        space = euclidean(4)
        sampler = Sampler.restricted_pairs(seed=9, count=64, radius_max=2.0)
        a = sample_pairs_restricted(space, 0.0, sampler)
        b = sample_pairs_restricted(space, 0.0, sampler)
        assert a[0].tobytes() == b[0].tobytes()
        assert a[1].tobytes() == b[1].tobytes()

    def test_seed_sensitivity(self):
        space = euclidean(4)
        a = sample_pairs_restricted(space, 0.0, Sampler.restricted_pairs(9, 64, 2.0))
        b = sample_pairs_restricted(space, 0.0, Sampler.restricted_pairs(10, 64, 2.0))
        assert not np.array_equal(a[0], b[0])
        assert not np.array_equal(a[1], b[1])

    def test_bad_seed(self):
        with pytest.raises(ParameterError):
            Sampler.restricted_pairs(seed=-1, count=10, radius_max=1.0)
        with pytest.raises(ParameterError):
            Sampler.restricted_pairs(seed=2**64, count=10, radius_max=1.0)

    @pytest.mark.parametrize("seed", [True, False, np.bool_(True)], ids=repr)
    def test_a_bool_is_not_a_seed(self, seed):
        message = f"^seed must be an integer in \\[0, 2\\*\\*64\\), got {seed!r}$"
        for call in (
            lambda: Sampler.restricted_pairs(seed=seed, count=10, radius_max=2.0),
            lambda: NoiseModel.uniform_bounded(0.1, seed=seed),
            lambda: space_module.generator(seed, space_module.STREAM_PAIR_X),
        ):
            with pytest.raises(ParameterError, match=message):
                call()

    def test_bad_count_and_radius(self):
        with pytest.raises(ParameterError):
            Sampler.restricted_pairs(seed=0, count=0, radius_max=1.0)
        # Not finite and positive, or not a real number at all (a bool is
        # not a radius; 10**400 has no float).
        for radius in (0.0, -1.0, np.inf, np.nan, 10**400, "2", None, True, np.bool_(True), 1j):
            with pytest.raises(ParameterError):
                Sampler.restricted_pairs(seed=0, count=4, radius_max=radius)


def _never_called(rows):
    raise AssertionError("the map ran before its count was checked")


_UNUSED_MAP = MapHandle(_never_called, 2, 1)
_PAIRS = Sampler.restricted_pairs(0, 10, 2.0)

# Every count a caller passes, by entry point: the count's name and a call
# that passes it.  Each is checked before any sampling or map call.
COUNT_SITES = {
    "SpaceSpec": ("dim", lambda n: SpaceSpec(dim=n)),
    "Sampler": ("count", lambda n: Sampler.restricted_pairs(0, n, 2.0)),
    "MapHandle-domain": ("domain_dim", lambda n: MapHandle(_never_called, n, 1)),
    "MapHandle-codomain": ("codomain_dim", lambda n: MapHandle(_never_called, 2, n)),
    "extract_quadratic_batch": (
        "max_iters",
        lambda n: extract_quadratic_batch(_UNUSED_MAP, np.ones((1, 2)), max_iters=n),
    ),
    "shell_delta_profile": (
        "per_shell_count",
        lambda n: shell_delta_profile(
            _UNUSED_MAP, equation_params("1/2"), euclidean(2), 0, 4, n, seed=0
        ),
    ),
    "certify": (
        "probe_count",
        lambda n: certify(
            _UNUSED_MAP, equation_params("1/2"), 1.0, euclidean(2), _PAIRS, probe_count=n
        ),
    ),
    "verify_czerwik": (
        "probe_count",
        lambda n: verify_czerwik(_UNUSED_MAP, euclidean(2), _PAIRS, probe_count=n),
    ),
}


@pytest.mark.parametrize("value", [1.5, True, 0], ids=repr)
@pytest.mark.parametrize("site", COUNT_SITES)
def test_every_count_is_a_positive_int_and_not_a_bool(site, value):
    name, call = COUNT_SITES[site]
    with pytest.raises(ParameterError) as err:
        call(value)
    assert str(err.value) == f"{name} must be a positive integer, got {value!r}"


class TestRestrictedPairs:
    def test_constraint_holds(self):
        space = euclidean(3)
        xs, ys = sample_pairs_restricted(
            space, 1.5, Sampler.restricted_pairs(seed=3, count=400, radius_max=2.0)
        )
        assert xs.shape == ys.shape == (400, 3)
        assert np.all(norm_eval(space, xs) + norm_eval(space, ys) >= 1.5)

    def test_unconstrained_when_d_zero(self):
        space = euclidean(2)
        xs, ys = sample_pairs_restricted(
            space, 0.0, Sampler.restricted_pairs(seed=3, count=100, radius_max=2.0)
        )
        assert xs.shape == (100, 2)

    def test_infeasible_domain(self):
        with pytest.raises(InfeasibleDomainError):
            sample_pairs_restricted(
                euclidean(2),
                5.0,
                Sampler.restricted_pairs(seed=0, count=10, radius_max=2.0),
            )

    def test_measure_zero_acceptance_gives_up(self):
        # d = 2 * radius_max is feasible only on a measure-zero set; the
        # sampler must refuse it with an explicit error.
        with pytest.raises(InfeasibleDomainError):
            sample_pairs_restricted(
                euclidean(2),
                4.0,
                Sampler.restricted_pairs(seed=0, count=8, radius_max=2.0),
            )

    @pytest.mark.parametrize(
        "space",
        [
            euclidean(3),
            p_norm(3, 0.5),
            p_norm(3, 3.0),
            sup_norm(3),
            weighted_quadratic([[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 3.0]]),
        ],
        ids=["euclidean", "p:0.5", "p:3", "sup", "weighted"],
    )
    @pytest.mark.parametrize(
        "frac", [0.0, 0.5, 1.0, 1.475, 1.975, "2R - 1e-13", "nextafter(2R, 0)"]
    )
    def test_every_row_meets_both_bounds(self, space, frac):
        # Near d = 2R, scaling unit directions by the radii is exact only up
        # to rounding; each returned row must still satisfy both bounds,
        # checked on the rows themselves, or the call must refuse the domain.
        radius = 2.0
        if frac == "2R - 1e-13":
            d = 2.0 * radius - 1e-13
        elif frac == "nextafter(2R, 0)":
            d = float(np.nextafter(2.0 * radius, 0.0))
        else:
            d = frac * radius
        sampler = Sampler.restricted_pairs(seed=7, count=20000, radius_max=radius)
        try:
            xs, ys = sample_pairs_restricted(space, d, sampler)
        except InfeasibleDomainError:
            return
        nx, ny = norm_eval(space, xs), norm_eval(space, ys)
        assert xs.shape == ys.shape == (20000, 3)
        assert np.all(nx <= radius) and np.all(ny <= radius)
        assert np.all(nx + ny >= d)

    @pytest.mark.parametrize(
        "d, statistic, expected, sd",
        [
            # Radii uniform on {a, b in [0, R], a + b >= d}, R = 2, d <= R:
            # P(norm(x) >= d) = R (R - d) / (R^2 - d^2 / 2) = 4/7.
            (1.0, lambda n: n >= 1.0, 4.0 / 7.0, np.sqrt(12.0 / 49.0)),
            # d > R: norm(x) has a ramp density on [d - R, R], so its mean is
            # (d - R) + 2 (2R - d) / 3 and its variance (2R - d)^2 / 18.
            (3.3, lambda n: n, 1.3 + 2.0 * 0.7 / 3.0, 0.7 / np.sqrt(18.0)),
        ],
    )
    def test_radius_law(self, d, statistic, expected, sd):
        count = 40000
        space = euclidean(3)
        xs, _ = sample_pairs_restricted(
            space, d, Sampler.restricted_pairs(seed=13, count=count, radius_max=2.0)
        )
        got = np.mean(statistic(norm_eval(space, xs)))
        assert abs(got - expected) <= 4.0 * sd / np.sqrt(count)

    def test_negative_d_rejected(self):
        with pytest.raises(ParameterError):
            sample_pairs_restricted(
                euclidean(2),
                -1.0,
                Sampler.restricted_pairs(seed=0, count=8, radius_max=2.0),
            )

    def test_pair_determinism(self):
        space = sup_norm(3)
        sampler = Sampler.restricted_pairs(seed=11, count=50, radius_max=2.0)
        a = sample_pairs_restricted(space, 1.0, sampler)
        b = sample_pairs_restricted(space, 1.0, sampler)
        assert a[0].tobytes() == b[0].tobytes()
        assert a[1].tobytes() == b[1].tobytes()

    @pytest.mark.parametrize("space", _every_norm_kind(3), ids=lambda s: f"{s.norm_kind}{s.p or ''}")
    def test_pair_sample_carries_the_norms_of_its_rows(self, space):
        sample = sample_pairs_restricted(space, 1.5, Sampler.restricted_pairs(4, 20000, 2.0))
        xs, ys = sample
        assert isinstance(sample, tuple) and len(sample) == 2
        assert np.array_equal(sample.norms[0], norm_eval(space, xs))
        assert np.array_equal(sample.norms[1], norm_eval(space, ys))

    def test_repaired_rows_carry_the_norms_of_their_recheck(self, monkeypatch):
        # At d = nextafter(2R, 0) with R = 1.1, rounding leaves rows short of
        # the sum bound; the sampler pulls them inside and norms them again.
        normed, norm = [], space_module.norm_eval

        def counting(space, x):
            normed.append(len(x))
            return norm(space, x)

        monkeypatch.setattr(space_module, "norm_eval", counting)
        space, radius = sup_norm(3), 1.1
        d = float(np.nextafter(2.0 * radius, 0.0))
        sample = sample_pairs_restricted(space, d, Sampler.restricted_pairs(0, 1000, radius))
        # Two directions, two checks and two re-checks of 1000 rows each.
        assert normed == [1000] * 6
        for rows, norms in zip(sample, sample.norms):
            assert np.array_equal(norms, norm(space, rows))
        nx, ny = sample.norms
        assert np.all(nx <= radius) and np.all(ny <= radius) and np.all(nx + ny >= d)

    @pytest.mark.parametrize(
        "copy_of",
        [copy.copy, copy.deepcopy]
        + [
            lambda x, proto=proto: pickle.loads(pickle.dumps(x, proto))
            for proto in range(pickle.HIGHEST_PROTOCOL + 1)
        ],
        ids=["copy", "deepcopy"]
        + [f"pickle{proto}" for proto in range(pickle.HIGHEST_PROTOCOL + 1)],
    )
    def test_pair_sample_survives_copy_and_pickle(self, copy_of):
        sample = sample_pairs_restricted(euclidean(3), 1.0, Sampler.restricted_pairs(2, 50, 1.0))
        again = copy_of(sample)
        assert type(again) is PairSample and len(again) == 2
        for got, want in zip((*again, *again.norms), (*sample, *sample.norms)):
            assert got.tobytes() == want.tobytes()

    def test_streams_are_independent(self):
        # The x-half and y-half come from distinct streams, so they differ
        # even for identical seeds.
        xs, ys = sample_pairs_restricted(
            euclidean(2), 0.0, Sampler.restricted_pairs(seed=5, count=50, radius_max=2.0)
        )
        assert not np.array_equal(xs, ys)


# Norms of standard-normal directions overflow float64 for these p (the p-th
# powers for p = 1000, the 1/p-th root for p = 0.0005); dividing by an
# infinite norm would turn the row into the zero vector.
@pytest.mark.parametrize("p", [1000.0, 0.0005], ids=["p:1000", "p:0.0005"])
class TestDirectionNormOverflow:
    def test_pairs_refuse(self, p):
        with pytest.raises(InfeasibleDomainError), np.errstate(over="ignore"):
            sample_pairs_restricted(
                p_norm(2, p), 0.0, Sampler.restricted_pairs(seed=1, count=1000, radius_max=2.0)
            )

    def test_threaded_pairs_refuse_with_the_serial_message(self, p):
        count = 2 * _block_rows(2)
        before = threading.active_count()
        message = "^norms of sampled directions overflow float64 in this space$"
        with pytest.raises(InfeasibleDomainError, match=message), np.errstate(over="ignore"):
            sample_pairs_restricted(
                p_norm(2, p), 0.0, Sampler.restricted_pairs(seed=1, count=count, radius_max=2.0)
            )
        assert threading.active_count() == before


def _serial_radii(d, sampler):
    """The reference's radii ``(R a, R b)``, and the two generators
    positioned after them."""
    R, count = sampler.radius_max, sampler.count
    rng_x = space_module.generator(sampler.seed, space_module.STREAM_PAIR_X)
    rng_y = space_module.generator(sampler.seed, space_module.STREAM_PAIR_Y)
    t = d / R
    s_lo, s_hi = max(1.0 - t, 0.0), min(1.0, 2.0 - t)
    ramp = (s_hi * s_hi - s_lo * s_lo) / 2.0
    u = rng_x.uniform(0.0, ramp + s_lo, count)
    a = np.where(u <= ramp, t - 1.0 + np.sqrt(s_lo * s_lo + 2.0 * u), t + (u - ramp))
    b = rng_y.uniform(np.maximum(t - a, 0.0), 1.0)
    return (R * a, R * b), (rng_x, rng_y)


def _serial_pairs(space, d, sampler):
    """The restricted-pair sampler as one serial pass, kept as the reference
    for the sampler that fills its two halves on two threads: the radii, one
    whole-batch draw of directions per half (x first), then the settle step.
    Returns the rows and norms, or the InfeasibleDomainError it raised."""
    R, count = sampler.radius_max, sampler.count
    radii, rngs = _serial_radii(d, sampler)
    rows = []
    try:
        for rng, half in zip(rngs, radii):
            dirs = rng.standard_normal((count, space.dim))
            lengths = norm_eval(space, dirs)
            if not np.all(np.isfinite(lengths)):
                raise InfeasibleDomainError(
                    "norms of sampled directions overflow float64 in this space"
                )
            dirs /= lengths[:, None]
            dirs *= half[:, None]
            rows.append(dirs)
        inside = lambda nx, ny: (nx <= R) & (ny <= R) & (nx + ny >= d)  # noqa: E731
        room = (2.0 * R - d) / 4.0
        (xs, ys), norms = space_module._settled(space, rows, inside, R - room, room)
    except InfeasibleDomainError as exc:
        return exc
    return xs, ys, *norms


def _bits(arrays):
    return [a.view(np.uint64) for a in arrays]


class _Rewritten:
    """A generator whose normal draws ``edit`` rewrites after each block."""

    def __init__(self, rng, edit):
        self.rng, self.edit = rng, edit

    def uniform(self, *args):
        return self.rng.uniform(*args)

    def standard_normal(self, out):
        self.rng.standard_normal(out=out)
        self.edit(out)
        return out


def _rewrite_stream(monkeypatch, stream, edit):
    """Make the sampler's ``stream`` generator a :class:`_Rewritten` one."""
    make = space_module.generator

    def patched(seed, tag):
        rng = make(seed, tag)
        return _Rewritten(rng, edit) if tag == stream else rng

    monkeypatch.setattr(space_module, "generator", patched)


def _block_rows(dim):
    return next(row_blocks(10**9, dim)).stop


# Not a power of two, so that scaling rows by radii rounds.
_R = 1.1
_SPACES = {
    "euclidean": euclidean(3),
    "p:3": p_norm(3, 3.0),
    "p:0.5": p_norm(3, 0.5),
    "weighted": weighted_quadratic([[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 3.0]]),
    "sup": sup_norm(3),
}


@pytest.mark.parametrize("above", [0, 1], ids=["one-block", "one-block+1"])
def test_hand_off_rule_at_one_row_block(above):
    """A call that fills one row block runs on the calling thread when its
    result is read; one value more and it runs on one helper thread."""
    before = threading.active_count()
    ran = []

    def where():
        ran.append(threading.get_ident())
        return threading.active_count() - before

    with space_module._helper_thread(space_module._BLOCK_VALUES + above) as submit:
        result = submit(where)
        if not above:
            assert ran == []
        helpers = result()
    assert helpers == above
    assert len(ran) == 1 and (ran[0] != threading.get_ident()) == bool(above)
    assert threading.active_count() == before


# Rows of dim 3 that take the helper thread at the default block size.
_TWO_BLOCKS = 2 * _block_rows(3)


class TestPairHalvesOnTwoThreads:
    """sample_pairs_restricted fills the y half on a helper thread when a
    half is larger than one row block, and must give the serial bits."""

    @pytest.mark.parametrize("small_blocks", [False, True], ids=["blocks", "small-blocks"])
    @pytest.mark.parametrize("count", ["1", "block", "block+1", "20000"])
    @pytest.mark.parametrize("frac", [0.0, 0.5, 1.475, 1.95, "nextafter(2R, 0)"])
    @pytest.mark.parametrize("name", list(_SPACES))
    def test_restricted_pairs_match_the_serial_reference(
        self, monkeypatch, name, frac, count, small_blocks
    ):
        space = _SPACES[name]
        if small_blocks:
            # A whole number of rows, so that one full block fills it exactly.
            monkeypatch.setattr(space_module, "_BLOCK_VALUES", 256 * space.dim)
        block = _block_rows(space.dim)
        count = {"1": 1, "block": block, "block+1": block + 1, "20000": 20000}[count]
        d = float(np.nextafter(2.0 * _R, 0.0)) if frac == "nextafter(2R, 0)" else frac * _R
        sampler = Sampler.restricted_pairs(seed=8, count=count, radius_max=_R)
        want = _serial_pairs(space, d, sampler)
        drawn_on = []
        rows_at_radii = space_module._rows_at_radii

        def traced(*args):
            drawn_on.append(threading.get_ident())
            return rows_at_radii(*args)

        monkeypatch.setattr(space_module, "_rows_at_radii", traced)
        try:
            sample = sample_pairs_restricted(space, d, sampler)
        except InfeasibleDomainError as exc:
            assert isinstance(want, InfeasibleDomainError) and str(exc) == str(want)
        else:
            assert not isinstance(want, InfeasibleDomainError), want
            got = (*sample, *sample.norms)
            assert all(np.array_equal(g, w) for g, w in zip(_bits(got), _bits(want)))
        # The helper runs only past one row block: it draws the y half, and
        # the calling thread draws the x half.
        helper = [ident for ident in drawn_on if ident != threading.get_ident()]
        assert len(drawn_on) == 2
        assert len(helper) == (count * space.dim > space_module._BLOCK_VALUES)

    @pytest.mark.parametrize("count", [1000, _TWO_BLOCKS], ids=["serial", "threaded"])
    @pytest.mark.parametrize("name", list(_SPACES))
    def test_nextafter_takes_the_repair_path(self, monkeypatch, name, count):
        # So the bit-for-bit case at d = nextafter(2R, 0) covers the settle
        # step's repair, serial and threaded, whether or not it succeeds.
        settled, off = space_module._settled, []

        def spy(space, rows, inside, center, room, norms=None):
            off.append(not np.all(inside(*norms)))
            return settled(space, rows, inside, center, room, norms)

        monkeypatch.setattr(space_module, "_settled", spy)
        d = float(np.nextafter(2.0 * _R, 0.0))
        try:
            sample_pairs_restricted(_SPACES[name], d, Sampler.restricted_pairs(8, count, _R))
        except InfeasibleDomainError:
            pass
        assert off == [True]

    @pytest.mark.parametrize("count", [1000, _TWO_BLOCKS], ids=["serial", "threaded"])
    @pytest.mark.parametrize("half", [0, 1], ids=["x", "y"])
    @pytest.mark.parametrize("name", ["euclidean", "p:0.5", "weighted"])
    def test_a_zero_direction_becomes_the_first_basis_vector(self, monkeypatch, name, half, count):
        space = _SPACES[name]
        sampler = Sampler.restricted_pairs(seed=3, count=count, radius_max=_R)
        (radii, _), want = _serial_radii(0.5, sampler), _serial_pairs(space, 0.5, sampler)
        drawn = []

        def zero_first_row(out):
            if not drawn:
                out[0] = 0.0
            drawn.append(len(out))

        stream = (space_module.STREAM_PAIR_X, space_module.STREAM_PAIR_Y)[half]
        _rewrite_stream(monkeypatch, stream, zero_first_row)
        sample = sample_pairs_restricted(space, 0.5, sampler)
        e1 = np.eye(1, space.dim)
        fallback = e1 * (1.0 / norm_eval(space, e1)) * radii[half][0]
        assert np.array_equal(sample[half][:1].view(np.uint64), fallback.view(np.uint64))
        assert np.array_equal(sample[half][1:].view(np.uint64), want[half][1:].view(np.uint64))
        assert np.array_equal(sample[1 - half].view(np.uint64), want[1 - half].view(np.uint64))
        for rows, norms in zip(sample, sample.norms):
            assert np.array_equal(norms, norm_eval(space, rows))

    @pytest.mark.parametrize("count", [1000, _TWO_BLOCKS], ids=["serial", "threaded"])
    def test_a_y_only_failure_surfaces_as_itself(self, monkeypatch, count):
        def refuse(out):
            raise ValueError("the y half refused")

        _rewrite_stream(monkeypatch, space_module.STREAM_PAIR_Y, refuse)
        before = threading.active_count()
        with pytest.raises(ValueError, match="^the y half refused$"):
            sample_pairs_restricted(euclidean(3), 1.0, Sampler.restricted_pairs(8, count, _R))
        assert threading.active_count() == before

    def test_the_x_halfs_error_wins(self, monkeypatch):
        # The y half fails first; the x half's later error is the serial
        # order's first, and the helper is joined before it surfaces.
        y_failed = threading.Event()

        def refuse_y(out):
            y_failed.set()
            raise ValueError("the y half refused")

        def refuse_x(out):
            assert y_failed.wait(10.0)
            raise ParameterError("the x half refused")

        _rewrite_stream(monkeypatch, space_module.STREAM_PAIR_Y, refuse_y)
        _rewrite_stream(monkeypatch, space_module.STREAM_PAIR_X, refuse_x)
        before = threading.active_count()
        with pytest.raises(ParameterError, match="^the x half refused$"):
            sample_pairs_restricted(euclidean(3), 1.0, Sampler.restricted_pairs(8, _TWO_BLOCKS, _R))
        assert threading.active_count() == before

    def test_threads_are_joined_after_a_threaded_sample(self):
        before = threading.active_count()
        sample_pairs_restricted(euclidean(3), 1.0, Sampler.restricted_pairs(8, _TWO_BLOCKS, _R))
        assert threading.active_count() == before

    def _scale_first_row(self, monkeypatch, scale):
        def scaled(out):
            out[0] *= scale

        _rewrite_stream(monkeypatch, space_module.STREAM_PAIR_Y, scaled)
        return Sampler.restricted_pairs(8, _TWO_BLOCKS, _R)

    def test_raising_error_state_reaches_the_y_half(self, monkeypatch):
        # Squaring 1e-200 underflows: ignored by default, raised here.
        sampler = self._scale_first_row(monkeypatch, 1e-200)
        with np.errstate(all="raise"), pytest.raises(FloatingPointError):
            sample_pairs_restricted(euclidean(3), 1.0, sampler)

    def test_ignoring_error_state_reaches_the_y_half(self, monkeypatch):
        # Squaring 1e200 overflows: a warning by default, silent here.
        sampler = self._scale_first_row(monkeypatch, 1e200)
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InfeasibleDomainError, match="^norms of sampled directions overflow"):
                sample_pairs_restricted(euclidean(3), 1.0, sampler)


def _whole_batch_fold(space, d, sampler, fn, *, head=0, keep=False):
    """The pass that a streamed fold replaces: the whole batch sampled, then
    ``fn`` over it in one call, then its maximum."""
    xs, ys = sample_pairs_restricted(space, d, sampler)
    values = fn(xs, ys)
    samples = (xs, ys, values) if keep else None
    return space_module.PairFold(values.max(axis=0), xs[:head], samples)


# 3000 pairs of dim 3 in blocks of 64 rows: 47 row blocks.
_STREAM_COUNT, _STREAM_BLOCK_ROWS, _STREAM_BLOCKS = 3000, 64, 47


class TestStreamedRestrictedPairs:
    """certify, verify_czerwik and derivation_chain_check fold their sampled
    pairs chunk by chunk (space.fold_pairs_restricted); every report and
    kept sample must be the whole-batch pass's, bit for bit."""

    @staticmethod
    def _map(space, sampler, nan_row):
        # A noisy form that is NaN at one sampled x row of the d = 1 and the
        # d = 0 batch, so that one pair's residual is NaN in each.
        base = make_perturbed(
            random_symmetric_form(space, euclidean(2), seed=4), NoiseModel.uniform_bounded(0.05, 6)
        )
        marked = np.array(
            []
            if nan_row is None
            else [sample_pairs_restricted(space, d, sampler)[0][nan_row, 0] for d in (0.0, 1.0)]
        )

        def evaluator(rows):
            out = np.array(base(rows))
            out[np.isin(rows[:, 0], marked)] = np.nan
            return out

        return MapHandle(evaluator, space.dim, 2)

    @pytest.mark.parametrize("nan_row", [None, 40, -1], ids=["finite", "nan-first", "nan-last"])
    @pytest.mark.parametrize("chunks", [1, 2, 3, _STREAM_BLOCKS])
    def test_streamed_restricted_pass_matches_the_whole_batch_reference(
        self, monkeypatch, chunks, nan_row
    ):
        space, params = euclidean(3), equation_params("1/3")
        sampler = Sampler.restricted_pairs(5, _STREAM_COUNT, _R)
        f = self._map(space, sampler, nan_row)
        calls = {
            "certify": lambda: certify(
                f, params, 1.0, space, sampler, probe_count=4, delta_override=1.0, keep_samples=True
            ),
            "czerwik": lambda: verify_czerwik(f, space, sampler, probe_count=4),
            "chain": lambda: derivation_chain_check(f, params, space, sampler),
        }
        with monkeypatch.context() as patch:
            patch.setattr(stability_module, "fold_pairs_restricted", _whole_batch_fold)
            patch.setattr(quadratic_module, "fold_pairs_restricted", _whole_batch_fold)
            want = {name: call() for name, call in calls.items()}

        monkeypatch.setattr(space_module, "_BLOCK_VALUES", _STREAM_BLOCK_ROWS * space.dim)
        monkeypatch.setattr(space_module, "_CHUNK_BLOCKS", -(-_STREAM_BLOCKS // chunks))
        settle, settled = space_module._PairDraw.settle, []

        def counted(draw, rows, norms):
            settled.append(rows[0].shape[0])
            return settle(draw, rows, norms)

        monkeypatch.setattr(space_module._PairDraw, "settle", counted)
        got = {name: call() for name, call in calls.items()}
        assert len(settled) == 3 * chunks and sum(settled) == 3 * _STREAM_COUNT
        for name in calls:
            assert json.dumps(got[name].to_dict()) == json.dumps(want[name].to_dict()), name
        assert all(
            np.array_equal(g.view(np.uint64), w.view(np.uint64))
            for g, w in zip(got["certify"].samples, want["certify"].samples)
        )
        assert np.isnan(got["certify"].delta_hat) == (nan_row is not None)
        assert np.isnan(got["czerwik"].delta_hat) == (nan_row is not None)

    @pytest.mark.parametrize("threads", ["helper", "serial"])
    def test_an_earlier_chunks_map_error_beats_a_later_chunks_pair_error(
        self, monkeypatch, threads
    ):
        # Chunks of one block: chunk 0's map call fails, and so does chunk 1's
        # x half, which the calling thread draws after it.  The pass surfaces
        # errors in stream order, chunk by chunk, so the map's error wins
        # (a whole-batch pass, which samples before its first map call,
        # surfaced the sampling error).
        drawn = []

        def refuse_the_second_block(out):
            drawn.append(out.shape[0])
            if len(drawn) == 2:
                raise InfeasibleDomainError("chunk 1 refused")

        def refuse(rows):
            raise RuntimeError("the map refused")

        _rewrite_stream(monkeypatch, space_module.STREAM_PAIR_X, refuse_the_second_block)
        monkeypatch.setattr(space_module, "_BLOCK_VALUES", _STREAM_BLOCK_ROWS * 3)
        monkeypatch.setattr(space_module, "_CHUNK_BLOCKS", 1)
        sampler = Sampler.restricted_pairs(8, _STREAM_COUNT, _R)
        f, params = MapHandle(refuse, 3, 1), equation_params("1/2")
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="^the map refused$"):
            if threads == "serial":
                # A busy helper leaves the whole pass on the calling thread.
                with space_module._HELPER_BUSY:
                    certify(f, params, 1.0, euclidean(3), sampler)
            else:
                certify(f, params, 1.0, euclidean(3), sampler)
        assert drawn == [_STREAM_BLOCK_ROWS] * 2
        assert threading.active_count() == before

    def test_a_streamed_restricted_pass_shares_one_helper(self, monkeypatch):
        # Chunks of 16 blocks: each thread evaluates half a chunk, 8 blocks,
        # a pass that would hand its later half off were the helper free.
        # It is busy, so the map only ever runs beside the one helper, on
        # both threads, and the helper is joined after the pass.
        monkeypatch.setattr(space_module, "_BLOCK_VALUES", _STREAM_BLOCK_ROWS * 3)
        monkeypatch.setattr(space_module, "_CHUNK_BLOCKS", 16)
        form, seen = random_symmetric_form(euclidean(3), euclidean(2), seed=4), set()

        def evaluator(rows):
            seen.add((threading.get_ident(), threading.active_count()))
            return form(rows)

        f, params = MapHandle(evaluator, 3, 2), equation_params("1/3")
        before = threading.active_count()
        fold = space_module.fold_pairs_restricted(
            euclidean(3),
            1.0,
            Sampler.restricted_pairs(8, _STREAM_COUNT, _R),
            lambda xs, ys: norm_eval(None, residual_gq(f, params, xs, ys)),
        )
        assert np.isfinite(fold.sup)
        assert len({ident for ident, _ in seen}) == 2
        assert {count for _, count in seen} == {before + 1}
        assert threading.active_count() == before

    def test_a_streamed_restricted_pass_keeps_its_rows_under_fast_switching(self, monkeypatch):
        # Chunks of one block: the next chunk's draw reuses the buffers of
        # the chunk before the current one.  With the threads switching every
        # microsecond, no draw may overwrite rows still being evaluated, so
        # every evaluated value is one of the whole batch's.
        monkeypatch.setattr(space_module, "_BLOCK_VALUES", _STREAM_BLOCK_ROWS * 3)
        monkeypatch.setattr(space_module, "_CHUNK_BLOCKS", 1)
        space, params = euclidean(3), equation_params("1/3")
        sampler = Sampler.restricted_pairs(8, _STREAM_COUNT, _R)
        form = random_symmetric_form(space, euclidean(2), seed=4)
        xs, ys = sample_pairs_restricted(space, 1.0, sampler)
        want = norm_eval(None, residual_gq(form, params, xs, ys))
        seen = []

        def fn(xs, ys):
            values = norm_eval(None, residual_gq(form, params, xs, ys))
            seen.append(values)
            return values

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                seen.clear()
                fold = space_module.fold_pairs_restricted(space, 1.0, sampler, fn)
                assert fold.sup == want.max()
                assert np.array_equal(np.sort(np.concatenate(seen)), np.sort(want))
        finally:
            sys.setswitchinterval(interval)
