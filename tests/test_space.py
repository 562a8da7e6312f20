"""Norm evaluation and sampler contracts."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadlab import (
    InfeasibleDomainError,
    ParameterError,
    Sampler,
    euclidean,
    norm_eval,
    p_norm,
    sample_pairs_restricted,
    sample_vectors,
    sup_norm,
    weighted_quadratic,
)
from quadlab.errors import DimensionMismatchError


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


@settings(max_examples=80, deadline=None)
@given(
    dim=st.integers(min_value=1, max_value=6),
    others=st.integers(min_value=0, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    log_scale=st.floats(min_value=-20.0, max_value=20.0),
)
def test_one_vector_is_one_row(dim, others, seed, log_scale):
    """``norm_eval(s, x)`` equals ``norm_eval(s, x[None])[0]`` and x's row in
    any batch, bit for bit, for every norm kind."""
    rng = np.random.default_rng(seed)
    batch = rng.standard_normal((1 + others, dim)) * 10.0**log_scale
    x = batch[0]
    for space in _every_norm_kind(dim):
        alone = norm_eval(space, x)
        assert isinstance(alone, float)
        assert alone == norm_eval(space, x[None])[0]
        assert alone == norm_eval(space, batch)[0]


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
    def test_ball_bounds(self):
        space = euclidean(3)
        xs = sample_vectors(space, Sampler.ball(seed=1, count=500, radius_max=1.0))
        assert xs.shape == (500, 3)
        assert np.all(space.norm(xs) <= 1.0)

    def test_annulus_bounds(self):
        space = p_norm(3, 1.0)
        xs = sample_vectors(
            space, Sampler.annulus(seed=2, count=500, r_min=2.0, r_max=3.0)
        )
        norms = space.norm(xs)
        assert np.all(norms >= 2.0) and np.all(norms <= 3.0)

    def test_bitwise_determinism(self):
        space = euclidean(4)
        sampler = Sampler.ball(seed=9, count=64, radius_max=2.0)
        a = sample_vectors(space, sampler)
        b = sample_vectors(space, sampler)
        assert a.tobytes() == b.tobytes()

    def test_seed_sensitivity(self):
        space = euclidean(4)
        a = sample_vectors(space, Sampler.ball(seed=9, count=64, radius_max=2.0))
        b = sample_vectors(space, Sampler.ball(seed=10, count=64, radius_max=2.0))
        assert not np.array_equal(a, b)

    def test_annulus_bad_range(self):
        with pytest.raises(ParameterError):
            Sampler.annulus(seed=0, count=10, r_min=3.0, r_max=2.0)
        # A degenerate annulus: no rescale lands a row on both bounds at once.
        with pytest.raises(ParameterError):
            Sampler.annulus(seed=0, count=10, r_min=1.0, r_max=1.0)

    def test_annulus_outer_radius_is_radius_max(self):
        sampler = Sampler.annulus(seed=0, count=10, r_min=1.0, r_max=3.0)
        assert (sampler.r_min, sampler.radius_max) == (1.0, 3.0)
        assert "r_max" not in {f.name for f in fields(Sampler)}

    def test_bad_seed(self):
        with pytest.raises(ParameterError):
            Sampler.ball(seed=-1, count=10, radius_max=1.0)
        with pytest.raises(ParameterError):
            Sampler.ball(seed=2**64, count=10, radius_max=1.0)

    def test_bad_count_and_radius(self):
        with pytest.raises(ParameterError):
            Sampler.ball(seed=0, count=0, radius_max=1.0)
        with pytest.raises(ParameterError):
            Sampler.ball(seed=0, count=4, radius_max=0.0)

    def test_vector_sampler_rejects_pair_mode(self):
        with pytest.raises(ParameterError):
            sample_vectors(
                euclidean(2), Sampler.restricted_pairs(seed=0, count=4, radius_max=1.0)
            )


class TestRestrictedPairs:
    def test_constraint_holds(self):
        space = euclidean(3)
        xs, ys = sample_pairs_restricted(
            space, 1.5, Sampler.restricted_pairs(seed=3, count=400, radius_max=2.0)
        )
        assert xs.shape == ys.shape == (400, 3)
        assert np.all(space.norm(xs) + space.norm(ys) >= 1.5)

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
        nx, ny = space.norm(xs), space.norm(ys)
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
        got = np.mean(statistic(space.norm(xs)))
        assert abs(got - expected) <= 4.0 * sd / np.sqrt(count)

    def test_rejects_vector_sampler(self):
        with pytest.raises(ParameterError):
            sample_pairs_restricted(
                euclidean(2), 0.0, Sampler.ball(seed=0, count=4, radius_max=1.0)
            )

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

    def test_vectors_refuse(self, p):
        with pytest.raises(InfeasibleDomainError), np.errstate(over="ignore"):
            sample_vectors(p_norm(2, p), Sampler.ball(seed=1, count=1000, radius_max=2.0))
