"""Finite-dimensional real normed spaces and deterministic seeded samplers.

Vectors are float64 arrays; every norm and sampler accepts a single vector
of shape ``(dim,)`` or a batch of shape ``(N, dim)`` and acts row-wise.

All randomness flows through counter-based Philox generators keyed on
``(seed, stream_tag)``.  Distinct purposes (ball draws, the two halves of a
restricted pair, extraction probes, shell pairs) get distinct tags, so the
stream consumed by one routine can never shift the values produced by
another, and equal seeds give bitwise-equal output across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InfeasibleDomainError, ParameterError

# Stream tags combined with the user seed to key a Philox generator.
# One tag per sampling purpose; never reuse a tag for a new purpose.
STREAM_VECTORS = 1
STREAM_PAIR_X = 2
STREAM_PAIR_Y = 3
STREAM_PROBES = 4
STREAM_SHELL = 5
STREAM_FORMS = 6

_SEED_LIMIT = 2**64

_NORM_KINDS = ("euclidean", "p", "weighted", "sup")

# Fewest rows handed to np.einsum by einsum_rows.
_EINSUM_MIN_ROWS = 3

# Relative clearance from every bound of a sampled row pulled back inside:
# far above the few-ulp rounding of a norm, far below any sampled scale.
_REPAIR_SLACK = 2.0**-30


def check_seed(seed) -> int:
    """``seed`` as a Python int; :class:`ParameterError` unless it is an
    integer in [0, 2**64)."""
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed < _SEED_LIMIT:
        raise ParameterError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return int(seed)


def generator(seed: int, stream: int) -> np.random.Generator:
    """Philox generator keyed on (seed, stream); independent across streams."""
    return np.random.Generator(
        np.random.Philox(key=[np.uint64(check_seed(seed)), np.uint64(stream)])
    )


@dataclass(frozen=True, eq=False)
class SpaceSpec:
    """A real vector space R^dim carrying one of four norms.

    norm_kind is one of:

    * ``"euclidean"`` -- the standard 2-norm;
    * ``"p"`` -- the p-norm ``(sum |x_i|^p)^(1/p)`` for any ``p > 0``
      (for ``p < 1`` this is only a quasi-norm, flagged via
      :attr:`is_quasi_norm` and surfaced in downstream verdicts);
    * ``"weighted"`` -- ``sqrt(x^T G x)`` for a symmetric positive-definite
      matrix ``G``;
    * ``"sup"`` -- the max-norm.

    Instances are immutable; construct them via :func:`euclidean`,
    :func:`p_norm`, :func:`weighted_quadratic`, or :func:`sup_norm`.
    """

    dim: int
    norm_kind: str = "euclidean"
    p: float | None = None
    gram: np.ndarray | None = None

    def __post_init__(self):
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 1:
            raise ParameterError(f"dim must be a positive integer, got {self.dim!r}")
        object.__setattr__(self, "dim", int(self.dim))
        if self.norm_kind not in _NORM_KINDS:
            raise ParameterError(
                f"unknown norm kind {self.norm_kind!r}; expected one of {_NORM_KINDS}"
            )
        if self.norm_kind == "p":
            if self.p is None or not np.isfinite(self.p) or self.p <= 0:
                raise ParameterError(f"p-norm needs finite p > 0, got {self.p!r}")
            object.__setattr__(self, "p", float(self.p))
        elif self.p is not None:
            raise ParameterError("p is only meaningful for norm_kind='p'")
        if self.norm_kind == "weighted":
            g = np.asarray(self.gram, dtype=np.float64)
            if g.shape != (self.dim, self.dim):
                raise DimensionMismatchError(
                    f"gram matrix must be ({self.dim}, {self.dim}), got {g.shape}"
                )
            if not np.all(np.isfinite(g)):
                raise ParameterError("gram matrix entries must be finite")
            if not np.array_equal(g, g.T):
                raise ParameterError("gram matrix must be exactly symmetric")
            eigs = np.linalg.eigvalsh(g)
            if eigs.min() <= 0:
                raise ParameterError(
                    f"gram matrix must be positive definite (min eigenvalue {eigs.min():.3e})"
                )
            g = g.copy()
            g.flags.writeable = False
            object.__setattr__(self, "gram", g)
        elif self.gram is not None:
            raise ParameterError("gram is only meaningful for norm_kind='weighted'")

    @property
    def is_quasi_norm(self) -> bool:
        """True when the triangle inequality may fail (p-norm with p < 1)."""
        return self.norm_kind == "p" and self.p < 1.0

    def norm(self, x):
        """Norm of a vector or of each row of a batch."""
        return norm_eval(self, x)

    def describe(self) -> dict:
        """Plain-type summary for reports."""
        out = {"dim": self.dim, "norm": self.norm_kind}
        if self.norm_kind == "p":
            out["p"] = self.p
        if self.norm_kind == "weighted":
            out["gram"] = self.gram.tolist()
        return out


def euclidean(dim: int) -> SpaceSpec:
    """R^dim with the standard 2-norm."""
    return SpaceSpec(dim=dim, norm_kind="euclidean")


def p_norm(dim: int, p: float) -> SpaceSpec:
    """R^dim with the p-norm; p < 1 yields a quasi-norm and is flagged."""
    return SpaceSpec(dim=dim, norm_kind="p", p=p)


def weighted_quadratic(gram) -> SpaceSpec:
    """R^dim with norm sqrt(x^T G x) for symmetric positive-definite G."""
    g = np.asarray(gram, dtype=np.float64)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise DimensionMismatchError(f"gram matrix must be square, got shape {g.shape}")
    return SpaceSpec(dim=g.shape[0], norm_kind="weighted", gram=g)


def sup_norm(dim: int) -> SpaceSpec:
    """R^dim with the max-norm."""
    return SpaceSpec(dim=dim, norm_kind="sup")


def norm_eval(space: SpaceSpec, x):
    """Evaluate the space's norm on one vector (-> float) or rows (-> array)."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 0 or arr.shape[-1] != space.dim:
        raise DimensionMismatchError(
            f"expected vectors of length {space.dim}, got shape {arr.shape}"
        )
    if arr.ndim == 1:
        # One vector is a one-row batch, so it rounds as its row in a batch does.
        return float(_norms(space, arr[None, :])[0])
    return _norms(space, arr)


def row_norms(values, space: SpaceSpec | None) -> np.ndarray:
    """Norm in ``space`` of each row of ``values`` (one vector is one row);
    ``space=None`` means Euclidean in whatever length the rows have."""
    rows = np.atleast_2d(np.asarray(values, dtype=np.float64))
    if space is None:
        return _norms(None, rows)
    return norm_eval(space, rows)


def row_dots(rows: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Dot product of each row of ``rows`` with the same row of ``other``, or
    with ``other`` itself when it is one vector.

    Each value equals ``np.dot`` of that row alone, bit for bit, whatever the
    batch: matmul takes one BLAS dot product per stacked row, where
    ``rows @ v`` switches to a matrix-vector product that rounds each row
    differently by batch size, and a row-wise sum of products rounds
    differently again.
    """
    return (rows[:, None, :] @ other[..., :, None])[:, 0, 0]


def einsum_rows(subscripts: str, xs: np.ndarray, middle: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """``np.einsum(subscripts, xs, middle, ys)`` over row batches ``xs``, ``ys``
    of shape (N, d), with each row's value the same whatever the batch.

    einsum adds the terms of a row of length 2 in another order for one or
    two rows than for three or more (seen on numpy 2.4), so smaller batches
    go in padded with zero rows.
    """
    rows = xs.shape[0]
    if rows < _EINSUM_MIN_ROWS:
        pad = np.zeros((_EINSUM_MIN_ROWS - rows, xs.shape[1]))
        xs, ys = np.vstack([xs, pad]), np.vstack([ys, pad])
    return np.einsum(subscripts, xs, middle, ys)[:rows]


def _norms(space: SpaceSpec | None, arr: np.ndarray) -> np.ndarray:
    """Norms along the last axis; ``None`` stands for the Euclidean norm."""
    if space is None or space.norm_kind == "euclidean":
        return np.sqrt(np.sum(arr * arr, axis=-1))
    if space.norm_kind == "sup":
        return np.max(np.abs(arr), axis=-1)
    if space.norm_kind == "p":
        return np.sum(np.abs(arr) ** space.p, axis=-1) ** (1.0 / space.p)
    rows = arr.reshape(-1, space.dim)
    quad = einsum_rows("ni,ij,nj->n", rows, space.gram, rows).reshape(arr.shape[:-1])
    return np.sqrt(np.maximum(quad, 0.0))


@dataclass(frozen=True)
class Sampler:
    """Deterministic sampling request: seed, count, and a support region.

    mode is ``"annulus"`` (``r_min <= norm <= radius_max``, ``0 <= r_min < radius_max``)
    or ``"ball"`` (the same with ``r_min = 0``) for :func:`sample_vectors`, or
    ``"restricted_pairs"`` for :func:`sample_pairs_restricted`; each
    refuses the other modes.  Use the classmethods rather than the raw
    constructor.
    """

    seed: int
    count: int
    radius_max: float
    mode: str = "ball"
    r_min: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "seed", check_seed(self.seed))
        if not isinstance(self.count, (int, np.integer)) or self.count < 1:
            raise ParameterError(f"count must be a positive integer, got {self.count!r}")
        object.__setattr__(self, "count", int(self.count))
        if self.mode not in ("ball", "annulus", "restricted_pairs"):
            raise ParameterError(f"unknown sampler mode {self.mode!r}")
        if not np.isfinite(self.radius_max) or self.radius_max <= 0:
            raise ParameterError(f"radius_max must be finite and > 0, got {self.radius_max!r}")
        if self.mode != "restricted_pairs" and not 0.0 <= self.r_min < self.radius_max:
            raise ParameterError(
                f"annulus needs 0 <= r_min < r_max, got [{self.r_min}, {self.radius_max}]"
            )

    @classmethod
    def ball(cls, seed: int, count: int, radius_max: float) -> "Sampler":
        return cls(seed=seed, count=count, radius_max=radius_max, mode="ball")

    @classmethod
    def annulus(cls, seed: int, count: int, r_min: float, r_max: float) -> "Sampler":
        return cls(
            seed=seed,
            count=count,
            radius_max=float(r_max),
            mode="annulus",
            r_min=float(r_min),
        )

    @classmethod
    def restricted_pairs(cls, seed: int, count: int, radius_max: float) -> "Sampler":
        return cls(seed=seed, count=count, radius_max=radius_max, mode="restricted_pairs")


def _rows_at_radii(space: SpaceSpec, rng: np.random.Generator, radii: np.ndarray) -> np.ndarray:
    """Each radius (up to rounding) times a norm-uniform unit direction from ``rng``;
    :class:`InfeasibleDomainError` if a direction's norm overflows (its row would be zero)."""
    dirs = rng.standard_normal((radii.shape[0], space.dim))
    norms = norm_eval(space, dirs)
    if not np.all(np.isfinite(norms)):
        raise InfeasibleDomainError("norms of sampled directions overflow float64 in this space")
    degenerate = norms == 0.0
    if np.any(degenerate):
        # Probability-zero fallback: replace with the first basis direction.
        dirs[degenerate] = 0.0
        dirs[degenerate, 0] = 1.0
        norms = norm_eval(space, dirs)
    return dirs / norms[:, None] * radii[:, None]


def _settled(space: SpaceSpec, rows: list, inside, center: float, room: float) -> list:
    """``rows`` checked on their own norms, with offenders pulled inside.

    ``inside(*norms)`` marks the rows on the domain (never a NaN norm); the
    radius ``center`` clears every bound by ``room``.  A row that rounding left
    a few ulp off moves toward ``center`` until it clears every bound by
    ``_REPAIR_SLACK`` (relative) or ``room / 2``.
    """
    norms = [norm_eval(space, r) for r in rows]
    bad = ~inside(*norms)
    if not np.any(bad):
        return rows
    pull = min(0.5, _REPAIR_SLACK * center / room)
    for r, n in zip(rows, norms):
        now = n[bad]
        want = now + pull * (center - now)
        r[bad] *= np.divide(want, now, out=np.ones_like(now), where=now > 0.0)[:, None]
    if not np.all(inside(*(norm_eval(space, r) for r in rows))):
        raise InfeasibleDomainError("rounding or overflow leaves float64 rows off the domain")
    return rows


def sample_vectors(space: SpaceSpec, sampler: Sampler) -> np.ndarray:
    """Draw ``sampler.count`` vectors, shape (count, dim), from a ball or annulus.

    Norms are uniform and directions norm-uniform, so the draw is *not*
    uniform in volume; it deliberately oversamples small norms, which is
    where the restricted domain and the extraction probes need coverage.
    Equal (space, sampler) inputs reproduce bitwise-equal output.
    """
    if sampler.mode == "restricted_pairs":
        raise ParameterError(
            f"sample_vectors needs a ball or annulus sampler, got {sampler.mode!r}"
        )
    lo, hi = sampler.r_min, sampler.radius_max
    rng = generator(sampler.seed, STREAM_VECTORS)
    rows = [_rows_at_radii(space, rng, rng.uniform(lo, hi, sampler.count))]
    inside = lambda n: (n >= lo) & (n <= hi)  # noqa: E731
    return _settled(space, rows, inside, (lo + hi) / 2, (hi - lo) / 2)[0]


def sample_pairs_restricted(
    space: SpaceSpec, d: float, sampler: Sampler
) -> tuple[np.ndarray, np.ndarray]:
    """Draw pairs (x, y) with ``norm(x), norm(y) <= R = radius_max`` and
    ``norm(x) + norm(y) >= d``, each pair once, with no rejection.

    The radii ``(a, b)`` are uniform on ``{a, b in [0, R], a + b >= d}``, the
    law of independent uniform radii conditioned on the constraint: ``a``
    from the inverse CDF of its density ``min(R, R - d + a)`` on
    ``[max(0, d - R), R]``, ``b`` uniform on ``[max(0, d - a), R]``; the
    directions are independent and norm-uniform.  Raises
    :class:`ParameterError` for a sampler not in ``restricted_pairs`` mode
    or a negative or non-finite ``d``, and :class:`InfeasibleDomainError`
    when ``d >= 2 * R`` (an empty or measure-zero domain) or when rounding
    or overflow leaves rows off the domain.
    """
    if sampler.mode != "restricted_pairs":
        raise ParameterError(
            f"sample_pairs_restricted needs a restricted_pairs sampler, got {sampler.mode!r}"
        )
    if not np.isfinite(d) or d < 0:
        raise ParameterError(f"restriction threshold d must be finite and >= 0, got {d!r}")
    R = sampler.radius_max
    if d >= 2.0 * R:
        raise InfeasibleDomainError(
            f"norm(x) + norm(y) >= {d} in a ball of radius {R} has measure zero; need d < 2R"
        )
    rng_x = generator(sampler.seed, STREAM_PAIR_X)
    rng_y = generator(sampler.seed, STREAM_PAIR_Y)
    # In units of R, a's density is a ramp s = 1 - t + a over s in [s_lo, s_hi]
    # (t = d / R), then (when t < 1) flat at height 1 over a in [t, 1].
    t = d / R
    s_lo, s_hi = max(1.0 - t, 0.0), min(1.0, 2.0 - t)
    ramp = (s_hi * s_hi - s_lo * s_lo) / 2.0
    u = rng_x.uniform(0.0, ramp + s_lo, sampler.count)
    a = np.where(u <= ramp, t - 1.0 + np.sqrt(s_lo * s_lo + 2.0 * u), t + (u - ramp))
    b = rng_y.uniform(np.maximum(t - a, 0.0), 1.0)
    rows = [_rows_at_radii(space, rng_x, R * a), _rows_at_radii(space, rng_y, R * b)]
    inside = lambda nx, ny: (nx <= R) & (ny <= R) & (nx + ny >= d)  # noqa: E731
    room = (2.0 * R - d) / 4.0
    return tuple(_settled(space, rows, inside, R - room, room))
