"""Finite-dimensional real normed spaces and deterministic seeded samplers.

One vector is a one-row batch.  Every entry point that evaluates vectors
(norms, forms, maps, noises, residuals, geometry defects) passes its input
through :func:`as_rows` or :func:`pair_rows`, so evaluators always receive
C-ordered (N, n) float64 rows, and memory layout never changes a row's bits.
A single vector's result is its row of the batch result.  Whole-batch
pipelines run in cache-sized blocks from :func:`row_blocks`; every built-in
evaluator gives a row the same bits in any block, so :func:`blockwise` can
share a pass's blocks between the calling thread and one helper, which takes
only a call that fills more than one row block (:func:`_helper_thread`), and
:func:`fold_pairs_restricted` can stream restricted pairs into a running
maximum chunk by chunk, holding two chunks of rows rather than the batch.

All randomness flows through counter-based Philox generators keyed on
``(seed, stream_tag)``.  Distinct purposes (the two halves of a restricted
pair, extraction probes, shell pairs) get distinct tags, so the stream
consumed by one routine can never shift the values produced by another,
and equal seeds give bitwise-equal output across runs.
"""

from __future__ import annotations

import numbers
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, InfeasibleDomainError, ParameterError

# Stream tags combined with the user seed to key a Philox generator.
# One tag per sampling purpose; never reuse a tag for a new purpose.  Tag 1
# (single-vector ball draws) is retired and is never reused.
STREAM_PAIR_X = 2
STREAM_PAIR_Y = 3
STREAM_PROBES = 4
STREAM_SHELL = 5
STREAM_FORMS = 6

_SEED_LIMIT = 2**64

_NORM_KINDS = ("euclidean", "p", "weighted", "sup")

# Float64 values per row block (512 KiB): whole-batch pipelines run block by
# block so that each block's temporaries stay in cache (see row_blocks).
_BLOCK_VALUES = 2**16

# Held while a helper thread runs: quadlab starts at most one at a time
# (see _helper_thread).
_HELPER_BUSY = threading.Lock()

# Relative clearance from every bound of a sampled row pulled back inside:
# far above the few-ulp rounding of a norm, far below any sampled scale.
_REPAIR_SLACK = 2.0**-30


def check_seed(seed) -> int:
    """``seed`` as a Python int; :class:`ParameterError` unless it is an
    integer in [0, 2**64) (a bool is not)."""
    integer = isinstance(seed, (int, np.integer)) and not isinstance(seed, bool)
    if not integer or not 0 <= seed < _SEED_LIMIT:
        raise ParameterError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return int(seed)


def check_count(name: str, value) -> int:
    """``value`` as a Python int; :class:`ParameterError` naming ``name``
    unless it is an integer of at least 1 (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ParameterError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


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
        object.__setattr__(self, "dim", check_count("dim", self.dim))
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


def as_rows(x, dim: int | None = None) -> tuple[np.ndarray, bool]:
    """``x`` as C-ordered float64 rows of shape (N, dim), and whether it was
    one vector (a one-row batch).

    ``dim=None`` accepts rows of any length.  Anything but one vector or
    (N, dim) rows raises :class:`DimensionMismatchError`.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim not in (1, 2) or (dim is not None and arr.shape[-1] != dim):
        want = "rows" if dim is None else f"length {dim}"
        raise DimensionMismatchError(
            f"expected one vector or rows of {want}, got shape {arr.shape}"
        )
    single = arr.ndim == 1
    return np.ascontiguousarray(np.atleast_2d(arr)), single


def pair_rows(x, y, dim: int) -> tuple[np.ndarray, np.ndarray, bool]:
    """:func:`as_rows` for both halves of a pair, which must have equal shapes."""
    xs, single = as_rows(x, dim)
    ys, y_single = as_rows(y, dim)
    if (xs.shape, single) != (ys.shape, y_single):
        raise DimensionMismatchError(
            f"x and y must have equal shapes, got {np.shape(x)} and {np.shape(y)}"
        )
    return xs, ys, single


def norm_eval(space: SpaceSpec | None, x):
    """The norm in ``space`` of one vector (-> float) or of each row (->
    array), block by block; ``space=None`` means Euclidean in whatever
    length the rows have."""
    rows, single = as_rows(x, None if space is None else space.dim)
    out = blockwise(lambda block: _block_norms(space, rows[block]), *rows.shape)
    return float(out[0]) if single else out


def row_blocks(n: int, width: int):
    """Slices that cover ``range(n)`` in order, in blocks of
    ``_BLOCK_VALUES // width`` rows (at least one).

    A pipeline over (n, width) rows runs each block through all its steps
    and writes the block's rows into one output, so no step allocates a
    whole-batch temporary.  Every built-in norm, form, noise and map gives a
    row the same bits in any block, so blocking changes no value.
    """
    step = max(1, _BLOCK_VALUES // width)
    for lo in range(0, n, step):
        yield slice(lo, min(lo + step, n))


def blockwise(fn, n: int, width: int) -> np.ndarray:
    """``fn(rows)`` for each slice ``rows`` of :func:`row_blocks`, gathered
    in order into one float64 array of n rows.

    A batch of one block returns ``fn``'s own result, with no copy.  In a
    larger one the calling thread runs the first block, which sizes the
    output, and only then allocates it: an output allocated before the
    temporaries leaves them at the top of the heap, where freeing them can
    hand pages back to the system, to be faulted in again on the next call.
    The other blocks split into two runs in order, and the later run goes
    through :func:`_helper_thread` with its rows' values: past one block's
    worth (in any pass of four blocks or more), the helper writes it into
    the output while the calling thread writes the earlier run, so ``fn``
    must be safe to call from two threads at once on different blocks.  A
    pass run while the helper is busy, such as one inside a streamed
    restricted pass (:func:`fold_pairs_restricted`), stays on its thread.
    Each block's rows are ``fn``'s, so the output is the serial loop's bit
    for bit, and errors surface in its order: the earlier run's first.
    """
    blocks = list(row_blocks(n, width)) or [slice(0, 0)]
    first = fn(blocks[0])
    if first.shape[0] == n:
        return first
    out = np.empty((n, *first.shape[1:]))
    out[: first.shape[0]] = first

    def fill(run):
        for rows in run:
            out[rows] = fn(rows)

    split = (len(blocks) + 1) // 2
    with _helper_thread((n - blocks[split].start) * width) as submit:
        later = submit(fill, blocks[split:])
        fill(blocks[1:split])
    later()
    return out


def form_rows(xs: np.ndarray, flat: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """``(x_n^T M_k y_n)`` for each row pair of ``xs``, ``ys`` (both C-ordered
    (N, dim) rows, as :func:`as_rows` gives them), shape (N, k).

    ``flat`` holds the k matrices side by side, shape (dim, k * dim), so that
    ``flat[i, k * dim + j] = M_k[i, j]``; one (dim, dim) matrix is its own
    layout.  Rows go in blocks of :func:`row_blocks` (``k * dim`` values a
    row) through two two-operand einsums, ``x_n^T flat`` and then a row-wise
    contraction with ``y_n``.  einsum without ``optimize`` calls no BLAS,
    and on C-ordered rows it adds each row's terms in one order whatever the
    batch, so a row's value depends neither on its batch nor on the BLAS
    core type.
    """
    dim = xs.shape[1]
    k = flat.shape[1] // dim
    out = np.empty((xs.shape[0], k))
    for rows in row_blocks(xs.shape[0], k * dim):
        half = np.einsum("ni,im->nm", xs[rows], flat).reshape(-1, k, dim)
        np.einsum("nkj,nj->nk", half, ys[rows], out=out[rows])
    return out


def row_sums(v: np.ndarray) -> np.ndarray:
    """The sum of each row of the (N, w) array ``v``, in numpy's pairwise order.

    Rows of up to 8 elements are summed column by column over all rows, in
    the order numpy's ``sum`` takes within one row (as of numpy 2.4): 0.0
    plus the elements in sequence below 8, and 0.0 plus
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` at 8.  That takes a few
    whole-column operations in place of one short loop per row.  Wider rows
    go to ``v.sum(axis=-1)`` itself.
    """
    n, w = v.shape
    if w > 8:
        return v.sum(axis=-1)
    if w < 8:
        out = np.zeros(n)
        for j in range(w):
            out += v[:, j]
        return out
    out = v[:, 0] + v[:, 1]
    out += v[:, 2] + v[:, 3]
    right = v[:, 4] + v[:, 5]
    right += v[:, 6] + v[:, 7]
    out += right
    out += 0.0
    return out


def _block_norms(space: SpaceSpec | None, rows: np.ndarray) -> np.ndarray:
    if space is None or space.norm_kind == "euclidean":
        return np.sqrt(row_sums(rows * rows))
    if space.norm_kind == "sup":
        return np.max(np.abs(rows), axis=-1)
    if space.norm_kind == "p":
        return row_sums(np.abs(rows) ** space.p) ** (1.0 / space.p)
    return np.sqrt(np.maximum(form_rows(rows, space.gram, rows)[:, 0], 0.0))


@dataclass(frozen=True)
class Sampler:
    """Deterministic request for restricted pairs: seed, count, and the
    radius ``radius_max`` of the ball both halves of a pair lie in (see
    :func:`sample_pairs_restricted`).  Build it with :meth:`restricted_pairs`.
    """

    seed: int
    count: int
    radius_max: float

    def __post_init__(self):
        object.__setattr__(self, "seed", check_seed(self.seed))
        object.__setattr__(self, "count", check_count("count", self.count))
        radius = self.radius_max
        # Comparing before converting keeps ints too large for a float out.
        real = isinstance(radius, numbers.Real) and not isinstance(radius, bool)
        if not real or not 0 < radius <= sys.float_info.max:
            raise ParameterError(f"radius_max must be finite and > 0, got {radius!r}")
        object.__setattr__(self, "radius_max", float(radius))

    @classmethod
    def restricted_pairs(cls, seed: int, count: int, radius_max: float) -> "Sampler":
        return cls(seed=seed, count=count, radius_max=radius_max)


def _rows_at_radii(
    space: SpaceSpec,
    rng: np.random.Generator,
    radii: np.ndarray,
    rows: np.ndarray | None = None,
    norms: np.ndarray | None = None,
) -> np.ndarray:
    """Each radius (up to rounding) times a norm-uniform unit direction from ``rng``;
    :class:`InfeasibleDomainError` if a direction's norm overflows (its row would be zero).

    The caller allocates: ``rows`` is a C-ordered (N, dim) float64 array for
    the N radii (None allocates one here), and ``norms``, when given, an
    (N,) array.  This function fills them in place and returns ``rows``.
    Each block of :func:`row_blocks` draws its directions from ``rng``
    straight into its rows, in order, which is the stream one whole-batch
    draw would take, so blocking leaves every row's bits; the block is then
    normed, divided and scaled where it lies, and its finished rows' norms
    go into ``norms``.  A helper thread that fills rows the caller allocated
    leaves only block temporaries in its own heap, whose freed memory glibc
    does not give back to the caller's allocations.
    """
    n = radii.shape[0]
    if rows is None:
        rows = np.empty((n, space.dim))
    for block in row_blocks(n, space.dim):
        dirs = rows[block]
        rng.standard_normal(out=dirs)
        lengths = norm_eval(space, dirs)
        if not np.all(np.isfinite(lengths)):
            raise InfeasibleDomainError("norms of sampled directions overflow float64 in this space")
        degenerate = lengths == 0.0
        if np.any(degenerate):
            # Probability-zero fallback: replace with the first basis direction.
            dirs[degenerate] = 0.0
            dirs[degenerate, 0] = 1.0
            lengths = norm_eval(space, dirs)
        dirs /= lengths[:, None]
        dirs *= radii[block, None]
        if norms is not None:
            norms[block] = norm_eval(space, dirs)
    return rows


def _settled(space: SpaceSpec, rows: list, inside, center: float, room: float, norms=None):
    """``rows`` checked on their own norms, with offenders pulled inside, and
    the norms of the returned rows (a list of arrays, one per entry of
    ``rows``).

    ``norms``, when given, holds the norms of ``rows`` as they are, so that
    they are not taken again.  ``inside(*norms)`` marks the rows on the
    domain (never a NaN norm); the radius ``center`` clears every bound by
    ``room``.  A row that rounding left a few ulp off moves toward
    ``center`` until it clears every bound by ``_REPAIR_SLACK`` (relative)
    or ``room / 2``; the norms returned are then the ones its re-check took.
    """
    if norms is None:
        norms = [norm_eval(space, r) for r in rows]
    bad = ~inside(*norms)
    if not np.any(bad):
        return rows, norms
    pull = min(0.5, _REPAIR_SLACK * center / room)
    for r, n in zip(rows, norms):
        now = n[bad]
        want = now + pull * (center - now)
        r[bad] *= np.divide(want, now, out=np.ones_like(now), where=now > 0.0)[:, None]
    norms = [norm_eval(space, r) for r in rows]
    if not np.all(inside(*norms)):
        raise InfeasibleDomainError("rounding or overflow leaves float64 rows off the domain")
    return rows, norms


@contextmanager
def _helper_thread(values: int):
    """A ``with`` block whose body receives ``submit(fn, *args)``, which
    returns ``result()``, a function giving ``fn(*args)``, a call that fills
    ``values`` float64 values.

    The one hand-off rule: a call that fills more than one row block
    (``values > _BLOCK_VALUES``) runs on one helper thread, in the order
    submitted; leaving the block, by any path, waits for it and joins the
    helper.  One helper runs at a time in the process: while one is busy,
    in this block or another thread's, a new block starts none, so a pass
    nested in a call that holds the helper (on either thread) runs on its
    own thread.  A call that starts no thread runs on the calling thread
    when ``result()`` is called (once), the serial order, or never if it is
    not called.  Either way ``fn`` runs under the numpy error state
    (``np.geterr()``, ``np.geterrcall()``) of the thread that entered the
    block.  Each user passes the values its call fills: a profile's shell
    draw (both halves), a sample's y half, a streamed restricted pass
    (:func:`fold_pairs_restricted`: every chunk's y half and the later half
    of its evaluation, all on one helper), the later run of a
    :func:`blockwise` pass, or every second block of a samples CSV
    (``cli._write_samples_csv``).
    """
    errstate = dict(np.geterr(), call=np.geterrcall())

    def under_errstate(fn, *args):
        with np.errstate(**errstate):
            return fn(*args)

    if values <= _BLOCK_VALUES or not _HELPER_BUSY.acquire(blocking=False):
        yield lambda fn, *args: partial(under_errstate, fn, *args)
        return
    try:
        # Imported here: the import costs memory, and most calls start no helper.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=1) as helper:
            yield lambda fn, *args: helper.submit(under_errstate, fn, *args).result
    finally:
        _HELPER_BUSY.release()


class PairSample(tuple):
    """Sampled pairs ``(xs, ys)``, which unpack as a 2-tuple, and ``norms``,
    the pair ``(norm_eval(space, xs), norm_eval(space, ys))`` the sampler
    checked the rows on, so that callers need not norm them again."""

    def __new__(cls, xs: np.ndarray, ys: np.ndarray, norms: tuple):
        sample = super().__new__(cls, (xs, ys))
        sample.norms = tuple(norms)
        return sample

    def __getnewargs__(self):
        # tuple's own would pass (xs, ys) alone to __new__ on copy or unpickle.
        return (*self, self.norms)


class _PairDraw:
    """The one restricted-pair primitive: a batch's radii, drawn whole on
    construction (two floats a pair), and its two direction streams, which
    fill the rows of any run of pairs into arrays the caller gives.

    :meth:`fill` draws one half's rows; each half must be filled in row
    order, which reads its generator in stream order, and the two halves
    share nothing, so they may be filled at once on two threads.
    :meth:`settle` then checks rows whose two halves are filled.  The law
    and the checks are those of :func:`sample_pairs_restricted`.
    """

    def __init__(self, space: SpaceSpec, d: float, sampler: Sampler):
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
        del u
        a *= R
        b *= R
        self.space, self.radii, self.rngs = space, (a, b), (rng_x, rng_y)
        self.inside = lambda nx, ny: (nx <= R) & (ny <= R) & (nx + ny >= d)
        self.room = (2.0 * R - d) / 4.0
        self.center = R - self.room

    def fill(self, half: int, pairs: slice, rows: np.ndarray, norms: np.ndarray) -> None:
        """Fill ``rows`` and ``norms`` with the x (``half`` 0) or y (1) rows
        of ``pairs``, the run of pairs after the last one this half filled."""
        _rows_at_radii(self.space, self.rngs[half], self.radii[half][pairs], rows, norms)

    def settle(self, rows: list, norms: list):
        """:func:`_settled` for filled ``[xs, ys]`` rows and their norms."""
        return _settled(self.space, rows, self.inside, self.center, self.room, norms)


def sample_pairs_restricted(space: SpaceSpec, d: float, sampler: Sampler) -> PairSample:
    """Draw pairs (x, y) with ``norm(x), norm(y) <= R = radius_max`` and
    ``norm(x) + norm(y) >= d``, each pair once, with no rejection, as a
    :class:`PairSample` that also carries each row's norm.

    The radii ``(a, b)`` are uniform on ``{a, b in [0, R], a + b >= d}``, the
    law of independent uniform radii conditioned on the constraint: ``a``
    from the inverse CDF of its density ``min(R, R - d + a)`` on
    ``[max(0, d - R), R]``, ``b`` uniform on ``[max(0, d - a), R]``; the
    directions are independent and norm-uniform.

    The x half (``a``, then its directions) comes from the ``STREAM_PAIR_X``
    generator and the y half (``b``, then its directions) from the
    ``STREAM_PAIR_Y`` one, so the halves can be drawn at once without moving
    a bit.  This function fills whole-batch rows and norms through one
    :class:`_PairDraw`: it submits the y half to :func:`_helper_thread`
    (``count * dim`` values), fills the x half, then reads the y half.
    Errors surface as in the serial order: the x half's first.  Raises
    :class:`ParameterError` for a negative or non-finite ``d``, and
    :class:`InfeasibleDomainError` when ``d >= 2 * R`` (an empty or
    measure-zero domain) or when rounding or overflow leaves rows off the
    domain.  :func:`fold_pairs_restricted` streams the same pairs.
    """
    draw = _PairDraw(space, d, sampler)
    # Taken after the radii, so that the radii's temporaries are freed
    # below the rows (see blockwise).
    shape = (sampler.count, space.dim)
    rows, norms = [np.empty(shape), np.empty(shape)], [np.empty(shape[0]), np.empty(shape[0])]
    pairs = slice(0, shape[0])
    with _helper_thread(sampler.count * space.dim) as submit:
        y_done = submit(draw.fill, 1, pairs, rows[1], norms[1])
        draw.fill(0, pairs, rows[0], norms[0])
    y_done()
    (xs, ys), norms = draw.settle(rows, norms)
    return PairSample(xs, ys, norms)


# Row blocks per chunk of a streamed pair pass (fold_pairs_restricted), about:
# the pass holds two chunks of both halves' rows.
_CHUNK_BLOCKS = 4


class PairFold(NamedTuple):
    """What :func:`fold_pairs_restricted` gives: ``sup``, the maximum over
    the pairs of ``fn``'s value rows (one value, or one per column); ``head``,
    the first x rows; ``samples``, ``(xs, ys, values)`` for the whole batch
    when kept, else None."""

    sup: np.ndarray
    head: np.ndarray
    samples: tuple | None


def _now(fn, *args):
    """``fn(*args)``, run now, as a ``result()`` like ``submit``'s: it returns
    the value, or raises the error the call raised."""
    try:
        value = fn(*args)
    except Exception as exc:
        error = exc

        def result():
            raise error

        return result
    return lambda: value


def fold_pairs_restricted(
    space: SpaceSpec, d: float, sampler: Sampler, fn, *, head: int = 0, keep: bool = False
) -> PairFold:
    """``fn(xs, ys)`` over the pairs :func:`sample_pairs_restricted` draws,
    folded chunk by chunk, so that the rows held follow the chunk and not
    the batch: two chunks of both halves' rows, and the batch's radii.

    ``fn`` maps pair rows to one value row each ((N,) or (N, k)) and must
    give a row the same bits in any run of rows.  The pairs are drawn
    through one :class:`_PairDraw`, in chunks of about ``_CHUNK_BLOCKS``
    whole row blocks of x rows, so each pair has the sampler's bits.  Each
    chunk's values fold into ``sup`` with ``np.maximum``, so a NaN value
    makes its column's sup NaN, as a whole-batch ``max`` would.  ``head``
    asks for the first ``head`` x rows (fewer in a smaller batch), and
    ``keep`` for the whole batch's rows and values, written into whole-batch
    arrays as the chunks pass.

    One :func:`_helper_thread` serves the whole pass (``count * dim``
    values).  The helper draws chunk 0's y half while the calling thread
    draws its x half; then, for each chunk, the helper draws the next
    chunk's y half and then runs ``fn`` on the chunk's later half of row
    blocks, while the calling thread runs ``fn`` on the earlier half and
    then draws the next chunk's x half.  So ``fn`` must be safe to call from
    two threads at once; a pass inside it (:func:`blockwise`) finds the
    helper busy and stays on its thread.  Errors surface in the order of the
    serial stream, chunk by chunk: a chunk's x half, y half, settle step,
    and ``fn`` on its earlier and its later half, so an earlier chunk's
    ``fn`` error comes before a later chunk's sampling error.
    """
    draw = _PairDraw(space, d, sampler)
    n, dim = sampler.count, space.dim
    blocks = list(row_blocks(n, dim))
    k = -(-len(blocks) // _CHUNK_BLOCKS)
    groups = [blocks[len(blocks) * i // k : len(blocks) * (i + 1) // k] for i in range(k)]
    chunks = [slice(g[0].start, g[-1].stop) for g in groups]
    if keep:
        store = [np.empty((n, dim)), np.empty((n, dim)), np.empty(n), np.empty(n)]
        views = [[a[c] for a in store] for c in chunks]
    else:
        size = max(c.stop - c.start for c in chunks)
        sets = [
            [np.empty((size, dim)), np.empty((size, dim)), np.empty(size), np.empty(size)]
            for _ in range(min(k, 2))
        ]
        views = [[a[: c.stop - c.start] for a in sets[i % 2]] for i, c in enumerate(chunks)]
    first = np.empty((min(head, n), dim))
    sup, values = None, None

    def fill(i, half):
        draw.fill(half, chunks[i], views[i][half], views[i][2 + half])

    def settle(i):
        xs, ys, nx, ny = views[i]
        draw.settle([xs, ys], [nx, ny])
        lo, hi = chunks[i].start, min(first.shape[0], chunks[i].stop)
        if lo < hi:
            first[lo:hi] = xs[: hi - lo]

    def evaluate(i, lo, hi):
        return fn(views[i][0][lo:hi], views[i][1][lo:hi])

    def fold(i, lo, part):
        nonlocal sup, values
        most = part.max(axis=0)
        sup = most if sup is None else np.maximum(sup, most)
        if keep:
            if values is None:
                values = np.empty((n, *part.shape[1:]))
            start = chunks[i].start + lo
            values[start : start + part.shape[0]] = part

    # A pass too small for the helper evaluates each chunk in one call.
    split = n * dim > _BLOCK_VALUES
    with _helper_thread(n * dim) as submit:
        y_done = submit(fill, 0, 1)
        fill(0, 0)
        y_done()
        settle(0)
        for i, chunk in enumerate(chunks):
            end = chunk.stop - chunk.start
            mid, more = (end + 1) // 2 if split else end, i + 1 < k
            y_next = submit(fill, i + 1, 1) if more else None
            later = submit(evaluate, i, mid, end) if mid < end else None
            earlier = _now(evaluate, i, 0, mid)
            x_next = _now(fill, i + 1, 0) if more else None
            fold(i, 0, earlier())
            if later is not None:
                fold(i, mid, later())
            if more:
                x_next()
                y_next()
                settle(i + 1)
    samples = (store[0], store[1], values) if keep else None
    return PairFold(sup, first, samples)
