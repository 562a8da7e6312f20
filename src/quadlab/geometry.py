"""Norm geometry probes.

Two questions about a normed space are answered numerically: does the
norm come from an inner product (parallelogram law, with recovery of the
Gram matrix when it does), and which exponent patterns in the weighted
norm identity can vanish identically (only the all-squares pattern can).
"""

from __future__ import annotations

from itertools import product
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, UndefinedValueError
from .quadratic import EquationParams, Report
from .space import (
    Sampler,
    SpaceSpec,
    blockwise,
    form_rows,
    norm_eval,
    pair_rows,
    sample_pairs_restricted,
)


def _parallelogram(n_plus, n_minus, n_x, n_y):
    """The parallelogram defect from ``norm(x+y), norm(x-y), norm(x), norm(y)``."""
    return n_plus**2 + n_minus**2 - 2.0 * n_x**2 - 2.0 * n_y**2


def parallelogram_defect(space: SpaceSpec, x, y):
    """``norm(x+y)^2 + norm(x-y)^2 - 2 norm(x)^2 - 2 norm(y)^2``.

    Zero for all pairs exactly when the norm comes from an inner product.
    Accepts single vectors (-> float) or equal-shape batches (-> array).
    """
    xs, ys, single = pair_rows(x, y, space.dim)
    out = _parallelogram(*(norm_eval(space, v) for v in (xs + ys, xs - ys, xs, ys)))
    return float(out[0]) if single else out


@dataclass
class InnerProductVerdict(Report):
    """Outcome of inner-product detection on a space.

    ``accepted`` means the normalized parallelogram defect stayed within
    tolerance on every tested pair.  On acceptance the Gram matrix is
    recovered from polarization of the basis vectors, cross-checked
    against the norm (``bilinearity_defect``), and its least eigenvalue
    reported.  ``basis_witness_max`` is the largest raw defect among
    basis-vector pairs; for common non-inner-product norms it is a clean
    nonzero witness (4 for the 1-norm plane).
    """

    accepted: bool
    max_defect: float
    max_normalized_defect: float
    basis_witness_max: float
    recovered_gram: np.ndarray | None
    bilinearity_defect: float | None
    gram_min_eigenvalue: float | None
    tol: float
    sample_count: int
    seed: int
    space: dict


def recover_gram(space: SpaceSpec) -> np.ndarray:
    """Polarization of the basis: G[i, j] = (n(ei+ej)^2 - n(ei-ej)^2) / 4.

    Recovers the inner-product matrix exactly when the norm satisfies the
    parallelogram law; meaningless otherwise.
    """
    dim = space.dim
    eye = np.eye(dim)
    plus = norm_eval(space, (eye[:, None, :] + eye[None, :, :]).reshape(-1, dim)) ** 2
    minus = norm_eval(space, (eye[:, None, :] - eye[None, :, :]).reshape(-1, dim)) ** 2
    return ((plus - minus) / 4.0).reshape(dim, dim)


def detect_inner_product(
    space: SpaceSpec, sampler: Sampler, tol: float = 1e-9
) -> InnerProductVerdict:
    """Decide whether the space's norm satisfies the parallelogram law.

    Tests all basis pairs plus sampled pairs; the decision statistic is the
    defect normalized by ``1 + norm(x)^2 + norm(y)^2``.  On acceptance the
    Gram matrix is recovered and cross-checked against the norm on the
    sampled points.
    """
    if not np.isfinite(tol) or tol <= 0:
        raise ParameterError(f"tol must be finite and > 0, got {tol!r}")
    sample = sample_pairs_restricted(space, 0.0, sampler)
    xs, ys = sample
    n_xs, n_ys = sample.norms

    def defects(x, y, nx, ny):
        """The raw and normalized defects of each pair, shape (rows, 2)."""
        raw = np.abs(_parallelogram(norm_eval(space, x + y), norm_eval(space, x - y), nx, ny))
        return np.column_stack((raw, raw / (1.0 + nx**2 + ny**2)))

    # The largest defects over the basis pairs (none in one dimension), then
    # over the sampled pairs on the norms the sampler took; a NaN propagates.
    eye = np.eye(space.dim)
    basis = [eye[i] for i in np.triu_indices(space.dim, k=1)]
    on_basis = defects(*basis, *(norm_eval(space, v) for v in basis)).max(axis=0, initial=0.0)
    sampled = blockwise(lambda b: defects(xs[b], ys[b], n_xs[b], n_ys[b]), *xs.shape)
    basis_witness_max = float(on_basis[0])
    worst = np.maximum(on_basis, sampled.max(axis=0))
    max_defect, max_normalized_defect = (float(v) for v in worst)
    accepted = bool(max_normalized_defect <= tol)

    gram = None
    bil_defect = None
    min_eig = None
    if accepted:
        gram = recover_gram(space)
        quad = form_rows(xs, gram, xs)[:, 0]
        norms_sq = n_xs**2
        bil_defect = float(
            (np.abs(norms_sq - quad) / (1.0 + norms_sq)).max()
        )
        min_eig = float(np.linalg.eigvalsh(gram).min())

    summary = space.describe()
    summary["quasi_norm"] = space.is_quasi_norm
    return InnerProductVerdict(
        accepted=accepted,
        max_defect=max_defect,
        max_normalized_defect=max_normalized_defect,
        basis_witness_max=basis_witness_max,
        recovered_gram=gram,
        bilinearity_defect=bil_defect,
        gram_min_eigenvalue=min_eig,
        tol=float(tol),
        sample_count=sampler.count,
        seed=sampler.seed,
        space=summary,
    )


@dataclass(frozen=True)
class Exponents:
    """Exponent pattern (p, q, u, v) for the weighted norm identity.

    All four must be nonzero; zero exponents would turn a power into a
    constant and are rejected up front.
    """

    p: float
    q: float
    u: float
    v: float

    def __post_init__(self):
        for name in ("p", "q", "u", "v"):
            value = getattr(self, name)
            if not np.isfinite(value) or value == 0.0:
                raise ParameterError(
                    f"exponent {name} must be finite and nonzero, got {value}"
                )
            object.__setattr__(self, name, float(value))

    def astuple(self) -> tuple[float, float, float, float]:
        return (self.p, self.q, self.u, self.v)

    def label(self) -> str:
        return ",".join(f"{e:g}" for e in self.astuple())


_PATTERN_TERMS = ("norm(r x + s y)", "norm(x - y)", "norm(x)", "norm(y)")


def _pattern_norms(space: SpaceSpec, params: EquationParams, xs, ys, own=None) -> tuple:
    """The four norms of the weighted identity, in p, q, u, v order.

    ``own`` is ``(norm(x), norm(y))`` when the caller already has them.
    ``r x + s y`` and ``x - y`` are formed and normed one row block at a
    time, so neither is built for the whole batch.
    """
    r, s = params.r, params.s

    def normed(combine):
        return blockwise(lambda b: norm_eval(space, combine(xs[b], ys[b])), *xs.shape)

    if own is None:
        own = (norm_eval(space, xs), norm_eval(space, ys))
    return (normed(lambda x, y: r * x + s * y), normed(lambda x, y: x - y), *own)


def _power(n: np.ndarray, e: float) -> np.ndarray:
    """``n ** e``, a cube as ``n * n * n``: IEEE-754 rounds a product alike on
    every CPU, while numpy's ``pow`` follows its SIMD dispatch (its AVX512
    kernel rounds some cubes differently)."""
    return n * n * n if e == 3.0 else np.power(n, e)


def _pattern_defect(params: EquationParams, exps: Exponents, norms, powers=None):
    """``a^p + rs b^q - r c^u - s d^v`` for ``(a, b, c, d) = norms``.

    Raises :class:`UndefinedValueError` for the first norm, in p, q, u, v
    order, that is zero under a negative exponent.  ``powers``, a dict kept
    across calls on the same ``norms``, holds each term's power by
    ``(term, exponent)``, so each is raised once.
    """
    for what, n, e in zip(_PATTERN_TERMS, norms, exps.astuple()):
        if e < 0 and np.any(n == 0.0):
            raise UndefinedValueError(f"{what} is zero and its exponent {e:g} is negative")
    powers = {} if powers is None else powers
    for term, (n, e) in enumerate(zip(norms, exps.astuple())):
        if (term, e) not in powers:
            powers[term, e] = _power(n, e)
    a, b, c, d = (powers[term, e] for term, e in enumerate(exps.astuple()))
    return a + params.rs * b - params.r * c - params.s * d


def gq_norm_defect(
    space: SpaceSpec, params: EquationParams, exps: Exponents, x, y
):
    """Defect of the weighted norm identity with the given exponent pattern:

    ``n(rx+sy)^p + rs n(x-y)^q - r n(x)^u - s n(y)^v``

    With all exponents equal to 2 on an inner-product norm this vanishes
    identically; any other pattern admits pairs where it does not.
    Raises :class:`UndefinedValueError` when a zero norm meets a negative
    exponent.  Accepts single vectors (-> float) or batches (-> array).
    """
    xs, ys, single = pair_rows(x, y, space.dim)
    out = _pattern_defect(params, exps, _pattern_norms(space, params, xs, ys))
    return float(out[0]) if single else out


@dataclass
class ScanEntry(Report):
    """One exponent pattern's scan result.

    ``sup_defect`` is None when every tested pair hit an undefined value;
    ``error`` carries the recorded undefined-value message, if any.
    """

    exponents: Exponents
    sup_defect: float | None
    excluded_witness_count: int
    error: str | None = None

    _KEYS = {"excluded_witness_count": "excluded_witnesses"}

    def to_dict(self) -> dict:
        return {**super().to_dict(), "exponents": list(self.exponents.astuple())}


@dataclass
class ExponentScanTable(Report):
    """Scan results over a grid of exponent patterns.

    ``flagged()`` lists the patterns whose sup defect stayed at or below
    ``tol`` — callers assert that only the all-squares pattern appears
    there (and that on non-inner-product norms nothing does).
    """

    entries: list[ScanEntry]
    tol: float
    sample_count: int
    seed: int

    def flagged(self) -> list[Exponents]:
        return [
            e.exponents
            for e in self.entries
            if e.sup_defect is not None and e.sup_defect <= self.tol
        ]

    def to_dict(self) -> dict:
        out = super().to_dict()
        flagged = [list(e.astuple()) for e in self.flagged()]
        return {"entries": out.pop("entries"), "flagged": flagged, **out}


def default_exponent_grid() -> list[Exponents]:
    """All 81 patterns with entries in {1, 2, 3}."""
    return [
        Exponents(p, q, u, v)
        for p, q, u, v in product((1.0, 2.0, 3.0), repeat=4)
    ]


def _scan_witness_pairs(space: SpaceSpec) -> tuple[np.ndarray, np.ndarray]:
    """Structured pairs that separate exponent patterns at several scales.

    Built from a unit vector w (in the space's norm): (w, 0) and (0, w)
    expose the x- and y-exponents, (w, w) kills the difference term and
    ties the mixed-term exponent, each at scales 1/2, 1, 2 so that scale
    dependence rules out any pattern that merely coincides at one radius.
    Returns the x and the y rows, each of shape (9, dim).
    """
    base = np.eye(space.dim)[0]
    w = np.array([0.5, 1.0, 2.0])[:, None] * (base / norm_eval(space, base))
    zero = np.zeros_like(w)
    return (
        np.stack([w, w, zero], axis=1).reshape(9, space.dim),
        np.stack([zero, w, w], axis=1).reshape(9, space.dim),
    )


def exponent_scan(
    space: SpaceSpec,
    params: EquationParams,
    grid: list[Exponents],
    sampler: Sampler,
    tol: float = 1e-9,
) -> ExponentScanTable:
    """Sup of |weighted norm identity defect| per exponent pattern.

    Every pattern sees the same structured witnesses plus one shared batch
    of sampled pairs, each normed once for the whole grid, and each sampled
    norm is raised to each exponent once.  Witness pairs that hit a zero
    norm under a negative exponent are skipped and counted; an undefined
    value on the sampled batch is recorded as the pattern's error and the
    scan moves on.
    """
    if not grid:
        raise ParameterError("exponent grid must be nonempty")
    if not np.isfinite(tol) or tol <= 0:
        raise ParameterError(f"tol must be finite and > 0, got {tol!r}")
    sample = sample_pairs_restricted(space, 0.0, sampler)
    norms = _pattern_norms(space, params, *sample, sample.norms)
    # Only the norms are used below: freeing the pairs makes room for the powers.
    del sample
    powers = {}
    witness_norms = _pattern_norms(space, params, *_scan_witness_pairs(space))
    witness_zero = np.stack(witness_norms) == 0.0

    entries = []
    for exps in grid:
        undefined = (witness_zero & (np.array(exps.astuple()) < 0)[:, None]).any(axis=0)
        excluded = int(undefined.sum())
        witness = _pattern_defect(params, exps, [n[~undefined] for n in witness_norms])
        try:
            sampled = float(np.abs(_pattern_defect(params, exps, norms, powers)).max())
        except UndefinedValueError as exc:
            entries.append(ScanEntry(exps, None, excluded, error=str(exc)))
            continue
        # Python's max from 0.0 skips a NaN defect instead of propagating it.
        sup = max([0.0, *np.abs(witness).tolist(), sampled])
        entries.append(ScanEntry(exps, sup, excluded))
    return ExponentScanTable(
        entries=entries,
        tol=float(tol),
        sample_count=sampler.count,
        seed=sampler.seed,
    )
