"""Stability machinery for the weighted functional equation.

Given a map whose weighted-equation residual is small on the restricted
region ``norm(x) + norm(y) >= d``, an exactly quadratic map sits nearby.
This module computes the explicit closed-form constants of that guarantee,
extracts the nearby quadratic map pointwise by a dyadic limit, estimates
the restricted defect by sampling, and bundles everything into a
pass/fail certificate.  A separate routine checks the classical
(unweighted) half-defect bound and the t^2-homogeneity of the extracted
limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, ExtractionError, ParameterError
from .quadratic import EquationParams, Report, as_map, as_map_on, residual_gq, residual_q
from .space import (
    STREAM_PROBES,
    Sampler,
    SpaceSpec,
    _rows_at_radii,
    check_count,
    fold_pairs_restricted,
    generator,
    norm_eval,
)

# Slack applied to pass/fail comparisons so a bound met exactly in real
# arithmetic is not rejected over the last float of either side.
_PASS_SLACK = 1e-9

# verify_czerwik compares the limit at t * probe with t^2 times the probe's.
_HOMOGENEITY_SCALES = (0.5, 2.0, 3.0)

# How many of the restricted sample points join the unit-sphere probes.
_RESTRICTED_PROBES = 32


@dataclass(frozen=True)
class StabilityConstants(Report):
    """Closed-form constants attached to one (d, delta, weights) instance.

    ``near_origin_bound`` (M) bounds the defect of the classical equation
    on the missing region ``norm(x) + norm(y) < d`` once the weighted
    residual is bounded by delta outside it; ``global_q_bound`` (K = 4 M)
    is the resulting everywhere-bound used by the unrestricted argument.
    ``c_restricted`` and ``c_global`` bound the distance from the map to
    its extracted quadratic limit when the defect bound holds on the
    restricted region / everywhere, and ``c_approx`` is the sharpened
    half of ``c_global`` delivered by the certification path.
    """

    d: float
    delta: float
    near_origin_bound: float
    global_q_bound: float
    c_restricted: float
    c_global: float
    c_approx: float

    _KEYS = {
        "near_origin_bound": "M",
        "global_q_bound": "K",
        "c_restricted": "C_restricted",
        "c_global": "C_global",
        "c_approx": "C_approx",
    }


def stability_constants(params: EquationParams, d: float, delta: float) -> StabilityConstants:
    """Evaluate the closed-form stability constants.

    With weights (r, s) and shape factor ``(2 + |r| + |s|) / |r s|``:

    * ``M = 4 d (1/|r| + |1 - 1/|r||)``
    * ``K = 4 M``
    * ``C_restricted = 4 * shape * delta``
    * ``C_global     = 19 * shape * delta``
    * ``C_approx     = C_global / 2``
    """
    if not np.isfinite(d) or d < 0:
        raise ParameterError(f"restriction threshold d must be finite and >= 0, got {d!r}")
    if not np.isfinite(delta) or delta < 0:
        raise ParameterError(f"defect bound delta must be finite and >= 0, got {delta!r}")
    inv_r = 1.0 / abs(params.r)
    near = 4.0 * d * (inv_r + abs(1.0 - inv_r))
    shape = (2.0 + abs(params.r) + abs(params.s)) / abs(params.rs)
    c_global = 19.0 * shape * delta
    return StabilityConstants(
        d=float(d),
        delta=float(delta),
        near_origin_bound=near,
        global_q_bound=4.0 * near,
        c_restricted=4.0 * shape * delta,
        c_global=c_global,
        c_approx=c_global / 2.0,
    )


@dataclass
class ExtractionDiagnostics:
    """Convergence record of one dyadic limit extraction.

    ``deviations[n-1]`` is the distance between iterates n and n-1;
    ``converged`` holds exactly when the final deviation is at or below
    ``tol * (1 + norm(limit))``.  ``tail_estimate`` extrapolates the
    remaining error assuming the quarter-ratio decay that bounded
    perturbations produce.
    """

    iterations: int
    deviations: list[float] = field(default_factory=list)
    converged: bool = False
    tol: float = 0.0
    tail_estimate: float = float("nan")


@dataclass
class BatchExtraction:
    """Convergence record of dyadic limits taken at every row of a batch.

    Row ``i`` holds what :func:`extract_quadratic` reports for that row on
    its own: ``limits[i]``, ``iterations[i]``, ``converged[i]``, its
    deviations ``deviations[i, :k]`` (NaN past the last one; one column per
    doubling the batch took, at most ``max_iters``) and
    ``tail_estimate[i]``; ``base[i]`` is the map's value at the row itself
    (iterate 0), kept as the map gave it, also when the row failed.
    ``failed_at[i]`` is -1 while the row's map values stay finite, 0 when
    its base value is not finite, and ``n`` when the value at ``2**n``
    times the row is not; a failed row's limit and tail estimate are NaN.
    """

    base: np.ndarray
    limits: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    deviations: np.ndarray
    tail_estimate: np.ndarray
    failed_at: np.ndarray
    tol: float

    @property
    def first_failure(self) -> int | None:
        """Lowest failed row index, or None when every row stayed finite."""
        failed = np.flatnonzero(self.failed_at >= 0)
        return int(failed[0]) if failed.size else None

    def failure(self, i: int) -> str | None:
        """Why row ``i`` failed, or None when it did not."""
        n = int(self.failed_at[i])
        if n < 0:
            return None
        if n == 0:
            return "map value at the base point is not finite"
        return f"map value became non-finite at scale 2**{n}"

    def diagnostics(self, i: int) -> ExtractionDiagnostics:
        """Row ``i``'s record as :class:`ExtractionDiagnostics`."""
        count = int(self.iterations[i]) - int(self.failed_at[i] > 0)
        return ExtractionDiagnostics(
            iterations=int(self.iterations[i]),
            deviations=self.deviations[i, :count].tolist(),
            converged=bool(self.converged[i]),
            tol=self.tol,
            tail_estimate=float(self.tail_estimate[i]),
        )


def _extraction_map(f, max_iters, tol):
    """``f`` as a map handle, with the extraction controls checked."""
    handle = as_map(f)
    check_count("max_iters", max_iters)
    if not np.isfinite(tol) or tol <= 0:
        raise ParameterError(f"tol must be finite and > 0, got {tol!r}")
    return handle


def extract_quadratic_batch(f, points, max_iters: int = 26, tol: float = 1e-10) -> BatchExtraction:
    """Pointwise dyadic limit ``lim_n f(2^n x) / 4^n`` at every row of ``points``.

    Each doubling makes one map call on the rows still iterating.  A row
    stops once its successive iterates agree to relative ``tol``
    (``dev <= tol * (1 + norm(iterate))``), after ``max_iters`` doublings,
    or at the first non-finite map value, which marks the row failed
    instead of raising.  Every row's record is bit for bit what
    :func:`extract_quadratic` gives for that row alone.
    """
    handle = _extraction_map(f, max_iters, tol)
    rows = np.asarray(points, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != handle.domain_dim:
        raise DimensionMismatchError(
            f"extraction points must be rows of length {handle.domain_dim}, "
            f"got shape {rows.shape}"
        )
    count = rows.shape[0]
    base = handle(rows)
    # A copy: the iterates overwrite it, and a map may hand back its input.
    limits = base.copy()
    iterations = np.zeros(count, dtype=np.int64)
    converged = np.zeros(count, dtype=bool)
    # Per doubling, the rows it moved and their deviations; the (count, n)
    # record is built at the end, so memory follows the doublings taken.
    doublings = []
    last = np.full(count, np.nan)
    failed_at = np.where(np.all(np.isfinite(limits), axis=1), -1, 0)
    active = np.flatnonzero(failed_at < 0)
    for n in range(1, max_iters + 1):
        if active.size == 0:
            break
        # ldexp, not Python float powers: 4.0**512 raises OverflowError.
        values = handle(np.ldexp(rows[active], n))
        iterations[active] = n
        finite = np.all(np.isfinite(values), axis=1)
        failed_at[active[~finite]] = n
        active = active[finite]
        current = np.ldexp(values[finite], -2 * n)
        dev = norm_eval(None, current - limits[active])
        scale = norm_eval(None, current)
        doublings.append((active, dev))
        last[active] = dev
        limits[active] = current
        # Norms of huge finite iterates can overflow to inf; an infinite
        # deviation or scale must read as divergence, not convergence.
        done = np.isfinite(dev) & np.isfinite(scale) & (dev <= tol * (1.0 + scale))
        converged[active[done]] = True
        active = active[~done]
    deviations = np.full((count, len(doublings)), np.nan)
    for n, (moved, dev) in enumerate(doublings):
        deviations[moved, n] = dev
    failed = failed_at >= 0
    limits[failed] = np.nan
    # Quarter-ratio geometric tail: sum_{k>=1} dev * 4^-k = dev / 3.
    tail = np.where(failed, np.nan, last / 3.0)
    return BatchExtraction(
        base, limits, iterations, converged, deviations, tail, failed_at, float(tol)
    )


def extract_quadratic(f, x, max_iters: int = 26, tol: float = 1e-10):
    """Pointwise dyadic limit ``lim_n f(2^n x) / 4^n``: the one-row case of
    :func:`extract_quadratic_batch`.

    Returns ``(value, diagnostics)``.  The iteration stops once successive
    iterates agree to relative ``tol``, or after ``max_iters`` doublings.
    A non-finite evaluation raises :class:`ExtractionError` carrying the
    diagnostics gathered so far.
    """
    handle = _extraction_map(f, max_iters, tol)
    point = np.asarray(x, dtype=np.float64)
    if point.ndim != 1 or point.shape[0] != handle.domain_dim:
        raise DimensionMismatchError(
            f"extraction point must be a vector of length {handle.domain_dim}, "
            f"got shape {point.shape}"
        )
    batch = extract_quadratic_batch(handle, point[None, :], max_iters, tol)
    if batch.failed_at[0] >= 0:
        raise ExtractionError(batch.failure(0), batch.diagnostics(0))
    return batch.limits[0], batch.diagnostics(0)


def _probes(space: SpaceSpec, sampler: Sampler, xs: np.ndarray, probe_count: int):
    """``probe_count`` unit-sphere probes followed by the first sampled points."""
    unit = _rows_at_radii(space, generator(sampler.seed, STREAM_PROBES), np.ones(probe_count))
    return np.vstack([unit, xs[:_RESTRICTED_PROBES]])


def _within(value: float, bound: float) -> bool:
    """The pass comparison: ``value <= bound`` up to ``_PASS_SLACK``."""
    return bool(value <= bound + _PASS_SLACK * (1.0 + bound))


def _restricted_residuals(handle, params, d, space, sampler, keep=False):
    """The Euclidean norm of each sampled restricted pair's weighted
    residual, folded chunk by chunk (:func:`fold_pairs_restricted`), with the
    first ``_RESTRICTED_PROBES`` sampled x rows."""
    return fold_pairs_restricted(
        space,
        d,
        sampler,
        lambda xs, ys: norm_eval(None, residual_gq(handle, params, xs, ys)),
        head=_RESTRICTED_PROBES,
        keep=keep,
    )


def estimate_delta_restricted(
    f,
    params: EquationParams,
    d: float,
    space: SpaceSpec,
    sampler: Sampler,
) -> float:
    """Empirical sup of the weighted residual's Euclidean norm over sampled
    restricted pairs.

    This is a lower estimate of the true restricted sup: it sees only pairs
    inside the sampler's ball.  For noise with a known sup it lands within
    the triangle-inequality ceiling ``(1 + |rs| + |r| + |s|) * sup``.
    """
    handle = as_map_on(f, space)
    return float(_restricted_residuals(handle, params, d, space, sampler).sup)


@dataclass
class StabilityCertificate(Report):
    """Outcome of one certification run.

    ``passed`` is True/False for a completed comparison and None when the
    run was inconclusive (some probe's limit extraction failed).  The
    comparison is ``max_deviation <= c_approx + 1e-9 * (1 + c_approx)``.
    ``samples`` holds the sampled pairs and each pair's residual norm as
    whole-batch arrays ``(xs, ys, norms)`` when :func:`certify` was asked to
    keep them (``keep_samples=True``), else None; it is left out of
    :meth:`to_dict` and equality.
    """

    params: EquationParams
    d: float
    constants: StabilityConstants
    delta_hat: float
    delta_source: str
    probe_count: int
    evenness_defect: float
    max_deviation: float | None
    bound_used: float
    passed: bool | None
    inconclusive: bool
    warnings: list[str]
    sample_count: int
    seed: int
    max_iters: int
    tol: float
    extraction_iterations_max: int
    samples: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

    _KEYS = {"passed": "pass"}


def certify(
    f,
    params: EquationParams,
    d: float,
    space: SpaceSpec,
    sampler: Sampler,
    *,
    max_iters: int = 26,
    tol: float = 1e-10,
    delta_override: float | None = None,
    probe_count: int = 32,
    keep_samples: bool = False,
) -> StabilityCertificate:
    """End-to-end stability certification.

    Estimates the restricted defect (unless ``delta_override`` pins it),
    evaluates the constants, extracts the dyadic limit at unit-sphere
    probes plus the first sampled restricted points, and compares the
    worst observed distance against the sharpened bound ``c_approx``.
    The sampled pairs stream through the residual chunk by chunk, so the
    rows held follow the chunk, not the batch; ``keep_samples=True`` keeps
    the whole batch's rows and residual norms as the certificate's
    ``samples``.

    A probe whose extraction blows up makes the certificate inconclusive
    rather than failed; warnings flag small ``|r s|``, quasi-norm domains,
    visibly uneven maps, and non-converged extractions.
    """
    probe_count = check_count("probe_count", probe_count)
    handle = as_map_on(f, space)
    warnings_: list[str] = []
    if params.small_rs:
        warnings_.append(
            f"|r*s| = {abs(params.rs):.3e} is small; stability constants are "
            "inflated by its reciprocal"
        )
    if space.is_quasi_norm:
        warnings_.append(
            f"domain norm p={space.p} is a quasi-norm (p < 1); the guarantees "
            "assume a genuine norm"
        )

    fold = _restricted_residuals(handle, params, d, space, sampler, keep_samples)
    delta_hat = float(fold.sup)
    if delta_override is not None:
        if not np.isfinite(delta_override) or delta_override < 0:
            raise ParameterError(
                f"delta_override must be finite and >= 0, got {delta_override!r}"
            )
        delta_used = float(delta_override)
        delta_source = "override"
    else:
        delta_used = delta_hat
        delta_source = "empirical"
    constants = stability_constants(params, d, delta_used)

    probes = _probes(space, sampler, fold.head, probe_count)
    batch = extract_quadratic_batch(handle, probes, max_iters, tol)
    f_probes = batch.base
    evenness = float(norm_eval(None, f_probes - handle(-probes)).max())
    probe_scale = float(norm_eval(None, f_probes).max())
    if evenness > 1e-9 * (1.0 + probe_scale):
        warnings_.append(
            f"map is visibly uneven at the probes (defect {evenness:.3e}); "
            "only its even part is certified against the quadratic limit"
        )

    failed = batch.first_failure
    inconclusive = failed is not None
    if inconclusive:
        warnings_.append(f"extraction failed at probe {failed}: {batch.failure(failed)}")
    elif not np.all(batch.converged):
        warnings_.append(
            f"some extractions did not reach relative tol {tol:g} within "
            f"{max_iters} doublings"
        )

    if inconclusive:
        max_deviation = None
        passed = None
    else:
        max_deviation = float(norm_eval(None, f_probes - batch.limits).max())
        passed = _within(max_deviation, constants.c_approx)

    return StabilityCertificate(
        params=params,
        d=float(d),
        constants=constants,
        delta_hat=delta_hat,
        delta_source=delta_source,
        probe_count=probes.shape[0],
        evenness_defect=evenness,
        max_deviation=max_deviation,
        bound_used=constants.c_approx,
        passed=passed,
        inconclusive=inconclusive,
        warnings=warnings_,
        sample_count=sampler.count,
        seed=sampler.seed,
        max_iters=max_iters,
        tol=tol,
        # Rows past the first failure count as never extracted.
        extraction_iterations_max=int(batch.iterations[:failed].max(initial=0)),
        samples=fold.samples,
    )


@dataclass
class CzerwikReport(Report):
    """Half-defect check for the classical equation.

    For any map with classical residual bounded by ``delta_hat``, the
    dyadic limit is quadratic and within ``delta_hat / 2`` of the map; the
    report records the observed worst distance, whether it is within the
    half bound, and how far the limit is from exact ``t^2``-homogeneity at
    a few scales.
    """

    delta_hat: float
    bound: float
    max_deviation: float
    within_bound: bool
    homogeneity_defects: dict[float, float]
    homogeneity_ok: bool
    probe_count: int
    sample_count: int
    seed: int
    warnings: list[str]


def verify_czerwik(
    f,
    space: SpaceSpec,
    sampler: Sampler,
    *,
    max_iters: int = 26,
    tol: float = 1e-9,
    probe_count: int = 32,
) -> CzerwikReport:
    """Check the classical half-defect bound and limit homogeneity.

    Unconstrained pairs estimate the classical defect sup ``delta_hat``;
    the dyadic limit is extracted at unit-sphere probes plus sampled
    points and compared against ``delta_hat / 2``; then the limit is
    re-extracted at ``t * probe`` and compared with ``t^2`` times the base
    limit for each ``t`` in ``_HOMOGENEITY_SCALES``.
    """
    probe_count = check_count("probe_count", probe_count)
    handle = as_map_on(f, space)
    warnings_: list[str] = []
    if space.is_quasi_norm:
        warnings_.append(f"domain norm p={space.p} is a quasi-norm (p < 1)")

    fold = fold_pairs_restricted(
        space,
        0.0,
        sampler,
        lambda xs, ys: norm_eval(None, residual_q(handle, xs, ys)),
        head=_RESTRICTED_PROBES,
    )
    delta_hat = float(fold.sup)

    probes = _probes(space, sampler, fold.head, probe_count)
    # The base probes, then t * probes for each scale, in one batch; its
    # first failed row raises, as extracting the blocks in turn would.
    batch = extract_quadratic_batch(
        handle, np.vstack([probes] + [t * probes for t in _HOMOGENEITY_SCALES]), max_iters, tol
    )
    failed = batch.first_failure
    if failed is not None:
        raise ExtractionError(batch.failure(failed), batch.diagnostics(failed))
    blocks = np.split(batch.limits, len(_HOMOGENEITY_SCALES) + 1)
    base = blocks[0]
    # Rows keep their bits in any batch, so the first block's base values
    # are the map at the probes.
    f_probes = batch.base[: probes.shape[0]]
    max_deviation = float(norm_eval(None, f_probes - base).max())
    bound = delta_hat / 2.0

    base_scale = float(norm_eval(None, base).max())
    hom_defects: dict[float, float] = {}
    hom_ok = True
    for t, scaled in zip(_HOMOGENEITY_SCALES, blocks[1:]):
        defect = float(norm_eval(None, scaled - t * t * base).max())
        hom_defects[float(t)] = defect
        hom_ok = hom_ok and defect <= 1e-8 * (1.0 + t * t * base_scale)

    return CzerwikReport(
        delta_hat=delta_hat,
        bound=bound,
        max_deviation=max_deviation,
        within_bound=_within(max_deviation, bound),
        homogeneity_defects=hom_defects,
        homogeneity_ok=hom_ok,
        probe_count=probes.shape[0],
        sample_count=sampler.count,
        seed=sampler.seed,
        warnings=warnings_,
    )
