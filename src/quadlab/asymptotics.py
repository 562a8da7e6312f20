"""Shell-resolved defect profiles and asymptotic verdicts.

The restricted-domain story says behavior far from the origin is what
matters.  These routines slice the region by the joint radius
``norm(x) + norm(y)``, measure the worst weighted-equation residual per
shell, and classify the profile: defects that die off toward the outer
shells (asymptotically quadratic), defects that persist at a fixed level,
or neither (inconclusive).

The verdict discretizes an asymptotic statement through a finite window,
so its thresholds are calibration choices, not theorems; they are pinned
as explicit constants below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .quadratic import EquationParams, Report, as_map_on, residual_gq
from .space import (
    STREAM_SHELL,
    SpaceSpec,
    _helper_thread,
    _rows_at_radii,
    _settled,
    check_count,
    check_real,
    generator,
    norm_eval,
)

VERDICT_DECAYING = "asymptotically_quadratic"
VERDICT_PERSISTENT = "persistent_defect"
VERDICT_INCONCLUSIVE = "inconclusive"

# A profile counts as non-decreasing if each step loses no more than this
# relative slack (flat profiles wiggle at rounding level).
_MONOTONE_SLACK = 1e-6

# Relative margin keeping sampled joint radii strictly inside a shell.
_SHELL_MARGIN = 1e-9

_MIN_SHELLS = 4


@dataclass
class ShellProfile(Report):
    """Per-shell sup of the weighted residual norm.

    Shell ``k`` covers joint radii ``norm(x) + norm(y)`` in
    ``[n_min + k, n_min + k + 1)``; ``deltas[k]`` is the max residual norm
    among that shell's sampled pairs.
    """

    n_min: int
    n_max: int
    deltas: np.ndarray
    per_shell_count: int
    seed: int

    @property
    def shell_count(self) -> int:
        return self.n_max - self.n_min + 1

    def shells(self) -> list[tuple[float, float]]:
        return [(float(n), float(n + 1)) for n in range(self.n_min, self.n_max + 1)]


def _shell_interval(n: int) -> tuple[float, float]:
    """Joint radii sampled for shell ``[n, n+1)``: the shell minus its margins."""
    return n + _SHELL_MARGIN * (1.0 + n), (n + 1) - _SHELL_MARGIN * (2.0 + n)


def shell_delta_profile(
    f,
    params: EquationParams,
    space: SpaceSpec,
    n_min: int,
    n_max: int,
    per_shell_count: int,
    seed: int,
) -> ShellProfile:
    """Sample each shell and record the worst Euclidean norm of its residuals.

    Each sampled pair takes a joint radius ``t`` uniform in its shell
    (with a tiny interior margin so rounding cannot push a pair across
    the boundary), splits it as ``norm(x) = a t``, ``norm(y) = (1-a) t``
    with ``a`` uniform, and draws independent directions.

    Each shell's draw (``2 * per_shell_count * dim`` values) goes through
    :func:`_helper_thread`, which may run it while the calling thread takes
    the previous shell's residuals.  ``f`` runs only on the calling thread,
    where a residual pass runs all its blocks.
    Errors surface in a serial loop's order, at most two shells' rows are
    alive at once, and the deltas are bit for bit the serial loop's.
    """
    handle = as_map_on(f, space)
    for index in (n_min, n_max):
        if isinstance(index, bool) or not isinstance(index, (int, np.integer)):
            raise ParameterError(f"shell indices must be integers, got {n_min!r}, {n_max!r}")
    if n_min < 0:
        raise ParameterError(f"n_min must be >= 0, got {n_min}")
    if n_max <= n_min:
        raise ParameterError(f"need n_max > n_min, got [{n_min}, {n_max}]")
    # The relative margin outgrows the unit shell near n = 5e8.
    lo, hi = _shell_interval(n_max)
    if lo >= hi:
        raise ParameterError(
            f"n_max {n_max} is too large: the sampling margin leaves shell "
            f"[{n_max}, {n_max + 1}) empty"
        )
    shell_count = n_max - n_min + 1
    per_shell_count = check_count("per_shell_count", per_shell_count)
    rng = generator(seed, STREAM_SHELL)

    def draw(n):
        t = rng.uniform(*_shell_interval(n), per_shell_count)
        split = rng.uniform(0.0, 1.0, per_shell_count)
        rows = [_rows_at_radii(space, rng, split * t), _rows_at_radii(space, rng, (1 - split) * t)]
        inside = lambda nx, ny: (nx + ny >= n) & (nx + ny < n + 1)  # noqa: E731
        return _settled(space, rows, inside, (n + 0.5) / 2.0, 0.5)[0]

    deltas = np.empty(shell_count)
    with _helper_thread(2 * per_shell_count * space.dim) as submit:
        drawn = submit(draw, int(n_min))
        for k, n in enumerate(range(int(n_min), int(n_max) + 1)):
            xs, ys = drawn()
            if n < n_max:
                drawn = submit(draw, n + 1)
            deltas[k] = norm_eval(None, residual_gq(handle, params, xs, ys)).max()
    return ShellProfile(
        n_min=int(n_min),
        n_max=int(n_max),
        deltas=deltas,
        per_shell_count=per_shell_count,
        seed=int(seed),
    )


@dataclass
class AsymptoticVerdict(Report):
    """Classification of a shell profile.

    ``asymptotically_quadratic``: every shell in the tail window (the last
    quarter of shells) stayed at or below ``decay_tol``.
    ``persistent_defect``: the tail max reached ``10 * decay_tol`` and the
    last half of the profile never decreased (beyond rounding slack).
    Anything else is ``inconclusive``.
    """

    verdict: str
    tail_max: float
    tail_window: int
    decay_tol: float
    nondecreasing_last_half: bool


def asymptotic_verdict(profile: ShellProfile, decay_tol: float) -> AsymptoticVerdict:
    """Classify a shell profile against a decay tolerance.

    The tail window is the last quarter of the shells (rounded up); the
    monotonicity check covers the last half.  Raises
    :class:`ParameterError` for profiles with fewer than four shells.
    """
    decay_tol = check_real("decay_tol", decay_tol, "> 0")
    deltas = np.asarray(profile.deltas, dtype=np.float64)
    k = deltas.shape[0]
    if k < _MIN_SHELLS:
        raise ParameterError(
            f"verdict needs at least {_MIN_SHELLS} shells, got {k}"
        )
    tail_window = -(-k // 4)
    tail = deltas[-tail_window:]
    tail_max = float(tail.max())

    half_len = -(-k // 2)
    half = deltas[-half_len:]
    steps_ok = half[1:] >= half[:-1] * (1.0 - _MONOTONE_SLACK)
    nondecreasing = bool(np.all(steps_ok))

    if tail_max <= decay_tol:
        verdict = VERDICT_DECAYING
    elif tail_max >= 10.0 * decay_tol and nondecreasing:
        verdict = VERDICT_PERSISTENT
    else:
        verdict = VERDICT_INCONCLUSIVE
    return AsymptoticVerdict(
        verdict=verdict,
        tail_max=tail_max,
        tail_window=int(tail_window),
        decay_tol=decay_tol,
        nondecreasing_last_half=nondecreasing,
    )
