"""Deterministic test-map generators: exact quadratic forms, perturbations
with known sup-norms or envelopes, and linear odd witnesses.

The bounded-noise model is a pure function of the input's bit pattern: the
seed and the raw float64 words of the coordinates are folded through a
64-bit splitmix-style finalizer, so re-evaluating at an equal input is
bitwise-equal and the advertised bound |noise| < delta holds for every
input by construction, not statistically.  Mixing constants (also pinned
in the README): increment 0x9E3779B97F4A7C15, multipliers
0xBF58476D1CE4E5B9 and 0x94D049BB133111EB, shift distances 30, 27, 31.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, ParameterError
from .quadratic import MapHandle, QuadraticForm
from .space import STREAM_FORMS, SpaceSpec, check_seed, generator, row_dots

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)

_NOISE_KINDS = ("none", "constant", "uniform_bounded", "decay", "sine")


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, vectorized over uint64 arrays; ``z`` is left as is."""
    z = z + _GAMMA
    z ^= z >> np.uint64(30)
    z *= _MIX_1
    z ^= z >> np.uint64(27)
    z *= _MIX_2
    z ^= z >> np.uint64(31)
    return z


@dataclass(frozen=True)
class NoiseModel:
    """A deterministic perturbation eta: R^n -> R^m applied coordinatewise.

    Kinds:

    * ``none`` -- identically zero;
    * ``constant`` -- every output coordinate equals ``c``;
    * ``uniform_bounded`` -- hash-based values in (-delta, delta), a pure
      function of (seed, input bits);
    * ``decay`` -- ``c / (1 + ||x||_2^alpha)``, vanishing at infinity;
    * ``sine`` -- ``c * sin(<w, x>)``, bounded but non-decaying.

    Build instances with the classmethods.
    """

    kind: str
    c: float = 0.0
    delta: float = 0.0
    seed: int = 0
    alpha: float = 1.0
    freq: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in _NOISE_KINDS:
            raise ParameterError(
                f"unknown noise kind {self.kind!r}; expected one of {_NOISE_KINDS}"
            )
        if not np.isfinite(self.c):
            raise ParameterError(f"noise amplitude must be finite, got {self.c!r}")
        if not np.isfinite(self.delta) or self.delta < 0:
            raise ParameterError(f"noise bound delta must be finite and >= 0, got {self.delta!r}")
        object.__setattr__(self, "seed", check_seed(self.seed))
        if self.kind == "decay" and (not np.isfinite(self.alpha) or self.alpha <= 0):
            raise ParameterError(f"decay exponent alpha must be > 0, got {self.alpha!r}")
        if self.freq is not None:
            w = np.asarray(self.freq, dtype=np.float64)
            if w.ndim != 1 or not np.all(np.isfinite(w)):
                raise ParameterError("sine frequency must be a finite vector")
            w = w.copy()
            w.flags.writeable = False
            object.__setattr__(self, "freq", w)
        elif self.kind == "sine":
            raise ParameterError("sine noise needs a frequency vector")

    @classmethod
    def none(cls) -> "NoiseModel":
        return cls(kind="none")

    @classmethod
    def constant(cls, c: float) -> "NoiseModel":
        return cls(kind="constant", c=float(c))

    @classmethod
    def uniform_bounded(cls, delta: float, seed: int) -> "NoiseModel":
        return cls(kind="uniform_bounded", delta=float(delta), seed=seed)

    @classmethod
    def decay(cls, c: float, alpha: float = 1.0) -> "NoiseModel":
        return cls(kind="decay", c=float(c), alpha=float(alpha))

    @classmethod
    def sine(cls, c: float, freq) -> "NoiseModel":
        return cls(kind="sine", c=float(c), freq=np.asarray(freq, dtype=np.float64))

    def describe(self) -> dict:
        out = {"kind": self.kind}
        if self.kind == "constant":
            out["c"] = self.c
        elif self.kind == "uniform_bounded":
            out["delta"] = self.delta
            out["seed"] = self.seed
        elif self.kind == "decay":
            out["c"] = self.c
            out["alpha"] = self.alpha
        elif self.kind == "sine":
            out["c"] = self.c
            out["freq"] = self.freq.tolist()
        return out


def _hash_unit(rows: np.ndarray, seed: int, codim: int) -> np.ndarray:
    """Per-row hash values in [0, 1), shape (N, codim).

    Folds the seed and each coordinate's raw float64 bits through the
    splitmix64 finalizer, then derives one lane per output coordinate.
    """
    bits = np.ascontiguousarray(rows, dtype=np.float64).view(np.uint64)
    h = _mix64(np.full(rows.shape[0], seed, dtype=np.uint64))
    for j in range(bits.shape[1]):
        h = _mix64(h ^ bits[:, j])
    out = np.empty((rows.shape[0], codim), dtype=np.float64)
    for k in range(codim):
        lane = _mix64(h ^ np.uint64(k + 1))
        out[:, k] = (lane >> np.uint64(11)) * 2.0**-53
    return out


def noise_values(model: NoiseModel, x, codim: int = 1):
    """Evaluate the noise at a vector or batch; output has ``codim`` columns.

    Single-vector input returns a vector of length ``codim``.
    """
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    rows = np.atleast_2d(arr)
    if rows.ndim != 2:
        raise DimensionMismatchError(f"expected vectors or rows, got shape {arr.shape}")
    n = rows.shape[0]
    if model.kind == "none":
        out = np.zeros((n, codim))
    elif model.kind == "constant":
        out = np.full((n, codim), model.c)
    elif model.kind == "uniform_bounded":
        out = model.delta * (2.0 * _hash_unit(rows, model.seed, codim) - 1.0)
    elif model.kind == "decay":
        radii = np.sqrt(np.sum(rows * rows, axis=-1))
        out = np.repeat(
            (model.c / (1.0 + radii**model.alpha))[:, None], codim, axis=1
        )
    else:  # sine
        if model.freq.shape[0] != rows.shape[1]:
            raise DimensionMismatchError(
                f"sine frequency has length {model.freq.shape[0]}, "
                f"inputs have length {rows.shape[1]}"
            )
        out = np.repeat((model.c * np.sin(row_dots(rows, model.freq)))[:, None], codim, axis=1)
    return out[0] if single else out


def make_quadratic(space_in: SpaceSpec, space_out: SpaceSpec, coeffs) -> QuadraticForm:
    """Exact quadratic form between the two spaces.

    ``coeffs`` is (codim, dim, dim), or (dim, dim) when the codomain is a
    line.  Asymmetric inputs are symmetrized with a warning (only the
    symmetric part of each matrix is observable through the form).
    """
    arr = np.asarray(coeffs, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[None, :, :]
    expected = (space_out.dim, space_in.dim, space_in.dim)
    if arr.shape != expected:
        raise DimensionMismatchError(
            f"coefficients must have shape {expected}, got {arr.shape}"
        )
    sym = (arr + arr.transpose(0, 2, 1)) / 2.0
    if not np.array_equal(arr, sym):
        warnings.warn(
            "coefficient matrices were not symmetric; using the symmetric part",
            stacklevel=2,
        )
    return QuadraticForm(coeffs=sym)


def make_perturbed(form: QuadraticForm, noise: NoiseModel) -> MapHandle:
    """The map ``x -> form(x) + noise(x)`` as a batch-evaluable handle."""
    codim = form.codomain_dim

    def evaluator(rows):
        return form(rows) + noise_values(noise, rows, codim)

    return MapHandle(
        evaluator=evaluator,
        domain_dim=form.domain_dim,
        codomain_dim=codim,
        label=f"quadratic+{noise.kind}",
    )


def make_odd_witness(matrix) -> MapHandle:
    """The linear map ``x -> L x`` as a handle.

    Linear maps are odd and annihilate the classical equation's residual,
    but leave a nonzero weighted-equation residual unless they vanish;
    they witness that the weighted equation genuinely constrains odd parts.
    """
    mat = np.asarray(matrix, dtype=np.float64)
    if mat.ndim == 1:
        mat = mat[None, :]
    if mat.ndim != 2 or not np.all(np.isfinite(mat)):
        raise DimensionMismatchError(
            f"witness matrix must be finite of shape (codim, dim), got {mat.shape}"
        )
    mat = mat.copy()
    mat.flags.writeable = False

    def evaluator(rows):
        return rows @ mat.T

    return MapHandle(
        evaluator=evaluator,
        domain_dim=mat.shape[1],
        codomain_dim=mat.shape[0],
        label="linear_odd",
    )


def random_symmetric_form(
    space_in: SpaceSpec, space_out: SpaceSpec, seed: int, scale: float = 1.0
) -> QuadraticForm:
    """Seeded random quadratic form with standard-normal symmetric parts."""
    if not np.isfinite(scale):
        raise ParameterError(f"scale must be finite, got {scale!r}")
    rng = generator(seed, STREAM_FORMS)
    raw = rng.standard_normal((space_out.dim, space_in.dim, space_in.dim))
    sym = scale * (raw + raw.transpose(0, 2, 1)) / 2.0
    return QuadraticForm(coeffs=sym)
