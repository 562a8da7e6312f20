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
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatchError, ParameterError
from .quadratic import MapHandle, QuadraticForm
from .space import (
    STREAM_FORMS,
    SpaceSpec,
    _power,
    as_rows,
    check_finite_array,
    check_real,
    check_seed,
    generator,
    norm_eval,
    row_sums,
)

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_SHIFT_1, _SHIFT_2, _SHIFT_3 = np.uint64(30), np.uint64(27), np.uint64(31)
_MANTISSA_SHIFT = np.uint64(11)

_NOISE_KINDS = ("none", "constant", "uniform_bounded", "decay", "sine")


def _mix64_in_place(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, vectorized over a uint64 array it overwrites."""
    z += _GAMMA
    z ^= z >> _SHIFT_1
    z *= _MIX_1
    z ^= z >> _SHIFT_2
    z *= _MIX_2
    z ^= z >> _SHIFT_3
    return z


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, vectorized over uint64 arrays; ``z`` is left as is."""
    return _mix64_in_place(z.copy())


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
        object.__setattr__(self, "c", check_real("noise amplitude", self.c))
        object.__setattr__(self, "delta", check_real("noise bound delta", self.delta, ">= 0"))
        object.__setattr__(self, "seed", check_seed(self.seed))
        object.__setattr__(self, "alpha", check_real("decay exponent alpha", self.alpha, "> 0"))
        if self.freq is not None:
            w = check_finite_array("sine frequency", self.freq)
            if w.ndim != 1:
                raise DimensionMismatchError(f"sine frequency must be a vector, got {w.shape}")
            object.__setattr__(self, "freq", w)
        elif self.kind == "sine":
            raise ParameterError("sine noise needs a frequency vector")

    @classmethod
    def none(cls) -> "NoiseModel":
        return cls(kind="none")

    @classmethod
    def constant(cls, c: float) -> "NoiseModel":
        return cls(kind="constant", c=c)

    @classmethod
    def uniform_bounded(cls, delta: float, seed: int) -> "NoiseModel":
        return cls(kind="uniform_bounded", delta=delta, seed=seed)

    @classmethod
    def decay(cls, c: float, alpha: float = 1.0) -> "NoiseModel":
        return cls(kind="decay", c=c, alpha=alpha)

    @classmethod
    def sine(cls, c: float, freq) -> "NoiseModel":
        return cls(kind="sine", c=c, freq=freq)


@lru_cache(maxsize=64)
def _mixed_seed(seed: int) -> np.uint64:
    """``seed`` through the splitmix64 finalizer, mixed once per seed."""
    return _mix64(np.array([seed], dtype=np.uint64))[0]


def _hash_unit(rows: np.ndarray, seed: int, codim: int) -> np.ndarray:
    """Per-row hash values in [0, 1) of C-ordered float64 rows, shape (N, codim).

    The seed's own mix (:func:`_mixed_seed`) is one value shared by every
    row; each coordinate's raw float64 bits are folded into it and mixed, in
    place on one running (N,) array.  The output lanes ``1..codim`` are
    XORed into that hash and mixed together as one (N, codim) array, and
    each lane's top 53 bits become its value.
    """
    bits = rows.view(np.uint64)
    h = np.full(rows.shape[0], _mixed_seed(seed))
    for j in range(bits.shape[1]):
        h ^= bits[:, j]
        _mix64_in_place(h)
    lanes = _mix64_in_place(h[:, None] ^ np.arange(1, codim + 1, dtype=np.uint64))
    return (lanes >> _MANTISSA_SHIFT) * 2.0**-53


def noise_values(model: NoiseModel, x, codim: int = 1):
    """Evaluate the noise at a vector or batch; output has ``codim`` columns.

    Single-vector input returns a vector of length ``codim``.
    """
    rows, single = as_rows(x)
    n = rows.shape[0]
    if model.kind == "none":
        out = np.zeros((n, codim))
    elif model.kind == "constant":
        out = np.full((n, codim), model.c)
    elif model.kind == "uniform_bounded":
        out = model.delta * (2.0 * _hash_unit(rows, model.seed, codim) - 1.0)
    elif model.kind == "decay":
        radii = norm_eval(None, rows)
        out = np.repeat(
            (model.c / (1.0 + _power(radii, model.alpha)))[:, None], codim, axis=1
        )
    else:  # sine
        if model.freq.shape[0] != rows.shape[1]:
            raise DimensionMismatchError(
                f"sine frequency has length {model.freq.shape[0]}, "
                f"inputs have length {rows.shape[1]}"
            )
        out = np.repeat((model.c * np.sin(row_sums(rows * model.freq)))[:, None], codim, axis=1)
    return out[0] if single else out


def make_quadratic(space_in: SpaceSpec, space_out: SpaceSpec, coeffs) -> QuadraticForm:
    """Exact quadratic form between the two spaces.

    ``coeffs`` is (codim, dim, dim), or (dim, dim) when the codomain is a
    line.  Entries must be finite.  Asymmetric inputs are symmetrized with a
    warning (only the symmetric part of each matrix is observable through
    the form).
    """
    arr = check_finite_array("coefficient matrices", coeffs)
    if arr.ndim == 2:
        arr = arr[None, :, :]
    expected = (space_out.dim, space_in.dim, space_in.dim)
    if arr.shape != expected:
        raise DimensionMismatchError(
            f"coefficients must have shape {expected}, got {arr.shape}"
        )
    if not np.array_equal(arr, arr.transpose(0, 2, 1)):
        warnings.warn(
            "coefficient matrices were not symmetric; using the symmetric part",
            stacklevel=2,
        )
        # Halves first: the sum of two entries near the float64 limit overflows.
        arr = arr / 2.0 + arr.transpose(0, 2, 1) / 2.0
    return QuadraticForm(coeffs=arr)


def make_perturbed(form: QuadraticForm, noise: NoiseModel) -> MapHandle:
    """The map ``x -> form(x) + noise(x)`` as a batch-evaluable handle."""
    codim = form.codomain_dim

    def evaluator(rows):
        return form(rows) + noise_values(noise, rows, codim)

    return MapHandle(evaluator=evaluator, domain_dim=form.domain_dim, codomain_dim=codim)


def make_odd_witness(matrix) -> MapHandle:
    """The linear map ``x -> L x`` as a handle.

    Linear maps are odd and annihilate the classical equation's residual,
    but leave a nonzero weighted-equation residual unless they vanish;
    they witness that the weighted equation genuinely constrains odd parts.
    """
    mat = check_finite_array("witness matrix", matrix)
    if mat.ndim == 1:
        mat = mat[None, :]
    if mat.ndim != 2:
        raise DimensionMismatchError(f"witness matrix must be (codim, dim), got {mat.shape}")
    # (dim, codim), the layout form_rows' first stage takes.
    cols = mat.T.copy()
    cols.flags.writeable = False

    def evaluator(rows):
        # The BLAS-free first stage of form_rows: a row's bits depend neither
        # on its batch nor on the BLAS core type, where ``rows @ mat.T`` does.
        return np.einsum("ni,im->nm", rows, cols)

    return MapHandle(evaluator=evaluator, domain_dim=mat.shape[1], codomain_dim=mat.shape[0])


def random_symmetric_form(
    space_in: SpaceSpec, space_out: SpaceSpec, seed: int, scale: float = 1.0
) -> QuadraticForm:
    """Seeded random quadratic form with standard-normal symmetric parts."""
    scale = check_real("scale", scale)
    rng = generator(seed, STREAM_FORMS)
    raw = rng.standard_normal((space_out.dim, space_in.dim, space_in.dim))
    sym = scale * (raw + raw.transpose(0, 2, 1)) / 2.0
    return QuadraticForm(coeffs=sym)
