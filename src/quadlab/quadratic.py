"""Quadratic forms, residuals of the two functional equations, parity
decomposition, polarization, and pointwise checks of the scaling identities
that the even and odd parts of a weighted-equation solution must satisfy.

Two equations appear throughout:

* the classical one: ``f(x+y) + f(x-y) - 2 f(x) - 2 f(y) = 0``;
* the weighted one, for weights ``r + s = 1`` with ``r s != 0``:
  ``f(r x + s y) + r s f(x - y) - r f(x) - s f(y) = 0``.

Exact quadratic maps ``x -> x^T B x`` satisfy both identically; the
residual functions below measure how far an arbitrary map is from doing so.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError, ParameterError
from .space import Sampler, SpaceSpec, einsum_rows, row_norms, sample_pairs_restricted

_RS_WARN_THRESHOLD = 1e-2


@dataclass(frozen=True)
class EquationParams:
    """Weight pair (r, s) of the weighted equation, with s = 1 - r.

    ``rational`` holds the exact Fraction behind ``r`` when the weights were
    given as a ratio of integers; reports echo it as ``r_exact``.  Build
    instances with :func:`equation_params`.
    """

    r: float
    s: float
    rational: Fraction | None = None

    def __post_init__(self):
        if not np.isfinite(self.r) or not np.isfinite(self.s):
            raise ParameterError(f"weights must be finite, got r={self.r!r}, s={self.s!r}")
        if self.r == 0.0 or self.s == 0.0:
            raise ParameterError(
                f"weights must both be nonzero (r={self.r}, s={self.s}); "
                "r = 0 and r = 1 are excluded"
            )
        if self.rational is not None:
            frac = Fraction(self.rational)
            object.__setattr__(self, "rational", frac)
            if float(frac) != self.r or float(1 - frac) != self.s:
                raise ParameterError(
                    f"rational weight {frac} does not match floats r={self.r}, s={self.s}"
                )
        elif self.s != 1.0 - self.r:
            raise ParameterError(f"s must equal 1 - r, got r={self.r}, s={self.s}")

    @property
    def rs(self) -> float:
        return self.r * self.s

    @property
    def rational_r(self) -> bool:
        return self.rational is not None

    @property
    def small_rs(self) -> bool:
        """True when |r s| is small enough to blow up the stability constants."""
        return abs(self.rs) < _RS_WARN_THRESHOLD

    def to_dict(self) -> dict:
        out = {"r": self.r, "s": self.s, "rational_r": self.rational_r}
        if self.rational is not None:
            out["r_exact"] = str(self.rational)
        return out


def equation_params(r) -> EquationParams:
    """Build the weight pair from a float, Fraction, or ``"p/q"`` string.

    Fractions keep the exact value alongside its float image; plain floats
    leave the rationality flag unset.  Strings containing ``/`` parse as
    fractions, anything else as a decimal.
    """
    if isinstance(r, str):
        text = r.strip()
        if "/" in text:
            try:
                frac = Fraction(text)
            except (ValueError, ZeroDivisionError) as exc:
                raise ParameterError(f"cannot parse weight ratio {text!r}: {exc}") from None
            return equation_params(frac)
        try:
            value = float(text)
        except ValueError:
            raise ParameterError(f"cannot parse weight {text!r} as a number") from None
        return equation_params(value)
    if isinstance(r, Fraction):
        return EquationParams(r=float(r), s=float(1 - r), rational=r)
    if isinstance(r, (int, np.integer)):
        return equation_params(Fraction(int(r)))
    value = float(r)
    return EquationParams(r=value, s=1.0 - value)


@dataclass(frozen=True, eq=False)
class QuadraticForm:
    """Vector-valued quadratic map stored as one symmetric matrix per output.

    ``coeffs`` has shape (codim, dim, dim) with each slice exactly symmetric;
    evaluation sends x to the vector ``(x^T B_k x)_k``.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=np.float64)
        if arr.ndim == 2:
            arr = arr[None, :, :]
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise DimensionMismatchError(
                f"coefficients must have shape (codim, dim, dim), got {arr.shape}"
            )
        if not np.array_equal(arr, arr.transpose(0, 2, 1)):
            raise ParameterError("coefficient matrices must be exactly symmetric")
        if not np.all(np.isfinite(arr)):
            raise ParameterError("coefficient matrices must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @property
    def domain_dim(self) -> int:
        return self.coeffs.shape[1]

    @property
    def codomain_dim(self) -> int:
        return self.coeffs.shape[0]

    def __call__(self, x):
        return self.bilinear(x, x)

    def bilinear(self, x, y):
        """The symmetric bilinear map (x, y) -> (x^T B_k y)_k."""
        xs = np.asarray(x, dtype=np.float64)
        ys = np.asarray(y, dtype=np.float64)
        single = xs.ndim == 1 and ys.ndim == 1
        xs = np.atleast_2d(xs)
        ys = np.atleast_2d(ys)
        if xs.ndim != 2 or xs.shape != ys.shape or xs.shape[1] != self.domain_dim:
            raise DimensionMismatchError(
                f"expected matching vectors of length {self.domain_dim}, "
                f"got shapes {np.shape(x)} and {np.shape(y)}"
            )
        out = einsum_rows("ni,kij,nj->nk", xs, self.coeffs, ys)
        return out[0] if single else out

    def as_map(self, label: str = "quadratic_form") -> "MapHandle":
        return MapHandle(
            evaluator=self.__call__,
            domain_dim=self.domain_dim,
            codomain_dim=self.codomain_dim,
            label=label,
        )


def quad_eval(form: QuadraticForm, x):
    """Evaluate a quadratic form on a vector or batch (function-style alias)."""
    return form(x)


@dataclass(frozen=True)
class MapHandle:
    """A deterministic total map R^n -> R^m with batched evaluation.

    ``evaluator`` maps an (N, n) array to an (N, m) array (an (N,) result is
    accepted when m = 1).  Calling the handle with a single vector returns a
    single output vector.  ``tabulated`` marks maps backed by a finite table
    of exact points; such maps cannot be rescaled and are rejected by the
    limit extractor.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    domain_dim: int
    codomain_dim: int
    label: str = ""
    tabulated: bool = False

    def __post_init__(self):
        if self.domain_dim < 1 or self.codomain_dim < 1:
            raise ParameterError(
                f"map dimensions must be positive, got {self.domain_dim} -> {self.codomain_dim}"
            )

    def __call__(self, x):
        arr = np.asarray(x, dtype=np.float64)
        single = arr.ndim == 1
        if single:
            arr = arr[None, :]
        if arr.ndim != 2 or arr.shape[1] != self.domain_dim:
            raise DimensionMismatchError(
                f"map expects vectors of length {self.domain_dim}, got shape {np.shape(x)}"
            )
        out = np.asarray(self.evaluator(arr), dtype=np.float64)
        try:
            out = out.reshape(arr.shape[0], self.codomain_dim)
        except ValueError:
            raise DimensionMismatchError(
                f"evaluator returned shape {out.shape}, expected "
                f"({arr.shape[0]}, {self.codomain_dim})"
            ) from None
        return out[0] if single else out


def map_from_callable(
    fn: Callable,
    domain_dim: int,
    codomain_dim: int,
    label: str = "",
    vectorized: bool = True,
) -> MapHandle:
    """Wrap a plain function as a MapHandle.

    With ``vectorized=False`` the function is called once per row; otherwise
    it must accept an (N, n) array.
    """
    if vectorized:
        evaluator = fn
    else:
        def evaluator(rows, _fn=fn):
            return np.array([np.atleast_1d(_fn(row)) for row in rows], dtype=np.float64)

    return MapHandle(
        evaluator=evaluator,
        domain_dim=domain_dim,
        codomain_dim=codomain_dim,
        label=label,
    )


def map_from_table(points, values, label: str = "tabulated") -> MapHandle:
    """Exact-lookup map defined only on the given points.

    Evaluation at any vector not bitwise-equal to a tabulated point raises
    :class:`ParameterError`; the handle is marked ``tabulated`` so scaling
    routines refuse it up front.
    """
    pts = np.asarray(points, dtype=np.float64)
    vals = np.asarray(values, dtype=np.float64)
    if pts.ndim != 2:
        raise DimensionMismatchError(f"points must be (N, dim), got shape {pts.shape}")
    if vals.ndim == 1:
        vals = vals[:, None]
    if vals.shape[0] != pts.shape[0]:
        raise DimensionMismatchError(
            f"{pts.shape[0]} points but {vals.shape[0]} values"
        )
    table = {pts[i].tobytes(): vals[i] for i in range(pts.shape[0])}

    def evaluator(rows):
        out = np.empty((rows.shape[0], vals.shape[1]), dtype=np.float64)
        for i, row in enumerate(np.ascontiguousarray(rows, dtype=np.float64)):
            key = row.tobytes()
            if key not in table:
                raise ParameterError(
                    f"tabulated map has no entry for {row.tolist()}"
                )
            out[i] = table[key]
        return out

    return MapHandle(
        evaluator=evaluator,
        domain_dim=pts.shape[1],
        codomain_dim=vals.shape[1],
        label=label,
        tabulated=True,
    )


def as_map(f) -> MapHandle:
    """Coerce a MapHandle or QuadraticForm to a MapHandle."""
    if isinstance(f, MapHandle):
        return f
    if isinstance(f, QuadraticForm):
        return f.as_map()
    raise ParameterError(
        f"expected a MapHandle or QuadraticForm, got {type(f).__name__}; "
        "wrap plain callables with map_from_callable"
    )


def as_map_on(f, space: SpaceSpec) -> MapHandle:
    """:func:`as_map`, checking that the map's domain is ``space``."""
    handle = as_map(f)
    if handle.domain_dim != space.dim:
        raise DimensionMismatchError(
            f"map domain {handle.domain_dim} does not match space dim {space.dim}"
        )
    return handle


def _pair_batches(f: MapHandle, x, y) -> tuple[np.ndarray, np.ndarray, bool]:
    xs = np.asarray(x, dtype=np.float64)
    ys = np.asarray(y, dtype=np.float64)
    if xs.shape != ys.shape:
        raise DimensionMismatchError(
            f"x and y must have equal shapes, got {xs.shape} and {ys.shape}"
        )
    single = xs.ndim == 1
    xs = np.atleast_2d(xs)
    ys = np.atleast_2d(ys)
    if xs.ndim != 2 or xs.shape[1] != f.domain_dim:
        raise DimensionMismatchError(
            f"expected vectors of length {f.domain_dim}, got shape {np.shape(x)}"
        )
    return xs, ys, single


def residual_q(f, x, y):
    """Residual of the classical equation:
    ``f(x+y) + f(x-y) - 2 f(x) - 2 f(y)``.

    Accepts single vectors or equal-shape batches; returns codomain vectors.
    """
    handle = as_map(f)
    xs, ys, single = _pair_batches(handle, x, y)
    out = handle(xs + ys) + handle(xs - ys) - 2.0 * handle(xs) - 2.0 * handle(ys)
    return out[0] if single else out


def residual_gq(f, params: EquationParams, x, y):
    """Residual of the weighted equation:
    ``f(r x + s y) + r s f(x-y) - r f(x) - s f(y)``.
    """
    handle = as_map(f)
    xs, ys, single = _pair_batches(handle, x, y)
    out = (
        handle(params.r * xs + params.s * ys)
        + params.rs * handle(xs - ys)
        - params.r * handle(xs)
        - params.s * handle(ys)
    )
    return out[0] if single else out


def parity_decompose(f) -> tuple[MapHandle, MapHandle]:
    """Split a map into its even and odd parts.

    Returns ``(f_even, f_odd)`` with ``f_even(x) = (f(x) + f(-x)) / 2`` and
    ``f_odd(x) = (f(x) - f(-x)) / 2``.  The recomposition
    ``f_even + f_odd`` matches ``f`` up to one rounding step per output
    (relative level ~1e-16); it is not guaranteed bitwise-equal.
    """
    handle = as_map(f)

    def even_eval(rows):
        return (handle(rows) + handle(-rows)) / 2.0

    def odd_eval(rows):
        return (handle(rows) - handle(-rows)) / 2.0

    base = handle.label or "map"
    even = MapHandle(
        evaluator=even_eval,
        domain_dim=handle.domain_dim,
        codomain_dim=handle.codomain_dim,
        label=f"{base}:even",
        tabulated=handle.tabulated,
    )
    odd = MapHandle(
        evaluator=odd_eval,
        domain_dim=handle.domain_dim,
        codomain_dim=handle.codomain_dim,
        label=f"{base}:odd",
        tabulated=handle.tabulated,
    )
    return even, odd


def polarize(f, x, y):
    """Polarization ``(f(x+y) - f(x-y)) / 4``.

    For a quadratic form this recovers the underlying symmetric bilinear
    map; for arbitrary maps it is just the defining difference quotient.
    """
    handle = as_map(f)
    xs, ys, single = _pair_batches(handle, x, y)
    out = (handle(xs + ys) - handle(xs - ys)) / 4.0
    return out[0] if single else out


@dataclass
class DerivationChainReport:
    """Worst-case defects of the four scaling identities used to pin down
    solutions of the weighted equation, measured over a sampled cloud.

    Keys of ``defects``:

    * ``odd_r_scaling`` -- ``f_odd(r x) = r^2 f_odd(x)``;
    * ``odd_s_scaling`` -- ``f_odd(s y) = s (1 + r) f_odd(y)``;
    * ``even_doubling`` -- ``f_even(2 x) = 4 f_even(x)``;
    * ``even_cross_expansion`` --
      ``f_even(2x + y) + 2 f_even(x) + f_even(y) = 2 f_even(x+y) + f_even(2x)``.

    Exact solutions of the weighted equation drive all four to rounding
    level; a nonzero defect localizes which step of the argument breaks.
    """

    defects: dict[str, float]
    params: EquationParams
    sample_count: int
    seed: int

    @property
    def max_defect(self) -> float:
        return max(self.defects.values())

    def to_dict(self) -> dict:
        return {
            "defects": dict(self.defects),
            "max_defect": self.max_defect,
            "params": self.params.to_dict(),
            "sample_count": self.sample_count,
            "seed": self.seed,
        }


def derivation_chain_defects(f, params: EquationParams, x, y) -> dict:
    """Defects of the four derivation-chain identities at pairs (x, y).

    Returns one entry per key of :class:`DerivationChainReport` holding
    the Euclidean norm of each pair's defect: a float for a single pair,
    an array for a batch.
    """
    handle = as_map(f)
    xs, ys, single = _pair_batches(handle, x, y)
    f_even, f_odd = parity_decompose(handle)
    r, s = params.r, params.s
    defects = {
        "odd_r_scaling": f_odd(r * xs) - r * r * f_odd(xs),
        "odd_s_scaling": f_odd(s * ys) - s * (1.0 + r) * f_odd(ys),
        "even_doubling": f_even(2.0 * xs) - 4.0 * f_even(xs),
        "even_cross_expansion": (
            f_even(2.0 * xs + ys)
            + 2.0 * f_even(xs)
            + f_even(ys)
            - 2.0 * f_even(xs + ys)
            - f_even(2.0 * xs)
        ),
    }
    norms = {name: row_norms(v, None) for name, v in defects.items()}
    if single:
        return {name: float(v[0]) for name, v in norms.items()}
    return norms


def derivation_chain_check(
    f, params: EquationParams, space: SpaceSpec, sampler: Sampler
) -> DerivationChainReport:
    """Evaluate the four derivation-chain identities on sampled pairs.

    Pairs are drawn unconstrained from the ball of radius
    ``sampler.radius_max``; the report records the max defect per identity.
    """
    handle = as_map_on(f, space)
    xs, ys = sample_pairs_restricted(space, 0.0, sampler)
    defects = derivation_chain_defects(handle, params, xs, ys)
    return DerivationChainReport(
        defects={name: float(v.max()) for name, v in defects.items()},
        params=params,
        sample_count=sampler.count,
        seed=sampler.seed,
    )
