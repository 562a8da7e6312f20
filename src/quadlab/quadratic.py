"""Quadratic forms, residuals of the two functional equations, parity
decomposition, and pointwise checks of the scaling identities that the even
and odd parts of a weighted-equation solution must satisfy.

Two equations appear throughout:

* the classical one: ``f(x+y) + f(x-y) - 2 f(x) - 2 f(y) = 0``;
* the weighted one, for weights ``r + s = 1`` with ``r s != 0``:
  ``f(r x + s y) + r s f(x - y) - r f(x) - s f(y) = 0``.

Exact quadratic maps ``x -> x^T B x`` satisfy both identically; the
residual functions below measure how far an arbitrary map is from doing so.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Callable, ClassVar

import numpy as np

from .errors import DimensionMismatchError, ParameterError
from .space import (
    Sampler,
    SpaceSpec,
    as_rows,
    blockwise,
    check_count,
    check_finite_array,
    check_real,
    fold_pairs_restricted,
    form_rows,
    norm_eval,
    pair_rows,
)

_RS_WARN_THRESHOLD = 1e-2


def _plain(value):
    """``value`` as report data: a result's own dict, an array's nested
    lists, a dict with ``str`` keys, a list converted item by item, and
    anything else as it is."""
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_plain(v) for v in value]
    return value


class Report:
    """Base of the dataclasses quadlab reports.

    :meth:`to_dict` gives the dataclass fields in order, each under its own
    name or the report key ``_KEYS`` maps it to, and each value through
    :func:`_plain`; fields declared ``repr=False`` are left out.
    """

    _KEYS: ClassVar[dict[str, str]] = {}

    def to_dict(self) -> dict:
        return {
            self._KEYS.get(f.name, f.name): _plain(getattr(self, f.name))
            for f in fields(self)
            if f.repr
        }


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
        for name in ("r", "s"):
            object.__setattr__(self, name, check_real(f"weight {name}", getattr(self, name)))
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
    if isinstance(r, (int, np.integer)) and not isinstance(r, bool):
        r = Fraction(int(r))
    if isinstance(r, Fraction):
        return EquationParams(r=r, s=1 - r, rational=r)
    value = check_real("weight r", r)
    return EquationParams(r=value, s=1.0 - value)


@dataclass(frozen=True, eq=False)
class QuadraticForm:
    """Vector-valued quadratic map stored as one symmetric matrix per output.

    ``coeffs`` has shape (codim, dim, dim) with each slice exactly symmetric;
    evaluation sends x to the vector ``(x^T B_k x)_k``.  The form evaluates
    each bitwise distinct slice once (-0.0 and +0.0 are distinct), so the
    identity form stacked over several outputs evaluates one.  ``flat`` is
    the m distinct matrices side by side in first-appearance order, shape
    (dim, m * dim), and ``diag``, shape (m, dim), their diagonals when every
    off-diagonal entry is zero (-0.0 included) and ``None`` otherwise, both
    as :func:`form_rows` takes them: a diagonal form skips the dense first
    stage, with the same bits.  ``columns``, shape (codim,), names the
    distinct slice each output reads.  A slice's column from
    :func:`form_rows` has the same bits whatever slices sit beside it, so
    copying it to every output that reads it changes no value.
    """

    coeffs: np.ndarray
    flat: np.ndarray = field(init=False, repr=False)
    diag: np.ndarray | None = field(init=False, repr=False)
    columns: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        arr = check_finite_array("coefficient matrices", self.coeffs)
        if arr.ndim == 2:
            arr = arr[None, :, :]
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise DimensionMismatchError(
                f"coefficients must have shape (codim, dim, dim), got {arr.shape}"
            )
        if not np.array_equal(arr, arr.transpose(0, 2, 1)):
            raise ParameterError("coefficient matrices must be exactly symmetric")
        object.__setattr__(self, "coeffs", arr)
        # Slices compare by their bytes, which tell -0.0 from +0.0.  The
        # column numbers count up in first-appearance order, so the first
        # occurrence of each is that distinct slice's first appearance.
        seen: dict[bytes, int] = {}
        columns = np.array([seen.setdefault(b.tobytes(), len(seen)) for b in arr], dtype=np.intp)
        columns.flags.writeable = False
        object.__setattr__(self, "columns", columns)
        slices = arr[np.unique(columns, return_index=True)[1]]
        flat = slices.transpose(1, 0, 2).reshape(arr.shape[1], -1)
        flat.flags.writeable = False
        object.__setattr__(self, "flat", flat)
        diag = None
        if not slices[:, ~np.eye(arr.shape[1], dtype=bool)].any():
            diag = np.diagonal(slices, axis1=1, axis2=2).copy()
            diag.flags.writeable = False
        object.__setattr__(self, "diag", diag)

    @property
    def domain_dim(self) -> int:
        return self.coeffs.shape[1]

    @property
    def codomain_dim(self) -> int:
        return self.coeffs.shape[0]

    def __call__(self, x):
        rows, single = as_rows(x, self.domain_dim)
        out = form_rows(rows, self.flat, rows, self.diag)
        return out[0][self.columns] if single else out[:, self.columns]

    def bilinear(self, x, y):
        """The symmetric bilinear map (x, y) -> (x^T B_k y)_k."""
        xs, ys, single = pair_rows(x, y, self.domain_dim)
        out = form_rows(xs, self.flat, ys, self.diag)
        return out[0][self.columns] if single else out[:, self.columns]


@dataclass(frozen=True)
class MapHandle:
    """A deterministic total map R^n -> R^m with batched evaluation.

    ``evaluator`` maps C-ordered (N, n) float64 rows to an (N, m) array (an
    (N,) result is accepted when m = 1); whatever the input's memory layout,
    it receives those rows, so layout never changes a row's bits.  One
    vector is a one-row batch, and the handle returns its output row.
    Whole-batch passes (residuals) may hand an evaluator any block of their
    rows (:func:`~quadlab.space.row_blocks`), so an evaluator must give each
    row the same value in any block; every built-in map does, bit for bit.
    They run their blocks in order on the calling thread
    (:func:`~quadlab.space.blockwise`).  Only a streamed restricted pass of
    more than one row block (:func:`~quadlab.space.fold_pairs_restricted`,
    behind ``certify``, ``verify_czerwik`` and ``derivation_chain_check``)
    calls the evaluator from one helper thread, on the later half of each
    chunk, while the calling thread runs it on the earlier half.  So an
    evaluator must be safe to call from two threads at once; a pure
    function of its rows is.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    domain_dim: int
    codomain_dim: int

    def __post_init__(self):
        for name in ("domain_dim", "codomain_dim"):
            object.__setattr__(self, name, check_count(name, getattr(self, name)))

    def __call__(self, x):
        rows, single = as_rows(x, self.domain_dim)
        out = np.asarray(self.evaluator(rows), dtype=np.float64)
        try:
            out = out.reshape(rows.shape[0], self.codomain_dim)
        except ValueError:
            raise DimensionMismatchError(
                f"evaluator returned shape {out.shape}, expected "
                f"({rows.shape[0]}, {self.codomain_dim})"
            ) from None
        return out[0] if single else out


def as_map(f) -> MapHandle:
    """Coerce a MapHandle or QuadraticForm to a MapHandle."""
    if isinstance(f, MapHandle):
        return f
    if isinstance(f, QuadraticForm):
        return MapHandle(f, f.domain_dim, f.codomain_dim)
    raise ParameterError(
        f"expected a MapHandle or QuadraticForm, got {type(f).__name__}; "
        "wrap plain callables with MapHandle(fn, domain_dim, codomain_dim)"
    )


def as_map_on(f, space: SpaceSpec) -> MapHandle:
    """:func:`as_map`, checking that the map's domain is ``space``."""
    handle = as_map(f)
    if handle.domain_dim != space.dim:
        raise DimensionMismatchError(
            f"map domain {handle.domain_dim} does not match space dim {space.dim}"
        )
    return handle


def _pair_pass(f, x, y, combine, widen: int = 1):
    """``combine(handle, xs, ys)`` over the pair rows of ``x`` and ``y``, one
    row block at a time on the calling thread
    (:func:`~quadlab.space.blockwise`), so that every map argument of a
    block is evaluated while the block is in cache.  Blocks
    are sized as if each row were ``widen`` times as wide, so a pass with
    many temporaries per row runs in smaller blocks.  One pair gives its
    output row."""
    handle = as_map(f)
    xs, ys, single = pair_rows(x, y, handle.domain_dim)
    out = blockwise(
        lambda rows: combine(handle, xs[rows], ys[rows]), xs.shape[0], widen * xs.shape[1]
    )
    return out[0] if single else out


def residual_q(f, x, y):
    """Residual of the classical equation:
    ``f(x+y) + f(x-y) - 2 f(x) - 2 f(y)``.

    Accepts single vectors or equal-shape batches; returns codomain vectors.
    """
    return _pair_pass(f, x, y, lambda h, x, y: h(x + y) + h(x - y) - 2.0 * h(x) - 2.0 * h(y))


def residual_gq(f, params: EquationParams, x, y):
    """Residual of the weighted equation:
    ``f(r x + s y) + r s f(x-y) - r f(x) - s f(y)``.
    """
    r, s, rs = params.r, params.s, params.rs
    return _pair_pass(
        f, x, y, lambda h, x, y: h(r * x + s * y) + rs * h(x - y) - r * h(x) - s * h(y)
    )


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

    dims = handle.domain_dim, handle.codomain_dim
    return MapHandle(even_eval, *dims), MapHandle(odd_eval, *dims)


@dataclass
class DerivationChainReport(Report):
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
        out = super().to_dict()
        return {"defects": out.pop("defects"), "max_defect": self.max_defect, **out}


# The keys of DerivationChainReport.defects, in the order they are computed.
_CHAIN_IDENTITIES = ("odd_r_scaling", "odd_s_scaling", "even_doubling", "even_cross_expansion")


def derivation_chain_defects(f, params: EquationParams, x, y) -> dict:
    """Defects of the four derivation-chain identities at pairs (x, y).

    Returns one entry per key of :class:`DerivationChainReport` holding
    the Euclidean norm of each pair's defect: a float for a single pair,
    an array for a batch.
    """
    norms = _chain_norms(f, params, x, y)
    if norms.ndim == 1:
        return {name: float(v) for name, v in zip(_CHAIN_IDENTITIES, norms)}
    return dict(zip(_CHAIN_IDENTITIES, norms.T))


def _chain_norms(f, params: EquationParams, x, y) -> np.ndarray:
    """The four derivation-chain defect norms of each pair, one column per
    identity in ``_CHAIN_IDENTITIES`` order.  Pairs go in blocks of half a
    row block's rows: a block makes 22 map calls, against a residual's 4,
    and in a streamed pass the calling thread and the helper each hold one
    block's temporaries."""
    f_even, f_odd = parity_decompose(f)
    r, s = params.r, params.s

    def chain(_, x, y):
        defects = (
            f_odd(r * x) - r * r * f_odd(x),
            f_odd(s * y) - s * (1.0 + r) * f_odd(y),
            f_even(2.0 * x) - 4.0 * f_even(x),
            f_even(2.0 * x + y)
            + 2.0 * f_even(x)
            + f_even(y)
            - 2.0 * f_even(x + y)
            - f_even(2.0 * x),
        )
        return np.stack([norm_eval(None, v) for v in defects], axis=1)

    return _pair_pass(f, x, y, chain, widen=2)


def derivation_chain_check(
    f, params: EquationParams, space: SpaceSpec, sampler: Sampler
) -> DerivationChainReport:
    """Evaluate the four derivation-chain identities on sampled pairs.

    Pairs are drawn unconstrained from the ball of radius
    ``sampler.radius_max`` and stream through the identities chunk by chunk
    (:func:`~quadlab.space.fold_pairs_restricted`); the report records the
    max defect per identity.
    """
    handle = as_map_on(f, space)
    sup = fold_pairs_restricted(
        space, 0.0, sampler, lambda xs, ys, *_: _chain_norms(handle, params, xs, ys)
    ).sup
    return DerivationChainReport(
        defects={name: float(v) for name, v in zip(_CHAIN_IDENTITIES, sup)},
        params=params,
        sample_count=sampler.count,
        seed=sampler.seed,
    )
