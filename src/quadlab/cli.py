"""Command-line front end.

Five subcommands drive the library end to end: ``certify`` (stability
certification of a perturbed form), ``detect-ip`` (parallelogram-law
check with Gram recovery), ``exponents`` (norm-identity exponent scan),
``profile`` (shell defect profile and asymptotic verdict), and
``residual`` (pointwise residuals at one pair).

Every run emits a single JSON report (stdout, or ``--out``).  Reports are
deterministic: same command line, same bytes, except the ``runtime_ms``
field, and are strict JSON.  Exit codes: 0 pass/accepted, 1 fail/rejected,
2 invalid parameters or a non-finite input or result, 3 inconclusive.

Configuration may come from a flat ``key=value`` file via ``--config``;
explicit flags win over the file, the file wins over built-in defaults.
Unknown keys in the file are errors, not typos to ignore.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from .asymptotics import (
    VERDICT_DECAYING,
    VERDICT_PERSISTENT,
    asymptotic_verdict,
    shell_delta_profile,
)
from .errors import ParameterError, UndefinedValueError
from .geometry import Exponents, default_exponent_grid, detect_inner_product, exponent_scan
from .perturb import (
    NoiseModel,
    make_odd_witness,
    make_perturbed,
    make_quadratic,
    random_symmetric_form,
)
from .quadratic import (
    MapHandle,
    QuadraticForm,
    derivation_chain_defects,
    equation_params,
    map_from_callable,
    residual_gq,
    residual_q,
)
from .space import (
    Sampler,
    SpaceSpec,
    euclidean,
    p_norm,
    row_norms,
    sup_norm,
    weighted_quadratic,
)
from .stability import certify

SCHEMA_VERSION = 1

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INVALID = 2
EXIT_INCONCLUSIVE = 3

# Salt folded into the run seed to key the bounded-noise stream, so noise
# values and sampler draws never share a stream.
_NOISE_SEED_SALT = 0x517CC1B727220A95
_SEED_MASK = 2**64 - 1

_DEFAULTS = {
    "dim": 2,
    "codim": 1,
    "norm": "euclidean",
    "gram": None,
    "r": "1/2",
    "d": 1.0,
    "delta": None,
    "noise": "none",
    "samples": 1000,
    "radius_max": 2.0,
    "seed": 0,
    "iters": 26,
    "tol": None,
    "out": None,
    "emit_samples": False,
    "form": "identity",
    "probes": 32,
    "grid": "default",
    "n_min": 1,
    "n_max": 16,
    "per_shell": 200,
    "decay_tol": 1e-8,
    "x": None,
    "y": None,
    "map": "form",
}

_TOL_DEFAULTS = {
    "certify": 1e-10,
    "detect-ip": 1e-9,
    "exponents": 1e-9,
    "profile": 1e-10,
    "residual": 1e-10,
}

_INT_KEYS = {"dim", "codim", "samples", "seed", "iters", "probes", "n_min", "n_max", "per_shell"}
_FLOAT_KEYS = {"d", "delta", "radius_max", "tol", "decay_tol"}
_BOOL_KEYS = {"emit_samples"}

_STATUS_WORDS = {
    EXIT_PASS: "pass",
    EXIT_FAIL: "fail",
    EXIT_INCONCLUSIVE: "inconclusive",
}


def _coerce(key: str, value: str):
    try:
        if key in _INT_KEYS:
            return int(value)
        if key in _FLOAT_KEYS:
            return float(value)
        if key in _BOOL_KEYS:
            lowered = value.strip().lower()
            if lowered in ("true", "1", "yes", "on"):
                return True
            if lowered in ("false", "0", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {value!r}")
    except ValueError as exc:
        raise ParameterError(f"config value for {key!r} is invalid: {exc}") from None
    return value


def _read_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParameterError(f"cannot read config file {path!r}: {exc}") from None
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParameterError(
                f"{path}:{lineno}: expected key=value, got {line!r}"
            )
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _DEFAULTS:
            raise ParameterError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = _coerce(key, value.strip())
    return values


def _merge_config(ns: argparse.Namespace) -> dict:
    effective = dict(_DEFAULTS)
    effective["tol"] = _TOL_DEFAULTS[ns.command]
    if getattr(ns, "config", None):
        effective.update(_read_config_file(ns.config))
    for key in _DEFAULTS:
        if hasattr(ns, key) and getattr(ns, key) is not None:
            effective[key] = getattr(ns, key)
    for key in ("dim", "codim"):
        if effective[key] < 1:
            raise ParameterError(f"--{key} must be a positive integer, got {effective[key]}")
    if effective["emit_samples"] and not effective["out"]:
        raise ParameterError("--emit-samples needs --out to name the CSV file")
    return effective


def _parse_matrix(text: str, what: str) -> np.ndarray:
    rows = []
    for row_text in text.split(";"):
        try:
            rows.append([float(cell) for cell in row_text.split(",")])
        except ValueError:
            raise ParameterError(f"cannot parse {what} entry in {row_text!r}") from None
    widths = {len(row) for row in rows}
    if len(widths) != 1:
        raise ParameterError(f"{what} rows have unequal lengths")
    return np.asarray(rows, dtype=np.float64)


def _parse_vector(text: str, what: str) -> np.ndarray:
    try:
        values = np.asarray([float(cell) for cell in text.split(",")], dtype=np.float64)
    except ValueError:
        raise ParameterError(f"cannot parse {what} {text!r}") from None
    if not np.all(np.isfinite(values)):
        raise ParameterError(f"{what} must be finite, got {text!r}")
    return values


def _space_from(effective: dict) -> SpaceSpec:
    norm = effective["norm"]
    dim = effective["dim"]
    if norm == "euclidean":
        return euclidean(dim)
    if norm == "sup":
        return sup_norm(dim)
    if norm.startswith("p:"):
        try:
            p = float(norm[2:])
        except ValueError:
            raise ParameterError(f"cannot parse p-norm exponent in {norm!r}") from None
        return p_norm(dim, p)
    if norm == "weighted":
        if not effective["gram"]:
            raise ParameterError("norm 'weighted' needs --gram")
        gram = _parse_matrix(effective["gram"], "gram matrix")
        space = weighted_quadratic(gram)
        if space.dim != dim:
            raise ParameterError(
                f"gram matrix is {space.dim}x{space.dim} but dim is {dim}"
            )
        return space
    raise ParameterError(
        f"unknown norm {norm!r}; expected euclidean, sup, p:<value>, or weighted"
    )


def _noise_from(effective: dict) -> NoiseModel:
    spec = effective["noise"]
    if spec == "none":
        return NoiseModel.none()
    kind, _, arg = spec.partition(":")
    if kind == "constant":
        return NoiseModel.constant(_float_arg(arg, "constant noise level"))
    if kind == "uniform":
        seed = (effective["seed"] ^ _NOISE_SEED_SALT) & _SEED_MASK
        return NoiseModel.uniform_bounded(_float_arg(arg, "uniform noise bound"), seed)
    if kind == "decay":
        parts = arg.split(",")
        if len(parts) != 2:
            raise ParameterError(f"decay noise needs c,alpha; got {spec!r}")
        return NoiseModel.decay(
            _float_arg(parts[0], "decay amplitude"),
            _float_arg(parts[1], "decay exponent"),
        )
    if kind == "sine":
        return NoiseModel.sine(
            _float_arg(arg, "sine amplitude"), np.ones(effective["dim"])
        )
    raise ParameterError(
        f"unknown noise {spec!r}; expected none, constant:<c>, uniform:<delta>, "
        "decay:<c>,<alpha>, or sine:<c>"
    )


def _float_arg(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParameterError(f"cannot parse {what} from {text!r}") from None


def _form_from(effective: dict) -> QuadraticForm:
    spec = effective["form"]
    dim = effective["dim"]
    codim = effective["codim"]
    if spec == "identity":
        coeffs = np.repeat(np.eye(dim)[None, :, :], codim, axis=0)
        return QuadraticForm(coeffs=coeffs)
    if spec == "random" or spec.startswith("random:"):
        scale = 1.0 if spec == "random" else _float_arg(spec[7:], "form scale")
        return random_symmetric_form(
            euclidean(dim), euclidean(codim), effective["seed"], scale=scale
        )
    blocks = [_parse_matrix(block, "form matrix") for block in spec.split("|")]
    for block in blocks:
        if block.shape != (dim, dim):
            raise ParameterError(f"form blocks must be {dim}x{dim}, got {block.shape}")
    return make_quadratic(euclidean(dim), euclidean(codim), np.stack(blocks))


def _map_from(effective: dict) -> MapHandle:
    spec = effective["map"]
    dim = effective["dim"]
    codim = effective["codim"]
    if spec == "form":
        return make_perturbed(_form_from(effective), _noise_from(effective))
    if spec == "cube":
        def cube(rows):
            return np.repeat(np.sum(rows**3, axis=-1, keepdims=True), codim, axis=1)

        return map_from_callable(cube, dim, codim, label="cube")
    if spec.startswith("odd:"):
        matrix = _parse_matrix(spec[4:], "odd witness matrix")
        if matrix.shape != (codim, dim):
            raise ParameterError(
                f"odd witness matrix must be {codim}x{dim}, got {matrix.shape}"
            )
        return make_odd_witness(matrix)
    raise ParameterError(
        f"unknown map {spec!r}; expected form, cube, or odd:<matrix>"
    )


def _pair_sampler(effective: dict) -> Sampler:
    return Sampler.restricted_pairs(
        effective["seed"], effective["samples"], effective["radius_max"]
    )


def run_certify(effective: dict):
    space = _space_from(effective)
    params = equation_params(effective["r"])
    f = make_perturbed(_form_from(effective), _noise_from(effective))
    cert = certify(
        f,
        params,
        effective["d"],
        space,
        _pair_sampler(effective),
        max_iters=effective["iters"],
        tol=effective["tol"],
        delta_override=effective["delta"],
        probe_count=effective["probes"],
    )
    if cert.inconclusive:
        code = EXIT_INCONCLUSIVE
    else:
        code = EXIT_PASS if cert.passed else EXIT_FAIL
    extras = {}
    if effective["emit_samples"]:
        xs, ys, norms = cert.samples
        header = (
            [f"x{i + 1}" for i in range(space.dim)]
            + [f"y{i + 1}" for i in range(space.dim)]
            + ["residual_norm"]
        )
        rows = [
            [repr(float(v)) for v in (*xs[i], *ys[i], norms[i])]
            for i in range(xs.shape[0])
        ]
        extras["samples_csv"] = (header, rows)
    return cert.to_dict(), cert.passed, code, extras


def run_detect_ip(effective: dict):
    space = _space_from(effective)
    verdict = detect_inner_product(space, _pair_sampler(effective), tol=effective["tol"])
    code = EXIT_PASS if verdict.accepted else EXIT_FAIL
    return verdict.to_dict(), verdict.accepted, code, {}


def _grid_from(effective: dict) -> list[Exponents]:
    spec = effective["grid"]
    if spec == "default":
        return default_exponent_grid()
    grid = []
    for chunk in spec.split(";"):
        values = _parse_vector(chunk, "exponent tuple")
        if values.shape[0] != 4:
            raise ParameterError(
                f"exponent tuples need 4 entries, got {chunk!r}"
            )
        grid.append(Exponents(*values))
    return grid


def run_exponents(effective: dict):
    space = _space_from(effective)
    params = equation_params(effective["r"])
    grid = _grid_from(effective)
    table = exponent_scan(space, params, grid, _pair_sampler(effective), tol=effective["tol"])
    # The scan is informational: completing it is a pass; parameter errors
    # (zero exponents, bad grids) surface before this point as exit 2.
    return table.to_dict(), True, EXIT_PASS, {}


def run_profile(effective: dict):
    space = _space_from(effective)
    params = equation_params(effective["r"])
    f = make_perturbed(_form_from(effective), _noise_from(effective))
    profile = shell_delta_profile(
        f,
        params,
        space,
        effective["n_min"],
        effective["n_max"],
        effective["per_shell"],
        effective["seed"],
    )
    verdict = asymptotic_verdict(profile, effective["decay_tol"])
    if verdict.verdict == VERDICT_DECAYING:
        passed, code = True, EXIT_PASS
    elif verdict.verdict == VERDICT_PERSISTENT:
        passed, code = False, EXIT_FAIL
    else:
        passed, code = None, EXIT_INCONCLUSIVE
    results = {"profile": profile.to_dict(), "verdict": verdict.to_dict()}
    extras = {}
    if effective["emit_samples"]:
        header = ["shell_lower", "delta"]
        rows = [
            [repr(float(n)), repr(float(profile.deltas[k]))]
            for k, n in enumerate(range(profile.n_min, profile.n_max + 1))
        ]
        extras["samples_csv"] = (header, rows)
    return results, passed, code, extras


def run_residual(effective: dict):
    space = _space_from(effective)
    params = equation_params(effective["r"])
    if effective["x"] is None or effective["y"] is None:
        raise ParameterError("residual needs both --x and --y")
    x = _parse_vector(effective["x"], "point x")
    y = _parse_vector(effective["y"], "point y")
    if x.shape[0] != space.dim or y.shape[0] != space.dim:
        raise ParameterError(
            f"points must have dim {space.dim}, got {x.shape[0]} and {y.shape[0]}"
        )
    f = _map_from(effective)
    rq = residual_q(f, x, y)
    rgq = residual_gq(f, params, x, y)
    results = {
        "x": x.tolist(),
        "y": y.tolist(),
        "params": params.to_dict(),
        "q_residual": np.atleast_1d(rq).tolist(),
        "q_residual_norm": float(row_norms(rq, None)[0]),
        "gq_residual": np.atleast_1d(rgq).tolist(),
        "gq_residual_norm": float(row_norms(rgq, None)[0]),
        "derivation_chain": derivation_chain_defects(f, params, x, y),
    }
    return results, True, EXIT_PASS, {}


_DISPATCH = {
    "certify": run_certify,
    "detect-ip": run_detect_ip,
    "exponents": run_exponents,
    "profile": run_profile,
    "residual": run_residual,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadlab",
        description="Numerical laboratory for quadratic functional equations.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--dim", type=int, help="domain dimension")
    common.add_argument("--codim", type=int, help="codomain dimension")
    common.add_argument(
        "--norm", help="domain norm: euclidean, sup, p:<value>, or weighted"
    )
    common.add_argument("--gram", help="weighted-norm matrix, rows 'a,b;c,d'")
    common.add_argument("--r", help="equation weight r as a decimal or p/q")
    common.add_argument("--d", type=float, help="restricted-domain threshold")
    common.add_argument("--delta", type=float, help="override the defect bound")
    common.add_argument(
        "--noise",
        help="perturbation: none, constant:<c>, uniform:<delta>, "
        "decay:<c>,<alpha>, or sine:<c>",
    )
    common.add_argument("--samples", type=int, help="number of sampled pairs/points")
    common.add_argument("--radius-max", type=float, help="sampling ball radius")
    common.add_argument("--seed", type=int, help="root seed for all streams")
    common.add_argument("--iters", type=int, help="max doublings in limit extraction")
    common.add_argument("--tol", type=float, help="tolerance for the command's check")
    common.add_argument("--out", help="write the JSON report here instead of stdout")
    common.add_argument(
        "--emit-samples",
        action="store_true",
        default=None,
        help="also write sampled data as CSV next to --out",
    )
    common.add_argument(
        "--form",
        help="base quadratic form: identity, random[:scale], or matrix blocks "
        "'a,b;c,d|...' (one block per output coordinate)",
    )
    common.add_argument("--probes", type=int, help="unit-sphere probe count")
    common.add_argument("--config", help="key=value config file")

    sub.add_parser(
        "certify", parents=[common], help="stability certificate for a perturbed form"
    )
    sub.add_parser(
        "detect-ip", parents=[common], help="parallelogram-law check with Gram recovery"
    )
    p_exp = sub.add_parser(
        "exponents", parents=[common], help="scan exponent patterns of the norm identity"
    )
    p_exp.add_argument(
        "--grid", help="semicolon-separated exponent tuples 'p,q,u,v;...' or 'default'"
    )
    p_profile = sub.add_parser(
        "profile", parents=[common], help="shell defect profile and asymptotic verdict"
    )
    p_profile.add_argument("--n-min", type=int, help="first shell lower bound")
    p_profile.add_argument("--n-max", type=int, help="last shell lower bound")
    p_profile.add_argument("--per-shell", type=int, help="pairs sampled per shell")
    p_profile.add_argument("--decay-tol", type=float, help="tail decay tolerance")
    p_residual = sub.add_parser(
        "residual", parents=[common], help="pointwise residuals at one pair"
    )
    p_residual.add_argument("--x", help="first point, comma-separated")
    p_residual.add_argument("--y", help="second point, comma-separated")
    p_residual.add_argument(
        "--map", help="map to evaluate: form, cube, or odd:<matrix>"
    )
    return parser


def _write_samples_csv(out_path: str, header: list, rows: list) -> Path:
    path = Path(out_path).with_suffix(".samples.csv")
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    path.write_text("\n".join(lines) + "\n")
    return path


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_INVALID
        return 0 if code == 0 else EXIT_INVALID
    started = time.perf_counter()
    try:
        effective = _merge_config(ns)
        # Overflow shows as a non-finite result, which exits 2 below.
        with np.errstate(over="ignore", invalid="ignore"):
            results, passed, code, extras = _DISPATCH[ns.command](effective)
    except (ParameterError, UndefinedValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    runtime_ms = (time.perf_counter() - started) * 1000.0
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": ns.command,
        "config": {k: effective[k] for k in sorted(effective)},
        "results": results,
        "summary": {"pass": passed, "exit_code": code},
        "runtime_ms": runtime_ms,
    }
    try:
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError:
        print(f"error: {ns.command} result is not finite; no report written", file=sys.stderr)
        return EXIT_INVALID
    if effective["out"]:
        Path(effective["out"]).write_text(text)
    else:
        sys.stdout.write(text)
    if "samples_csv" in extras:
        header, rows = extras["samples_csv"]
        _write_samples_csv(effective["out"], header, rows)
    print(f"{ns.command}: {_STATUS_WORDS.get(code, str(code))}", file=sys.stderr)
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
