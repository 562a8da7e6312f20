"""Command-line front end.

Five subcommands drive the library end to end: ``certify`` (stability
certification of a perturbed form), ``detect-ip`` (parallelogram-law
check with Gram recovery), ``exponents`` (norm-identity exponent scan),
``profile`` (shell defect profile and asymptotic verdict), and
``residual`` (pointwise residuals at one pair).

Every run emits a single JSON report (stdout, or ``--out``).  Reports are
deterministic: same command line, same bytes, except the ``runtime_ms``
field, and are strict JSON.  Exit codes: 0 pass/accepted, 1 fail/rejected,
2 invalid parameters, a non-finite input or result, or an unwritable
``--out`` or samples CSV, 3 inconclusive.

Configuration may come from a flat ``key=value`` file via ``--config``;
explicit flags win over the file, the file wins over built-in defaults.
Every flag is a config key of the flag's type, keys of other subcommands
are accepted and echoed, and unknown keys are errors, not typos to ignore.
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
    residual_gq,
    residual_q,
)
from .space import (
    Sampler,
    SpaceSpec,
    _helper_thread,
    _power,
    euclidean,
    norm_eval,
    p_norm,
    row_blocks,
    row_sums,
    sup_norm,
    weighted_quadratic,
)
from .stability import certify
from .textrows import format_rows

SCHEMA_VERSION = 1

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INVALID = 2
EXIT_INCONCLUSIVE = 3

# Salt folded into the run seed to key the bounded-noise stream, so noise
# values and sampler draws never share a stream.
_NOISE_SEED_SALT = 0x517CC1B727220A95
_SEED_MASK = 2**64 - 1

# One row per option: key -> (type, default, help, subcommand or None for
# all).  The parser, the --config reader and the report's config block all
# read this table; a bool is a store_true flag.  tol's default is per
# command (see _COMMANDS).
_OPTIONS = {
    "dim": (int, 2, "domain dimension", None),
    "codim": (int, 1, "codomain dimension", None),
    "norm": (str, "euclidean", "domain norm: euclidean, sup, p:<value>, or weighted", None),
    "gram": (str, None, "weighted-norm matrix, rows 'a,b;c,d'", None),
    "r": (str, "1/2", "equation weight r as a decimal or p/q", None),
    "d": (float, 1.0, "restricted-domain threshold", None),
    "delta": (float, None, "override the defect bound", None),
    "noise": (
        str,
        "none",
        "perturbation: none, constant:<c>, uniform:<delta>, decay:<c>,<alpha>, or sine:<c>",
        None,
    ),
    "samples": (int, 1000, "number of sampled pairs/points", None),
    "radius_max": (float, 2.0, "sampling ball radius", None),
    "seed": (int, 0, "root seed for all streams", None),
    "iters": (int, 26, "max doublings in limit extraction", None),
    "tol": (float, None, "tolerance for the command's check", None),
    "out": (str, None, "write the JSON report here instead of stdout", None),
    "emit_samples": (bool, False, "also write sampled data as CSV next to --out", None),
    "form": (
        str,
        "identity",
        "base quadratic form: identity, random[:scale], or matrix blocks "
        "'a,b;c,d|...' (one block per output coordinate)",
        None,
    ),
    "probes": (int, 32, "unit-sphere probe count", None),
    "grid": (
        str,
        "default",
        "semicolon-separated exponent tuples 'p,q,u,v;...' or 'default'",
        "exponents",
    ),
    "n_min": (int, 1, "first shell lower bound", "profile"),
    "n_max": (int, 16, "last shell lower bound", "profile"),
    "per_shell": (int, 200, "pairs sampled per shell", "profile"),
    "decay_tol": (float, 1e-8, "tail decay tolerance", "profile"),
    "x": (str, None, "first point, comma-separated", "residual"),
    "y": (str, None, "second point, comma-separated", "residual"),
    "map": (str, "form", "map to evaluate: form, cube, or odd:<matrix>", "residual"),
}

_DEFAULTS = {key: default for key, (_, default, _, _) in _OPTIONS.items()}

# A run's verdict (its ``passed``) fixes the exit code and the status word.
_VERDICTS = {
    True: (EXIT_PASS, "pass"),
    False: (EXIT_FAIL, "fail"),
    None: (EXIT_INCONCLUSIVE, "inconclusive"),
}


def _coerce(key: str, value: str):
    kind = _OPTIONS[key][0]
    try:
        if kind is bool:
            lowered = value.strip().lower()
            if lowered in ("true", "1", "yes", "on"):
                return True
            if lowered in ("false", "0", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {value!r}")
        return kind(value)
    except ValueError as exc:
        raise ParameterError(f"config value for {key!r} is invalid: {exc}") from None


def _read_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
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
    effective["tol"] = _COMMANDS[ns.command][1]
    if ns.config:
        effective.update(_read_config_file(ns.config))
    for key in _DEFAULTS:
        if getattr(ns, key, None) is not None:
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
            return np.repeat(row_sums(_power(rows, 3.0))[:, None], codim, axis=1)

        return MapHandle(cube, dim, codim)
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
        keep_samples=effective["emit_samples"],
    )
    csv = None
    if effective["emit_samples"]:
        header = (
            [f"x{i + 1}" for i in range(space.dim)]
            + [f"y{i + 1}" for i in range(space.dim)]
            + ["residual_norm"]
        )
        csv = (header, cert.samples)
    return cert.to_dict(), cert.passed, csv


def run_detect_ip(effective: dict):
    space = _space_from(effective)
    verdict = detect_inner_product(space, _pair_sampler(effective), tol=effective["tol"])
    return verdict.to_dict(), verdict.accepted, None


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
    return table.to_dict(), True, None


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
    passed = {VERDICT_DECAYING: True, VERDICT_PERSISTENT: False}.get(verdict.verdict)
    results = {"profile": profile.to_dict(), "verdict": verdict.to_dict()}
    csv = None
    if effective["emit_samples"]:
        shells = np.arange(profile.n_min, profile.n_max + 1, dtype=np.float64)
        csv = (["shell_lower", "delta"], (shells, profile.deltas))
    return results, passed, csv


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
        "q_residual": rq.tolist(),
        "q_residual_norm": norm_eval(None, rq),
        "gq_residual": rgq.tolist(),
        "gq_residual_norm": norm_eval(None, rgq),
        "derivation_chain": derivation_chain_defects(f, params, x, y),
    }
    return results, True, None


# One row per subcommand: name -> (run, default --tol, help).  Each run
# returns (results, passed, samples CSV as (header, float columns) or None);
# the columns are arrays of equal length, one (N,) or (N, k) array each.
_COMMANDS = {
    "certify": (run_certify, 1e-10, "stability certificate for a perturbed form"),
    "detect-ip": (run_detect_ip, 1e-9, "parallelogram-law check with Gram recovery"),
    "exponents": (run_exponents, 1e-9, "scan exponent patterns of the norm identity"),
    "profile": (run_profile, 1e-10, "shell defect profile and asymptotic verdict"),
    "residual": (run_residual, 1e-10, "pointwise residuals at one pair"),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _attach_values(argv: list) -> list:
    """``argv`` with each value-taking option joined to the token after it
    (``--y -3,0.5`` becomes ``--y=-3,0.5``) unless that token is one of the
    parser's option strings, so that a value may start with ``-``."""
    takes_value = {_flag(key) for key, (kind, *_) in _OPTIONS.items() if kind is not bool}
    takes_value.add("--config")
    options = {_flag(key) for key in _OPTIONS} | {"--config", "-h", "--help"}
    out, i = [], 0
    while i < len(argv):
        token = argv[i]
        if token in takes_value and i + 1 < len(argv) and argv[i + 1] not in options:
            token, i = f"{token}={argv[i + 1]}", i + 1
        out.append(token)
        i += 1
    return out


def build_parser(argv: list) -> argparse.ArgumentParser:
    """The parser for ``argv``: every command gets its subparser, so ``-h``
    and an unknown command's error list them all, but only the command that
    ``argv``'s first token names gets its options, the only ones parsed."""
    parser = argparse.ArgumentParser(
        prog="quadlab",
        description="Numerical laboratory for quadratic functional equations.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    invoked = argv[0] if argv else None
    for command, (_, _, command_help) in _COMMANDS.items():
        command_parser = sub.add_parser(command, help=command_help)
        if command != invoked:
            continue
        for key, (kind, _, option_help, scope) in _OPTIONS.items():
            if scope not in (None, command):
                continue
            flag = _flag(key)
            if kind is bool:
                # default=None: an absent flag must not override the config file.
                command_parser.add_argument(
                    flag, action="store_true", default=None, help=option_help
                )
            else:
                command_parser.add_argument(flag, type=kind, help=option_help)
        command_parser.add_argument("--config", help="key=value config file")
    return parser


def _write_samples_csv(path: Path, header: list, columns: tuple) -> None:
    """Write the header, then the columns' rows (one value per header
    name), every value as its ``repr``; on a failed write, remove the
    partial file and re-raise.

    Rows go in blocks of half a row block's values, two at a time: the
    helper (:func:`_helper_thread`, given the values of every second block)
    formats the later block of a pair while the calling thread formats and
    writes the earlier one, and then the caller writes the later one.  At
    most two blocks are in flight, the writes stay in order, and errors
    surface in the serial order: the earlier block's first.
    """
    width = len(header)
    blocks = list(row_blocks(columns[0].shape[0], 2 * width))

    def text(rows):
        return format_rows(np.column_stack([column[rows] for column in columns]))

    helper_values = sum(rows.stop - rows.start for rows in blocks[1::2]) * width
    out = path.open("wb")
    try:
        with out, _helper_thread(helper_values) as submit:
            out.write((",".join(header) + "\n").encode("ascii"))
            for i in range(0, len(blocks), 2):
                # An odd last block has no partner; bytes() is b"".
                later = submit(text, blocks[i + 1]) if i + 1 < len(blocks) else bytes
                out.write(text(blocks[i]))
                out.write(later())
    except BaseException:
        path.unlink()
        raise


def _out_of_memory(command: str) -> int:
    print(f"error: {command} ran out of memory; no report written", file=sys.stderr)
    return EXIT_INVALID


def main(argv=None) -> int:
    args = _attach_values(sys.argv[1:] if argv is None else argv)
    try:
        ns = build_parser(args).parse_args(args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_INVALID
        return 0 if code == 0 else EXIT_INVALID
    started = time.perf_counter()
    try:
        effective = _merge_config(ns)
        # Overflow shows as a non-finite result, which exits 2 below.
        with np.errstate(over="ignore", invalid="ignore"):
            results, passed, csv = _COMMANDS[ns.command][0](effective)
    except (ParameterError, UndefinedValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except MemoryError:
        return _out_of_memory(ns.command)
    runtime_ms = (time.perf_counter() - started) * 1000.0
    code, status = _VERDICTS[passed]
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
    if not effective["out"]:
        sys.stdout.write(text)
    else:
        report_path = Path(effective["out"])
        try:
            report_path.write_text(text)
            if csv is not None:
                try:
                    _write_samples_csv(report_path.with_suffix(".samples.csv"), *csv)
                except BaseException:
                    # A report without its samples would pass for a finished run.
                    report_path.unlink()
                    raise
        except OSError as exc:
            print(f"error: cannot write {exc.filename!r}: {exc.strerror}", file=sys.stderr)
            return EXIT_INVALID
        except MemoryError:
            return _out_of_memory(ns.command)
    print(f"{ns.command}: {status}", file=sys.stderr)
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
