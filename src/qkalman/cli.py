"""Command-line surface: config parsing, filter runs, reports, CSV export.

Configs are YAML with row-major numeric arrays. A run report is one JSON
document on stdout carrying both trajectories (quantum and classical),
the normalization ledger, inversion metadata, operation counts, and
sampling statistics in sampled mode. Every error category exits with its
own documented code, the `exit_code` of its QkError subclass.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from dataclasses import MISSING, dataclass, fields
from functools import partial

import numpy as np
import yaml

from .block_encoding import (
    decode,
    encode_data_structure,
    pad_to_square,
    register_qubits,
)
from .errors import ConfigError, DimensionError, QkError
from .inversion import (
    be_invert,
    format_angles,
    inverse_poly,
    solve_phase_factors,
)
from .kalman import (
    FilterState,
    KalmanModel,
    KappaPolicy,
    _check_cov,
    classical_step,
    q_filter_run,
)
from .tensor_ops import op_stats


@dataclass(eq=False)
class RunConfig:
    """Validated model + run parameters; kappa=None means margin policy.

    The fields are the config keys: one without a default is required,
    and `_CHECKS` holds each key's check.
    """

    A: np.ndarray
    B: np.ndarray
    H: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    x0: np.ndarray
    P0: np.ndarray
    controls: list
    measurements: list
    readout_mode: str = "exact"
    shots: int = 16384
    iterations: int = 100
    seed: int = 0
    kappa_margin: float = 1.1
    eps_prime: float = 0.01
    kappa: float | None = None

    @property
    def steps(self) -> int:
        return len(self.controls)

    @property
    def model(self) -> KalmanModel:
        return KalmanModel(self.A, self.B, self.H, self.Q, self.R)

    @property
    def init(self) -> FilterState:
        return FilterState(self.x0, self.P0, 0)

    @property
    def kappa_policy(self) -> KappaPolicy:
        if self.kappa is not None:
            return KappaPolicy.fixed(self.kappa)
        return KappaPolicy.margin(self.kappa_margin)


def _as_array(value, path: str, ndim: int) -> np.ndarray:
    """A finite float array of `ndim` dimensions; fewer are padded in front."""
    kind, form = ("vector", "flat vector") if ndim == 1 else ("array", "2-D array")
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: not a numeric {kind} ({exc})") from None
    if any(isinstance(v, bool) for v in np.ravel(np.array(value, dtype=object))):
        raise ConfigError(f"{path}: entries must be numbers, not booleans")
    if arr.ndim < ndim:
        arr = arr.reshape((1,) * (ndim - arr.ndim) + arr.shape)
    if arr.ndim != ndim:
        raise ConfigError(f"{path}: expected a {form}, got {arr.ndim}-D")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{path}: entries must be finite")
    return arr


def _as_vectors(value, path: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list of vectors")
    return [_as_array(v, f"{path}[{i}]", 1) for i, v in enumerate(value)]


def _as_int(value, path: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {value}")
    return value


def _as_float(value, path: str, ok=None, rule: str = "") -> float:
    """A finite number; `ok(number)` false raises "{path}: {rule}, got ..."."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{path}: must be finite, got {number}")
    if ok is not None and not ok(number):
        raise ConfigError(f"{path}: {rule}, got {number}")
    return number


def _as_mode(value, path: str) -> str:
    if value not in ("exact", "sampled"):
        raise ConfigError(
            f"{path}: must be 'exact' or 'sampled', got {value!r}")
    return value


_CHECKS = {  # key -> check(value, key), returning the parsed value
    **{key: partial(_as_array, ndim=2) for key in ("A", "B", "H", "Q", "R", "P0")},
    "x0": partial(_as_array, ndim=1),
    "controls": _as_vectors,
    "measurements": _as_vectors,
    "readout_mode": _as_mode,
    "shots": partial(_as_int, minimum=1),
    "iterations": partial(_as_int, minimum=1),
    "seed": partial(_as_int, minimum=0),
    "kappa_margin": partial(_as_float, ok=lambda v: v >= 1, rule="must be >= 1"),
    "eps_prime": partial(_as_float, ok=lambda v: 0 < v < 1,
                         rule="must lie in (0,1)"),
    "kappa": lambda value, path: None if value is None else _as_float(
        value, path, ok=lambda v: v > 1, rule="must exceed 1"),
}


def parse_config(text: str) -> RunConfig:
    """Validate a YAML config document into a RunConfig.

    Unknown keys are rejected with their location; every error message
    names the offending field. Without a `seed` key the seed is 0.
    `controls` and `measurements` must have one entry per step each.
    """
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from None
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError("config must be a mapping at the top level")
    keys = [f.name for f in fields(RunConfig)]
    for key in doc:
        if key not in keys:
            raise ConfigError(f"unknown key {key!r} at top level")
    for f in fields(RunConfig):
        if f.default is MISSING and f.name not in doc:
            raise ConfigError(f"missing required key {f.name!r}")

    config = RunConfig(**{key: _CHECKS[key](doc[key], key)
                          for key in keys if key in doc})
    if len(config.controls) != len(config.measurements):
        raise ConfigError(
            f"controls has {len(config.controls)} entries but measurements "
            f"has {len(config.measurements)}; a run takes one of each per step")
    model = config.model  # dimension validation with field-named errors
    n = model.state_dim
    if config.x0.size != n:
        raise DimensionError(f"x0 has {config.x0.size} entries, A is {n}x{n}")
    if config.P0.shape != (n, n):
        raise DimensionError(f"P0 must be {n}x{n}, got {config.P0.shape}")
    _check_cov("P0", config.P0)
    return config


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    return obj


def run_report(config: RunConfig) -> dict:
    """Execute the quantum filter and the classical oracle, build the report."""
    model = config.model
    init = config.init
    trajectory, ledger = q_filter_run(
        model, init, config.controls, config.measurements, config.steps,
        config.readout_mode, shots=config.shots, iterations=config.iterations,
        seed=config.seed, kappa_policy=config.kappa_policy,
        eps_prime=config.eps_prime)

    classical = [init]
    for j in range(config.steps):
        classical.append(classical_step(
            model, classical[-1], config.controls[j], config.measurements[j]))

    steps_out = []
    for q, c in zip(trajectory, classical):
        steps_out.append({
            "step": q.k,
            "x_hat_q": q.x_hat, "x_hat_c": c.x_hat,
            "P_q_diag": np.diag(q.P), "P_c_diag": np.diag(c.P),
            "P_q": q.P, "P_c": c.P,
        })
    report = {
        "config": {k: v for k, v in vars(config).items() if v is not None},
        "readout_mode": config.readout_mode,
        "steps": steps_out,
        "ledger": ledger.rows(),
        "qsvt": ledger.qsvt_info,
        "op_counts": ledger.op_info,
    }
    if config.readout_mode == "sampled":
        report["sampling"] = ledger.sampling_info
    return _jsonable(report)


def emit_csv(report: dict, kind: str, path: str | None = None) -> str:
    """Render one report facet as headered CSV; optionally write it."""
    if kind == "trajectory":
        n = len(report["steps"][0]["x_hat_q"])
        cols = (["step"]
                + [f"x_hat_q[{i}]" for i in range(n)]
                + [f"x_hat_c[{i}]" for i in range(n)]
                + [f"P_q_diag[{i}]" for i in range(n)]
                + [f"P_c_diag[{i}]" for i in range(n)])
        lines = [",".join(cols)]
        for row in report["steps"]:
            vals = ([row["step"]] + list(row["x_hat_q"]) + list(row["x_hat_c"])
                    + list(row["P_q_diag"]) + list(row["P_c_diag"]))
            lines.append(",".join(_fmt(v) for v in vals))
    elif kind == "ledger":
        lines = ["step,label,alpha,ancillas,eps"]
        for step, label, alpha, ancillas, eps in report["ledger"]:
            lines.append(f"{step},{label},{_fmt(alpha)},{ancillas},{_fmt(eps)}")
    elif kind == "histogram":
        sampling = report.get("sampling")
        if not sampling:
            raise ConfigError("histogram export needs a sampled-mode report")
        last = sampling[max(sampling, key=int)]
        counts = last["x_hat"]["counts_nonzero"]
        lines = ["basis_index,count"]
        for idx in sorted(counts, key=lambda k: math.inf if k == "rest" else int(k)):
            lines.append(f"{idx},{counts[idx]}")
    else:
        raise ConfigError(f"unknown CSV kind {kind!r}")
    text = "\n".join(lines) + "\n"
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _load_matrix_file(path: str, paired_complex: bool) -> np.ndarray:
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an empty file
            arr = np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    except OSError as exc:
        raise ConfigError(f"cannot read matrix file {path}: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"{path}: not a numeric CSV matrix ({exc})") from None
    if arr.size == 0:
        raise ConfigError(f"{path}: no matrix entries")
    arr = _as_array(arr, path, 2)
    if paired_complex:
        if arr.shape[1] % 2 != 0:
            raise ConfigError(
                f"{path}: paired-column complex input needs an even column "
                f"count, got {arr.shape[1]}")
        arr = arr[:, 0::2] + 1j * arr[:, 1::2]
    return arr


def _encode_padded(mat: np.ndarray):
    s = register_qubits(*mat.shape)
    return encode_data_structure(pad_to_square(mat, s), shape=mat.shape)


def _cmd_run(args) -> int:
    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
    config = parse_config(text)
    report = run_report(config)
    if args.csv_dir:
        os.makedirs(args.csv_dir, exist_ok=True)
        emit_csv(report, "trajectory", os.path.join(args.csv_dir, "trajectory.csv"))
        emit_csv(report, "ledger", os.path.join(args.csv_dir, "ledger.csv"))
        if report.get("sampling"):
            emit_csv(report, "histogram",
                     os.path.join(args.csv_dir, "histogram.csv"))
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def _cmd_encode(args) -> int:
    mat = _load_matrix_file(args.matrix, args.complex)
    be = _encode_padded(mat)
    block = decode(be)
    out = {
        "alpha": be.alpha,
        "ancillas": be.ancillas,
        "system_qubits": be.system_qubits,
        "eps": be.eps,
        "shape": list(mat.shape),
        "op_counts": op_stats(be.op),
        "decoded_block_re": block.real,
        "decoded_block_im": block.imag,
    }
    json.dump(_jsonable(out), sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def _cmd_invert(args) -> int:
    mat = _load_matrix_file(args.matrix, args.complex)
    if mat.shape[0] != mat.shape[1]:
        raise DimensionError(f"inversion needs a square matrix, got {mat.shape}")
    be = _encode_padded(mat)
    poly = inverse_poly(args.kappa, args.eps)
    phi = solve_phase_factors(poly)
    inv = be_invert(be, poly, phi)
    block = decode(inv)
    out = {
        "kappa": args.kappa,
        "eps_prime": args.eps,
        "degree": poly.degree,
        "solver_iterations": phi.iterations,
        "solver_residual": phi.residual,
        "alpha": inv.alpha,
        "ancillas": inv.ancillas,
        "eps": inv.eps,
        "op_counts": op_stats(inv.op),
        "inverse_re": block.real,
        "inverse_im": block.imag,
    }
    json.dump(_jsonable(out), sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def _cmd_angles(args) -> int:
    poly = inverse_poly(args.kappa, args.eps)
    phi = solve_phase_factors(poly)
    sys.stdout.write(format_angles(phi))
    sys.stderr.write(
        f"degree {poly.degree}  scale {poly.scale:.8f}  "
        f"residual {phi.residual:.3g}\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkalman",
        description="Block-encoded Kalman filtering on a statevector simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a filter config and print the report")
    p_run.add_argument("config", help="YAML config path")
    p_run.add_argument("--csv-dir", help="also write trajectory/ledger/histogram CSVs")
    p_run.set_defaults(fn=_cmd_run)

    p_enc = sub.add_parser("encode", help="block-encode a CSV matrix")
    p_enc.add_argument("matrix", help="CSV matrix path")
    p_enc.add_argument("--complex", action="store_true",
                       help="treat columns as re,im pairs")
    p_enc.set_defaults(fn=_cmd_encode)

    p_inv = sub.add_parser("invert", help="invert a CSV matrix via the transform")
    p_inv.add_argument("matrix", help="CSV matrix path")
    p_inv.add_argument("--kappa", type=float, required=True)
    p_inv.add_argument("--eps", type=float, required=True)
    p_inv.add_argument("--complex", action="store_true",
                       help="treat columns as re,im pairs")
    p_inv.set_defaults(fn=_cmd_invert)

    p_ang = sub.add_parser("angles", help="emit inversion phase factors")
    p_ang.add_argument("--kappa", type=float, required=True)
    p_ang.add_argument("--eps", type=float, required=True)
    p_ang.set_defaults(fn=_cmd_angles)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except QkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # pragma: no cover - defensive
        print(f"unexpected error: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
