"""Command-line driver: simulate, compare, richardson, cond-sweep, decompose.

All commands write a CSV (floats at 17 significant digits, so files
round-trip doubles exactly) and print a one-line JSON summary to stdout.
Exit codes: 0 success, 1 usage/config/IO error, 2 numerical divergence.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .analysis import compare_trajectories, condition_sweep, richardson_series
from .errors import DivergedAt, NotPowerOfTwo
from .linalg import pad_to_power_of_two
from .lorenz import (
    SOLVERS,
    LorenzParams,
    State3,
    Trajectory,
    build_nonlinear_system,
    build_rhs,
    trajectory,
)
from .pauli import decompose, reconstruct
from .vqls import VqlsConfig, cost_hamiltonian

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DIVERGED = 2

# Canonical §-free experiment presets (values land in flag space, so flags
# and config files override them field by field).
PRESETS = {
    "attractor": {
        "sigma": 10.0, "rho": 28.0, "beta": 8 / 3,
        "start": (1.0, -2.0, 4.0), "h": 5e-3, "steps": 2000,
    },
    # companion start quoted alongside the attractor run in the source material
    "attractor-alt": {
        "sigma": 10.0, "rho": 28.0, "beta": 8 / 3,
        "start": (1.0, 2.0, -4.0), "h": 5e-3, "steps": 2000,
    },
    "bifurcation": {
        "sigma": 10.0, "rho": 13.92655742, "beta": 8 / 3,
        "start": (1e-16, -1e-16, 1e-16), "h": 1e-3, "steps": 10000,
    },
    "bifurcation-twin": {
        "sigma": 10.0, "rho": 13.92655742, "beta": 8 / 3,
        "start": (1e-16, 1e-16, 1e-16), "h": 1e-3, "steps": 10000,
    },
}


class CliError(Exception):
    """Usage/config/IO problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the exit-code contract
    # reserves 2 for numerical divergence.
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _parse_start(text: str) -> tuple[float, float, float]:
    parts = [p.strip() for p in str(text).split(",")]
    if len(parts) != 3:
        raise CliError(f"start must be three comma-separated numbers, got {text!r}")
    try:
        x, y, z = (float(p) for p in parts)
    except ValueError as exc:
        raise CliError(f"bad start {text!r}: {exc}") from None
    return x, y, z


def _parse_bool(text) -> bool:
    if isinstance(text, bool):
        return text
    lowered = str(text).strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise CliError(f"expected a boolean, got {text!r}")


def _parse_h_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(p) for p in str(text).split(","))
    except ValueError as exc:
        raise CliError(f"bad h list {text!r}: {exc}") from None
    if not values or any(v <= 0 for v in values):
        raise CliError(f"h list must contain positive values, got {text!r}")
    return values


# Config-file values arrive as strings and are coerced with the same rules
# as the matching flags.
_COERCERS = {
    "sigma": float, "rho": float, "beta": float, "h": float,
    "steps": int, "start": _parse_start, "solver": str, "layers": int,
    "max-iter": int, "tol": float, "stepsize": float, "restarts": int,
    "seed": int, "warm-start": _parse_bool, "preset": str, "out": str,
    "threads": int, "pad": _parse_bool, "h-list": _parse_h_list,
    "h-min": float, "h-max": float, "count": int, "self-compare": _parse_bool,
}


def _read_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from None
    values = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise CliError(f"{path}:{lineno}: expected `key = value`")
        key = key.strip()
        if key not in _COERCERS:
            raise CliError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _COERCERS[key](value.strip())
    return values


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value file mirroring flag names")
    parser.add_argument("--preset", choices=sorted(PRESETS))
    parser.add_argument("--sigma", type=float)
    parser.add_argument("--rho", type=float)
    parser.add_argument("--beta", type=float)
    parser.add_argument("--h", type=float)
    parser.add_argument("--steps", type=int)
    parser.add_argument("--start", metavar="X,Y,Z")
    parser.add_argument("--solver", choices=SOLVERS)
    parser.add_argument("--layers", type=int)
    parser.add_argument("--max-iter", type=int)
    parser.add_argument("--tol", type=float)
    parser.add_argument("--stepsize", type=float)
    parser.add_argument("--restarts", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--warm-start", action=argparse.BooleanOptionalAction, default=None)
    parser.add_argument("--threads", type=int)
    parser.add_argument("--out")


def _build_parser() -> _Parser:
    parser = _Parser(prog="lorenz-vqls")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("simulate", help="integrate one trajectory to CSV")
    _add_common(p)

    p = sub.add_parser("compare", help="direct vs variational trajectories")
    _add_common(p)
    p.add_argument("--self-compare", action=argparse.BooleanOptionalAction, default=None,
                   help="run direct vs direct (sanity mode)")

    p = sub.add_parser("richardson", help="step-halving error estimates")
    _add_common(p)
    p.add_argument("--h-list", metavar="H1,H2,...")

    p = sub.add_parser("cond-sweep", help="condition numbers over a step-size grid")
    _add_common(p)
    p.add_argument("--h-min", type=float)
    p.add_argument("--h-max", type=float)
    p.add_argument("--count", type=int)

    p = sub.add_parser("decompose", help="Pauli decomposition of a matrix")
    p.add_argument("source", help="lorenz-A, lorenz-HG, or a matrix file path")
    _add_common(p)
    p.add_argument("--pad", action=argparse.BooleanOptionalAction, default=None,
                   help="pad file matrices up to the next power of two")
    return parser


_VQLS_DEFAULTS = VqlsConfig()
_DEFAULTS = {
    "sigma": 10.0, "rho": 28.0, "beta": 8 / 3,
    "h": 5e-3, "steps": 100, "start": (1.0, -2.0, 4.0),
    "solver": "direct",
    "layers": _VQLS_DEFAULTS.layer_count,
    "max-iter": _VQLS_DEFAULTS.max_iterations,
    "tol": _VQLS_DEFAULTS.conv_tol,
    "stepsize": _VQLS_DEFAULTS.stepsize,
    "restarts": _VQLS_DEFAULTS.restarts,
    "seed": None, "warm-start": True,
    "threads": None, "out": None, "pad": False, "h-list": None,
    "h-min": None, "h-max": None, "count": 100, "self-compare": False,
}


def _merge_options(args: argparse.Namespace) -> dict:
    """defaults < preset < config file < explicit flags."""
    flags = {}
    for key in _COERCERS:
        attr = key.replace("-", "_")
        if hasattr(args, attr) and getattr(args, attr) is not None:
            value = getattr(args, attr)
            flags[key] = _COERCERS[key](value) if isinstance(value, str) else value
    config = _read_config_file(args.config) if args.config else {}
    merged = dict(_DEFAULTS)
    preset = flags.get("preset", config.get("preset"))
    if preset is not None:
        if preset not in PRESETS:
            raise CliError(f"unknown preset {preset!r}")
        merged.update(PRESETS[preset])
    merged.update(config)
    merged.update(flags)
    return merged


def _require_out(opts: dict) -> str:
    out = opts.get("out")
    if not out:
        raise CliError("an output path is required (--out)")
    return out


def _lorenz_params(opts: dict) -> LorenzParams:
    try:
        return LorenzParams(sigma=opts["sigma"], rho=opts["rho"], beta=opts["beta"])
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _vqls_config(opts: dict) -> VqlsConfig:
    if opts["seed"] is None:
        raise CliError("--seed is required for vqls runs")
    try:
        return VqlsConfig(
            max_iterations=opts["max-iter"],
            conv_tol=opts["tol"],
            stepsize=opts["stepsize"],
            layer_count=opts["layers"],
            restarts=opts["restarts"],
            seed=opts["seed"],
        )
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _run_trajectory(opts: dict, solver: str) -> Trajectory:
    params = _lorenz_params(opts)
    start = State3(*opts["start"])
    vqls_cfg = _vqls_config(opts) if solver == "vqls" else None
    try:
        return trajectory(
            start,
            params,
            opts["h"],
            opts["steps"],
            solver=solver,
            vqls_config=vqls_cfg,
            warm_start=opts["warm-start"],
        )
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _write_lines(path: str, lines) -> None:
    try:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for line in lines:
                fh.write(line + "\n")
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from None


def _summary(payload: dict) -> None:
    print(json.dumps(payload))


def _trajectory_lines(traj: Trajectory, diagnostics: bool):
    header = "step,t,x,y,z" + (",cost,iterations,residual" if diagnostics else "")
    lines = [header]
    for n, row in enumerate(traj.states):
        fields = [str(n), fmt(n * traj.h), fmt(row[0]), fmt(row[1]), fmt(row[2])]
        if diagnostics:
            if n == 0:
                fields += ["", "", ""]
            else:
                d = traj.diagnostics[n - 1]
                fields += [fmt(d.cost), str(d.iterations), fmt(d.residual)]
        lines.append(",".join(fields))
    return lines


def cmd_simulate(opts: dict) -> int:
    out = _require_out(opts)
    solver = opts["solver"]
    diverged_at = None
    try:
        traj = _run_trajectory(opts, solver)
    except DivergedAt as exc:
        traj = exc.trajectory
        diverged_at = exc.step
    lines = _trajectory_lines(traj, diagnostics=solver == "vqls")
    if diverged_at is not None:
        lines.append(f"# diverged at step {diverged_at}")
    _write_lines(out, lines)
    _summary(
        {
            "command": "simulate",
            "solver": solver,
            "rows": len(traj),
            "out": out,
            "diverged_at": diverged_at,
        }
    )
    return EXIT_OK if diverged_at is None else EXIT_DIVERGED


def cmd_compare(opts: dict) -> int:
    out = _require_out(opts)
    second_solver = "direct" if opts["self-compare"] else "vqls"
    try:
        reference = _run_trajectory(opts, "direct")
        other = _run_trajectory(opts, second_solver)
    except DivergedAt as exc:
        # keep the partial file contract: emit what integrated, mark, exit 2
        traj = exc.trajectory
        lines = _trajectory_lines(traj, diagnostics=traj.solver == "vqls")
        lines.append(f"# diverged at step {exc.step}")
        _write_lines(out, lines)
        _summary({"command": "compare", "out": out, "diverged_at": exc.step})
        return EXIT_DIVERGED
    series = compare_trajectories(reference, other)
    lines = ["step,t,x_c,y_c,z_c,x_q,y_q,z_q,rel_err,cost,residual"]
    for n in range(len(reference)):
        c = reference.states[n]
        q = other.states[n]
        rel = 0.0 if n == 0 else series.values[n - 1]
        fields = [
            str(n), fmt(n * reference.h),
            fmt(c[0]), fmt(c[1]), fmt(c[2]),
            fmt(q[0]), fmt(q[1]), fmt(q[2]),
            fmt(rel),
        ]
        if other.diagnostics is not None and n > 0:
            d = other.diagnostics[n - 1]
            fields += [fmt(d.cost), fmt(d.residual)]
        else:
            fields += ["", ""]
        lines.append(",".join(fields))
    _write_lines(out, lines)
    _summary(
        {
            "command": "compare",
            "mean_rel_err": float(np.mean(series.values)),
            "max_rel_err": float(np.max(series.values)),
            "rows": len(reference),
            "out": out,
            "diverged_at": None,
        }
    )
    return EXIT_OK


def cmd_richardson(opts: dict) -> int:
    out = _require_out(opts)
    if opts["h-list"] is None:
        raise CliError("--h-list is required for richardson")
    params = _lorenz_params(opts)
    start = State3(*opts["start"])
    solver = opts["solver"]
    vqls_cfg = _vqls_config(opts) if solver == "vqls" else None
    lines = ["step,h,e_x,e_y,e_z,total"]
    means = {}
    summary = {"command": "richardson", "mean_total": means, "out": out}
    for h in opts["h-list"]:
        try:
            series = richardson_series(
                start, params, h, opts["steps"],
                solver=solver, vqls_config=vqls_cfg,
                warm_start=opts["warm-start"],
            )
        except ValueError as exc:
            raise CliError(str(exc)) from None
        except OverflowError:
            # keep the rows of the h values that finished, mark, exit 2
            lines.append(f"# diverged at h {fmt(h)}")
            summary["diverged_at_h"] = h
            break
        for n, est in enumerate(series):
            lines.append(
                ",".join(
                    [str(n), fmt(h), fmt(est.e_x), fmt(est.e_y), fmt(est.e_z), fmt(est.total)]
                )
            )
        means[repr(float(h))] = float(np.mean([est.total for est in series]))
    _write_lines(out, lines)
    _summary(summary)
    return EXIT_DIVERGED if "diverged_at_h" in summary else EXIT_OK


def cmd_cond_sweep(opts: dict) -> int:
    out = _require_out(opts)
    h_min, h_max = opts["h-min"], opts["h-max"]
    if h_min is None or h_max is None:
        raise CliError("--h-min and --h-max are required for cond-sweep")
    if h_min <= 0 or h_min >= h_max:
        raise CliError("need 0 < h-min < h-max")
    if opts["count"] < 1:
        raise CliError("count must be >= 1")
    params = _lorenz_params(opts)
    grid = np.linspace(h_min, h_max, opts["count"])
    rows = condition_sweep(params, grid, max_workers=opts["threads"])
    lines = ["h,kappa_A,kappa_dilation"]
    lines += [",".join([fmt(h), fmt(ka), fmt(kd)]) for h, ka, kd in rows]
    _write_lines(out, lines)
    _summary(
        {
            "command": "cond-sweep",
            "max_kappa_A": max(r[1] for r in rows),
            "max_kappa_dilation": max(r[2] for r in rows),
            "out": out,
        }
    )
    return EXIT_OK


def _parse_matrix_entry(token: str) -> complex:
    try:
        return complex(float(token))
    except ValueError:
        pass
    try:
        return complex(token)
    except ValueError:
        raise CliError(f"bad matrix entry {token!r}") from None


def _read_matrix_file(path: str) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            rows = [line.split() for line in fh if line.strip()]
    except OSError as exc:
        raise CliError(f"cannot read matrix file {path}: {exc}") from None
    if not rows:
        raise CliError(f"matrix file {path} is empty")
    width = len(rows[0])
    if any(len(r) != width for r in rows) or width != len(rows):
        raise CliError(f"matrix file {path} is not square")
    return np.array([[_parse_matrix_entry(tok) for tok in row] for row in rows])


def cmd_decompose(opts: dict, source: str) -> int:
    out = _require_out(opts)
    padded_to = None
    if source == "lorenz-A":
        matrix = build_nonlinear_system(_lorenz_params(opts), opts["h"])
    elif source == "lorenz-HG":
        params = _lorenz_params(opts)
        a = build_nonlinear_system(params, opts["h"])
        matrix = cost_hamiltonian(a, build_rhs(State3(*opts["start"])))
    else:
        matrix = _read_matrix_file(source)
        n = matrix.shape[0]
        if n & (n - 1):
            if not opts["pad"]:
                raise CliError(
                    f"matrix dimension {n} is not a power of two (use --pad)"
                )
            matrix, _ = pad_to_power_of_two(matrix, np.zeros(n))
            padded_to = matrix.shape[0]
    try:
        total = decompose(matrix)
    except (NotPowerOfTwo, ValueError) as exc:
        raise CliError(str(exc)) from None
    _write_lines(out, total.dump().splitlines())
    error = float(np.max(np.abs(reconstruct(total) - matrix))) if total.terms else float(
        np.max(np.abs(matrix))
    )
    _summary(
        {
            "command": "decompose",
            "source": source,
            "terms": len(total.terms),
            "round_trip_error": error,
            "padded_to": padded_to,
            "out": out,
        }
    )
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        opts = _merge_options(args)
        if args.command == "simulate":
            return cmd_simulate(opts)
        if args.command == "compare":
            return cmd_compare(opts)
        if args.command == "richardson":
            return cmd_richardson(opts)
        if args.command == "cond-sweep":
            return cmd_cond_sweep(opts)
        if args.command == "decompose":
            return cmd_decompose(opts, args.source)
        raise CliError(f"unknown command {args.command!r}")
    except CliError as exc:
        print(f"lorenz-vqls: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
