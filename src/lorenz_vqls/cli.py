"""Command-line driver: simulate, compare, richardson, cond-sweep, decompose.

All commands write a CSV (floats at 17 significant digits, so files
round-trip doubles exactly) and print a one-line JSON summary to stdout.
Exit codes: 0 success, 1 usage/config/IO error, input the library rejects
or a system it finds singular or rank-deficient, 2 numerical divergence.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .analysis import compare_trajectories, condition_sweep, richardson_series
from .errors import DegenerateImage, DivergedAt, RankDeficient, SingularMatrix
from .linalg import pad_to_power_of_two
from .lorenz import (
    MAX_TIMESTEP,
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
    # Usage errors raise CliError (exit 1): argparse would exit 2, which the
    # exit-code contract reserves for numerical divergence.
    def error(self, message):
        raise CliError(message)


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


# argparse reports a ValueError from these as "invalid <name> value".
def _start(text: str) -> tuple[float, ...]:
    values = tuple(map(float, text.split(",")))
    if len(values) != 3 or not all(map(math.isfinite, values)):
        raise argparse.ArgumentTypeError(f"expected three finite numbers, got {text!r}")
    return values


def _step_size(text: str, limit: float = MAX_TIMESTEP) -> float:
    h = float(text)
    if not 0 < h <= limit:
        raise argparse.ArgumentTypeError(f"expected a step in (0, {limit}], got {text!r}")
    return h


def _h_list(text: str) -> tuple[float, ...]:
    # Richardson also steps each point by 2h
    return tuple(_step_size(p, MAX_TIMESTEP / 2) for p in text.split(","))


def _build_parser() -> tuple[_Parser, dict]:
    """The top-level parser and its subparsers by command name."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key = value file mirroring flag names")
    common.add_argument("--preset", choices=sorted(PRESETS))
    lorenz = LorenzParams()
    common.add_argument("--sigma", type=float, default=lorenz.sigma)
    common.add_argument("--rho", type=float, default=lorenz.rho)
    common.add_argument("--beta", type=float, default=lorenz.beta)
    common.add_argument("--out")

    start = argparse.ArgumentParser(add_help=False)
    start.add_argument("--start", type=_start, default=(1.0, -2.0, 4.0), metavar="X,Y,Z")
    state = argparse.ArgumentParser(add_help=False, parents=[start])
    state.add_argument("--h", type=_step_size, default=5e-3)

    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--steps", type=int, default=100)
    run.add_argument("--warm-start", action=argparse.BooleanOptionalAction, default=True)
    vqls = VqlsConfig()
    run.add_argument("--layers", type=int, default=vqls.layer_count)
    run.add_argument("--max-iter", type=int, default=vqls.max_iterations)
    run.add_argument("--tol", type=float, default=vqls.conv_tol)
    run.add_argument("--stepsize", type=float, default=vqls.stepsize)
    run.add_argument("--restarts", type=int, default=vqls.restarts)
    run.add_argument("--seed", type=int, help="required for vqls runs")

    parser = _Parser(prog="lorenz-vqls")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name, handler, parents, help):
        # flags must be spelled in full: an abbreviation such as `--h` would
        # otherwise stand for richardson's `--h-list`
        p = sub.add_parser(name, parents=[common, *parents], help=help, allow_abbrev=False)
        p.set_defaults(handler=handler)
        return p

    p = command("simulate", cmd_simulate, [state, run], "integrate one trajectory to CSV")
    p.add_argument("--solver", choices=SOLVERS, default="direct")

    p = command("compare", cmd_compare, [state, run], "direct vs variational trajectories")
    p.add_argument("--self-compare", action="store_true",
                   help="run direct vs direct (sanity mode)")

    p = command("richardson", cmd_richardson, [start, run], "step-halving error estimates")
    p.add_argument("--solver", choices=SOLVERS, default="direct")
    p.add_argument("--h-list", type=_h_list, metavar="H1,H2,...")

    p = command("cond-sweep", cmd_cond_sweep, [], "condition numbers over a step-size grid")
    p.add_argument("--h-min", type=_step_size)
    p.add_argument("--h-max", type=_step_size)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--threads", type=int)

    p = command("decompose", cmd_decompose, [state], "Pauli decomposition of a matrix")
    p.add_argument("source", help="lorenz-A, lorenz-HG, or a matrix file path")
    p.add_argument("--pad", action="store_true",
                   help="pad file matrices up to the next power of two")
    return parser, sub.choices


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _config_tokens(path: str, sub: argparse.ArgumentParser):
    """Yield (path:line, flag) per `key = value` line: `--key=value`, or for a
    switch its flag when the value turns it away from its default."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        where = f"{path}:{lineno}"
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            raise CliError(f"{where}: expected `key = value`")
        if key == "config":
            raise CliError(f"{where}: unknown key 'config'")
        default = sub.get_default(key.replace("-", "_"))
        if not isinstance(default, bool):
            yield where, f"--{key}={value}"
            continue
        on = _BOOLEANS.get(value.lower())
        if on is None:
            raise CliError(f"{where}: expected a boolean for {key}, got {value!r}")
        if on != default:
            yield where, f"--{key}" if on else f"--no-{key}"


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """defaults < preset < config file < explicit flags."""
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    sub = commands[args.command]
    if args.config:
        # each line goes in as a flag ahead of the command line's own, which
        # therefore win; a parse after each insert lets an error name its line
        at = argv.index(args.command) + 1
        for where, token in _config_tokens(args.config, sub):
            argv = [*argv[:at], token, *argv[at:]]
            at += 1
            try:
                args = parser.parse_args(argv)
            except CliError as exc:
                raise CliError(f"{where}: {exc}") from None
    if args.preset:
        sub.set_defaults(**PRESETS[args.preset])
        args = parser.parse_args(argv)
    return args


def _lorenz_params(args: argparse.Namespace) -> LorenzParams:
    return LorenzParams(sigma=args.sigma, rho=args.rho, beta=args.beta)


def _vqls_config(args: argparse.Namespace) -> VqlsConfig:
    if args.seed is None:
        raise CliError("--seed is required for vqls runs")
    return VqlsConfig(
        max_iterations=args.max_iter,
        conv_tol=args.tol,
        stepsize=args.stepsize,
        layer_count=args.layers,
        restarts=args.restarts,
        seed=args.seed,
    )


def _run_trajectory(args: argparse.Namespace, solver: str) -> Trajectory:
    params = _lorenz_params(args)
    vqls_cfg = _vqls_config(args) if solver == "vqls" else None
    return trajectory(
        State3(*args.start),
        params,
        args.h,
        args.steps,
        solver=solver,
        vqls_config=vqls_cfg,
        warm_start=args.warm_start,
    )


def _write_lines(path: str, lines) -> None:
    try:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("".join(line + "\n" for line in lines))
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from None


def _solver_cells(traj: Trajectory, n: int) -> list[str]:
    """Row n's cost, iterations and residual: blank on row 0 and without
    VQLS outcomes, zeros where the origin shortcut solved nothing."""
    if traj.diagnostics is None or n == 0:
        return ["", "", ""]
    out = traj.diagnostics[n - 1]
    if out is None:
        return ["0", "0", "0"]
    return [fmt(out.final_cost), str(out.iterations_used), fmt(out.residual)]


def _write_trajectory(path: str, traj: Trajectory, diverged_at: int | None) -> None:
    """One row per state, with VQLS diagnostics when there are any; a run
    that diverged keeps its rows and ends with a marker line."""
    diagnostics = traj.diagnostics is not None
    header = "step,t,x,y,z" + (",cost,iterations,residual" if diagnostics else "")
    # "%.17g" % x is fmt(x), and row n's time is the double n * h
    times = (np.arange(len(traj)) * traj.h).tolist()
    rows = ["%d,%.17g,%.17g,%.17g,%.17g" % (n, t, *state)
            for n, (t, state) in enumerate(zip(times, traj.states.tolist()))]
    if diagnostics:
        rows = [row + "," + ",".join(_solver_cells(traj, n)) for n, row in enumerate(rows)]
    lines = [header, *rows]
    if diverged_at is not None:
        lines.append(f"# diverged at step {diverged_at}")
    _write_lines(path, lines)


def cmd_simulate(args: argparse.Namespace) -> int:
    out, solver = args.out, args.solver
    diverged_at = None
    try:
        traj = _run_trajectory(args, solver)
    except DivergedAt as exc:
        traj, diverged_at = exc.trajectory, exc.step
    _write_trajectory(out, traj, diverged_at)
    print(json.dumps({
        "command": "simulate",
        "solver": solver,
        "rows": len(traj),
        "out": out,
        "diverged_at": diverged_at,
    }))
    return EXIT_OK if diverged_at is None else EXIT_DIVERGED


def cmd_compare(args: argparse.Namespace) -> int:
    out = args.out
    second_solver = "direct" if args.self_compare else "vqls"
    try:
        reference = _run_trajectory(args, "direct")
        other = _run_trajectory(args, second_solver)
    except DivergedAt as exc:
        # keep the partial file contract: emit what integrated, mark, exit 2
        _write_trajectory(out, exc.trajectory, exc.step)
        print(json.dumps({"command": "compare", "out": out, "diverged_at": exc.step}))
        return EXIT_DIVERGED
    series = compare_trajectories(reference, other)
    lines = ["step,t,x_c,y_c,z_c,x_q,y_q,z_q,rel_err,cost,residual"]
    for n in range(len(reference)):
        c = reference.states[n]
        q = other.states[n]
        rel = 0.0 if n == 0 else series.values[n - 1]
        cost, _, residual = _solver_cells(other, n)
        fields = [
            str(n), fmt(n * reference.h),
            fmt(c[0]), fmt(c[1]), fmt(c[2]),
            fmt(q[0]), fmt(q[1]), fmt(q[2]),
            fmt(rel), cost, residual,
        ]
        lines.append(",".join(fields))
    _write_lines(out, lines)
    print(json.dumps({
        "command": "compare",
        "mean_rel_err": float(np.mean(series.values)),
        "max_rel_err": float(np.max(series.values)),
        "rows": len(reference),
        "out": out,
        "diverged_at": None,
    }))
    return EXIT_OK


def cmd_richardson(args: argparse.Namespace) -> int:
    out, solver = args.out, args.solver
    if args.h_list is None:
        raise CliError("--h-list is required for richardson")
    params = _lorenz_params(args)
    start = State3(*args.start)
    vqls_cfg = _vqls_config(args) if solver == "vqls" else None
    lines = ["step,h,e_x,e_y,e_z,total"]
    means = {}
    summary = {"command": "richardson", "mean_total": means, "out": out}
    for h in args.h_list:
        try:
            series = richardson_series(
                start, params, h, args.steps,
                solver=solver, vqls_config=vqls_cfg,
                warm_start=args.warm_start,
            )
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
    print(json.dumps(summary))
    return EXIT_DIVERGED if "diverged_at_h" in summary else EXIT_OK


def cmd_cond_sweep(args: argparse.Namespace) -> int:
    out, h_min, h_max = args.out, args.h_min, args.h_max
    if h_min is None or h_max is None:
        raise CliError("--h-min and --h-max are required for cond-sweep")
    if h_min >= h_max:
        raise CliError("need h-min < h-max")
    if args.count < 1:
        raise CliError("count must be >= 1")
    params = _lorenz_params(args)
    grid = np.linspace(h_min, h_max, args.count)
    rows = condition_sweep(params, grid, max_workers=args.threads)
    lines = ["h,kappa_A,kappa_dilation"]
    lines += [",".join([fmt(h), fmt(ka), fmt(kd)]) for h, ka, kd in rows]
    _write_lines(out, lines)
    print(json.dumps({
        "command": "cond-sweep",
        "max_kappa_A": max(r[1] for r in rows),
        "max_kappa_dilation": max(r[2] for r in rows),
        "out": out,
    }))
    return EXIT_OK


def _parse_matrix_entry(token: str) -> complex:
    try:
        value = complex(token)
    except ValueError:
        raise CliError(f"bad matrix entry {token!r}") from None
    if not np.isfinite(value):
        raise CliError(f"matrix entry {token!r} is not finite")
    return value


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


def cmd_decompose(args: argparse.Namespace) -> int:
    out, source = args.out, args.source
    padded_to = None
    if source in ("lorenz-A", "lorenz-HG"):
        matrix = build_nonlinear_system(_lorenz_params(args), args.h)
    else:
        matrix = _read_matrix_file(source)
        n = matrix.shape[0]
        if n & (n - 1):
            if not args.pad:
                raise CliError(
                    f"matrix dimension {n} is not a power of two (use --pad)"
                )
            matrix, _ = pad_to_power_of_two(matrix, np.zeros(n))
            padded_to = matrix.shape[0]
    if source == "lorenz-HG":
        matrix = cost_hamiltonian(matrix, build_rhs(State3(*args.start)))
    total = decompose(matrix)
    _write_lines(out, total.dump().splitlines())
    error = float(np.max(np.abs(reconstruct(total) - matrix))) if total.terms else float(
        np.max(np.abs(matrix))
    )
    print(json.dumps({
        "command": "decompose",
        "source": source,
        "terms": len(total.terms),
        "round_trip_error": error,
        "padded_to": padded_to,
        "out": out,
    }))
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
        if not args.out:
            raise CliError("an output path is required (--out)")
        return args.handler(args)
    except SystemExit as exc:  # --help
        return exc.code
    except (CliError, ValueError, SingularMatrix, RankDeficient, DegenerateImage) as exc:
        # not all of ArithmeticError: an OverflowError is divergence (exit 2)
        print(f"lorenz-vqls: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
