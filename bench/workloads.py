"""The benchmark's workloads: the CLI calls they make and the checks on their output.

A workload turns (seed, solver seed, seconds, first round) into rounds of
jobs.  Round k scales every start and step size it passes by
1 + k * NUDGE, so no two calls in one run share their inputs and a cache
kept across calls in one process never returns a stored result.  A job
makes one or more calls into the program (`lorenz_vqls.cli.main`, or
`lorenz.step_solve` for VQLS steps) and checks what they returned or wrote;
running it gives a `JobResult`.  Only the time inside those calls is
counted.  README.md next to this file says why each workload exists and
what each is predicted to show.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import lorenz_vqls
import lorenz_vqls.cli as cli
import lorenz_vqls.lorenz as lorenz

RESIDUAL_LIMIT = 1e-3       # acceptance bound on ||Aw - b|| / ||b||
REL_ERR_LIMIT = 0.05        # criterion 9: mean relative error of a compare
EXPLICIT_TOL = 1e-10        # direct step vs step_explicit, absolute
RATIO_RANGE = (1.5, 2.5)    # criterion 10: Richardson mean ratio per halving
SEPARATION_MIN = 1.0        # criterion 11: bifurcation pair, final distance
EXPLICIT_SAMPLE = 20        # direct steps re-derived per trajectory
NUDGE = 2.0 ** -30          # relative change of the inputs from one round to the next

# vqls-warm: the paper's attractor instance, one 13-step trajectory per
# round, so that a round holds the cold first step and the restart at step
# 10 (solver seed 0).  A round takes about 13 s.
WARM_H = 0.005
WARM_START = (1.0, -2.0, 4.0)
WARM_STEPS = 13
WARM_S_PER_ROUND = 13.0

# classical: the criterion-10 Richardson grid, each h over the common
# horizon 0.4 that makes the mean estimates comparable, the criterion-11
# bifurcation pair, and a 100-point condition sweep.
RICHARDSON_H = (0.01, 0.005, 0.0025, 0.00125)
RICHARDSON_HORIZON = 0.4
SWEEP_COUNT = 100
SELF_COMPARE_STEPS = 1000
CLASSICAL_S_PER_ROUND = 1.8


@functools.cache
def attractor_states() -> np.ndarray:
    """Rows 1..2000 of the direct `attractor`-preset trajectory."""
    preset = cli.PRESETS["attractor"]
    traj = lorenz_vqls.trajectory(
        lorenz_vqls.State3(*preset["start"]), lorenz_vqls.LorenzParams(),
        preset["h"], preset["steps"], solver="direct",
    )
    return traj.states[1:]


def nudge(values, k: int) -> np.ndarray:
    """Round k's copy of some inputs: each scaled by 1 + k * NUDGE."""
    return np.asarray(values, dtype=float) * (1.0 + k * NUDGE)


def flag(values) -> str:
    """A vector as a CLI value, every float written so it parses back exactly."""
    return ",".join(repr(float(v)) for v in values)


@dataclass
class JobResult:
    steps: int                       # steps the job asked for
    failed: int = 0                  # of those, steps that failed a check
    wall_s: float = 0.0              # wall time inside the program's calls
    digests: list = field(default_factory=list)   # sha256 of each stdout and CSV
    csv_bytes: int = 0
    residuals: list = field(default_factory=list)
    rel_err: float | None = None     # compare summary's mean_rel_err
    problems: list = field(default_factory=list)  # why steps failed


class CheckFailed(Exception):
    pass


def call(result: JobResult, workdir: Path, argv: list, columns: int, rows: int):
    """Run one CLI command; check its exit code and CSV shape; return rows, summary."""
    out = workdir / "out.csv"
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            t0 = time.perf_counter()
            try:
                code = cli.main(argv + ["--out", str(out)])
            finally:
                result.wall_s += time.perf_counter() - t0
        text = buf.getvalue()
        result.digests.append(hashlib.sha256(text.encode()).hexdigest())
        if code != 0:
            raise CheckFailed(f"{argv[0]} exited with {code}")
        data = out.read_bytes()
    finally:
        out.unlink(missing_ok=True)
    result.csv_bytes += len(data)
    result.digests.append(hashlib.sha256(data).hexdigest())
    table = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    if len(table) != rows + 1:
        raise CheckFailed(f"{argv[0]}: {len(table) - 1} CSV rows, expected {rows}")
    if any(len(r) != columns for r in table):
        raise CheckFailed(f"{argv[0]}: a CSV row does not have {columns} fields")
    return table[1:], json.loads(text.strip().splitlines()[-1])


def floats(rows, cols) -> np.ndarray:
    """The given columns of CSV rows as a float array; empty fields fail."""
    try:
        return np.array([[float(r[c]) for c in cols] for r in rows])
    except ValueError as exc:
        raise CheckFailed(f"unparseable CSV number: {exc}") from None


def check_explicit(states: np.ndarray, params, h: float, rng) -> None:
    """A seeded sample of rows n -> n+1 must match step_explicit."""
    count = min(EXPLICIT_SAMPLE, len(states) - 1)
    for n in rng.choice(len(states) - 1, size=count, replace=False).tolist():
        expected = lorenz_vqls.step_explicit(
            lorenz_vqls.State3.from_array(states[n]), params, h
        ).as_array()
        gap = float(np.max(np.abs(expected - states[n + 1])))
        if not gap <= EXPLICIT_TOL:
            raise CheckFailed(f"direct step {n} is {gap:.3e} from step_explicit")


class Job:
    """A named body of CLI calls and checks; any exception fails all its steps."""

    def __init__(self, name: str, steps: int, body):
        self.name, self.steps, self.body = name, steps, body

    def run(self, workdir: Path, rng) -> JobResult:
        result = JobResult(steps=self.steps)
        try:
            self.body(result, workdir, rng)
        except Exception as exc:  # a failing program must not end the run
            result.failed = self.steps
            result.problems.append(f"{self.name}: {type(exc).__name__}: {exc}")
        return result


def vqls_step(result: JobResult, state, h: float, solver_seed: int, theta_init):
    """One timed `lorenz.step_solve` with the VQLS solver, residual re-derived."""
    params = lorenz_vqls.LorenzParams()
    t0 = time.perf_counter()
    try:
        nxt, outcome = lorenz.step_solve(
            state, params, h, solver="vqls",
            vqls_config=lorenz_vqls.VqlsConfig(seed=solver_seed), theta_init=theta_init,
        )
    finally:
        result.wall_s += time.perf_counter() - t0
    result.digests.append(hashlib.sha256(
        outcome.solution.tobytes() + outcome.theta_opt.tobytes()
    ).hexdigest())
    a = lorenz_vqls.build_nonlinear_system(params, h)
    b = lorenz_vqls.build_rhs(state)
    residual = float(np.linalg.norm(a @ outcome.solution - b) / np.linalg.norm(b))
    if not abs(residual - outcome.residual) <= 1e-12:
        raise CheckFailed(f"reported residual {outcome.residual:.3e} is not {residual:.3e}")
    result.residuals.append(residual)
    if not residual <= RESIDUAL_LIMIT:
        result.failed = 1
        result.problems.append(f"VQLS residual {residual:.3e} above {RESIDUAL_LIMIT}")
    return nxt, outcome


def warm_trajectory(steps: int, solver_seed: int, start) -> list:
    """One job per step of a warm-started VQLS trajectory, as `trajectory` runs it.

    Each step restarts from the previous step's angles; the first starts
    cold.  The last job checks the mean relative error against the direct
    trajectory, the quantity `compare` reports.
    """
    params = lorenz_vqls.LorenzParams()
    start = lorenz_vqls.State3(*start)
    direct = lorenz_vqls.trajectory(start, params, WARM_H, steps, solver="direct").states
    carry = {}

    def step(n):
        def body(result, workdir, rng):
            if n == 0:
                check_explicit(direct, params, WARM_H, rng)
                carry.update(state=start, theta=None, errors=[])
            nxt, outcome = vqls_step(result, carry["state"], WARM_H, solver_seed, carry["theta"])
            carry.update(state=nxt, theta=outcome.theta_opt)
            carry["errors"].append(lorenz_vqls.relative_error(
                lorenz_vqls.State3.from_array(direct[n + 1]), nxt
            ))
            if n == steps - 1:
                result.rel_err = float(np.mean(carry["errors"]))
                if not result.rel_err <= REL_ERR_LIMIT:
                    raise CheckFailed(
                        f"mean relative error {result.rel_err:.3e} above {REL_ERR_LIMIT}"
                    )

        return Job(f"warm-step-{n + 1}", 1, body)

    return [step(n) for n in range(steps)]


def self_compare(start: np.ndarray) -> Job:
    """`compare --self-compare`: direct against direct, so every error is 0."""

    def body(result, workdir, rng):
        n = SELF_COMPARE_STEPS
        rows, summary = call(result, workdir, [
            "compare", "--self-compare", "--h", str(WARM_H), f"--start={flag(start)}",
            "--steps", str(n),
        ], columns=11, rows=n + 1)
        table = floats(rows, range(2, 9))
        if not (np.array_equal(table[:, :3], table[:, 3:6]) and not table[:, 6].any()
                and summary["mean_rel_err"] == 0.0):
            raise CheckFailed("direct self-compare reports a nonzero error")
        check_explicit(table[:, :3], lorenz_vqls.LorenzParams(), WARM_H, rng)

    return Job("self-compare", SELF_COMPARE_STEPS, body)


def bifurcation_pair(k: int) -> list:
    """The criterion-11 pair: 10000 direct steps from each of two near-origin
    starts, one job each; the second checks how far apart they end.  Round k
    nudges both starts alike, which shifts the pair in time by about
    k * NUDGE / 7 (7 is the origin's unstable eigenvalue)."""
    preset = cli.PRESETS["bifurcation"]
    params = lorenz_vqls.LorenzParams(preset["sigma"], preset["rho"], preset["beta"])
    finals = {}

    def simulate(name):
        def body(result, workdir, rng):
            finals.pop(name, None)
            start = flag(nudge(cli.PRESETS[name]["start"], k))
            rows, _ = call(result, workdir, ["simulate", "--preset", name, f"--start={start}"],
                           columns=5, rows=preset["steps"] + 1)
            states = floats(rows, (2, 3, 4))
            check_explicit(states, params, preset["h"], rng)
            finals[name] = states[-1].copy()   # a view would keep all its rows alive
            if name == "bifurcation-twin":
                if "bifurcation" not in finals:
                    raise CheckFailed("the first run of the pair failed")
                separation = float(np.linalg.norm(finals["bifurcation"] - states[-1]))
                if not separation > SEPARATION_MIN:
                    raise CheckFailed(f"bifurcation pair ends {separation:.3f} apart")

        return Job(name, preset["steps"], body)

    return [simulate("bifurcation"), simulate("bifurcation-twin")]


def richardson_grid(start: np.ndarray) -> Job:
    """The criterion-10 grid from one start, one call per h over a common horizon."""

    def body(result, workdir, rng):
        means = []
        for h in RICHARDSON_H:
            n = round(RICHARDSON_HORIZON / h)
            rows, _ = call(result, workdir, [
                "richardson", "--h-list", str(h), "--steps", str(n), f"--start={flag(start)}",
            ], columns=6, rows=n)
            means.append(float(np.mean(floats(rows, (5,)))))
        for coarse, fine in zip(means[:2], means[1:3]):
            if not RATIO_RANGE[0] <= coarse / fine <= RATIO_RANGE[1]:
                raise CheckFailed(f"Richardson ratio {coarse / fine:.3f} outside {RATIO_RANGE}")

    return Job("richardson", sum(round(RICHARDSON_HORIZON / h) for h in RICHARDSON_H), body)


def cond_sweep(k: int) -> Job:
    """100 distinct h in about [0.001, 0.1], single-threaded."""
    h_min, h_max = nudge((0.001, 0.1), k).tolist()

    def body(result, workdir, rng):
        rows, _ = call(result, workdir, ["cond-sweep", "--h-min", repr(h_min),
                                         "--h-max", repr(h_max), "--count", str(SWEEP_COUNT)],
                       columns=3, rows=SWEEP_COUNT)
        table = floats(rows, (0, 1, 2))
        if not np.array_equal(table[:, 0], np.linspace(h_min, h_max, SWEEP_COUNT)):
            raise CheckFailed("cond-sweep h grid differs from the request")
        if not np.all(table[:, 1:] >= 1.0):
            raise CheckFailed("a condition number is below 1")

    return Job("cond-sweep", SWEEP_COUNT, body)


# Each workload maps (seed, solver_seed, seconds, first) to the rounds
# first, first + 1, ... that fill about `seconds`; the harness calibrates
# the host's speed between jobs.  The VQLS workload takes its inputs from
# the solver seed alone: README.md explains why the run seed does not
# reach it.
def vqls_warm(seed: int, solver_seed: int, seconds: float, first: int = 0) -> list:
    count = max(1, round(seconds / WARM_S_PER_ROUND))
    return [warm_trajectory(WARM_STEPS, solver_seed, nudge(WARM_START, k))
            for k in range(first, first + count)]


def classical(seed: int, solver_seed: int, seconds: float, first: int = 0) -> list:
    states = attractor_states()
    rounds = []
    for k in range(first, first + max(1, round(seconds / CLASSICAL_S_PER_ROUND))):
        draw = np.random.default_rng([seed, k])
        richardson_start, compare_start = (
            nudge(states[i], k) for i in draw.integers(len(states), size=2)
        )
        rounds.append([*bifurcation_pair(k), richardson_grid(richardson_start),
                       cond_sweep(k), self_compare(compare_start)])
    return rounds


WORKLOADS = {"vqls-warm": vqls_warm, "classical": classical}
