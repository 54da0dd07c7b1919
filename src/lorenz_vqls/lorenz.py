"""Lorenz dynamics and their per-step linear embeddings.

A forward-Euler step is either taken explicitly or recovered as entries 4-6
of the solution of an 8x8 linear system whose unknown vector carries the
current state, the next state, and the products x*z and x*y.  The products
are known current-state quantities, so the per-step system stays linear.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DivergedAt
from .linalg import solve_dense
from .vqls import VqlsConfig, VqlsOutcome, build_problem, optimize

MAX_TIMESTEP = 0.5
OVERFLOW_LIMIT = 1e12

SOLVERS = ("explicit", "direct", "vqls")


@dataclass(frozen=True)
class LorenzParams:
    sigma: float = 10.0
    rho: float = 28.0
    beta: float = 8 / 3

    def __post_init__(self):
        if not all(np.isfinite([self.sigma, self.rho, self.beta])):
            raise ValueError("parameters must be finite")
        if self.sigma <= 0 or self.beta <= 0:
            raise ValueError("sigma and beta must be positive")


@dataclass(frozen=True)
class State3:
    x: float
    y: float
    z: float

    def __post_init__(self):
        if not all(np.isfinite([self.x, self.y, self.z])):
            raise ValueError("state components must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    @classmethod
    def from_array(cls, arr) -> "State3":
        x, y, z = arr
        return cls(float(x), float(y), float(z))


@dataclass(frozen=True)
class Trajectory:
    h: float
    states: np.ndarray  # shape (steps + 1, 3); row n is the state at time n*h
    # VQLS runs only: step n's outcome at index n - 1, None where the origin
    # shortcut solved nothing
    diagnostics: tuple[VqlsOutcome | None, ...] | None = None

    def __len__(self) -> int:
        return self.states.shape[0]


def _check_h(h: float, allow_zero: bool = False) -> float:
    h = float(h)
    if not np.isfinite(h) or h > MAX_TIMESTEP or (h < 0 if allow_zero else h <= 0):
        bound = "[0" if allow_zero else "(0"
        raise ValueError(f"step size must lie in {bound}, {MAX_TIMESTEP}], got {h}")
    return h


def build_linear_step(params: LorenzParams, h: float) -> np.ndarray:
    """3x3 map advancing the linearized system by one step."""
    h = _check_h(h, allow_zero=True)
    s, r, b = params.sigma, params.rho, params.beta
    return np.array(
        [
            [1 - h * s, h * s, 0.0],
            [h * r, 1 - h, 0.0],
            [0.0, 0.0, 1 - h * b],
        ]
    )


def build_block_system(
    params: LorenzParams, h: float, steps: int, start: State3
) -> tuple[np.ndarray, np.ndarray]:
    """Block-bidiagonal system whose solution stacks `steps` linearized states.

    Row block 1 pins the start; row block k reads (step matrix) w_{k-1} - w_k = 0.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    a_step = build_linear_step(params, h)
    dim = 3 * steps
    big = np.zeros((dim, dim))
    big[0:3, 0:3] = np.eye(3)
    for k in range(1, steps):
        big[3 * k : 3 * k + 3, 3 * (k - 1) : 3 * k] = a_step
        big[3 * k : 3 * k + 3, 3 * k : 3 * k + 3] = -np.eye(3)
    rhs = np.zeros(dim)
    rhs[0:3] = start.as_array()
    return big, rhs


def build_nonlinear_system(params: LorenzParams, h: float) -> np.ndarray:
    """8x8 per-step system over W = (x, y, z, x', y', z', x*z, x*y)."""
    h = _check_h(h, allow_zero=True)
    s, r, b = params.sigma, params.rho, params.beta
    a = np.eye(8)
    a[3, 0] = -(1 - h * s)
    a[3, 1] = -h * s
    a[4, 0] = -h * r
    a[4, 1] = -(1 - h)
    a[4, 6] = h
    a[5, 2] = -(1 - b * h)
    a[5, 7] = -h
    return a


def build_rhs(state: State3) -> np.ndarray:
    """(x, y, z, 0, 0, 0, x*z, x*y) for the 8x8 per-step system."""
    x, y, z = state.x, state.y, state.z
    return np.array([x, y, z, 0.0, 0.0, 0.0, x * z, x * y])


def _guarded(x: float, y: float, z: float) -> State3:
    values = (x, y, z)
    if not all(np.isfinite(values)) or max(abs(v) for v in values) > OVERFLOW_LIMIT:
        raise OverflowError(f"state magnitude exceeded {OVERFLOW_LIMIT:g}")
    return State3(x, y, z)


def step_explicit(state: State3, params: LorenzParams, h: float) -> State3:
    """One forward-Euler step, all three updates evaluated from `state`."""
    h = _check_h(h)
    s, r, b = params.sigma, params.rho, params.beta
    x, y, z = state.x, state.y, state.z
    return _guarded(
        x + h * s * (y - x),
        y + h * (x * (r - z) - y),
        z + h * (x * y - b * z),
    )


def step_solve(
    state: State3,
    params: LorenzParams,
    h: float,
    solver: str = "direct",
    vqls_config: VqlsConfig | None = None,
    theta_init=None,
) -> tuple[State3, VqlsOutcome | None]:
    """Advance one step with `solver`, one of SOLVERS.

    "explicit" evaluates the forward-Euler update.  "direct" and "vqls"
    solve the 8x8 embedding, except at the origin: a fixed point with a
    zero right-hand side, returned unchanged.  Returns the next state plus
    the VQLS outcome (None otherwise).
    """
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r} (expected one of {SOLVERS})")
    if solver == "explicit":
        return step_explicit(state, params, h), None
    h = _check_h(h)
    if state.x == 0.0 and state.y == 0.0 and state.z == 0.0:
        return state, None
    matrix = build_nonlinear_system(params, h)
    rhs = build_rhs(state)
    if solver == "direct":
        w = solve_dense(matrix, rhs)
        outcome = None
    else:
        problem = build_problem(matrix, rhs)
        outcome = optimize(problem, vqls_config or VqlsConfig(), theta_init=theta_init)
        w = outcome.solution
    x, y, z = np.real(w[3:6])
    return _guarded(float(x), float(y), float(z)), outcome


def march(
    start: State3,
    params: LorenzParams,
    h: float,
    steps: int,
    solver: str = "direct",
    vqls_config: VqlsConfig | None = None,
    warm_start: bool = True,
) -> Iterator[tuple[np.ndarray | None, State3, VqlsOutcome | None]]:
    """Yield (theta_init, next state, outcome) for each of `steps` steps.

    `theta_init` is what the step's restart 0 started from: with
    `warm_start`, the optimized angles of the latest variational solve,
    otherwise None.  A step past the overflow guard raises OverflowError.
    """
    theta, state = None, start
    for _ in range(steps):
        state, outcome = step_solve(state, params, h, solver, vqls_config, theta)
        yield theta, state, outcome
        if warm_start and outcome is not None:
            theta = outcome.theta_opt


def trajectory(
    start: State3,
    params: LorenzParams,
    h: float,
    steps: int,
    solver: str = "direct",
    vqls_config: VqlsConfig | None = None,
    warm_start: bool = True,
) -> Trajectory:
    """Integrate `steps` steps, recording every state and VQLS outcome.

    With `warm_start`, each variational solve starts restart 0 from the
    previous step's optimized angles.  Raises DivergedAt (carrying the
    partial trajectory) when a step exceeds the overflow guard.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    states, diagnostics, diverged = [start.as_array()], [], False
    try:
        for _, state, out in march(start, params, h, steps, solver, vqls_config, warm_start):
            states.append(state.as_array())
            diagnostics.append(out)
    except OverflowError:
        diverged = True
    traj = Trajectory(h, np.array(states), tuple(diagnostics) if solver == "vqls" else None)
    if diverged:
        raise DivergedAt(len(states), traj)
    return traj


def fixed_points(params: LorenzParams) -> list[State3]:
    """Equilibria: the origin, plus the symmetric pair when rho > 1."""
    points = [State3(0.0, 0.0, 0.0)]
    if params.rho > 1:
        wing = float(np.sqrt(params.beta * (params.rho - 1)))
        points.append(State3(wing, wing, params.rho - 1))
        points.append(State3(-wing, -wing, params.rho - 1))
    return points
