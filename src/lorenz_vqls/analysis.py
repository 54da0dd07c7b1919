"""Error quantification: solver-vs-solver relative error series, step-size
error estimation by step halving, and condition-number sweeps."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch
from .linalg import condition_number, hermitian_dilation
from .lorenz import (
    MAX_TIMESTEP,
    LorenzParams,
    State3,
    Trajectory,
    VqlsConfig,
    _stepper,
    build_nonlinear_system,
    march,
)
from .lorenz import step_explicit  # noqa: F401  (bench/spans.py traces this name)
from .lorenz import step_solve  # noqa: F401  (bench/spans.py traces this name)


@dataclass(frozen=True)
class ErrorSeries:
    values: np.ndarray


@dataclass(frozen=True)
class RichardsonEstimate:
    e_x: float
    e_y: float
    e_z: float

    @property
    def total(self) -> float:
        return abs(self.e_x) + abs(self.e_y) + abs(self.e_z)


def _relative_errors(wc: np.ndarray, wq: np.ndarray) -> np.ndarray:
    """`relative_error` over the last axis of (..., 3) arrays of states."""
    d, a = np.abs(wc - wq), np.abs(wc)
    return (d[..., 0] + d[..., 1] + d[..., 2]) / (1.0 + a[..., 0] + a[..., 1] + a[..., 2])


def relative_error(wc: State3, wq: State3) -> float:
    """Summed absolute coordinate difference over 1 + the first state's size.

    Not symmetric: the denominator uses `wc` (the reference trajectory).
    """
    return float(_relative_errors(wc.as_array(), wq.as_array()))


def compare_trajectories(classical: Trajectory, quantum: Trajectory) -> ErrorSeries:
    """Pointwise relative error at every index n >= 1."""
    if len(classical) != len(quantum):
        raise LengthMismatch(
            f"trajectory lengths differ: {len(classical)} vs {len(quantum)}"
        )
    if classical.h != quantum.h:
        raise ValueError("trajectories use different step sizes")
    if not np.array_equal(classical.states[0], quantum.states[0]):
        raise ValueError("trajectories start from different states")
    return ErrorSeries(_relative_errors(classical.states[1:], quantum.states[1:]))


def _estimate(common, fine2, coarse, h: float) -> RichardsonEstimate:
    # Gradients over the shared 2h span.  A single step from the common point
    # would reproduce the instantaneous derivative exactly and make the
    # estimate identically zero; pairing two h-steps against one 2h-step
    # exposes the leading O(h) truncation term instead.
    span = 2 * float(h)
    return RichardsonEstimate(
        *((c - s0) / span - (f - s0) / span for s0, f, c in zip(common, fine2, coarse))
    )


def richardson(
    state: State3,
    params: LorenzParams,
    h: float,
    solver: str = "direct",
    vqls_config: VqlsConfig | None = None,
) -> RichardsonEstimate:
    """Leading step-size error at one point: two h-steps vs one 2h-step."""
    return richardson_series(state, params, h, 1, solver, vqls_config, warm_start=False)[0]


def richardson_series(
    start: State3,
    params: LorenzParams,
    h: float,
    steps: int,
    solver: str = "direct",
    vqls_config: VqlsConfig | None = None,
    warm_start: bool = True,
) -> list[RichardsonEstimate]:
    """Per-point estimates along a base trajectory advanced by the fine path.

    Point n pairs fine states n and n + 2 with one 2h-step from point n,
    which starts from the same angles as fine step n + 1.  A state past the
    overflow guard raises OverflowError.
    """
    if not 0 < h <= MAX_TIMESTEP / 2:
        raise ValueError(f"Richardson step h must lie in (0, {MAX_TIMESTEP / 2}], got {h}")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    fine = march(start, params, h, steps + 1, solver, vqls_config, warm_start)
    coarse_step = _stepper(params, 2 * h, solver, vqls_config)
    theta_init, fine1, _ = next(fine)
    point, estimates = (start.x, start.y, start.z), []
    for next_init, fine2, _ in fine:
        *coarse, _ = coarse_step(*point, theta_init)
        estimates.append(_estimate(point, fine2, coarse, h))
        point, fine1, theta_init = fine1, fine2, next_init
    return estimates


def default_h_grid(h_max: float = 0.1, count: int = 100) -> np.ndarray:
    """Uniform grid of `count` points over (0, h_max]."""
    return h_max * np.arange(1, count + 1) / count


def condition_sweep(
    params: LorenzParams, h_values, max_workers: int | None = None
) -> list[tuple[float, float, float]]:
    """(h, condition numbers of the per-step system and of its dilation)."""
    h_list = [float(h) for h in h_values]
    if not h_list:
        raise ValueError("h_values must be nonempty")

    def one(h):
        a = build_nonlinear_system(params, h)
        return h, condition_number(a), condition_number(hermitian_dilation(a))

    if max_workers is not None and max_workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            return list(pool.map(one, h_list))
    return [one(h) for h in h_list]
