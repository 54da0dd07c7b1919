"""Variational solver for A w = b.

Minimizes the residual cost <psi|A^H (I - |b><b|) A|psi> = ||r||^2, with the
projected residual r = A psi - b <b|A psi>, over the ansatz by fixed-step
gradient descent with adjoint gradients and random restarts, and reads the
rescaled, sign-corrected classical solution back out of the optimized state.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import AnsatzConfig, ansatz_gradient, run_ansatz
from .circuit import expectation  # noqa: F401  (bench/spans.py traces this name)
from .errors import DegenerateImage, NotNormalized, ZeroRightHandSide
from .linalg import _square, _vector, num_qubits
from .pauli import decompose  # noqa: F401  (bench/spans.py traces this name)

# Stop launching further restarts once the best final cost is at or
# below this; restarts exist to escape bad initializations, and a run
# this converged cannot be improved meaningfully.
ACCEPT_COST = 1e-7


@dataclass(frozen=True)
class VqlsConfig:
    max_iterations: int = 200
    conv_tol: float = 1e-8
    # 0.2 sits at ~60% of the descent stability bound for the per-step
    # Lorenz systems (cost curvature <= 2 sigma_max(A)^2) and is the
    # smallest round value whose converged residuals clear 1e-3 within the
    # 200-iteration budget; 0.1 stalls just short of that.
    stepsize: float = 0.2
    layer_count: int = 5
    restarts: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not (np.isfinite(self.conv_tol) and self.conv_tol > 0):
            raise ValueError(f"conv_tol must be finite and > 0, got {self.conv_tol}")
        if not (np.isfinite(self.stepsize) and self.stepsize > 0):
            raise ValueError(f"stepsize must be finite and > 0, got {self.stepsize}")
        if self.layer_count < 1:
            raise ValueError("layer_count must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class VqlsProblem:
    a: np.ndarray
    b: np.ndarray
    b_unit: np.ndarray

    @property
    def qubit_count(self) -> int:
        return num_qubits(self.a.shape[0])


@dataclass(frozen=True)
class VqlsOutcome:
    theta_opt: np.ndarray
    final_cost: float
    initial_cost: float
    iterations_used: int  # of the winning descent
    iterations_total: int  # over every descent run
    descents: int  # restarts run, restart 0 included
    solution: np.ndarray
    residual: float
    sign: int


def _unit_rhs(a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    a = _square(np.asarray(a))
    b = _vector(np.asarray(b), a.shape[0])
    norm_b = np.linalg.norm(b)
    if norm_b == 0:
        raise ZeroRightHandSide("right-hand side has zero norm")
    return a, b, b / norm_b


def cost_hamiltonian(a, b) -> np.ndarray:
    """Dense A^H (I - b_unit b_unit^H) A; zero exactly on multiples of A^-1 b."""
    a, _, b_unit = _unit_rhs(a, b)
    projector = np.eye(a.shape[0]) - np.outer(b_unit, b_unit.conj())
    return a.conj().T @ projector @ a


def build_problem(a, b) -> VqlsProblem:
    num_qubits(_square(np.asarray(a)).shape[0])
    return VqlsProblem(*_unit_rhs(a, b))


def _residual(problem: VqlsProblem, psi: np.ndarray) -> np.ndarray:
    """Projected residual A psi - b_unit <b_unit|A psi>."""
    image = problem.a @ psi
    return image - problem.b_unit * np.vdot(problem.b_unit, image)


def cost(problem: VqlsProblem, ansatz: AnsatzConfig, theta) -> float:
    """<psi|A^H (I - |b><b|) A|psi>, summed as ||r||^2 so nothing cancels."""
    r = _residual(problem, run_ansatz(ansatz, theta))
    return float(np.vdot(r, r).real)


def gradient(problem: VqlsProblem, ansatz: AnsatzConfig, theta) -> np.ndarray:
    """Exact gradient of `cost`: one adjoint sweep seeded with A^H r."""
    return ansatz_gradient(
        ansatz, theta, lambda psi: problem.a.conj().T @ _residual(problem, psi)
    )


def extract_solution(
    problem: VqlsProblem, ansatz: AnsatzConfig, theta
) -> tuple[np.ndarray, float, int]:
    """Rescale and sign-correct the ansatz state into a classical solution.

    The state's global phase is first rotated so its largest-magnitude
    amplitude is real nonnegative; the scale is ||b|| / ||A psi||; the sign in
    {+1, -1} minimizing the residual wins.
    """
    psi = run_ansatz(ansatz, theta)
    lead = psi[int(np.argmax(np.abs(psi)))]
    if abs(lead) > 0.0:
        psi = psi * (lead.conjugate() / abs(lead))
    image = problem.a @ psi
    image_norm = np.linalg.norm(image)
    if image_norm < 1e-14:
        raise DegenerateImage("matrix maps the ansatz state to zero")
    scale = float(np.linalg.norm(problem.b) / image_norm)
    best = None
    for sign in (1, -1):
        candidate = sign * scale * psi
        residual = np.linalg.norm(problem.a @ candidate - problem.b)
        if best is None or residual < best[0]:
            best = (residual, sign, candidate)
    return best[2], scale, best[1]


def _descend(problem, ansatz, theta0, config):
    theta = np.array(theta0, dtype=float)
    previous = cost(problem, ansatz, theta)
    initial = previous
    iterations = 0
    for _ in range(config.max_iterations):
        theta = theta - config.stepsize * gradient(problem, ansatz, theta)
        iterations += 1
        current = cost(problem, ansatz, theta)
        converged = abs(current - previous) < config.conv_tol
        previous = current
        if converged:
            break
    return theta, previous, initial, iterations


def optimize(problem: VqlsProblem, config: VqlsConfig, theta_init=None) -> VqlsOutcome:
    """Gradient-descent restarts; restart r draws theta0 from seed + r.

    `theta_init`, when given, replaces the random initialization of restart 0
    (warm start).  The restart with the lowest final cost wins; its state is
    turned into a classical solution via `extract_solution`.
    """
    ansatz = AnsatzConfig(
        qubit_count=problem.qubit_count, layer_count=config.layer_count
    )
    best = None
    total = 0
    for r in range(config.restarts):
        if r == 0 and theta_init is not None:
            theta0 = np.asarray(theta_init, dtype=float)
        else:
            rng = np.random.default_rng(config.seed + r)
            theta0 = rng.uniform(0.0, 2 * np.pi, size=ansatz.shape)
        theta, final, initial, iterations = _descend(problem, ansatz, theta0, config)
        total += iterations
        if best is None or final < best[1]:
            best = (theta, final, initial, iterations)
        if best[1] <= ACCEPT_COST:
            break
    theta, final, initial, iterations = best
    solution, _, sign = extract_solution(problem, ansatz, theta)
    residual = float(
        np.linalg.norm(problem.a @ solution - problem.b) / np.linalg.norm(problem.b)
    )
    return VqlsOutcome(
        theta_opt=theta,
        final_cost=final,
        initial_cost=initial,
        iterations_used=iterations,
        iterations_total=total,
        descents=r + 1,
        solution=solution,
        residual=residual,
        sign=sign,
    )


def trace_distance(u, v) -> float:
    """For unit vectors (pure states): ||v - <u|v> u||.

    This equals sqrt(1 - |<u|v>|^2) but keeps its digits on close states.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    for vec in (u, v):
        if abs(np.linalg.norm(vec) - 1.0) > 1e-8:
            raise NotNormalized("trace distance requires unit vectors")
    d = v - u * np.vdot(u, v)
    return float(np.sqrt(np.vdot(d, d).real))


def error_bound(final_cost: float, kappa: float) -> float:
    """Upper bound kappa * sqrt(cost) on the trace distance to the solution."""
    if final_cost < 0:
        raise ValueError("cost must be >= 0")
    if kappa < 1:
        raise ValueError("condition number must be >= 1")
    return float(kappa * np.sqrt(final_cost))
