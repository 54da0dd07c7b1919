"""Exact statevector simulation of the layered rotate-and-entangle ansatz.

Convention: qubit 0 is the most significant bit of the amplitude index.
CNOT patterns and solution readout both rely on this ordering.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, ShapeMismatch
from .pauli import PauliSum


def rz_matrix(angle: float) -> np.ndarray:
    return np.array(
        [[np.exp(-0.5j * angle), 0.0], [0.0, np.exp(0.5j * angle)]], dtype=complex
    )


def ry_matrix(angle: float) -> np.ndarray:
    c, s = np.cos(angle / 2), np.sin(angle / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rotation_blocks(theta: np.ndarray) -> np.ndarray:
    """Per-qubit 2x2 rotations for a (..., 3) grid of (alpha, beta, gamma)."""
    alpha, beta, gamma = theta[..., 0], theta[..., 1], theta[..., 2]
    c, s = np.cos(beta / 2), np.sin(beta / 2)
    half_sum = 0.5 * (alpha + gamma)
    half_diff = 0.5 * (alpha - gamma)
    blocks = np.empty(theta.shape[:-1] + (2, 2), dtype=complex)
    blocks[..., 0, 0] = np.exp(-1j * half_sum) * c
    blocks[..., 0, 1] = -np.exp(1j * half_diff) * s
    blocks[..., 1, 0] = np.exp(-1j * half_diff) * s
    blocks[..., 1, 1] = np.exp(1j * half_sum) * c
    return blocks


def rotation_matrix(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """Closed form of R_Z(gamma) @ R_Y(beta) @ R_Z(alpha)."""
    return _rotation_blocks(np.array([alpha, beta, gamma], dtype=float))


def _qubit_count(dim: int) -> int:
    n = dim.bit_length() - 1
    if dim < 2 or (1 << n) != dim:
        raise DimensionMismatch(f"state length {dim} is not a power of two")
    return n


def apply_single_qubit(state, gate, qubit: int) -> np.ndarray:
    """Apply a 2x2 gate to one qubit of a statevector."""
    state = np.asarray(state, dtype=complex)
    n = _qubit_count(state.shape[0])
    psi = np.moveaxis(state.reshape([2] * n), qubit, 0).reshape(2, -1)
    out = gate @ psi
    return np.moveaxis(out.reshape([2] * n), 0, qubit).reshape(-1)


def apply_rz(state, qubit: int, angle: float) -> np.ndarray:
    return apply_single_qubit(state, rz_matrix(angle), qubit)


def apply_ry(state, qubit: int, angle: float) -> np.ndarray:
    return apply_single_qubit(state, ry_matrix(angle), qubit)


@lru_cache(maxsize=None)
def _cnot_gather(n: int, control: int, target: int) -> np.ndarray:
    idx = np.arange(1 << n)
    bit = (idx >> (n - 1 - control)) & 1
    gather = idx ^ (bit << (n - 1 - target))
    gather.setflags(write=False)
    return gather


def apply_cnot(state, control: int, target: int) -> np.ndarray:
    state = np.asarray(state, dtype=complex)
    n = _qubit_count(state.shape[0])
    return state[_cnot_gather(n, control, target)]


@lru_cache(maxsize=None)
def _ring_gather(n: int, offset: int):
    """Gather array for the full CNOT ring; None when there is one qubit."""
    if n == 1:
        return None
    gather = np.arange(1 << n)
    for q in range(n):
        gather = gather[_cnot_gather(n, q, (q + offset) % n)]
    gather.setflags(write=False)
    return gather


@lru_cache(maxsize=None)
def _layer_subscripts(n: int) -> str:
    """einsum spec applying one 2x2 gate per qubit to a rank-n state tensor."""
    out_axes = "abcdef"[:n]
    in_axes = "ghijkl"[:n]
    gates = ",".join(o + i for o, i in zip(out_axes, in_axes))
    return f"{gates},{in_axes}->{out_axes}"


@dataclass(frozen=True)
class AnsatzConfig:
    qubit_count: int
    layer_count: int = 5
    entangle_range: int = 1

    def __post_init__(self):
        if self.qubit_count < 1:
            raise ValueError("qubit_count must be >= 1")
        if self.layer_count < 1:
            raise ValueError("layer_count must be >= 1")
        if self.qubit_count > 1 and not 0 < self.entangle_range < self.qubit_count:
            raise ValueError("entangle_range must lie in (0, qubit_count)")

    @property
    def shape(self) -> tuple[int, int, int]:
        """Expected parameter-grid shape: (layers, qubits, 3) for (alpha, beta, gamma)."""
        return (self.layer_count, self.qubit_count, 3)


def run_ansatz(cfg: AnsatzConfig, theta) -> np.ndarray:
    """Prepare the ansatz state from |0...0>.

    Per layer: every qubit gets R_Z(gamma) R_Y(beta) R_Z(alpha) (alpha acts
    first), then CNOTs with control q and target (q + entangle_range) mod
    qubit_count for q = 0..qubit_count-1 (skipped for a single qubit).
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != cfg.shape:
        raise ShapeMismatch(f"expected theta shape {cfg.shape}, got {theta.shape}")
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta contains non-finite angles")
    dim = 1 << cfg.qubit_count
    psi = np.zeros(dim, dtype=complex)
    psi[0] = 1.0
    ring = _ring_gather(cfg.qubit_count, cfg.entangle_range)
    rotations = _rotation_blocks(theta)
    subscripts = _layer_subscripts(cfg.qubit_count)
    shape = (2,) * cfg.qubit_count
    for layer in rotations:
        psi = np.einsum(subscripts, *layer, psi.reshape(shape)).reshape(-1)
        if ring is not None:
            psi = psi[ring]
    return psi / np.linalg.norm(psi)


def expectation(state, hamiltonian: PauliSum) -> float:
    """Re <state|H|state>, evaluated term by term without a dense matrix."""
    state = np.asarray(state, dtype=complex)
    if state.shape != (hamiltonian.dim,):
        raise DimensionMismatch(
            f"state length {state.shape} does not match {hamiltonian.qubit_count} qubit(s)"
        )
    value = np.vdot(state, hamiltonian.apply(state))
    if hamiltonian.is_hermitian and abs(value.imag) > 1e-10:
        raise ValueError(f"Hermitian expectation has imaginary part {value.imag:.3g}")
    return float(value.real)
