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


@lru_cache(maxsize=None)
def _ring_gather(n: int) -> np.ndarray:
    """Gather array applying CNOT(q, (q + 1) mod n) for q = 0..n-1 in turn;
    the identity for a single qubit, which has no ring."""
    idx = np.arange(1 << n)
    gather = idx
    for q in range(n if n > 1 else 0):
        bit = (idx >> (n - 1 - q)) & 1
        gather = gather[idx ^ (bit << (n - 1 - (q + 1) % n))]
    gather.setflags(write=False)
    return gather


@lru_cache(maxsize=None)
def _kron_subscripts(n: int) -> str:
    """einsum spec for the Kronecker products of n stacks of 2x2 blocks."""
    rows, cols = "abcdef"[:n], "ghijkl"[:n]
    return ",".join(f"z{r}{c}" for r, c in zip(rows, cols)) + f"->z{rows}{cols}"


@lru_cache(maxsize=None)
def _overlap_subscripts(n: int) -> tuple[str, ...]:
    """Per qubit q, the einsum spec contracting two stacks of rank-n state
    tensors over every qubit but q, leaving a 2x2 matrix per stack entry."""
    axes = "abcdef"[:n]
    return tuple(f"l{axes},l{axes[:q]}z{axes[q + 1:]}->l{axes[q]}z" for q in range(n))


@dataclass(frozen=True)
class AnsatzConfig:
    qubit_count: int
    layer_count: int = 5

    def __post_init__(self):
        if self.qubit_count < 1:
            raise ValueError("qubit_count must be >= 1")
        if self.layer_count < 1:
            raise ValueError("layer_count must be >= 1")

    @property
    def shape(self) -> tuple[int, int, int]:
        """Expected parameter-grid shape: (layers, qubits, 3) for (alpha, beta, gamma)."""
        return (self.layer_count, self.qubit_count, 3)


def _checked(cfg: AnsatzConfig, theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != cfg.shape:
        raise ShapeMismatch(f"expected theta shape {cfg.shape}, got {theta.shape}")
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta contains non-finite angles")
    return theta


def _layer_matrices(cfg: AnsatzConfig, theta: np.ndarray) -> np.ndarray:
    """Per layer, the dense matrix of its single-qubit rotations."""
    dim = 1 << cfg.qubit_count
    blocks = np.moveaxis(_rotation_blocks(theta), 1, 0)
    return np.einsum(_kron_subscripts(cfg.qubit_count), *blocks).reshape(-1, dim, dim)


def _forward(cfg: AnsatzConfig, layers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run |0...0> through the layers.

    Returns the state just after each layer's rotations, before its CNOT
    ring, and the normalized output state.
    """
    ring = _ring_gather(cfg.qubit_count)
    rotated = np.empty(layers.shape[:2], dtype=complex)
    psi = np.zeros(layers.shape[1], dtype=complex)
    psi[0] = 1.0
    for layer, matrix in enumerate(layers):
        rotated[layer] = matrix @ psi
        psi = rotated[layer][ring]
    return rotated, psi / np.linalg.norm(psi)


def run_ansatz(cfg: AnsatzConfig, theta) -> np.ndarray:
    """Prepare the ansatz state from |0...0>.

    Per layer: every qubit gets R_Z(gamma) R_Y(beta) R_Z(alpha) (alpha acts
    first), then CNOTs with control q and target (q + 1) mod qubit_count
    for q = 0..qubit_count-1 (skipped for a single qubit).
    """
    return _forward(cfg, _layer_matrices(cfg, _checked(cfg, theta)))[1]


def ansatz_gradient(cfg: AnsatzConfig, theta, cotangent) -> np.ndarray:
    """Adjoint-mode gradient of a real cost C(psi) over the ansatz angles.

    `cotangent(psi)` returns dC/d(conj psi), so that dC/dtheta =
    2 Re <cotangent(psi)|d psi/dtheta>; for C = <psi|H|psi> it is H psi.
    One forward sweep keeps each layer's rotated state; one backward sweep
    carries the cotangent back through each CNOT ring and rotation layer
    (Jones & Gacon, arXiv:2009.02823).  Exact, like the parameter-shift
    rule, for these rotation gates.
    """
    theta = _checked(cfg, theta)
    layers = _layer_matrices(cfg, theta)
    kets, psi = _forward(cfg, layers)
    ring = _ring_gather(cfg.qubit_count)
    adjoints = layers.conj()
    cotangents = np.empty_like(kets)  # the cotangent at each rotated state
    mu = np.asarray(cotangent(psi), dtype=complex)
    for layer in reversed(range(cfg.layer_count)):
        cotangents[layer, ring] = mu
        mu = cotangents[layer] @ adjoints[layer]
    shape = (cfg.layer_count,) + (2,) * cfg.qubit_count
    bra, ket = cotangents.conj().reshape(shape), kets.reshape(shape)
    # m[l, q][a, c] = sum over the other qubits of bra[a] ket[c]
    m = np.stack(
        [np.einsum(spec, bra, ket) for spec in _overlap_subscripts(cfg.qubit_count)],
        axis=1,
    )
    # d/d(angle) of R_Z(gamma) R_Y(beta) R_Z(alpha) is (-i/2 P) times the
    # rotation, with P the angle's Pauli generator moved to the output side:
    # Z for gamma, cos(gamma) Y - sin(gamma) X for beta, and
    # cos(beta) Z + sin(beta) (cos(gamma) X + sin(gamma) Y) for alpha.
    # The derivative is then 2 Re(-i/2 sum P * m) = Im(sum P * m).
    z = m[..., 0, 0] - m[..., 1, 1]
    x = m[..., 0, 1] + m[..., 1, 0]
    y = 1j * (m[..., 1, 0] - m[..., 0, 1])
    beta, gamma = theta[..., 1], theta[..., 2]
    cos_g, sin_g = np.cos(gamma), np.sin(gamma)
    grad = np.empty_like(theta)
    grad[..., 0] = (np.cos(beta) * z + np.sin(beta) * (cos_g * x + sin_g * y)).imag
    grad[..., 1] = (cos_g * y - sin_g * x).imag
    grad[..., 2] = z.imag
    return grad


def expectation(state, hamiltonian: PauliSum) -> float:
    """Re <state|H|state>."""
    state = np.asarray(state, dtype=complex)
    if state.shape != (hamiltonian.dim,):
        raise DimensionMismatch(
            f"state length {state.shape} does not match {hamiltonian.qubit_count} qubit(s)"
        )
    value = np.vdot(state, hamiltonian.apply(state))
    if hamiltonian.is_hermitian and abs(value.imag) > 1e-10:
        raise ValueError(f"Hermitian expectation has imaginary part {value.imag:.3g}")
    return float(value.real)
