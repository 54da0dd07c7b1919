"""Weighted tensor products of {I, X, Y, Z}.

Supports decomposing a dense power-of-two matrix into such a sum and
reconstructing the dense matrix.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product

import numpy as np

from .errors import DimensionMismatch
from .linalg import num_qubits

COEFF_CUTOFF = 1e-12
ALPHABET = "IXYZ"

_SINGLE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@lru_cache(maxsize=None)
def pauli_matrix(label: str) -> np.ndarray:
    """Dense tensor product of the single-qubit matrices named by `label`."""
    out = _SINGLE[label[0]]
    for ch in label[1:]:
        out = np.kron(out, _SINGLE[ch])
    out.setflags(write=False)
    return out


def _check_label(label: str, n: int) -> None:
    if len(label) != n or any(ch not in ALPHABET for ch in label):
        raise ValueError(f"bad Pauli label {label!r} for {n} qubit(s)")


@dataclass(frozen=True)
class PauliTerm:
    label: str
    coeff: complex


@dataclass(frozen=True)
class PauliSum:
    """Sorted, deduplicated sum of Pauli terms over `qubit_count` qubits.

    Terms with |coeff| below COEFF_CUTOFF are dropped on construction, and
    terms are kept in lexicographic label order so serialization and
    summation order are reproducible.
    """

    terms: tuple[PauliTerm, ...]
    qubit_count: int

    def __post_init__(self):
        seen = set()
        kept = []
        for t in self.terms:
            _check_label(t.label, self.qubit_count)
            if t.label in seen:
                raise ValueError(f"duplicate label {t.label!r}")
            seen.add(t.label)
            if abs(t.coeff) >= COEFF_CUTOFF:
                kept.append(PauliTerm(t.label, complex(t.coeff)))
        kept.sort(key=lambda t: t.label)
        object.__setattr__(self, "terms", tuple(kept))

    @property
    def dim(self) -> int:
        return 1 << self.qubit_count

    @cached_property
    def is_hermitian(self) -> bool:
        # real coefficients on the (Hermitian) Pauli basis <=> Hermitian sum
        return all(abs(t.coeff.imag) <= COEFF_CUTOFF for t in self.terms)

    def apply(self, v) -> np.ndarray:
        """The dense sum applied to `v`."""
        v = np.asarray(v, dtype=complex)
        if v.shape != (self.dim,):
            raise DimensionMismatch(f"expected vector of length {self.dim}")
        return reconstruct(self) @ v

    def dump(self) -> str:
        """Text form: one `LABEL re im` line per term, lexicographic order."""
        return "".join(
            f"{t.label} {t.coeff.real:.17g} {t.coeff.imag:.17g}\n" for t in self.terms
        )


def decompose(m) -> PauliSum:
    """Expand a 2^n x 2^n matrix over all 4^n Pauli strings.

    Coefficients are trace inner products Tr(P m) / 2^n; strings with
    |coeff| < COEFF_CUTOFF are dropped.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    n = num_qubits(m.shape[0])
    if not 1 <= n <= 6:
        raise ValueError(f"decomposition needs 1 to 6 qubits, got {n}")
    dim = m.shape[0]
    terms = []
    for chars in product(ALPHABET, repeat=n):
        label = "".join(chars)
        coeff = np.einsum("ij,ji->", pauli_matrix(label), m) / dim
        if abs(coeff) >= COEFF_CUTOFF:
            terms.append(PauliTerm(label, complex(coeff)))
    return PauliSum(tuple(terms), n)


def reconstruct(s: PauliSum) -> np.ndarray:
    """Dense matrix of a Pauli sum (inverse of `decompose`)."""
    out = np.zeros((s.dim, s.dim), dtype=complex)
    for t in s.terms:
        out += t.coeff * pauli_matrix(t.label)
    return out
