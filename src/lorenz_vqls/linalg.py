"""Dense linear algebra for small real/complex systems.

Everything here is dense and sized for matrices of dimension ~16 and below;
robustness is preferred over asymptotic speed.  scipy is imported inside
`factor_dense`, its only user, so runs that factor nothing never load it.
"""
from __future__ import annotations

import warnings
from collections.abc import Callable

import numpy as np

from .errors import DimensionMismatch, NotPowerOfTwo, RankDeficient, SingularMatrix

# Pivot / rank cutoffs, relative to the matrix scale.  Appropriate for the
# well-conditioned double-precision systems this package builds.
PIVOT_RTOL = 1e-14
RANK_RTOL = 1e-14

# Beyond these magnitudes the squares summed by a plain 2-norm may
# underflow or overflow.
_SQRT_TINY = float(np.sqrt(np.finfo(float).tiny))
_SQRT_HUGE = float(np.sqrt(np.finfo(float).max))


def _square(a) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    return a


def _vector(b, length=None) -> np.ndarray:
    b = np.asarray(b)
    if b.ndim != 1:
        raise DimensionMismatch(f"expected a vector, got shape {b.shape}")
    if length is not None and b.shape[0] != length:
        raise DimensionMismatch(f"expected length {length}, got {b.shape[0]}")
    if not np.all(np.isfinite(b)):
        raise ValueError("vector contains non-finite entries")
    return b


def _norm(v) -> float:
    """2-norm of `v` (Frobenius for a matrix), rescaled by max|v| when the
    plain sum of squares could underflow or overflow.

    The choice is made from max|v| before any square is taken, so no
    overflow warning fires, and at every other scale the value is the plain
    `np.linalg.norm`, bit for bit.
    """
    v = np.asarray(v)
    magnitudes = np.abs(v)
    peak = float(np.max(magnitudes))
    if 0.0 < peak < _SQRT_TINY or _SQRT_HUGE / v.size**0.5 < peak < np.inf:
        # real magnitudes: a complex division by a subnormal peak overflows
        return peak * float(np.linalg.norm(magnitudes / peak))
    return float(np.linalg.norm(v))


def factor_dense(a) -> Callable[[np.ndarray], np.ndarray]:
    """LU-factor ``a`` with partial pivoting; return ``solve(b)`` for ``a @ w = b``.

    The matrix checks and the pivot check run here, once.  ``solve`` takes a
    finite vector of matching length and does not check it; a vector of the
    factors' dtype goes straight to LAPACK ``getrs``, any other through
    ``lu_solve``.
    """
    from scipy.linalg import LinAlgWarning, get_lapack_funcs, lu_factor, lu_solve

    a = _square(a)
    with warnings.catch_warnings():
        # our own pivot check below supersedes scipy's exact-zero warning
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = lu_factor(a, check_finite=False)
    tol = PIVOT_RTOL * _norm(a)
    if np.abs(np.diag(lu)).min() <= tol:
        raise SingularMatrix(f"pivot at or below {tol:.3e}")
    getrs, = get_lapack_funcs(("getrs",), (lu,))

    def solve(b: np.ndarray) -> np.ndarray:
        if b.dtype != lu.dtype:
            return lu_solve((lu, piv), b, check_finite=False)
        return getrs(lu, piv, b)[0]

    return solve


def solve_dense(a, b) -> np.ndarray:
    """Solve ``a @ w = b`` by LU factorization with partial pivoting."""
    a = _square(a)
    b = _vector(b, a.shape[0])
    return factor_dense(a)(b)


def condition_number(m) -> float:
    """2-norm condition number: ratio of extreme singular values."""
    m = _square(m)
    s = np.linalg.svd(m, compute_uv=False)
    if s[0] == 0.0 or s[-1] < RANK_RTOL * s[0]:
        raise RankDeficient("smallest singular value is negligible")
    return float(s[0] / s[-1])


def hermitian_dilation(a) -> np.ndarray:
    """Embed ``a`` into the Hermitian block matrix [[0, a], [a^H, 0]]."""
    a = _square(a)
    n = a.shape[0]
    zero = np.zeros((n, n), dtype=a.dtype)
    return np.block([[zero, a], [a.conj().T, zero]])


def num_qubits(dim: int) -> int:
    """log2 of a power-of-two dimension; raises NotPowerOfTwo otherwise."""
    if dim < 1 or dim & (dim - 1):
        raise NotPowerOfTwo(f"dimension {dim} is not a power of two")
    return dim.bit_length() - 1


def pad_to_power_of_two(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Grow ``(a, b)`` to the next power-of-two dimension.

    Appended rows/columns extend the identity, and the right-hand side is
    extended with zeros, so the padded solution matches the original one in
    its leading block.
    """
    a = _square(a)
    b = _vector(b, a.shape[0])
    n = a.shape[0]
    m = 1
    while m < n:
        m *= 2
    if m == n:
        return a.copy(), b.copy()
    out_a = np.eye(m, dtype=np.result_type(a.dtype, float))
    out_a[:n, :n] = a
    out_b = np.zeros(m, dtype=np.result_type(b.dtype, float))
    out_b[:n] = b
    return out_a, out_b
