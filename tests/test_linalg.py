import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lu_factor, lu_solve

from lorenz_vqls import (
    LorenzParams,
    State3,
    build_nonlinear_system,
    build_rhs,
    condition_number,
    hermitian_dilation,
    pad_to_power_of_two,
    solve_dense,
)
from lorenz_vqls.errors import DimensionMismatch, RankDeficient, SingularMatrix
from lorenz_vqls.linalg import _norm, factor_dense, num_qubits
from lorenz_vqls.errors import NotPowerOfTwo

CLASSIC = LorenzParams()


def test_solve_identity():
    b = np.array([1.0, -2.0, 4.0, 0.0, 0.0, 0.0, 4.0, -2.0])
    w = solve_dense(np.eye(8), b)
    assert np.allclose(w, b, atol=1e-14)


def test_solve_scaling():
    w = solve_dense(2.0 * np.eye(2), np.array([1.0, 0.0]))
    assert np.allclose(w, [0.5, 0.0], atol=1e-14)


@pytest.mark.parametrize("scale", [1e160, 1e200])
def test_solve_matrix_whose_squares_overflow(scale):
    # the plain Frobenius norm of this kappa = 1 matrix overflows to inf
    w = solve_dense(np.diag([scale, scale]), np.array([1.0, 2.0]))
    assert np.array_equal(w, [1.0 / scale, 2.0 / scale])


def test_norm_is_the_plain_norm_at_safe_scales_and_rescaled_beyond():
    rng = np.random.default_rng(3)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    m = rng.normal(size=(8, 8))
    for x in (v, m, 1e-150 * v, 1e150 * m, np.zeros(3)):
        assert _norm(x) == np.linalg.norm(x)
    for scale in (1e-170, 1e-300, 5e-320, 1e160, 1e300):
        assert _norm(scale * v) == pytest.approx(scale * np.linalg.norm(v), rel=1e-14)
        assert _norm(scale * m) == pytest.approx(scale * np.linalg.norm(m), rel=1e-14)


def test_solve_lorenz_step_matches_hand_arithmetic():
    # one explicit update from (1, -2, 4) at h = 5e-3, done by hand:
    # x' = 1 + 5e-3*10*(-3), y' = -2 + 5e-3*26, z' = 4 + 5e-3*(-38/3)
    a = build_nonlinear_system(CLASSIC, 5e-3)
    b = build_rhs(State3(1.0, -2.0, 4.0))
    w = solve_dense(a, b)
    assert np.allclose(w[3:6], [0.85, -1.87, 1181.0 / 300.0], atol=1e-12)


def test_solve_residual_bound_random_systems():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = rng.integers(2, 16)
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        w = solve_dense(a, b)
        assert np.linalg.norm(a @ w - b) <= 1e-10 * max(1.0, np.linalg.norm(b))


def test_solve_singular_matrix():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrix):
        solve_dense(a, np.array([1.0, 1.0]))
    with pytest.raises(SingularMatrix):
        solve_dense(np.zeros((3, 3)), np.zeros(3))


def test_solve_shape_errors():
    with pytest.raises(DimensionMismatch):
        solve_dense(np.eye(3), np.ones(4))
    with pytest.raises(DimensionMismatch):
        solve_dense(np.ones((2, 3)), np.ones(2))
    with pytest.raises(ValueError):
        solve_dense(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.ones(2))


def test_solve_checks_b_before_factoring():
    # a non-finite b is a ValueError even where the matrix is singular
    with pytest.raises(ValueError, match="vector"):
        solve_dense(np.zeros((2, 2)), np.array([np.nan, 0.0]))


def test_factor_dense_matches_lu_solve_bit_for_bit():
    rng = np.random.default_rng(5)
    a = build_nonlinear_system(CLASSIC, 5e-3)
    solve, factors = factor_dense(a), lu_factor(a)
    rhs = [build_rhs(State3(1.0, -2.0, 4.0))] + [rng.normal(size=8) for _ in range(20)]
    # a complex b against real factors takes lu_solve's own dtype promotion
    rhs.append(rng.normal(size=8) + 1j * rng.normal(size=8))
    for b in rhs:
        assert solve(b).tobytes() == lu_solve(factors, b).tobytes()
    c = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    b = rng.normal(size=5) + 1j * rng.normal(size=5)
    assert factor_dense(c)(b).tobytes() == lu_solve(lu_factor(c), b).tobytes()


def test_factor_dense_checks_the_matrix():
    with pytest.raises(SingularMatrix):
        factor_dense(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(DimensionMismatch):
        factor_dense(np.ones((2, 3)))
    with pytest.raises(ValueError):
        factor_dense(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_condition_identity():
    assert condition_number(np.eye(4)) == pytest.approx(1.0, abs=1e-14)


def test_condition_diagonal():
    assert condition_number(np.diag([2.0, 0.5])) == pytest.approx(4.0, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1e6, allow_nan=False))
def test_condition_scale_invariance(c):
    rng = np.random.default_rng(3)
    m = rng.normal(size=(5, 5))
    base = condition_number(m)
    for scale in (c, -c):
        assert condition_number(scale * m) == pytest.approx(base, rel=1e-12)


def test_condition_rank_deficient():
    with pytest.raises(RankDeficient):
        condition_number(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(RankDeficient):
        condition_number(np.zeros((2, 2)))


def test_condition_matches_svd_oracle_on_lorenz_embedding():
    # Independent oracle: numpy's own 2-norm condition number.
    a = build_nonlinear_system(CLASSIC, 0.01)
    d = hermitian_dilation(a)
    assert condition_number(a) == pytest.approx(np.linalg.cond(a), rel=1e-12)
    assert condition_number(d) == pytest.approx(np.linalg.cond(d), rel=1e-12)
    # The dilation shares its singular spectrum with the base matrix, so the
    # two condition numbers coincide; at h = 0.01 both sit just below 3.
    assert condition_number(d) == pytest.approx(condition_number(a), rel=1e-10)
    assert 2.9 < condition_number(d) < 3.1


def test_dilation_one_by_one():
    out = hermitian_dilation(np.array([[1.0]]))
    assert np.array_equal(out, np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_dilation_identity_blocks():
    out = hermitian_dilation(np.eye(2))
    expected = np.zeros((4, 4))
    expected[0, 2] = expected[1, 3] = expected[2, 0] = expected[3, 1] = 1.0
    assert np.array_equal(out, expected)
    assert np.allclose(np.sort(np.linalg.eigvalsh(out)), [-1, -1, 1, 1], atol=1e-14)


def test_dilation_is_exactly_hermitian():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    out = hermitian_dilation(a)
    assert np.array_equal(out, out.conj().T)


def test_pad_power_of_two_unchanged():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(8, 8))
    b = rng.normal(size=8)
    pa, pb = pad_to_power_of_two(a, b)
    assert np.array_equal(pa, a) and np.array_equal(pb, b)
    # idempotent on the padded output as well
    pa2, pb2 = pad_to_power_of_two(pa, pb)
    assert np.array_equal(pa2, pa) and np.array_equal(pb2, pb)


def test_pad_three_to_four():
    a = np.arange(9.0).reshape(3, 3) + np.eye(3)
    b = np.array([1.0, 2.0, 3.0])
    pa, pb = pad_to_power_of_two(a, b)
    assert pa.shape == (4, 4) and pb.shape == (4,)
    assert np.array_equal(pa[:3, :3], a)
    assert pa[3, 3] == 1.0 and np.all(pa[3, :3] == 0) and np.all(pa[:3, 3] == 0)
    assert pb[3] == 0.0


def test_pad_solution_agreement():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(6, 6)) + 3 * np.eye(6)
    b = rng.normal(size=6)
    pa, pb = pad_to_power_of_two(a, b)
    assert pa.shape == (8, 8)
    w = solve_dense(a, b)
    wp = solve_dense(pa, pb)
    assert np.allclose(wp[:6], w, atol=1e-12)
    assert np.allclose(wp[6:], 0.0, atol=1e-14)


def test_num_qubits():
    assert num_qubits(1) == 0
    assert num_qubits(8) == 3
    for bad in (0, 3, 6, 12):
        with pytest.raises(NotPowerOfTwo):
            num_qubits(bad)
