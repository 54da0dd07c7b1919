import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorenz_vqls import (
    AnsatzConfig,
    LorenzParams,
    State3,
    VqlsConfig,
    build_nonlinear_system,
    build_problem,
    build_rhs,
    cost,
    cost_hamiltonian,
    decompose,
    error_bound,
    expectation,
    extract_solution,
    gradient,
    optimize,
    run_ansatz,
    solve_dense,
    trace_distance,
)
from lorenz_vqls.errors import (
    DegenerateImage,
    NotNormalized,
    NotPowerOfTwo,
    ZeroRightHandSide,
)
from lorenz_vqls.vqls import ACCEPT_COST

CLASSIC = LorenzParams()
E1 = np.eye(8)[0]


def lorenz_problem(h=5e-3, state=State3(1.0, -2.0, 4.0)):
    a = build_nonlinear_system(CLASSIC, h)
    return build_problem(a, build_rhs(state)), a


def finite_difference(problem, ansatz, theta, step=1e-6):
    theta = np.array(theta, dtype=float)
    out = np.zeros_like(theta)
    for idx in np.ndindex(theta.shape):
        bumped = theta.copy()
        bumped[idx] += step
        plus = cost(problem, ansatz, bumped)
        bumped[idx] -= 2 * step
        minus = cost(problem, ansatz, bumped)
        out[idx] = (plus - minus) / (2 * step)
    return out


def parameter_shift(problem, ansatz, theta):
    """Reference gradient: dC/dt = [C(t + pi/2) - C(t - pi/2)] / 2."""
    theta = np.array(theta, dtype=float)
    grad = np.zeros_like(theta)
    for idx in np.ndindex(theta.shape):
        original = theta[idx]
        theta[idx] = original + np.pi / 2
        plus = cost(problem, ansatz, theta)
        theta[idx] = original - np.pi / 2
        minus = cost(problem, ansatz, theta)
        theta[idx] = original
        grad[idx] = 0.5 * (plus - minus)
    return grad


def test_build_problem_identity_projector():
    problem = build_problem(np.eye(8), E1)
    dense = cost_hamiltonian(problem.a, problem.b)
    assert np.max(np.abs(dense - np.diag([0.0] + [1.0] * 7))) <= 1e-12


def test_build_problem_solution_spans_null_space():
    rng = np.random.default_rng(10)
    for _ in range(5):
        a = rng.normal(size=(8, 8)) + 4 * np.eye(8)
        b = rng.normal(size=8)
        problem = build_problem(a, b)
        w = solve_dense(a, b)
        assert np.max(np.abs(cost_hamiltonian(problem.a, problem.b) @ w)) <= 1e-10


def test_build_problem_lorenz_hamiltonian_is_psd():
    problem, _ = lorenz_problem(h=0.01)
    dense = cost_hamiltonian(problem.a, problem.b)
    assert np.max(np.abs(dense - dense.conj().T)) <= 1e-12
    assert np.linalg.eigvalsh(dense).min() >= -1e-10


def test_build_problem_rejects_zero_rhs():
    with pytest.raises(ZeroRightHandSide):
        build_problem(np.eye(8), np.zeros(8))


def test_build_problem_rejects_bad_dimension():
    with pytest.raises(NotPowerOfTwo):
        build_problem(np.eye(6), np.ones(6))


def test_cost_zero_at_exact_solution_state():
    problem = build_problem(np.eye(8), E1)
    ansatz = AnsatzConfig(qubit_count=3, layer_count=5)
    assert cost(problem, ansatz, np.zeros(ansatz.shape)) == pytest.approx(0.0, abs=1e-14)


def test_cost_one_on_orthogonal_state():
    # one layer with beta = pi on qubit 0 sends |000> through the ring to
    # |011>, orthogonal to b = e1
    problem = build_problem(np.eye(8), E1)
    ansatz = AnsatzConfig(qubit_count=3, layer_count=1)
    theta = np.zeros(ansatz.shape)
    theta[0, 0, 1] = np.pi
    assert cost(problem, ansatz, theta) == pytest.approx(1.0, abs=1e-12)


def test_cost_matches_dense_oracle():
    problem, _ = lorenz_problem()
    dense = cost_hamiltonian(problem.a, problem.b)
    pauli_sum = decompose(dense)
    ansatz = AnsatzConfig(qubit_count=3, layer_count=5)
    rng = np.random.default_rng(11)
    for _ in range(5):
        theta = rng.uniform(0, 2 * np.pi, ansatz.shape)
        psi = run_ansatz(ansatz, theta)
        reference = np.vdot(psi, dense @ psi).real
        assert cost(problem, ansatz, theta) == pytest.approx(reference, abs=1e-10)
        assert abs(cost(problem, ansatz, theta) - expectation(psi, pauli_sum)) <= 1e-12


def test_cost_is_nonnegative():
    problem, _ = lorenz_problem()
    ansatz = AnsatzConfig(qubit_count=3, layer_count=3)
    rng = np.random.default_rng(12)
    for _ in range(10):
        assert cost(problem, ansatz, rng.uniform(0, 2 * np.pi, ansatz.shape)) >= -1e-10


def test_gradient_zero_for_z_rotations_on_reference_state():
    problem = build_problem(np.eye(8), E1)
    ansatz = AnsatzConfig(qubit_count=3, layer_count=2)
    grad = gradient(problem, ansatz, np.zeros(ansatz.shape))
    # alpha and gamma rotations only change phases of |000>
    assert np.max(np.abs(grad[:, :, 0])) <= 1e-14
    assert np.max(np.abs(grad[:, :, 2])) <= 1e-14


def test_gradient_matches_finite_differences():
    problem, _ = lorenz_problem()
    ansatz = AnsatzConfig(qubit_count=3, layer_count=2)
    rng = np.random.default_rng(13)
    for _ in range(3):
        theta = rng.uniform(0, 2 * np.pi, ansatz.shape)
        shift = gradient(problem, ansatz, theta)
        fd = finite_difference(problem, ansatz, theta)
        assert np.max(np.abs(shift - fd)) <= 1e-5


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    qubits=st.integers(1, 3),  # one qubit has no CNOT ring
    layers=st.integers(1, 5),
)
def test_adjoint_gradient_matches_references(seed, qubits, layers):
    dim = 1 << qubits
    rng = np.random.default_rng(seed)
    noise = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    a = np.eye(dim) + 0.2 * noise / np.sqrt(2 * dim)
    b = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    problem = build_problem(a, b)
    ansatz = AnsatzConfig(qubit_count=qubits, layer_count=layers)
    theta = rng.uniform(0, 2 * np.pi, ansatz.shape)
    adjoint = gradient(problem, ansatz, theta)
    assert np.max(np.abs(adjoint - parameter_shift(problem, ansatz, theta))) <= 1e-12
    assert np.max(np.abs(adjoint - finite_difference(problem, ansatz, theta))) <= 1e-6


def test_gradient_vanishes_at_known_optimum():
    # theta = 0 prepares |000> = b exactly for the identity problem, so it
    # is a converged optimum; descent started there should not move away
    problem = build_problem(np.eye(8), E1)
    ansatz = AnsatzConfig(qubit_count=3, layer_count=5)
    theta = np.zeros(ansatz.shape)
    assert np.max(np.abs(gradient(problem, ansatz, theta))) <= 1e-6
    outcome = optimize(problem, VqlsConfig(seed=0, restarts=1), theta_init=theta)
    assert outcome.final_cost <= 1e-12
    assert outcome.iterations_used <= 2
    assert outcome.descents == 1
    assert outcome.iterations_total == outcome.iterations_used


def test_optimize_counts_every_descent():
    # 5 iterations never reach ACCEPT_COST from a cold start, so every
    # restart runs to max_iterations and the winner holds a third of the work
    problem, _ = lorenz_problem()
    outcome = optimize(problem, VqlsConfig(seed=0, restarts=3, max_iterations=5))
    assert outcome.final_cost > ACCEPT_COST
    assert outcome.descents == 3
    assert outcome.iterations_used == 5
    assert outcome.iterations_total == 15


def test_optimize_identity_problem_quality():
    # the |delta-cost| stop rule caps the reachable cost near 5e-8 for any
    # stable stepsize, so the thresholds sit just above that floor
    outcome = optimize(build_problem(np.eye(8), E1), VqlsConfig(seed=0))
    assert outcome.final_cost <= 2e-7
    assert outcome.residual <= 6e-4
    assert outcome.final_cost <= outcome.initial_cost
    assert outcome.sign in (1, -1)


def test_optimize_is_deterministic():
    problem, _ = lorenz_problem()
    cfg = VqlsConfig(seed=7, restarts=2, max_iterations=40)
    a = optimize(problem, cfg)
    b = optimize(problem, cfg)
    assert np.array_equal(a.theta_opt, b.theta_opt)
    assert a.final_cost == b.final_cost
    assert a.iterations_used == b.iterations_used
    assert np.array_equal(a.solution, b.solution)


def test_optimize_seed_changes_trace():
    problem, _ = lorenz_problem()
    a = optimize(problem, VqlsConfig(seed=0, restarts=1, max_iterations=10))
    b = optimize(problem, VqlsConfig(seed=1, restarts=1, max_iterations=10))
    assert not np.array_equal(a.theta_opt, b.theta_opt)


def test_optimize_propagates_zero_rhs():
    with pytest.raises(ZeroRightHandSide):
        build_problem(np.eye(8), np.zeros(8))


def test_optimize_warm_start_uses_initial_theta():
    problem, _ = lorenz_problem()
    cold = optimize(problem, VqlsConfig(seed=0, restarts=1, max_iterations=60))
    warm = optimize(
        problem,
        VqlsConfig(seed=0, restarts=1, max_iterations=60),
        theta_init=cold.theta_opt,
    )
    assert warm.final_cost <= cold.final_cost + 1e-12
    assert warm.iterations_used <= cold.iterations_used


def test_extract_solution_identity():
    problem = build_problem(np.eye(8), E1)
    ansatz = AnsatzConfig(qubit_count=3, layer_count=5)
    solution, scale, sign = extract_solution(problem, ansatz, np.zeros(ansatz.shape))
    assert np.allclose(solution, E1, atol=1e-12)
    assert scale == pytest.approx(1.0, abs=1e-12)
    assert sign == 1


def test_extract_solution_scaling():
    problem = build_problem(2.0 * np.eye(8), E1)
    ansatz = AnsatzConfig(qubit_count=3, layer_count=5)
    solution, scale, sign = extract_solution(problem, ansatz, np.zeros(ansatz.shape))
    assert scale == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(solution, 0.5 * E1, atol=1e-12)
    assert sign == 1


def test_extract_solution_sign_recovery():
    # b pointing along -e1: the unsigned ansatz state |000> must be flipped
    problem = build_problem(np.eye(8), -2.0 * E1)
    ansatz = AnsatzConfig(qubit_count=3, layer_count=5)
    solution, scale, sign = extract_solution(problem, ansatz, np.zeros(ansatz.shape))
    assert sign == -1
    assert np.allclose(solution, -2.0 * E1, atol=1e-12)
    assert scale == pytest.approx(2.0, abs=1e-12)


def test_extract_solution_lorenz_matches_direct():
    problem, a = lorenz_problem()
    outcome = optimize(problem, VqlsConfig(seed=0))
    w = solve_dense(a, problem.b)
    assert np.max(np.abs(np.real(outcome.solution[3:6]) - w[3:6])) <= 1e-2
    assert outcome.residual <= 1e-3


def test_near_zero_cost_means_state_parallel_to_solution():
    problem = build_problem(np.eye(8), E1)
    ansatz = AnsatzConfig(qubit_count=3, layer_count=5)
    outcome = optimize(problem, VqlsConfig(seed=0, restarts=1), theta_init=np.zeros(ansatz.shape))
    assert outcome.final_cost < 1e-8
    psi = run_ansatz(ansatz, outcome.theta_opt)
    assert trace_distance(psi, problem.b_unit.astype(complex)) < 1e-4


def test_scale_consistency_with_residual():
    problem, _ = lorenz_problem()
    outcome = optimize(problem, VqlsConfig(seed=0))
    ratio = np.linalg.norm(problem.a @ outcome.solution) / np.linalg.norm(problem.b)
    assert 1 - outcome.residual <= ratio <= 1 + outcome.residual


def test_trace_distance_values():
    u = np.zeros(4, dtype=complex)
    u[0] = 1.0
    v = np.zeros(4, dtype=complex)
    v[1] = 1.0
    assert trace_distance(u, u) == 0.0
    assert trace_distance(u, v) == pytest.approx(1.0)
    w = 0.6 * u + 0.8 * v
    assert trace_distance(u, w) == pytest.approx(0.8, abs=1e-12)
    with pytest.raises(NotNormalized):
        trace_distance(u, 0.5 * v)


@pytest.mark.parametrize("t", [1e-6, 2.5e-4, 0.5])
def test_trace_distance_keeps_digits_on_close_states(t):
    # sqrt(1 - |<u|v>|^2) is off by 4.4e-5 relative at t = 1e-6, 6e-10 at 2.5e-4
    u = np.array([1.0, 0.0], dtype=complex)
    v = np.array([np.cos(t), np.sin(t)], dtype=complex)
    assert abs(trace_distance(u, v) - np.sin(t)) <= 1e-15 * np.sin(t)


def test_error_bound_values():
    assert error_bound(0.0, 2.0) == 0.0
    assert error_bound(1e-6, 3.03) == pytest.approx(3.03e-3)
    with pytest.raises(ValueError):
        error_bound(-1.0, 2.0)
    with pytest.raises(ValueError):
        error_bound(1.0, 0.5)


def test_error_bound_holds_on_solved_instance():
    from lorenz_vqls import condition_number

    problem, a = lorenz_problem()
    outcome = optimize(problem, VqlsConfig(seed=0))
    exact = solve_dense(a, problem.b)
    ansatz = AnsatzConfig(qubit_count=3, layer_count=5)
    psi = run_ansatz(ansatz, outcome.theta_opt)
    eps = trace_distance(exact / np.linalg.norm(exact), psi)
    assert eps <= error_bound(outcome.final_cost, condition_number(a))


def test_degenerate_image_detection():
    problem = build_problem(np.eye(8), E1)
    crippled = problem.__class__(a=np.zeros((8, 8)), b=problem.b, b_unit=problem.b_unit)
    ansatz = AnsatzConfig(qubit_count=3, layer_count=1)
    with pytest.raises(DegenerateImage):
        extract_solution(crippled, ansatz, np.zeros(ansatz.shape))


def test_config_validation():
    with pytest.raises(ValueError):
        VqlsConfig(max_iterations=0)
    with pytest.raises(ValueError):
        VqlsConfig(conv_tol=0.0)
    with pytest.raises(ValueError):
        VqlsConfig(stepsize=-0.1)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="conv_tol"):
            VqlsConfig(conv_tol=bad)
        with pytest.raises(ValueError, match="stepsize"):
            VqlsConfig(stepsize=bad)
    with pytest.raises(ValueError):
        VqlsConfig(restarts=0)
    with pytest.raises(ValueError, match="seed"):
        VqlsConfig(seed=-1)


def test_cost_hamiltonian_rejects_zero_b():
    with pytest.raises(ZeroRightHandSide):
        cost_hamiltonian(np.eye(4), np.zeros(4))
