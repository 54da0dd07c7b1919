import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorenz_vqls import (
    LorenzParams,
    State3,
    VqlsConfig,
    VqlsOutcome,
    build_block_system,
    build_linear_step,
    build_nonlinear_system,
    build_rhs,
    fixed_points,
    solve_dense,
    step_explicit,
    step_solve,
    trajectory,
)
from lorenz_vqls.errors import DivergedAt

CLASSIC = LorenzParams()

finite_coord = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def test_linear_step_zero_h_is_identity():
    assert np.array_equal(build_linear_step(CLASSIC, 0.0), np.eye(3))


def test_linear_step_classic_entries():
    a = build_linear_step(CLASSIC, 0.01)
    expected = np.array([[0.9, 0.1, 0.0], [0.28, 0.99, 0.0], [0.0, 0.0, 1 - 0.01 * 8 / 3]])
    assert np.allclose(a, expected, atol=1e-15)


def test_linear_step_sigma_decouples_x():
    a = build_linear_step(LorenzParams(sigma=1e-300, rho=5.0), 0.02)
    assert a[0, 0] == pytest.approx(1.0) and a[0, 1] == pytest.approx(0.0)


def test_block_system_single_step():
    start = State3(0.3, -0.7, 2.0)
    big, rhs = build_block_system(CLASSIC, 0.01, 1, start)
    assert np.array_equal(big, np.eye(3))
    assert np.array_equal(rhs, start.as_array())
    assert np.allclose(solve_dense(big, rhs), start.as_array())


def test_block_system_matches_iterated_map():
    start = State3(1.0, 2.0, 3.0)
    a_step = build_linear_step(CLASSIC, 0.02)
    big, rhs = build_block_system(CLASSIC, 0.02, 3, start)
    w = solve_dense(big, rhs)
    s0 = start.as_array()
    assert np.allclose(w[0:3], s0, atol=1e-12)
    assert np.allclose(w[3:6], a_step @ s0, atol=1e-12)
    assert np.allclose(w[6:9], a_step @ (a_step @ s0), atol=1e-12)
    # row block 2 reads: (step matrix) w_1 - w_2 = 0
    assert np.allclose(a_step @ w[0:3] - w[3:6], 0.0, atol=1e-12)


def test_block_system_consistency_up_to_sixteen_steps():
    rng = np.random.default_rng(17)
    for steps in range(1, 17):
        start = State3.from_array(rng.normal(size=3))
        big, rhs = build_block_system(CLASSIC, 0.01, steps, start)
        w = solve_dense(big, rhs)
        a_step = build_linear_step(CLASSIC, 0.01)
        expected = start.as_array()
        for k in range(steps):
            assert np.max(np.abs(w[3 * k : 3 * k + 3] - expected)) <= 1e-10
            expected = a_step @ expected


def test_nonlinear_system_zero_h_returns_same_state():
    a = build_nonlinear_system(CLASSIC, 0.0)
    s = State3(0.4, -1.1, 7.0)
    w = solve_dense(a, build_rhs(s))
    assert np.allclose(w[3:6], s.as_array(), atol=1e-14)


def test_nonlinear_system_classic_entries():
    a = build_nonlinear_system(CLASSIC, 0.01)
    assert a[3, 0] == pytest.approx(-0.9, abs=1e-15)
    assert a[4, 6] == pytest.approx(0.01, abs=1e-18)
    assert a[5, 7] == pytest.approx(-0.01, abs=1e-18)


def test_nonlinear_system_unit_determinant():
    rng = np.random.default_rng(23)
    for _ in range(20):
        params = LorenzParams(
            sigma=float(rng.uniform(0.1, 20)),
            rho=float(rng.uniform(-5, 40)),
            beta=float(rng.uniform(0.1, 5)),
        )
        h = float(rng.uniform(0.0, 0.1))
        assert np.linalg.det(build_nonlinear_system(params, h)) == pytest.approx(
            1.0, rel=1e-10
        )


def test_build_rhs_examples():
    assert np.array_equal(
        build_rhs(State3(1.0, -2.0, 4.0)), [1.0, -2.0, 4.0, 0, 0, 0, 4.0, -2.0]
    )
    assert np.array_equal(build_rhs(State3(0.0, 0.0, 0.0)), np.zeros(8))
    assert np.array_equal(
        build_rhs(State3(2.0, 3.0, 5.0)), [2.0, 3.0, 5.0, 0, 0, 0, 10.0, 6.0]
    )


def test_step_explicit_fixed_point_origin():
    s = step_explicit(State3(0.0, 0.0, 0.0), CLASSIC, 0.01)
    assert s == State3(0.0, 0.0, 0.0)


def test_step_explicit_hand_arithmetic():
    s = step_explicit(State3(1.0, -2.0, 4.0), CLASSIC, 5e-3)
    assert s.x == pytest.approx(0.85, abs=1e-15)
    assert s.y == pytest.approx(-1.87, abs=1e-15)
    assert s.z == pytest.approx(1181.0 / 300.0, abs=1e-15)


def test_step_explicit_wing_fixed_point_is_exact():
    for params in (CLASSIC, LorenzParams(rho=13.92655742)):
        wing = fixed_points(params)[1]
        for h in (1e-3, 1e-2, 0.1):
            assert step_explicit(wing, params, h) == wing


def test_step_explicit_rejects_bad_h():
    s = State3(1.0, 1.0, 1.0)
    for h in (0.0, -1e-3, 0.6, float("nan")):
        with pytest.raises(ValueError):
            step_explicit(s, CLASSIC, h)


@settings(max_examples=60, deadline=None)
@given(finite_coord, finite_coord, finite_coord, st.floats(min_value=1e-4, max_value=0.1))
def test_step_explicit_mirror_symmetry(x, y, z, h):
    # the dynamics commute with (x, y, z) -> (-x, -y, z), bitwise
    s = step_explicit(State3(x, y, z), CLASSIC, h)
    m = step_explicit(State3(-x, -y, z), CLASSIC, h)
    assert (m.x, m.y, m.z) == (-s.x, -s.y, s.z)


def test_step_solve_direct_matches_explicit():
    rng = np.random.default_rng(31)
    for h in (1e-3, 5e-3, 1e-2):
        for _ in range(50):
            s = State3.from_array(rng.uniform(-25, 25, size=3))
            direct, outcome = step_solve(s, CLASSIC, h, solver="direct")
            explicit = step_explicit(s, CLASSIC, h)
            assert outcome is None
            diff = np.abs(direct.as_array() - explicit.as_array()).max()
            assert diff <= 1e-10


def test_step_solve_origin_shortcut():
    s, outcome = step_solve(State3(0.0, 0.0, 0.0), CLASSIC, 0.01, solver="vqls")
    assert s == State3(0.0, 0.0, 0.0) and outcome is None


def test_step_solve_unknown_solver():
    with pytest.raises(ValueError):
        step_solve(State3(1, 1, 1), CLASSIC, 0.01, solver="magic")


def test_step_solve_dispatch():
    rng = np.random.default_rng(37)
    signed_origin = State3(-0.0, 0.0, -0.0)
    for s in [signed_origin] + [State3.from_array(rng.uniform(-25, 25, 3)) for _ in range(20)]:
        stepped, outcome = step_solve(s, CLASSIC, 5e-3, solver="explicit")
        expected = step_explicit(s, CLASSIC, 5e-3)
        assert outcome is None
        assert stepped.as_array().tobytes() == expected.as_array().tobytes()
    origin = State3(0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="magic"):
        step_solve(origin, CLASSIC, 0.01, solver="magic")
    stepped, outcome = step_solve(signed_origin, CLASSIC, 0.01, solver="vqls")
    assert stepped is signed_origin and outcome is None


def test_step_solve_vqls_tiny_right_hand_side():
    # the normalized problem does not depend on the scale of b
    state = State3(1e-15, -2e-15, 4e-15)
    stepped, outcome = step_solve(state, CLASSIC, 5e-3, "vqls", VqlsConfig(seed=0))
    assert outcome.residual <= 1e-3
    direct, _ = step_solve(state, CLASSIC, 5e-3, "direct")
    error = np.linalg.norm(stepped.as_array() - direct.as_array())
    assert error <= 1e-3 * np.linalg.norm(direct.as_array())


def test_trajectory_keeps_vqls_outcomes():
    fast = VqlsConfig(max_iterations=3, restarts=1, layer_count=1, seed=0)
    traj = trajectory(State3(1.0, -2.0, 4.0), CLASSIC, 5e-3, 2, "vqls", fast)
    assert len(traj.diagnostics) == 2
    assert all(isinstance(out, VqlsOutcome) for out in traj.diagnostics)
    origin = trajectory(State3(0.0, 0.0, 0.0), CLASSIC, 5e-3, 2, "vqls", fast)
    assert origin.diagnostics == (None, None)
    assert trajectory(State3(1.0, -2.0, 4.0), CLASSIC, 5e-3, 2).diagnostics is None


def test_trajectory_attractor_stays_bounded():
    traj = trajectory(State3(1.0, -2.0, 4.0), CLASSIC, 5e-3, 2000, solver="direct")
    assert len(traj) == 2001
    xs, ys, zs = traj.states[:, 0], traj.states[:, 1], traj.states[:, 2]
    assert np.all(np.abs(xs) <= 30) and np.all(np.abs(ys) <= 40)
    assert np.all(zs >= 0) and np.all(zs <= 60)


def test_trajectory_constant_at_origin():
    traj = trajectory(State3(0.0, 0.0, 0.0), CLASSIC, 0.01, 10, solver="explicit")
    assert np.array_equal(traj.states, np.zeros((11, 3)))


def test_trajectory_bifurcation_sensitivity():
    params = LorenzParams(rho=13.92655742)
    kwargs = dict(params=params, h=1e-3, steps=10000, solver="direct")
    plus = trajectory(State3(1e-16, 1e-16, 1e-16), **kwargs)
    minus = trajectory(State3(1e-16, -1e-16, 1e-16), **kwargs)
    separation = np.linalg.norm(plus.states[-1] - minus.states[-1])
    assert separation > 1.0


def test_trajectory_divergence_reports_step_and_partial():
    with pytest.raises(DivergedAt) as info:
        trajectory(State3(30.0, -40.0, 10.0), CLASSIC, 0.4, 100, solver="explicit")
    err = info.value
    assert 1 <= err.step <= 100
    assert err.trajectory is not None
    assert len(err.trajectory) == err.step  # states before the failed step


def test_trajectory_determinism():
    a = trajectory(State3(1.0, -2.0, 4.0), CLASSIC, 5e-3, 200, solver="direct")
    b = trajectory(State3(1.0, -2.0, 4.0), CLASSIC, 5e-3, 200, solver="direct")
    assert np.array_equal(a.states, b.states)


def test_fixed_points_low_rho():
    assert fixed_points(LorenzParams(rho=0.5)) == [State3(0.0, 0.0, 0.0)]


def test_fixed_points_classic():
    pts = fixed_points(CLASSIC)
    wing = np.sqrt(72.0)
    assert pts[0] == State3(0.0, 0.0, 0.0)
    assert pts[1] == State3(wing, wing, 27.0)
    assert pts[2] == State3(-wing, -wing, 27.0)


def test_fixed_points_invariant_under_explicit_step():
    for params in (CLASSIC, LorenzParams(rho=13.92655742), LorenzParams(rho=0.7)):
        for point in fixed_points(params):
            for h in (1e-3, 0.05, 0.1):
                assert step_explicit(point, params, h) == point


def test_condition_number_bound_over_step_grid():
    from lorenz_vqls import condition_number, default_h_grid

    kappas = [
        condition_number(build_nonlinear_system(CLASSIC, h)) for h in default_h_grid()
    ]
    assert max(kappas) <= 70.0


def test_params_validation():
    with pytest.raises(ValueError):
        LorenzParams(sigma=-1.0)
    with pytest.raises(ValueError):
        LorenzParams(beta=0.0)
    LorenzParams(rho=-3.0)  # rho may be any real


def test_state_validation():
    with pytest.raises(ValueError):
        State3(float("inf"), 0.0, 0.0)
