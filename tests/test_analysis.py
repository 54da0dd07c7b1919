import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorenz_vqls import (
    LorenzParams,
    State3,
    Trajectory,
    VqlsConfig,
    build_nonlinear_system,
    build_rhs,
    compare_trajectories,
    condition_sweep,
    default_h_grid,
    fixed_points,
    relative_error,
    richardson,
    richardson_series,
    solve_dense,
    step_explicit,
    step_solve,
    trajectory,
)
from lorenz_vqls.errors import LengthMismatch

CLASSIC = LorenzParams()
START = State3(1.0, -2.0, 4.0)


def test_relative_error_identical_states():
    assert relative_error(START, START) == 0.0


def test_relative_error_hand_values():
    assert relative_error(State3(1, 0, 0), State3(0, 0, 0)) == pytest.approx(0.5)
    wc, wq = State3(1, 2, -4), State3(1.1, 2.2, -4.4)
    assert relative_error(wc, wq) == pytest.approx(0.0875, abs=1e-12)


def test_relative_error_uses_first_argument_denominator():
    wc, wq = State3(9, 0, 0), State3(0, 0, 0)
    assert relative_error(wc, wq) == pytest.approx(0.9)
    assert relative_error(wq, wc) == pytest.approx(9.0)


def scalar_relative_error(wc, wq):
    """The per-pair formula in plain floats, the reference for the array one."""
    num = abs(wc.x - wq.x) + abs(wc.y - wq.y) + abs(wc.z - wq.z)
    den = 1.0 + abs(wc.x) + abs(wc.y) + abs(wc.z)
    return num / den


component = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.2e-308, 1e11, -1e11]),
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=-1e11, max_value=1e11),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(*[component] * 6), min_size=1, max_size=6))
def test_relative_errors_match_the_scalar_formula_bit_for_bit(pairs):
    start = [(0.0, 0.0, 0.0)]
    classical = Trajectory(1e-3, np.array(start + [pair[:3] for pair in pairs]))
    quantum = Trajectory(1e-3, np.array(start + [pair[3:] for pair in pairs]))
    values = compare_trajectories(classical, quantum).values
    assert values.shape == (len(pairs),)
    for value, pair in zip(values.tolist(), pairs):
        wc, wq = State3(*pair[:3]), State3(*pair[3:])
        expected = scalar_relative_error(wc, wq)
        assert value.hex() == expected.hex()
        assert relative_error(wc, wq).hex() == expected.hex()


def test_compare_trajectory_with_itself():
    traj = trajectory(START, CLASSIC, 1e-3, 50, solver="direct")
    series = compare_trajectories(traj, traj)
    assert series.values.shape == (50,)
    assert np.all(series.values == 0.0)


def test_compare_direct_vs_explicit():
    direct = trajectory(START, CLASSIC, 1e-3, 200, solver="direct")
    explicit = trajectory(START, CLASSIC, 1e-3, 200, solver="explicit")
    series = compare_trajectories(direct, explicit)
    assert np.all(series.values <= 1e-9)


def test_compare_rejects_mismatches():
    t1 = trajectory(START, CLASSIC, 1e-3, 10, solver="direct")
    t2 = trajectory(START, CLASSIC, 1e-3, 20, solver="direct")
    with pytest.raises(LengthMismatch):
        compare_trajectories(t1, t2)
    t3 = trajectory(START, CLASSIC, 2e-3, 10, solver="direct")
    with pytest.raises(ValueError):
        compare_trajectories(t1, t3)
    t4 = trajectory(State3(2.0, -2.0, 4.0), CLASSIC, 1e-3, 10, solver="direct")
    with pytest.raises(ValueError):
        compare_trajectories(t1, t4)


def test_richardson_zero_at_fixed_points():
    # exactness binds for solvers whose step maps fixed points to
    # themselves: the explicit stepper everywhere, the direct solver at the
    # origin (short-circuited); at the wings the direct solver carries an
    # LU rounding residue of a few 1e-15 that the 1/(2h) gradient inflates
    for point in fixed_points(CLASSIC):
        est = richardson(point, CLASSIC, 1e-3, solver="explicit")
        assert est.total == 0.0
    origin = fixed_points(CLASSIC)[0]
    assert richardson(origin, CLASSIC, 1e-3, solver="direct").total == 0.0
    for wing in fixed_points(CLASSIC)[1:]:
        assert richardson(wing, CLASSIC, 1e-3, solver="direct").total <= 1e-11


def test_richardson_matches_brute_force_formula():
    h = 1e-3
    est = richardson(START, CLASSIC, h, solver="direct")
    s0 = START.as_array()
    f1 = step_explicit(START, CLASSIC, h)
    f2 = step_explicit(f1, CLASSIC, h)
    c1 = step_explicit(START, CLASSIC, 2 * h)
    expected = (c1.as_array() - s0) / (2 * h) - (f2.as_array() - s0) / (2 * h)
    # direct solve and explicit stepping agree to ~1e-10 per step; the
    # gradient division by 2h inflates that agreement by 1/h
    assert np.abs([est.e_x, est.e_y, est.e_z] - expected).max() <= 1e-7
    est_explicit = richardson(START, CLASSIC, h, solver="explicit")
    assert np.abs([est_explicit.e_x, est_explicit.e_y, est_explicit.e_z] - expected).max() <= 1e-12
    assert est.total == pytest.approx(abs(est.e_x) + abs(est.e_y) + abs(est.e_z), abs=1e-15)


def test_richardson_series_steps_match_solve_dense_bit_for_bit():
    # the fine and 2h coarse steppers against a fresh LU solve per step
    rng = np.random.default_rng(43)
    for _ in range(10):
        params = LorenzParams(*rng.uniform((0.1, -5.0, 0.1), (20.0, 40.0, 5.0)).tolist())
        h = 0.25 * (1.0 - float(rng.random()))  # (0, 0.25]

        def solve(state, step_h):
            a = build_nonlinear_system(params, step_h)
            return solve_dense(a, build_rhs(State3.from_array(state)))[3:6]

        fine = [rng.uniform(-5, 5, size=3)]
        for _ in range(3):
            fine.append(solve(fine[-1], h))
        estimates = richardson_series(State3.from_array(fine[0]), params, h, 2)
        for n, est in enumerate(estimates):
            s0 = fine[n]
            expected = (solve(s0, 2 * h) - s0) / (2 * h) - (fine[n + 2] - s0) / (2 * h)
            assert np.array([est.e_x, est.e_y, est.e_z]).tobytes() == expected.tobytes()


def test_richardson_halving_ratio():
    h = 1e-3
    coarse = richardson(START, CLASSIC, h, solver="direct")
    fine = richardson(START, CLASSIC, h / 2, solver="direct")
    assert 1.5 <= coarse.total / fine.total <= 2.5


def test_richardson_series_rejects_h_without_room_for_2h():
    with pytest.raises(ValueError, match=r"h must lie in \(0, 0\.25\], got 0\.3"):
        richardson_series(START, CLASSIC, 0.3, 5)


def test_richardson_series_fixed_point():
    wing = fixed_points(CLASSIC)[1]
    series = richardson_series(wing, CLASSIC, 1e-3, 20, solver="explicit")
    assert len(series) == 20
    assert all(est.total == 0.0 for est in series)
    origin = fixed_points(CLASSIC)[0]
    series = richardson_series(origin, CLASSIC, 1e-3, 20, solver="direct")
    assert all(est.total == 0.0 for est in series)


def lorenz_velocity(params, s):
    x, y, z = s
    return np.array(
        [params.sigma * (y - x), x * (params.rho - z) - y, x * y - params.beta * z]
    )


def lorenz_jacobian(params, s):
    x, y, z = s
    return np.array(
        [
            [-params.sigma, params.sigma, 0.0],
            [params.rho - z, -1.0, -x],
            [y, x, -params.beta],
        ]
    )


def test_richardson_series_matches_leading_order_theory():
    # E(h) = -(h/2) J f + O(h^2), so totals track (h/2) ||J f||_1 pointwise
    h = 1e-3
    series = richardson_series(START, CLASSIC, h, 200, solver="direct")
    vals = np.array([est.total for est in series])
    base = trajectory(START, CLASSIC, h, 200, solver="direct")
    oracle = np.array(
        [
            0.5
            * h
            * np.abs(lorenz_jacobian(CLASSIC, s) @ lorenz_velocity(CLASSIC, s)).sum()
            for s in base.states[:-1]
        ]
    )
    assert np.max(np.abs(vals - oracle) / oracle) <= 0.05
    assert vals.mean() == pytest.approx(oracle.mean(), rel=0.02)


@pytest.mark.parametrize(
    "solver, vqls_config",
    [
        ("explicit", None),
        ("direct", None),
        ("vqls", VqlsConfig(max_iterations=3, restarts=1, layer_count=1)),
    ],
    ids=["explicit", "direct", "vqls"],
)
def test_richardson_series_advances_along_fine_path(solver, vqls_config):
    h = 2e-3
    series = richardson_series(
        START, CLASSIC, h, 5, solver=solver, vqls_config=vqls_config, warm_start=False
    )
    # estimate k must equal the single-point estimate at the k-th fine state
    state = START
    for est in series:
        single = richardson(state, CLASSIC, h, solver=solver, vqls_config=vqls_config)
        assert (est.e_x, est.e_y, est.e_z) == (single.e_x, single.e_y, single.e_z)
        state, _ = step_solve(state, CLASSIC, h, solver=solver, vqls_config=vqls_config)


def test_richardson_convergence_slope():
    grid = [1e-2, 5e-3, 2.5e-3, 1.25e-3]
    totals = []
    for h in grid:
        steps = int(round(0.4 / h))  # shared time horizon for comparable means
        series = richardson_series(START, CLASSIC, h, steps, solver="direct")
        totals.append(np.mean([est.total for est in series]))
    for coarse, fine in zip(totals, totals[1:]):
        assert 1.5 <= coarse / fine <= 2.5
    slope = np.polyfit(np.log(grid), np.log(totals), 1)[0]
    assert slope >= 0.9


def quantum_series_ratio(steps):
    h = 1e-3
    classical = richardson_series(START, CLASSIC, h, steps, solver="direct")
    quantum = richardson_series(
        START, CLASSIC, h, steps, solver="vqls",
        vqls_config=VqlsConfig(seed=0), warm_start=True,
    )
    mean_c = np.mean([est.total for est in classical])
    mean_q = np.mean([est.total for est in quantum])
    return mean_q / mean_c


def test_richardson_series_quantum_comparable_to_classical():
    # the solver residual enters the gradient scaled by 1/(2h), so the
    # variational series runs hotter; "comparable" means within a decade
    ratio = quantum_series_ratio(12)
    assert 0.1 <= ratio <= 10.0


@pytest.mark.slow
def test_richardson_series_quantum_comparable_long_run():
    ratio = quantum_series_ratio(200)
    assert 0.1 <= ratio <= 10.0


def test_condition_sweep_values():
    rows = condition_sweep(CLASSIC, default_h_grid())
    assert len(rows) == 100
    ks_a = [r[1] for r in rows]
    ks_d = [r[2] for r in rows]
    assert max(ks_a) <= 70.0
    # dilation and base matrix share the singular spectrum
    assert np.allclose(ks_a, ks_d, rtol=1e-9)
    # growth with h over the sampled grid
    assert all(b >= a - 1e-9 for a, b in zip(ks_a, ks_a[1:]))


def test_condition_sweep_threading_is_deterministic():
    grid = default_h_grid(count=20)
    seq = condition_sweep(CLASSIC, grid)
    par = condition_sweep(CLASSIC, grid, max_workers=4)
    assert seq == par


def test_condition_sweep_rejects_empty():
    with pytest.raises(ValueError):
        condition_sweep(CLASSIC, [])
