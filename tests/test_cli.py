import dataclasses
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lorenz_vqls
from csv_io import assert_floats_round_trip, column, read_table
from lorenz_vqls import (
    LorenzParams,
    State3,
    VqlsConfig,
    compare_trajectories,
    condition_sweep,
    richardson_series,
    trajectory,
)
from lorenz_vqls.cli import _parse_args, _write_trajectory, main
from lorenz_vqls.errors import DivergedAt

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = Path(lorenz_vqls.__file__).resolve().parent.parent


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_json(stdout):
    lines = [ln for ln in stdout.strip().splitlines() if ln.strip()]
    return json.loads(lines[-1])


@pytest.mark.parametrize("solver", [["explicit"], ["vqls", "--seed", "0"]], ids=lambda s: s[0])
def test_simulate_zero_start(tmp_path, capsys, solver):
    out = tmp_path / "zero.csv"
    code, stdout, _ = run_cli(
        capsys, "simulate", "--start", "0,0,0", "--steps", "5", "--h", "0.01",
        "--solver", *solver, "--out", str(out),
    )
    assert code == 0
    header, rows, comments = read_table(out)
    assert header[:5] == ["step", "t", "x", "y", "z"]
    assert len(rows) == 6 and not comments
    for row in rows:
        assert row[2:5] == ["0", "0", "0"]
    if solver[0] == "vqls":  # the origin shortcut solves nothing: zero cells
        assert header[5:] == ["cost", "iterations", "residual"]
        assert rows[0][5:] == ["", "", ""]
        for row in rows[1:]:
            assert row[5:] == ["0", "0", "0"]
    else:
        assert len(header) == 5
    summary = last_json(stdout)
    assert summary["command"] == "simulate" and summary["diverged_at"] is None


def test_simulate_attractor_preset(tmp_path, capsys):
    out = tmp_path / "attractor.csv"
    code, stdout, _ = run_cli(capsys, "simulate", "--preset", "attractor", "--out", str(out))
    assert code == 0
    header, rows, _ = read_table(out)
    assert len(rows) == 2001
    for row in rows[:50]:
        assert_floats_round_trip(row[1:])
    assert last_json(stdout)["rows"] == 2001


@pytest.mark.parametrize("command", [
    ["simulate", "--solver", "explicit"],
    ["compare", "--self-compare"],
], ids=lambda command: command[0])
def test_simulate_divergence_marker(tmp_path, capsys, command):
    out = tmp_path / "blowup.csv"
    code, stdout, _ = run_cli(
        capsys, *command, "--start", "30,-40,10", "--h", "0.4", "--steps", "100",
        "--out", str(out),
    )
    assert code == 2
    header, rows, comments = read_table(out)
    assert header == ["step", "t", "x", "y", "z"]
    summary = last_json(stdout)
    n = summary["diverged_at"]
    assert isinstance(n, int) and 1 <= n <= 100
    assert comments == [f"# diverged at step {n}"]
    assert len(rows) == n  # states before the failed step are retained


@pytest.mark.parametrize("argv", [
    ["simulate", "--solver", "explicit", "--steps", "1"],
    ["simulate", "--solver", "direct", "--steps", "1"],
    ["simulate", "--solver", "vqls", "--seed", "0", "--steps", "1"],
    ["compare", "--self-compare", "--steps", "1"],
    ["richardson", "--h-list", "0.01", "--steps", "2"],
], ids=" ".join)
def test_overflowing_product_is_divergence(tmp_path, capsys, argv):
    # the start is finite, but its products x*z and x*y overflow
    out = tmp_path / "blowup.csv"
    code, stdout, _ = run_cli(
        capsys, *argv, "--start", "1e160,1e160,1e160", "--out", str(out)
    )
    assert code == 2
    _, rows, comments = read_table(out)
    summary = last_json(stdout)
    if argv[0] == "richardson":
        assert summary["diverged_at_h"] == 0.01
        assert comments == ["# diverged at h 0.01"] and not rows
    else:
        assert summary["diverged_at"] == 1
        assert comments == ["# diverged at step 1"] and len(rows) == 1


def test_origin_run_never_factors_its_matrix(tmp_path, capsys):
    # sigma = 1e10 makes the matrix numerically singular, but every step of
    # this run takes the origin shortcut, so the run has nothing to factor
    out = tmp_path / "origin.csv"
    code, _, _ = run_cli(
        capsys, "simulate", "--solver", "direct", "--sigma", "1e10", "--start", "0,0,0",
        "--steps", "3", "--out", str(out),
    )
    assert code == 0
    _, rows, comments = read_table(out)
    assert len(rows) == 4 and not comments


def test_simulate_vqls_columns(tmp_path, capsys):
    out = tmp_path / "vq.csv"
    code, stdout, _ = run_cli(
        capsys, "simulate", "--solver", "vqls", "--steps", "2", "--h", "0.005",
        "--seed", "0", "--out", str(out),
    )
    assert code == 0
    header, rows, _ = read_table(out)
    assert header == ["step", "t", "x", "y", "z", "cost", "iterations", "residual"]
    assert rows[0][5:] == ["", "", ""]
    assert all(field != "" for field in rows[1][5:])
    assert float(rows[1][7]) <= 1e-3


def test_simulate_vqls_requires_seed(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code, _, err = run_cli(
        capsys, "simulate", "--solver", "vqls", "--steps", "1", "--out", str(out)
    )
    assert code == 1
    assert "seed" in err


def test_compare_self_mode(tmp_path, capsys):
    out = tmp_path / "self.csv"
    code, stdout, _ = run_cli(
        capsys, "compare", "--self-compare", "--steps", "50", "--h", "0.001",
        "--out", str(out),
    )
    assert code == 0
    header, rows, _ = read_table(out)
    assert header == [
        "step", "t", "x_c", "y_c", "z_c", "x_q", "y_q", "z_q",
        "rel_err", "cost", "residual",
    ]
    assert all(float(v) <= 1e-9 for v in column(header, rows, "rel_err"))
    assert last_json(stdout)["mean_rel_err"] <= 1e-9


def test_compare_missing_out(capsys):
    code, _, err = run_cli(capsys, "compare", "--steps", "10")
    assert code == 1
    assert "output" in err


def test_compare_small_vqls_run(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    code, stdout, _ = run_cli(
        capsys, "compare", "--steps", "3", "--h", "0.001", "--seed", "0",
        "--out", str(out),
    )
    assert code == 0
    header, rows, _ = read_table(out)
    assert len(rows) == 4
    summary = last_json(stdout)
    assert summary["mean_rel_err"] <= 0.05
    costs = column(header, rows, "cost")
    assert costs[0] == "" and all(c != "" for c in costs[1:])


def test_richardson_origin_is_flat(tmp_path, capsys):
    out = tmp_path / "rich.csv"
    code, stdout, _ = run_cli(
        capsys, "richardson", "--start", "0,0,0", "--h-list", "0.001",
        "--steps", "5", "--out", str(out),
    )
    assert code == 0
    header, rows, _ = read_table(out)
    assert header == ["step", "h", "e_x", "e_y", "e_z", "total"]
    assert all(v == "0" for v in column(header, rows, "total"))
    assert last_json(stdout)["mean_total"]["0.001"] == 0.0


def test_richardson_halving_ratio(tmp_path, capsys):
    out = tmp_path / "rich2.csv"
    code, stdout, _ = run_cli(
        capsys, "richardson", "--start", "1,-2,4", "--h-list", "0.001,0.0005",
        "--steps", "200", "--solver", "direct", "--out", str(out),
    )
    assert code == 0
    means = last_json(stdout)["mean_total"]
    ratio = means["0.001"] / means["0.0005"]
    assert 1.5 <= ratio <= 2.5


def test_richardson_divergence_marker(tmp_path, capsys):
    out = tmp_path / "blowup.csv"
    code, stdout, _ = run_cli(
        capsys, "richardson", "--h-list", "0.001,0.25,0.002", "--steps", "50",
        "--start", "30,-40,10", "--out", str(out),
    )
    assert code == 2
    header, rows, comments = read_table(out)
    assert len(rows) == 50 and {row[1] for row in rows} == {"0.001"}
    assert comments == ["# diverged at h 0.25"]
    summary = last_json(stdout)
    assert summary["diverged_at_h"] == 0.25
    assert list(summary["mean_total"]) == ["0.001"]


def test_richardson_h_list_leaves_room_for_the_2h_step(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "richardson", "--h-list", "0.3", "--out", str(tmp_path / "x.csv")
    )
    assert code == 1
    assert "0.3" in err and "0.6" not in err


def test_richardson_malformed_h_list(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "richardson", "--h-list", "1e-3;5e-4", "--out", str(tmp_path / "x.csv")
    )
    assert code == 1


def test_cond_sweep_bound(tmp_path, capsys):
    out = tmp_path / "cond.csv"
    code, stdout, _ = run_cli(
        capsys, "cond-sweep", "--h-min", "0.001", "--h-max", "0.1",
        "--count", "100", "--out", str(out),
    )
    assert code == 0
    header, rows, _ = read_table(out)
    assert header == ["h", "kappa_A", "kappa_dilation"]
    assert len(rows) == 100
    assert last_json(stdout)["max_kappa_A"] <= 70.0


def test_cond_sweep_single_point_matches_oracle(tmp_path, capsys):
    out = tmp_path / "cond1.csv"
    code, stdout, _ = run_cli(
        capsys, "cond-sweep", "--h-min", "0.01", "--h-max", "0.1",
        "--count", "1", "--out", str(out),
    )
    assert code == 0
    header, rows, _ = read_table(out)
    from lorenz_vqls import LorenzParams, build_nonlinear_system, hermitian_dilation

    oracle = np.linalg.cond(hermitian_dilation(build_nonlinear_system(LorenzParams(), 0.01)))
    assert float(rows[0][2]) == pytest.approx(oracle, rel=1e-10)


def test_cond_sweep_bad_range(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "cond-sweep", "--h-min", "0.1", "--h-max", "0.01",
        "--out", str(tmp_path / "x.csv"),
    )
    assert code == 1


def test_decompose_identity_file(tmp_path, capsys):
    src = tmp_path / "eye.txt"
    src.write_text("1 0\n0 1\n")
    out = tmp_path / "eye.pauli"
    code, stdout, _ = run_cli(capsys, "decompose", str(src), "--out", str(out))
    assert code == 0
    assert out.read_text() == "I 1 0\n"
    assert last_json(stdout)["round_trip_error"] <= 1e-12


def test_decompose_three_by_three_padding(tmp_path, capsys):
    src = tmp_path / "m3.txt"
    src.write_text("1 2 0\n2 3 1\n0 1 5\n")
    out = tmp_path / "m3.pauli"
    code, _, err = run_cli(capsys, "decompose", str(src), "--out", str(out))
    assert code == 1
    code, stdout, _ = run_cli(capsys, "decompose", str(src), "--pad", "--out", str(out))
    assert code == 0
    labels = [line.split()[0] for line in out.read_text().splitlines()]
    assert all(len(label) == 2 for label in labels)
    assert labels == sorted(labels)
    assert last_json(stdout)["padded_to"] == 4


def test_decompose_complex_entries(tmp_path, capsys):
    src = tmp_path / "c.txt"
    src.write_text("1 1-2j\n1+2j 3\n")
    out = tmp_path / "c.pauli"
    code, stdout, _ = run_cli(capsys, "decompose", str(src), "--out", str(out))
    assert code == 0
    assert last_json(stdout)["round_trip_error"] <= 1e-12


def test_decompose_lorenz_cost_hamiltonian(tmp_path, capsys):
    out = tmp_path / "hg.pauli"
    code, stdout, _ = run_cli(
        capsys, "decompose", "lorenz-HG", "--h", "0.01", "--start", "1,-2,4",
        "--out", str(out),
    )
    assert code == 0
    summary = last_json(stdout)
    assert summary["round_trip_error"] <= 1e-12
    lines = out.read_text().splitlines()
    assert lines == sorted(lines)


@pytest.mark.parametrize(
    "text", ["nan 0\n0 1\n", "1 0\n0 inf\n", "1 nan+1j\n0 1\n"], ids=["nan", "inf", "complex"]
)
def test_decompose_rejects_non_finite_entries(tmp_path, capsys, text):
    src = tmp_path / "m.txt"
    src.write_text(text)
    code, stdout, err = run_cli(capsys, "decompose", str(src), "--out", str(tmp_path / "x"))
    assert code == 1 and not stdout
    assert "not finite" in err


def test_decompose_one_by_one_file_exits_one(tmp_path, capsys):
    path = tmp_path / "one.txt"
    path.write_text("5\n")
    code, _, err = run_cli(capsys, "decompose", str(path), "--out", str(tmp_path / "p.txt"))
    assert code == 1
    assert err == "lorenz-vqls: error: decomposition needs 1 to 6 qubits, got 0\n"


def test_decompose_unreadable_file(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "decompose", str(tmp_path / "missing.txt"), "--out", str(tmp_path / "x")
    )
    assert code == 1


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "preset = attractor\n"
        "steps = 7\n"
        "h = 0.002  # overrides the preset value\n"
    )
    out = tmp_path / "cfg.csv"
    code, stdout, _ = run_cli(
        capsys, "simulate", "--config", str(cfg), "--steps", "4", "--out", str(out)
    )
    assert code == 0
    header, rows, _ = read_table(out)
    assert len(rows) == 5  # flag --steps 4 beats config steps 7
    assert float(rows[1][1]) == pytest.approx(0.002)  # config h beats preset h
    # preset start (1, -2, 4) survives where nothing overrides it
    assert float(rows[0][2]) == 1.0 and float(rows[0][3]) == -2.0


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("wibble = 3\n")
    code, _, err = run_cli(
        capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")
    )
    assert code == 1
    assert "wibble" in err


def test_config_file_key_the_command_does_not_read(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("steps = 3\nthreads = 2\n")
    code, _, err = run_cli(
        capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")
    )
    assert code == 1
    assert f"{cfg}:2" in err and "threads" in err


def test_config_file_switches(tmp_path, capsys):
    src = tmp_path / "m3.txt"
    src.write_text("1 2 0\n2 3 1\n0 1 5\n")
    cfg = tmp_path / "pad.cfg"
    argv = ["decompose", str(src), "--config", str(cfg), "--out", str(tmp_path / "m3.pauli")]
    cfg.write_text("pad = false\n")
    assert run_cli(capsys, *argv)[0] == 1
    cfg.write_text("pad = true\n")
    code, stdout, _ = run_cli(capsys, *argv)
    assert code == 0 and last_json(stdout)["padded_to"] == 4
    cfg.write_text("pad = maybe\n")
    code, _, err = run_cli(capsys, *argv)
    assert code == 1 and f"{cfg}:1" in err


def test_byte_identical_reruns(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--start", "1,-2,4", "--h", "0.005", "--steps", "50",
            "--solver", "direct"]
    assert run_cli(capsys, *args, "--out", str(a))[0] == 0
    assert run_cli(capsys, *args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_byte_identical_vqls_reruns(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--solver", "vqls", "--steps", "2", "--h", "0.005",
            "--seed", "3"]
    assert run_cli(capsys, *args, "--out", str(a))[0] == 0
    assert run_cli(capsys, *args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_byte_identical_across_thread_counts(tmp_path, capsys):
    a, b = tmp_path / "t1.csv", tmp_path / "t4.csv"
    args = ["cond-sweep", "--h-min", "0.001", "--h-max", "0.1", "--count", "60"]
    assert run_cli(capsys, *args, "--threads", "1", "--out", str(a))[0] == 0
    assert run_cli(capsys, *args, "--threads", "4", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_usage_errors_exit_one(capsys):
    assert run_cli(capsys, "simulate", "--no-such-flag")[0] == 1
    assert run_cli(capsys, "frobnicate")[0] == 1
    assert run_cli(capsys, "simulate", "--start", "1,2", "--out", "/tmp/x.csv")[0] == 1
    assert run_cli(capsys, "simulate", "--solver", "cheating", "--out", "/tmp/x.csv")[0] == 1


def test_unwritable_output_exits_one(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--steps", "2", "--out", "/proc/definitely/not/writable.csv"
    )
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["cond-sweep", "--h-min", "0.1", "--h-max", "0.7"],
    ["decompose", "lorenz-A", "--h", "0.9"],
    ["decompose", "lorenz-A", "--h", "0"],
    ["decompose", "lorenz-HG", "--start", "0,0,0"],
    ["simulate", "--start", "inf,0,0"],
    ["richardson", "--h-list", "0.01", "--start", "nan,0,0"],
    ["richardson", "--h-list", "0.01,0.6"],
    ["simulate", "--solver", "vqls", "--seed", "0", "--tol", "nan"],
    ["simulate", "--solver", "vqls", "--seed", "0", "--stepsize", "nan"],
    ["cond-sweep", "--sigma", "1e8", "--h-min", "0.01", "--h-max", "0.1", "--count", "3"],
    ["simulate", "--sigma", "1e10", "--steps", "3"],
    ["simulate", "--solver", "vqls", "--seed", "-1", "--steps", "1"],
    ["cond-sweep", "--h-min", "0.001", "--h-max", "0.1", "--threads", "0"],
    ["cond-sweep", "--h-min", "0.001", "--h-max", "0.1", "--threads", "-3"],
    ["richardson", "--h-list", "0.01,0.01", "--steps", "2"],
    ["richardson", "--h-list", "0.001,0.002,1e-3", "--steps", "2"],
], ids=" ".join)
def test_bad_inputs_exit_one(tmp_path, capsys, monkeypatch, argv):
    def no_descent(*args, **kwargs):
        raise AssertionError("a bad input reached the solver's descent")

    monkeypatch.setattr("lorenz_vqls.lorenz.optimize", no_descent)
    code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path / "x.csv"))
    assert code == 1
    assert err.startswith("lorenz-vqls: error: ")


@pytest.mark.parametrize("argv", [
    ["cond-sweep", "--h-min", "0.001", "--h-max", "0.1", "--solver", "vqls"],
    ["decompose", "lorenz-A", "--threads", "4"],
    ["compare", "--self-compare", "--solver", "explicit"],
    ["richardson", "--h-list", "0.01", "--h", "0.01"],
    ["simulate", "--threads", "2"],
], ids=" ".join)
def test_flags_the_command_does_not_read_are_rejected(tmp_path, capsys, argv):
    code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path / "x.csv"))
    assert code == 1
    assert f"unrecognized arguments: {argv[-2]} " in err


def test_readme_examples_parse():
    examples = [
        shlex.split(line)[1:] for line in README.read_text().splitlines()
        if line.startswith("lorenz-vqls ")
    ]
    assert len(examples) >= 9
    for argv in examples:
        args = _parse_args(argv)
        assert args.out, argv


@pytest.mark.parametrize("argv, code", [
    (["simulate", "--rho", "1e200", "--start", "1,1,1", "--steps", "2"], 1),
    (["simulate", "--solver", "vqls", "--seed", "0", "--steps", "1", "--start", "1e160,0,0",
      "--max-iter", "3", "--restarts", "1"], 2),
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_huge_entries_raise_no_numpy_warning(tmp_path, argv, code):
    # -W error turns any numpy overflow or invalid-value warning into a crash
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "lorenz_vqls.cli", *argv,
         "--out", str(tmp_path / "x.csv")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert done.returncode == code
    if code == 1:
        assert done.stderr == "lorenz-vqls: error: pivot at or below 5.000e+183\n"
    else:
        assert done.stderr == ""
        assert json.loads(done.stdout)["diverged_at"] == 1


def fmt(x):
    """The reference cell: 17 significant digits round-trip a double."""
    return f"{float(x):.17g}"


def csv_bytes(lines):
    return "".join(line + "\n" for line in lines).encode()


def reference_solver_cells(traj, n):
    if traj.diagnostics is None or n == 0:
        return ["", "", ""]
    out = traj.diagnostics[n - 1]
    if out is None:
        return ["0", "0", "0"]
    return [fmt(out.final_cost), str(out.iterations_used), fmt(out.residual)]


def reference_trajectory_csv(traj, diverged_at):
    """The trajectory table written one `fmt` cell at a time."""
    diagnostics = traj.diagnostics is not None
    lines = ["step,t,x,y,z" + (",cost,iterations,residual" if diagnostics else "")]
    for n, row in enumerate(traj.states):
        fields = [str(n), fmt(n * traj.h), fmt(row[0]), fmt(row[1]), fmt(row[2])]
        if diagnostics:
            fields += reference_solver_cells(traj, n)
        lines.append(",".join(fields))
    if diverged_at is not None:
        lines.append(f"# diverged at step {diverged_at}")
    return csv_bytes(lines)


def run_to_table(start, h, steps, solver="direct", vqls_config=None):
    try:
        return trajectory(start, LorenzParams(), h, steps, solver, vqls_config), None
    except DivergedAt as exc:
        return exc.trajectory, exc.step


def assert_writer_matches_reference(path, traj, diverged_at):
    _write_trajectory(str(path), traj, diverged_at)
    assert path.read_bytes() == reference_trajectory_csv(traj, diverged_at)


edge_coord = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-16, -1e-16, 5e-324, -2.5e-310, 1e11, -1e11]),
    st.floats(min_value=-50.0, max_value=50.0),
)


@settings(max_examples=40, deadline=None)
@given(edge_coord, edge_coord, edge_coord, st.sampled_from([1e-3, 5e-3, 0.01, 0.1]))
def test_trajectory_csv_matches_per_cell_formatting(x, y, z, h):
    traj, diverged_at = run_to_table(State3(x, y, z), h, 5)
    with tempfile.TemporaryDirectory() as tmp:
        assert_writer_matches_reference(Path(tmp) / "t.csv", traj, diverged_at)


def test_vqls_trajectory_csv_matches_per_cell_formatting(tmp_path):
    cfg = VqlsConfig(max_iterations=5, seed=0)
    traj, diverged_at = run_to_table(State3(1.0, -2.0, 4.0), 0.005, 2, "vqls", cfg)
    assert diverged_at is None and None not in traj.diagnostics
    # step 1 as the origin shortcut leaves it: no outcome
    traj = dataclasses.replace(traj, diagnostics=(None, *traj.diagnostics[1:]))
    assert_writer_matches_reference(tmp_path / "vqls.csv", traj, None)


def test_partial_trajectory_csv_matches_per_cell_formatting(tmp_path):
    traj, diverged_at = run_to_table(State3(1.0, -2.0, 4.0), 0.5, 100, "explicit")
    assert diverged_at is not None and len(traj) == diverged_at > 1
    assert_writer_matches_reference(tmp_path / "partial.csv", traj, diverged_at)


def reference_compare_csv(reference, other):
    """The compare table written one `fmt` cell at a time."""
    series = compare_trajectories(reference, other)
    lines = ["step,t,x_c,y_c,z_c,x_q,y_q,z_q,rel_err,cost,residual"]
    for n in range(len(reference)):
        rel = 0.0 if n == 0 else series.values[n - 1]
        cost, _, residual = reference_solver_cells(other, n)
        lines.append(",".join([
            str(n), fmt(n * reference.h), *map(fmt, reference.states[n]),
            *map(fmt, other.states[n]), fmt(rel), cost, residual,
        ]))
    return csv_bytes(lines)


@pytest.mark.parametrize("argv, drop_first_outcome", [
    (["--self-compare", "--steps", "60", "--h", "0.001"], False),
    # step 1 as the origin shortcut leaves it: no outcome
    (["--steps", "2", "--h", "0.005", "--seed", "0", "--max-iter", "5"], True),
    (["--self-compare", "--start=1,-0.0,0", "--steps", "8"], False),
    (["--self-compare", "--start=-0.0,0.0,-0.0", "--steps", "3"], False),
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_compare_csv_matches_per_cell_formatting(
    tmp_path, capsys, monkeypatch, argv, drop_first_outcome
):
    runs = []

    def recorded(*args, **kwargs):
        traj = trajectory(*args, **kwargs)
        if drop_first_outcome and traj.diagnostics is not None:
            traj = dataclasses.replace(traj, diagnostics=(None, *traj.diagnostics[1:]))
        runs.append(traj)
        return traj

    monkeypatch.setattr("lorenz_vqls.cli.trajectory", recorded)
    out = tmp_path / "cmp.csv"
    code, stdout, _ = run_cli(capsys, "compare", *argv, "--out", str(out))
    assert code == 0 and len(runs) == 2
    assert out.read_bytes() == reference_compare_csv(*runs)
    values = compare_trajectories(*runs).values
    summary = last_json(stdout)
    assert summary["mean_rel_err"] == float(np.mean(values))
    assert summary["max_rel_err"] == float(np.max(values))


@pytest.mark.parametrize("start, h_list, steps", [
    ((1.0, -2.0, 4.0), (0.001, 0.0005), 20),
    ((30.0, -40.0, 10.0), (0.001, 0.25, 0.002), 50),
])
def test_richardson_csv_matches_per_cell_formatting(tmp_path, capsys, start, h_list, steps):
    lines, means = ["step,h,e_x,e_y,e_z,total"], {}
    for h in h_list:
        try:
            series = richardson_series(State3(*start), LorenzParams(), h, steps)
        except OverflowError:
            lines.append(f"# diverged at h {fmt(h)}")
            break
        for n, est in enumerate(series):
            cells = [h, est.e_x, est.e_y, est.e_z, est.total]
            lines.append(",".join([str(n), *map(fmt, cells)]))
        means[repr(h)] = float(np.mean([est.total for est in series]))
    out = tmp_path / "rich.csv"
    code, stdout, _ = run_cli(
        capsys, "richardson", "--start", ",".join(map(str, start)),
        "--h-list", ",".join(map(str, h_list)), "--steps", str(steps), "--out", str(out),
    )
    assert code == (0 if len(means) == len(h_list) else 2)
    assert out.read_bytes() == csv_bytes(lines)
    assert last_json(stdout)["mean_total"] == means


@pytest.mark.parametrize("h_min, h_max, count", [(0.001, 0.1, 100), (0.01, 0.1, 1)])
def test_cond_sweep_csv_matches_per_cell_formatting(tmp_path, capsys, h_min, h_max, count):
    rows = condition_sweep(LorenzParams(), np.linspace(h_min, h_max, count))
    out = tmp_path / "cond.csv"
    code, _, _ = run_cli(
        capsys, "cond-sweep", "--h-min", str(h_min), "--h-max", str(h_max),
        "--count", str(count), "--out", str(out),
    )
    assert code == 0
    lines = ["h,kappa_A,kappa_dilation", *(",".join(map(fmt, row)) for row in rows)]
    assert out.read_bytes() == csv_bytes(lines)
