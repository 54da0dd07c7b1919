"""What a fresh interpreter loads: scipy only for an LU factorization, and the
thread pool only for a threaded condition sweep."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lorenz_vqls
from lorenz_vqls.cli import main

SRC = Path(lorenz_vqls.__file__).resolve().parent.parent
BLOCK_SCIPY = 'import sys; sys.modules["scipy"] = None; '
RUN_CLI = "from lorenz_vqls.cli import main; sys.exit(main(sys.argv[1:]))"


def python(code, *args, cwd=None):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args], cwd=cwd, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


def test_import_loads_neither_scipy_nor_the_thread_pool():
    done = python(
        "import sys, lorenz_vqls, lorenz_vqls.cli; "
        "print(sorted({'scipy', 'concurrent.futures'} & set(sys.modules)))"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("argv", [
    ["simulate", "--solver", "explicit", "--steps", "5"],
    ["simulate", "--solver", "vqls", "--steps", "1", "--seed", "0", "--max-iter", "5"],
    ["cond-sweep", "--h-min", "0.001", "--h-max", "0.1", "--count", "5"],
    ["decompose", "lorenz-A"],
], ids=lambda argv: argv[0] + ("-" + argv[2] if argv[0] == "simulate" else ""))
def test_runs_without_scipy_write_the_same_bytes(tmp_path, capsys, monkeypatch, argv):
    blocked, unblocked = tmp_path / "blocked", tmp_path / "unblocked"
    blocked.mkdir()
    unblocked.mkdir()
    argv = [*argv, "--out", "out.csv"]
    done = python(BLOCK_SCIPY + RUN_CLI, *argv, cwd=blocked)
    monkeypatch.chdir(unblocked)
    assert done.returncode == main(argv) == 0, done.stderr
    assert done.stdout == capsys.readouterr().out
    assert (blocked / "out.csv").read_bytes() == (unblocked / "out.csv").read_bytes()


def test_direct_run_is_what_loads_scipy(tmp_path):
    done = python(BLOCK_SCIPY + RUN_CLI, "simulate", "--steps", "5", "--out", "out.csv",
                  cwd=tmp_path)
    assert done.returncode != 0 and "scipy" in done.stderr
