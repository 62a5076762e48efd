import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sgpde
from sgpde import cli
from sgpde.cli import invariant_suite, main


def test_tables_command(capsys):
    assert main(["tables", "--family", "hermite", "--q", "3", "--k-max", "2"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0].startswith("# hermite gauss rule")
    nodes = [line.split() for line in lines if line and not line.startswith(("#", "node"))]
    gauss = [(float(a), float(b)) for a, b in (row for row in nodes if len(row) == 2)]
    assert gauss[0][0] == pytest.approx(-math.sqrt(3.0), abs=1e-12)
    assert len(gauss) == 3
    # the rule, then the hermite eigenvalues lambda_k = k, and nothing else
    assert lines[-2:] == ["# eigenvalues k <= 2", "0.0 1.0 2.0"]
    assert len(lines) == 2 + 3 + 2
    with pytest.raises(SystemExit):  # the command takes no triple-product options
        main(["tables", "--eps-n", "1"])


def test_check_command(capsys):
    assert main(["check"]) == 0
    out = capsys.readouterr().out
    assert "PASS orthonormality[hermite]" in out
    assert "FAIL" not in out


def test_invariant_suite_entries():
    results = invariant_suite()
    names = [name for name, ok, _ in results]
    assert "block_symmetry" in names
    assert all(ok for _, ok, _ in results)


def test_invariant_suite_reads_the_operator_invariants_without_its_matrix(monkeypatch):
    built = []
    real = cli.assemble_block_operator
    monkeypatch.setattr(
        cli, "assemble_block_operator", lambda *a, **kw: built.append(real(*a, **kw)) or built[-1]
    )
    results = {name: ok for name, ok, _ in invariant_suite()}
    assert results["block_symmetry"] and results["resolvent_contractivity"]
    assert len(built) == 1
    assert "matrix" not in vars(built[0])  # the chaos-basis G (x) K_g was never built


def config_file(tmp_path, **overrides):
    raw = {
        "distribution": [{"kind": "hermite"}],
        "coefficient": {"name": "logistic_1d"},
        "initial_datum": {"name": "sine_modes", "params": {"modes": [[1, 1.0]]}},
        "geometry": {"dim": 1, "fe_order": 2},
        "sweep": {"n": [1, 2, 3], "m": [8, 16], "n_k": [8, 16]},
        "scheme": "crank_nicolson",
        "t_final": 0.1,
        "quad_order": 20,
        "reference": {"kind": "analytic"},
        "output": {
            "csv_dir": str(tmp_path / "csv"),
            "report": str(tmp_path / "report.json"),
        },
    }
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def test_converge_command(tmp_path, capsys):
    path = config_file(tmp_path, tolerances={"n": {"decreasing": True}})
    assert main(["converge", str(path)]) == 0
    out = capsys.readouterr().out
    assert "axis n:" in out and "overall: PASS" in out
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"] is True
    assert (tmp_path / "csv" / "axis_joint.csv").exists()


def test_converge_failing_tolerance(tmp_path, capsys):
    path = config_file(tmp_path, tolerances={"n_k": {"slope": 9.0, "tol": 0.1}})
    assert main(["converge", str(path)]) == 1
    assert "overall: FAIL" in capsys.readouterr().out


def test_solve_command(tmp_path, capsys):
    path = config_file(tmp_path)
    state_path = tmp_path / "state.npz"
    assert main(["solve", str(path), "--state-out", str(state_path)]) == 0
    out = capsys.readouterr().out
    assert "error =" in out
    import numpy as np

    data = np.load(state_path)
    assert data["coeffs"].shape[0] == 4  # d_3 modes in 1D


@pytest.mark.parametrize(
    "argv, named",
    [
        (["tables", "--q", "0"], "--q: must be >= 1, got 0"),
        (["tables", "--k-max", "-1"], "--k-max: must be >= 0, got -1"),
        (["tables", "--family", "jacobi", "--alpha", "-2"], "got alpha = -2.0"),
        (["solve", "CONFIG"], "unknown config keys: ['colour']"),
        (["tables", "--q", "100000"], "--q: must be <= 1000, got 100000"),
        (["tables", "--family", "jacobi", "--alpha", "nan"], "alpha > -1 and finite, got alpha = nan"),
        (["tables", "--family", "jacobi", "--beta", "inf"], "beta > -1 and finite, got alpha = 0.0, beta = inf"),
        (["tables", "--family", "laguerre", "--alpha", "inf"], "alpha > -1 and finite, got alpha = inf"),
    ],
    ids=["q", "k_max", "jacobi_alpha", "config_key", "q_above_1000", "jacobi_alpha_nan",
         "jacobi_beta_inf", "laguerre_alpha_inf"],
)
def test_a_bad_value_exits_2_with_a_one_line_error(tmp_path, capsys, argv, named):
    argv = [str(config_file(tmp_path, colour="red")) if a == "CONFIG" else a for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a bad argument by exiting
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2
    assert out == "" and "Traceback" not in err
    assert err.splitlines()[-1].startswith("sgpde")
    assert named in err.splitlines()[-1]


def test_importing_the_cli_does_not_load_scipy_special():
    src = str(Path(sgpde.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", "import sys, sgpde.cli; print('scipy.special' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_solve_on_one_blas_thread_survives_a_clustered_norm_check(tmp_path):
    # three Hermite inputs at n = 5 with quad_order 11: on one BLAS thread the
    # subset eigensolver (LAPACK syevr) failed on the chaos eigenvectors' Y^T Y
    # with "LinAlgError: Internal Error."; the thread count must be set before
    # numpy loads, so the solve runs in a fresh interpreter
    path = config_file(
        tmp_path,
        distribution=[{"kind": "hermite"}] * 3,
        geometry={"dim": 1, "fe_order": 1},
        sweep={"n": [5], "m": [4], "n_k": [4]},
        scheme="implicit_euler",
        t_final=0.6,
        quad_order=11,
    )
    src = str(Path(sgpde.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run(
        [sys.executable, "-m", "sgpde.cli", "solve", str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    head, error = done.stdout.split(": error = ")
    assert head == "n = 5, m = 4, n_k = 4"
    assert float(error) == pytest.approx(6.511027e-03, rel=1e-6)
