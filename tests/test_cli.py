import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sgpde
from sgpde.cli import main


def test_the_commands_are_solve_and_converge(capsys):
    with pytest.raises(SystemExit) as refused:
        main(["check"])
    assert refused.value.code == 2
    assert "invalid choice: 'check'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as helped:
        main(["--help"])
    assert helped.value.code == 0
    out = " ".join(capsys.readouterr().out.split())  # as printed at any width
    assert out.startswith("usage: sgpde [-h] [--version] {solve,converge} ...")


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
    assert main(["solve", str(path)]) == 0
    out = capsys.readouterr().out
    head, error = out.split(": error = ")
    assert head == "n = 3, m = 16, n_k = 16"
    assert float(error) > 0.0


def test_solve_takes_no_state_out(tmp_path, capsys):
    state_path = tmp_path / "state.npz"
    with pytest.raises(SystemExit) as refused:
        main(["solve", str(config_file(tmp_path)), "--state-out", str(state_path)])
    assert refused.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: sgpde [-h] [--version] {solve,converge} ...")
    assert err.splitlines()[-1] == f"sgpde: error: unrecognized arguments: --state-out {state_path}"
    assert not state_path.exists()


@pytest.mark.parametrize(
    "overrides, named",
    [
        ({"colour": "red"}, "unknown config keys: ['colour']"),
        # a family parameter reaches the command only through a config;
        # JSON writes a non-finite float as NaN or Infinity
        ({"distribution": [{"kind": "jacobi", "alpha": -2}]},
         "distribution: jacobi requires alpha > -1 and finite, got alpha = -2.0, beta = 0.0"),
        ({"distribution": [{"kind": "jacobi", "alpha": math.nan}]},
         "distribution: jacobi requires alpha > -1 and finite, got alpha = nan, beta = 0.0"),
        ({"distribution": [{"kind": "jacobi", "beta": math.inf}]},
         "distribution: jacobi requires beta > -1 and finite, got alpha = 0.0, beta = inf"),
        ({"distribution": [{"kind": "laguerre", "alpha": math.inf}]},
         "distribution: laguerre requires alpha > -1 and finite, got alpha = inf"),
        ({"distribution": [{"kind": "jacobi", "alpha": "0.5", "beta": True}]},
         "distribution: jacobi alpha value '0.5' must be a number"),
        ({"distribution": [{"kind": "jacobi", "beta": True}]},
         "distribution: jacobi beta value True must be a number"),
        # a constant field's value must be finite and > 0
        *[({"coefficient": {"name": "constant", "params": {"value": value}}},
           f"coefficient: constant value {value!r} must be a finite number > 0")
          for value in (math.nan, math.inf, 0)],
        # the numbers that a datum nests
        *[({"initial_datum": {"name": "sine_modes", "params": {"modes": [modes]}}},
           f"initial_datum: sine_modes {named}")
          for modes, named in (
              ([1.5, 1.0], "mode value 1.5 must be an integer >= 1"),
              ([True, 1.0], "mode value True must be an integer >= 1"),
              ([1, math.nan], "amplitude value nan must be a finite number"),
              ([0, 1.0], "mode value 0 must be an integer >= 1"),
              ([1, "1"], "amplitude value '1' must be a finite number"),
          )],
        ({"initial_datum": {"name": "product_sine", "params": {"j": 1.5}}},
         "initial_datum: product_sine j value 1.5 must be an integer >= 1"),
        ({"initial_datum": {"name": "product_sine", "params": {"amplitude": math.nan}}},
         "initial_datum: product_sine amplitude value nan must be a finite number"),
        ({"initial_datum": {"name": "product_sine", "params": {"amplitude": -math.inf}}},
         "initial_datum: product_sine amplitude value -inf must be a finite number"),
    ],
    ids=["config_key", "jacobi_alpha", "jacobi_alpha_nan", "jacobi_beta_inf", "laguerre_alpha_inf",
         "jacobi_alpha_string", "jacobi_beta_bool", "constant_nan", "constant_inf", "constant_zero",
         "mode_fraction", "mode_bool", "mode_amplitude_nan", "mode_zero", "mode_amplitude_string",
         "product_j_fraction", "product_amplitude_nan", "product_amplitude_inf"],
)
def test_a_bad_value_exits_2_with_a_one_line_error(tmp_path, capsys, overrides, named):
    code = main(["solve", str(config_file(tmp_path, **overrides))])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == "" and "Traceback" not in err
    assert err.splitlines() == [f"sgpde: error: {named}"]


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
