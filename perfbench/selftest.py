"""Self-test of the benchmark's own machinery on a tiny config (a few seconds).

    python3 perfbench/selftest.py

Checks self-time arithmetic on nested spans, that a traced sweep and
``sgpde solve`` leave no wrapper installed, and that the output check
rejects perturbed results. Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import copy
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import scipy.sparse.linalg as spla  # noqa: E402

import sgpde.cli  # noqa: E402
import sgpde.harness  # noqa: E402
import sgpde.timestep  # noqa: E402

import check  # noqa: E402
import spans  # noqa: E402

TINY = {
    "distribution": [{"kind": "hermite"}],
    "coefficient": {"name": "logistic_1d"},
    "initial_datum": {"name": "sine_modes", "params": {"modes": [[1, 1.0]]}},
    "geometry": {"dim": 1, "fe_order": 1},
    "sweep": {"n": [1, 6], "m": [2, 4, 8, 16], "n_k": [8, 64]},
    "scheme": "crank_nicolson",
    "t_final": 0.1,
    "quad_order": 20,
    "reference": {"kind": "analytic"},
}


def test_self_time_arithmetic():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 9]
    recorded = [
        ["x.a", 0.0, 10.0, -1, None],
        ["x.b", 1.0, 4.0, 0, None],
        ["x.c", 2.0, 3.0, 1, None],
        ["x.d", 5.0, 9.0, 0, None],
        ["x.d", 9.5, 10.0, 0, None],
    ]
    table = spans.summarize(recorded)
    assert table["x.a"] == [1, 2.5, 10.0], table["x.a"]
    assert table["x.b"] == [1, 2.0, 3.0], table["x.b"]
    assert table["x.c"] == [1, 1.0, 1.0], table["x.c"]
    assert table["x.d"] == [2, 4.5, 4.5], table["x.d"]


def traced(call):
    tracer = spans.Tracer()
    tracer.install()
    try:
        return call(), tracer.spans
    finally:
        tracer.restore()


def test_no_wrapper_left(tmp: Path):
    originals = (spla.splu, sgpde.timestep.Propagator.step, sgpde.harness.sweep,
                 sgpde.harness.prolong, sgpde.cli.solve_single)
    cfg = sgpde.harness.load_config(TINY)
    report, sweep_spans = traced(lambda: sgpde.harness.sweep(cfg))
    assert report.passed
    names = {s[0] for s in sweep_spans}
    for name in ("harness.sweep", "timestep.evolve", "timestep.step", "timestep.factor",
                 "sgsystem.assemble_block_operator", "spatial.l2_error"):
        assert name in names, name
    for name, t0, t1, parent, _ in sweep_spans:
        assert t1 >= t0
        if name == "timestep.step":
            assert sweep_spans[parent][0] == "timestep.evolve"
        if name == "timestep.factor":
            assert sweep_spans[parent][0] == "timestep.step"
    metrics = spans.layer_metrics(sweep_spans)
    assert metrics["timestep.step.calls"] > 0 and metrics["timestep.lu_nnz_max"] > 0
    assert spans.leftover_wrappers() == []

    config_path = tmp / "tiny.json"
    config_path.write_text(sgpde.harness.load_config(TINY).to_canonical_json())
    with contextlib.redirect_stdout(io.StringIO()):
        code, solve_spans = traced(lambda: sgpde.cli.main(["solve", str(config_path)]))
    assert code == 0
    assert any(s[0] == "cli.cmd_solve" for s in solve_spans)
    assert spans.leftover_wrappers() == []
    now = (spla.splu, sgpde.timestep.Propagator.step, sgpde.harness.sweep,
           sgpde.harness.prolong, sgpde.cli.solve_single)
    assert all(a is b for a, b in zip(originals, now))
    return check.report_outputs(report)


def test_output_check(outputs: dict):
    rtol = 1e-7
    ops = check.sweep_operations(outputs)
    assert check.check_sweep(outputs, outputs, 1.0, rtol) == []
    scaled = copy.deepcopy(outputs)
    for row in scaled["joint"]:
        row[3] *= 1.5
    for axis in scaled["axes"].values():
        axis["errors"] = [e * 1.5 for e in axis["errors"]]
    assert check.check_sweep(scaled, outputs, 1.5, rtol) == []

    bumped = copy.deepcopy(outputs)
    bumped["axes"]["m"]["errors"][0] *= 1.0 + 10 * rtol
    assert check.check_sweep(bumped, outputs, 1.0, rtol) == ["m[0]"]
    bumped = copy.deepcopy(outputs)
    bumped["joint"][-1][3] *= 1.0 - 10 * rtol
    assert check.check_sweep(bumped, outputs, 1.0, rtol) == [f"joint[{len(outputs['joint']) - 1}]"]
    fitted = [axis for axis, res in outputs["axes"].items() if res["slope"] is not None]
    assert fitted, outputs["axes"]
    bumped = copy.deepcopy(outputs)
    bumped["axes"][fitted[0]]["slope"] += 1e-3
    points = len(outputs["axes"][fitted[0]]["errors"])
    assert check.check_sweep(bumped, outputs, 1.0, rtol) == [f"{fitted[0]}[{i}]" for i in range(points)]
    bumped = copy.deepcopy(outputs)
    bumped["passed"] = False
    assert len(check.check_sweep(bumped, outputs, 1.0, rtol)) == ops
    assert len(check.check_sweep(None, outputs, 1.0, rtol)) == ops

    finest = outputs["joint"][-1][3]
    assert check.check_solve(f"... error = {finest:.6e}\n", outputs, 1.0, rtol)
    assert not check.check_solve(f"... error = {finest * 1.00001:.6e}\n", outputs, 1.0, rtol)
    assert not check.check_solve("Traceback ...", outputs, 1.0, rtol)


def main() -> int:
    tmp = ROOT / ".perfbench" / "selftest"
    tmp.mkdir(parents=True, exist_ok=True)
    test_self_time_arithmetic()
    print("PASS self-time arithmetic on nested spans")
    outputs = test_no_wrapper_left(tmp)
    print("PASS traced sweep and solve leave no wrapper installed")
    test_output_check(outputs)
    print("PASS output check rejects perturbed errors, slopes and reports")
    return 0


if __name__ == "__main__":
    sys.exit(main())
