"""One measurement in a fresh interpreter; prints one JSON line.

    python3 perfbench/child.py sweep  <config.json> <spawn time>
    python3 perfbench/child.py traced <config.json> <spawn time>

``sweep`` times ``sgpde.harness.sweep`` with no tracing. Its set-up time
runs from the spawn time (``time.monotonic()`` in the parent just before it
started this process; the clock is system-wide on Linux) to the moment
``sweep`` is entered, so it covers interpreter start, ``import
sgpde.harness`` and ``load_config``. ``traced`` runs the same sweep and then
``sgpde solve`` in-process, each under a fresh :class:`spans.Tracer`.
"""

import sys
import time

MODE, CONFIG, SPAWNED = sys.argv[1], sys.argv[2], float(sys.argv[3])

import sgpde.harness  # noqa: E402  (timed as part of set-up)

cfg = sgpde.harness.load_config(CONFIG)
SETUP_S = time.monotonic() - SPAWNED

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import check  # noqa: E402


def run_sweep() -> dict:
    t0 = time.perf_counter()
    report = sgpde.harness.sweep(cfg)
    sweep_s = time.perf_counter() - t0
    return {"sweep_s": sweep_s, "outputs": check.report_outputs(report)}


def run_traced() -> dict:
    import sgpde.cli
    import spans

    def traced(call):
        tracer = spans.Tracer()
        tracer.install()
        try:
            t0 = time.perf_counter()
            result = call()
            wall = time.perf_counter() - t0
        finally:
            tracer.restore()
        leftover = spans.leftover_wrappers()
        if leftover:
            raise RuntimeError(f"wrappers left installed: {leftover}")
        return result, wall, tracer.spans

    report, sweep_s, sweep_spans = traced(lambda: sgpde.harness.sweep(cfg))
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code, _, solve_spans = traced(lambda: sgpde.cli.main(["solve", CONFIG]))
    if code != 0:
        raise RuntimeError(f"sgpde solve exited with {code}")
    metrics = spans.layer_metrics(sweep_spans)
    metrics.update(spans.solve_layer_metrics(solve_spans))
    return {
        "sweep_s": sweep_s,
        "outputs": check.report_outputs(report),
        "solve_stdout": captured.getvalue(),
        "layers": metrics,
        "table": spans.summarize(sweep_spans),
    }


result = run_sweep() if MODE == "sweep" else run_traced()
result["setup_s"] = SETUP_S
result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
result["sgpde_file"] = sgpde.harness.__file__
print(json.dumps(result))
