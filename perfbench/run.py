"""Benchmark of sgpde convergence sweeps, run from the root of a checkout.

    python3 perfbench/run.py --workload joint_1d --seed 1 --seconds 40 --trace 0
    for w in joint_1d colloc_2d stretch_2d_n2; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 40 --trace 0; done
    python3 perfbench/selftest.py          # the benchmark's own machinery

Workloads, their configs and why each was chosen are in
``perfbench/workloads.json``. For ``--seconds`` seconds this script repeats a
cycle of fresh child processes, one at a time:

* ``--trace 0``: an untraced ``sweep(cfg)`` (giving ``sweep_s``,
  ``setup_s`` and ``peak_rss_mb``) and an ``sgpde solve <config>``
  subprocess (giving ``solve_s``). End-to-end metrics are medians.
* ``--trace 1``: an untraced sweep and a traced sweep plus traced
  ``sgpde solve`` (see ``spans.py``). Per-layer metrics are medians over the
  traced children; ``trace_overhead_s`` is the traced minus the untraced
  median ``sweep_s``.

Every sweep and solve is checked against ``perfbench/expected`` (see
``check.py``). The seed sets the initial-datum amplitude. Children run
with one BLAS/OpenMP thread and ``PYTHONPATH=src``. The last line of
standard output is the JSON result; a full record with every sample and the
provenance goes to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_CYCLES = 3
# a run must end within 180 s; no new cycle starts after this many seconds
HARD_STOP_S = 120.0
CHILD_TIMEOUT_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
THREADS = "1"
COUNT_SUFFIXES = (".calls", "_max", ".steps_per_factor", ".solve_cache_hit_ratio")
END_TO_END_UNITS = {"sweep_s": "s", "solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class ChildError(RuntimeError):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update({var: THREADS for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def amplitude_for(seed: int, spec: dict) -> float:
    return random.Random(seed).uniform(spec["low"], spec["high"])


def scaled_config(config: dict, amplitude: float) -> dict:
    """The workload config with its initial datum multiplied by ``amplitude``."""
    cfg = json.loads(json.dumps(config))
    datum = cfg["initial_datum"]
    params = datum.setdefault("params", {})
    if datum["name"] == "sine_modes":
        params["modes"] = [[j, c * amplitude] for j, c in params["modes"]]
    elif datum["name"] == "product_sine":
        params["amplitude"] = params.get("amplitude", 1.0) * amplitude
    else:
        raise ValueError(f"no amplitude parameter for initial datum {datum['name']!r}")
    return cfg


def run_child(mode: str, config_path: Path, env: dict, timeout: float) -> dict:
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), mode, str(config_path), repr(spawned)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise ChildError(f"{mode} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise ChildError(f"{mode} child printed nothing")
    result = json.loads(lines[-1])
    if not Path(result["sgpde_file"]).resolve().is_relative_to(SRC):
        raise ChildError(f"imported sgpde from {result['sgpde_file']}, not from {SRC}")
    return result


def run_solve(config_path: Path, env: dict, timeout: float) -> tuple[float, str]:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "sgpde.cli", "solve", str(config_path)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise ChildError(f"sgpde solve exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return wall, proc.stdout


def provenance(env: dict) -> dict:
    probe = subprocess.run(
        [sys.executable, "-c",
         "import json, platform, numpy, scipy, sgpde.cli; print(json.dumps({"
         "'python': platform.python_version(), 'numpy': numpy.__version__, "
         "'scipy': scipy.__version__, 'sgpde': sgpde.__version__}))"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        git_sha = out.stdout.strip() or None
    return {
        **json.loads(probe.stdout),
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "threads": {var: env[var] for var in THREAD_VARS},
        "git_sha": git_sha,
        "source_sha256": digest.hexdigest(),
    }


def tail(values: list[float]) -> tuple[int, float] | None:
    """Highest integer percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, ordered[max(rank - 1, 0)]
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sgpde" / "__init__.py").is_file():
        print(f"no sgpde sources at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((HERE / "workloads.json").read_text())
    if args.workload not in spec["workloads"]:
        print(f"unknown workload {args.workload!r}; have {sorted(spec['workloads'])}",
              file=sys.stderr)
        return 2
    workload = spec["workloads"][args.workload]
    expected = json.loads((HERE / "expected" / f"{args.workload}.json").read_text())
    rtol = spec["output_check"]["rtol"]
    amplitude = amplitude_for(args.seed, spec["amplitude"])

    out_dir = ROOT / ".perfbench"
    run_dir = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    config_path = run_dir / "config.json"
    config_path.write_text(json.dumps(scaled_config(workload["config"], amplitude)))
    env = child_env()

    started = time.monotonic()
    prov = provenance(env)  # also the warm-up: compiles sgpde's bytecode
    samples: dict[str, list] = {"sweep_s": [], "setup_s": [], "peak_rss_mb": [], "solve_s": [],
                                "traced_sweep_s": [], "layers": [], "tables": []}
    attempted = failed = 0
    problems: list[str] = []
    deadline = time.monotonic() + args.seconds
    cycles = 0
    cycle_s: list[float] = []

    def timeout() -> float:
        return max(CHILD_TIMEOUT_S - (time.monotonic() - started), 1.0)

    def sweep_sample(mode: str) -> dict | None:
        nonlocal attempted, failed
        ops = check.sweep_operations(expected)
        attempted += ops
        try:
            result = run_child(mode, config_path, env, timeout())
        except (ChildError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            failed += ops
            problems.append(f"{mode} sweep: {exc}")
            return None
        bad = check.check_sweep(result["outputs"], expected, amplitude, rtol)
        failed += len(bad)
        if bad:
            problems.append(f"{mode} sweep: outputs differ at {bad}")
        return result

    def solve_checked(stdout: str | None, where: str) -> None:
        nonlocal attempted, failed
        attempted += 1
        if not check.check_solve(stdout, expected, amplitude, rtol):
            failed += 1
            problems.append(f"{where}: unexpected output {stdout!r}")

    # a cycle starts only if it is expected to end within half a cycle of
    # the deadline, so runs of different speeds measure about equally long
    while cycles < MIN_CYCLES or (
        time.monotonic() + statistics.median(cycle_s) / 2 < deadline
    ):
        cycle_start = time.monotonic()
        if cycle_start - started > HARD_STOP_S:
            problems.append(f"stopped after {cycles} cycles at the {HARD_STOP_S:.0f} s limit")
            break
        result = sweep_sample("sweep")
        if result is not None:
            for key in ("sweep_s", "setup_s", "peak_rss_mb"):
                samples[key].append(result[key])
        if args.trace:
            result = sweep_sample("traced")
            if result is not None:
                samples["traced_sweep_s"].append(result["sweep_s"])
                samples["layers"].append(result["layers"])
                samples["tables"].append(result["table"])
                solve_checked(result["solve_stdout"], "traced sgpde solve")
            else:
                attempted += 1
                failed += 1
        else:
            try:
                wall, stdout = run_solve(config_path, env, timeout())
                samples["solve_s"].append(wall)
            except (ChildError, subprocess.TimeoutExpired) as exc:
                problems.append(str(exc))
                stdout = None
            solve_checked(stdout, "sgpde solve")
        cycles += 1
        cycle_s.append(time.monotonic() - cycle_start)
    measured_s = time.monotonic() - started

    needed = ["sweep_s"] + (["traced_sweep_s"] if args.trace else ["solve_s", "setup_s", "peak_rss_mb"])
    missing = [key for key in needed if not samples[key]]
    if missing:
        print(f"no successful samples for {missing}:", *problems, sep="\n  ", file=sys.stderr)
        return 1

    print(f"workload {args.workload}, seed {args.seed}, amplitude {amplitude:.6f}, "
          f"trace {args.trace}, {cycles} cycles in {measured_s:.1f} s")
    print(f"  {workload['why']}")
    if args.trace:
        metrics, table = layer_summary(samples, problems)
        print_layer_table(table, statistics.median(samples["traced_sweep_s"]))
    else:
        metrics = {}
        print(f"{'metric':<12} {'unit':<4} {'median':>10} {'tail':>16} {'samples':>8}")
        for key, unit in END_TO_END_UNITS.items():
            values = samples[key]
            metrics[key] = {"value": statistics.median(values), "unit": unit}
            t = tail(values)
            tail_text = f"p{t[0]} {t[1]:.4f}" if t else "n/a (<11 samples)"
            print(f"{key:<12} {unit:<4} {metrics[key]['value']:>10.4f} {tail_text:>16} "
                  f"{len(values):>8}")
    print(f"points_failed/points_attempted: {failed}/{attempted}")
    for problem in problems:
        print(f"  problem: {problem}")
    print("provenance " + json.dumps(prov, sort_keys=True))

    record = {"workload": args.workload, "seed": args.seed, "amplitude": amplitude,
              "trace": args.trace, "seconds": args.seconds, "cycles": cycles,
              "provenance": prov, "samples": samples, "problems": problems}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    shutil.rmtree(run_dir, ignore_errors=True)

    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def layer_summary(samples: dict, problems: list[str]) -> tuple[dict, dict]:
    """Per-layer metrics (medians of times, exact counts) and the span table."""
    metrics = {}
    for name in samples["layers"][0]:
        values = [layers[name] for layers in samples["layers"]]
        if name.endswith(COUNT_SUFFIXES):
            if len(set(values)) != 1:
                problems.append(f"count {name} differs between runs: {values}")
            unit = "ratio" if name.endswith(("per_factor", "ratio")) else "count"
            metrics[name] = {"value": values[0], "unit": unit}
        else:
            metrics[name] = {"value": statistics.median(values), "unit": "s"}
    overhead = statistics.median(samples["traced_sweep_s"]) - statistics.median(samples["sweep_s"])
    metrics["trace_overhead_s"] = {"value": overhead, "unit": "s"}
    table = {}
    for name in samples["tables"][0]:
        rows = [t.get(name, [0, 0.0, 0.0]) for t in samples["tables"]]
        table[name] = [rows[0][0], statistics.median(r[1] for r in rows),
                       statistics.median(r[2] for r in rows)]
    return metrics, table


def print_layer_table(table: dict, traced_sweep_s: float) -> None:
    print(f"per-layer spans of the traced sweep ({traced_sweep_s:.3f} s, medians):")
    print(f"  {'span':<40} {'calls':>8} {'self_s':>9} {'total_s':>9} {'self %':>7}")
    for name, (calls, self_s, total_s) in sorted(table.items(), key=lambda kv: -kv[1][1]):
        share = 100.0 * self_s / traced_sweep_s
        print(f"  {name:<40} {calls:>8} {self_s:>9.4f} {total_s:>9.4f} {share:>6.1f}%")


if __name__ == "__main__":
    sys.exit(main())
