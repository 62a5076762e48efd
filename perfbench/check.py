"""Output check: compare a sweep's or a solve's results with the stored ones.

Expected results live in ``perfbench/expected/<workload>.json`` and were
taken at amplitude 1. A run at amplitude ``scale`` must reproduce every
error times ``scale`` and every fitted slope unchanged, to a relative
tolerance. One operation is one reported sweep point (a joint row or an axis
point) or one ``sgpde solve``.
"""

from __future__ import annotations

import re

# sgpde solve prints the error with "%.6e": 7 significant digits
SOLVE_PRINT_RTOL = 0.5e-6
SOLVE_LINE = re.compile(r"error = ([-+0-9.eE]+)")


def report_outputs(report) -> dict:
    """The parts of a ``ConvergenceReport`` that the check compares."""
    return {
        "passed": report.passed,
        "joint": [[r["n"], r["m"], r["n_k"], r["error"]] for r in report.joint],
        "axes": {
            axis: {
                "values": list(res.values),
                "errors": list(res.errors),
                "slope": res.fit.slope if res.fit else None,
            }
            for axis, res in report.axes.items()
        },
    }


def sweep_operations(expected: dict) -> int:
    return len(expected["joint"]) + sum(len(a["errors"]) for a in expected["axes"].values())


def _close(got, want, rtol: float) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return abs(got - want) <= rtol * abs(want)


def check_sweep(outputs: dict | None, expected: dict, scale: float, rtol: float) -> list[str]:
    """Labels of the failed operations of one sweep; empty when all match.

    A missing result (the sweep raised) or ``report.passed == False`` fails
    every operation; a wrong slope fails every point of its axis.
    """
    every = [f"joint[{i}]" for i in range(len(expected["joint"]))]
    for axis, exp in expected["axes"].items():
        every += [f"{axis}[{i}]" for i in range(len(exp["errors"]))]
    if outputs is None or not outputs["passed"]:
        return every
    failed = []
    got_joint = outputs["joint"]
    for i, want in enumerate(expected["joint"]):
        got = got_joint[i] if i < len(got_joint) else None
        if got is None or got[:3] != want[:3] or not _close(got[3], scale * want[3], rtol):
            failed.append(f"joint[{i}]")
    for axis, exp in expected["axes"].items():
        got = outputs["axes"].get(axis)
        labels = [f"{axis}[{i}]" for i in range(len(exp["errors"]))]
        if got is None or got["values"] != exp["values"] or not _close(got["slope"], exp["slope"], rtol):
            failed += labels
            continue
        failed += [
            label for label, g, w in zip(labels, got["errors"], exp["errors"])
            if not _close(g, scale * w, rtol)
        ]
    return failed


def check_solve(stdout: str | None, expected: dict, scale: float, rtol: float) -> bool:
    """True when ``sgpde solve`` printed the finest point's expected error."""
    match = SOLVE_LINE.search(stdout or "")
    if match is None:
        return False
    got = float(match.group(1))
    want = scale * expected["joint"][-1][3]
    return abs(got - want) <= rtol * abs(want) + SOLVE_PRINT_RTOL * abs(got)
