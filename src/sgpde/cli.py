"""Command-line interface: solve, converge."""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .harness import build_reference, error_norm_H, load_config, sweep, write_outputs, OperatorCache, solve_single


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    cache = OperatorCache(cfg)
    n, m, n_k = (max(cfg.sweep[k]) for k in ("n", "m", "n_k"))
    state, space = solve_single(cache, n, m, n_k)
    err = error_norm_H(cfg.dist, state, space, build_reference(cache, estimate_error=False))
    print(f"n = {n}, m = {m}, n_k = {n_k}: error = {err:.6e}")
    return 0


def cmd_converge(args) -> int:
    cfg = load_config(args.config)
    report = sweep(cfg)
    for axis, result in report.axes.items():
        slope = f"{result.fit.slope:.3f}" if result.fit else "n/a"
        print(f"axis {axis}: errors {['%.3e' % e for e in result.errors]} slope {slope}")
    for name, ok in report.checks.items():
        print(f"check {name}: {'PASS' if ok else 'FAIL'}")
    paths = write_outputs(cfg, report)
    for p in paths:
        print(f"wrote {p}")
    print(f"overall: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="sgpde", description=__doc__)
    parser.add_argument("--version", action="version", version=f"sgpde {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run a single configuration at the finest sweep point")
    p.add_argument("config")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("converge", help="run the full convergence sweep for a config")
    p.add_argument("config")
    p.set_defaults(func=cmd_converge)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # a bad value in the config
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
