"""Command-line interface: solve, converge, check."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .coeffs import coefficient_by_name
from .harness import build_reference, error_norm_H, load_config, sweep, write_outputs, OperatorCache, solve_single
from .orthopoly import eval_orthonormal, gauss_rule, hermite, jacobi, laguerre, orthonormal_coeffs, apply_Q, sl_eigenvalue
from .pce import distribution, multi_index_set
from .sgsystem import assemble_block_operator, spatial_operators
from .spatial import assemble_stiffness, make_fe_space, make_mesh
from .timestep import Propagator, a_stability_probe, implicit_euler, crank_nicolson


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    cache = OperatorCache(cfg)
    n, m, n_k = (max(cfg.sweep[k]) for k in ("n", "m", "n_k"))
    state, space = solve_single(cache, n, m, n_k)
    err = error_norm_H(cfg.dist, state, space, build_reference(cache, estimate_error=False))
    print(f"n = {n}, m = {m}, n_k = {n_k}: error = {err:.6e}")
    if args.state_out:
        Path(args.state_out).parent.mkdir(parents=True, exist_ok=True)
        np.savez(args.state_out, coeffs=state.coeffs, time=state.time,
                 indices=np.array(state.mis.indices))
        print(f"wrote final state to {args.state_out}")
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


def invariant_suite() -> list[tuple[str, bool, str]]:
    """Library-wide invariant checks, printable as one line per item."""
    results = []

    def record(name, ok, detail=""):
        results.append((name, bool(ok), detail))

    for family, label in ((hermite(), "hermite"), (jacobi(1.0, 2.0), "jacobi"), (laguerre(0.5), "laguerre")):
        rule = gauss_rule(family, 12)
        h = eval_orthonormal(family, 8, rule.nodes)
        gram = (h * rule.weights) @ h.T
        record(f"orthonormality[{label}]", np.max(np.abs(gram - np.eye(9))) < 1e-10)
        ok = True
        for k in range(9):
            hk = orthonormal_coeffs(family, k)
            rhs = sl_eigenvalue(family, k) * hk
            scale = max(1.0, float(np.max(np.abs(rhs.coef))))
            ok = ok and float(np.max(np.abs((apply_Q(family, hk) - rhs).coef))) <= 1e-10 * scale
        record(f"eigenrelation[{label}]", ok)

    for scheme, label in ((implicit_euler(), "implicit_euler"), (crank_nicolson(), "crank_nicolson")):
        bmax, imax = a_stability_probe(scheme)
        record(f"a_stability[{label}]", bmax <= 1.0 + 1e-12 and imax < 1.0, f"boundary {bmax:.3e}")

    dist = distribution(hermite())
    space = make_fe_space(make_mesh(1, 8), 2)
    ops = spatial_operators(space, coefficient_by_name("logistic_1d"))
    op = assemble_block_operator(dist, multi_index_set(1, 2), ops, q=20)
    record("block_symmetry", op.symmetry_defect() == 0.0)
    lam = op.min_resolvent_eigenvalue()
    record("resolvent_contractivity", lam >= -1e-10, f"min eig {lam:.3e}")

    mass = ops.mass
    stiff = assemble_stiffness(space, 1.0)
    u = np.linspace(0.0, 1.0, space.ndof)
    ok = True
    for tau in (10.0, 1.0, 0.01):
        v = Propagator(implicit_euler(), mass, stiff, tau).step(u)
        ok = ok and (v @ (mass @ v)) <= (u @ (mass @ u)) + 1e-10
    record("energy_decay[implicit_euler]", ok)
    return results


def cmd_check(args) -> int:
    results = invariant_suite()
    worst = 0
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))
        worst = max(worst, 0 if ok else 1)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="sgpde", description=__doc__)
    parser.add_argument("--version", action="version", version=f"sgpde {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run a single configuration at the finest sweep point")
    p.add_argument("config")
    p.add_argument("--state-out", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("converge", help="run the full convergence sweep for a config")
    p.add_argument("config")
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("check", help="run the library invariant suite")
    p.set_defaults(func=cmd_check)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # a bad value in the config
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
