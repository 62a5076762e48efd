"""Acceptance suite: end-to-end checks of the advertised rates and invariants.

Each numbered test is one acceptance criterion with a pinned tolerance and
a wall-clock budget, and prints a single PASS line on success; pytest
itself reports the failures.
"""

import math
import time

import numpy as np
import pytest

import oracles
from sgpde.coeffs import coefficient_by_name, initial_datum_by_name
from sgpde.harness import error_norm_H, load_config, sweep
from sgpde.orthopoly import gauss_rule, hermite, jacobi, laguerre
from sgpde.pce import (
    distribution,
    multi_index_set,
    pce_project,
    tensor_basis_matrix,
    tensor_quad,
)
from sgpde.sgsystem import assemble_block_operator, spatial_operators
from sgpde.spatial import (
    assemble_mass,
    assemble_stiffness,
    make_fe_space,
    make_mesh,
)
from sgpde.timestep import (
    Propagator,
    banded_pair,
    crank_nicolson,
    implicit_euler,
)

FAMILIES = [hermite(), jacobi(1.0, 2.0), laguerre(0.5)]


def elapsed_under(t0: float, limit: float) -> float:
    dt = time.perf_counter() - t0
    assert dt < limit, f"runtime {dt:.1f}s exceeds {limit}s"
    return dt


def test_acceptance_01_orthopoly_exactness():
    t0 = time.perf_counter()
    for family in FAMILIES:
        for k in range(9):
            h_k = oracles.orthonormal_coeffs(family, k)
            rhs = oracles.sl_eigenvalue(family, k) * h_k
            diff = (oracles.apply_Q(family, h_k) - rhs).coef
            assert np.max(np.abs(diff)) <= 1e-10 * max(1.0, np.max(np.abs(rhs.coef)))
        for q in range(1, 21):
            rule = gauss_rule(family, q)
            for j in range(2 * q):
                got = float(np.dot(rule.weights, rule.nodes**j))
                want = oracles.moment(family, j)
                scale = max(1.0, abs(want), float(np.dot(rule.weights, np.abs(rule.nodes) ** j)))
                assert abs(got - want) <= 1e-10 * scale, (family.kind, q, j)
    dt = elapsed_under(t0, 1.0)
    print(f"\nACCEPTANCE 1 PASS: eigenrelations and Gauss moments exact ({dt:.2f}s)")


def test_acceptance_02_triple_product_oracle_equivalence():
    # the tensor is a test oracle (no solve uses it): this pins it to a dense
    # quadrature, and acceptance 4 checks the library operator itself
    t0 = time.perf_counter()
    dists = [
        distribution(hermite()),
        distribution(jacobi(1.0, 2.0)),
        distribution(laguerre(0.5)),
        distribution(hermite(), hermite()),
        distribution(jacobi(0.0, 0.0), jacobi(0.0, 0.0)),
        distribution(laguerre(0.0), laguerre(0.0)),
    ]
    n = 4
    for dist in dists:
        eps = oracles.loop_triple_products(dist, n)
        nodes, weights = tensor_quad(dist, 50)
        phi2 = tensor_basis_matrix(dist, eps.mis2, nodes)
        phi = tensor_basis_matrix(dist, eps.mis, nodes)
        dense = np.einsum("qa,qb,qc,q->abc", phi2, phi, phi, weights, optimize=True)
        for ai, alpha in enumerate(eps.mis2):
            for bi, beta in enumerate(eps.mis):
                for ci, gamma in enumerate(eps.mis):
                    assert abs(eps.entries.get((alpha, beta, gamma), 0.0) - dense[ai, bi, ci]) <= 1e-10
        for (a, b, c), val in eps.entries.items():
            assert sum(a) <= sum(b) + sum(c)
            assert eps.entries.get((a, c, b)) == val
            if sum(a) <= n:
                for perm in [(b, a, c), (b, c, a), (c, a, b), (c, b, a)]:
                    assert eps.entries.get(perm) == val
    dt = elapsed_under(t0, 10.0)
    print(f"\nACCEPTANCE 2 PASS: triple products match the dense oracle ({dt:.2f}s)")


def test_acceptance_03_pce_bound():
    t0 = time.perf_counter()
    q = 60
    f = lambda z: math.exp(z[0] / 2.0)
    for family in [hermite(), jacobi(0.0, 0.0), laguerre(0.0)]:
        dist = distribution(family)
        nodes, weights = tensor_quad(dist, q)
        fvals = np.array([f(z) for z in nodes])
        for ell in (1, 2):
            derivs = {
                (k,): (lambda z, k=k: 2.0 ** (-k) * math.exp(z[0] / 2.0))
                for k in range(2 * ell + 1)
            }
            norm = oracles.weighted_sobolev_norm(dist, derivs, 2 * ell, q=q)
            c = oracles.pce_error_constant(dist, ell)
            for n in range(2, 11):
                mis = multi_index_set(1, n)
                v = pce_project(dist, mis, fvals, q=q)
                recon = tensor_basis_matrix(dist, mis, nodes) @ v
                err = math.sqrt(float(np.dot(weights, (recon - fvals) ** 2)))
                assert err <= c * n ** (-ell) * norm * (1.0 + 1e-10), (family.kind, ell, n)
    dt = elapsed_under(t0, 5.0)
    print(f"\nACCEPTANCE 3 PASS: chaos truncation bound holds ({dt:.2f}s)")


def test_acceptance_04_block_system_equivalence():
    t0 = time.perf_counter()
    dist = distribution(hermite())
    fields = [
        coefficient_by_name("constant", value=1.3, dim=1),
        oracles.affine_field(slope=0.5),
        coefficient_by_name("logistic_1d"),
    ]
    for m in (4, 8):
        space = make_fe_space(make_mesh(1, m), 1)
        for field in fields:
            for n in (0, 1, 2):
                q = 2 * n + 3
                ops = spatial_operators(space, field)
                op = assemble_block_operator(dist, multi_index_set(1, n), ops, q)
                oracle = oracles.brute_force_rnarn(dist, n, space, field, q)
                dev = np.max(np.abs(op.matrix.toarray() - oracle))
                assert dev <= 1e-8, (field.name, m, n, dev)
    dt = elapsed_under(t0, 10.0)
    print(f"\nACCEPTANCE 4 PASS: assembled operator equals the collocation oracle ({dt:.2f}s)")


def test_acceptance_05_structural_invariants():
    t0 = time.perf_counter()
    dist = distribution(hermite())
    field = coefficient_by_name("logistic_anisotropic")
    space = make_fe_space(make_mesh(2, 3), 2)
    op = assemble_block_operator(dist, multi_index_set(1, 2), spatial_operators(space, field), q=20)
    assert (abs(op.matrix - op.matrix.T)).max() == 0.0
    gram = oracles.block_gram(op, assemble_stiffness(space, 1.0))
    lam_coercive = oracles.min_generalized_eigenvalue(op.matrix, gram)
    kappa, _ = oracles.declared_bounds("logistic_anisotropic")
    assert lam_coercive >= kappa - 1e-6
    block_mass = oracles.block_gram(op, op.spatial.mass)
    lam_resolvent = oracles.min_generalized_eigenvalue(op.matrix, block_mass)
    assert lam_resolvent >= -1e-10
    dt = elapsed_under(t0, 10.0)
    print(
        f"\nACCEPTANCE 5 PASS: symmetry exact, coercivity {lam_coercive:.6f} >= 1, "
        f"resolvent eig {lam_resolvent:.2e} ({dt:.2f}s)"
    )


def test_acceptance_06_time_rates():
    t0 = time.perf_counter()
    space = make_fe_space(make_mesh(1, 128), 2)
    mass = assemble_mass(space)
    stiff = assemble_stiffness(space, 2.0)
    u0 = oracles.l2_project(space, lambda x: np.sin(math.pi * x[:, 0]))
    t_final = 0.1
    amp = oracles.heat_amplitude(2.0, 1, t_final)
    slopes = {}
    for scheme, name in ((implicit_euler(), "implicit_euler"), (crank_nicolson(), "crank_nicolson")):
        errs, taus = [], []
        for n_k in (8, 16, 32, 64, 128):
            final = oracles.march(scheme, t_final, n_k, mass, stiff, u0)
            errs.append(
                oracles.sampled_l2_error(space, final, lambda x: amp * np.sin(math.pi * x[:, 0]))
            )
            taus.append(t_final / n_k)
        slopes[name] = float(np.polyfit(np.log(taus), np.log(errs), 1)[0])
    assert slopes["implicit_euler"] == pytest.approx(1.0, abs=0.1)
    assert slopes["crank_nicolson"] == pytest.approx(2.0, abs=0.15)
    for tau in (10.0, 1.0, 0.01):
        prop = Propagator(implicit_euler(), banded_pair(mass, stiff), tau)
        u = u0
        energy = u @ (mass @ u)
        for _ in range(3):
            u = prop.step(u)
            e_next = u @ (mass @ u)
            assert e_next <= energy + 1e-10
            energy = e_next
    dt = elapsed_under(t0, 30.0)
    print(
        f"\nACCEPTANCE 6 PASS: time orders IE {slopes['implicit_euler']:.3f}, "
        f"CN {slopes['crank_nicolson']:.3f}; energy decay unconditional ({dt:.2f}s)"
    )


def test_acceptance_07_space_rates():
    t0 = time.perf_counter()
    ms = [8, 16, 32, 64]
    hs = [1.0 / m for m in ms]
    t_final = 0.1
    amp = oracles.heat_amplitude(1.0, 1, t_final)
    results = {}
    for order, min_slope in ((1, 1.8), (2, 2.8)):
        stat_errs, evol_errs = [], []
        for m in ms:
            space = make_fe_space(make_mesh(1, m), order)
            u_stat = oracles.stationary_solve(
                space, 1.0, lambda x: math.pi**2 * np.sin(math.pi * x[:, 0])
            )
            stat_errs.append(
                oracles.sampled_l2_error(space, u_stat, lambda x: np.sin(math.pi * x[:, 0]))
            )
            mass = assemble_mass(space)
            stiff = assemble_stiffness(space, 1.0)
            u0 = oracles.l2_project(space, lambda x: np.sin(math.pi * x[:, 0]))
            final = oracles.march(crank_nicolson(), t_final, 1024, mass, stiff, u0)
            evol_errs.append(
                oracles.sampled_l2_error(space, final, lambda x: amp * np.sin(math.pi * x[:, 0]))
            )
        stat_slope = float(np.polyfit(np.log(hs), np.log(stat_errs), 1)[0])
        evol_slope = float(np.polyfit(np.log(hs), np.log(evol_errs), 1)[0])
        assert stat_slope >= min_slope, (order, stat_slope)
        assert abs(evol_slope - stat_slope) <= 0.25, (order, stat_slope, evol_slope)
        results[order] = (stat_slope, evol_slope)
    dt = elapsed_under(t0, 60.0)
    print(
        f"\nACCEPTANCE 7 PASS: stationary/evolution slopes P1 {results[1][0]:.2f}/{results[1][1]:.2f}, "
        f"P2 {results[2][0]:.2f}/{results[2][1]:.2f} ({dt:.2f}s)"
    )


def test_acceptance_08_randomness_semidiscretization():
    t0 = time.perf_counter()
    cfg = load_config(
        {
            "distribution": [{"kind": "hermite"}],
            "coefficient": {"name": "logistic_1d"},
            "initial_datum": {"name": "sine_modes", "params": {"modes": [[1, 1.0]]}},
            "geometry": {"dim": 1, "fe_order": 2},
            "sweep": {"n": [1, 2, 3, 4, 5, 6], "m": [128], "n_k": [256]},
            "scheme": "crank_nicolson",
            "t_final": 0.6,
            "quad_order": 30,
            "reference": {"kind": "analytic"},
            "tolerances": {
                "n": {"decreasing": True, "superalgebraic": True, "max_final_error": 1e-5}
            },
        }
    )
    report = sweep(cfg)
    errors = report.axes["n"].errors
    assert report.checks["n_decreasing"], errors
    assert report.checks["n_superalgebraic"], report.axes["n"].half_split
    assert report.checks["n_final_error"], errors[-1]
    assert report.passed
    dt = elapsed_under(t0, 300.0)
    first, second = report.axes["n"].half_split
    print(
        f"\nACCEPTANCE 8 PASS: chaos error strictly decreasing to {errors[-1]:.2e} < 1e-5, "
        f"local rates {first:.2f} -> {second:.2f} ({dt:.2f}s)"
    )


def test_acceptance_09_joint_behavior():
    t0 = time.perf_counter()
    cfg = load_config(
        {
            "distribution": [{"kind": "hermite"}],
            "coefficient": {"name": "logistic_1d"},
            "initial_datum": {"name": "sine_modes", "params": {"modes": [[1, 1.0]]}},
            "geometry": {"dim": 1, "fe_order": 1},
            "sweep": {
                "n": [1, 2, 3, 4, 5, 6, 7],
                "m": [4, 6, 8, 12, 64],
                "n_k": [64, 128, 256, 512, 16384],
            },
            "scheme": "implicit_euler",
            "t_final": 0.6,
            "quad_order": 30,
            "reference": {"kind": "analytic"},
            "tolerances": {
                "n": {"decreasing": True, "superalgebraic": True, "max_final_error": 1e-5},
                "m": {"min_slope": 1.8},
                "n_k": {"slope": 1.0, "tol": 0.1},
                "joint": {"allowed_increase": 0.05},
            },
        }
    )
    report = sweep(cfg)
    assert report.passed, report.checks
    m_slope = report.axes["m"].fit.slope
    t_slope = report.axes["n_k"].fit.slope
    dt = elapsed_under(t0, 600.0)
    print(
        f"\nACCEPTANCE 9 PASS: one run gives space slope {m_slope:.2f} >= 1.8, "
        f"time slope {t_slope:.2f} = 1.0 +- 0.1, accelerating chaos decay ({dt:.1f}s)"
    )


def test_acceptance_10_2d_smoke():
    t0 = time.perf_counter()
    cfg = load_config(
        {
            "distribution": [{"kind": "hermite"}],
            "coefficient": {"name": "logistic_anisotropic"},
            "initial_datum": {"name": "product_sine"},
            "geometry": {"dim": 2, "fe_order": 2},
            "sweep": {"n": [1, 2], "m": [4, 8], "n_k": [8, 16]},
            "scheme": "crank_nicolson",
            "t_final": 0.1,
            "quad_order": 20,
            "reference": {"kind": "collocation", "m_ref": 16, "n_k_ref": 64},
            "strict_reference": False,
            "tolerances": {
                "n": {"decreasing": True},
                "m": {"decreasing": True},
                "n_k": {"decreasing": True},
                "joint": {"allowed_increase": 0.05},
            },
        }
    )
    report = sweep(cfg)
    assert report.passed, report.checks
    dt = elapsed_under(t0, 900.0)
    errs = {axis: r.errors for axis, r in report.axes.items()}
    print(f"\nACCEPTANCE 10 PASS: 2D errors decrease along every axis {errs} ({dt:.1f}s)")
