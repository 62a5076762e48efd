import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import oracles
from sgpde import sgsystem
from sgpde.coeffs import CoefficientField, InitialDatum, coefficient_by_name, initial_datum_by_name
from sgpde.pce import distribution, multi_index_set, tensor_quad
from sgpde.orthopoly import hermite, jacobi, laguerre
from sgpde.sgsystem import (
    SgState,
    assemble_block_operator,
    initial_coefficients,
    reconstruct_at_nodes,
    spatial_operators,
)
from sgpde.spatial import (
    SolverError,
    assemble_mass,
    assemble_stiffness,
    load_vector,
    make_fe_space,
    make_mesh,
)

H1 = distribution(hermite())


def space_1d(m, order=1):
    return make_fe_space(make_mesh(1, m), order)


def build_operator(dist, n, space, field, q):
    ops = spatial_operators(space, field)
    return assemble_block_operator(dist, multi_index_set(dist.N, n), ops, q)


def spatial_1d(m):
    """Spatial operators of a 1D P1 space; the field does not enter a projection."""
    return spatial_operators(space_1d(m), coefficient_by_name("constant"))


def oracle_operator(dist, n, space, field, q):
    """The chaos-basis operator through the triple-product oracle."""
    mats = oracles.pce_coefficient_matrices(dist, n, space, field, q)
    eps = oracles.loop_triple_products(dist, n)
    return oracles.triple_product_block_operator(mats, eps, multi_index_set(dist.N, n), space)


def test_coefficient_matrices_constant_field():
    space = space_1d(8)
    field = coefficient_by_name("constant", value=2.0, dim=1)
    mats = oracles.pce_coefficient_matrices(H1, 2, space, field, q=8)
    k = assemble_stiffness(space, 2.0)
    assert (abs(mats[(0,)] - k)).max() < 1e-12
    for alpha in ((1,), (2,), (3,), (4,)):
        assert (abs(mats[alpha])).max() < 1e-12 if mats[alpha].nnz else True


def test_coefficient_matrices_affine_field():
    space = space_1d(8)
    field = oracles.affine_field(slope=0.5)
    mats = oracles.pce_coefficient_matrices(H1, 1, space, field, q=8)
    k = assemble_stiffness(space, 1.0)
    assert (abs(mats[(0,)] - k)).max() < 1e-12
    assert (abs(mats[(1,)] - 0.5 * k)).max() < 1e-12
    assert float(abs(mats[(2,)]).max()) < 1e-13


def test_coefficient_matrices_logistic_vs_fine_quadrature_oracle():
    space = space_1d(6)
    field = coefficient_by_name("logistic_1d")
    mats = oracles.pce_coefficient_matrices(H1, 2, space, field, q=60)
    oracle = oracles.pce_coefficient_matrices(H1, 2, space, field, q=200)
    for alpha, mat in oracle.items():
        assert (abs(mats[alpha] - mat)).max() < 1e-9


def test_block_operator_n0_is_mean_stiffness():
    space = space_1d(8)
    field = coefficient_by_name("logistic_1d")
    op = build_operator(H1, 0, space, field, q=40)
    # E[logistic factor] = 1.5 by the symmetry of expit around z = 0
    mean_k = 1.5 * assemble_stiffness(space, 1.0)
    assert (abs(op.matrix - mean_k)).max() < 1e-12


def test_block_operator_constant_field_is_block_diagonal():
    space = space_1d(5)
    field = coefficient_by_name("constant", value=3.0, dim=1)
    op = build_operator(H1, 2, space, field, q=8)
    k = assemble_stiffness(space, 3.0).toarray()
    dense = op.matrix.toarray()
    d, nd = op.block_dim, space.ndof
    for b in range(d):
        for g in range(d):
            blk = dense[b * nd : (b + 1) * nd, g * nd : (g + 1) * nd]
            assert np.max(np.abs(blk - (k if b == g else 0.0))) < 1e-12


def test_block_operator_affine_two_by_two_blocks():
    space = space_1d(8)
    field = oracles.affine_field(slope=0.5)
    op = build_operator(H1, 1, space, field, q=8)
    k = assemble_stiffness(space, 1.0).toarray()
    dense = op.matrix.toarray()
    nd = space.ndof
    assert np.max(np.abs(dense[:nd, :nd] - k)) < 1e-12
    assert np.max(np.abs(dense[:nd, nd:] - 0.5 * k)) < 1e-12
    assert np.max(np.abs(dense[nd:, :nd] - 0.5 * k)) < 1e-12
    assert np.max(np.abs(dense[nd:, nd:] - k)) < 1e-12


def test_block_operator_exactly_symmetric():
    space = space_1d(6, 2)
    field = coefficient_by_name("logistic_1d")
    op = build_operator(H1, 3, space, field, q=30)
    assert (abs(op.matrix - op.matrix.T)).max() == 0.0


def test_missing_coefficient_matrix_raises():
    space = space_1d(4)
    field = coefficient_by_name("constant", value=1.0, dim=1)
    mats = oracles.pce_coefficient_matrices(H1, 1, space, field, q=6)
    eps = oracles.loop_triple_products(H1, 1)
    coupled = {alpha: mat for alpha, mat in mats.items() if alpha != (2,)}
    separable = oracles.SeparableStiffness(
        {alpha: c for alpha, c in mats.coeffs.items() if alpha != (2,)}, mats.spatial
    )
    for partial in (coupled, separable):
        with pytest.raises(ValueError, match="missing coefficient"):
            oracles.triple_product_block_operator(partial, eps, multi_index_set(1, 1), space)


def test_initial_coefficients_deterministic():
    ops = spatial_1d(16)
    u0 = initial_datum_by_name("sine_modes", modes=[(1, 1.0)])
    state = initial_coefficients(H1, multi_index_set(1, 2), u0, ops, q=8)
    proj = oracles.l2_project(ops.space, lambda x: np.sin(math.pi * x[:, 0]))
    assert np.max(np.abs(state.coeffs[0] - proj)) < 1e-10
    assert np.max(np.abs(state.coeffs[1:])) < 1e-12


def test_initial_coefficients_first_mode():
    ops = spatial_1d(16)
    u0 = InitialDatum(
        dim=1, sample=lambda z: (lambda x: z[0] * np.sin(math.pi * x[:, 0])), name="h1_sine"
    )
    state = initial_coefficients(H1, multi_index_set(1, 2), u0, ops, q=8)
    proj = oracles.l2_project(ops.space, lambda x: np.sin(math.pi * x[:, 0]))
    assert np.max(np.abs(state.coeffs[1] - proj)) < 1e-10
    assert np.max(np.abs(state.coeffs[0])) < 1e-12
    assert np.max(np.abs(state.coeffs[2])) < 1e-12


def test_initial_coefficients_square_mode():
    ops = spatial_1d(16)
    u0 = InitialDatum(
        dim=1, sample=lambda z: (lambda x: z[0] ** 2 * np.sin(math.pi * x[:, 0])), name="h2_sine"
    )
    state = initial_coefficients(H1, multi_index_set(1, 3), u0, ops, q=10)
    proj = oracles.l2_project(ops.space, lambda x: np.sin(math.pi * x[:, 0]))
    assert np.max(np.abs(state.coeffs[0] - proj)) < 1e-10
    assert np.max(np.abs(state.coeffs[2] - math.sqrt(2.0) * proj)) < 1e-10
    assert np.max(np.abs(state.coeffs[1])) < 1e-11
    assert np.max(np.abs(state.coeffs[3])) < 1e-11


@pytest.mark.parametrize(
    "field_name,kwargs,n",
    [
        ("constant", {"value": 1.3, "dim": 1}, 0),
        ("constant", {"value": 1.3, "dim": 1}, 2),
        ("affine", {"slope": 0.5}, 1),
        ("affine", {"slope": 0.5}, 2),
        ("logistic_1d", {}, 1),
        ("logistic_1d", {}, 2),
    ],
)
def test_block_operator_matches_brute_force(field_name, kwargs, n):
    space = space_1d(8)
    if field_name == "affine":  # a test probe, not a built-in
        field = oracles.affine_field(**kwargs)
    else:
        field = coefficient_by_name(field_name, **kwargs)
    q = 2 * n + 3
    op = build_operator(H1, n, space, field, q=q)
    oracle = oracles.brute_force_rnarn(H1, n, space, field, q=q)
    assert np.max(np.abs(op.matrix.toarray() - oracle)) < 1e-8


def test_block_operator_matches_brute_force_2d_logistic():
    space = make_fe_space(make_mesh(2, 2), 2)
    field = coefficient_by_name("logistic_anisotropic")
    op = build_operator(H1, 1, space, field, q=20)
    oracle = oracles.brute_force_rnarn(H1, 1, space, field, q=20)
    assert np.max(np.abs(op.matrix.toarray() - oracle)) < 1e-8


def test_brute_force_size_guard():
    space = space_1d(600, 2)
    field = coefficient_by_name("constant", value=1.0, dim=1)
    with pytest.raises(ValueError, match="oracle limit"):
        oracles.brute_force_rnarn(H1, 2, space, field, q=6)


def test_block_coercivity_logistic():
    space = space_1d(10, 2)
    field = coefficient_by_name("logistic_1d")
    op = build_operator(H1, 2, space, field, q=30)
    gram = oracles.block_gram(op, assemble_stiffness(space, 1.0))
    rng = np.random.default_rng(4)
    kappa, _ = oracles.declared_bounds("logistic_1d")
    for _ in range(100):
        x = rng.standard_normal(op.size)
        assert x @ (op.matrix @ x) >= kappa * (x @ (gram @ x)) - 1e-10


def test_parseval_consistency():
    space = space_1d(12, 2)
    mis = multi_index_set(1, 3)
    rng = np.random.default_rng(8)
    state = SgState(rng.standard_normal((len(mis), space.ndof)), mis)
    mass = assemble_mass(space)
    block_norm2 = sum(state.coeffs[b] @ (mass @ state.coeffs[b]) for b in range(len(mis)))
    nodes, weights = tensor_quad(H1, 8)
    recon = reconstruct_at_nodes(H1, state, nodes)
    quad_norm2 = sum(w * (u @ (mass @ u)) for w, u in zip(weights, recon))
    assert quad_norm2 == pytest.approx(block_norm2, rel=1e-10)


def test_resolvent_contractive():
    space = space_1d(8, 1)
    field = coefficient_by_name("logistic_1d")
    op = build_operator(H1, 2, space, field, q=30)
    block_mass = oracles.block_gram(op, op.spatial.mass)
    lam_min = oracles.min_generalized_eigenvalue(op.matrix, block_mass)
    assert lam_min >= -1e-10
    rng = np.random.default_rng(9)
    dense_a = op.matrix.toarray()
    dense_m = block_mass.toarray()
    for lam in (0.1, 1.0, 25.0):
        u = rng.standard_normal(op.size)
        v = np.linalg.solve(lam * dense_m + dense_a, lam * (dense_m @ u))
        norm_v = math.sqrt(v @ dense_m @ v)
        norm_u = math.sqrt(u @ dense_m @ u)
        assert norm_v <= norm_u * (1.0 + 1e-10)


def test_aliasing_probe():
    space = space_1d(6)
    probe = oracles.aliasing_probe
    assert probe(H1, 1, space, coefficient_by_name("constant", value=1.0, dim=1), q=12) < 1e-12
    assert probe(H1, 1, space, oracles.affine_field(slope=0.5), q=12) < 1e-12
    probe = probe(H1, 1, space, coefficient_by_name("logistic_1d"), q=40)
    assert 1e-12 < probe < 1.0


def test_block_operator_export_annotates_offsets():
    space = space_1d(4)
    field = oracles.affine_field(slope=0.5)
    op = build_operator(H1, 1, space, field, q=6)
    text = oracles.export_block_operator(op)
    lines = text.splitlines()
    assert lines[0] == f"# block_dim 2 ndof {space.ndof}"
    assert lines[1] == "# block 0 offset 0"
    assert lines[2] == f"# block 1 offset {space.ndof}"
    body = [ln for ln in lines if not ln.startswith("#")]
    r, c, v = body[0].split()
    assert float(v) == op.matrix.toarray()[int(r), int(c)]


def _max_rel(a, b) -> float:
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def _rotated_system_stiffness(op) -> np.ndarray:
    """(V (x) I) (diag(lam) (x) K_g) (V^T (x) I), dense: the chaos-basis
    operator rebuilt from the factors the operator holds."""
    rotate = np.kron(op.eigvecs, np.eye(op.spatial.space.ndof))
    return rotate @ oracles.system_matrices(op)[1].toarray() @ rotate.T


def _non_separable(dim):
    """A field that is not a product f(z) g(x) and reads the last input too;
    its values lie in [1.2, 2.8]."""
    if dim == 1:
        evaluate = lambda z, x: 2.0 + 0.5 * np.tanh(z[0]) * x + 0.3 * np.tanh(z[-1])
    else:
        evaluate = lambda z, x: 2.0 + 0.5 * np.tanh(z[0]) * x[0] + 0.3 * np.tanh(z[-1]) * x[1]
    return oracles.CoupledField(dim=dim, evaluate=evaluate)


@pytest.mark.parametrize(
    "dist,n,space,field_name",
    [
        (H1, 2, make_fe_space(make_mesh(1, 6), 1), "logistic_1d"),
        (distribution(hermite(), hermite()), 2, make_fe_space(make_mesh(2, 2), 2),
         "logistic_anisotropic"),
    ],
    ids=["1d_p1_N1", "2d_p2_N2"],
)
def test_decoupled_operator_matches_bmat_oracle(dist, n, space, field_name):
    field, q = coefficient_by_name(field_name), 2 * n + 9
    mats = oracles.pce_coefficient_matrices(dist, n, space, field, q)
    mis = multi_index_set(dist.N, n)
    oracle = oracles.bmat_block_operator(mats, oracles.loop_triple_products(dist, n), mis).toarray()
    op = assemble_block_operator(dist, mis, spatial_operators(space, field), q)
    # V, lam and K_g factor the operator: V diag(lam) V^T (x) K_g is the oracle
    assert _max_rel(_rotated_system_stiffness(op), oracle) <= 1e-13
    assert _max_rel(op.matrix.toarray(), oracle) <= 1e-13
    # mode rotations are inverse to each other
    u = np.random.default_rng(3).standard_normal((len(mis), space.ndof))
    assert np.allclose(op.to_chaos(op.to_system(u)), u, rtol=0.0, atol=1e-14)


SPACE_1D_P1 = make_fe_space(make_mesh(1, 4), 1)
SPACE_2D_P2 = make_fe_space(make_mesh(2, 2), 2)


@pytest.mark.parametrize(
    "dist,n,q,space,separable",
    [
        (H1, 3, 7, SPACE_1D_P1, True),
        (H1, 6, 30, SPACE_1D_P1, True),
        (distribution(jacobi(1.0, 2.0)), 4, 17, SPACE_1D_P1, True),
        (distribution(laguerre(0.5)), 3, 7, SPACE_1D_P1, True),
        (distribution(hermite(), hermite()), 6, 13, SPACE_2D_P2, True),
        (distribution(jacobi(1.0, 2.0), hermite()), 3, 15, SPACE_2D_P2, True),
        (H1, 3, 7, SPACE_1D_P1, False),
        (distribution(laguerre(0.5)), 2, 13, SPACE_2D_P2, False),
        (distribution(jacobi(1.0, 2.0), hermite()), 2, 5, SPACE_1D_P1, False),
        (distribution(hermite(), laguerre(0.0)), 2, 5, SPACE_2D_P2, False),
    ],
    ids=[
        "1d_p1_hermite_sep", "1d_p1_hermite_n6_sep", "1d_p1_jacobi_sep", "1d_p1_laguerre_sep",
        "2d_p2_hermite2_n6_sep", "2d_p2_jacobi_hermite_sep", "1d_p1_hermite_coupled",
        "2d_p2_laguerre_coupled", "1d_p1_jacobi_hermite_coupled", "2d_p2_hermite_laguerre_coupled",
    ],
)
def test_quadrature_operator_matches_triple_product_oracle(dist, n, q, space, separable):
    # the Gauss node sum equals the triple-product form: the library's G (x) K_g
    # for a separable field, the oracle's coupled node sum for any other
    if separable:
        field = coefficient_by_name("logistic_1d" if space.dim == 1 else "logistic_anisotropic")
        op = build_operator(dist, n, space, field, q)
        got, defect = op.matrix, oracles.symmetry_defect(op)
    else:
        field = _non_separable(space.dim)
        got = oracles.coupled_block_operator(dist, multi_index_set(dist.N, n), space, field, q)
        defect = float(abs(got - got.T).max())
    want = oracle_operator(dist, n, space, field, q).toarray()
    assert _max_rel(got.toarray(), want) <= 1e-13
    assert defect == 0.0
    if separable:
        assert _max_rel(_rotated_system_stiffness(op), want) <= 1e-13


@pytest.mark.parametrize(
    "dist",
    [distribution(laguerre(0.5)), distribution(laguerre(0.0), hermite())],
    ids=["laguerre", "laguerre_hermite"],
)
def test_quadrature_operator_matches_oracle_laguerre_n6(dist):
    # The bound is looser than 1e-13 because of the oracle, not the quadrature
    # path: the oracle sums up to 91 Laguerre chaos terms of degree <= 12 whose
    # coefficients cancel, and measured 1.5e-12 from the quadrature path. For
    # Laguerre(0.5), n = 6, q = 13, a 50-digit reference of the same Gauss sum
    # lies within 3.4e-16 of the quadrature G and 1.2e-13 of the oracle's.
    space = SPACE_1D_P1
    field = coefficient_by_name("logistic_1d")
    op = build_operator(dist, 6, space, field, 13)
    want = oracle_operator(dist, 6, space, field, 13).toarray()
    assert _max_rel(op.matrix.toarray(), want) <= 1e-11
    assert _max_rel(_rotated_system_stiffness(op), want) <= 1e-11


def test_invariants_from_factors_match_the_chaos_basis_matrix():
    space = space_1d(8, 2)
    op = build_operator(H1, 2, space, coefficient_by_name("logistic_1d"), q=30)
    assert oracles.symmetry_defect(op) == 0.0 == float(abs(op.matrix - op.matrix.T).max())
    want = oracles.min_generalized_eigenvalue(op.matrix, oracles.block_gram(op, op.spatial.mass))
    assert oracles.min_resolvent_eigenvalue(op) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("dim,order,m", [(1, 1, 32), (2, 2, 4)])
def test_spatial_pencil_is_checked_and_decomposed_once(monkeypatch, dim, order, m):
    field = coefficient_by_name("logistic_1d" if dim == 1 else "logistic_anisotropic")
    ops = spatial_operators(make_fe_space(make_mesh(dim, m), order), field)
    calls = []
    eigh = scipy.linalg.eigh
    monkeypatch.setattr(scipy.linalg, "eigh", lambda *a, **k: calls.append(a) or eigh(*a, **k))
    pencil = ops.pencil
    k, mass = ops.k_g.toarray(), ops.mass.toarray()
    assert np.array_equal(pencil.by, mass @ pencil.y)
    assert np.max(np.abs(pencil.y.T @ pencil.by - np.eye(len(k)))) <= 1e-13
    assert np.max(np.abs(k @ pencil.y - pencil.by * pencil.mu)) <= 1e-12 * np.max(np.abs(k))
    assert 0.0 <= pencil.orth <= sgsystem.EIGH_TOL and 0.0 <= pencil.res <= sgsystem.EIGH_TOL
    want = eigh(k, mass, eigvals_only=True)
    assert np.max(np.abs(pencil.mu - want)) <= 1e-12 * want[-1]
    # the resolvent invariant of every operator on the space reads the same mu
    op = assemble_block_operator(H1, multi_index_set(1, 2), ops, 20)
    assert oracles.min_resolvent_eigenvalue(op) == float(np.outer(op.eigvals, pencil.mu).min())
    assert ops.pencil is pencil
    assert [len(a) for a in calls] == [2, 1]  # the pencil, then G of the operator


def test_spatial_pencil_rejects_a_bad_decomposition(monkeypatch):
    eigh = scipy.linalg.eigh
    for corrupt in (
        lambda mu, y: (mu, y * (1.0 + 1e-9)),  # not M-orthonormal
        lambda mu, y: (mu, y[:, ::-1]),  # eigenvectors out of order with mu
    ):
        monkeypatch.setattr(scipy.linalg, "eigh", lambda a, b, c=corrupt: c(*eigh(a, b)))
        with pytest.raises(SolverError, match=r"spatial pencil \(K_g, M\) eigendecomposition"):
            spatial_1d(8).pencil


@pytest.mark.parametrize("which", ["pencil", "chaos"])
def test_the_eigh_check_rejects_whatever_the_two_norm_check_rejects(which):
    # Frobenius numerators and a column-norm scale are never looser than the
    # 2-norm check: Y scaled by 1 + delta, Y mixed by I + delta 11^T / n (a
    # defect spread over every entry) and mu shifted by delta, from 1e-16
    # to 1e-8, fail the library check wherever they fail the oracle's
    if which == "pencil":
        field = coefficient_by_name("logistic_anisotropic")
        ops = spatial_operators(make_fe_space(make_mesh(2, 4), 2), field)
        a, b = ops.k_g.toarray(), ops.mass.toarray()
    else:  # d_n = 21
        a, b = build_operator(distribution(hermite(), hermite()), 5, space_1d(4),
                              coefficient_by_name("logistic_1d"), q=11).chaos, None
    mu, y = scipy.linalg.eigh(a, b)
    assert oracles.norm2_check_passes(a, b, mu, y, sgsystem.EIGH_TOL)
    sgsystem._checked_pencil(a, b, mu, y, which)
    spread = np.full((len(mu), len(mu)), 1.0 / len(mu))
    rejected = 0
    for delta in np.logspace(-16, -8, 33):
        for mu_p, y_p in ((mu, y * (1.0 + delta)), (mu, y + delta * (y @ spread)), (mu + delta, y)):
            if not oracles.norm2_check_passes(a, b, mu_p, y_p, sgsystem.EIGH_TOL):
                rejected += 1
                with pytest.raises(SolverError, match="eigendecomposition failed its check"):
                    sgsystem._checked_pencil(a, b, mu_p, y_p, which)
    assert rejected >= 20  # the oracle's threshold lies inside the sweep


def test_chaos_eigendecomposition_is_checked(monkeypatch):
    space = space_1d(4)
    field = coefficient_by_name("logistic_1d")
    op = build_operator(H1, 2, space, field, q=20)
    # the builder symmetrizes G, so a skewed G is handed to the check directly
    skewed = op.chaos.copy()
    skewed[0, 1] *= 1.01
    with pytest.raises(SolverError, match="eigendecomposition"):
        sgsystem._checked_eigh(skewed)
    with pytest.raises(SolverError, match="non-finite"):
        sgsystem._checked_eigh(np.where(np.eye(3) > 0, np.nan, op.chaos))

    eigh = scipy.linalg.eigh
    for corrupt in (
        lambda lam, v: (lam, v * np.array([1.0, 1.0 + 1e-9, 1.0])),  # not orthonormal
        lambda lam, v: (lam, v[:, ::-1]),  # eigenvectors out of order with lam
    ):
        monkeypatch.setattr(scipy.linalg, "eigh", lambda g, corrupt=corrupt: corrupt(*eigh(g)))
        with pytest.raises(SolverError, match="eigendecomposition"):
            build_operator(H1, 2, space, field, q=20)
    monkeypatch.setattr(scipy.linalg, "eigh", eigh)
    assert len(build_operator(H1, 2, space, field, q=20).eigvals) == 3


def test_nan_coefficient_at_one_node_raises():
    logistic = coefficient_by_name("logistic_1d")
    nodes, _ = tensor_quad(H1, 7)
    bad_z = nodes[2, 0]
    field = CoefficientField(
        dim=1,
        z_factor=lambda z: np.where(z[:, 0] == bad_z, math.nan, logistic.z_factor(z)),
        spatial_part=logistic.spatial_part,
    )
    with pytest.raises(SolverError, match="non-finite"):
        build_operator(H1, 3, space_1d(4), field, q=7)


def test_operator_builds_are_logged_at_debug(caplog):
    caplog.set_level(logging.DEBUG, logger="sgpde.sgsystem")
    space = space_1d(4)
    build_operator(H1, 2, space, coefficient_by_name("logistic_1d"), q=7)
    build_operator(H1, 1, space, coefficient_by_name("constant"), q=5)
    records = [r for r in caplog.records if r.name == "sgpde.sgsystem"]
    assert len(records) == 2 and all(r.levelno == logging.DEBUG for r in records)
    first, second = (r.getMessage() for r in records)
    assert first.startswith(f"block operator: d_n=3 ndof={space.ndof} Q=7 wall_s=")
    assert second.startswith(f"block operator: d_n=2 ndof={space.ndof} Q=5 wall_s=")
    for message in (first, second):
        assert "eigh_orth=" in message and "eigh_rel_res=" in message


def test_operator_builds_are_silent_by_default():
    script = (
        "from sgpde.coeffs import coefficient_by_name\n"
        "from sgpde.orthopoly import hermite\n"
        "from sgpde.pce import distribution, multi_index_set\n"
        "from sgpde.sgsystem import assemble_block_operator, spatial_operators\n"
        "from sgpde.spatial import make_fe_space, make_mesh\n"
        "space = make_fe_space(make_mesh(1, 4), 1)\n"
        "ops = spatial_operators(space, coefficient_by_name('logistic_1d'))\n"
        "assemble_block_operator(distribution(hermite()), multi_index_set(1, 2), ops, 7)\n"
    )
    src = str(Path(sgsystem.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "" and done.stderr == ""


def test_block_operator_rejects_bad_inputs():
    space, mis = space_1d(6), multi_index_set(1, 2)
    ops = spatial_operators(space, coefficient_by_name("logistic_1d"))
    with pytest.raises(ValueError, match="at least 2n"):
        assemble_block_operator(H1, mis, ops, 4)
    with pytest.raises(ValueError, match="dimensions differ"):
        spatial_operators(space, coefficient_by_name("logistic_anisotropic"))


def test_initial_coefficients_reject_a_nan_datum():
    nan_datum = InitialDatum(dim=1, sample=lambda z: (lambda x: math.nan))
    with pytest.raises(SolverError, match="residual"):
        initial_coefficients(H1, multi_index_set(1, 2), nan_datum, spatial_1d(8), q=4)


def test_initial_coefficients_builds_one_load_per_distinct_function(monkeypatch):
    calls = []
    monkeypatch.setattr(
        sgsystem, "load_vector", lambda space, f: calls.append(f) or load_vector(space, f)
    )
    ops = spatial_1d(16)
    mis = multi_index_set(1, 2)
    shared = initial_coefficients(H1, mis, initial_datum_by_name("sine_modes"), ops, q=8)
    assert len(calls) == 1
    fresh = InitialDatum(dim=1, sample=lambda z: (lambda x: z[0] * np.sin(math.pi * x[:, 0])))
    per_node = initial_coefficients(H1, mis, fresh, ops, q=8)
    assert len(calls) == 1 + 8
    proj = oracles.l2_project(ops.space, lambda x: np.sin(math.pi * x[:, 0]))
    assert np.max(np.abs(shared.coeffs[0] - proj)) < 1e-10
    assert np.max(np.abs(per_node.coeffs[1] - proj)) < 1e-10


def test_initial_modes_are_the_per_node_projection_bitwise(monkeypatch):
    # the datum's projections at the Gauss nodes are stacked once per space
    # and grid, and every chaos order reads them: a datum with a new spatial
    # function at each of the 5 x 5 nodes is projected 25 times for three
    # orders, and each order's modes are those of the per-node projection
    calls = []
    monkeypatch.setattr(
        sgsystem, "load_vector", lambda space, f: calls.append(f) or load_vector(space, f)
    )
    field = coefficient_by_name("logistic_anisotropic")
    ops = spatial_operators(make_fe_space(make_mesh(2, 3), 2), field)
    dist = distribution(hermite(), hermite())
    u0 = InitialDatum(
        dim=2, sample=lambda z: (lambda x: np.sin(math.pi * x[:, 0]) * np.cos(z[0] * x[:, 1] + z[1]))
    )
    got = {n: initial_coefficients(dist, multi_index_set(2, n), u0, ops, q=5) for n in (1, 2, 3)}
    assert len(calls) == 25
    samples = ops.project_datum(dist, u0, 5)
    assert samples is ops.project_datum(dist, u0, 5) and not samples.flags.writeable
    for n, state in got.items():
        mis = multi_index_set(2, n)
        want = oracles.per_node_pce_project(dist, mis, lambda z: ops.project(u0.sample(z)), 5)
        assert state.coeffs.tobytes() == want.tobytes(), n


def _field(dim):
    return coefficient_by_name("logistic_1d" if dim == 1 else "logistic_anisotropic")


@pytest.mark.parametrize("dim,order", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_coordinate_order_gives_the_half_bandwidth_of_the_mesh(dim, order):
    # the space numbers its dofs by their last coordinate, then the first:
    # 1D P1 and P2 couple 1 and 2 neighbours, 2D P1 the next row of m - 1
    # dofs and one more, 2D P2 two rows of 2m - 1 dofs and two more
    for m in (3, 4, 8, 16):
        band = spatial_operators(make_fe_space(make_mesh(dim, m), order), _field(dim)).band
        assert band.kd == {(1, 1): 1, (1, 2): 2, (2, 1): m, (2, 2): 4 * m}[dim, order]


@pytest.mark.parametrize("dim,order", [(1, 2), (2, 1), (2, 2)])
def test_band_holds_the_assembled_matrices_and_solves_with_m(dim, order):
    ops = spatial_operators(make_fe_space(make_mesh(dim, 4), order), _field(dim))
    band = ops.band
    stacked = band.stacked.toarray()
    for got, a, lower in zip(np.split(stacked, 2), (ops.mass, ops.k_g), band.bands):
        want = a.toarray()
        assert np.array_equal(got, want)
        assert not np.tril(want, -band.kd - 1).any()
        for d in range(band.kd + 1):
            assert np.array_equal(lower[d, : len(want) - d], np.diagonal(want, -d))
    b = np.random.default_rng(dim + order).standard_normal(ops.space.ndof)
    want = oracles.checked_solve(ops.mass, b, 1e-10)
    assert np.linalg.norm(band.solve_mass(b) - want) <= 1e-13 * np.linalg.norm(want)
