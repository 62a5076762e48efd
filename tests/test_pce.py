import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

import oracles
from oracles import apply_Q, pce_error_constant, sl_eigenvalue, weighted_sobolev_norm
from sgpde.orthopoly import hermite, jacobi, laguerre
from sgpde.pce import (
    DistributionSpec,
    distribution,
    multi_index_set,
    pce_project,
    tensor_basis_matrix,
    tensor_quad,
)

H1 = distribution(hermite())
HH = distribution(hermite(), hermite())


def quad_l2_norm(dist, f, q=60):
    nodes, weights = tensor_quad(dist, q)
    vals = np.array([f(z) for z in nodes])
    return math.sqrt(float(np.dot(weights, vals**2)))


def test_multi_index_set_ordering_and_sizes():
    mis = multi_index_set(2, 2)
    assert mis.indices == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    assert len(multi_index_set(1, 4)) == 5
    assert len(multi_index_set(3, 2)) == 10


def test_multi_index_set_overflow_guard():
    with pytest.raises(ValueError):
        multi_index_set(30, 12)


@given(N=st.integers(1, 4), n=st.integers(0, 6))
@settings(max_examples=30, deadline=None)
def test_multi_index_set_invariants(N, n):
    mis = multi_index_set(N, n)
    assert len(mis) == math.comb(n + N, n)
    degrees = [sum(a) for a in mis]
    assert degrees == sorted(degrees)
    assert len(set(mis.indices)) == len(mis)
    assert all(max(a) <= n and min(a) >= 0 for a in mis)


def test_tensor_basis_matrix_single_point_examples():
    mis = multi_index_set(2, 2)
    assert tensor_basis_matrix(HH, mis, np.array([0.3, -1.2])[None])[0, 0] == 1.0
    # alpha = (1,1) at z = (1,2): h_1(z) = z for orthonormal hermite
    vals = tensor_basis_matrix(HH, mis, np.array([1.0, 2.0])[None])[0]
    assert vals[mis.indices.index((1, 1))] == pytest.approx(2.0, rel=1e-14)
    vals1 = tensor_basis_matrix(H1, multi_index_set(1, 2), np.array([0.0])[None])[0]
    assert vals1[2] == pytest.approx(-1.0 / math.sqrt(2.0), rel=1e-14)


def test_triple_products_hermite_1d_known_values():
    eps = oracles.loop_triple_products(H1, 3)
    assert eps.entries.get(((2,), (1,), (1,)), 0.0) == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert eps.entries.get(((3,), (1,), (2,)), 0.0) == pytest.approx(math.sqrt(3.0), rel=1e-12)


@pytest.mark.parametrize(
    "dist",
    [H1, distribution(jacobi(1.0, 2.0)), distribution(laguerre(0.5)), HH,
     distribution(hermite(), laguerre(0.0))],
)
def test_triple_products_delta_and_sparsity(dist, n=3):
    eps = oracles.loop_triple_products(dist, n)
    zero = tuple([0] * dist.N)
    for beta in eps.mis:
        for gamma in eps.mis:
            want = 1.0 if beta == gamma else 0.0
            assert eps.entries.get((zero, beta, gamma), 0.0) == pytest.approx(want, abs=1e-12)
    for (a, b, c) in eps.entries:
        assert sum(a) <= sum(b) + sum(c)


def test_triple_products_permutation_symmetry_exact():
    eps = oracles.loop_triple_products(distribution(laguerre(0.0), hermite()), 2)
    for (a, b, c), val in eps.entries.items():
        assert eps.entries.get((a, c, b)) == val
        if sum(a) <= 2:  # all three inside the stored (beta, gamma) range
            for perm in [(b, a, c), (b, c, a), (c, a, b), (c, b, a)]:
                assert eps.entries.get(perm) == val


def test_triple_products_against_dense_quadrature_oracle():
    dist = distribution(hermite(), jacobi(0.0, 0.0))
    n = 2
    eps = oracles.loop_triple_products(dist, n)
    nodes, weights = tensor_quad(dist, 50)
    phi2 = tensor_basis_matrix(dist, eps.mis2, nodes)
    phi = tensor_basis_matrix(dist, eps.mis, nodes)
    for ai, alpha in enumerate(eps.mis2):
        for bi, beta in enumerate(eps.mis):
            for ci, gamma in enumerate(eps.mis):
                dense = float(np.dot(weights, phi2[:, ai] * phi[:, bi] * phi[:, ci]))
                assert eps.entries.get((alpha, beta, gamma), 0.0) == pytest.approx(dense, abs=1e-12)


def test_pce_project_examples():
    mis = multi_index_set(1, 4)
    z = tensor_quad(H1, 12)[0][:, 0]
    v = pce_project(H1, mis, z, q=12)
    assert v == pytest.approx([0.0, 1.0, 0.0, 0.0, 0.0], abs=1e-13)
    v = pce_project(H1, mis, np.full(len(z), 3.25), q=12)
    assert v == pytest.approx([3.25, 0.0, 0.0, 0.0, 0.0], abs=1e-13)
    v = pce_project(H1, mis, z**2, q=12)
    assert v == pytest.approx([1.0, 0.0, math.sqrt(2.0), 0.0, 0.0], abs=1e-12)


def test_pce_project_vector_payload_and_mismatch():
    mis = multi_index_set(1, 2)
    z = tensor_quad(H1, 8)[0][:, 0]
    v = pce_project(H1, mis, np.column_stack([z, 2.0 * z]), q=8)
    assert v.shape == (3, 2)
    assert v[1] == pytest.approx([1.0, 2.0], abs=1e-13)
    # samples must be one value or vector per node of the q-node grid
    for bad in (z[:-1], np.ones((8, 2, 2)), np.float64(1.0)):
        with pytest.raises(ValueError, match="must hold one value or vector at each of the 8 nodes"):
            pce_project(H1, mis, bad, q=8)


def test_pce_project_requires_enough_nodes():
    with pytest.raises(ValueError):
        pce_project(H1, multi_index_set(1, 4), np.ones(4), q=4)


def test_pce_project_of_samples_is_the_per_node_projection_bitwise():
    f = lambda z: np.array([math.exp(z[0] / 2.0) * z[1], z[0] - z[1] ** 2])
    mis = multi_index_set(2, 3)
    nodes = tensor_quad(HH, 7)[0]
    got = pce_project(HH, mis, np.stack([f(z) for z in nodes]), q=7)
    assert got.tobytes() == oracles.per_node_pce_project(HH, mis, f, 7).tobytes()


def test_projection_idempotent_and_contractive():
    mis = multi_index_set(1, 6)
    f = lambda z: math.exp(z[0] / 2.0)
    q = 40
    nodes = tensor_quad(H1, q)[0]
    v1 = pce_project(H1, mis, np.array([f(z) for z in nodes]), q=q)
    v2 = pce_project(H1, mis, tensor_basis_matrix(H1, mis, nodes) @ v1, q=q)
    assert np.max(np.abs(v1 - v2)) < 1e-12
    norm_f = quad_l2_norm(H1, lambda z: f(z), q=q)
    norm_rf = math.sqrt(float(np.sum(v1**2)))
    assert norm_rf <= norm_f + 1e-12


def test_weighted_sobolev_norm_examples():
    one = lambda z: 1.0
    zero = lambda z: 0.0
    ident = lambda z: z[0]
    assert weighted_sobolev_norm(H1, [one], 0, q=10) == pytest.approx(1.0, rel=1e-13)
    assert weighted_sobolev_norm(H1, [ident], 0, q=10) == pytest.approx(1.0, rel=1e-13)
    assert weighted_sobolev_norm(H1, [ident, one], 1, q=10) == pytest.approx(
        math.sqrt(2.0), rel=1e-13
    )
    assert weighted_sobolev_norm(H1, [one, zero, zero], 2, q=10) == pytest.approx(1.0)


def test_weighted_sobolev_norm_missing_derivative():
    with pytest.raises(ValueError):
        weighted_sobolev_norm(HH, {(0, 0): lambda z: 1.0, (1, 0): lambda z: 0.0}, 1, q=6)


def test_pce_error_constant_values():
    assert pce_error_constant(H1, 0) == 1.0
    assert pce_error_constant(H1, 1) == pytest.approx(math.sqrt(21.0), rel=1e-14)
    assert pce_error_constant(HH, 1) == pytest.approx(math.sqrt(2.0) * math.sqrt(21.0), rel=1e-14)


def test_fourier_decay_identity_1d():
    rng = np.random.default_rng(3)
    for dist, fam in [(H1, hermite()), (distribution(laguerre(1.0)), laguerre(1.0))]:
        p = Polynomial(rng.standard_normal(5))
        qp = apply_Q(fam, p)
        qqp = apply_Q(fam, qp)
        nodes, weights = tensor_quad(dist, 20)
        mis = multi_index_set(1, 6)
        phi = tensor_basis_matrix(dist, mis, nodes)
        for k in range(1, 7):
            lam = sum(sl_eigenvalue(f, a) for f, a in zip(dist.components, (k,)))
            col = phi[:, mis.indices.index((k,))]
            base = float(np.dot(weights, p(nodes[:, 0]) * col))
            for ell, qf in [(1, qp), (2, qqp)]:
                lifted = float(np.dot(weights, qf(nodes[:, 0]) * col))
                assert base == pytest.approx(lam ** (-ell) * lifted, abs=1e-9)


def test_fourier_decay_identity_2d_separable():
    fam0, fam1 = hermite(), laguerre(0.0)
    dist = distribution(fam0, fam1)
    rng = np.random.default_rng(5)
    p = Polynomial(rng.standard_normal(3))
    r = Polynomial(rng.standard_normal(3))
    qp, qr = apply_Q(fam0, p), apply_Q(fam1, r)
    f = lambda z: p(z[0]) * r(z[1])
    qf = lambda z: qp(z[0]) * r(z[1]) + p(z[0]) * qr(z[1])
    nodes, weights = tensor_quad(dist, 15)
    mis = multi_index_set(2, 4)
    phi = tensor_basis_matrix(dist, mis, nodes)
    for alpha in mis:
        lam = sum(sl_eigenvalue(f, a) for f, a in zip(dist.components, alpha))
        if lam <= 0:
            continue
        col = phi[:, mis.indices.index(alpha)]
        base = float(np.dot(weights, np.array([f(z) for z in nodes]) * col))
        lifted = float(np.dot(weights, np.array([qf(z) for z in nodes]) * col))
        assert base == pytest.approx(lifted / lam, abs=1e-9)


@pytest.mark.parametrize(
    "dist",
    [H1, distribution(jacobi(0.0, 0.0)), distribution(laguerre(0.0))],
)
@pytest.mark.parametrize("ell", [1, 2])
def test_pce_bound_on_smooth_function(dist, ell):
    q = 60
    f = lambda z: math.exp(z[0] / 2.0)
    derivs = {(k,): (lambda z, k=k: 2.0 ** (-k) * math.exp(z[0] / 2.0)) for k in range(2 * ell + 1)}
    norm = weighted_sobolev_norm(dist, derivs, 2 * ell, q=q)
    c = pce_error_constant(dist, ell)
    nodes, weights = tensor_quad(dist, q)
    fvals = np.array([f(z) for z in nodes])
    for n in range(2, 11):
        mis = multi_index_set(1, n)
        v = pce_project(dist, mis, fvals, q=q)
        recon = tensor_basis_matrix(dist, mis, nodes) @ v
        err = math.sqrt(float(np.dot(weights, (recon - fvals) ** 2)))
        assert err <= c * n ** (-ell) * norm * (1.0 + 1e-10)
