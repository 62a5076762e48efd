import dataclasses
import math
import re

import numpy as np
import pytest
import scipy.sparse as sp

import oracles
from sgpde import spatial
from sgpde.coeffs import coefficient_by_name
from sgpde.spatial import (
    SolverError,
    assemble_mass,
    assemble_stiffness,
    checked_solve,
    l2_error,
    load_vector,
    make_fe_space,
    make_mesh,
    nodal_coordinates,
    prolong,
    _gauss_01,
)


def space_1d(m, order=1):
    return make_fe_space(make_mesh(1, m), order)


def space_2d(m, order=2):
    return make_fe_space(make_mesh(2, m), order)


def fit_slope(hs, errs):
    return np.polyfit(np.log(hs), np.log(errs), 1)[0]


def test_mass_1d_p1_tridiagonal():
    m = 8
    h = 1.0 / m
    mass = assemble_mass(space_1d(m)).toarray()
    assert mass.shape == (m - 1, m - 1)
    assert np.allclose(np.diag(mass), 2.0 * h / 3.0, atol=1e-15)
    assert np.allclose(np.diag(mass, 1), h / 6.0, atol=1e-15)
    assert np.allclose(mass - np.diag(np.diag(mass)) - np.diag(np.diag(mass, 1), 1)
                       - np.diag(np.diag(mass, -1), -1), 0.0)


def test_mass_single_interior_dof():
    mass = assemble_mass(space_1d(2)).toarray()
    assert mass.shape == (1, 1)
    assert mass[0, 0] == pytest.approx(1.0 / 3.0, rel=1e-14)


@pytest.mark.parametrize("space", [space_1d(5, 1), space_1d(5, 2), space_2d(3, 1), space_2d(3, 2)])
def test_mass_positive_definite_and_exactly_symmetric(space):
    mass = assemble_mass(space)
    assert (abs(mass - mass.T)).max() == 0.0
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.standard_normal(space.ndof)
        assert x @ (mass @ x) > 0.0


def test_stiffness_1d_p1_constant_coefficient():
    m = 8
    h = 1.0 / m
    k = assemble_stiffness(space_1d(m), 1.0).toarray()
    assert np.allclose(np.diag(k), 2.0 / h, atol=1e-12)
    assert np.allclose(np.diag(k, 1), -1.0 / h, atol=1e-12)
    k3 = assemble_stiffness(space_1d(m), 3.0).toarray()
    assert np.allclose(k3, 3.0 * k, atol=1e-12)


def test_stiffness_rejects_non_hermitian_sample():
    bad = lambda x: np.array([[1.0, 0.5], [-0.5, 1.0]])
    with pytest.raises(ValueError, match="Hermitian"):
        assemble_stiffness(space_2d(2, 1), bad)


def test_poisson_2d_p2_manufactured_solution():
    exact = lambda x: np.sin(math.pi * x[:, 0]) * np.sin(math.pi * x[:, 1]) / (2.0 * math.pi**2)
    rhs = lambda x: np.sin(math.pi * x[:, 0]) * np.sin(math.pi * x[:, 1])
    errs = []
    for m in (2, 4):
        space = space_2d(m, 2)
        u = oracles.stationary_solve(space, np.eye(2), rhs)
        errs.append(oracles.sampled_l2_error(space, u, exact))
    # measured 1.46e-3 at m=2; the P1 level at m=4 is 4.0e-3
    assert errs[0] < 2e-3
    assert errs[0] / errs[1] > 6.0  # measured ratio 7.6, order ~ 2.93


def test_l2_project_reproduces_members_and_zero():
    space = space_1d(7, 1)
    rng = np.random.default_rng(1)
    u = rng.standard_normal(space.ndof)
    uh = oracles.l2_project(space, lambda x: oracles.fe_eval(space, u, x))
    assert np.max(np.abs(uh - u)) < 1e-10
    z = oracles.l2_project(space, lambda x: 0.0)
    assert np.max(np.abs(z)) < 1e-12


def test_l2_project_sine_nodal_accuracy():
    m = 16
    space = space_1d(m, 1)
    u = oracles.l2_project(space, lambda x: np.sin(math.pi * x[:, 0]))
    xi = nodal_coordinates(space)[:, 0]
    dev = np.max(np.abs(u - np.sin(math.pi * xi)))
    assert dev <= math.pi**2 / m**2


def test_stationary_solve_1d_examples():
    space = space_1d(32, 1)
    rhs = lambda x: math.pi**2 * np.sin(math.pi * x[:, 0])
    u1 = oracles.stationary_solve(space, 1.0, rhs)
    err = oracles.sampled_l2_error(space, u1, lambda x: np.sin(math.pi * x[:, 0]))
    assert err < 2.0 / 32**2
    u0 = oracles.stationary_solve(space, 1.0, lambda x: 0.0)
    assert np.max(np.abs(u0)) < 1e-12
    u2 = oracles.stationary_solve(space, 2.0, lambda x: 2.0 * rhs(x))
    assert np.max(np.abs(u2 - u1)) < 1e-10


@pytest.mark.parametrize("order,min_slope", [(1, 1.8), (2, 2.8)])
def test_stationary_rate_1d(order, min_slope):
    exact = lambda x: np.sin(math.pi * x[:, 0])
    rhs = lambda x: math.pi**2 * np.sin(math.pi * x[:, 0])
    ms = [8, 16, 32]
    errs = []
    for m in ms:
        space = space_1d(m, order)
        errs.append(oracles.sampled_l2_error(space, oracles.stationary_solve(space, 1.0, rhs), exact))
    slope = fit_slope([1.0 / m for m in ms], errs)
    assert slope >= min_slope


def test_fe_eval_and_prolong_are_exact_on_members():
    coarse = space_1d(4, 2)
    fine = space_1d(16, 2)
    rng = np.random.default_rng(2)
    u = rng.standard_normal(coarse.ndof)
    uf = prolong(coarse, u, fine)
    xs = rng.uniform(0.0, 1.0, size=50)
    assert np.max(np.abs(oracles.fe_eval(fine, uf, xs) - oracles.fe_eval(coarse, u, xs))) < 1e-12

    coarse2 = space_2d(2, 2)
    fine2 = space_2d(4, 2)
    u2 = rng.standard_normal(coarse2.ndof)
    uf2 = prolong(coarse2, u2, fine2)
    pts = rng.uniform(0.0, 1.0, size=(40, 2))
    assert np.max(np.abs(oracles.fe_eval(fine2, uf2, pts) - oracles.fe_eval(coarse2, u2, pts))) < 1e-12


def test_prolong_rejects_non_nested():
    with pytest.raises(ValueError):
        prolong(space_1d(3), np.zeros(2), space_1d(8))
    with pytest.raises(ValueError):
        prolong(space_1d(4, 2), np.zeros(7), space_1d(8, 1))


@pytest.mark.filterwarnings("ignore::scipy.sparse.linalg.MatrixRankWarning")
def test_checked_solve_rejects_a_nan_result():
    with pytest.raises(SolverError, match="residual"):
        checked_solve(np.nan * sp.identity(3, format="csr"), np.ones(3), 1e-10)


def test_export_coo_format():
    mass = assemble_mass(space_1d(3, 1))
    text = oracles.export_coo(mass)
    lines = text.strip().split("\n")
    parsed = [line.split() for line in lines]
    keys = [(int(r), int(c)) for r, c, _ in parsed]
    assert keys == sorted(keys)
    recon = {k: float(v) for k, v in zip(keys, (p[2] for p in parsed))}
    dense = mass.toarray()
    for (r, c), v in recon.items():
        assert dense[r, c] == v


def _rel(a, b):
    scale = max(float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(a - b))) / scale


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("coeff_kind", ["constant", "varying"])
def test_array_kernels_match_cellwise_oracles(dim, order, coeff_kind):
    space = space_1d(7, order) if dim == 1 else space_2d(3, order)
    if coeff_kind == "constant":
        coeff = 1.7
    elif dim == 2:
        coeff = coefficient_by_name("logistic_anisotropic").spatial_part
    else:
        coeff = lambda x: 1.0 + x[:, 0] * x[:, 0]
    f = (lambda x: np.sin(3.0 * x[:, 0])) if dim == 1 else (lambda x: np.sin(3.0 * x[:, 0]) * x[:, 1])
    rng = np.random.default_rng(dim * 10 + order)
    u = rng.standard_normal(space.ndof)
    nodes = nodal_coordinates(space)
    if dim == 1:
        pts = np.concatenate([rng.uniform(0.0, 1.0, 40), nodes[:, 0]])
    else:
        pts = np.concatenate([rng.uniform(0.0, 1.0, size=(40, 2)), nodes])

    assert _rel(assemble_mass(space).toarray(), oracles.cellwise_mass(space).toarray()) <= 1e-13
    got = assemble_stiffness(space, coeff).toarray()
    assert _rel(got, oracles.cellwise_stiffness(space, coeff).toarray()) <= 1e-13
    assert _rel(load_vector(space, f), oracles.cellwise_load(space, f)) <= 1e-13
    err = oracles.sampled_l2_error(space, u, f)
    assert abs(err - oracles.cellwise_l2_error(space, u, f)) <= 1e-13 * err
    assert _rel(oracles.fe_eval(space, u, pts), oracles.pointwise_fe_eval(space, u, pts)) <= 1e-13


@pytest.mark.parametrize("dim", [1, 2])
def test_each_kernel_calls_its_function_once_with_all_points(dim):
    space = space_1d(4, 2) if dim == 1 else space_2d(2, 2)
    seen = []

    def probe(x):
        seen.append((type(x), x.shape))
        return np.ones(len(x))

    cells = space.mesh.cells.shape[0]
    assemble_stiffness(space, probe)
    assert seen == [(np.ndarray, (cells * (3 if dim == 1 else 7), dim))]
    load_vector(space, probe)
    assert seen[1:] == [(np.ndarray, (cells * (6 if dim == 1 else 7), dim))]


def test_a_wrong_return_shape_names_the_expected_shape():
    space, space2 = space_1d(4, 1), space_2d(2, 1)  # 24 load points; 12 and 56 stiffness points
    with pytest.raises(ValueError, match=r"expected shape \(24,\) or \(\), got \(24, 1\)"):
        load_vector(space, lambda x: x)
    with pytest.raises(ValueError, match=r"expected shape \(12,\) or \(\), got \(12, 2, 2\)"):
        assemble_stiffness(space, lambda x: np.broadcast_to(np.eye(2), (len(x), 2, 2)))
    with pytest.raises(ValueError, match=r"expected shape \(56, 2, 2\), .*got \(56, 2\)"):
        assemble_stiffness(space2, lambda x: x)
    field = coefficient_by_name("logistic_1d")
    with pytest.raises(ValueError, match=r"expected shape \(5,\), got \(\)"):
        dataclasses.replace(field, z_factor=lambda z: 1.5).factor_at(np.zeros((5, 1)))


def test_constant_values_are_broadcast_to_every_point():
    space = space_2d(2, 2)
    matrix = assemble_stiffness(space, 1.5 * np.eye(2)).toarray()
    for coeff in (1.5, lambda x: 1.5, lambda x: 1.5 * np.eye(2), lambda x: np.full(len(x), 1.5)):
        assert np.array_equal(assemble_stiffness(space, coeff).toarray(), matrix)
    loads = [load_vector(space, f) for f in (lambda x: 2.0, lambda x: np.full(len(x), 2.0))]
    assert np.array_equal(*loads)


def test_each_space_builds_its_geometry_and_rules_once(monkeypatch):
    built = []
    real = spatial._element_rule
    monkeypatch.setattr(spatial, "_element_rule", lambda *a: built.append(a[1:]) or real(*a))
    for space, keys in ((space_1d(4, 1), [(2,), (3,), (6,)]), (space_2d(2, 2), [(3,)])):
        built.clear()
        assemble_mass(space)
        assemble_stiffness(space, 1.0)
        load_vector(space, lambda x: 1.0)
        oracles.sampled_l2_error(space, np.zeros(space.ndof), lambda x: 1.0)
        prolong(space, np.zeros(space.ndof), space)
        assert built == keys  # in 1D one rule per Gauss order, in 2D one rule
        dw, xq, vals, grads = space.element_rule(6)
        assert space.element_rule(6)[0] is dw and space.geometry is space.geometry
        for a in (dw, xq, vals, grads, *space.geometry):
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 0.0


@pytest.mark.parametrize("dim,order", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_stacked_l2_error_matches_single_state_calls(dim, order):
    space = space_1d(7, order) if dim == 1 else space_2d(3, order)
    rng = np.random.default_rng(10 * dim + order)
    states = 0.1 * rng.standard_normal((4, space.ndof))
    if dim == 1:
        exact = [lambda x, k=k: np.sin((k + 1) * math.pi * x[:, 0]) for k in range(4)]
    else:
        exact = [lambda x, k=k: np.sin((k + 1) * math.pi * x[:, 0]) * x[:, 1] for k in range(4)]
    seen = []

    def values(pts):
        seen.append(pts.shape)
        return np.array([f(pts) for f in exact])

    stacked = l2_error(space, states, values)
    # one call with every point of the error rule
    assert seen == [(space.mesh.cells.shape[0] * (6 if dim == 1 else 7), dim)]
    assert stacked.shape == (4,)
    for k, f in enumerate(exact):
        single = oracles.cellwise_l2_error(space, states[k], f)
        assert abs(stacked[k] - single) <= 1e-13 * single


def skewed_in_one_corner(x):
    """2 I at every point, with a skew part only where x > 0.8 and y < 0.2."""
    skew = np.where((x[:, 0] > 0.8) & (x[:, 1] < 0.2), 0.5, 0.0)
    vals = np.zeros((len(x), 2, 2))
    vals[:, 0, 0] = vals[:, 1, 1] = 2.0
    vals[:, 0, 1], vals[:, 1, 0] = skew, -skew
    return vals


def test_non_hermitian_sample_in_one_cell_still_raises():
    with pytest.raises(ValueError, match="Hermitian"):
        assemble_stiffness(space_2d(4, 2), skewed_in_one_corner)


def test_coefficient_check_names_an_offending_point():
    coeff = skewed_in_one_corner
    with pytest.raises(ValueError, match="Hermitian") as err:
        assemble_stiffness(space_2d(4, 2), coeff)
    point = re.search(r"x = \[([^\]]*)\]", str(err.value)).group(1).split()
    assert float(point[0]) > 0.8 and float(point[1]) < 0.2
    with pytest.raises(ValueError, match="scalar or 2x2"):
        assemble_stiffness(space_2d(2, 1), lambda x: np.eye(3))


@pytest.mark.parametrize("dim", [1, 2])
def test_prolong_of_stacked_states_equals_columnwise_prolong(dim):
    coarse = space_1d(3, 1) if dim == 1 else space_2d(2, 1)
    fine = space_1d(12, 2) if dim == 1 else space_2d(4, 2)
    states = np.random.default_rng(5).standard_normal((coarse.ndof, 4))
    stacked = prolong(coarse, states, fine)
    assert stacked.shape == (fine.ndof, 4)
    for k in range(4):
        assert np.array_equal(stacked[:, k], prolong(coarse, states[:, k], fine))


def test_gauss_rule_on_unit_interval_is_cached_and_read_only():
    t, w = _gauss_01(6)
    assert _gauss_01(6)[0] is t
    assert w.sum() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        t[0] = 0.0


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 16])
@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("dim", [1, 2])
def test_space_numbering_matches_loop_oracle(dim, order, m):
    space = make_fe_space(make_mesh(dim, m), order)
    oracle = oracles.loop_fe_space(oracles.loop_mesh(dim, m), order)
    for got, want in (
        (space.mesh.vertices, oracle.mesh.vertices),
        (space.mesh.cells, oracle.mesh.cells),
        (space.nodes, oracle.nodes),
        (space.cell_nodes, oracle.cell_nodes),
        (space.dof_of_node, oracle.dof_of_node),
    ):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert space.ndof == oracle.ndof


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 16])
@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("dim", [1, 2])
def test_interior_dofs_are_numbered_in_node_order(dim, order, m):
    # nodal_coordinates and l2_error read the dofs in node order, with no gather
    space = make_fe_space(make_mesh(dim, m), order)
    interior = space.dof_of_node >= 0
    assert np.array_equal(space.dof_of_node[interior], np.arange(space.ndof))
    assert np.array_equal(nodal_coordinates(space), space.nodes[interior])


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 16])
@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("dim", [1, 2])
def test_stored_pattern_is_the_dof_adjacency_of_the_mesh(dim, order, m):
    # every pair of dofs that share a cell is stored, also where the sum is
    # exactly 0 (many P1 and P2 stiffness couplings on right triangles), so
    # the pattern does not depend on rounding; both matrices are exactly symmetric
    space = make_fe_space(make_mesh(dim, m), order)
    coeff = (lambda x: 1.0 + x[:, 0]) if dim == 1 else coefficient_by_name(
        "logistic_anisotropic"
    ).spatial_part
    dofs = space.dof_of_node[space.cell_nodes]
    adjacent = {(i, j) for cell in dofs.tolist() for i in cell if i >= 0 for j in cell if j >= 0}
    for a in (assemble_mass(space), assemble_stiffness(space, coeff)):
        stored = a.tocoo()
        assert a.nnz == len(adjacent)
        assert set(zip(stored.row.tolist(), stored.col.tolist())) == adjacent
        assert (a != a.T).nnz == 0
