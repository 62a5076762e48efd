import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import oracles
from sgpde.coeffs import coefficient_by_name, initial_datum_by_name
from sgpde.orthopoly import hermite
from sgpde.pce import distribution, multi_index_set
from sgpde.sgsystem import assemble_block_operator, initial_coefficients, spatial_operators
from sgpde.spatial import (
    SolverError,
    assemble_mass,
    assemble_stiffness,
    l2_error,
    make_fe_space,
    make_mesh,
)
from sgpde.timestep import (
    Propagator,
    StepResidualError,
    a_stability_probe,
    crank_nicolson,
    evolve,
    implicit_euler,
    scheme_by_name,
)

M1 = sp.csr_matrix(np.array([[1.0]]))
K2 = sp.csr_matrix(np.array([[2.0]]))


def heat_setup(m=64, order=2, coeff=2.0):
    space = make_fe_space(make_mesh(1, m), order)
    mass = assemble_mass(space)
    stiff = assemble_stiffness(space, coeff)
    u0 = oracles.l2_project(space, lambda x: math.sin(math.pi * x))
    return space, mass, stiff, u0


def test_scalar_steps():
    assert Propagator(implicit_euler(), M1, K2, 0.5).step(np.array([1.0]))[0] == pytest.approx(0.5)
    cn = Propagator(crank_nicolson(), M1, K2, 1.0).step(np.array([1.0]))
    assert cn[0] == pytest.approx(0.0, abs=1e-15)
    out = Propagator(crank_nicolson(), M1, K2, 1e-14).step(np.array([1.0]))
    assert abs(out[0] - 1.0) <= 1e-10


def test_grid_construction():
    # a grid is (t_final, n_steps): n_steps steps of t_final / n_steps
    final = evolve(implicit_euler(), 1.0, 4, M1, K2, np.array([1.0]))
    assert final[0] == pytest.approx((1.0 + 0.25 * 2.0) ** -4, rel=1e-15)
    assert evolve(implicit_euler(), 1.0, 1, M1, K2, np.array([1.0]))[0] == pytest.approx(1.0 / 3.0)
    with pytest.raises(ValueError, match="need at least one step"):
        evolve(implicit_euler(), 1.0, 0, M1, K2, np.array([1.0]))
    for t_final in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="tau must be positive"):
            evolve(implicit_euler(), t_final, 2, M1, K2, np.array([1.0]))


def test_evolve_constant_when_stiffness_vanishes():
    zero = sp.csr_matrix((1, 1))
    u0 = np.array([3.0])
    final = evolve(implicit_euler(), 2.0, 5, M1, zero, u0)
    assert final.shape == (1,) and final[0] == pytest.approx(3.0)


def test_evolve_scalar_product_formula():
    n, tau, a = 7, 0.3, 2.0
    final = evolve(implicit_euler(), n * tau, n, M1, K2, np.array([1.0]))
    assert final[0] == pytest.approx((1.0 + tau * a) ** (-n), rel=1e-12)


def test_heat_amplitude_matches_separation_of_variables():
    space, mass, stiff, u0 = heat_setup()
    final = evolve(crank_nicolson(), 0.1, 512, mass, stiff, u0)
    amp = oracles.heat_amplitude(2.0, 1, 0.1)
    assert amp == pytest.approx(0.13887, abs=5e-5)
    mid = oracles.fe_eval(space, final, [0.5])[0]
    assert mid == pytest.approx(amp, abs=2e-4)


def test_a_stability_probe():
    for scheme in (implicit_euler(), crank_nicolson()):
        bmax, imax = a_stability_probe(scheme)
        assert bmax <= 1.0 + 1e-12
        assert imax < 1.0
    ie_interior = np.abs(implicit_euler().r(-1.0 + 1j))
    assert ie_interior < 0.6


def test_unconditional_energy_decay_implicit_euler():
    _, mass, stiff, u0 = heat_setup(m=16, order=1)
    for tau in (10.0, 1.0, 0.01):
        prop = Propagator(implicit_euler(), mass, stiff, tau)
        u = u0
        e_prev = u @ (mass @ u)
        for _ in range(4):
            u = prop.step(u)
            e = u @ (mass @ u)
            assert e <= e_prev + 1e-10
            e_prev = e


def test_consistency_probe_local_orders():
    _, mass, stiff, u0 = heat_setup(m=32, order=1)
    # asymptotic range: lambda_1 * tau stays well below one
    taus = [0.002, 0.001, 0.0005, 0.00025]
    res_ie = oracles.consistency_probe(implicit_euler(), mass, stiff, u0, taus)
    assert not res_ie.exact
    assert res_ie.slope == pytest.approx(2.0, abs=0.15)
    res_cn = oracles.consistency_probe(crank_nicolson(), mass, stiff, u0, taus)
    assert res_cn.slope == pytest.approx(3.0, abs=0.2)
    res0 = oracles.consistency_probe(implicit_euler(), M1, sp.csr_matrix((1, 1)), np.ones(1), taus)
    assert res0.exact and res0.slope is None


@pytest.mark.parametrize("name,order,tol", [("implicit_euler", 1.0, 0.1), ("crank_nicolson", 2.0, 0.15)])
def test_global_convergence_order_on_heat_oracle(name, order, tol):
    space, mass, stiff, u0 = heat_setup(m=64, order=2)
    scheme = scheme_by_name(name)
    t_final = 0.1
    amp = oracles.heat_amplitude(2.0, 1, t_final)
    errs, taus = [], []
    for n_steps in (8, 16, 32, 64):
        final = evolve(scheme, t_final, n_steps, mass, stiff, u0)
        errs.append(l2_error(space, final, lambda x: amp * math.sin(math.pi * x)))
        taus.append(t_final / n_steps)
    slope = np.polyfit(np.log(taus), np.log(errs), 1)[0]
    assert slope == pytest.approx(order, abs=tol)


def test_factorizations_cached_per_step_size(monkeypatch):
    # a Propagator has one step size: it factors at its first step, not
    # before, and reuses that factor at every later step
    _, mass, stiff, u0 = heat_setup(m=16, order=1)
    factored = []
    real_splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda a: factored.append(a.shape) or real_splu(a))
    prop = Propagator(crank_nicolson(), mass, stiff, 0.01)
    assert factored == []
    for _ in range(5):
        u0 = prop.step(u0)
    assert len(factored) == 1
    Propagator(crank_nicolson(), mass, stiff, 0.02).step(u0)
    assert len(factored) == 2


def sg_operator(n=2, m=6, order=1):
    """Block operator and initial chaos state of logistic_1d."""
    dist = distribution(hermite())
    space = make_fe_space(make_mesh(1, m), order)
    ops = spatial_operators(space, coefficient_by_name("logistic_1d"))
    mis = multi_index_set(dist.N, n)
    op = assemble_block_operator(dist, mis, ops, 30)
    u0 = initial_datum_by_name("sine_modes", modes=[[1, 1.0]])
    return op, initial_coefficients(dist, mis, u0, ops, 30)


def sg_block_setup():
    """Chaos-basis block system of logistic_1d, n = 2, P1, m = 6."""
    op, state0 = sg_operator()
    return oracles.block_gram(op, op.spatial.mass), op.matrix, state0.coeffs.reshape(-1)


@pytest.mark.parametrize("setup", ["heat_p1", "sg_block"])
@pytest.mark.parametrize("name", ["implicit_euler", "crank_nicolson"])
def test_cached_step_matches_rebuilt_step_bitwise(name, setup):
    if setup == "heat_p1":
        _, mass, stiff, u = heat_setup(m=16, order=1)
    else:
        mass, stiff, u = sg_block_setup()
    scheme = scheme_by_name(name)
    props = {tau: Propagator(scheme, mass, stiff, tau) for tau in (0.1, 0.05, 0.2)}
    want = u
    for tau in (0.1, 0.05, 0.1, 0.05, 0.2):
        u = props[tau].step(u)
        want = oracles.rebuilt_step(scheme, mass, stiff, want, tau)
        assert np.array_equal(u, want)


def test_non_positive_step_is_rejected_and_never_cached():
    _, mass, stiff, u = heat_setup(m=8, order=1)
    for tau in (0.0, -0.1, math.nan):
        with pytest.raises(ValueError, match="tau must be positive"):
            Propagator(implicit_euler(), mass, stiff, tau)


def test_residual_check_runs_on_cached_steps():
    _, mass, stiff, u0 = heat_setup(m=16, order=1)
    prop = Propagator(implicit_euler(), mass, stiff, 0.01)
    u = prop.step(u0)
    lhs, _ = prop._lu
    wrong = (mass + 0.02 * stiff).tocsc()
    prop._lu = (lhs, spla.splu(wrong))
    with pytest.raises(SolverError, match="residual"):
        prop.step(u)


def test_residual_check_runs_per_block():
    # block 1's right-hand side is 1e-13 of block 0's, so a wrong factor of
    # block 1 alone leaves a residual far below 1e-11 of the whole vector
    _, mass, stiff, u = heat_setup(m=16, order=1)
    n = mass.shape[0]
    mass2 = sp.block_diag([mass, mass], format="csr")
    stiff2 = sp.block_diag([stiff, stiff], format="csr")
    u2 = np.concatenate([u, 1e-13 * u])
    shift = sp.block_diag([sp.csr_matrix((n, n)), 0.5 * sp.identity(n)])
    wrong = spla.splu((mass2 + 0.01 * stiff2 + shift).tocsc())
    whole, blocked = Propagator(implicit_euler(), mass2, stiff2, 0.01), Propagator(
        implicit_euler(), mass2, stiff2, 0.01, blocks=(n, n)
    )
    for prop in (whole, blocked):
        good = prop.step(u2)  # the right factor passes either way
        prop._lu = (prop._lu[0], wrong)
    whole.step(good)  # masked by block 0
    with pytest.raises(StepResidualError, match="in block 1 of 2") as info:
        blocked.step(good)
    assert info.value.block == 1 and isinstance(info.value, SolverError)
    for blocks in ((n,), (n, n - 1), (0, 2 * n)):
        with pytest.raises(ValueError, match="do not partition"):
            Propagator(implicit_euler(), mass2, stiff2, 0.01, blocks=blocks)


@pytest.mark.parametrize("name", ["implicit_euler", "crank_nicolson"])
def test_nan_fails_the_first_step(name):
    _, mass, stiff, u0 = heat_setup(m=16, order=1)
    scheme = scheme_by_name(name)
    nan_stiff = stiff.copy()
    nan_stiff.data[3] = np.nan
    with pytest.raises(SolverError, match=r"tau = 0\.01 cannot be factored"):
        Propagator(scheme, mass, nan_stiff, 0.01).step(u0)  # SuperLU finds it singular
    # a NaN state passes the factorization; its NaN residual must fail the check
    u_nan = u0.copy()
    u_nan[2] = np.nan
    with pytest.raises(SolverError, match="residual"):
        Propagator(scheme, mass, stiff, 0.01).step(u_nan)


def test_schemes_built_and_validated_once():
    assert implicit_euler() is implicit_euler()
    assert crank_nicolson() is crank_nicolson()
    assert scheme_by_name("crank_nicolson") is crank_nicolson()


def test_scheme_by_name_errors():
    with pytest.raises(ValueError):
        scheme_by_name("leapfrog")


@pytest.mark.parametrize("grid", [(0.1, 16)], ids=["uniform"])
@pytest.mark.parametrize("name", ["implicit_euler", "crank_nicolson"])
def test_decoupled_evolve_matches_coupled_evolve(name, grid):
    op, state0 = sg_operator(n=3, m=8, order=2)
    scheme = scheme_by_name(name)
    mass, stiffness = oracles.system_matrices(op)
    coupled = evolve(scheme, *grid, mass, op.matrix, state0.coeffs.reshape(-1))
    w0 = op.to_system(state0.coeffs)
    w = evolve(scheme, *grid, mass, stiffness, w0.reshape(-1))
    decoupled = op.to_chaos(w.reshape(w0.shape)).reshape(-1)
    assert np.max(np.abs(decoupled - coupled)) <= 1e-11 * np.max(np.abs(coupled))


@pytest.mark.parametrize("dim,order", [(1, 1), (2, 2)])
@pytest.mark.parametrize("name", ["implicit_euler", "crank_nicolson"])
def test_right_hand_side_is_bitwise_the_two_product_form(name, dim, order):
    # Crank--Nicolson takes M u and K u from one product with the stacked
    # [M; K]; each row keeps its stored order, so b is bitwise unchanged
    space = make_fe_space(make_mesh(dim, 6 if dim == 1 else 3), order)
    coeff = 2.0 if dim == 1 else coefficient_by_name("logistic_anisotropic").spatial_part
    mass, stiff = assemble_mass(space), assemble_stiffness(space, coeff)
    scheme = scheme_by_name(name)
    n0, n1 = scheme.num
    u = np.random.default_rng(dim).standard_normal(space.ndof)
    for tau in (0.1, 0.013):
        prop = Propagator(scheme, mass, stiff, tau)
        assert (prop._stacked is None) == (name == "implicit_euler")
        want = n0 * (mass @ u)
        if n1 != 0.0:
            want = want - n1 * tau * (stiff @ u)
        assert np.array_equal(prop.rhs(u), want)
