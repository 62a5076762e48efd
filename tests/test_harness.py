import copy
import dataclasses
import json
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
from sgpde import coeffs, harness, sgsystem, spatial, timestep
from sgpde.cli import main
from sgpde.coeffs import (
    COEFFICIENT_BUILTINS,
    INITIAL_DATUM_BUILTINS,
    CoefficientField,
    InitialDatum,
    builtin_separable,
    coefficient_by_name,
    initial_datum_by_name,
    logistic_factor,
)
from sgpde.harness import (
    _admissible,
    analytic_reference,
    build_reference,
    collocation_reference,
    config_hash,
    error_norm_H,
    fit_rate,
    half_split_slopes,
    load_config,
    solve_single,
    sweep,
    write_outputs,
    OperatorCache,
)
from sgpde.orthopoly import hermite
from sgpde.pce import distribution, multi_index_set, tensor_basis_matrix, tensor_quad
from sgpde.sgsystem import SgState, reconstruct_at_nodes, spatial_operators
from sgpde.spatial import (
    SolverError,
    assemble_mass,
    l2_error,
    load_vector,
    make_fe_space,
    make_mesh,
    nodal_coordinates,
)
from sgpde.timestep import scheme_by_name

H1 = distribution(hermite())
ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = json.loads((ROOT / "perfbench" / "workloads.json").read_text())["workloads"]


def mini_config(**overrides):
    raw = {
        "distribution": [{"kind": "hermite"}],
        "coefficient": {"name": "logistic_1d"},
        "initial_datum": {"name": "sine_modes", "params": {"modes": [[1, 1.0]]}},
        "geometry": {"dim": 1, "fe_order": 2},
        "sweep": {"n": [1, 2, 3], "m": [8, 16], "n_k": [8, 16]},
        "scheme": "crank_nicolson",
        "t_final": 0.1,
        "quad_order": 20,
        "reference": {"kind": "analytic"},
    }
    raw.update(overrides)
    return raw


def test_analytic_reference_examples():
    field = coefficient_by_name("constant", value=2.0, dim=1)
    u0 = initial_datum_by_name("sine_modes", modes=[(1, 1.0)])
    ref = analytic_reference(H1, 5, field, u0, 0.1)
    nodes, weights = tensor_quad(H1, 5)
    assert np.array_equal(ref.nodes, nodes) and np.array_equal(ref.weights, weights)
    assert ref.frequencies.tolist() == [math.pi]
    assert ref.amplitudes.shape == (5, 1)
    amp = oracles.heat_amplitude(2.0, 1, 0.1)
    assert ref.amplitudes[:, 0] == pytest.approx([amp] * 5, rel=1e-12)
    u_start = oracles.analytic_solution(field, u0, nodes[0], 0.0)
    assert u_start(np.array([[0.5]]))[0] == pytest.approx(1.0, rel=1e-14)
    # logistic factor at z = 0, the middle of the 5 Hermite nodes, gives diffusivity 1.5
    ref2 = analytic_reference(H1, 5, coefficient_by_name("logistic_1d"), u0, 0.1)
    assert ref2.nodes[2, 0] == 0.0
    assert ref2.amplitudes[2, 0] == pytest.approx(oracles.heat_amplitude(1.5, 1, 0.1), rel=1e-12)


def test_analytic_reference_rejects_nonseparable():
    field = coefficient_by_name("logistic_anisotropic")
    u0 = initial_datum_by_name("sine_modes")
    with pytest.raises(ValueError):
        analytic_reference(H1, 5, field, u0, 0.1)


def test_collocation_matches_analytic_for_constant_field():
    field = coefficient_by_name("constant", value=2.0, dim=1)
    u0 = initial_datum_by_name("sine_modes", modes=[(1, 1.0)])
    space = make_fe_space(make_mesh(1, 256), 2)
    ref = collocation_reference(H1, 8, spatial_operators(space, field), 512, u0, 0.1)
    # all node solutions identical for a z-independent field
    assert np.max(np.abs(ref.values - ref.values[0])) < 1e-12
    for i in (0, 4):
        exact = oracles.analytic_solution(field, u0, ref.nodes[i], 0.1)
        err = oracles.sampled_l2_error(ref.ops.space, ref.values[i], exact)
        assert err <= 1e-5


def test_collocation_zero_initial_datum():
    field = coefficient_by_name("constant", value=1.0, dim=1)
    u0 = initial_datum_by_name("sine_modes", modes=[(1, 0.0)])
    space = make_fe_space(make_mesh(1, 8), 1)
    ref = collocation_reference(H1, 4, spatial_operators(space, field), 4, u0, 0.1)
    assert np.max(np.abs(ref.values)) < 1e-13


def test_error_norm_zero_for_identical_states():
    field = coefficient_by_name("constant", value=1.0, dim=1)
    u0 = initial_datum_by_name("sine_modes", modes=[(1, 1.0)])
    space = make_fe_space(make_mesh(1, 8), 1)
    ref = collocation_reference(H1, 5, spatial_operators(space, field), 8, u0, 0.05)
    mis = multi_index_set(1, 2)
    basis = tensor_basis_matrix(H1, mis, ref.nodes)
    # least-squares chaos representation of the reference samples
    coeffs = np.linalg.lstsq(basis, ref.values, rcond=None)[0]
    state = SgState(coeffs, mis)
    err = error_norm_H(H1, state, space, ref)
    assert err < 1e-12


def test_error_norm_single_node_perturbation():
    field = coefficient_by_name("constant", value=1.0, dim=1)
    u0 = initial_datum_by_name("sine_modes", modes=[(1, 1.0)])
    space = make_fe_space(make_mesh(1, 8), 1)
    ref = collocation_reference(H1, 4, spatial_operators(space, field), 8, u0, 0.05)
    mis = multi_index_set(1, 3)
    basis = tensor_basis_matrix(H1, mis, ref.nodes)
    coeffs = np.linalg.lstsq(basis, ref.values, rcond=None)[0]
    c = 0.37
    # bump the reconstruction by the constant c at exactly one node: with
    # 4 nodes and d_3 = 4 modes the basis matrix is square and invertible
    bump = np.zeros((4, space.ndof))
    bump[2] = c
    coeffs_pert = coeffs + np.linalg.solve(basis, bump)
    err = error_norm_H(H1, SgState(coeffs_pert, mis), space, ref)
    ones = np.ones(space.ndof)
    mass = assemble_mass(space)
    want = c * math.sqrt(ref.weights[2]) * math.sqrt(ones @ (mass @ ones))
    assert err == pytest.approx(want, rel=1e-10)


def test_error_norm_matches_monte_carlo():
    cfg = load_config(mini_config(sweep={"n": [2], "m": [8], "n_k": [16]}))
    cache = OperatorCache(cfg)
    state, space = solve_single(cache, 2, 8, 16)
    ana = analytic_reference(cfg.dist, 30, cfg.field, cfg.u0, cfg.t_final)
    quad_err = error_norm_H(cfg.dist, state, space, ana)
    rng = np.random.default_rng(123)
    samples = rng.standard_normal((10_000, 1))
    recon = tensor_basis_matrix(cfg.dist, state.mis, samples) @ state.coeffs
    mass = assemble_mass(space)
    b_sin = load_vector(space, lambda x: np.sin(math.pi * x[:, 0]))
    sin_norm2 = 0.5
    amps = cfg.field.z_factor(samples) * cfg.field.spatial_part(np.array([[0.5]]))
    damp = np.exp(-amps * math.pi**2 * cfg.t_final)
    err2 = (
        np.einsum("qi,ij,qj->q", recon, mass.toarray(), recon)
        - 2.0 * damp * (recon @ b_sin)
        + damp**2 * sin_norm2
    )
    mc_mean = float(np.mean(err2))
    mc_stderr = float(np.std(err2, ddof=1) / math.sqrt(len(err2)))
    assert abs(quad_err**2 - mc_mean) <= 3.0 * mc_stderr


# a constant-in-x diffusivity that reads every input, and a three-mode datum
TANH_FIELD = CoefficientField(
    dim=1, z_factor=lambda z: 1.5 + 0.5 * np.tanh(np.sum(z, axis=1)), spatial_part=lambda x: 1.0
)
THREE_SINES = initial_datum_by_name("sine_modes", modes=[(1, 1.0), (2, -0.4), (5, 0.15)])


def _analytic_fixture(order: int, n_inputs: int):
    """A 1D space, the analytic reference of `TANH_FIELD` and `THREE_SINES`
    on an 8-node grid, and a chaos state close to the exact solution (the
    nodal interpolants of the exact solution projected on degree-3 chaos
    modes)."""
    dist = distribution(*[hermite()] * n_inputs)
    ref = analytic_reference(dist, 8, TANH_FIELD, THREE_SINES, 0.05)
    space = make_fe_space(make_mesh(1, 7), order)
    mis = multi_index_set(n_inputs, 3)
    nodes, weights = tensor_quad(dist, 6)
    x = nodal_coordinates(space)[:, 0]
    exact = np.array(
        [oracles.analytic_solution(TANH_FIELD, THREE_SINES, z, 0.05)(x[:, None]) for z in nodes]
    )
    phi = tensor_basis_matrix(dist, mis, nodes)
    return dist, ref, space, SgState((phi * weights[:, None]).T @ exact, mis)


@pytest.mark.parametrize("n_inputs", [1, 2])
@pytest.mark.parametrize("order", [1, 2])
def test_analytic_error_matches_per_node_oracle(monkeypatch, order, n_inputs):
    dist, ref, space, state = _analytic_fixture(order, n_inputs)
    calls = []
    monkeypatch.setattr(
        harness, "l2_error", lambda *args: calls.append(args) or l2_error(*args)
    )

    def oracle(s):
        return oracles.per_node_analytic_error(dist, s, space, TANH_FIELD, THREE_SINES, 0.05, q=8)

    got = error_norm_H(dist, state, space, ref)
    want = oracle(state)
    assert len(calls) == 1  # one stacked call for all 8**N nodes
    assert abs(got - want) <= 1e-13 * want
    # a rough state: the error is of the size of the solution itself
    noise = np.random.default_rng(order).standard_normal(state.coeffs.shape)
    rough = SgState(noise, state.mis)
    got = error_norm_H(dist, rough, space, ref)
    assert abs(got - oracle(rough)) <= 1e-13 * got


@pytest.mark.parametrize("n_inputs", [1, 2])
@pytest.mark.parametrize("order", [1, 2])
def test_analytic_distance_is_the_two_pass_distance_bitwise(monkeypatch, order, n_inputs):
    # one pass over the error rule gives the very distance of the error
    # points and the array-valued l2_error that it replaced
    dist, ref, space, state = _analytic_fixture(order, n_inputs)
    recon = reconstruct_at_nodes(dist, state, ref.nodes)
    rules = []
    real = spatial._element_rule
    monkeypatch.setattr(spatial, "_element_rule", lambda *a: rules.append(a) or real(*a))
    got = ref.distance(space, recon)
    assert len(rules) == 1
    assert got.hex() == oracles.two_pass_analytic_distance(ref, space, recon).hex()


def test_analytic_values_are_the_pointwise_solution():
    _, ref, _, _ = _analytic_fixture(2, 2)
    x = np.linspace(0.0, 1.0, 11)
    got = ref.amplitudes @ np.sin(np.outer(ref.frequencies, x))
    want = np.array(
        [oracles.analytic_solution(TANH_FIELD, THREE_SINES, z, 0.05)(x[:, None]) for z in ref.nodes]
    )
    assert got.shape == (64, 11)
    assert np.max(np.abs(got - want)) <= 1e-15


def test_fit_rate_examples():
    fit = fit_rate([(1.0, 0.1), (0.5, 0.025), (0.25, 0.00625)])
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.residual_rms < 1e-12
    flat = fit_rate([(1.0, 0.3), (0.5, 0.3), (0.25, 0.3)])
    assert flat.slope == pytest.approx(0.0, abs=1e-12)
    lin = fit_rate([(1.0, 0.1), (0.5, 0.05), (0.25, 0.025)])
    assert lin.slope == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        fit_rate([(1.0, 0.1), (0.5, 0.05)])


def test_admissibility_rules():
    hs = [1.0, 0.5, 0.25, 0.125, 0.0625]
    errors = [1e-2, 1e-3, 1e-4, 9e-5, 1e-5]
    keep, flagged = _admissible(hs, errors, ref_floor=0.0)
    assert keep == [0, 1, 2, 3, 4]
    keep, flagged = _admissible(hs, errors, ref_floor=1e-5)
    assert keep == [0, 1]
    assert flagged[0] == (2, "near reference floor")
    keep, flagged = _admissible(hs, errors, ref_floor=0.0, sweep_floor=4e-5)
    assert keep == [0, 1]
    assert flagged[0] == (2, "near sweep floor")
    keep, flagged = _admissible(hs, [1e-2, 1e-3, 2e-3, 1e-4, 1e-5], ref_floor=0.0)
    assert keep == [0, 1]
    assert flagged[0] == (2, "not decreasing")


def test_half_split_slopes():
    hs = [1.0, 0.5, 0.25, 0.125]
    errors = [1.0, 0.25, 0.0156, 0.00024]  # accelerating decay
    first, second = half_split_slopes(hs, errors)
    assert second > first
    assert half_split_slopes(hs[:3], errors[:3]) is None


def test_config_validation_errors():
    with pytest.raises(ValueError, match="unknown config keys"):
        load_config(mini_config(bogus=1))
    raw = mini_config()
    del raw["coefficient"]
    with pytest.raises(ValueError, match=r"missing config keys: \['coefficient'\]"):
        load_config(raw)
    with pytest.raises(ValueError, match="quad_order"):
        load_config(mini_config(quad_order=3))
    with pytest.raises(ValueError, match="increasing"):
        load_config(mini_config(sweep={"n": [2, 1], "m": [8], "n_k": [8]}))
    with pytest.raises(ValueError, match="m_ref"):
        load_config(mini_config(reference={"kind": "collocation", "m_ref": 16, "n_k_ref": 64}))
    # non-strict mode allows a merely-finer reference
    cfg = load_config(
        mini_config(
            reference={"kind": "collocation", "m_ref": 32, "n_k_ref": 64},
            strict_reference=False,
        )
    )
    assert cfg.reference["m_ref"] == 32
    with pytest.raises(ValueError, match="scheme"):
        load_config(mini_config(scheme="leapfrog"))


@pytest.mark.parametrize(
    "axis,values,reference,shown",
    [
        ("m", [0, 8], {"kind": "collocation", "m_ref": 64, "n_k_ref": 64},
         "value 0 must be an integer >= 1"),
        ("n_k", [0, 16], {"kind": "analytic"}, "value 0 must be an integer >= 1"),
        ("n", [-1, 2], {"kind": "analytic"}, "value -1 must be an integer >= 0"),
        ("n_k", [8.5, 16], {"kind": "analytic"}, r"value 8\.5 must be an integer >= 1"),
        ("n", [True, 2], {"kind": "analytic"}, "value True must be an integer >= 0"),
        # a repeated value would flag itself "not decreasing" and cut every fit
        ("n", [1, 2, 2, 3], {"kind": "analytic"}, "must be strictly increasing"),
    ],
    ids=["m_zero_collocation", "n_k_zero", "n_negative", "n_k_float", "n_bool", "n_repeated"],
)
def test_bad_sweep_values_are_rejected_at_load(monkeypatch, axis, values, reference, shown):
    solved = []
    monkeypatch.setattr(harness, "evolve", lambda *args, **kwargs: solved.append(args))
    raw = mini_config(reference=reference)
    raw["sweep"] = {**raw["sweep"], axis: values}
    with pytest.raises(ValueError, match=rf"^sweep\.{axis} {shown}$"):
        load_config(raw)
    assert solved == []


COLLOC_2D = WORKLOADS["colloc_2d"]["config"]


@pytest.mark.parametrize(
    "raw,shown",
    [
        ({**COLLOC_2D, "initial_datum": {"name": "sine_modes"}},
         "initial_datum 'sine_modes' is 1D but geometry.dim is 2"),
        ({**COLLOC_2D, "coefficient": {"name": "logistic_1d"}},
         "coefficient 'logistic_1d' is 1D but geometry.dim is 2"),
        (mini_config(distribution=[{"kind": "beta"}]),
         "distribution: unknown distribution component 'beta'"),
        (mini_config(distribution=[{"kind": "jacobi", "alpha": -1.0}]),
         "distribution: jacobi alpha value -1.0 must be a finite number > -1"),
        (mini_config(coefficient={"name": "logistic_1d", "params": {"slope": 2.0}}),
         "coefficient: .*unexpected keyword argument 'slope'"),
        (mini_config(coefficient={"name": "logistic"}),
         "coefficient: unknown coefficient 'logistic'"),
        (mini_config(initial_datum={"name": "sine_modes", "params": {"modes": [[1]]}}),
         "initial_datum: "),
    ],
    ids=[
        "datum_1d_in_2d", "field_1d_in_2d", "unknown_distribution",
        "jacobi_alpha", "unknown_field_param", "unknown_field", "bad_datum_param",
    ],
)
def test_bad_distribution_field_or_datum_is_rejected_at_load(monkeypatch, raw, shown):
    # each is built when the config loads; a bad one raises a ValueError
    # naming its key, before anything is solved
    solved = []
    monkeypatch.setattr(harness, "evolve", lambda *args, **kwargs: solved.append(args))
    with pytest.raises(ValueError, match=rf"^{shown}"):
        load_config(raw)
    assert solved == []


COLLOCATION = {"kind": "collocation", "m_ref": 64, "n_k_ref": 64}


@pytest.mark.parametrize(
    "override,key,shown",
    [
        ({"quad_order": 20.5}, "quad_order", r"20\.5"),
        ({"quad_order": "20"}, "quad_order", "'20'"),
        ({"t_final": "0.1"}, "t_final", r"'0\.1'"),
        ({"strict_reference": "false"}, "strict_reference", "'false'"),
        ({"strict_reference": 0}, "strict_reference", "0"),
        ({"reference": {**COLLOCATION, "m_ref": 64.0}}, r"reference\.m_ref", r"64\.0"),
        ({"reference": {**COLLOCATION, "n_k_ref": 64.5}}, r"reference\.n_k_ref", r"64\.5"),
        ({"reference": {**COLLOCATION, "n_k_ref": True}}, r"reference\.n_k_ref", "True"),
        ({"reference": {"kind": "collocation", "m_ref": 64}}, r"reference\.n_k_ref", "None"),
        ({"reference": {**COLLOCATION, "quad_order": 2.5}}, r"reference\.quad_order", r"2\.5"),
        ({"reference": {**COLLOCATION, "quad_order": 0}}, r"reference\.quad_order", "0"),
        # a dict or list key given a value of another JSON type
        ({"distribution": {"kind": "hermite"}}, "distribution", r"\{'kind': 'hermite'\}"),
        ({"distribution": ["hermite"]}, r"distribution\[0\]", "'hermite'"),
        ({"geometry": 1}, "geometry", "1"),
        ({"coefficient": "logistic_1d"}, "coefficient", "'logistic_1d'"),
        ({"reference": ["analytic"]}, "reference", r"\['analytic'\]"),
        ({"tolerances": {"n": True}}, r"tolerances\.n", "True"),
        ({"scheme": ["crank_nicolson"]}, "scheme", r"\['crank_nicolson'\]"),
    ],
    ids=[
        "quad_order_fraction", "quad_order_string", "t_final_string", "strict_string",
        "strict_int", "m_ref_float", "n_k_ref_fraction", "n_k_ref_bool", "n_k_ref_missing",
        "ref_quad_order_fraction", "ref_quad_order_zero", "distribution_dict",
        "distribution_component_string", "geometry_int", "coefficient_string", "reference_list",
        "tolerance_axis_bool", "scheme_list",
    ],
)
def test_bad_config_values_are_rejected_at_load(monkeypatch, override, key, shown):
    # rejected when the config loads, naming the key, before anything is solved
    solved = []
    monkeypatch.setattr(harness, "evolve", lambda *args, **kwargs: solved.append(args))
    with pytest.raises(ValueError, match=rf"^{key} value {shown} must be "):
        load_config(mini_config(**override))
    assert solved == []


@pytest.mark.parametrize(
    "raw,shown",
    [
        # three inputs at n = 30: the chaos basis would be 61^3 x C(33, 3) floats, 9.9 GB
        (mini_config(distribution=[{"kind": "hermite"}] * 3, quad_order=61,
                     sweep={"n": [30], "m": [8], "n_k": [8]}),
         "quad_order 61 too large for N = 3 inputs and n = 30: the chaos basis on its grid "
         "has 1238408336 entries; need <= 10000000"),
        # 2D P2 on m_ref = 512: 20 nodes x 1023^2 dofs
        ({**COLLOC_2D, "reference": {**COLLOC_2D["reference"], "m_ref": 512, "quad_order": 20}},
         "reference quad_order 20 and m_ref 512 too large for N = 1 inputs: the reference "
         "has 20930580 entries; need <= 10000000"),
    ],
    ids=["chaos_basis", "reference"],
)
def test_a_sweep_too_large_for_memory_is_refused_before_anything_is_built(monkeypatch, raw, shown):
    # the sizes are counted in integers: no grid, family or reference is built
    def refuse(*args, **kwargs):
        pytest.fail("the config built an array before refusing its size")

    for name in ("tensor_quad", "analytic_reference", "DistributionSpec"):
        monkeypatch.setattr(harness, name, refuse)
    with pytest.raises(ValueError, match=rf"^{shown}$"):
        load_config(raw)


@pytest.mark.parametrize(
    "bound,raw,size",
    [
        ("MAX_CHAOS_BASIS_ENTRIES", mini_config(), 20 * 4),  # 20 nodes x d_3 modes
        ("MAX_REFERENCE_ENTRIES", mini_config(reference=COLLOCATION), 20 * 127),  # x P2 dofs
    ],
    ids=["chaos_basis", "reference"],
)
def test_a_config_at_a_memory_bound_loads_and_one_entry_above_it_is_refused(
    monkeypatch, bound, raw, size
):
    monkeypatch.setattr(harness, bound, size)
    load_config(raw)
    monkeypatch.setattr(harness, bound, size - 1)
    with pytest.raises(ValueError, match=rf"has {size} entries; need <= {size - 1}$"):
        load_config(raw)


@pytest.mark.parametrize(
    "override,shown",
    [
        ({"tolerances": {"m": {"min_slop": 100.0}}}, r"unknown tolerances\.m keys: \['min_slop'\]"),
        ({"tolerances": {"joint": {"allowed_increase": 0.05, "increase": 0.1}}},
         r"unknown tolerances\.joint keys: \['increase'\]"),
        ({"tolerances": {"nk": {"decreasing": True}}}, r"unknown tolerances keys: \['nk'\]"),
        ({"distribution": [{"kind": "jacobi", "alhpa": 3.0}]},
         r"distribution: unknown jacobi keys: \['alhpa'\]"),
        ({"distribution": [{"kind": "hermite", "alpha": 1.0}]},
         r"distribution: unknown hermite keys: \['alpha'\]"),
        ({"reference": {**COLLOCATION, "m_reff": 32}}, r"unknown reference keys: \['m_reff'\]"),
        ({"reference": {"kind": "analytic", "m_ref": 64}}, r"unknown reference keys: \['m_ref'\]"),
        ({"geometry": {"dim": 1, "fe_order": 2, "fe_ordr": 1}},
         r"unknown geometry keys: \['fe_ordr'\]"),
        ({"sweep": {"n": [1], "m": [8], "n_k": [8], "nk": [16]}}, r"unknown sweep keys: \['nk'\]"),
        ({"coefficient": {"name": "logistic_1d", "param": {}}},
         r"unknown coefficient keys: \['param'\]"),
        ({"output": {"csv": "out"}}, r"unknown output keys: \['csv'\]"),
    ],
    ids=[
        "tolerance_min_slop", "tolerance_joint", "tolerance_axis", "jacobi_alhpa",
        "hermite_alpha", "reference_m_reff", "analytic_m_ref", "geometry_fe_ordr", "sweep_nk",
        "coefficient_param", "output_csv",
    ],
)
def test_unknown_config_keys_are_rejected_at_load(monkeypatch, override, shown):
    # a key the code does not read is most likely misspelled: a check or a
    # parameter it names would silently fall back to its default
    solved = []
    monkeypatch.setattr(harness, "evolve", lambda *args, **kwargs: solved.append(args))
    with pytest.raises(ValueError, match=rf"^{shown}$"):
        load_config(mini_config(**override))
    assert solved == []


@pytest.mark.parametrize(
    "tolerances,key,shown",
    [
        ({"m": {"min_slope": "2"}}, r"tolerances\.m\.min_slope", "'2'"),
        ({"joint": {"allowed_increase": "x"}}, r"tolerances\.joint\.allowed_increase", "'x'"),
        ({"n_k": {"slope": True, "tol": 0.1}}, r"tolerances\.n_k\.slope", "True"),
        ({"n_k": {"slope": 1.0, "tol": math.nan}}, r"tolerances\.n_k\.tol", "nan"),
        ({"m": {"max_final_error": math.inf}}, r"tolerances\.m\.max_final_error", "inf"),
        ({"n": {"decreasing": "no"}}, r"tolerances\.n\.decreasing", "'no'"),
        ({"n": {"superalgebraic": 1}}, r"tolerances\.n\.superalgebraic", "1"),
    ],
    ids=["min_slope_string", "allowed_increase_string", "slope_bool", "tol_nan",
         "max_final_error_inf", "decreasing_string", "superalgebraic_int"],
)
def test_bad_tolerance_values_are_rejected_at_load(monkeypatch, tolerances, key, shown):
    # a tolerance is read only after the whole sweep, so its type is checked first
    solved = []
    monkeypatch.setattr(harness, "evolve", lambda *args, **kwargs: solved.append(args))
    with pytest.raises(ValueError, match=rf"^{key} value {shown} must be "):
        load_config(mini_config(tolerances=tolerances))
    assert solved == []


@pytest.mark.parametrize(
    "axis,key,allowed,refused,shown",
    [
        ("n_k", "tol", 0.0, -0.1, ">= 0"),
        ("m", "max_final_error", 0.0, -1e-5, ">= 0"),
        ("joint", "allowed_increase", -0.5, -1.0, "a finite number > -1"),
    ],
    ids=["tol", "max_final_error", "allowed_increase"],
)
def test_tolerances_that_no_sweep_can_meet_are_rejected_at_load(
    monkeypatch, axis, key, allowed, refused, shown
):
    # every error is positive, so |slope - s| <= tol, final error <=
    # max_final_error and next <= (1 + allowed_increase) * previous fail on
    # every sweep once the bound is below its range
    def config(value):
        tolerance = {key: value, **({"slope": 1.0} if key == "tol" else {})}
        return mini_config(tolerances={axis: tolerance})

    load_config(config(allowed))
    solved = []
    monkeypatch.setattr(harness, "evolve", lambda *args, **kwargs: solved.append(args))
    shown = rf"^tolerances\.{axis}\.{key} value {refused!r} must be {shown}$"
    with pytest.raises(ValueError, match=shown):
        load_config(config(refused))
    assert solved == []


@pytest.mark.parametrize("tolerance", [{"slope": 2.0}, {"tol": 0.1}], ids=["slope", "tol"])
def test_slope_without_tol_or_tol_without_slope_is_rejected_at_load(monkeypatch, tolerance):
    solved = []
    monkeypatch.setattr(harness, "evolve", lambda *args, **kwargs: solved.append(args))
    with pytest.raises(ValueError, match=r"^tolerances\.m must give slope and tol together$"):
        load_config(mini_config(tolerances={"m": tolerance}))
    assert solved == []


def _ramp_field():
    # 1D and elliptic, but g(x) = 1 + x is not constant
    return builtin_separable(logistic_factor, lambda x: 1.0 + x[:, 0], name="ramp")


def _bump_datum():
    return InitialDatum(dim=1, sample=lambda z: (lambda x: x[:, 0] * (1.0 - x[:, 0])), name="bump")


@pytest.mark.parametrize(
    "override,shown",
    [
        ({"coefficient": {"name": "logistic_anisotropic"},
          "initial_datum": {"name": "product_sine"}, "geometry": {"dim": 2, "fe_order": 2}},
         "a 1D coefficient"),
        ({"coefficient": {"name": "ramp"}}, "a constant-in-x coefficient"),
        ({"initial_datum": {"name": "bump"}}, "Fourier sine initial data"),
    ],
    ids=["2d_field", "non_constant_g", "non_sine_datum"],
)
def test_an_analytic_reference_that_cannot_be_built_is_rejected_at_load(monkeypatch, override, shown):
    monkeypatch.setitem(COEFFICIENT_BUILTINS, "ramp", _ramp_field)
    monkeypatch.setitem(INITIAL_DATUM_BUILTINS, "bump", _bump_datum)
    solved = []
    monkeypatch.setattr(harness, "evolve", lambda *args, **kwargs: solved.append(args))
    with pytest.raises(ValueError, match=rf"^reference: analytic reference needs {shown}$"):
        load_config(mini_config(**override))
    assert solved == []


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0], ids=["nan", "inf", "zero"])
def test_non_finite_or_non_positive_t_final_is_rejected_at_load(monkeypatch, tmp_path, value):
    # a JSON file spells the first two NaN and Infinity, literals that json reads
    solved = []
    monkeypatch.setattr(harness, "evolve", lambda *args, **kwargs: solved.append(args))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(mini_config(t_final=value)))
    with pytest.raises(ValueError, match=rf"^t_final value {value!r} must be a finite number > 0$"):
        load_config(path)
    assert solved == []


def test_unknown_scheme_of_a_directly_built_config_fails_before_the_reference(monkeypatch):
    # a config made without load_config is checked when it is made, so no
    # config with an unknown scheme reaches the collocation reference
    cfg = load_config(COLLOC_2D)
    built = []
    monkeypatch.setattr(harness, "build_reference", lambda *args, **kwargs: built.append(args))
    with pytest.raises(ValueError, match=r"^unknown scheme 'crank_nicholson'$"):
        dataclasses.replace(cfg, scheme="crank_nicholson")
    assert built == []


JOINT_1D = WORKLOADS["joint_1d"]["config"]


@pytest.mark.parametrize(
    "override,shown",
    [
        ({"t_final": "0.6"}, r"^t_final value '0\.6' must be of type float$"),
        ({"quad_order": 30.5}, r"^quad_order value 30\.5 must be of type int$"),
        ({"strict_reference": "false"}, r"^strict_reference value 'false' must be of type bool$"),
    ],
    ids=["t_final_string", "quad_order_fraction", "strict_string"],
)
def test_a_directly_made_config_reads_each_value_as_its_type(override, shown):
    # load_config only reads the source: the types are checked as a config is made
    with pytest.raises(ValueError, match=shown):
        dataclasses.replace(load_config(JOINT_1D), **override)


def test_a_directly_made_config_holds_its_distribution_as_a_tuple():
    cfg = load_config(JOINT_1D)
    for given in (list(cfg.distribution), tuple(cfg.distribution)):
        made = dataclasses.replace(cfg, distribution=given)
        assert type(made.distribution) is tuple
        assert config_hash(made) == WORKLOAD_CONFIG_HASHES["joint_1d"]


def test_a_checked_config_cannot_be_changed_after_its_checks():
    raw = json.loads(json.dumps(JOINT_1D))
    cfg = load_config(raw)
    with pytest.raises(AttributeError):
        cfg.sweep["n"].append(-3)
    for change in (lambda: cfg.sweep.__setitem__("n", [-3]),
                   lambda: cfg.distribution[0].update(kind="beta")):
        with pytest.raises(TypeError, match="read-only"):
            change()
    # the config holds its own copies: editing the source changes nothing
    raw["sweep"]["n"].append(99)
    raw["distribution"][0]["kind"] = "laguerre"
    assert config_hash(cfg) == WORKLOAD_CONFIG_HASHES["joint_1d"]
    # dataclasses.replace makes a new config, and checks it
    with pytest.raises(ValueError, match=r"^t_final value -1\.0 must be a finite number > 0$"):
        dataclasses.replace(cfg, t_final=-1.0)
    assert config_hash(dataclasses.replace(cfg, t_final=cfg.t_final)) == config_hash(cfg)
    assert config_hash(copy.deepcopy(cfg)) == config_hash(cfg)


def test_odd_reference_mesh_is_rejected_only_for_the_error_estimate(monkeypatch, tmp_path, capsys):
    # the two-grid estimate solves on m_ref // 2, which must divide m_ref; a
    # run without the estimate never builds that mesh
    raw = mini_config(
        sweep={"n": [1], "m": [1, 3, 5], "n_k": [8, 16]},
        reference={"kind": "collocation", "m_ref": 45, "n_k_ref": 64},
    )
    cfg = load_config(raw)
    built = []
    real = harness.collocation_reference
    monkeypatch.setattr(
        harness, "collocation_reference", lambda *args: built.append(args[2].space) or real(*args)
    )
    with pytest.raises(ValueError, match=r"m_ref = 45 cannot take .* m = m_ref // 2 = 22"):
        sweep(cfg)
    assert built == []  # rejected before any solve
    assert build_reference(OperatorCache(cfg), estimate_error=False).est_error == 0.0
    assert len(built) == 1
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert main(["solve", str(path)]) == 0
    assert "error =" in capsys.readouterr().out
    # an odd m_ref <= 3 nests its estimate mesh m = 1
    cfg = load_config(
        mini_config(
            sweep={"n": [1], "m": [1, 3], "n_k": [8]},
            reference={"kind": "collocation", "m_ref": 3, "n_k_ref": 8},
            strict_reference=False,
        )
    )
    assert build_reference(OperatorCache(cfg)).est_error > 0.0


P1_1D = {"dim": 1, "fe_order": 1}


@pytest.mark.parametrize(
    "override",
    [
        {"geometry": P1_1D, "sweep": {"n": [1, 2], "m": [1, 2, 4, 8], "n_k": [8, 16]}},
        {**{k: COLLOC_2D[k] for k in ("coefficient", "initial_datum", "quad_order")},
         "geometry": {"dim": 2, "fe_order": 1}, "sweep": {"n": [1], "m": [1, 2], "n_k": [4]},
         "reference": {"kind": "collocation", "m_ref": 8, "n_k_ref": 16}},
    ],
    ids=["1d_analytic", "2d_collocation"],
)
def test_a_p1_sweep_mesh_without_interior_dofs_is_rejected_at_load(monkeypatch, override):
    # a P1 space on one cell has no dof; P2 on one cell has one
    solved = []
    real = harness.evolve
    monkeypatch.setattr(harness, "evolve", lambda *a, **k: solved.append(a) or real(*a, **k))
    with pytest.raises(ValueError, match=r"^sweep\.m value 1 must be an integer >= 2$"):
        sweep(load_config(mini_config(**override)))
    assert solved == []
    one_cell = {"kind": "collocation", "m_ref": 1, "n_k_ref": 16}
    with pytest.raises(ValueError, match=r"^reference\.m_ref value 1 must be an integer >= 2$"):
        load_config(mini_config(geometry=P1_1D, reference=one_cell, strict_reference=False))
    load_config(mini_config(sweep={"n": [1], "m": [1], "n_k": [8]}))  # P2


def test_sgpde_solve_rejects_a_p1_mesh_without_interior_dofs(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(mini_config(geometry=P1_1D, sweep={"n": [1], "m": [1], "n_k": [8]})))
    assert main(["solve", str(path)]) == 2
    assert capsys.readouterr().err == "sgpde: error: sweep.m value 1 must be an integer >= 2\n"


@pytest.mark.parametrize("m_ref", [2, 3])
def test_a_p1_estimate_mesh_without_interior_dofs_is_rejected_before_any_solve(
    monkeypatch, tmp_path, capsys, m_ref
):
    # the two-grid estimate solves on m_ref // 2 = 1, a P1 space with no dof;
    # a run without the estimate never builds that mesh
    raw = mini_config(
        geometry=P1_1D,
        sweep={"n": [1, 2], "m": [m_ref], "n_k": [8, 16]},
        reference={"kind": "collocation", "m_ref": m_ref, "n_k_ref": 16},
        strict_reference=False,
    )
    built = []
    real = harness.collocation_reference
    monkeypatch.setattr(
        harness, "collocation_reference", lambda *args: built.append(args[2].space) or real(*args)
    )
    shown = rf"^reference m_ref = {m_ref} cannot take .* m = m_ref // 2 = 1 has no interior dof"
    with pytest.raises(ValueError, match=shown):
        sweep(load_config(raw))
    assert built == []  # rejected before any solve
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert main(["solve", str(path)]) == 0
    assert "error =" in capsys.readouterr().out


def test_each_object_a_config_names_is_built_once_per_config(monkeypatch, tmp_path):
    # the config builds its distribution, field, datum and analytic reference
    # when it is made; the cache, the sweep and the reference reuse them
    names = ("coefficient_by_name", "initial_datum_by_name", "analytic_reference")
    counts = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in counts:
        monkeypatch.setattr(harness, name, counted(name, getattr(harness, name)))
    raw = mini_config(sweep={"n": [1, 2], "m": [4, 8], "n_k": [4, 8]})
    sweep(load_config(raw))
    assert counts == dict.fromkeys(counts, 1)
    counts.update(dict.fromkeys(counts, 0))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert main(["solve", str(path)]) == 0
    assert counts == dict.fromkeys(counts, 1)


def strip_runtimes(payload):
    if isinstance(payload, dict):
        return {k: strip_runtimes(v) for k, v in payload.items() if k != "runtime_s"}
    if isinstance(payload, list):
        return [strip_runtimes(v) for v in payload]
    return payload


def test_sweep_deterministic_and_monotone_joint():
    cfg = load_config(mini_config())
    rep1 = sweep(cfg)
    rep2 = sweep(cfg)
    p1 = strip_runtimes(rep1.to_dict())
    p2 = strip_runtimes(rep2.to_dict())
    assert json.dumps(p1, sort_keys=True) == json.dumps(p2, sort_keys=True)
    assert rep1.config_digest == config_hash(cfg)
    # refining any single axis never increases the error by more than 5%
    for result in rep1.axes.values():
        for a, b in zip(result.errors, result.errors[1:]):
            assert b <= a * 1.05


def test_sweep_flags_points_solved_earlier_as_cache_hits():
    cfg = load_config(mini_config(sweep={"n": [1, 2], "m": [4, 8], "n_k": [8]}))
    report = sweep(cfg).to_dict()
    # the joint table, (1, 4, 8) then (2, 8, 8), runs first and solves both rows
    assert [row["cache_hit"] for row in report["joint"]] == [False, False]
    hits = {axis: [p["cache_hit"] for p in r["points"]] for axis, r in report["axes"].items()}
    assert hits == {"n": [False, True], "m": [False, True], "n_k": [True]}


def _sweep_points(cfg, report):
    """(n, m, n_k, cache_hit, runtime_s) of every measured point, in the order
    the sweep runs them: the joint table, then the n, m and n_k axes."""
    points = [
        (row["n"], row["m"], row["n_k"], row["cache_hit"], row["runtime_s"])
        for row in report.joint
    ]
    finest = {k: max(v) for k, v in cfg.sweep.items()}
    for axis, result in report.axes.items():
        for v, hit, runtime in zip(result.values, result.cache_hits, result.runtimes):
            point = {**finest, axis: v}
            points.append((point["n"], point["m"], point["n_k"], hit, runtime))
    return points


def test_sweep_logs_one_debug_record_per_point(caplog):
    caplog.set_level(logging.DEBUG, logger="sgpde.harness")
    cfg = load_config(mini_config(sweep={"n": [1, 2], "m": [4, 8], "n_k": [4, 8]}))
    report = sweep(cfg)
    records = [r for r in caplog.records if r.getMessage().startswith("sweep point:")]
    points = _sweep_points(cfg, report)
    # one record per distinct point, at its first listing; a later listing
    # is a cache hit that costs nothing
    first = [p for p in points if not p[3]]
    assert [p[:3] for p in first] == list(dict.fromkeys(p[:3] for p in points))
    assert len(points) == 8 and len(records) == len(first) == 5
    for record, (n, m, n_k, _, runtime) in zip(records, first):
        assert record.name == "sgpde.harness" and record.levelno == logging.DEBUG
        assert record.args[:3] == (n, m, n_k)
        solve_s, error_s = record.args[3:]
        assert solve_s >= 0.0 and error_s > 0.0
        assert solve_s + error_s == pytest.approx(runtime, rel=1e-12, abs=1e-15)
    assert all(runtime == 0.0 for *_, hit, runtime in points if hit)
    message = records[0].getMessage()
    assert message.startswith("sweep point: n=1 m=4 n_k=4 solve_s=")
    assert " error_s=" in message


def test_sweep_measures_each_distinct_point_once_as_a_fresh_solve(monkeypatch):
    cfg = load_config(mini_config(sweep={"n": [1, 2], "m": [4, 8], "n_k": [4, 8]}))
    calls = []
    real = harness.error_norm_H
    monkeypatch.setattr(harness, "error_norm_H", lambda *a, **k: calls.append(a) or real(*a, **k))
    report = sweep(cfg)
    monkeypatch.undo()
    points = _sweep_points(cfg, report)
    assert len(calls) == len({p[:3] for p in points}) == 5
    # every listing reads the error of one solve of its point, bitwise
    errors = [row["error"] for row in report.joint]
    errors += [e for result in report.axes.values() for e in result.errors]
    cache = OperatorCache(cfg)
    reference = build_reference(cache)
    for (n, m, n_k, *_), err in zip(points, errors, strict=True):
        state, space = solve_single(cache, n, m, n_k)
        assert err == error_norm_H(cfg.dist, state, space, reference)


def test_sweep_logs_one_debug_record_per_batch(caplog):
    caplog.set_level(logging.DEBUG, logger="sgpde.harness")
    cfg = load_config(mini_config(sweep={"n": [1, 2], "m": [4, 8], "n_k": [4, 8]}))
    report = sweep(cfg)
    points = _sweep_points(cfg, report)
    # each batch logs one propagation record per space, in order of its
    # first point, before its own record
    per_batch, paths = [], []
    for r in caplog.records:
        if r.getMessage().startswith("propagation:"):
            paths.append(r)
        elif r.getMessage().startswith("solve batch:"):
            per_batch.append((r, paths))
            paths = []
    batches = [batch for batch, _ in per_batch]
    # the distinct points in measurement order, grouped by n_k; every space
    # is below SPECTRAL_NDOF_LIMIT, so every space is propagated spectrally
    assert [r.args[:2] for r in batches] == [
        (4, [(1, 4, 4), (2, 8, 4)]),
        (8, [(2, 8, 8), (1, 8, 8), (2, 4, 8)]),
    ]
    named = [f"sweep point (n, m, n_k) = {p}" for r in batches for p in r.args[1]]
    assert [[r.args[:3] for r in paths] for _, paths in per_batch] == [
        [("spectral", 4, [named[0]]), ("spectral", 4, [named[1]])],
        [("spectral", 8, [named[2], named[3]]), ("spectral", 8, [named[4]])],
    ]
    assert sum(not hit for *_, hit, _ in points) == 5
    cache = OperatorCache(cfg)
    for batch, paths in per_batch:
        n_k, points_of_batch, batch_unknowns, batch_wall = batch.args
        spaces = list(dict.fromkeys(m for _, m, _ in points_of_batch))
        for record in (batch, *paths):
            assert record.name == "sgpde.harness" and record.levelno == logging.DEBUG
        for path, m in zip(paths, spaces, strict=True):
            _, steps, _, unknowns, wall, orth, res, first_step = path.args
            assert unknowns == sum(
                cache.operator(n, space)[0].size for n, space, _ in points_of_batch if space == m
            )
            assert steps == n_k and 0.0 < wall
            # the space's checked pencil defects and its worst first-step gap
            assert 0.0 <= orth <= sgsystem.EIGH_TOL and 0.0 <= res <= sgsystem.EIGH_TOL
            assert 0.0 <= first_step <= harness.FIRST_STEP_TOL
            assert orth == cache.spatial(m).pencil.orth
            assert res == cache.spatial(m).pencil.res
        assert sum(p.args[3] for p in paths) == batch_unknowns == sum(
            cache.operator(n, m)[0].size for n, m, _ in points_of_batch
        )
        assert sum(p.args[4] for p in paths) <= batch_wall
    # solve_points splits each batch's wall time in proportion to unknowns
    caplog.clear()
    solved = harness.solve_points(cache, [p[:3] for p in points])
    first, second = (r.args for r in caplog.records if r.getMessage().startswith("solve batch:"))
    for n_k, batch, unknowns, wall in (first, second):
        assert sum(solved[p][1] for p in batch) == pytest.approx(wall, rel=1e-12)
        for n, m, _ in batch:
            size = cache.operator(n, m)[0].size
            assert solved[n, m, n_k][1] == pytest.approx(wall * size / unknowns, rel=1e-12)


def test_a_report_holds_only_what_the_sweep_measures():
    report = sweep(load_config(mini_config(sweep={"n": [1, 2], "m": [4], "n_k": [4]}))).to_dict()
    assert set(report) == {
        "config_hash", "version", "axes", "joint", "checks", "passed", "reference_error_estimate",
    }


def test_sweep_logging_is_silent_by_default():
    script = (
        "import json, sys\n"
        "from sgpde.harness import load_config, sweep\n"
        "sweep(load_config(json.loads(sys.argv[1])))\n"
    )
    cfg = mini_config(sweep={"n": [1, 2], "m": [4], "n_k": [4]})
    src = str(Path(harness.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps(cfg)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "" and done.stderr == ""


def test_config_hash_changes_with_config():
    c1 = load_config(mini_config())
    c2 = load_config(mini_config(t_final=0.2))
    assert config_hash(c1) != config_hash(c2)
    # each value is read as its field's type: 1 as 1.0, 20.0 as 20, a list as a tuple
    spelled = load_config(mini_config(t_final=1, quad_order=20.0))
    assert spelled.t_final == 1.0 and type(spelled.t_final) is float
    assert type(spelled.quad_order) is int and type(spelled.distribution) is tuple
    assert config_hash(spelled) == config_hash(load_config(mini_config(t_final=1.0)))


def test_numpy_scalars_in_a_dict_config_are_held_as_python_values():
    # a dict config may be built with NumPy: it hashes as the same config
    # written with Python numbers, and holds its integers as Python ints
    modes = {"name": "sine_modes", "params": {"modes": [[np.int64(1), 1.0]]}}
    made = load_config(mini_config(initial_datum=modes))
    assert config_hash(made) == config_hash(load_config(mini_config()))
    assert type(made.initial_datum["params"]["modes"][0][0]) is int
    raw = json.loads(json.dumps(COLLOC_2D))
    raw["sweep"] = {axis: [np.int64(v) for v in values] for axis, values in raw["sweep"].items()}
    for key in ("m_ref", "n_k_ref", "quad_order"):
        raw["reference"][key] = np.int64(raw["reference"][key])
    cfg = load_config(raw)
    assert config_hash(cfg) == WORKLOAD_CONFIG_HASHES["colloc_2d"]
    held = [*cfg.sweep["n"], *cfg.sweep["m"], *cfg.sweep["n_k"], cfg.reference["m_ref"]]
    assert all(type(v) is int for v in held)


# the hashes of the benchmark's workload configs when every config key was
# written out by hand: the canonical JSON must stay byte for byte the same
WORKLOAD_CONFIG_HASHES = {
    "colloc_2d": "55bf7d31b83f6313b2df52a2f65639e6b1b10ee17b51e1af2446c3a0882ba61d",
    "joint_1d": "941151e82dcff7df75ccfb9fbb894885c753c190eb41b246403c38842195ecc1",
    "stretch_2d_n2": "e4513504b8b6c5da9ff859526c62d12dd57eecb00cd939f36608b7a79bc2da80",
}


@pytest.mark.parametrize("workload", sorted(WORKLOAD_CONFIG_HASHES))
def test_config_hash_of_workload_configs_is_pinned(workload):
    cfg = load_config(WORKLOADS[workload]["config"])
    assert config_hash(cfg) == WORKLOAD_CONFIG_HASHES[workload]


def test_readme_example_config_loads():
    readme = (ROOT / "README.md").read_text()
    example = readme.split("```json\n", 1)[1].split("```", 1)[0]
    cfg = load_config(json.loads(example))
    assert cfg.distribution == ({"kind": "hermite"},) and cfg.quad_order == 30
    assert cfg.t_final == 0.6 and cfg.strict_reference is True


def test_write_outputs_csv_and_report(tmp_path):
    raw = mini_config(
        sweep={"n": [1, 2], "m": [8], "n_k": [8]},
        output={"csv_dir": str(tmp_path / "csv"), "report": str(tmp_path / "report.json")},
    )
    cfg = load_config(raw)
    report = sweep(cfg)
    paths = write_outputs(cfg, report)
    assert len(paths) == 5  # three axes + joint + report
    n_csv = (tmp_path / "csv" / "axis_n.csv").read_bytes().decode()
    lines = n_csv.split("\n")
    assert lines[0] == "axis,value,error,runtime_s"
    assert "\r" not in n_csv
    first = lines[1].split(",")
    assert first[0] == "n" and int(first[1]) == 1
    float(first[2])  # parses as a number with '.' decimal
    loaded = json.loads((tmp_path / "report.json").read_text())
    assert loaded["config_hash"] == config_hash(cfg)
    assert loaded["version"]


def test_collocation_reference_error_estimate():
    cfg = load_config(
        mini_config(
            sweep={"n": [1, 2], "m": [4], "n_k": [4]},
            reference={"kind": "collocation", "m_ref": 16, "n_k_ref": 16},
        )
    )
    cache = OperatorCache(cfg)
    ref = build_reference(cache, estimate_error=True)
    assert ref.est_error > 0.0


@pytest.mark.parametrize("scheme", ["implicit_euler", "crank_nicolson"])
def test_solve_single_steps_decoupled_modes_without_the_coupled_matrix(scheme):
    cfg = load_config(mini_config(scheme=scheme, sweep={"n": [3], "m": [8], "n_k": [16]}))
    cache = OperatorCache(cfg)
    state, _ = solve_single(cache, 3, 8, 16)
    op, state0 = cache.operator(3, 8)
    assert "matrix" not in vars(op)  # the chaos-basis matrix was never built
    block_mass = oracles.block_gram(op, op.spatial.mass)
    coupled = oracles.march(
        scheme_by_name(scheme), cfg.t_final, 16, block_mass, op.matrix, state0.coeffs.reshape(-1)
    )
    assert np.max(np.abs(state.coeffs.reshape(-1) - coupled)) <= 1e-11 * np.max(np.abs(coupled))


def test_a_sweep_above_the_spectral_limit_builds_no_pencil(monkeypatch):
    # with every space above the limit, the sweep steps every point and
    # decomposes no spatial pencil
    cfg = load_config(mini_config(sweep={"n": [1, 2], "m": [4, 8], "n_k": [4, 8]}))
    monkeypatch.setattr(harness, "SPECTRAL_NDOF_LIMIT", 6)  # below m = 4's 7 P2 dofs
    decomposed = []
    real = sgsystem._checked_eigh
    monkeypatch.setattr(
        sgsystem, "_checked_eigh",
        lambda a, b=None, what="chaos matrix": decomposed.append(what) or real(a, b, what),
    )
    sweep(cfg)
    assert decomposed and "spatial pencil (K_g, M)" not in decomposed  # only the G of operators


# --- the collocation reference against its per-node oracle --------------------

H2 = distribution(hermite(), hermite())


def _rel(a, b) -> float:
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


# a datum that samples to a new spatial function at every node
PER_NODE_DATUM = InitialDatum(
    dim=1, sample=lambda z: (lambda x: np.sin(math.pi * x[:, 0]) * math.cos(z[0]))
)


@pytest.mark.parametrize(
    "dist,q,dim,order,m,steps,field_name,u0",
    [
        (H1, 4, 1, 1, 8, 16, "logistic_1d",
         initial_datum_by_name("sine_modes", modes=[[1, 1.0], [3, 0.5]])),
        (H1, 3, 1, 2, 8, 16, "constant", initial_datum_by_name("sine_modes")),
        (H1, 3, 2, 2, 4, 8, "logistic_anisotropic", initial_datum_by_name("product_sine")),
        (H2, 2, 2, 2, 4, 8, "logistic_anisotropic", initial_datum_by_name("product_sine")),
        (H1, 4, 1, 2, 8, 8, "logistic_1d", PER_NODE_DATUM),
    ],
    ids=["1d_p1_logistic", "1d_p2_constant", "2d_p2_N1", "2d_p2_N2", "1d_p2_per_node_datum"],
)
def test_separable_reference_matches_per_node_oracle(
    monkeypatch, dist, q, dim, order, m, steps, field_name, u0
):
    # every space here is on the spectral path at the default limit; at 0
    # the nodes are stepped as one block-diagonal system
    params = {"dim": dim, "value": 2.0} if field_name == "constant" else {}
    field = coefficient_by_name(field_name, **params)
    fine = make_fe_space(make_mesh(dim, m), order)
    coarse = make_fe_space(make_mesh(dim, m // 2), order)
    want = oracles.per_node_collocation_reference(dist, q, fine, steps, field, u0, 0.1)
    half_want = oracles.per_node_collocation_reference(dist, q, coarse, steps // 2, field, u0, 0.1)
    for limit in (0, harness.SPECTRAL_NDOF_LIMIT):
        monkeypatch.setattr(harness, "SPECTRAL_NDOF_LIMIT", limit)
        ops = spatial_operators(fine, field)
        ref = collocation_reference(dist, q, ops, steps, u0, 0.1)
        assert np.array_equal(ref.nodes, want.nodes) and np.array_equal(ref.weights, want.weights)
        assert _rel(ref.values, want.values) <= 1e-12
        if limit == 0:
            # the batch differs from the per-node loop only in SuperLU's
            # column ordering of the joined step matrix
            looped = oracles.per_node_stepped_reference(dist, q, ops, steps, u0, 0.1)
            assert _rel(ref.values, looped.values) <= 1e-14
        half = collocation_reference(dist, q, spatial_operators(coarse, field), steps // 2, u0, 0.1)
        zeros = np.zeros_like(ref.values)
        norm = want.distance(fine, zeros)
        for got, expect in (
            # the two-grid estimate
            (ref.distance(coarse, half.values), want.distance(coarse, half_want.values)),
            (ref.distance(fine, zeros), norm),
        ):
            assert expect > 0.0
            # the estimate is a difference of two nearly equal solutions: the
            # pencil's rounding of the values (below 1e-13 relative here)
            # grows by that cancellation, so the spectral path's gap is
            # bounded relative to the reference's norm
            assert abs(got - expect) <= 1e-12 * (expect if limit == 0 else norm)


def test_stepped_colloc_2d_reference_is_bitwise_the_per_node_loop():
    # the colloc_2d workload's reference (m_ref 16, 961 dofs) and its
    # two-grid estimate (m = 8, 225 dofs) are both above the spectral limit:
    # their batched nodes reproduce the per-node step loop bit for bit
    cfg = load_config(COLLOC_2D)
    cache = OperatorCache(cfg)
    for m, steps in ((16, 64), (8, 32)):
        ops = cache.spatial(m)
        assert ops.space.ndof > harness.SPECTRAL_NDOF_LIMIT
        got = collocation_reference(cfg.dist, 3, ops, steps, cfg.u0, cfg.t_final)
        want = oracles.per_node_stepped_reference(cfg.dist, 3, ops, steps, cfg.u0, cfg.t_final)
        assert np.array_equal(got.values, want.values)


# --- batched sweep-point solves against the per-point oracle -----------------

BATCH_POINTS = [(1, 4, 8), (2, 4, 8), (2, 2, 8), (1, 2, 4), (2, 4, 4), (1, 4, 8)]
BATCH_SETUPS = {
    "1d_p1_separable": mini_config(geometry={"dim": 1, "fe_order": 1}),
    "2d_p2_N2": mini_config(
        distribution=[{"kind": "hermite"}, {"kind": "hermite"}],
        coefficient={"name": "logistic_anisotropic"},
        initial_datum={"name": "product_sine"},
        geometry={"dim": 2, "fe_order": 2},
        sweep={"n": [1, 2], "m": [2, 4], "n_k": [4, 8]},
        quad_order=5,
        # validated at load, never built: an analytic reference needs a 1D field
        reference={"kind": "collocation", "m_ref": 16, "n_k_ref": 32},
    ),
}


@pytest.mark.parametrize("scheme", ["implicit_euler", "crank_nicolson"])
@pytest.mark.parametrize("setup", list(BATCH_SETUPS))
def test_solve_points_matches_per_point_oracle(monkeypatch, setup, scheme):
    monkeypatch.setattr(harness, "SPECTRAL_NDOF_LIMIT", 0)  # every point on the step loop
    cache = OperatorCache(load_config({**BATCH_SETUPS[setup], "scheme": scheme}))
    batches = []
    real_evolve = harness.evolve

    def counted_evolve(prop, n_steps, w0):
        batches.append((prop.pair, len(prop.lam), n_steps))
        return real_evolve(prop, n_steps, w0)

    monkeypatch.setattr(harness, "evolve", counted_evolve)
    solved = harness.solve_points(cache, BATCH_POINTS)
    distinct = list(dict.fromkeys(BATCH_POINTS))
    assert sorted(solved) == sorted(distinct)
    # one evolve per n_k and space, one row per chaos mode of its points
    want = []
    for steps in (8, 4):
        on = [(n, m) for n, m, n_k in distinct if n_k == steps]
        for space in dict.fromkeys(m for _, m in on):
            rows = sum(cache.operator(n, m)[0].block_dim for n, m in on if m == space)
            want.append((cache.spatial(space).band, rows, steps))
    assert batches == want
    for point in distinct:
        state, _ = solved[point]
        want = oracles.per_point_solve(cache, *point)
        assert state.mis is want.mis
        assert _rel(state.coeffs, want.coeffs) <= 1e-13


def _corrupt_row(monkeypatch, row, pair=None):
    """Factor the step matrix d0 M + s K of row `row` of a propagator, its
    row-th factor call (counted on `pair` only, when given), as
    (d0 + 0.5) M + s K, on a banded pair or on one that factors by SuperLU."""
    calls = []

    def corrupting(real_factor):
        def factor(self, d0, s):
            if pair is None or self is pair:
                calls.append(self)
                if len(calls) == row + 1:
                    d0 += 0.5
            return real_factor(self, d0, s)

        return factor

    for cls in (timestep.BandedPair, timestep.SparsePair):
        monkeypatch.setattr(cls, "factor", corrupting(cls.factor))


def test_a_failing_block_names_its_sweep_point(monkeypatch):
    monkeypatch.setattr(harness, "SPECTRAL_NDOF_LIMIT", 0)  # every point on the step loop
    cache = OperatorCache(load_config(mini_config(sweep={"n": [1, 2], "m": [4, 8], "n_k": [8]})))
    points = [(1, 4, 8), (2, 8, 8), (1, 8, 8)]
    # the m = 8 space steps 5 rows: 3 chaos modes of (2, 8, 8), then 2 of (1, 8, 8)
    for row, point in ((2, "2, 8, 8"), (3, "1, 8, 8")):
        _corrupt_row(monkeypatch, row, cache.spatial(8).band)
        failed = rf"point \(n, m, n_k\) = \({point}\) failed: .* residual .* in row {row} of 5"
        with pytest.raises(SolverError, match=failed):
            harness.solve_points(cache, points)


def test_a_row_with_negative_lam_names_its_item(monkeypatch):
    # lam < 0 is the backward heat equation, whose step matrix need not be
    # positive definite: refused up front on either path
    cfg = load_config(mini_config(sweep={"n": [1], "m": [8], "n_k": [4]}))
    ops = OperatorCache(cfg).spatial(8)
    w0 = np.ones((2, ops.space.ndof))
    items = [(ops, np.array([1.0, 2.0]), w0, "item a"), (ops, np.array([-3.0, -2.0]), w0, "b")]
    for limit in (0, harness.SPECTRAL_NDOF_LIMIT):
        monkeypatch.setattr(harness, "SPECTRAL_NDOF_LIMIT", limit)
        with pytest.raises(SolverError, match=r"^b failed: negative diffusivity factor"):
            harness._propagate(scheme_by_name("implicit_euler"), 0.1, 4, items)


# --- spectral propagation against the batched step loop ---------------------

SPECTRAL_POINTS = [(1, 4, 8), (2, 4, 8), (2, 2, 8), (1, 2, 4), (2, 4, 4)]


@pytest.mark.parametrize("scheme", ["implicit_euler", "crank_nicolson"])
@pytest.mark.parametrize("setup", list(BATCH_SETUPS))
def test_spectral_propagation_matches_the_step_loop(monkeypatch, setup, scheme):
    cache = OperatorCache(load_config({**BATCH_SETUPS[setup], "scheme": scheme}))
    spectral = harness.solve_points(cache, SPECTRAL_POINTS)
    monkeypatch.setattr(harness, "SPECTRAL_NDOF_LIMIT", 0)
    stepped = harness.solve_points(cache, SPECTRAL_POINTS)
    for point in SPECTRAL_POINTS:
        assert _rel(spectral[point][0].coeffs, stepped[point][0].coeffs) <= 1e-11


@pytest.mark.parametrize("setup", list(BATCH_SETUPS))
def test_spectral_map_of_exp_is_the_exact_flow(setup):
    cache = OperatorCache(load_config(BATCH_SETUPS[setup]))
    op, state0 = cache.operator(2, 4)
    w0 = op.to_system(state0.coeffs)
    ops = op.spatial
    got = ops.pencil.propagate(np.exp, 0.02, 5, op.eigvals, w0)
    want = np.array([
        oracles._exact_flow(ops.mass, lam * ops.k_g, w, [0.1])[0]
        for lam, w in zip(op.eigvals, w0)
    ])
    assert _rel(got, want) <= 1e-12


def test_a_spectral_point_is_bitwise_the_same_alone_or_in_a_batch():
    cache = OperatorCache(load_config(BATCH_SETUPS["2d_p2_N2"]))
    batch = harness.solve_points(cache, SPECTRAL_POINTS)
    for point in SPECTRAL_POINTS:
        alone = harness.solve_points(OperatorCache(cache.cfg), [point])
        assert np.array_equal(alone[point][0].coeffs, batch[point][0].coeffs)


def test_a_corrupted_pencil_raises_a_solver_error(monkeypatch):
    cfg = load_config(mini_config(sweep={"n": [1, 2], "m": [4, 8], "n_k": [8]}))
    eigh = scipy.linalg.eigh

    def unnormalized(a, b=None, **kwargs):
        mu, y = eigh(a, b, **kwargs)
        return (mu, 1.0001 * y) if b is not None else (mu, y)  # the pencil only

    monkeypatch.setattr(scipy.linalg, "eigh", unnormalized)
    failed = r"spatial pencil \(K_g, M\) eigendecomposition failed its check"
    with pytest.raises(SolverError, match=failed):
        harness.solve_points(OperatorCache(cfg), [(1, 4, 8)])
    monkeypatch.undo()
    ops = OperatorCache(cfg).spatial(4)
    k_g = ops.k_g.copy()
    k_g.data[3] = math.nan
    broken = sgsystem.SpatialOperators(ops.space, ops.field, ops.mass, k_g)
    with pytest.raises(SolverError, match=r"spatial pencil \(K_g, M\) holds non-finite entries"):
        broken.pencil


def test_a_first_step_disagreement_names_its_sweep_point(monkeypatch):
    cache = OperatorCache(load_config(mini_config(sweep={"n": [1, 2], "m": [4, 8], "n_k": [8]})))
    points = [(1, 4, 8), (2, 8, 8), (1, 8, 8)]
    real_evolve = harness.evolve

    def off_in_second_point(prop, n_steps, w0):
        # the stiffest row of the second point, row 0 on its space, comes back 1e-9 off
        w = real_evolve(prop, n_steps, w0)
        if prop.pair.mass is cache.spatial(8).mass:
            w[0] *= 1.0 + 1e-9
        return w

    monkeypatch.setattr(harness, "evolve", off_in_second_point)
    failed = r"sweep point \(n, m, n_k\) = \(2, 8, 8\) failed: its first step differs"
    with pytest.raises(SolverError, match=failed):
        harness.solve_points(cache, points)


def test_batches_split_at_the_spectral_ndof_limit(monkeypatch, caplog):
    # 1D P2: m = 4 has 7 dofs and m = 8 has 15; a limit of 10 splits each n_k
    monkeypatch.setattr(harness, "SPECTRAL_NDOF_LIMIT", 10)
    caplog.set_level(logging.DEBUG, logger="sgpde.harness")
    cache = OperatorCache(load_config(mini_config(sweep={"n": [1, 2], "m": [4, 8], "n_k": [4, 8]})))
    points = [(1, 4, 4), (2, 8, 4), (2, 4, 4), (1, 8, 8)]
    harness.solve_points(cache, points)
    records = [r.args for r in caplog.records if r.getMessage().startswith("propagation:")]
    named = [f"sweep point (n, m, n_k) = {p}" for p in points]
    assert [args[:3] for args in records] == [
        ("spectral", 4, [named[0], named[2]]),
        ("stepped", 4, [named[1]]),
        ("stepped", 8, [named[3]]),
    ]
    assert [len(args) for args in records] == [8, 7, 7]


def test_the_stepped_record_reports_the_half_bandwidth_and_the_worst_residual(
    monkeypatch, caplog
):
    # in coordinate order 2D P2 has half-bandwidth 4 on m = 2 and 16 on m = 4
    monkeypatch.setattr(harness, "SPECTRAL_NDOF_LIMIT", 0)
    caplog.set_level(logging.DEBUG, logger="sgpde.harness")
    props = []
    real_evolve = harness.evolve
    monkeypatch.setattr(
        harness, "evolve", lambda prop, *a: props.append(prop) or real_evolve(prop, *a)
    )
    cache = OperatorCache(load_config(BATCH_SETUPS["2d_p2_N2"]))
    harness.solve_points(cache, [(1, 2, 4), (2, 4, 4)])
    records = [r for r in caplog.records if r.getMessage().startswith("propagation:")]
    assert [p.pair.kd for p in props] == [4, 16]
    for record, prop in zip(records, props, strict=True):
        assert f"kd={prop.pair.kd} step_rel_res=" in record.getMessage()
        worst = record.args[-1]
        assert worst == prop.worst and 0.0 < worst <= 1.0


@pytest.fixture
def work_counts(monkeypatch):
    counts = {"stiffness": 0, "load": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        sgsystem, "assemble_stiffness", counted("stiffness", sgsystem.assemble_stiffness)
    )
    monkeypatch.setattr(sgsystem, "load_vector", counted("load", sgsystem.load_vector))
    return counts


def test_reference_work_counts(work_counts):
    cfg = load_config(
        mini_config(
            geometry={"dim": 2, "fe_order": 2},
            coefficient={"name": "logistic_anisotropic"},
            initial_datum={"name": "product_sine"},
            sweep={"n": [1], "m": [2], "n_k": [4]},
            reference={"kind": "collocation", "m_ref": 4, "n_k_ref": 8, "quad_order": 3},
            strict_reference=False,
        )
    )
    # separable: one K_g and one load per space (fine and coarse estimate spaces)
    build_reference(OperatorCache(cfg), estimate_error=True)
    assert work_counts == {"stiffness": 2, "load": 2}
    space = make_fe_space(make_mesh(1, 8), 1)
    q = 5
    # a datum that samples to a new closure at every node: Q loads, still one K_g
    work_counts.update(stiffness=0, load=0)
    fresh = InitialDatum(
        dim=1, sample=lambda z: (lambda x: (1.0 + z[0] ** 2) * np.sin(math.pi * x[:, 0]))
    )
    ops = spatial_operators(space, coefficient_by_name("logistic_1d"))
    collocation_reference(H1, q, ops, 4, fresh, 0.1)
    assert work_counts == {"stiffness": 1, "load": q}


def test_colloc_2d_sweep_builds_one_rule_per_space_and_calls_f_once_per_grid(monkeypatch):
    counts = {"rule": [], "f": 0, "operator": 0, "reference": 0}
    real_rule, real_f = spatial._element_rule, coeffs.logistic_factor
    monkeypatch.setattr(
        spatial, "_element_rule", lambda *a: counts["rule"].append(a[0]) or real_rule(*a)
    )

    def f(z):
        counts["f"] += 1
        return real_f(z)

    monkeypatch.setattr(coeffs, "logistic_factor", f)  # before the config builds its field

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    for key, name in (("operator", "assemble_block_operator"), ("reference", "collocation_reference")):
        monkeypatch.setattr(harness, name, counted(key, getattr(harness, name)))
    sweep(load_config(WORKLOADS["colloc_2d"]["config"]))
    # the spaces m = 4, 8 (the sweep's and the estimate's) and m_ref = 16
    assert sorted(space.mesh.m for space in counts["rule"]) == [4, 8, 16]
    assert (counts["operator"], counts["reference"]) == (2, 2)
    assert counts["f"] == counts["operator"] + counts["reference"]


def test_sweep_assembles_each_spatial_matrix_once_per_space(monkeypatch):
    counts = {"mass": 0, "stiffness": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (harness, sgsystem, spatial):
        for key, name in (("mass", "assemble_mass"), ("stiffness", "assemble_stiffness")):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(key, getattr(spatial, name)))
    # separable field, analytic reference: only the operators and initial states assemble
    cfg = load_config(mini_config(sweep={"n": [1, 2, 3], "m": [4, 8, 16], "n_k": [4, 8]}))
    sweep(cfg)
    # 3 spaces, 7 distinct (n, m) operators: one mass and one K_g per space
    assert counts == {"mass": 3, "stiffness": 3}


def test_joint_1d_sweep_builds_each_chaos_factor_once_per_order(monkeypatch):
    # G and its checked eigh depend on n alone: the sweep serves 13 (n, m)
    # operators from 5 builds, each other pair joining its n's chaos factor
    # with the pair's own spatial operators
    built, served = [], {}
    build, operator = harness.assemble_block_operator, OperatorCache.operator
    monkeypatch.setattr(harness, "assemble_block_operator", lambda *a: built.append(a) or build(*a))

    def recorded(cache, n, m):
        got = operator(cache, n, m)
        served[n, m] = cache, got[0]
        return got

    monkeypatch.setattr(OperatorCache, "operator", recorded)
    cfg = load_config(WORKLOADS["joint_1d"]["config"])
    sweep(cfg)
    assert sorted(mis.n for _, mis, _, _ in built) == [1, 2, 3, 4, 5]
    assert len(served) == 13
    for (n, m), (cache, op) in served.items():
        fresh = build(cfg.dist, multi_index_set(1, n), cache.spatial(m), cfg.quad_order)
        assert op.spatial is cache.spatial(m) and op.mis == fresh.mis
        for attr in ("chaos", "eigvals", "eigvecs"):
            assert getattr(op, attr).tobytes() == getattr(fresh, attr).tobytes(), (n, m, attr)


def test_colloc_2d_sweep_builds_each_spatial_operator_once_per_space(monkeypatch):
    counts = {"assemble_mass": 0, "assemble_stiffness": 0, "load_vector": 0}

    def counted(name):
        fn = getattr(spatial, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in counts:
        for module in (harness, sgsystem, spatial):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name))
    sweep(load_config(WORKLOADS["colloc_2d"]["config"]))
    # spaces m = 4, 8 and the reference's 16; the two-grid estimate runs on
    # m = 8, the sweep's finest space, and the datum is one spatial function
    assert counts == {"assemble_mass": 3, "assemble_stiffness": 3, "load_vector": 3}


def test_reference_spaces_are_shared_with_the_sweep(monkeypatch):
    cfg = load_config(
        mini_config(
            sweep={"n": [1], "m": [4, 8], "n_k": [4]},
            reference={"kind": "collocation", "m_ref": 16, "n_k_ref": 16},
            strict_reference=False,
        )
    )
    built = []
    monkeypatch.setattr(harness, "make_mesh", lambda dim, m: built.append(m) or make_mesh(dim, m))
    cache = OperatorCache(cfg)
    ref = build_reference(cache, estimate_error=True)
    assert built == [16, 8]
    assert ref.ops is cache.spatial(16)
    cache.space(8)  # the estimate's coarse space is the sweep's finest space
    assert built == [16, 8]


def test_failing_reference_node_keeps_its_error_type(monkeypatch):
    field = coefficient_by_name("logistic_1d")
    space = make_fe_space(make_mesh(1, 8), 1)
    u0 = initial_datum_by_name("sine_modes")
    # node 1's row factor is corrupted: on the stepped path in the
    # reference's steps, on the spectral path in the first-step check;
    # either way its residual check names node 1
    failed_node_1 = r"collocation node 1 \(z = .*\) failed: time step residual .* in row 1 of 3"
    for limit in (0, harness.SPECTRAL_NDOF_LIMIT):
        monkeypatch.setattr(harness, "SPECTRAL_NDOF_LIMIT", limit)
        _corrupt_row(monkeypatch, 1)
        with pytest.raises(SolverError, match=failed_node_1):
            collocation_reference(H1, 3, spatial_operators(space, field), 4, u0, 0.1)
        monkeypatch.undo()

    def bad_sample(z):
        if z[0] > 0.0:
            raise ValueError("no datum here")
        return lambda x: np.sin(x[:, 0])

    u0 = InitialDatum(dim=1, sample=bad_sample)
    failed_node_2 = r"collocation node 2 \(z = .*\) failed: no datum here"
    with pytest.raises(RuntimeError, match=failed_node_2) as info:
        collocation_reference(H1, 3, spatial_operators(space, field), 4, u0, 0.1)
    assert not isinstance(info.value, SolverError)


def test_nan_stiffness_at_a_reference_node_raises_a_solver_error(monkeypatch):
    logistic = coefficient_by_name("logistic_1d")
    nodes, _ = tensor_quad(H1, 3)
    field = CoefficientField(
        dim=1,
        z_factor=lambda z: np.where(z[:, 0] == nodes[1, 0], math.nan, logistic.z_factor(z)),
        spatial_part=logistic.spatial_part,
    )
    factored = []
    monkeypatch.setattr(timestep.BandedPair, "factor", lambda *args: factored.append(args))
    # f(z_1) is NaN: on either path the node is named before anything is
    # factored or decomposed
    failed_node_1 = r"collocation node 1 \(z = .*\) failed: non-finite diffusivity factor"
    for limit in (0, harness.SPECTRAL_NDOF_LIMIT):
        monkeypatch.setattr(harness, "SPECTRAL_NDOF_LIMIT", limit)
        ops = spatial_operators(make_fe_space(make_mesh(1, 8), 1), field)
        with pytest.raises(SolverError, match=failed_node_1):
            collocation_reference(H1, 3, ops, 4, initial_datum_by_name("sine_modes"), 0.1)
        assert factored == [] and "pencil" not in vars(ops)


def test_reference_logging_is_silent_by_default():
    assert any(isinstance(h, logging.NullHandler) for h in logging.getLogger("sgpde").handlers)
    script = (
        "from sgpde.coeffs import coefficient_by_name, initial_datum_by_name\n"
        "from sgpde.harness import collocation_reference\n"
        "from sgpde.sgsystem import spatial_operators\n"
        "from sgpde.orthopoly import hermite\n"
        "from sgpde.pce import distribution\n"
        "from sgpde.spatial import make_fe_space, make_mesh\n"
        "space = make_fe_space(make_mesh(1, 4), 1)\n"
        "field, u0 = coefficient_by_name('logistic_1d'), initial_datum_by_name('sine_modes')\n"
        "ops = spatial_operators(space, field)\n"
        "collocation_reference(distribution(hermite()), 2, ops, 2, u0, 0.1)\n"
    )
    src = str(Path(harness.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "" and done.stderr == ""


def test_reference_build_logs_one_debug_record(caplog):
    caplog.set_level(logging.DEBUG, logger="sgpde.harness")
    space = make_fe_space(make_mesh(1, 8), 1)
    u0 = initial_datum_by_name("sine_modes")
    ops = spatial_operators(space, coefficient_by_name("logistic_1d"))
    collocation_reference(H1, 3, ops, 4, u0, 0.1)
    collocation_reference(H1, 2, ops, 6, u0, 0.1)
    records = [r for r in caplog.records if r.name == "sgpde.harness"]
    assert all(r.levelno == logging.DEBUG for r in records)
    # each build logs its one propagation (7 dofs: the spectral path), then itself
    kinds = [r.getMessage().partition(":")[0] for r in records]
    assert kinds == ["propagation", "collocation reference"] * 2
    assert [r.args[:2] for r in records[::2]] == [("spectral", 4), ("spectral", 6)]
    first, second = (r.getMessage() for r in records[1::2])
    assert first.startswith(f"collocation reference: Q=3 ndof={space.ndof} steps=4 wall_s=")
    assert second.startswith(f"collocation reference: Q=2 ndof={space.ndof} steps=6 wall_s=")
