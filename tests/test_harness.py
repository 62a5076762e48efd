import copy
import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import oracles
from sgpde import harness, pce, sgsystem, spatial, timestep
from sgpde.cli import main
from sgpde.coeffs import CoefficientField, InitialDatum, coefficient_by_name, initial_datum_by_name
from sgpde.harness import (
    _admissible,
    _distance,
    _invariant_summary,
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
from sgpde.sgsystem import SgState, spatial_operators
from sgpde.spatial import (
    SolverError,
    assemble_mass,
    l2_error,
    l2_project,
    load_vector,
    make_fe_space,
    make_mesh,
    nodal_coordinates,
    prolong,
)
from sgpde.timestep import evolve, make_uniform_grid, scheme_by_name

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
    ref = analytic_reference(field, u0, 0.1)
    z = np.array([0.3])
    at0 = oracles.analytic_solution(ref, z, t=0.0)
    assert at0(0.5) == pytest.approx(1.0, rel=1e-14)
    amp = oracles.heat_amplitude(2.0, 1, 0.1)
    assert oracles.analytic_solution(ref, z)(0.5) == pytest.approx(amp, rel=1e-12)
    # logistic factor at z = 0 gives diffusivity 1.5
    logi = coefficient_by_name("logistic_1d")
    ref2 = analytic_reference(logi, u0, 0.1)
    assert oracles.analytic_solution(ref2, np.array([0.0]))(0.5) == pytest.approx(
        oracles.heat_amplitude(1.5, 1, 0.1), rel=1e-12
    )


def test_analytic_reference_rejects_nonseparable():
    field = coefficient_by_name("logistic_anisotropic")
    u0 = initial_datum_by_name("sine_modes")
    with pytest.raises(ValueError):
        analytic_reference(field, u0, 0.1)


def test_collocation_matches_analytic_for_constant_field():
    field = coefficient_by_name("constant", value=2.0, dim=1)
    u0 = initial_datum_by_name("sine_modes", modes=[(1, 1.0)])
    space = make_fe_space(make_mesh(1, 256), 2)
    ref = collocation_reference(H1, 8, spatial_operators(space, field), 512, u0, 0.1)
    ana = analytic_reference(field, u0, 0.1)
    # all node solutions identical for a z-independent field
    assert np.max(np.abs(ref.values - ref.values[0])) < 1e-12
    for i in (0, 4):
        err = l2_error(ref.space, ref.values[i], oracles.analytic_solution(ana, ref.nodes[i]))
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
    state = SgState(0.05, coeffs, mis)
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
    err = error_norm_H(H1, SgState(0.05, coeffs_pert, mis), space, ref)
    ones = np.ones(space.ndof)
    mass = assemble_mass(space)
    want = c * math.sqrt(ref.weights[2]) * math.sqrt(ones @ (mass @ ones))
    assert err == pytest.approx(want, rel=1e-10)


def test_error_norm_matches_monte_carlo():
    cfg = load_config(mini_config(sweep={"n": [2], "m": [8], "n_k": [16]}))
    cache = OperatorCache(cfg)
    state, space = solve_single(cache, 2, 8, 16)
    ana = analytic_reference(cache.field, cache.u0, cfg.t_final)
    quad_err = error_norm_H(cache.dist, state, space, ana, q=30)
    rng = np.random.default_rng(123)
    samples = rng.standard_normal((10_000, 1))
    recon = tensor_basis_matrix(cache.dist, state.mis, samples) @ state.coeffs
    mass = assemble_mass(space)
    b_sin = load_vector(space, lambda x: math.sin(math.pi * x))
    sin_norm2 = 0.5
    amps = np.array([ana.diffusivity(z) for z in samples])
    damp = np.exp(-amps * math.pi**2 * cfg.t_final)
    err2 = (
        np.einsum("qi,ij,qj->q", recon, mass.toarray(), recon)
        - 2.0 * damp * (recon @ b_sin)
        + damp**2 * sin_norm2
    )
    mc_mean = float(np.mean(err2))
    mc_stderr = float(np.std(err2, ddof=1) / math.sqrt(len(err2)))
    assert abs(quad_err**2 - mc_mean) <= 3.0 * mc_stderr


def _analytic_fixture(order: int, n_inputs: int):
    """A 1D space, an analytic reference whose constant-in-x diffusivity reads
    every input, and a chaos state close to the exact solution (the nodal
    interpolants of the exact solution projected on degree-3 chaos modes)."""
    dist = distribution(*[hermite()] * n_inputs)
    ref = harness.AnalyticReference(
        diffusivity=lambda z: 1.5 + 0.5 * math.tanh(float(np.sum(z))),
        sine_modes=((1, 1.0), (2, -0.4), (5, 0.15)),
        t_final=0.05,
    )
    space = make_fe_space(make_mesh(1, 7), order)
    mis = multi_index_set(n_inputs, 3)
    nodes, weights = tensor_quad(dist, 6)
    x = nodal_coordinates(space)[:, 0]
    exact = np.array([[oracles.analytic_solution(ref, z)(xi) for xi in x] for z in nodes])
    phi = tensor_basis_matrix(dist, mis, nodes)
    return dist, ref, space, SgState(0.05, (phi * weights[:, None]).T @ exact, mis)


@pytest.mark.parametrize("n_inputs", [1, 2])
@pytest.mark.parametrize("order", [1, 2])
def test_analytic_error_matches_per_node_oracle(monkeypatch, order, n_inputs):
    dist, ref, space, state = _analytic_fixture(order, n_inputs)
    calls = []
    monkeypatch.setattr(
        harness, "l2_error", lambda *args: calls.append(args) or l2_error(*args)
    )
    got = error_norm_H(dist, state, space, ref, q=8)
    want = oracles.per_node_analytic_error(dist, state, space, ref, q=8)
    assert len(calls) == 1  # one stacked call for all 8**N nodes
    assert abs(got - want) <= 1e-13 * want
    # a rough state: the error is of the size of the solution itself
    noise = np.random.default_rng(order).standard_normal(state.coeffs.shape)
    rough = SgState(0.05, noise, state.mis)
    got = error_norm_H(dist, rough, space, ref, q=8)
    assert abs(got - oracles.per_node_analytic_error(dist, rough, space, ref, q=8)) <= 1e-13 * got


def test_analytic_values_are_the_pointwise_solution():
    _, ref, space, _ = _analytic_fixture(2, 2)
    nodes = np.array([[0.3, -1.2], [2.0, 0.1], [-0.7, -0.7]])
    x = np.linspace(0.0, 1.0, 11)
    got = ref.values(nodes, x)
    want = np.array([[oracles.analytic_solution(ref, z)(xi) for xi in x] for z in nodes])
    assert got.shape == (3, 11)
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
        (mini_config(coefficient={"name": "affine"}),
         r"coefficient 'affine\(0\.5\)' must be elliptic"),
        (mini_config(distribution=[{"kind": "beta"}]),
         "distribution: unknown distribution component 'beta'"),
        (mini_config(distribution=[{"kind": "jacobi", "alpha": -1.0}]),
         "distribution: jacobi requires alpha > -1"),
        (mini_config(coefficient={"name": "logistic_1d", "params": {"slope": 2.0}}),
         "coefficient: .*unexpected keyword argument 'slope'"),
        (mini_config(coefficient={"name": "logistic"}),
         "coefficient: unknown coefficient 'logistic'"),
        (mini_config(initial_datum={"name": "sine_modes", "params": {"modes": [[1]]}}),
         "initial_datum: "),
    ],
    ids=[
        "datum_1d_in_2d", "field_1d_in_2d", "field_not_elliptic", "unknown_distribution",
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
    ],
    ids=[
        "quad_order_fraction", "quad_order_string", "t_final_string", "strict_string",
        "strict_int", "m_ref_float", "n_k_ref_fraction", "n_k_ref_bool", "n_k_ref_missing",
        "ref_quad_order_fraction", "ref_quad_order_zero",
    ],
)
def test_bad_config_values_are_rejected_at_load(monkeypatch, override, key, shown):
    # rejected when the config loads, naming the key, before anything is solved
    solved = []
    monkeypatch.setattr(harness, "evolve", lambda *args, **kwargs: solved.append(args))
    with pytest.raises(ValueError, match=rf"^{key} value {shown} must be "):
        load_config(mini_config(**override))
    assert solved == []


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0], ids=["nan", "inf", "zero"])
def test_non_finite_or_non_positive_t_final_is_rejected_at_load(monkeypatch, value):
    # JSON text spells the first two NaN and Infinity, literals that json reads
    solved = []
    monkeypatch.setattr(harness, "evolve", lambda *args, **kwargs: solved.append(args))
    text = json.dumps(mini_config(t_final=value))
    with pytest.raises(ValueError, match=rf"^t_final value {value!r} must be finite and positive"):
        load_config(text)
    assert solved == []


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
    report = sweep(cfg, estimate_reference_error=False)
    assert len(built) == 1 and report.reference_error_estimate == 0.0
    assert all(math.isfinite(row["error"]) for row in report.joint)
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
    assert build_reference(cfg, OperatorCache(cfg)).est_error > 0.0


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
    reference = build_reference(cfg, cache)
    for (n, m, n_k, *_), err in zip(points, errors, strict=True):
        state, space = solve_single(cache, n, m, n_k)
        assert err == error_norm_H(cache.dist, state, space, reference, q=cfg.quad_order)


def test_sweep_logs_one_debug_record_per_batch(caplog):
    caplog.set_level(logging.DEBUG, logger="sgpde.harness")
    cfg = load_config(mini_config(sweep={"n": [1, 2], "m": [4, 8], "n_k": [4, 8]}))
    report = sweep(cfg)
    points = _sweep_points(cfg, report)
    records = [r for r in caplog.records if r.getMessage().startswith("solve batch:")]
    # the distinct points in measurement order, grouped by n_k
    assert [r.args[:2] for r in records] == [
        (4, [(1, 4, 4), (2, 8, 4)]),
        (8, [(2, 8, 8), (1, 8, 8), (2, 4, 8)]),
    ]
    assert sum(not hit for *_, hit, _ in points) == 5
    cache = OperatorCache(cfg)
    for record in records:
        n_k, batch, unknowns, steps, wall = record.args
        assert record.name == "sgpde.harness" and record.levelno == logging.DEBUG
        assert unknowns == sum(cache.operator(n, m)[0].size for n, m, _ in batch)
        assert steps == n_k and wall > 0.0
    # solve_points splits each batch's wall time in proportion to unknowns
    caplog.clear()
    solved = harness.solve_points(cache, [p[:3] for p in points])
    first, second = (r.args for r in caplog.records if r.getMessage().startswith("solve batch:"))
    for n_k, batch, unknowns, _, wall in (first, second):
        assert sum(solved[p][1] for p in batch) == pytest.approx(wall, rel=1e-12)
        for n, m, _ in batch:
            size = cache.operator(n, m)[0].size
            assert solved[n, m, n_k][1] == pytest.approx(wall * size / unknowns, rel=1e-12)


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
    cfg = load_config(example)
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
    ref = build_reference(cfg, cache, estimate_error=True)
    assert ref.est_error > 0.0


@pytest.mark.parametrize("scheme", ["implicit_euler", "crank_nicolson"])
def test_solve_single_steps_decoupled_modes_without_the_coupled_matrix(scheme):
    cfg = load_config(mini_config(scheme=scheme, sweep={"n": [3], "m": [8], "n_k": [16]}))
    cache = OperatorCache(cfg)
    state, _ = solve_single(cache, 3, 8, 16)
    _invariant_summary(cfg, cache)
    op, state0 = cache.operator(3, 8)
    assert "matrix" not in vars(op)  # the chaos-basis matrix was never built
    grid = make_uniform_grid(cfg.t_final, 16)
    block_mass = oracles.block_gram(op, op.spatial.mass)
    coupled = evolve(scheme_by_name(scheme), grid, block_mass, op.matrix, state0.flat())
    assert np.max(np.abs(state.flat() - coupled)) <= 1e-11 * np.max(np.abs(coupled))


def test_resolvent_invariant_is_gated_on_the_spatial_size():
    # the check decomposes only the ndof x ndof pencil (K_g, M): the stretch
    # workload's 28 chaos modes x 121 dofs (3,388 unknowns) report it, a 1D
    # mesh of more than DENSE_EIG_SIZE_LIMIT dofs does not
    cfg = load_config(WORKLOADS["stretch_2d_n2"]["config"])
    cache = OperatorCache(cfg)
    summary = _invariant_summary(cfg, cache)
    op, _ = cache.operator(6, 6)
    assert (op.block_dim, op.spatial.space.ndof) == (28, 121)
    assert summary["resolvent_min_generalized_eigenvalue"] == op.min_resolvent_eigenvalue()
    m = sgsystem.DENSE_EIG_SIZE_LIMIT + 2  # m - 1 interior P1 dofs
    cfg = load_config(mini_config(geometry={"dim": 1, "fe_order": 1},
                                  sweep={"n": [1], "m": [m], "n_k": [1]}))
    assert "resolvent_min_generalized_eigenvalue" not in _invariant_summary(cfg, OperatorCache(cfg))


def test_resolvent_invariant_matches_the_dense_block_pencil():
    cfg = load_config(mini_config(sweep={"n": [2, 3], "m": [4, 8], "n_k": [4]}))
    cache = OperatorCache(cfg)
    got = _invariant_summary(cfg, cache)["resolvent_min_generalized_eigenvalue"]
    op, _ = cache.operator(3, 4)
    block_mass = oracles.block_gram(op, op.spatial.mass)
    assert got == pytest.approx(oracles.min_generalized_eigenvalue(op.matrix, block_mass), rel=1e-12)


# --- the collocation reference against its per-node oracle --------------------

H2 = distribution(hermite(), hermite())


def _rel(a, b) -> float:
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


# a datum that samples to a new spatial function at every node
PER_NODE_DATUM = InitialDatum(
    dim=1, sample=lambda z: (lambda x: math.sin(math.pi * x) * math.cos(z[0]))
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
    dist, q, dim, order, m, steps, field_name, u0
):
    params = {"dim": dim, "value": 2.0} if field_name == "constant" else {}
    field = coefficient_by_name(field_name, **params)
    fine = make_fe_space(make_mesh(dim, m), order)
    coarse = make_fe_space(make_mesh(dim, m // 2), order)
    ref = collocation_reference(dist, q, spatial_operators(fine, field), steps, u0, 0.1)
    want = oracles.per_node_collocation_reference(dist, q, fine, steps, field, u0, 0.1)
    assert np.array_equal(ref.nodes, want.nodes) and np.array_equal(ref.weights, want.weights)
    assert _rel(ref.values, want.values) <= 1e-12
    half = collocation_reference(dist, q, spatial_operators(coarse, field), steps // 2, u0, 0.1)
    half_want = oracles.per_node_collocation_reference(dist, q, coarse, steps // 2, field, u0, 0.1)
    lifted = prolong(coarse, half.values.T, fine)
    lifted_want = prolong(coarse, half_want.values.T, fine)
    for got, expect in (
        (_distance(ref, lifted), _distance(want, lifted_want)),  # the two-grid estimate
        (_distance(ref, np.zeros_like(lifted)), _distance(want, np.zeros_like(lifted))),
    ):
        assert expect > 0.0
        assert abs(got - expect) <= 1e-12 * expect


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
    ),
}


@pytest.mark.parametrize("scheme", ["implicit_euler", "crank_nicolson"])
@pytest.mark.parametrize("setup", list(BATCH_SETUPS))
def test_solve_points_matches_per_point_oracle(monkeypatch, setup, scheme):
    cache = OperatorCache(load_config({**BATCH_SETUPS[setup], "scheme": scheme}))
    batches = []
    real_evolve = harness.evolve

    def counted_evolve(*args, blocks):
        batches.append(blocks)
        return real_evolve(*args, blocks=blocks)

    monkeypatch.setattr(harness, "evolve", counted_evolve)
    solved = harness.solve_points(cache, BATCH_POINTS)
    distinct = list(dict.fromkeys(BATCH_POINTS))
    assert sorted(solved) == sorted(distinct)
    # one block-diagonal evolve per n_k, one block per distinct point
    assert batches == [
        [cache.operator(n, m)[0].size for n, m, n_k in distinct if n_k == steps]
        for steps in (8, 4)
    ]
    for point in distinct:
        state, _ = solved[point]
        want = oracles.per_point_solve(cache, *point)
        assert state.time == want.time and state.mis is want.mis
        assert _rel(state.coeffs, want.coeffs) <= 1e-13


def test_a_failing_block_names_its_sweep_point(monkeypatch):
    cache = OperatorCache(load_config(mini_config(sweep={"n": [1, 2], "m": [4, 8], "n_k": [8]})))
    points = [(1, 4, 8), (2, 8, 8), (1, 8, 8)]
    sizes = [cache.operator(n, m)[0].size for n, m, _ in points]
    real_splu = timestep.spla.splu

    def wrong_lu_for_second_point(a, *args, **kwargs):
        # the batch's step matrix is factored with the second point's block perturbed
        shift = np.zeros(a.shape[0])
        shift[sizes[0] : sizes[0] + sizes[1]] = 0.5
        return real_splu(a + sp.diags(shift, format="csc"), *args, **kwargs)

    monkeypatch.setattr(timestep.spla, "splu", wrong_lu_for_second_point)
    failed = r"sweep point \(n, m, n_k\) = \(2, 8, 8\) failed: time step residual .* in block 1 of 3"
    with pytest.raises(SolverError, match=failed):
        harness.solve_points(cache, points)


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
    build_reference(cfg, OperatorCache(cfg), estimate_error=True)
    assert work_counts == {"stiffness": 2, "load": 2}
    space = make_fe_space(make_mesh(1, 8), 1)
    q = 5
    # a datum that samples to a new closure at every node: Q loads, still one K_g
    work_counts.update(stiffness=0, load=0)
    fresh = InitialDatum(
        dim=1, sample=lambda z: (lambda x: (1.0 + z[0] ** 2) * math.sin(math.pi * x))
    )
    ops = spatial_operators(space, coefficient_by_name("logistic_1d"))
    collocation_reference(H1, q, ops, 4, fresh, 0.1)
    assert work_counts == {"stiffness": 1, "load": q}


def test_sweep_assembles_each_spatial_matrix_once_per_space(monkeypatch):
    counts = {"mass": 0, "stiffness": 0, "triple_products": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (harness, sgsystem, spatial):
        for key, name in (("mass", "assemble_mass"), ("stiffness", "assemble_stiffness")):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(key, getattr(spatial, name)))
    for module in (harness, pce):
        monkeypatch.setattr(module, "triple_products", counted("triple_products", pce.triple_products))
    # separable field, analytic reference: only the operators and initial states assemble
    cfg = load_config(mini_config(sweep={"n": [1, 2, 3], "m": [4, 8, 16], "n_k": [4, 8]}))
    report = sweep(cfg)
    assert report.invariants["triple_product_entries"] > 0
    # 3 spaces, 7 distinct (n, m) operators: one mass and one K_g per space,
    # and the one triple-product tensor is the invariant summary's
    assert counts == {"mass": 3, "stiffness": 3, "triple_products": 1}


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
    ref = build_reference(cfg, cache, estimate_error=True)
    assert built == [16, 8]
    assert ref.space is cache.space(16)
    cache.space(8)  # the estimate's coarse space is the sweep's finest space
    assert built == [16, 8]


def test_failing_reference_node_keeps_its_error_type(monkeypatch):
    field = coefficient_by_name("logistic_1d")
    u0 = initial_datum_by_name("sine_modes")
    space = make_fe_space(make_mesh(1, 8), 1)
    ops = spatial_operators(space, field)
    nodes, _ = tensor_quad(H1, 3)
    d0, d1 = timestep.crank_nicolson().den
    # the step matrix of node 1, f(z_1) K_g, for 4 Crank--Nicolson steps of 0.025
    node_1 = d0 * ops.mass - d1 * 0.025 * ops.stiffness_at(nodes[1])
    real_splu = timestep.spla.splu

    def wrong_lu_at_node_1(a, *args, **kwargs):
        # node 1 gets the factor of a perturbed matrix, so its first step
        # fails the residual check; every other factorization is left alone
        if a.shape == node_1.shape and abs(a - node_1).max() <= 1e-14 * abs(node_1).max():
            a = a + 0.5 * sp.identity(a.shape[0], format="csc")
        return real_splu(a, *args, **kwargs)

    monkeypatch.setattr(timestep.spla, "splu", wrong_lu_at_node_1)
    failed_node_1 = r"collocation node 1 \(z = .*\) failed: time step residual"
    with pytest.raises(SolverError, match=failed_node_1):
        collocation_reference(H1, 3, ops, 4, u0, 0.1)
    monkeypatch.undo()

    def bad_sample(z):
        if z[0] > 0.0:
            raise ValueError("no datum here")
        return math.sin

    u0 = InitialDatum(dim=1, sample=bad_sample)
    failed_node_2 = r"collocation node 2 \(z = .*\) failed: no datum here"
    with pytest.raises(RuntimeError, match=failed_node_2) as info:
        collocation_reference(H1, 3, spatial_operators(space, field), 4, u0, 0.1)
    assert not isinstance(info.value, SolverError)


def test_nan_stiffness_at_a_reference_node_raises_a_solver_error():
    logistic = coefficient_by_name("logistic_1d")
    nodes, _ = tensor_quad(H1, 3)
    field = CoefficientField(
        dim=1,
        kappa=logistic.kappa,
        bound=logistic.bound,
        z_factor=lambda z: math.nan if z[0] == nodes[1, 0] else logistic.z_factor(z),
        spatial_part=logistic.spatial_part,
    )
    ops = spatial_operators(make_fe_space(make_mesh(1, 8), 1), field)
    # SuperLU finds the NaN step matrix of node 1 exactly singular
    failed_node_1 = r"collocation node 1 \(z = .*\) failed: step matrix .* cannot be factored"
    with pytest.raises(SolverError, match=failed_node_1):
        collocation_reference(H1, 3, ops, 4, initial_datum_by_name("sine_modes"), 0.1)


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
    assert len(records) == 2 and all(r.levelno == logging.DEBUG for r in records)
    first, second = (r.getMessage() for r in records)
    assert first.startswith(f"collocation reference: Q=3 ndof={space.ndof} steps=4 wall_s=")
    assert second.startswith(f"collocation reference: Q=2 ndof={space.ndof} steps=6 wall_s=")
