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
from sgpde.sgsystem import SgState
from sgpde.spatial import (
    SolverError,
    assemble_mass,
    l2_error,
    l2_project,
    load_vector,
    make_fe_space,
    make_mesh,
    prolong,
)
from sgpde.timestep import evolve, make_uniform_grid, scheme_by_name

H1 = distribution(hermite())


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
    at0 = ref.solution(z, t=0.0)
    assert at0(0.5) == pytest.approx(1.0, rel=1e-14)
    amp = oracles.heat_amplitude(2.0, 1, 0.1)
    assert ref.solution(z)(0.5) == pytest.approx(amp, rel=1e-12)
    # logistic factor at z = 0 gives diffusivity 1.5
    logi = coefficient_by_name("logistic_1d")
    ref2 = analytic_reference(logi, u0, 0.1)
    assert ref2.solution(np.array([0.0]))(0.5) == pytest.approx(
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
    ref = collocation_reference(H1, 8, space, 512, field, u0, 0.1)
    ana = analytic_reference(field, u0, 0.1)
    # all node solutions identical for a z-independent field
    assert np.max(np.abs(ref.values - ref.values[0])) < 1e-12
    for i in (0, 4):
        err = l2_error(ref.space, ref.values[i], ana.solution(ref.nodes[i]))
        assert err <= 1e-5


def test_collocation_zero_initial_datum():
    field = coefficient_by_name("constant", value=1.0, dim=1)
    u0 = initial_datum_by_name("sine_modes", modes=[(1, 0.0)])
    space = make_fe_space(make_mesh(1, 8), 1)
    ref = collocation_reference(H1, 4, space, 4, field, u0, 0.1)
    assert np.max(np.abs(ref.values)) < 1e-13


def test_error_norm_zero_for_identical_states():
    field = coefficient_by_name("constant", value=1.0, dim=1)
    u0 = initial_datum_by_name("sine_modes", modes=[(1, 1.0)])
    space = make_fe_space(make_mesh(1, 8), 1)
    ref = collocation_reference(H1, 5, space, 8, field, u0, 0.05)
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
    ref = collocation_reference(H1, 4, space, 8, field, u0, 0.05)
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


def test_config_hash_changes_with_config():
    c1 = load_config(mini_config())
    c2 = load_config(mini_config(t_final=0.2))
    assert config_hash(c1) != config_hash(c2)


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
    assert not cache.solved(3, 8, 16)
    state, _ = solve_single(cache, 3, 8, 16)
    assert cache.solved(3, 8, 16)
    _invariant_summary(cfg, cache)
    op, state0 = cache.operator(3, 8)
    assert op.factors is not None
    assert "matrix" not in vars(op)  # the chaos-basis matrix was never built
    grid = make_uniform_grid(cfg.t_final, 16)
    coupled = evolve(scheme_by_name(scheme), grid, op.mass, op.matrix, state0.flat())
    assert np.max(np.abs(state.flat() - coupled)) <= 1e-11 * np.max(np.abs(coupled))


# --- the collocation reference against its per-node oracle --------------------

H2 = distribution(hermite(), hermite())


def _rel(a, b) -> float:
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def _non_separable_field() -> CoefficientField:
    # declares no z_factor: the reference assembles K(z) at every node
    return CoefficientField(
        dim=1, evaluate=lambda z, x: 2.0 + np.tanh(z[0]) * x, kappa=1.0, bound=3.0
    )


@pytest.mark.parametrize(
    "dist,q,dim,order,m,steps,field_name,datum",
    [
        (H1, 4, 1, 1, 8, 16, "logistic_1d", ("sine_modes", {"modes": [[1, 1.0], [3, 0.5]]})),
        (H1, 3, 1, 2, 8, 16, "constant", ("sine_modes", {})),
        (H1, 3, 2, 2, 4, 8, "logistic_anisotropic", ("product_sine", {})),
        (H2, 2, 2, 2, 4, 8, "logistic_anisotropic", ("product_sine", {})),
    ],
    ids=["1d_p1_logistic", "1d_p2_constant", "2d_p2_N1", "2d_p2_N2"],
)
def test_separable_reference_matches_per_node_oracle(
    dist, q, dim, order, m, steps, field_name, datum
):
    params = {"dim": dim, "value": 2.0} if field_name == "constant" else {}
    field = coefficient_by_name(field_name, **params)
    u0 = initial_datum_by_name(datum[0], **datum[1])
    fine = make_fe_space(make_mesh(dim, m), order)
    coarse = make_fe_space(make_mesh(dim, m // 2), order)
    ref = collocation_reference(dist, q, fine, steps, field, u0, 0.1)
    want = oracles.per_node_collocation_reference(dist, q, fine, steps, field, u0, 0.1)
    assert np.array_equal(ref.nodes, want.nodes) and np.array_equal(ref.weights, want.weights)
    assert _rel(ref.values, want.values) <= 1e-12
    half = collocation_reference(dist, q, coarse, steps // 2, field, u0, 0.1)
    half_want = oracles.per_node_collocation_reference(dist, q, coarse, steps // 2, field, u0, 0.1)
    lifted = prolong(coarse, half.values.T, fine)
    lifted_want = prolong(coarse, half_want.values.T, fine)
    for got, expect in (
        (_distance(ref, lifted), _distance(want, lifted_want)),  # the two-grid estimate
        (_distance(ref, np.zeros_like(lifted)), _distance(want, np.zeros_like(lifted))),
    ):
        assert expect > 0.0
        assert abs(got - expect) <= 1e-12 * expect


@pytest.mark.parametrize("per_node_datum", [False, True])
def test_non_separable_reference_matches_per_node_oracle_bitwise(per_node_datum):
    field = _non_separable_field()
    u0 = initial_datum_by_name("sine_modes", modes=[[1, 1.0], [2, -0.3]])
    if per_node_datum:  # a new spatial function at every node
        u0 = InitialDatum(
            dim=1, sample=lambda z: (lambda x: math.sin(math.pi * x) * math.cos(z[0]))
        )
    space = make_fe_space(make_mesh(1, 8), 2)
    ref = collocation_reference(H1, 4, space, 8, field, u0, 0.1)
    want = oracles.per_node_collocation_reference(H1, 4, space, 8, field, u0, 0.1)
    assert np.array_equal(ref.values, want.values)


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
    monkeypatch.setattr(harness, "load_vector", counted("load", harness.load_vector))
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
    collocation_reference(H1, q, space, 4, coefficient_by_name("logistic_1d"), fresh, 0.1)
    assert work_counts == {"stiffness": 1, "load": q}
    # a non-separable field: Q assemblies, one load
    work_counts.update(stiffness=0, load=0)
    sine = initial_datum_by_name("sine_modes")
    collocation_reference(H1, q, space, 4, _non_separable_field(), sine, 0.1)
    assert work_counts == {"stiffness": q, "load": 1}


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

    counts.update(mass=0, stiffness=0, triple_products=0)
    cache = OperatorCache(cfg)
    cache.field = _non_separable_field()
    cache.operator(1, 4)
    cache.operator(2, 4)
    q = cfg.quad_order
    assert counts == {"mass": 1, "stiffness": 2 * q, "triple_products": 0}


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
    real_splu = timestep.spla.splu
    factors = []

    def wrong_lu_at_second_node(a, *args, **kwargs):
        # every node factors its one step matrix; the second node gets the
        # factor of a perturbed matrix, so its first step fails the residual check
        factors.append(a)
        if len(factors) == 2:
            a = a + 0.5 * sp.identity(a.shape[0], format="csc")
        return real_splu(a, *args, **kwargs)

    monkeypatch.setattr(timestep.spla, "splu", wrong_lu_at_second_node)
    failed_node_1 = r"collocation node 1 \(z = .*\) failed: time step residual"
    with pytest.raises(SolverError, match=failed_node_1):
        collocation_reference(H1, 3, space, 4, field, u0, 0.1)
    monkeypatch.undo()

    def bad_sample(z):
        if z[0] > 0.0:
            raise ValueError("no datum here")
        return math.sin

    u0 = InitialDatum(dim=1, sample=bad_sample)
    failed_node_2 = r"collocation node 2 \(z = .*\) failed: no datum here"
    with pytest.raises(RuntimeError, match=failed_node_2) as info:
        collocation_reference(H1, 3, space, 4, field, u0, 0.1)
    assert not isinstance(info.value, SolverError)


def test_reference_logging_is_silent_by_default():
    assert any(isinstance(h, logging.NullHandler) for h in logging.getLogger("sgpde").handlers)
    script = (
        "from sgpde.coeffs import coefficient_by_name, initial_datum_by_name\n"
        "from sgpde.harness import collocation_reference\n"
        "from sgpde.orthopoly import hermite\n"
        "from sgpde.pce import distribution\n"
        "from sgpde.spatial import make_fe_space, make_mesh\n"
        "space = make_fe_space(make_mesh(1, 4), 1)\n"
        "field, u0 = coefficient_by_name('logistic_1d'), initial_datum_by_name('sine_modes')\n"
        "collocation_reference(distribution(hermite()), 2, space, 2, field, u0, 0.1)\n"
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
    collocation_reference(H1, 3, space, 4, coefficient_by_name("logistic_1d"), u0, 0.1)
    collocation_reference(H1, 2, space, 6, _non_separable_field(), u0, 0.1)
    records = [r for r in caplog.records if r.name == "sgpde.harness"]
    assert len(records) == 2 and all(r.levelno == logging.DEBUG for r in records)
    first, second = (r.getMessage() for r in records)
    assert f"path=separable Q=3 ndof={space.ndof} steps=4 wall_s=" in first
    assert f"path=per-node Q=2 ndof={space.ndof} steps=6 wall_s=" in second
