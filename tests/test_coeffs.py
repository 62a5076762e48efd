import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import oracles
from sgpde.coeffs import (
    COEFFICIENT_BUILTINS,
    INITIAL_DATUM_BUILTINS,
    CoefficientField,
    builtin_separable,
    coefficient_by_name,
    initial_datum_by_name,
    logistic_factor,
)
from sgpde.harness import load_config
from sgpde.pce import tensor_quad
from sgpde.spatial import assemble_stiffness, make_fe_space, make_mesh

WORKLOADS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "workloads.json").read_text()
)["workloads"]


def test_constant_unit_field():
    f = coefficient_by_name("constant", value=1.0, dim=1)
    kappa, bound = oracles.declared_bounds("constant", value=1.0, dim=1)
    assert kappa == bound == 1.0
    assert oracles.evaluate(f, 0.3, 0.5) == 1.0
    report = oracles.eval_bounds_check(
        f, (kappa, bound), np.linspace(-3, 3, 5), np.linspace(0.1, 0.9, 5)
    )
    assert report.ok and report.checked == 25


def test_logistic_anisotropic_matches_stated_bounds():
    f = coefficient_by_name("logistic_anisotropic")
    kappa, bound = oracles.declared_bounds("logistic_anisotropic")
    assert kappa == 1.0 and bound == 6.0
    assert logistic_factor(0.0) == pytest.approx(1.5)
    val = oracles.evaluate(f, 0.0, np.array([0.5, 0.5]))
    assert np.allclose(val, val.T)
    assert np.allclose(val, 1.5 * np.diag([1.5, 2.5]))
    zs = np.linspace(-8.0, 8.0, 10)
    xs = [np.array([a, b]) for a in np.linspace(0.01, 0.99, 10) for b in np.linspace(0.01, 0.99, 10)]
    report = oracles.eval_bounds_check(f, (kappa, bound), zs, xs)
    assert report.ok and report.checked == 1000


def test_bounds_check_flags_violations():
    field = builtin_separable(np.ones_like, lambda x: 0.5, dim=1)
    # claims kappa = 0.9 but the field is 0.5
    report = oracles.eval_bounds_check(field, (0.9, 1.0), [0.0], [0.25, 0.75])
    assert not report.ok
    assert len(report.violations) == 2
    assert report.violations[0][3] == "below kappa"


def test_a_constant_value_must_be_finite_and_positive():
    # a value of 0 or below is not elliptic, and a NaN fails every comparison
    for value in (0.0, -1.0, math.nan, math.inf, True, "1.0"):
        with pytest.raises(ValueError, match=r"^constant value .* must be a finite number > 0$"):
            coefficient_by_name("constant", value=value)


def test_a_constant_dim_must_be_the_integer_1_or_2():
    # True == 1 and 1.0 == 1, so either would pass a dimension check and solve as 1D
    for dim in (True, False, 1.0, 2.0, 0, 3, "1", None):
        shown = r"^constant dim value .* must be an integer >= 1 and <= 2$"
        with pytest.raises(ValueError, match=shown):
            coefficient_by_name("constant", dim=dim)
    assert [coefficient_by_name("constant", dim=d).dim for d in (1, np.int64(2))] == [1, 2]


def test_sine_modes_must_not_be_empty():
    with pytest.raises(ValueError, match=r"^sine_modes modes must hold at least one"):
        initial_datum_by_name("sine_modes", modes=[])


def test_a_datum_takes_numpy_numbers():
    u = initial_datum_by_name("sine_modes", modes=[(np.int64(2), np.float64(0.5))])
    assert u.sine_modes == ((2, 0.5),)
    assert all(type(v) in (int, float) for v in u.sine_modes[0])


def test_field_without_both_factors_is_rejected():
    # a field that is not f(z) g(x) has no place in the library
    with pytest.raises(TypeError, match="z_factor.*spatial_part"):
        CoefficientField(dim=1)
    with pytest.raises(TypeError, match="missing .*spatial_part"):
        CoefficientField(dim=1, z_factor=lambda z: 1.0)
    with pytest.raises(TypeError, match="missing .*z_factor"):
        CoefficientField(dim=1, spatial_part=lambda x: 1.0)
    with pytest.raises(TypeError, match="evaluate"):  # the value is derived, never given
        CoefficientField(dim=1, z_factor=lambda z: 1.0, spatial_part=lambda x: 1.0,
                         evaluate=lambda z, x: 2.0 + np.tanh(z[0]) * x)


BUILTIN_FIELDS = [
    ("constant", {"value": 1.7}),
    ("constant", {"value": 0.4, "dim": 2}),
    ("logistic_1d", {}),
    ("logistic_anisotropic", {}),
]


def test_builtin_field_list_covers_every_builtin():
    assert {name for name, _ in BUILTIN_FIELDS} == set(COEFFICIENT_BUILTINS)


@pytest.mark.parametrize(
    "name,params", BUILTIN_FIELDS, ids=[f"{n}_{p.get('dim', 1)}d" for n, p in BUILTIN_FIELDS]
)
def test_builtin_lies_within_its_declared_bounds(name, params):
    field = coefficient_by_name(name, **params)
    kappa, bound = oracles.declared_bounds(name, **params)
    assert 0.0 < kappa <= bound
    grid = np.linspace(0.01, 0.99, 7)
    xs = list(grid) if field.dim == 1 else [np.array([a, b]) for a in grid for b in grid]
    report = oracles.eval_bounds_check(field, (kappa, bound), np.linspace(-8.0, 8.0, 9), xs)
    assert report.ok and report.checked == 9 * len(xs)


@pytest.mark.parametrize(
    "name,params", BUILTIN_FIELDS, ids=[f"{n}_{p.get('dim', 1)}d" for n, p in BUILTIN_FIELDS]
)
def test_builtin_evaluates_bitwise_as_the_product_of_its_factors(name, params):
    field = coefficient_by_name(name, **params)
    rng = np.random.default_rng(5)
    xs = rng.uniform(0.0, 1.0, size=(6, field.dim))
    xs = list(xs[:, 0]) if field.dim == 1 else list(xs)
    zs = list(rng.uniform(-8.0, 8.0, size=(5, 1))) + list(rng.uniform(-8.0, 8.0, size=(5, 2)))
    for z in zs:
        for x in xs:
            got = np.asarray(oracles.evaluate(field, z, x))
            x_row = np.reshape(x, (1, field.dim))
            want = np.asarray(field.z_factor(z[None])[0] * field.spatial_part(x_row)[0])
            assert got.shape == want.shape and got.dtype == want.dtype == np.float64
            assert got.tobytes() == want.tobytes(), (z, x)


def test_logistic_derivatives_match_finite_differences():
    derivs = oracles.logistic_factor_derivatives()
    zs = np.linspace(-10.0, 10.0, 41)
    h = 1e-5
    for i in range(1, 5):
        lower = derivs[i - 1]
        fd = (lower(zs + h) - lower(zs - h)) / (2.0 * h)
        exact = derivs[i](zs)
        scale = np.maximum(np.abs(exact), 1e-3)
        assert np.max(np.abs(fd - exact) / scale) < 1e-6
        assert np.isfinite(exact).all()
    # bounded on the whole probe interval, and the sup shrinks with the order
    sups = [float(np.max(np.abs(derivs[i](zs)))) for i in range(5)]
    assert all(s < 2.1 for s in sups)


def test_discrete_coercivity_of_logistic_field_2d():
    # smallest eigenvalue of (K(z), H1-Gram) stays above kappa = 1
    f = coefficient_by_name("logistic_anisotropic")
    kappa, _ = oracles.declared_bounds("logistic_anisotropic")
    space = make_fe_space(make_mesh(2, 3), 2)
    gram = assemble_stiffness(space, 1.0).toarray()
    for z in np.linspace(-6.0, 6.0, 20):
        k = oracles.stiffness_at(space, f, z).toarray()
        lam_min = scipy.linalg.eigh(k, gram, eigvals_only=True)[0]
        assert lam_min >= kappa - 1e-8


def test_initial_data_builtins():
    u = initial_datum_by_name("sine_modes", modes=[(1, 1.0), (3, 0.5)])
    g = u.sample(np.array([0.7]))
    want = math.sin(math.pi / 2) + 0.5 * math.sin(3 * math.pi / 2)
    assert g(np.array([[0.5]]))[0] == pytest.approx(want)
    assert u.sine_modes == ((1, 1.0), (3, 0.5))
    v = initial_datum_by_name("product_sine")
    gv = v.sample(np.array([0.0]))
    assert gv(np.array([[0.5, 0.5]]))[0] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        initial_datum_by_name("nope")


def test_logistic_factor_and_derivatives_match_scipy_expit():
    from scipy.special import expit as s

    want = (
        lambda z: s(z) + 1.0,
        lambda z: s(z) * (1.0 - s(z)),
        lambda z: s(z) * (1.0 - s(z)) * (1.0 - 2.0 * s(z)),
        lambda z: s(z) * (1.0 - s(z)) * (1.0 - 6.0 * s(z) + 6.0 * s(z) ** 2),
        lambda z: s(z) * (1.0 - s(z)) * (1.0 - 2.0 * s(z)) * (1.0 - 12.0 * s(z) + 12.0 * s(z) ** 2),
    )
    zs = np.concatenate([np.linspace(-40.0, 40.0, 8001), [-800.0, -1e-300, 0.0, 1e-300, 800.0]])
    for got, exact in zip(oracles.logistic_factor_derivatives(), want):
        assert np.max(np.abs(got(zs) - exact(zs))) <= 1e-15
    assert logistic_factor is oracles.logistic_factor_derivatives()[0]
    # a scalar gives a scalar, as expit does
    assert type(logistic_factor(0.3)) is type(want[0](0.3)) is np.float64
    assert logistic_factor(0.3) == pytest.approx(want[0](0.3), abs=1e-15)


BUILTIN_DATA = [
    ("sine_modes", {"modes": [(1, 1.0), (2, -0.4), (5, 0.15)]}),
    ("product_sine", {"j": 2, "amplitude": 0.7}),
]


def test_builtin_data_list_covers_every_builtin():
    assert {name for name, _ in BUILTIN_DATA} == set(INITIAL_DATUM_BUILTINS)


def _points(dim: int) -> np.ndarray:
    """Points of an element rule and random points, (n, dim)."""
    space = make_fe_space(make_mesh(dim, 3), 2)
    rng = np.random.default_rng(dim)
    rule = space.element_rule(6)[1].reshape(-1, dim)
    return np.concatenate([rule, rng.uniform(0.0, 1.0, size=(50, dim))])


@pytest.mark.parametrize(
    "name,params", BUILTIN_FIELDS, ids=[f"{n}_{p.get('dim', 1)}d" for n, p in BUILTIN_FIELDS]
)
def test_builtin_spatial_part_is_bitwise_its_per_row_calls(name, params):
    field = coefficient_by_name(name, **params)
    x = _points(field.dim)
    assert np.array_equal(field.spatial_part(x), oracles.per_row(field.spatial_part)(x))


@pytest.mark.parametrize("name,params", BUILTIN_DATA, ids=[n for n, _ in BUILTIN_DATA])
def test_builtin_datum_is_bitwise_its_per_row_calls(name, params):
    datum = initial_datum_by_name(name, **params)
    u0 = datum.sample(np.array([0.3]))
    x = _points(datum.dim)
    assert np.array_equal(u0(x), oracles.per_row(u0)(x))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_z_factor_on_a_workload_grid_is_bitwise_its_per_row_calls(workload):
    cfg = load_config(WORKLOADS[workload]["config"])
    fields = [coefficient_by_name(name, **params) for name, params in BUILTIN_FIELDS]
    for q in (cfg.quad_order, cfg.reference.get("quad_order", cfg.quad_order)):
        nodes, _ = tensor_quad(cfg.dist, q)
        for field in fields:
            rows = np.array([field.z_factor(nodes[i : i + 1])[0] for i in range(len(nodes))])
            assert np.array_equal(field.z_factor(nodes), rows), (field.name, q)
