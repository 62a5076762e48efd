import math

import numpy as np
import pytest
import scipy.linalg

import oracles
from sgpde.coeffs import (
    COEFFICIENT_BUILTINS,
    CoefficientField,
    builtin_separable,
    coefficient_by_name,
    initial_datum_by_name,
    logistic_factor,
    logistic_factor_derivatives,
)
from sgpde.spatial import assemble_stiffness, make_fe_space, make_mesh


def test_constant_unit_field():
    f = coefficient_by_name("constant", value=1.0, dim=1)
    assert f.kappa == f.bound == 1.0
    assert f.evaluate(0.3, 0.5) == 1.0
    report = oracles.eval_bounds_check(f, np.linspace(-3, 3, 5), np.linspace(0.1, 0.9, 5))
    assert report.ok and report.checked == 25


def test_logistic_anisotropic_matches_stated_bounds():
    f = coefficient_by_name("logistic_anisotropic")
    assert f.kappa == 1.0 and f.bound == 6.0
    assert logistic_factor(0.0) == pytest.approx(1.5)
    val = f.evaluate(0.0, np.array([0.5, 0.5]))
    assert np.allclose(val, val.T)
    assert np.allclose(val, 1.5 * np.diag([1.5, 2.5]))
    zs = np.linspace(-8.0, 8.0, 10)
    xs = [np.array([a, b]) for a in np.linspace(0.01, 0.99, 10) for b in np.linspace(0.01, 0.99, 10)]
    report = oracles.eval_bounds_check(f, zs, xs)
    assert report.ok and report.checked == 1000


def test_bounds_check_flags_violations():
    overstated = builtin_separable(
        lambda z: 1.0,
        lambda x: 0.5,
        dim=1,
        f_bounds=(1.0, 1.0),
        g_bounds=(0.9, 1.0),  # claims kappa = 0.9 but the field is 0.5
    )
    report = oracles.eval_bounds_check(overstated, [0.0], [0.25, 0.75])
    assert not report.ok
    assert len(report.violations) == 2
    assert report.violations[0][3] == "below kappa"


def test_nonpositive_f_bound_rejected():
    with pytest.raises(ValueError, match="positive"):
        builtin_separable(lambda z: z, lambda x: 1.0, f_bounds=(-1.0, 1.0))


def test_affine_field_is_flagged_non_elliptic():
    f = coefficient_by_name("affine", slope=0.5)
    assert not f.elliptic
    assert f.evaluate(2.0, 0.3) == pytest.approx(2.0)
    assert f.z_factor(2.0) == pytest.approx(2.0)


def test_field_without_both_factors_is_rejected():
    # a field that is not f(z) g(x) has no place in the library
    with pytest.raises(TypeError, match="z_factor.*spatial_part"):
        CoefficientField(dim=1, kappa=1.0, bound=3.0)
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
    ("affine", {"slope": 0.5}),
    ("affine", {"slope": -0.3, "dim": 2}),
    ("logistic_1d", {}),
    ("logistic_anisotropic", {}),
]


def test_builtin_field_list_covers_every_builtin():
    assert {name for name, _ in BUILTIN_FIELDS} == set(COEFFICIENT_BUILTINS)


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
            got = np.asarray(field.evaluate(z, x))
            want = np.asarray(field.z_factor(z) * field.spatial_part(x))
            assert got.shape == want.shape and got.dtype == want.dtype == np.float64
            assert got.tobytes() == want.tobytes(), (z, x)


def test_logistic_derivatives_match_finite_differences():
    derivs = logistic_factor_derivatives()
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
    space = make_fe_space(make_mesh(2, 3), 2)
    gram = assemble_stiffness(space, 1.0).toarray()
    for z in np.linspace(-6.0, 6.0, 20):
        k = assemble_stiffness(space, lambda x: f.evaluate(z, x)).toarray()
        lam_min = scipy.linalg.eigh(k, gram, eigvals_only=True)[0]
        assert lam_min >= f.kappa - 1e-8


def test_initial_data_builtins():
    u = initial_datum_by_name("sine_modes", modes=[(1, 1.0), (3, 0.5)])
    g = u.sample(np.array([0.7]))
    assert g(0.5) == pytest.approx(math.sin(math.pi / 2) + 0.5 * math.sin(3 * math.pi / 2))
    assert u.sine_modes == ((1, 1.0), (3, 0.5))
    v = initial_datum_by_name("product_sine")
    gv = v.sample(np.array([0.0]))
    assert gv(np.array([0.5, 0.5])) == pytest.approx(1.0)
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
    for got, exact in zip(logistic_factor_derivatives(), want):
        assert np.max(np.abs(got(zs) - exact(zs))) <= 1e-15
    assert logistic_factor is logistic_factor_derivatives()[0]
    # a scalar gives a scalar, as expit does
    assert type(logistic_factor(0.3)) is type(want[0](0.3)) is np.float64
    assert logistic_factor(0.3) == pytest.approx(want[0](0.3), abs=1e-15)
