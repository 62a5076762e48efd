import math
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

import oracles
from oracles import apply_Q, orthonormal_coeffs, sl_eigenvalue, sl_norm_bound_constant
from sgpde import orthopoly
from sgpde.orthopoly import eval_orthonormal, gauss_rule, hermite, jacobi, laguerre

FAMILIES = [
    hermite(),
    jacobi(0.0, 0.0),
    jacobi(1.0, 2.0),
    jacobi(-0.5, -0.5),
    laguerre(0.0),
    laguerre(2.5),
]


def sobolev_norm_1d(family, p: Polynomial, ell: int, q: int = 40) -> float:
    """H^ell_rho norm of a polynomial, derivatives exact, integrals by Gauss."""
    rule = gauss_rule(family, q)
    rho = oracles.sobolev_weight(family, rule.nodes)
    total = 0.0
    for k in range(ell + 1):
        vals = p.deriv(k)(rule.nodes)
        total += float(np.dot(rule.weights, rho**k * vals**2))
    return math.sqrt(total)


@pytest.mark.parametrize("family", FAMILIES)
def test_gauss_rule_is_built_once_read_only_and_equal_to_the_uncached_rule(family):
    first, again = gauss_rule(family, 30), gauss_rule(family, 30)
    assert first.nodes is again.nodes and first.weights is again.weights
    nodes, weights = orthopoly._gauss_nodes_weights.__wrapped__(family, 30)
    assert first.nodes.tobytes() == nodes.tobytes()
    assert first.weights.tobytes() == weights.tobytes()
    for arr in (first.nodes, first.weights):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    # the memo is private: the public name stays a plain function, which the
    # benchmark's span tracer can wrap
    assert isinstance(gauss_rule, types.FunctionType)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        jacobi(-1.0, 0.0)
    with pytest.raises(ValueError):
        jacobi(0.0, -1.5)
    with pytest.raises(ValueError):
        laguerre(-1.0)


@pytest.mark.parametrize("value", [True, "0.5", None])
def test_a_parameter_that_is_no_number_is_rejected(value):
    # float() would read True as 1.0 and "0.5" as 0.5
    shown = rf"value {value!r} must be a finite number > -1$"
    with pytest.raises(ValueError, match=rf"^jacobi beta {shown}"):
        jacobi(0.0, value)
    with pytest.raises(ValueError, match=rf"^laguerre alpha {shown}"):
        laguerre(value)
    family = jacobi(1, np.float32(2.0))
    assert type(family.alpha) is float and type(family.beta) is float
    assert family == jacobi(1.0, 2.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "make,name",
    [(lambda v: jacobi(v, 0.0), "alpha"), (lambda v: jacobi(0.0, v), "beta"),
     (laguerre, "alpha")],
    ids=["jacobi_alpha", "jacobi_beta", "laguerre_alpha"],
)
def test_non_finite_parameters_are_rejected_by_name(make, name, value):
    # a NaN passes a "<= -1" test; each parameter must be finite and > -1
    shown = rf"^(jacobi|laguerre) {name} value {value!r} must be a finite number > -1$"
    with pytest.raises(ValueError, match=shown):
        make(value)


@pytest.mark.parametrize("family", FAMILIES)
def test_recurrence_generates_orthonormal_polynomials(family):
    # 60-node rule integrates products of degree <= 8 polynomials exactly
    rule = gauss_rule(family, 60)
    H = eval_orthonormal(family, 8, rule.nodes)
    gram = (H * rule.weights) @ H.T
    assert np.max(np.abs(gram - np.eye(9))) < 1e-10


def test_legendre_h1_is_sqrt3_z():
    vals = eval_orthonormal(jacobi(0.0, 0.0), 1, 1.0)
    assert vals[0] == 1.0
    assert vals[1] == pytest.approx(math.sqrt(3.0), rel=1e-14)
    # direct integration oracle: int_{-1}^{1} 3 z^2 dz/2 = 1
    norm2 = oracles.integrate_against_density(jacobi(0.0, 0.0), lambda z: 3.0 * z * z)
    assert norm2 == pytest.approx(1.0, abs=1e-12)


def test_laguerre_h1_unit_norm_up_to_sign():
    h1 = orthonormal_coeffs(laguerre(0.0), 1)
    assert np.allclose(np.abs(h1.coef), [1.0, 1.0], atol=1e-14)
    # direct integration oracle: int_0^inf (1 - z)^2 e^{-z} dz = 1
    norm2 = oracles.integrate_against_density(laguerre(0.0), lambda z: (1.0 - z) ** 2)
    assert norm2 == pytest.approx(1.0, abs=1e-12)


def test_eval_hermite_values():
    assert eval_orthonormal(hermite(), 0, 3.7).tolist() == [1.0]
    vals = eval_orthonormal(hermite(), 2, 0.0)
    assert vals == pytest.approx([1.0, 0.0, -1.0 / math.sqrt(2.0)], abs=1e-15)


def test_gauss_hermite_two_and_three_nodes():
    rule2 = gauss_rule(hermite(), 2)
    assert rule2.nodes == pytest.approx([-1.0, 1.0], abs=1e-14)
    assert rule2.weights == pytest.approx([0.5, 0.5], abs=1e-14)
    rule3 = gauss_rule(hermite(), 3)
    s3 = math.sqrt(3.0)
    assert rule3.nodes == pytest.approx([-s3, 0.0, s3], abs=1e-13)
    assert rule3.weights == pytest.approx([1 / 6, 2 / 3, 1 / 6], abs=1e-13)


@pytest.mark.parametrize("family", FAMILIES)
def test_single_node_rule_is_mean(family):
    rule = gauss_rule(family, 1)
    assert rule.weights == pytest.approx([1.0], abs=1e-15)
    assert rule.nodes[0] == pytest.approx(oracles.moment(family, 1), rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("q", [1, 2, 5, 12])
def test_gauss_moments_exact_to_degree_2q_minus_1(family, q):
    rule = gauss_rule(family, q)
    for j in range(2 * q):
        got = float(np.dot(rule.weights, rule.nodes**j))
        want = oracles.moment(family, j)
        # scale by the L1 envelope of the integrand so that odd (cancelling)
        # moments are judged on the same footing as even ones
        scale = max(1.0, float(np.dot(rule.weights, np.abs(rule.nodes) ** j)))
        assert abs(got - want) <= 1e-10 * scale, (j, got, want)


@given(
    a=st.floats(-0.9, 4.0),
    b=st.floats(-0.9, 4.0),
    q=st.integers(1, 25),
)
# without the Newton step on the nodes, Christoffel weights miss sum 1 here
@example(a=4.0, b=-0.9, q=25)
@settings(max_examples=40, deadline=None)
def test_jacobi_weights_positive_and_normalized(a, b, q):
    rule = gauss_rule(jacobi(a, b), q)
    assert np.all(rule.weights > 0)
    assert abs(rule.weights.sum() - 1.0) < 1e-13
    assert np.all(np.diff(rule.nodes) > 0)
    assert np.all(np.abs(rule.nodes) < 1.0)


def test_apply_Q_examples():
    # hermite: Q (z^2 - 1) = 2 (z^2 - 1)
    out = apply_Q(hermite(), Polynomial([-1.0, 0.0, 1.0]))
    assert np.allclose(out.coef, [-2.0, 0.0, 2.0], atol=1e-14)
    # any Q annihilates constants
    out = apply_Q(jacobi(0.0, 0.0), Polynomial([1.0]))
    assert out.degree() == 0 and out.coef[0] == 0.0
    # laguerre(0): Q (1 - z) = 1 - z
    out = apply_Q(laguerre(0.0), Polynomial([1.0, -1.0]))
    assert np.allclose(out.coef, [1.0, -1.0], atol=1e-14)


def test_sl_eigenvalues():
    assert sl_eigenvalue(hermite(), 5) == 5.0
    assert sl_eigenvalue(jacobi(1.0, 2.0), 3) == 21.0
    for family in FAMILIES:
        assert sl_eigenvalue(family, 0) == 0.0


@pytest.mark.parametrize("family", FAMILIES)
def test_eigenrelation_exact_on_coefficients(family):
    for k in range(9):
        h_k = orthonormal_coeffs(family, k)
        rhs = sl_eigenvalue(family, k) * h_k
        scale = max(1.0, np.max(np.abs(rhs.coef)))
        assert np.max(np.abs((apply_Q(family, h_k) - rhs).coef)) <= 1e-10 * scale


@pytest.mark.parametrize("family", FAMILIES)
def test_Q_is_symmetric_under_the_measure(family):
    rng = np.random.default_rng(7)
    rule = gauss_rule(family, 40)
    for _ in range(5):
        p = Polynomial(rng.standard_normal(7))
        r = Polynomial(rng.standard_normal(7))
        qp = apply_Q(family, p)
        qr = apply_Q(family, r)
        lhs = float(np.dot(rule.weights, qp(rule.nodes) * r(rule.nodes)))
        rhs = float(np.dot(rule.weights, p(rule.nodes) * qr(rule.nodes)))
        scale = max(1.0, abs(lhs), abs(rhs))
        assert abs(lhs - rhs) <= 1e-9 * scale


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("ell", [0, 1])
def test_norm_bound_constants(family, ell):
    rng = np.random.default_rng(11)
    c = sl_norm_bound_constant(family, ell)
    for _ in range(5):
        f = Polynomial(rng.standard_normal(7))
        qf = apply_Q(family, f)
        assert sobolev_norm_1d(family, qf, ell) <= c * sobolev_norm_1d(family, f, ell + 2) * (
            1.0 + 1e-12
        )


def test_norm_bound_constant_values():
    assert sl_norm_bound_constant(hermite(), 0) == pytest.approx(math.sqrt(21.0))
    assert sl_norm_bound_constant(laguerre(1.0), 2) == pytest.approx(
        math.sqrt(24.0 + 87.0 + 48.0 + 12.0)
    )

