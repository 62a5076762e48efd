"""Independent oracles used by the test suite.

The closed forms are derived by hand or from elementary probability facts,
deliberately avoiding the recurrence/quadrature code paths under test. The
slow paths that a faster library path replaced stay here as its reference,
and so do the tools only the tests use: the brute-force collocation operator,
the block Gram lift, the kron forms of the system-basis block matrices, the
pointwise analytic solution, the coordinate export, the local-order probe, dense
pencil eigenvalues, the coupled chaos operator of a field that is not a
product f(z) g(x), which the library does not take, the L2 projection,
stationary solve, point evaluation and sampled single-state L2 error of the
spatial space, the value f(z) g(x) of a field, the triple-product tensor,
the non-elliptic `affine_field` assembly probe, and the ellipticity bounds
of each built-in field with their sampled check. The forms that one-pass
library paths replaced stay too: the error points with the two-pass L2
error, the per-node chaos projection of a callable, and the
eigendecomposition check on 2-norms. So do the parts of the paper that no sweep computes: each
family's Sturm--Liouville operator with its eigenvalues, the chaos
truncation bound (weighted Sobolev norm, its constant, the exact
derivatives of the logistic factor), and the symmetry defect and smallest
resolvent eigenvalue of a block operator, read from its factors.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.polynomial import Polynomial
from scipy import integrate

from sgpde.coeffs import CoefficientField, _logistic, logistic_factor
from sgpde.orthopoly import PolyFamily, _monic_recurrence, eval_orthonormal, gauss_rule
from sgpde.pce import MultiIndexSet, multi_index_set, tensor_basis_matrix, tensor_quad
from sgpde.sgsystem import SgState, reconstruct_at_nodes, spatial_operators
from sgpde.spatial import (
    FeSpace,
    Mesh,
    _ERROR_Q1D,
    _TRI_PTS,
    _TRI_WTS,
    _element_rule,
    _eval_matrix,
    _gauss_01,
    _shapes_1d,
    _shapes_tri,
    assemble_mass,
    assemble_stiffness,
    checked_solve,
    l2_error,
    load_vector,
)
from sgpde.timestep import Propagator, crank_nicolson, evolve, scheme_by_name


def hermite_moment(j: int) -> float:
    """E[Z^j] for Z standard normal: 0 for odd j, (j-1)!! for even j."""
    if j % 2 == 1:
        return 0.0
    return float(math.prod(range(1, j, 2)))


def laguerre_moment(alpha: float, j: int) -> float:
    """E[Z^j] for Z ~ Gamma(alpha + 1, rate 1): rising factorial."""
    a = Fraction(alpha)
    return float(math.prod((a + 1 + i for i in range(j)), start=Fraction(1)))


def jacobi_moment(alpha: float, beta: float, j: int) -> float:
    """E[Z^j] for Z on (-1,1) with density ~ (1-z)^alpha (1+z)^beta.

    Substituting z = 2t - 1 gives t ~ Beta(beta+1, alpha+1) on (0,1), whose
    raw moments are products of ratios. The binomial expansion cancels
    heavily, so everything is kept in exact rational arithmetic.
    """
    a, b = Fraction(alpha), Fraction(beta)
    t_moments = [Fraction(1)]
    for i in range(j):
        t_moments.append(t_moments[-1] * (b + 1 + i) / (a + b + 2 + i))
    total = sum(
        math.comb(j, i) * Fraction(2) ** i * (-1) ** (j - i) * t_moments[i]
        for i in range(j + 1)
    )
    return float(total)


def moment(family, j: int) -> float:
    """Closed-form moment dispatch on a PolyFamily-like object."""
    return _moment(family.kind, family.alpha, family.beta, j)


@functools.cache
def _moment(kind: str, alpha: float, beta: float, j: int) -> float:
    """`moment` kept per (kind, alpha, beta, j): the exact-fraction moments
    are costly, and a test of Gauss rules asks for the same ones per q."""
    if kind == "hermite":
        return hermite_moment(j)
    if kind == "laguerre":
        return laguerre_moment(alpha, j)
    return jacobi_moment(alpha, beta, j)


def integrate_against_density(family, f, limit: int = 200) -> float:
    """Adaptive quadrature of f against the family's probability density."""
    if family.kind == "hermite":
        dens = lambda z: math.exp(-z * z / 2.0) / math.sqrt(2.0 * math.pi)
        lo, hi = -np.inf, np.inf
    elif family.kind == "laguerre":
        a = family.alpha
        dens = lambda z: z**a * math.exp(-z) / math.gamma(a + 1.0)
        lo, hi = 0.0, np.inf
    else:
        a, b = family.alpha, family.beta
        const = math.gamma(a + b + 2.0) / (
            2.0 ** (a + b + 1.0) * math.gamma(a + 1.0) * math.gamma(b + 1.0)
        )
        dens = lambda z: const * (1.0 - z) ** a * (1.0 + z) ** b
        lo, hi = -1.0, 1.0
    val, _ = integrate.quad(lambda z: f(z) * dens(z), lo, hi, limit=limit)
    return val


# --- the Sturm--Liouville operator of each family and the chaos truncation
# bound C n^(-ell) ||f||_{H^(2 ell)_rho}, which the library does not compute

_Z = Polynomial([0.0, 1.0])  # the monomial z


def orthonormal_coeffs(family: PolyFamily, k: int) -> Polynomial:
    """The orthonormal polynomial h_k in the monomial basis."""
    if k < 0:
        raise ValueError("k must be >= 0")
    alphas, betas = _monic_recurrence(family, k + 1)
    bs = np.sqrt(betas)
    prev, cur = Polynomial([0.0]), Polynomial([1.0])
    for j in range(k):
        prev, cur = cur, (_Z * cur - alphas[j] * cur - bs[j] * prev) / bs[j + 1]
    return cur


def apply_Q(family: PolyFamily, p: Polynomial) -> Polynomial:
    """Apply the family's Sturm--Liouville operator exactly on coefficients.

    hermite:  Q = -d2 + z d1
    jacobi:   Q = -(1 - z^2) d2 + (alpha - beta + (alpha + beta + 2) z) d1
    laguerre: Q = -z d2 + (z - alpha - 1) d1
    """
    d1, d2 = p.deriv(), p.deriv(2)
    if family.kind == "hermite":
        return -d2 + _Z * d1
    a, b = family.alpha, family.beta
    if family.kind == "jacobi":
        return -d2 + _Z * _Z * d2 + (a - b) * d1 + (a + b + 2.0) * (_Z * d1)
    return -(_Z * d2) + _Z * d1 - (a + 1.0) * d1


def sl_eigenvalue(family: PolyFamily, k: int) -> float:
    """Eigenvalue of the Sturm--Liouville operator on h_k.

    k for hermite and laguerre, k (k + alpha + beta + 1) for jacobi.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if family.kind == "jacobi":
        return float(k * (k + family.alpha + family.beta + 1.0))
    return float(k)


def sl_norm_bound_constant(family: PolyFamily, ell: int) -> float:
    """Constant C with ||Q f||_{H^ell_rho} <= C ||f||_{H^(ell+2)_rho}."""
    if ell < 0:
        raise ValueError("ell must be >= 0")
    if family.kind == "hermite":
        return math.sqrt(21.0 + 3.0 * ell**2)
    if family.kind == "laguerre":
        return math.sqrt(24.0 * family.alpha + 87.0 + 24.0 * ell + 3.0 * ell**2)
    a, b = family.alpha, family.beta
    return math.sqrt(
        3.0 * (1.0 + 4.0 * (ell + 1.0 + max(a, b)) ** 2 + ell**2 * (ell + a + b + 1.0) ** 2)
    )


def sobolev_weight(family: PolyFamily, z: np.ndarray) -> np.ndarray:
    """The weight rho(z) of the family's Sobolev norm: z for laguerre, 1 otherwise."""
    return z if family.kind == "laguerre" else np.ones_like(z)


def weighted_sobolev_norm(
    dist,
    derivatives: Mapping[tuple, Callable] | Sequence[Callable],
    order: int,
    q: int,
) -> float:
    """Weighted Sobolev norm (sum_{|alpha| <= order} ||rho^(alpha/2) d^alpha f||^2)^(1/2).

    `derivatives` maps each multi-index (as a tuple) with |alpha| <= order to
    a callable evaluating that partial derivative at one point z. For N = 1 a
    plain sequence [f, f', f'', ...] is accepted. Integrals use a q-node
    tensor Gauss grid.
    """
    if isinstance(derivatives, Sequence):
        if dist.N != 1:
            raise ValueError("sequence form of derivatives is only valid for N = 1")
        derivatives = {(k,): d for k, d in enumerate(derivatives)}
    nodes, weights = tensor_quad(dist, q)
    total = 0.0
    for alpha in multi_index_set(dist.N, order):
        if alpha not in derivatives:
            raise ValueError(f"missing derivative callback for alpha = {alpha}")
        vals = np.array([derivatives[alpha](z) for z in nodes], dtype=float)
        rho = math.prod(sobolev_weight(fam, nodes[:, j]) ** (a_j / 2.0)
                        for j, (fam, a_j) in enumerate(zip(dist.components, alpha)))
        total += float(np.dot(weights, rho * vals**2))
    return math.sqrt(total)


def pce_error_constant(dist, ell: int) -> float:
    """Constant C_{ell,N} of the chaos truncation bound.

    C = N^(ell/2) * prod_{r=0}^{ell-1} max_j C_j(2r), an empty product for
    ell = 0; the truncation error of order n is bounded by
    C * n^(-ell) * ||f||_{H^(2 ell)_rho}; see `weighted_sobolev_norm`.
    """
    if ell < 0:
        raise ValueError("ell must be >= 0")
    prod = 1.0
    for r in range(ell):
        prod *= max(sl_norm_bound_constant(fam, 2 * r) for fam in dist.components)
    return dist.N ** (ell / 2.0) * prod


def logistic_factor_derivatives() -> tuple:
    """Exact derivative callables of the logistic factor, orders 0..4."""
    s = _logistic
    return (
        logistic_factor,
        lambda z: s(z) * (1.0 - s(z)),
        lambda z: s(z) * (1.0 - s(z)) * (1.0 - 2.0 * s(z)),
        lambda z: s(z) * (1.0 - s(z)) * (1.0 - 6.0 * s(z) + 6.0 * s(z) ** 2),
        lambda z: s(z) * (1.0 - s(z)) * (1.0 - 2.0 * s(z)) * (1.0 - 12.0 * s(z) + 12.0 * s(z) ** 2),
    )


def heat_amplitude(diffusivity: float, mode: int, t: float) -> float:
    """Damping factor of sin(mode*pi*x) under u_t = a u_xx on (0,1)."""
    return math.exp(-diffusivity * (mode * math.pi) ** 2 * t)


def analytic_solution(field, u0, z, t: float) -> Callable:
    """The exact solution at the parameter z and time t of the problem with a
    constant-in-x 1D coefficient f(z) g and a sine-sum datum, as a spatial
    function of the points x (n, 1): the oracle of the amplitudes of an
    `AnalyticReference`."""
    a = float(evaluate(field, z, 0.5))
    modes = [(j, c * math.exp(-a * (j * math.pi) ** 2 * t)) for j, c in u0.sine_modes]

    def u(x):
        return sum(c * np.sin(j * math.pi * x[:, 0]) for j, c in modes)

    return u


def rebuilt_step(scheme, mass, stiff, u, tau: float) -> np.ndarray:
    """One rational step with nothing cached: build and factor d0 M - d1 tau K
    afresh and solve against n0 M u - n1 tau K u."""
    mass, stiff = sp.csr_matrix(mass), sp.csr_matrix(stiff)
    n0, n1 = scheme.num
    d0, d1 = scheme.den
    lhs = d0 * mass - d1 * tau * stiff
    b = n0 * (mass @ u) - n1 * tau * (stiff @ u)
    return spla.splu(lhs.tocsc()).solve(b)


def _exact_flow(mass, stiff, u0: np.ndarray, taus) -> list[np.ndarray]:
    """Reference semigroup states via the generalized eigendecomposition."""
    md = np.asarray(sp.csr_matrix(mass).todense())
    kd = np.asarray(sp.csr_matrix(stiff).todense())
    lam, vecs = scipy.linalg.eigh(kd, md)
    coeff = vecs.T @ (md @ u0)
    return [vecs @ (np.exp(-lam * t) * coeff) for t in taus]


@dataclass(frozen=True)
class ConsistencyResult:
    taus: tuple
    errors: tuple
    slope: float | None
    exact: bool


def consistency_probe(scheme, mass, stiff, u0, tau_list, substeps: int = 1000) -> ConsistencyResult:
    """Observed local order: log-log slope of one-step error against tau.

    The reference flow is the generalized eigendecomposition for small
    systems and a finely substepped Crank--Nicolson march otherwise. An
    error at the floor of machine precision reports exact=True instead of
    a slope.
    """
    mass = sp.csr_matrix(mass)
    stiff = sp.csr_matrix(stiff)
    u0 = np.asarray(u0, dtype=float)
    taus = sorted(float(t) for t in tau_list)
    if mass.shape[0] <= 400:
        refs = _exact_flow(mass, stiff, u0, taus)
    else:
        refs = []
        for tau in taus:
            refs.append(evolve(crank_nicolson(), tau, substeps, mass, stiff, u0))
    errors = []
    for tau, ref in zip(taus, refs):
        diff = Propagator(scheme, mass, stiff, tau).step(u0) - ref
        errors.append(float(np.sqrt(diff @ (mass @ diff))))
    scale = float(np.sqrt(u0 @ (mass @ u0)))
    if max(errors) <= 1e-13 * max(scale, 1e-300):
        return ConsistencyResult(tuple(taus), tuple(errors), None, True)
    slope = float(np.polyfit(np.log(taus), np.log(errors), 1)[0])
    return ConsistencyResult(tuple(taus), tuple(errors), slope, False)


# --- the triple-product chaos operator that the quadrature build replaced --
# and the coupled operator of a field that is not a product f(z) g(x)


@dataclass(frozen=True)
class CoupledField:
    """A diffusion coefficient M(z, x) that is not a product f(z) g(x). The
    library takes separable fields only; the oracles below assemble K(z)
    from `evaluate` and so also take this type."""

    dim: int
    evaluate: Callable


def row_value(value) -> np.ndarray:
    """The value of a spatial function called on one point, x of shape
    (1, dim): its one row, or the scalar or constant 2x2 matrix it gave."""
    value = np.asarray(value, dtype=float)
    return value if value.shape in ((), (2, 2)) else value[0]


def per_row(f: Callable) -> Callable:
    """The spatial function f called one point at a time, as f(x[i:i + 1])
    for each row of x, and its values stacked: the loop that the library's
    one call per grid replaced."""
    return lambda x: np.stack([row_value(f(x[i : i + 1])) for i in range(len(x))])


def evaluate(field, z, x):
    """The value of a field at one parameter z (N,) and one point x (a float
    or (dim,)): f(z) g(x) for a `CoefficientField`, whose factors the
    library assembles apart, each called on that one node and point, and the
    field's own callable for a `CoupledField`."""
    if isinstance(field, CoupledField):
        return field.evaluate(z, x)
    z_row = np.reshape(np.asarray(z, dtype=float), (1, -1))
    x_row = np.reshape(np.asarray(x, dtype=float), (1, field.dim))
    return field.factor_at(z_row)[0] * row_value(field.spatial_part(x_row))


def stiffness_at(space, field, z) -> sp.csr_matrix:
    """K(z) assembled from the field at the parameter node z, evaluated one
    point at a time."""
    return assemble_stiffness(space, per_row(lambda x: evaluate(field, z, x[0])))


DENSE_EIG_SIZE_LIMIT = 3000


def min_generalized_eigenvalue(a: sp.spmatrix, b: sp.spmatrix) -> float:
    """Smallest eigenvalue of the pencil (A, B), dense; small sizes only."""
    if a.shape[0] > DENSE_EIG_SIZE_LIMIT:
        raise ValueError(f"pencil size {a.shape[0]} too large for dense solve")
    return float(scipy.linalg.eigh(a.toarray(), b.toarray(), eigvals_only=True)[0])


def _max_abs(a) -> float:
    """Largest |entry| of a dense or sparse matrix; 0 when it stores none."""
    return float(abs(a).max()) if a.size else 0.0


def symmetry_defect(op) -> float:
    """Bound on the largest |A - A^T| entry of the operator A = G (x) K_g
    of an `SgOperator`, from its factors: max|G - G^T| max|K_g| +
    max|G| max|K_g - K_g^T|, zero exactly when both are symmetric."""
    g, k = op.chaos, op.spatial.k_g
    return _max_abs(g - g.T) * _max_abs(k) + _max_abs(g) * _max_abs(k - k.T)


def min_resolvent_eigenvalue(op) -> float:
    """Smallest eigenvalue of the pencil (G (x) K_g, I (x) M) of an
    `SgOperator`, from its factors: the smallest product lam_i mu_j with the
    eigenvalues mu of its space's pencil (K_g, M)."""
    return float(np.outer(op.eigvals, op.spatial.pencil.mu).min())


SPARSE_DROP_TOL = 1e-12


@dataclass(frozen=True)
class TripleProductTensor:
    """Sparse expectations eps[alpha, beta, gamma] = E[Phi_a Phi_b Phi_c].

    Stored for |alpha| <= 2n and |beta|, |gamma| <= n; entries below the
    drop tolerance are absent. Values are invariant under any permutation
    of the three indices by construction.
    """

    n: int
    mis: MultiIndexSet
    mis2: MultiIndexSet
    entries: dict


def univariate_triple_table(family: PolyFamily, n: int) -> np.ndarray:
    """E[h_a h_b h_c] for a <= 2n, b, c <= n, symmetric by construction.

    Filled from sorted representatives so that permuted index triples share
    the exact same float value.
    """
    rule = gauss_rule(family, 2 * n + 1)
    H = eval_orthonormal(family, 2 * n, rule.nodes)
    table = np.empty((2 * n + 1, n + 1, n + 1))
    for a in range(2 * n + 1):
        for b in range(min(a, n) + 1):
            for c in range(b + 1):
                val = float(np.dot(rule.weights, H[a] * H[b] * H[c]))
                for idx in {(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)}:
                    if idx[0] <= 2 * n and idx[1] <= n and idx[2] <= n:
                        table[idx] = val
    return table


def loop_triple_products(dist, n: int) -> TripleProductTensor:
    """Triple-product tensor over the tensorized basis, with one Python
    product per (alpha, beta, gamma), |alpha| <= 2n, |beta|, |gamma| <= n,
    taken over the dimensions in order. Per-dimension Gauss quadrature with
    2n + 1 nodes is exact for the integrands (degree at most 4n per
    dimension); entries are stored alpha-major in graded-lex order."""
    mis = multi_index_set(dist.N, n)
    mis2 = multi_index_set(dist.N, 2 * n)
    tables = [univariate_triple_table(fam, n) for fam in dist.components]
    entries: dict = {}
    for alpha in mis2:
        da = sum(alpha)
        for beta in mis:
            for gamma in mis.indices:
                if da > sum(beta) + sum(gamma):
                    continue
                val = 1.0
                for j in range(dist.N):
                    val *= tables[j][alpha[j], beta[j], gamma[j]]
                    if val == 0.0:
                        break
                if abs(val) > SPARSE_DROP_TOL:
                    entries[(alpha, beta, gamma)] = float(val)
    return TripleProductTensor(n, mis, mis2, entries)


@dataclass(frozen=True)
class SeparableStiffness(Mapping):
    """Chaos coefficient matrices A_alpha = c_alpha K_g of a separable field f(z) g(x).

    Holds the chaos coefficients c_alpha of f and the stiffness matrix K_g
    of g; indexing by alpha forms A_alpha.
    """

    coeffs: dict  # alpha -> c_alpha
    spatial: sp.csr_matrix  # K_g

    def __getitem__(self, alpha) -> sp.csr_matrix:
        return self.coeffs[alpha] * self.spatial

    def __contains__(self, alpha) -> bool:
        return alpha in self.coeffs

    def __iter__(self):
        return iter(self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)


def pce_coefficient_matrices(dist, n: int, space, field, q: int):
    """Chaos coefficient stiffness matrices A_alpha for |alpha| <= 2n.

    A_alpha = sum_i w_i Phi_alpha(z_i) K(z_i) over a q-node tensor Gauss
    grid. A `CoefficientField` f(z) g(x) assembles K_g once and returns a
    `SeparableStiffness` holding the chaos coefficients c_alpha of f and K_g;
    any other field assembles K(z_i) from `evaluate` at every node.
    """
    if q < 2 * n + 1:
        raise ValueError(f"q = {q} must be at least 2n + 1 = {2 * n + 1}")
    if field.dim != space.dim:
        raise ValueError("field and space dimensions differ")
    mis2 = multi_index_set(dist.N, 2 * n)
    nodes, weights = tensor_quad(dist, q)
    phi2 = tensor_basis_matrix(dist, mis2, nodes)
    if isinstance(field, CoefficientField):
        k_g = assemble_stiffness(space, field.spatial_part)
        factors = np.array([field.factor_at(z[None])[0] for z in nodes])
        coeffs = phi2.T @ (weights * factors)
        return SeparableStiffness(dict(zip(mis2, coeffs)), k_g)
    mats: dict = {}
    for i, z in enumerate(nodes):
        k_z = stiffness_at(space, field, z)
        for a, alpha in enumerate(mis2):
            scaled = (weights[i] * phi2[i, a]) * k_z
            mats[alpha] = scaled if alpha not in mats else mats[alpha] + scaled
    return mats


def aliasing_probe(dist, n: int, space, field, q: int) -> float:
    """Max |A_alpha| entry over the probe band 2n < |alpha| <= 2n + 2.

    Nonzero values quantify the chaos content of the coefficient beyond the
    assembled truncation; exactly representable coefficients probe to ~0.
    """
    band_mats = pce_coefficient_matrices(dist, n + 1, space, field, q)
    worst = 0.0
    for alpha, mat in band_mats.items():
        if 2 * n < sum(alpha) <= 2 * n + 2:
            nnz_max = float(abs(mat).max()) if mat.nnz else 0.0
            worst = max(worst, nnz_max)
    return worst


def _chaos_matrices(eps, mis) -> np.ndarray:
    """E[a, b, g] = eps[alpha_a, beta_b, gamma_g], one d_n x d_n matrix per |alpha| <= 2n."""
    e = np.zeros((len(eps.mis2), len(mis), len(mis)))
    pos2 = {a: i for i, a in enumerate(eps.mis2)}
    pos = {a: i for i, a in enumerate(mis)}
    for (alpha, beta, gamma), val in eps.entries.items():
        e[pos2[alpha], pos[beta], pos[gamma]] = val
    return e


def triple_product_block_operator(coeff_mats, eps, mis, space) -> sp.csr_matrix:
    """Symmetric chaos-basis block operator sum_alpha E_alpha (x) A_alpha over
    |alpha| <= 2n.

    `coeff_mats` maps alpha to A_alpha. A `SeparableStiffness` gives
    G (x) K_g with G = sum_alpha c_alpha E_alpha; any other mapping sums the
    Kronecker products term by term.
    """
    for alpha in eps.mis2:
        if alpha not in coeff_mats:
            raise ValueError(f"missing coefficient matrix for alpha = {alpha}")
    chaos = _chaos_matrices(eps, mis)
    if isinstance(coeff_mats, SeparableStiffness):
        g = np.zeros(chaos.shape[1:])
        for alpha, e_alpha in zip(eps.mis2, chaos):  # elementwise: G stays exactly symmetric
            g += coeff_mats.coeffs[alpha] * e_alpha
        return sp.kron(g, coeff_mats.spatial, format="csr")
    size = len(mis) * space.ndof
    matrix = sp.csr_matrix((size, size))
    for alpha, e_alpha in zip(eps.mis2, chaos):
        matrix = matrix + sp.kron(sp.csr_matrix(e_alpha), coeff_mats[alpha], format="csr")
    return matrix


def coupled_block_operator(dist, mis, space, field, q: int) -> sp.csr_matrix:
    """The chaos-basis Galerkin operator as the node sum
    sum_i w_i (phi_i phi_i^T) (x) K(z_i) over the q-node tensor Gauss grid,
    q >= 2n + 1, with K(z_i) assembled from `evaluate(field, z_i, x)`; exactly
    symmetric. It takes a field of any form."""
    if q < 2 * mis.n + 1:
        raise ValueError(f"q = {q} must be at least 2n + 1 = {2 * mis.n + 1}")
    nodes, weights = tensor_quad(dist, q)
    phi = tensor_basis_matrix(dist, mis, nodes)
    size = len(mis) * space.ndof
    matrix = sp.csr_matrix((size, size))
    for w, phi_i, z in zip(weights, phi, nodes):
        k_z = stiffness_at(space, field, z)
        matrix = matrix + sp.kron(w * np.outer(phi_i, phi_i), k_z, format="csr")
    return matrix


BRUTE_FORCE_SIZE_LIMIT = 2000


def brute_force_rnarn(dist, n: int, space, field, q: int) -> np.ndarray:
    """Chaos-basis restriction of the projected collocation operator.

    Builds the chaos projection explicitly on the (node x dof) collocation
    representation, sandwiches the node-diagonal weak operator between two
    projections, and restricts to the chaos modes. Dense; small sizes only.
    """
    mis = multi_index_set(dist.N, n)
    ndof = space.ndof
    if len(mis) * ndof > BRUTE_FORCE_SIZE_LIMIT:
        raise ValueError(
            f"system size {len(mis) * ndof} exceeds oracle limit {BRUTE_FORCE_SIZE_LIMIT}"
        )
    nodes, weights = tensor_quad(dist, q)
    basis = tensor_basis_matrix(dist, mis, nodes)  # (Q, d_n)
    eye = np.eye(ndof)
    proj = basis @ basis.T @ np.diag(weights)  # (Q, Q) chaos projection on node values
    proj_big = np.kron(proj, eye)
    modes_to_nodes = np.kron(basis, eye)
    k_blocks = [weights[i] * stiffness_at(space, field, z).toarray() for i, z in enumerate(nodes)]
    weak = scipy.linalg.block_diag(*k_blocks)
    sandwich = proj_big @ modes_to_nodes
    return sandwich.T @ weak @ sandwich


def block_gram(op, gram: sp.spmatrix) -> sp.csr_matrix:
    """Lift a spatial Gram matrix to the block space: I_{d_n} (x) G."""
    return sp.kron(sp.eye(op.block_dim), gram, format="csr")


def system_matrices(op) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """The operator's block mass I (x) M and its system-basis stiffness
    diag(lam) (x) K_g, each one sp.kron."""
    spatial = op.spatial
    return block_gram(op, spatial.mass), sp.kron(sp.diags(op.eigvals), spatial.k_g, format="csr")


def export_coo(a: sp.spmatrix) -> str:
    """Text export: `row col value` per line, 0-based, sorted."""
    coo = a.tocoo()
    order = np.lexsort((coo.col, coo.row))
    lines = [
        f"{coo.row[k]} {coo.col[k]} {float(coo.data[k])!r}"
        for k in order
        if coo.data[k] != 0.0
    ]
    return "\n".join(lines) + "\n"


def export_block_operator(op) -> str:
    """Coordinate export of the chaos-basis block matrix, block offsets annotated."""
    ndof = op.spatial.space.ndof
    header = [f"# block_dim {op.block_dim} ndof {ndof}"]
    header += [
        f"# block {','.join(str(i) for i in beta)} offset {b * ndof}"
        for b, beta in enumerate(op.mis)
    ]
    return "\n".join(header) + "\n" + export_coo(op.matrix)


def bmat_block_operator(coeff_mats, eps, mis) -> sp.csr_matrix:
    """The chaos-basis block operator as sp.bmat of d_n^2 blocks, each summing
    eps[alpha, beta, gamma] A_alpha over |alpha| <= 2n in graded-lex order."""
    d = len(mis)
    blocks = [[None] * d for _ in range(d)]
    for bi, beta in enumerate(mis):
        for gi, gamma in enumerate(mis):
            acc = None
            for alpha in eps.mis2:
                val = eps.entries.get((alpha, beta, gamma), 0.0)
                if val:
                    term = val * coeff_mats[alpha]
                    acc = term if acc is None else acc + term
            blocks[bi][gi] = acc
    return sp.bmat(blocks, format="csr")


def per_node_collocation_reference(dist, q_ref, space, n_steps, field, u0, t_final):
    """The collocation reference with every node solved as a new problem:
    K(z_i) assembled from the coefficient callable and the initial datum
    L2-projected at each node, then independent Crank--Nicolson solves."""
    from sgpde.harness import CollocationReference

    nodes, weights = tensor_quad(dist, q_ref)
    ops = spatial_operators(space, field)
    scheme = crank_nicolson()
    values = np.empty((len(nodes), space.ndof))
    for i, z in enumerate(nodes):
        try:
            stiff = stiffness_at(space, field, z)
            u_start = l2_project(space, u0.sample(z))
            values[i] = evolve(scheme, t_final, n_steps, ops.mass, stiff, u_start)
        except Exception as exc:
            raise RuntimeError(f"collocation node {i} (z = {z}) failed: {exc}") from exc
    return CollocationReference(nodes, weights, ops, values)


def per_node_stepped_reference(dist, q_ref, ops, n_steps, u0, t_final):
    """The collocation reference stepped one node at a time, the loop that
    the batched `harness._propagate` replaced: node z_i runs its own
    Crank--Nicolson `evolve` of (M, f(z_i) K_g) from `ops.project(u0(z_i))`,
    on the shared operators of the space."""
    from sgpde.harness import CollocationReference

    nodes, weights = tensor_quad(dist, q_ref)
    values = np.empty((len(nodes), ops.space.ndof))
    for i, z in enumerate(nodes):
        start = ops.project(u0.sample(z))
        values[i] = evolve(
            crank_nicolson(), t_final, n_steps, ops.mass, ops.field.factor_at(z[None])[0] * ops.k_g,
            start,
        )
    return CollocationReference(nodes, weights, ops, values)


# --- the loops that the array numbering of meshes and spaces replaced ------


def loop_mesh(dim: int, m: int) -> Mesh:
    """The uniform mesh, its 2D vertices and cells numbered in Python loops."""
    if dim == 1:
        verts = (np.arange(m + 1, dtype=float) / m)[:, None]
        cells = np.column_stack([np.arange(m), np.arange(1, m + 1)])
        return Mesh(1, m, verts, cells)
    idx = lambda i, j: i * (m + 1) + j
    verts = np.array(
        [[i / m, j / m] for i in range(m + 1) for j in range(m + 1)], dtype=float
    )
    cells = []
    for i in range(m):
        for j in range(m):
            v00, v10 = idx(i, j), idx(i + 1, j)
            v01, v11 = idx(i, j + 1), idx(i + 1, j + 1)
            cells.append((v00, v10, v11))
            cells.append((v00, v11, v01))
    return Mesh(2, m, verts, np.array(cells))


def loop_fe_space(mesh: Mesh, order: int) -> FeSpace:
    """The P1 or P2 space on the mesh; 2D P2 numbers each edge midpoint in a
    dict loop over the cells, in order of the edge's first appearance."""
    m = mesh.m
    if mesh.dim == 1:
        if order == 1:
            nodes = mesh.vertices.copy()
            cell_nodes = mesh.cells.copy()
            boundary = np.zeros(len(nodes), dtype=bool)
            boundary[[0, m]] = True
        else:
            nodes = (np.arange(2 * m + 1, dtype=float) / (2 * m))[:, None]
            cell_nodes = np.column_stack(
                [2 * np.arange(m), 2 * np.arange(m) + 1, 2 * np.arange(m) + 2]
            )
            boundary = np.zeros(len(nodes), dtype=bool)
            boundary[[0, 2 * m]] = True
    else:
        nv = (m + 1) ** 2
        grid_ij = np.array([(i, j) for i in range(m + 1) for j in range(m + 1)])
        vert_boundary = (
            (grid_ij[:, 0] == 0) | (grid_ij[:, 0] == m)
            | (grid_ij[:, 1] == 0) | (grid_ij[:, 1] == m)
        )
        if order == 1:
            nodes = mesh.vertices.copy()
            cell_nodes = mesh.cells.copy()
            boundary = vert_boundary
        else:
            edges: dict[tuple[int, int], int] = {}
            cell_nodes_list = []
            mid_coords = []
            mid_boundary = []

            def edge_node(a: int, b: int) -> int:
                key = (a, b) if a < b else (b, a)
                if key not in edges:
                    edges[key] = len(mid_coords)
                    mid_coords.append(0.5 * (mesh.vertices[a] + mesh.vertices[b]))
                    ia, ja = grid_ij[a]
                    ib, jb = grid_ij[b]
                    on_bnd = (ia == ib and ia in (0, m)) or (ja == jb and ja in (0, m))
                    mid_boundary.append(on_bnd)
                return nv + edges[key]

            for tri in mesh.cells:
                a, b, c = (int(v) for v in tri)
                cell_nodes_list.append(
                    (a, b, c, edge_node(a, b), edge_node(b, c), edge_node(c, a))
                )
            nodes = np.vstack([mesh.vertices, np.array(mid_coords)])
            cell_nodes = np.array(cell_nodes_list)
            boundary = np.concatenate([vert_boundary, np.array(mid_boundary)])
    dof_of_node = np.full(len(nodes), -1, dtype=int)
    interior = ~boundary
    dof_of_node[interior] = np.arange(int(interior.sum()))
    return FeSpace(mesh, order, nodes, cell_nodes, dof_of_node, int(interior.sum()))


# --- the per-cell spatial kernels that the array assembly replaced ---------
# Each loops over the cells and builds that cell's affine map on its own,
# calls each spatial function on one point at a time and checks each
# coefficient sample on its own; the reference shapes and quadrature rules
# are shared with the library.


def _coeff_at(coeff, x, dim: int) -> np.ndarray:
    """One coefficient sample, from a call on the one point x, shape- and
    symmetry-checked on its own."""
    if callable(coeff):
        val = row_value(coeff(np.reshape(x, (1, dim))))
    else:
        val = coeff
    if dim == 1:
        return np.asarray(val, dtype=float)
    val = np.asarray(val, dtype=float)
    if val.shape == ():
        return val * np.eye(2)
    if val.shape != (2, 2):
        raise ValueError(f"2D coefficient must be scalar or 2x2, got shape {val.shape}")
    if np.max(np.abs(val - val.T)) > 1e-12 * max(1.0, np.max(np.abs(val))):
        raise ValueError(f"non-Hermitian coefficient sample at x = {x}: {val}")
    return val


def _cellwise_scatter(space, element_matrices) -> sp.csr_matrix:
    rows, cols, vals = [], [], []
    for cell, ke in zip(space.cell_nodes, element_matrices):
        dofs = space.dof_of_node[cell]
        keep = dofs >= 0
        d = dofs[keep]
        rows.append(np.repeat(d, len(d)))
        cols.append(np.tile(d, len(d)))
        vals.append(ke[np.ix_(keep, keep)].reshape(-1))
    a = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(space.ndof, space.ndof),
    ).tocsr()
    return (a + a.T) * 0.5


def _triangle(space, cell):
    p = space.mesh.vertices[cell]
    jac = np.column_stack([p[1] - p[0], p[2] - p[0]])
    return p[0], jac, abs(np.linalg.det(jac))


def _full_node_values(space, u) -> np.ndarray:
    full = np.zeros(len(space.nodes))
    sel = space.dof_of_node >= 0
    full[sel] = u[space.dof_of_node[sel]]
    return full


def cellwise_mass(space) -> sp.csr_matrix:
    if space.dim == 1:
        t, w = _gauss_01(space.order + 1)
        vals, _ = _shapes_1d(space.order, t)
        ke = (1.0 / space.mesh.m) * np.einsum("q,iq,jq->ij", w, vals, vals)
        return _cellwise_scatter(space, [ke] * len(space.cell_nodes))
    vals, _ = _shapes_tri(space.order, _TRI_PTS)
    mats = []
    for cell in space.mesh.cells:
        _, _, det = _triangle(space, cell)
        mats.append(det * np.einsum("q,iq,jq->ij", _TRI_WTS, vals, vals))
    return _cellwise_scatter(space, mats)


def cellwise_stiffness(space, coeff) -> sp.csr_matrix:
    mats = []
    if space.dim == 1:
        t, w = _gauss_01(max(space.order + 1, 3))
        _, ders = _shapes_1d(space.order, t)
        h = 1.0 / space.mesh.m
        for cell in space.cell_nodes:
            xq = space.nodes[cell[0], 0] + h * t
            c = np.array([_coeff_at(coeff, x, 1) for x in xq])
            mats.append(np.einsum("q,q,iq,jq->ij", w, c, ders, ders) / h)
        return _cellwise_scatter(space, mats)
    _, grads_ref = _shapes_tri(space.order, _TRI_PTS)
    for cell in space.mesh.cells:
        x0, jac, det = _triangle(space, cell)
        grads = np.einsum("ab,iqb->iqa", np.linalg.inv(jac).T, grads_ref)
        cmats = np.array([_coeff_at(coeff, x, 2) for x in x0 + _TRI_PTS @ jac.T])
        mats.append(det * np.einsum("q,qab,iqa,jqb->ij", _TRI_WTS, cmats, grads, grads))
    return _cellwise_scatter(space, mats)


def _cellwise_samples(space):
    """(physical quadrature points, cell node ids, weights * |det|) per cell,
    with the 6-point Gauss rule in 1D and the 7-point rule in 2D."""
    if space.dim == 1:
        t, w = _gauss_01(6)
        h = 1.0 / space.mesh.m
        for cell in space.cell_nodes:
            yield [float(space.nodes[cell[0], 0] + h * ti) for ti in t], cell, h * w
    else:
        for cell, cn in zip(space.mesh.cells, space.cell_nodes):
            x0, jac, det = _triangle(space, cell)
            yield list(x0 + _TRI_PTS @ jac.T), cn, det * _TRI_WTS


def _reference_values(space):
    if space.dim == 1:
        return _shapes_1d(space.order, _gauss_01(6)[0])[0]
    return _shapes_tri(space.order, _TRI_PTS)[0]


def cellwise_load(space, f) -> np.ndarray:
    b = np.zeros(space.ndof)
    vals = _reference_values(space)
    for xq, cell, wq in _cellwise_samples(space):
        fq = np.array([row_value(f(np.reshape(x, (1, -1)))) for x in xq])
        be = np.einsum("q,q,iq->i", wq, fq, vals)
        dofs = space.dof_of_node[cell]
        np.add.at(b, dofs[dofs >= 0], be[dofs >= 0])
    return b


def cellwise_l2_error(space, u, exact) -> float:
    full = _full_node_values(space, u)
    vals = _reference_values(space)
    total = 0.0
    for xq, cell, wq in _cellwise_samples(space):
        diff = full[cell] @ vals - np.array([row_value(exact(np.reshape(x, (1, -1)))) for x in xq])
        total += float(np.dot(wq, diff**2))
    return math.sqrt(total)


def pointwise_fe_eval(space, u, points) -> np.ndarray:
    """FE function at each point: locate its cell, invert that cell's map."""
    full = _full_node_values(space, u)
    m = space.mesh.m
    if space.dim == 1:
        x = np.atleast_1d(np.asarray(points, dtype=float))
        cell = np.clip((x * m).astype(int), 0, m - 1)
        vals, _ = _shapes_1d(space.order, x * m - cell)
        return np.einsum("pi,ip->p", full[space.cell_nodes[cell]], vals)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.zeros(len(pts))
    for k, (x, y) in enumerate(pts):
        i, j = min(int(x * m), m - 1), min(int(y * m), m - 1)
        # cells appear in pairs per square: lower (x-fraction >= y-fraction) first
        cell_id = 2 * (i * m + j) + (0 if x * m - i >= y * m - j else 1)
        x0, jac, _ = _triangle(space, space.mesh.cells[cell_id])
        vals, _ = _shapes_tri(space.order, np.linalg.solve(jac, np.array([x, y]) - x0)[None, :])
        out[k] = float(np.dot(full[space.cell_nodes[cell_id]], vals[:, 0]))
    return out


def per_node_analytic_error(dist, state, space, field, u0, t_final: float, q: int) -> float:
    """Natural-norm error against the exact solution, one z-node at a time:
    sqrt(sum_i w_i |u(z_i) - exact(z_i)|_L2^2), each spatial error from a
    single-state `sampled_l2_error` call that samples `analytic_solution` at z_i."""
    nodes, weights = tensor_quad(dist, q)
    recon = reconstruct_at_nodes(dist, state, nodes)
    total = 0.0
    for i, z in enumerate(nodes):
        err = sampled_l2_error(space, recon[i], analytic_solution(field, u0, z, t_final))
        total += float(weights[i]) * err * err
    return math.sqrt(total)


def per_point_solve(cache, n: int, m: int, n_k: int):
    """One sweep point stepped on its own, the solve that batched
    `harness.solve_points` replaced: the point's system-basis operator and
    rotated initial modes through one `evolve`, rotated back to the chaos
    basis. The cache provides the operator; no final state is stored."""
    op, state0 = cache.operator(n, m)
    w0 = op.to_system(state0.coeffs)
    scheme = scheme_by_name(cache.cfg.scheme)
    w = evolve(scheme, cache.cfg.t_final, n_k, *system_matrices(op), w0.reshape(-1))
    return SgState(op.to_chaos(w.reshape(w0.shape)), state0.mis)


# --- spatial tools that only the tests use ----------------------------------

def l2_project(space: FeSpace, f) -> np.ndarray:
    """L2-orthogonal projection onto the space: solves M u = (f, phi), with f
    evaluated one point at a time."""
    return checked_solve(assemble_mass(space), load_vector(space, per_row(f)), 1e-10)


def stationary_solve(space: FeSpace, coeff, rhs) -> np.ndarray:
    """Galerkin solution of the stationary diffusion problem K u = (rhs, phi)."""
    k = assemble_stiffness(space, coeff)
    b = load_vector(space, rhs)
    return checked_solve(k, b, 1e-10)


def fe_eval(space: FeSpace, u: np.ndarray, points) -> np.ndarray:
    """Evaluate the FE function (zero on the boundary) at arbitrary points."""
    return _eval_matrix(space, points) @ u


def sampled_l2_error(space: FeSpace, u: np.ndarray, exact: Callable) -> float:
    """L2 distance between one state u and a spatial function `exact`,
    sampled one point at a time at the points of the error rule
    (`per_row`) and integrated by the library's stacked `l2_error`."""
    return float(l2_error(space, np.asarray(u)[None], lambda pts: per_row(exact)(pts)[None])[0])


# --- slow paths of the one-pass forms: error rule, projection, 2-norm check ---

def error_points(space: FeSpace) -> np.ndarray:
    """The points of the library's error rule, (n_points, dim), in the order
    in which `l2_error` passes them to its exact function."""
    return _element_rule(space, _ERROR_Q1D)[1].reshape(-1, space.dim)


def two_pass_l2_error(space: FeSpace, u: np.ndarray, exact_values: np.ndarray) -> np.ndarray:
    """The stacked L2 error that `spatial.l2_error` replaced: the exact
    values (k, n_points) given as an array at `error_points`, with the error
    rule built a second time."""
    dw, _, vals, _ = _element_rule(space, _ERROR_Q1D)
    full = np.zeros((len(u), len(space.nodes)))
    full[:, space.dof_of_node >= 0] = u
    diff = full[:, space.cell_nodes] @ vals - np.reshape(exact_values, (len(u),) + dw.shape)
    return np.sqrt((diff * diff).reshape(len(u), -1) @ dw.ravel())


def two_pass_analytic_distance(ref, space: FeSpace, recon: np.ndarray) -> float:
    """`AnalyticReference.distance` as it was: the error points first, then
    `two_pass_l2_error` on the exact values there."""
    x = np.ravel(error_points(space))
    errors = two_pass_l2_error(space, recon, ref.amplitudes @ np.sin(np.outer(ref.frequencies, x)))
    return math.sqrt(float(ref.weights @ (errors * errors)))


def per_node_pce_project(dist, mis: MultiIndexSet, f: Callable, q: int) -> np.ndarray:
    """The chaos projection of a callable that `pce.pce_project` replaced
    when it came to take samples: f called at one Gauss node at a time, its
    values (a scalar or a fixed-size array) stacked, and the Gauss sum
    f_alpha = sum_i w_i f(z_i) Phi_alpha(z_i) taken over them."""
    nodes, weights = tensor_quad(dist, q)
    samples = []
    for i, z in enumerate(nodes):
        val = np.asarray(f(z), dtype=float)
        if samples and val.shape != samples[0].shape:
            raise ValueError(f"payload shape {val.shape} != {samples[0].shape} at node {i}")
        samples.append(val)
    samples = np.stack(samples)
    phi = tensor_basis_matrix(dist, mis, nodes)
    modes = (phi * weights[:, None]).T @ samples.reshape(len(weights), -1)
    return modes[:, 0] if samples.ndim == 1 else modes


def norm2(a: np.ndarray) -> float:
    """The 2-norm of a dense matrix, sqrt(lambda_max(A^T A)), every
    eigenvalue taken by LAPACK's divide-and-conquer `syevd`."""
    return math.sqrt(max(scipy.linalg.eigvalsh(a.T @ a, driver="evd")[-1], 0.0))


def norm2_check_passes(a: np.ndarray, b, mu: np.ndarray, y: np.ndarray, tol: float) -> bool:
    """The eigendecomposition check that the library's O(n^2) one replaced:
    A Y = B Y diag(mu), Y^T B Y = I (B = I when None) passes when
    ||Y^T B Y - I|| <= tol and ||A Y - B Y diag(mu)|| <= tol ||A|| ||Y||,
    all 2-norms."""
    by = y if b is None else b @ y
    orth = norm2(y.T @ by - np.eye(len(a)))
    res = norm2(a @ y - by * mu)
    return orth <= tol and res <= tol * norm2(a) * norm2(y)


# --- a field that no config can name, and the ellipticity bounds ----------

def affine_field(slope: float = 0.5, dim: int = 1) -> CoefficientField:
    """The field (1 + slope z_1) g, with g = 1 in 1D and the identity in 2D:
    a probe for operator assembly. It is unbounded in z, so not elliptic,
    and declares no bounds."""
    return CoefficientField(
        dim=dim,
        z_factor=lambda z: 1.0 + slope * z[:, 0],
        spatial_part=(lambda x: 1.0) if dim == 1 else (lambda x: np.eye(2)),
        name=f"affine({slope})",
    )


# The ellipticity bounds (kappa, K) of each built-in coefficient of
# `coeffs.COEFFICIENT_BUILTINS`: at every z and x each eigenvalue of
# f(z) g(x) lies in [kappa, K], with kappa = inf f inf g and K = sup f sup g.
# A `constant` field has its value for both.
BUILTIN_BOUNDS = {
    "logistic_1d": (1.0, 2.0),  # f in (1, 2), g = 1
    "logistic_anisotropic": (1.0, 6.0),  # f in (1, 2), g's eigenvalues in [1, 3]
}


def declared_bounds(name: str, **params) -> tuple[float, float]:
    """(kappa, K) of the field that `coefficient_by_name(name, **params)` builds."""
    if name == "constant":
        value = float(params.get("value", 1.0))
        return value, value
    return BUILTIN_BOUNDS[name]


@dataclass(frozen=True)
class BoundsReport:
    checked: int
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def eval_bounds_check(
    field_: CoefficientField, bounds: tuple[float, float], z_samples: Sequence,
    x_samples: Sequence, tol: float = 1e-10,
) -> BoundsReport:
    """Check the ellipticity bounds (kappa, K) of a field on a sample grid;
    report-only."""
    kappa, bound = bounds
    violations = []
    checked = 0
    for z in z_samples:
        for x in x_samples:
            val = np.asarray(evaluate(field_, z, x), dtype=float)
            eigs = (
                np.array([float(val)])
                if val.shape == ()
                else np.linalg.eigvalsh(val)
            )
            checked += 1
            lo, hi = float(eigs.min()), float(eigs.max())
            if lo < kappa - tol:
                violations.append((np.asarray(z).tolist(), np.asarray(x).tolist(), lo, "below kappa"))
            if hi > bound + tol:
                violations.append((np.asarray(z).tolist(), np.asarray(x).tolist(), hi, "above bound"))
    return BoundsReport(checked, violations)
