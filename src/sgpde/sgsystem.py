"""Deterministic block system of the chaos-Galerkin discretization.

The random diffusion form is expanded in the orthonormal chaos basis; its
coefficient stiffness matrices A_alpha, weighted by the triple-product
tensor, form the symmetric block operator sum_alpha E_alpha (x) A_alpha on
the stacked mode coefficients, E_alpha[beta, gamma] = eps[alpha, beta, gamma].
The block index runs over the total-degree set of order n while the chaos
expansion of the coefficient is truncated at total degree 2n.

A separable coefficient f(z) g(x) has A_alpha = c_alpha K_g, so the operator
is G (x) K_g with the d_n x d_n chaos matrix G = sum_alpha c_alpha E_alpha.
Diagonalizing G = V diag(lam) V^T decouples the system: the rotated modes
w = (V^T (x) I) u evolve under the block-diagonal diag(lam) (x) K_g.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Mapping
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .coeffs import CoefficientField, InitialDatum
from .pce import (
    DistributionSpec,
    MultiIndexSet,
    TripleProductTensor,
    multi_index_set,
    tensor_basis_matrix,
    tensor_quad,
)
from .spatial import (
    FeSpace,
    SolverError,
    assemble_mass,
    assemble_stiffness,
    export_coo,
    load_vector,
)

__all__ = [
    "SgOperator",
    "SgState",
    "SeparableFactors",
    "SeparableStiffness",
    "pce_coefficient_matrices",
    "aliasing_probe",
    "assemble_block_operator",
    "initial_coefficients",
    "brute_force_rnarn",
    "block_gram",
    "reconstruct_at_nodes",
    "min_generalized_eigenvalue",
    "BRUTE_FORCE_SIZE_LIMIT",
]

BRUTE_FORCE_SIZE_LIMIT = 2000
DENSE_EIG_SIZE_LIMIT = 3000
EIGH_TOL = 1e-12


@dataclass(frozen=True)
class SeparableFactors:
    """The factors of G (x) K_g, with G = V diag(lam) V^T checked."""

    chaos: np.ndarray  # G, (d_n, d_n), symmetric
    eigvals: np.ndarray  # lam, ascending
    eigvecs: np.ndarray  # V, orthonormal columns
    spatial: sp.csr_matrix  # K_g


@dataclass(frozen=True)
class SgOperator:
    """Block operator of the chaos-Galerkin system with its block mass I_{d_n} (x) M.

    Time stepping runs on (mass, stiffness) in the system basis. For a
    separable field (`factors` set) that basis is the rotated modes
    w = (V^T (x) I) u and `stiffness` is the block-diagonal diag(lam) (x) K_g;
    otherwise it is the chaos basis and `stiffness` is the coupled operator.
    `matrix` is always the operator in the chaos basis; for a separable field
    it is built only when first read.
    """

    n: int
    mis: MultiIndexSet
    space: FeSpace
    mass: sp.csr_matrix
    stiffness: sp.csr_matrix
    factors: SeparableFactors | None

    @property
    def block_dim(self) -> int:
        return len(self.mis)

    @property
    def size(self) -> int:
        return self.mass.shape[0]

    @functools.cached_property
    def matrix(self) -> sp.csr_matrix:
        """The operator in the chaos basis, (d_n * ndof)^2, symmetric."""
        if self.factors is None:
            return self.stiffness
        return sp.kron(self.factors.chaos, self.factors.spatial, format="csr")

    def to_system(self, coeffs: np.ndarray) -> np.ndarray:
        """Chaos-basis mode coefficients (d_n, ndof) in the system basis: V^T U."""
        return coeffs if self.factors is None else self.factors.eigvecs.T @ coeffs

    def to_chaos(self, coeffs: np.ndarray) -> np.ndarray:
        """System-basis coefficients (d_n, ndof) back in the chaos basis: V W."""
        return coeffs if self.factors is None else self.factors.eigvecs @ coeffs

    def symmetry_defect(self) -> float:
        """Largest |A - A^T| entry of the chaos-basis operator A. For G (x) K_g it
        is the bound max|G - G^T| max|K_g| + max|G| max|K_g - K_g^T|, which is
        zero exactly when both factors are symmetric."""
        if self.factors is None:
            return _max_abs(self.stiffness - self.stiffness.T)
        g, k = self.factors.chaos, self.factors.spatial
        return _max_abs(g - g.T) * _max_abs(k) + _max_abs(g) * _max_abs(k - k.T)

    def min_resolvent_eigenvalue(self) -> float:
        """Smallest eigenvalue of the pencil (A, I (x) M); for G (x) K_g the
        smallest product lam_i mu_j with the eigenvalues mu of (K_g, M)."""
        if self.factors is None:
            return min_generalized_eigenvalue(self.stiffness, self.mass)
        spatial_mass = self.mass[: self.space.ndof, : self.space.ndof]
        mu = _generalized_eigenvalues(self.factors.spatial, spatial_mass)
        return float(np.outer(self.factors.eigvals, mu).min())

    def export_text(self) -> str:
        """Coordinate export of the block matrix, block offsets annotated."""
        ndof = self.space.ndof
        header = [f"# block_dim {self.block_dim} ndof {ndof}"]
        header += [
            f"# block {','.join(str(i) for i in beta)} offset {b * ndof}"
            for b, beta in enumerate(self.mis)
        ]
        return "\n".join(header) + "\n" + export_coo(self.matrix)


@dataclass(frozen=True)
class SgState:
    """Mode coefficients of the chaos-Galerkin solution at one time."""

    time: float
    coeffs: np.ndarray  # (d_n, ndof)
    mis: MultiIndexSet

    def flat(self) -> np.ndarray:
        return self.coeffs.reshape(-1)


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


def _max_abs(a) -> float:
    """Largest |entry| of a dense or sparse matrix; 0 when it stores none."""
    return float(abs(a).max()) if a.size else 0.0


def _node_stiffness(space: FeSpace, field: CoefficientField) -> Callable:
    """The stiffness matrix K(z) at a parameter node z, as a function of z.

    A separable field f(z) g(x) assembles K_g once and gives f(z) K_g;
    any other field is assembled at each node.
    """
    if field.separable:
        k_g = assemble_stiffness(space, field.spatial_part)
        return lambda z: field.z_factor(z) * k_g
    return lambda z: assemble_stiffness(space, lambda x: field.evaluate(z, x))


def pce_coefficient_matrices(
    dist: DistributionSpec,
    n: int,
    space: FeSpace,
    field: CoefficientField,
    q: int,
) -> dict[tuple, sp.csr_matrix]:
    """Chaos coefficient stiffness matrices A_alpha for |alpha| <= 2n.

    A_alpha = sum_i w_i Phi_alpha(z_i) K(z_i) over a q-node tensor Gauss
    grid. A separable field f(z) g(x) assembles K_g once and returns a
    `SeparableStiffness` holding the chaos coefficients c_alpha of f and K_g.
    """
    if q < 2 * n + 1:
        raise ValueError(f"q = {q} must be at least 2n + 1 = {2 * n + 1}")
    if field.dim != space.dim:
        raise ValueError("field and space dimensions differ")
    mis2 = multi_index_set(dist.N, 2 * n)
    nodes, weights = tensor_quad(dist, q)
    phi2 = tensor_basis_matrix(dist, mis2, nodes)
    if field.separable:
        k_g = assemble_stiffness(space, field.spatial_part)
        factors = np.array([field.z_factor(z) for z in nodes])
        coeffs = phi2.T @ (weights * factors)
        return SeparableStiffness(dict(zip(mis2, coeffs)), k_g)
    stiffness_at = _node_stiffness(space, field)
    mats: dict[tuple, sp.csr_matrix] = {}
    for i, z in enumerate(nodes):
        k_z = stiffness_at(z)
        for a, alpha in enumerate(mis2):
            scaled = (weights[i] * phi2[i, a]) * k_z
            mats[alpha] = scaled if alpha not in mats else mats[alpha] + scaled
    return mats


def aliasing_probe(
    dist: DistributionSpec, n: int, space: FeSpace, field: CoefficientField, q: int
) -> float:
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


def _chaos_matrices(eps: TripleProductTensor, mis: MultiIndexSet) -> np.ndarray:
    """E[a, b, g] = eps[alpha_a, beta_b, gamma_g], one d_n x d_n matrix per |alpha| <= 2n."""
    e = np.zeros((len(eps.mis2), len(mis), len(mis)))
    for (alpha, beta, gamma), val in eps.entries.items():
        e[eps.mis2.position(alpha), mis.position(beta), mis.position(gamma)] = val
    return e


def _checked_eigh(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """G = V diag(lam) V^T. Raises SolverError when V is not orthonormal to
    1e-12 or the residual ||G V - V diag(lam)|| exceeds 1e-12 ||G|| (2-norms),
    which also catches a G that is not symmetric."""
    lam, vecs = scipy.linalg.eigh(g)
    orth = np.linalg.norm(vecs.T @ vecs - np.eye(len(g)), 2)
    res = np.linalg.norm(g @ vecs - vecs * lam, 2)
    if orth > EIGH_TOL or res > EIGH_TOL * np.linalg.norm(g, 2):
        raise SolverError(
            f"chaos matrix eigendecomposition failed its check: "
            f"orthogonality defect {orth:.3e}, residual {res:.3e}"
        )
    return lam, vecs


def assemble_block_operator(
    coeff_mats: Mapping,
    eps: TripleProductTensor,
    mis: MultiIndexSet,
    space: FeSpace,
) -> SgOperator:
    """Symmetric block operator sum_alpha E_alpha (x) A_alpha over |alpha| <= 2n.

    `coeff_mats` maps alpha to A_alpha. A `SeparableStiffness` gives the
    decoupled operator: G = sum_alpha c_alpha E_alpha is diagonalized and
    time stepping runs on diag(lam) (x) K_g; any other mapping gives the
    coupled operator.
    """
    for alpha in eps.mis2:
        if alpha not in coeff_mats:
            raise ValueError(f"missing coefficient matrix for alpha = {alpha}")
    chaos = _chaos_matrices(eps, mis)
    mass = sp.kron(sp.eye(len(mis)), assemble_mass(space), format="csr")
    if isinstance(coeff_mats, SeparableStiffness):
        g = np.zeros(chaos.shape[1:])
        for alpha, e_alpha in zip(eps.mis2, chaos):  # elementwise: G stays exactly symmetric
            g += coeff_mats.coeffs[alpha] * e_alpha
        lam, vecs = _checked_eigh(g)
        k_g = coeff_mats.spatial
        stiffness = sp.kron(sp.diags(lam), k_g, format="csr")
        factors = SeparableFactors(g, lam, vecs, k_g)
        return SgOperator(eps.n, mis, space, mass, stiffness, factors)
    matrix = sp.csr_matrix(mass.shape)
    for alpha, e_alpha in zip(eps.mis2, chaos):
        matrix = matrix + sp.kron(sp.csr_matrix(e_alpha), coeff_mats[alpha], format="csr")
    return SgOperator(eps.n, mis, space, mass, matrix, None)


def block_gram(op: SgOperator, gram: sp.spmatrix) -> sp.csr_matrix:
    """Lift a spatial Gram matrix to the block space: I_{d_n} (x) G."""
    return sp.kron(sp.eye(op.block_dim), gram, format="csr")


def initial_coefficients(
    dist: DistributionSpec,
    mis: MultiIndexSet,
    u0: InitialDatum,
    space: FeSpace,
    q: int,
) -> SgState:
    """Chaos modes of the initial datum, each L2-projected onto the space."""
    if q < mis.n + 1:
        raise ValueError(f"q = {q} must be at least n + 1 = {mis.n + 1}")
    nodes, weights = tensor_quad(dist, q)
    phi = tensor_basis_matrix(dist, mis, nodes)
    samples = [u0.sample(z) for z in nodes]
    loads: dict = {}  # one load vector per distinct spatial function
    for f in samples:
        if f not in loads:
            loads[f] = load_vector(space, f)
    mode_loads = (phi * weights[:, None]).T @ np.stack([loads[f] for f in samples])
    mass = assemble_mass(space).tocsc()
    lu = sp.linalg.splu(mass)
    coeffs = np.stack([lu.solve(mode_loads[a]) for a in range(len(mis))])
    return SgState(0.0, coeffs, mis)


def brute_force_rnarn(
    dist: DistributionSpec,
    n: int,
    space: FeSpace,
    field: CoefficientField,
    q: int,
) -> np.ndarray:
    """Oracle: chaos-basis restriction of the projected collocation operator.

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
    stiffness_at = _node_stiffness(space, field)
    k_blocks = [weights[i] * stiffness_at(z).toarray() for i, z in enumerate(nodes)]
    weak = scipy.linalg.block_diag(*k_blocks)
    sandwich = proj_big @ modes_to_nodes
    return sandwich.T @ weak @ sandwich


def reconstruct_at_nodes(
    dist: DistributionSpec, state: SgState, nodes: np.ndarray
) -> np.ndarray:
    """Evaluate sum_beta Phi_beta(z_i) u_beta; rows follow the given nodes."""
    basis = tensor_basis_matrix(dist, state.mis, nodes)
    return basis @ state.coeffs


def min_generalized_eigenvalue(a: sp.spmatrix, b: sp.spmatrix) -> float:
    """Smallest eigenvalue of the pencil (A, B), dense at desk scale."""
    return float(_generalized_eigenvalues(a, b)[0])


def _generalized_eigenvalues(a: sp.spmatrix, b: sp.spmatrix) -> np.ndarray:
    """Ascending eigenvalues of the pencil (A, B), dense at desk scale."""
    if a.shape[0] > DENSE_EIG_SIZE_LIMIT:
        raise ValueError(f"pencil size {a.shape[0]} too large for dense solve")
    return scipy.linalg.eigh(a.toarray(), b.toarray(), eigvals_only=True)
