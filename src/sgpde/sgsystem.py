"""Coupled deterministic block system of the chaos-Galerkin discretization.

The random diffusion form is expanded in the orthonormal chaos basis; its
coefficient stiffness matrices, weighted by the triple-product tensor,
form a symmetric block operator acting on the stacked mode coefficients.
The block index runs over the total-degree set of order n while the chaos
expansion of the coefficient is truncated at total degree 2n.
"""

from __future__ import annotations

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
from .spatial import FeSpace, assemble_mass, assemble_stiffness, export_coo, load_vector

__all__ = [
    "SgOperator",
    "SgState",
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


@dataclass(frozen=True)
class SgOperator:
    """Assembled block operator with its block mass I_{d_n} (x) M."""

    n: int
    mis: MultiIndexSet
    space: FeSpace
    matrix: sp.csr_matrix  # (d_n * ndof)^2, symmetric
    mass: sp.csr_matrix

    @property
    def block_dim(self) -> int:
        return len(self.mis)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

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

    @staticmethod
    def from_flat(time: float, vec: np.ndarray, mis: MultiIndexSet) -> "SgState":
        return SgState(time, vec.reshape(len(mis), -1), mis)


def _stiffness_for(space: FeSpace, field: CoefficientField, z: np.ndarray) -> sp.csr_matrix:
    return assemble_stiffness(space, lambda x: field.evaluate(z, x))


def pce_coefficient_matrices(
    dist: DistributionSpec,
    n: int,
    space: FeSpace,
    field: CoefficientField,
    q: int,
) -> dict[tuple, sp.csr_matrix]:
    """Chaos coefficient stiffness matrices A_alpha for |alpha| <= 2n.

    A_alpha = sum_i w_i Phi_alpha(z_i) K(z_i) over a q-node tensor Gauss
    grid; separable fields reuse a single spatial assembly.
    """
    if q < 2 * n + 1:
        raise ValueError(f"q = {q} must be at least 2n + 1 = {2 * n + 1}")
    if field.dim != space.dim:
        raise ValueError("field and space dimensions differ")
    mis2 = multi_index_set(dist.N, 2 * n)
    nodes, weights = tensor_quad(dist, q)
    phi2 = tensor_basis_matrix(dist, mis2, nodes)
    if field.z_factor is not None and field.spatial_part is not None:
        k_g = assemble_stiffness(space, field.spatial_part)
        factors = np.array([field.z_factor(z) for z in nodes])
        coeffs = phi2.T @ (weights * factors)
        return {alpha: coeffs[a] * k_g for a, alpha in enumerate(mis2)}
    mats: dict[tuple, sp.csr_matrix] = {}
    for i, z in enumerate(nodes):
        k_z = _stiffness_for(space, field, z)
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


def assemble_block_operator(
    coeff_mats: dict[tuple, sp.csr_matrix],
    eps: TripleProductTensor,
    mis: MultiIndexSet,
    space: FeSpace,
) -> SgOperator:
    """Symmetric block operator with blocks sum_alpha eps[a,b,c] A_alpha over |alpha| <= 2n."""
    for alpha in eps.mis2:
        if alpha not in coeff_mats:
            raise ValueError(f"missing coefficient matrix for alpha = {alpha}")
    d = len(mis)
    blocks = [[None] * d for _ in range(d)]
    for bi, beta in enumerate(mis):
        for gi, gamma in enumerate(mis):
            acc = None
            for alpha in eps.mis2:  # fixed graded-lex order: reproducible sums
                val = eps.get(alpha, beta, gamma)
                if val:
                    term = val * coeff_mats[alpha]
                    acc = term if acc is None else acc + term
            blocks[bi][gi] = acc
    matrix = sp.bmat(blocks, format="csr")
    mass = sp.kron(sp.eye(d), assemble_mass(space), format="csr")
    return SgOperator(eps.n, mis, space, matrix, mass)


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
    loads = np.stack([load_vector(space, u0.sample(z)) for z in nodes])
    mode_loads = (phi * weights[:, None]).T @ loads
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
    k_blocks = [
        weights[i] * _stiffness_for(space, field, z).toarray() for i, z in enumerate(nodes)
    ]
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
    if a.shape[0] > DENSE_EIG_SIZE_LIMIT:
        raise ValueError(f"pencil size {a.shape[0]} too large for dense solve")
    vals = scipy.linalg.eigh(
        np.asarray(a.todense()), np.asarray(b.todense()), eigvals_only=True
    )
    return float(vals[0])
