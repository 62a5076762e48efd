"""Deterministic block system of the chaos-Galerkin discretization.

The random diffusion form a(z; u, v) is discretized in the orthonormal chaos
basis Phi_beta, |beta| <= n. On a q-node tensor Gauss grid (z_i, w_i) with
phi_i = (Phi_beta(z_i))_beta the Galerkin operator E[a(z) Phi_beta Phi_gamma]
is the node sum

    A = sum_i w_i (phi_i phi_i^T) (x) K(z_i),

the factorization of Constantine, Gleich & Iaccarino (SIAM J. Sci. Comput.
33(5), 2011). It equals the triple-product form sum_alpha E_alpha (x) A_alpha
over the degree-2n chaos coefficients A_alpha of K(z), because every product
Phi_beta Phi_gamma lies in that degree-2n span.

A separable coefficient f(z) g(x) gives A = G (x) K_g with the d_n x d_n chaos
matrix G = Phi^T diag(w_i f(z_i)) Phi. Diagonalizing G = V diag(lam) V^T
decouples the system: the rotated modes w = (V^T (x) I) u evolve under the
block-diagonal diag(lam) (x) K_g.
"""

from __future__ import annotations

import functools
import logging
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .coeffs import CoefficientField, InitialDatum
from .pce import DistributionSpec, MultiIndexSet, tensor_basis_matrix, tensor_quad
from .spatial import FeSpace, SolverError, assemble_mass, assemble_stiffness, load_vector

__all__ = [
    "SgOperator",
    "SgState",
    "SeparableFactors",
    "assemble_block_operator",
    "initial_coefficients",
    "reconstruct_at_nodes",
    "min_generalized_eigenvalue",
]

log = logging.getLogger(__name__)

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


@dataclass(frozen=True)
class SgState:
    """Mode coefficients of the chaos-Galerkin solution at one time."""

    time: float
    coeffs: np.ndarray  # (d_n, ndof)
    mis: MultiIndexSet

    def flat(self) -> np.ndarray:
        return self.coeffs.reshape(-1)


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


def _checked_eigh(g: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, float]:
    """G = V diag(lam) V^T with its orthogonality defect ||V^T V - I|| and
    relative residual ||G V - V diag(lam)|| / ||G|| (2-norms). Raises
    SolverError when G is not finite or either exceeds 1e-12, which also
    catches a G that is not symmetric."""
    if not np.isfinite(g).all():
        raise SolverError("chaos matrix holds non-finite entries")
    lam, vecs = scipy.linalg.eigh(g)
    orth = float(np.linalg.norm(vecs.T @ vecs - np.eye(len(g)), 2))
    res = float(np.linalg.norm(g @ vecs - vecs * lam, 2))
    scale = float(np.linalg.norm(g, 2))
    if not (orth <= EIGH_TOL and res <= EIGH_TOL * scale):
        raise SolverError(
            f"chaos matrix eigendecomposition failed its check: "
            f"orthogonality defect {orth:.3e}, residual {res:.3e}"
        )
    return lam, vecs, orth, res / scale if scale else 0.0


def assemble_block_operator(
    dist: DistributionSpec,
    mis: MultiIndexSet,
    space: FeSpace,
    field: CoefficientField,
    q: int,
    mass: sp.csr_matrix | None = None,
    k_g: sp.csr_matrix | None = None,
) -> SgOperator:
    """Symmetric Galerkin operator of the random form on the chaos modes `mis`.

    Built on the q-node tensor Gauss grid, q >= 2n + 1. `mass` is the
    spatial mass matrix and `k_g` the stiffness matrix of a separable
    field's spatial part; each is assembled when not given. A separable
    field gives the decoupled operator: G = Phi^T diag(w_i f(z_i)) Phi is
    symmetrized, diagonalized and time stepping runs on diag(lam) (x) K_g.
    Any other field assembles K(z_i) at every node and gives the coupled
    operator sum_i w_i (phi_i phi_i^T) (x) K(z_i), exactly symmetric.
    """
    if q < 2 * mis.n + 1:
        raise ValueError(f"q = {q} must be at least 2n + 1 = {2 * mis.n + 1}")
    if field.dim != space.dim:
        raise ValueError("field and space dimensions differ")
    t0 = time.perf_counter()
    nodes, weights = tensor_quad(dist, q)
    phi = tensor_basis_matrix(dist, mis, nodes)
    if mass is None:
        mass = assemble_mass(space)
    block_mass = sp.kron(sp.eye(len(mis)), mass, format="csr")
    if field.separable:
        if k_g is None:
            k_g = assemble_stiffness(space, field.spatial_part)
        scaled = weights * np.array([field.z_factor(z) for z in nodes])
        g = phi.T @ (scaled[:, None] * phi)
        g = 0.5 * (g + g.T)
        lam, vecs, orth, res = _checked_eigh(g)
        stiffness = sp.kron(sp.diags(lam), k_g, format="csr")
        op = SgOperator(mis.n, mis, space, block_mass, stiffness, SeparableFactors(g, lam, vecs, k_g))
        detail = f" eigh_orth={orth:.3e} eigh_rel_res={res:.3e}"
    else:
        stiffness_at = _node_stiffness(space, field)
        matrix = sp.csr_matrix(block_mass.shape)
        for w, phi_i, z in zip(weights, phi, nodes):
            matrix = matrix + sp.kron(w * np.outer(phi_i, phi_i), stiffness_at(z), format="csr")
        op = SgOperator(mis.n, mis, space, block_mass, matrix, None)
        detail = ""
    log.debug(
        "block operator: path=%s d_n=%d ndof=%d Q=%d wall_s=%.4f%s",
        "separable" if field.separable else "coupled",
        len(mis), space.ndof, len(nodes), time.perf_counter() - t0, detail,
    )
    return op


def initial_coefficients(
    dist: DistributionSpec,
    mis: MultiIndexSet,
    u0: InitialDatum,
    space: FeSpace,
    q: int,
    mass: sp.csr_matrix | None = None,
) -> SgState:
    """Chaos modes of the initial datum, each L2-projected onto the space
    with its mass matrix `mass` (assembled when not given)."""
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
    if mass is None:
        mass = assemble_mass(space)
    lu = sp.linalg.splu(mass.tocsc())
    coeffs = np.stack([lu.solve(mode_loads[a]) for a in range(len(mis))])
    return SgState(0.0, coeffs, mis)


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
