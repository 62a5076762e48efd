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

Every coefficient is separable, f(z) g(x) (see `coeffs`), so K(z) = f(z) K_g
and A = G (x) K_g with the d_n x d_n chaos matrix G = Phi^T diag(w_i f(z_i))
Phi (Ernst & Ullmann, SIAM J. Matrix Anal. Appl. 31(4), 2010). Diagonalizing
G = V diag(lam) V^T decouples the system: the rotated modes
w = (V^T (x) I) u evolve under the block-diagonal diag(lam) (x) K_g.

Everything these builders need of one spatial space lives in one
`SpatialOperators`, built by `spatial_operators(space, field)`: the mass
matrix M, the stiffness K_g of the field's spatial part, the checked L2
projection of spatial functions, each projected once, the projections of an
initial datum at the nodes of a Gauss grid, stacked once per grid, and the
checked dense decomposition of the pencil (K_g, M), made when first read.
The block operator, the initial chaos modes and the collocation reference
of the harness all take it, so a space shared by several of them is
assembled and projected once. A rotated chaos mode and a collocation node
are the same scalar-diffusivity problem M w' = -lam K_g w, with lam an
eigenvalue of G or f(z_i); the harness propagates both through one
function.

An `SgOperator` holds the factors of A and nothing else: G, lam and V, and
the `SpatialOperators` of M and K_g. It stores no block matrix. `matrix`
builds G (x) K_g when first read, and the system-basis I (x) M and
diag(lam) (x) K_g are joined only where the harness steps a batch.

Every eigendecomposition, of G and of the pencil, is checked in O(n^2)
past the products it forms: the orthogonality defect ||Y^T B Y - I||_F and
the residual ||A Y - B Y diag(mu)||_F must be at most EIGH_TOL, the latter
relative to (max_j |A e_j|) (max_j |Y e_j|), the largest column norms. A
Frobenius norm is at least the 2-norm and a column norm at most it, so the
check is never looser than one on the 2-norms ||.|| and ||A|| ||Y||: every
decomposition that the 2-norm check rejects, this one rejects too.

The pencil decomposition is K_g Y = M Y diag(mu) with Y^T M Y = I. In its
coordinates c_i = Y^T M w_i, rotated mode i evolves
coordinate-wise, c_ij -> r(-tau lam_i mu_j) c_ij per step, so a rational
scheme's final state after n steps is
W_T = ((W_0 M Y) o r(-tau lam_i mu_j)^n) Y^T without stepping (Thomee,
Galerkin Finite Element Methods for Parabolic Problems, 2nd ed., 2006,
ch. 7-9).
"""

from __future__ import annotations

import dataclasses
import functools
import logging
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .coeffs import CoefficientField, InitialDatum
from .pce import DistributionSpec, MultiIndexSet, pce_project, tensor_basis_matrix, tensor_quad
from .spatial import (
    FeSpace,
    SolverError,
    assemble_mass,
    assemble_stiffness,
    checked_solve,
    load_vector,
)

__all__ = [
    "Pencil",
    "SgOperator",
    "SgState",
    "SpatialOperators",
    "spatial_operators",
    "assemble_block_operator",
    "initial_coefficients",
    "reconstruct_at_nodes",
]

log = logging.getLogger(__name__)

EIGH_TOL = 1e-12


@dataclass(frozen=True)
class SgOperator:
    """The chaos-Galerkin operator G (x) K_g on the chaos modes `mis`, with
    its block mass I (x) M, given by its factors: the spatial operators of
    M and K_g, and the chaos matrix G = V diag(lam) V^T with its checked
    eigendecomposition.

    Time stepping runs in the system basis, the rotated modes
    w = (V^T (x) I) u, where the operator is diag(lam) (x) K_g. `matrix`,
    the operator in the chaos basis, is built only when first read.
    """

    mis: MultiIndexSet
    spatial: SpatialOperators
    chaos: np.ndarray  # G, (d_n, d_n), symmetric
    eigvals: np.ndarray  # lam, ascending
    eigvecs: np.ndarray  # V, orthonormal columns

    @property
    def block_dim(self) -> int:
        return len(self.mis)

    @property
    def size(self) -> int:
        return self.block_dim * self.spatial.space.ndof

    @functools.cached_property
    def matrix(self) -> sp.csr_matrix:
        """The operator in the chaos basis, (d_n * ndof)^2, symmetric. No
        command reads it; it is kept only for the size that the traced
        benchmark (`perfbench/spans.py`) reports, until ROADMAP D1."""
        return sp.kron(self.chaos, self.spatial.k_g, format="csr")

    def to_system(self, coeffs: np.ndarray) -> np.ndarray:
        """Chaos-basis mode coefficients (d_n, ndof) in the system basis: V^T U."""
        return self.eigvecs.T @ coeffs

    def to_chaos(self, coeffs: np.ndarray) -> np.ndarray:
        """System-basis coefficients (d_n, ndof) back in the chaos basis: V W."""
        return self.eigvecs @ coeffs


@dataclass(frozen=True)
class SgState:
    """Mode coefficients of the chaos-Galerkin solution at one time."""

    coeffs: np.ndarray  # (d_n, ndof)
    mis: MultiIndexSet


@dataclass(frozen=True)
class Pencil:
    """Checked eigendecomposition of a symmetric-definite pencil (A, B):
    A Y = B Y diag(mu), Y^T B Y = I, mu ascending, with the orthogonality
    defect and the relative residual it passed (see `_checked_pencil`)."""

    mu: np.ndarray
    y: np.ndarray
    by: np.ndarray  # B Y
    orth: float
    res: float

    def propagate(self, symbol, tau: float, n_steps: int, lam, w0: np.ndarray) -> np.ndarray:
        """Final state of the rows w_i of w0 (k, ndof), each evolving under
        B w' = -lam_i A w by n_steps steps of the one-step map
        symbol(-tau A, B):

            W_T = ((W_0 B Y) o symbol(-tau lam_i mu_j)^n_steps) Y^T.

        `symbol` is a scheme's r, or np.exp for the exact flow."""
        factor = symbol(tau * -np.outer(lam, self.mu)) ** n_steps
        return ((w0 @ self.by) * factor) @ self.y.T


@dataclass(frozen=True, eq=False)
class SpatialOperators:
    """One spatial Galerkin space of a coefficient field f(z) g(x) and what
    every builder on it shares: the mass matrix M, the stiffness K_g of g,
    the checked L2 projections of spatial functions and the stacked
    projections of an initial datum on a Gauss grid, each computed once."""

    space: FeSpace
    field: CoefficientField
    mass: sp.csr_matrix
    k_g: sp.csr_matrix
    _projections: dict = dataclasses.field(default_factory=dict, init=False, repr=False)
    _datum_samples: dict = dataclasses.field(default_factory=dict, init=False, repr=False)

    @functools.cached_property
    def pencil(self) -> Pencil:
        """The checked decomposition K_g Y = M Y diag(mu), Y^T M Y = I, dense,
        computed when first read. A failed check or a non-finite M or K_g
        raises SolverError."""
        return _checked_eigh(self.k_g.toarray(), self.mass.toarray(), "spatial pencil (K_g, M)")

    def project(self, f) -> np.ndarray:
        """L2 projection of the spatial function f: solves M u = (f, phi) with
        a 1e-10 relative residual check (SolverError, also on NaN). Memoized
        per callable, so each distinct function is projected once."""
        if f not in self._projections:
            self._projections[f] = checked_solve(self.mass, load_vector(self.space, f), 1e-10)
        return self._projections[f]

    def project_datum(self, dist: DistributionSpec, u0: InitialDatum, q: int) -> np.ndarray:
        """The projections P u0(z_i) at the nodes of the q-node tensor Gauss
        grid of `dist`, stacked in node order, (Q, ndof). Memoized per grid
        and datum, so every chaos order on the space reads the same samples;
        the array is shared, hence read-only."""
        key = (dist, u0, q)
        if key not in self._datum_samples:
            nodes, _ = tensor_quad(dist, q)
            samples = np.stack([self.project(u0.sample(z)) for z in nodes])
            samples.flags.writeable = False
            self._datum_samples[key] = samples
        return self._datum_samples[key]


def spatial_operators(space: FeSpace, field: CoefficientField) -> SpatialOperators:
    """Assemble M and K_g on the space."""
    if field.dim != space.dim:
        raise ValueError("field and space dimensions differ")
    return SpatialOperators(
        space, field, assemble_mass(space), assemble_stiffness(space, field.spatial_part)
    )


def _max_column_norm(a: np.ndarray) -> float:
    """The largest 2-norm of a column of A, a lower bound on ||A||_2."""
    return float(np.linalg.norm(a, axis=0).max())


def _checked_pencil(
    a: np.ndarray, b: np.ndarray | None, mu: np.ndarray, y: np.ndarray, what: str
) -> Pencil:
    """The decomposition A Y = B Y diag(mu), Y^T B Y = I of the pencil
    (A, B), B = I when None, checked: the orthogonality defect
    ||Y^T B Y - I||_F must be at most EIGH_TOL, and so must the residual
    ||A Y - B Y diag(mu)||_F relative to the product of the largest column
    norms of A and Y, so the check is never looser than the same test on
    2-norms (see the module docstring). The residual also catches an A
    that is not symmetric. Raises SolverError naming `what` when either
    fails."""
    by = y if b is None else b @ y
    orth = float(np.linalg.norm(y.T @ by - np.eye(len(a))))
    res = float(np.linalg.norm(a @ y - by * mu))
    scale = _max_column_norm(a) * _max_column_norm(y)
    if not (orth <= EIGH_TOL and res <= EIGH_TOL * scale):
        raise SolverError(
            f"{what} eigendecomposition failed its check: "
            f"orthogonality defect {orth:.3e}, residual {res:.3e}"
        )
    return Pencil(mu, y, by, orth, res / scale if scale else 0.0)


def _checked_eigh(a: np.ndarray, b: np.ndarray | None = None, what: str = "chaos matrix") -> Pencil:
    """The eigendecomposition of the symmetric pencil (A, B), B = I when
    None, checked by `_checked_pencil`. Raises SolverError naming `what`
    when the check fails or an input is not finite."""
    if not (np.isfinite(a).all() and (b is None or np.isfinite(b).all())):
        raise SolverError(f"{what} holds non-finite entries")
    mu, y = scipy.linalg.eigh(a) if b is None else scipy.linalg.eigh(a, b)
    return _checked_pencil(a, b, mu, y, what)


def assemble_block_operator(
    dist: DistributionSpec, mis: MultiIndexSet, ops: SpatialOperators, q: int
) -> SgOperator:
    """Symmetric Galerkin operator of the random form on the chaos modes `mis`
    and the spatial space of `ops`.

    Built on the q-node tensor Gauss grid, q >= 2n + 1: G = Phi^T
    diag(w_i f(z_i)) Phi is symmetrized and diagonalized.
    """
    if q < 2 * mis.n + 1:
        raise ValueError(f"q = {q} must be at least 2n + 1 = {2 * mis.n + 1}")
    t0 = time.perf_counter()
    nodes, weights = tensor_quad(dist, q)
    phi = tensor_basis_matrix(dist, mis, nodes)
    scaled = weights * ops.field.factor_at(nodes)
    g = phi.T @ (scaled[:, None] * phi)
    g = 0.5 * (g + g.T)
    dec = _checked_eigh(g)
    log.debug(
        "block operator: d_n=%d ndof=%d Q=%d wall_s=%.4f eigh_orth=%.3e eigh_rel_res=%.3e",
        len(mis), ops.space.ndof, len(nodes), time.perf_counter() - t0, dec.orth, dec.res,
    )
    return SgOperator(mis, ops, g, dec.mu, dec.y)


def initial_coefficients(
    dist: DistributionSpec, mis: MultiIndexSet, u0: InitialDatum, ops: SpatialOperators, q: int
) -> SgState:
    """Chaos modes of the initial datum on the space of `ops`: the q-node
    Gauss sum Phi^T W [P u0(z_i)]_i of its checked L2 projections P, which
    `ops.project_datum` computes once per grid."""
    return SgState(pce_project(dist, mis, ops.project_datum(dist, u0, q), q), mis)


def reconstruct_at_nodes(
    dist: DistributionSpec, state: SgState, nodes: np.ndarray
) -> np.ndarray:
    """Evaluate sum_beta Phi_beta(z_i) u_beta; rows follow the given nodes."""
    basis = tensor_basis_matrix(dist, state.mis, nodes)
    return basis @ state.coeffs

