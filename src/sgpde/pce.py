"""Multi-dimensional polynomial chaos machinery.

Builds tensorized orthonormal bases over an independent random vector,
total-degree multi-index sets in graded lexicographic order, tensor Gauss
grids and the basis matrix on them, quadrature-based chaos projections,
weighted Sobolev norms, and the closed-form constant of the chaos
truncation error bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .orthopoly import PolyFamily, eval_orthonormal, gauss_rule, sl_norm_bound_constant

__all__ = [
    "DistributionSpec",
    "MultiIndexSet",
    "distribution",
    "multi_index_set",
    "tensor_quad",
    "tensor_basis_matrix",
    "pce_project",
    "weighted_sobolev_norm",
    "pce_error_constant",
]

MAX_INDEX_SET_SIZE = 10**7


@dataclass(frozen=True)
class DistributionSpec:
    """Joint law of the random input: one independent family per component."""

    components: tuple[PolyFamily, ...]

    def __post_init__(self):
        if len(self.components) < 1:
            raise ValueError("need at least one component")

    @property
    def N(self) -> int:
        return len(self.components)

    def rho_power(self, z: np.ndarray, alpha: Sequence[int]) -> np.ndarray:
        """prod_j rho_j(z_j)^(alpha_j / 2) at sample points z of shape (Q, N)."""
        z = np.atleast_2d(np.asarray(z, dtype=float))
        out = np.ones(z.shape[0])
        for j, (fam, a_j) in enumerate(zip(self.components, alpha)):
            if a_j and fam.weighted:
                out = out * z[:, j] ** (a_j / 2.0)
        return out


def distribution(*families: PolyFamily) -> DistributionSpec:
    return DistributionSpec(tuple(families))


@dataclass(frozen=True)
class MultiIndexSet:
    """Total-degree index set {alpha : |alpha| <= n} in graded-lex order.

    Within each total degree, indices are ordered with the leading component
    decreasing first, e.g. N=2, n=2: (0,0), (1,0), (0,1), (2,0), (1,1), (0,2).
    """

    N: int
    n: int
    indices: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)


def _compositions(total: int, parts: int):
    """Compositions of `total` into `parts` slots, leading entry largest first."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def multi_index_set(N: int, n: int) -> MultiIndexSet:
    """Graded-lex ordered total-degree set of cardinality C(n + N, n)."""
    if N < 1 or n < 0:
        raise ValueError("require N >= 1 and n >= 0")
    size = math.comb(n + N, n)
    if size > MAX_INDEX_SET_SIZE:
        raise ValueError(f"index set of size {size} exceeds limit {MAX_INDEX_SET_SIZE}")
    indices = tuple(
        alpha for degree in range(n + 1) for alpha in _compositions(degree, N)
    )
    assert len(indices) == size
    return MultiIndexSet(N, n, indices)


def tensor_quad(dist: DistributionSpec, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product Gauss grid with q nodes per dimension.

    Returns nodes of shape (q**N, N) and weights of shape (q**N,).
    """
    rules = [gauss_rule(fam, q) for fam in dist.components]
    grids = np.meshgrid(*[r.nodes for r in rules], indexing="ij")
    nodes = np.stack([g.reshape(-1) for g in grids], axis=-1)
    weights = np.ones(1)
    for r in rules:
        weights = np.multiply.outer(weights, r.weights).reshape(-1)
    return nodes, weights


def tensor_basis_matrix(dist: DistributionSpec, mis: MultiIndexSet, nodes: np.ndarray) -> np.ndarray:
    """Matrix Phi[i, a] = Phi_alpha(z_i) for nodes of shape (Q, N)."""
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
    if nodes.shape[1] != dist.N:
        raise ValueError(f"nodes have {nodes.shape[1]} components, expected {dist.N}")
    per_dim = [
        eval_orthonormal(fam, mis.n, nodes[:, j]) for j, fam in enumerate(dist.components)
    ]
    out = np.ones((nodes.shape[0], len(mis)))
    for a, alpha in enumerate(mis):
        for j, a_j in enumerate(alpha):
            if a_j:
                out[:, a] *= per_dim[j][a_j]
    return out


def pce_project(dist: DistributionSpec, mis: MultiIndexSet, samples, q: int) -> np.ndarray:
    """Quadrature chaos projection: f_alpha = sum_i w_i f(z_i) Phi_alpha(z_i).

    `samples` holds the values f(z_i) at the nodes of the q-node tensor
    Gauss grid `tensor_quad(dist, q)`, in node order: (Q,) for a scalar f,
    (Q, payload_dim) for an array payload. Exact for f polynomial of
    per-dimension degree <= 2q - 1 - n. Returns the modes, (d_n,) or
    (d_n, payload_dim), in the order of `mis`.
    """
    if q < mis.n + 1:
        raise ValueError(f"q = {q} must be at least n + 1 = {mis.n + 1}")
    nodes, weights = tensor_quad(dist, q)
    samples = np.asarray(samples, dtype=float)
    if samples.ndim not in (1, 2) or len(samples) != len(weights):
        raise ValueError(
            f"samples of shape {samples.shape} must hold one value or vector at each of "
            f"the {len(weights)} nodes"
        )
    phi = tensor_basis_matrix(dist, mis, nodes)
    modes = (phi * weights[:, None]).T @ samples.reshape(len(weights), -1)
    return modes[:, 0] if samples.ndim == 1 else modes


def weighted_sobolev_norm(
    dist: DistributionSpec,
    derivatives: Mapping[tuple, Callable] | Sequence[Callable],
    order: int,
    q: int,
) -> float:
    """Weighted Sobolev norm (sum_{|alpha| <= order} ||rho^(alpha/2) d^alpha f||^2)^(1/2).

    `derivatives` maps each multi-index (as a tuple) with |alpha| <= order to
    a callable evaluating that partial derivative at one point z. For N = 1 a
    plain sequence [f, f', f'', ...] is accepted. Integrals use a q-node
    tensor Gauss grid.

    With `pce_error_constant` it gives the paper's chaos truncation bound,
    which no command reports yet; both are kept for the report of separate
    errors (ROADMAP D9).
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
        total += float(np.dot(weights, dist.rho_power(nodes, alpha) * vals**2))
    return math.sqrt(total)


def pce_error_constant(dist: DistributionSpec, ell: int) -> float:
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
