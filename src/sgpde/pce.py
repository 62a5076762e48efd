"""Multi-dimensional polynomial chaos machinery.

Builds tensorized orthonormal bases over an independent random vector,
total-degree multi-index sets in graded lexicographic order, sparse
triple-product tensors coupling three basis polynomials, quadrature-based
chaos projections, weighted Sobolev norms, and the closed-form constant of
the chaos truncation error bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .orthopoly import PolyFamily, eval_orthonormal, gauss_rule, sl_eigenvalue, sl_norm_bound_constant

__all__ = [
    "DistributionSpec",
    "MultiIndexSet",
    "TripleProductTensor",
    "PceVector",
    "distribution",
    "multi_index_set",
    "tensor_quad",
    "tensor_basis_matrix",
    "triple_products",
    "pce_project",
    "weighted_sobolev_norm",
    "pce_error_constant",
    "eigenvalue_sum",
    "eigenvalue_floor",
]

MAX_INDEX_SET_SIZE = 10**7
SPARSE_DROP_TOL = 1e-12


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

    def to_text(self) -> str:
        """One `alpha beta gamma value` line per entry, graded-lex sorted."""
        rank2 = {a: i for i, a in enumerate(self.mis2)}
        rank = {a: i for i, a in enumerate(self.mis)}
        lines = []
        for (a, b, c) in sorted(self.entries, key=lambda k: (rank2[k[0]], rank[k[1]], rank[k[2]])):
            fmt = lambda t: ",".join(str(i) for i in t)
            lines.append(f"{fmt(a)} {fmt(b)} {fmt(c)} {self.entries[(a, b, c)]!r}")
        return "\n".join(lines) + "\n"


def _univariate_triple_table(family: PolyFamily, n: int) -> np.ndarray:
    """E[h_a h_b h_c] for a <= 2n, b, c <= n, symmetric by construction.

    Filled from sorted representatives so that permuted index triples share
    the exact same float value.
    """
    q = 2 * n + 1
    rule = gauss_rule(family, q)
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


def triple_products(dist: DistributionSpec, n: int) -> TripleProductTensor:
    """Triple-product tensor over the tensorized basis, |alpha| <= 2n.

    Per-dimension Gauss quadrature with 2n + 1 nodes is exact for the
    integrands (degree at most 4n per dimension). Each entry is the product
    of the per-dimension table values, taken in dimension order over one
    (d_{2n}, d_n, d_n) array; entries are stored alpha-major in graded-lex
    order.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    mis = multi_index_set(dist.N, n)
    mis2 = multi_index_set(dist.N, 2 * n)
    a, b = np.array(mis2.indices), np.array(mis.indices)
    vals = None
    for j, fam in enumerate(dist.components):
        table = _univariate_triple_table(fam, n)
        factor = table[a[:, j, None, None], b[None, :, j, None], b[None, None, :, j]]
        vals = factor if vals is None else vals * factor
    da, db = a.sum(axis=1), b.sum(axis=1)
    keep = (da[:, None, None] <= db[None, :, None] + db[None, None, :]) & (
        np.abs(vals) > SPARSE_DROP_TOL
    )
    ia, ib, ic = np.nonzero(keep)
    entries = {
        (mis2.indices[i], mis.indices[k], mis.indices[l]): v
        for i, k, l, v in zip(ia.tolist(), ib.tolist(), ic.tolist(), vals[keep].tolist())
    }
    return TripleProductTensor(n, mis, mis2, entries)


@dataclass(frozen=True)
class PceVector:
    """Chaos coefficients of a scalar- or vector-valued random quantity."""

    mis: MultiIndexSet
    modes: np.ndarray  # shape (d_n,) or (d_n, payload_dim)

    def __post_init__(self):
        if self.modes.shape[0] != len(self.mis):
            raise ValueError("mode count does not match index set")


def pce_project(dist: DistributionSpec, mis: MultiIndexSet, f: Callable, q: int) -> PceVector:
    """Quadrature chaos projection: f_alpha = sum_i w_i f(z_i) Phi_alpha(z_i).

    Exact for f polynomial of per-dimension degree <= 2q - 1 - n. The
    callable receives one point z (array of length N) and may return a
    scalar or a fixed-size array payload.
    """
    if q < mis.n + 1:
        raise ValueError(f"q = {q} must be at least n + 1 = {mis.n + 1}")
    nodes, weights = tensor_quad(dist, q)
    samples = []
    shape = None
    for i in range(nodes.shape[0]):
        val = np.asarray(f(nodes[i]), dtype=float)
        if shape is None:
            shape = val.shape
        elif val.shape != shape:
            raise ValueError(f"payload shape {val.shape} != {shape} at node {i}")
        samples.append(val)
    samples = np.stack(samples)  # (Q,) or (Q, payload)
    phi = tensor_basis_matrix(dist, mis, nodes)
    modes = (phi * weights[:, None]).T @ samples.reshape(len(weights), -1)
    if shape == ():
        modes = modes[:, 0]
    return PceVector(mis, modes)


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


def eigenvalue_sum(dist: DistributionSpec, alpha: Sequence[int]) -> float:
    """sum_j lambda_{alpha_j}^j, the decay weight of mode alpha."""
    return sum(sl_eigenvalue(fam, a) for fam, a in zip(dist.components, alpha))


def eigenvalue_floor(dist: DistributionSpec, n: int) -> float:
    """min over |alpha| = n of the eigenvalue sum (reported, never assumed).

    This is the sharper decay weight d(n) of the truncation bound; the
    implemented bound itself uses the plain n^(-ell) form.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    best = math.inf
    for alpha in _compositions(n, dist.N):
        best = min(best, eigenvalue_sum(dist, alpha))
    return best
