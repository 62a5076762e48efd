"""One-dimensional orthonormal polynomial families and Gauss quadrature.

Each family is indexed by the probability law of a random input:

* ``hermite``  -- standard normal on the real line,
* ``jacobi``   -- Beta law on (-1, 1) with density proportional to
  ``(1-z)**alpha * (1+z)**beta``,
* ``laguerre`` -- Gamma law on (0, inf) with shape ``alpha + 1`` and rate 1.

All polynomials are orthonormal with respect to the *probability* measure,
so ``h_0 = 1``, quadrature weights sum to one, and Parseval identities hold
without extra normalization factors. Gauss nodes are the eigenvalues of the
symmetric tridiagonal recurrence matrix, polished by one Newton step; the
weights are Christoffel numbers, so small weights at far-out nodes are
accurate relative to their own size.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .coeffs import config_number

__all__ = [
    "FAMILY_PARAMS",
    "PolyFamily",
    "QuadratureRule",
    "hermite",
    "jacobi",
    "laguerre",
    "eval_orthonormal",
    "gauss_rule",
]


# the parameters that each family kind reads; a parameter not given is 0
FAMILY_PARAMS = {"hermite": (), "jacobi": ("alpha", "beta"), "laguerre": ("alpha",)}


@dataclass(frozen=True)
class PolyFamily:
    """An orthonormal polynomial family, identified by its probability law.

    Use the factory functions :func:`hermite`, :func:`jacobi`, and
    :func:`laguerre` instead of constructing instances directly. Each
    parameter of `FAMILY_PARAMS[kind]` is read by `coeffs.config_number`:
    it must be a finite real number > -1, not a bool, and is stored as a
    float.
    """

    kind: str
    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        if self.kind not in FAMILY_PARAMS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        for name in FAMILY_PARAMS[self.kind]:
            value = config_number(f"{self.kind} {name}", getattr(self, name), -1.0)
            object.__setattr__(self, name, value)


def hermite() -> PolyFamily:
    """Family for a standard normal input."""
    return PolyFamily("hermite")


def jacobi(alpha: float, beta: float) -> PolyFamily:
    """Family for a Beta input on (-1, 1); alpha = beta = 0 is uniform."""
    return PolyFamily("jacobi", alpha, beta)


def laguerre(alpha: float) -> PolyFamily:
    """Family for a Gamma input with shape alpha + 1 and rate 1."""
    return PolyFamily("laguerre", alpha)


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss rule for a family's probability measure; weights sum to one."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)


def _monic_recurrence(family: PolyFamily, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Monic three-term recurrence (alpha_k, beta_k) for k = 0..k_max.

    Convention: p_{k+1}(z) = (z - alpha_k) p_k(z) - beta_k p_{k-1}(z) with
    beta_0 = 1 for probability measures.
    """
    k = np.arange(k_max + 1, dtype=float)
    if family.kind == "hermite":
        return np.zeros(k_max + 1), np.where(k == 0, 1.0, k)
    if family.kind == "laguerre":
        a = family.alpha
        return 2.0 * k + a + 1.0, np.where(k == 0, 1.0, k * (k + a))
    a, b = family.alpha, family.beta
    ab = a + b
    alphas = np.empty(k_max + 1)
    betas = np.empty(k_max + 1)
    alphas[0] = (b - a) / (ab + 2.0)
    betas[0] = 1.0
    for i in range(1, k_max + 1):
        d = 2.0 * i + ab
        alphas[i] = (b * b - a * a) / (d * (d + 2.0))
        if i == 1:
            # cancelled form, regular also at a + b = -1
            betas[1] = 4.0 * (a + 1.0) * (b + 1.0) / ((ab + 2.0) ** 2 * (ab + 3.0))
        else:
            betas[i] = (
                4.0 * i * (i + a) * (i + b) * (i + ab)
                / (d * d * (d + 1.0) * (d - 1.0))
            )
    return alphas, betas


def eval_orthonormal(family: PolyFamily, n: int, z) -> np.ndarray:
    """Evaluate (h_0(z), ..., h_n(z)) by the three-term recurrence.

    Returns an array of shape ``(n + 1,)`` for scalar z and
    ``(n + 1,) + z.shape`` otherwise.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    z = np.asarray(z, dtype=float)
    alphas, betas = _monic_recurrence(family, n + 1)
    bs = np.sqrt(betas)
    out = np.empty((n + 1,) + z.shape)
    out[0] = 1.0
    if n >= 1:
        out[1] = (z - alphas[0]) / bs[1]
    for k in range(1, n):
        out[k + 1] = ((z - alphas[k]) * out[k] - bs[k] * out[k - 1]) / bs[k + 1]
    return out


def _recurrence_at(alphas: np.ndarray, bs: np.ndarray, x: np.ndarray):
    """h_q(x), h_q'(x) and sum_{k<q} h_k(x)**2 for q = x.size."""
    h_prev, h = np.zeros_like(x), np.ones_like(x)
    d_prev, d = np.zeros_like(x), np.zeros_like(x)
    sumsq = np.zeros_like(x)
    for k in range(x.size):
        sumsq += h * h
        t = x - alphas[k]
        h_prev, h = h, (t * h - bs[k] * h_prev) / bs[k + 1]
        d_prev, d = d, (h_prev + t * d - bs[k] * d_prev) / bs[k + 1]
    return h, d, sumsq


def gauss_rule(family: PolyFamily, q: int) -> QuadratureRule:
    """q-node Gauss rule, exact for polynomials of degree <= 2q - 1.

    The nodes are the eigenvalues of the tridiagonal recurrence matrix, each
    polished by one Newton step on h_q. The weights are the Christoffel
    numbers w_i = 1 / sum_{k<q} h_k(x_i)**2. Unlike squared eigenvector
    components (Golub--Welsch), which are accurate only relative to the
    largest weight, these are accurate relative to their own size, so the
    tiny weights at far-out Laguerre or Hermite nodes carry no rounding
    noise. The Newton step removes the eigenvalue error next to a singular
    Jacobi endpoint, which would otherwise shift the largest weight enough
    to spoil sum(w) = 1 at the 1e-13 level.

    Each (family, q) rule is computed once per process; its arrays are
    shared between calls, hence read-only.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    return QuadratureRule(*_gauss_nodes_weights(family, q))


@functools.cache
def _gauss_nodes_weights(family: PolyFamily, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of `gauss_rule`; the `QuadratureRule` wrapping
    them makes them read-only."""
    alphas, betas = _monic_recurrence(family, q)
    bs = np.sqrt(betas)
    try:
        nodes = eigh_tridiagonal(alphas[:q], bs[1:q], eigvals_only=True)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise RuntimeError(f"Gauss rule eigen-solve failed for {family}") from exc
    # At far-out nodes of large rules (Laguerre, q >~ 190) the recurrence
    # leaves the double range. Once sum h_k**2 overflows (inf, or nan from a
    # later inf - inf), the true weight is below the smallest normal double,
    # so 0 is its rounded value; a non-finite Newton step keeps the node.
    with np.errstate(over="ignore", invalid="ignore"):
        h, dh, _ = _recurrence_at(alphas, bs, nodes)
        step = h / dh
        nodes = nodes - np.where(np.isfinite(step), step, 0.0)
        _, _, sumsq = _recurrence_at(alphas, bs, nodes)
    weights = np.where(np.isnan(sumsq), 0.0, 1.0 / sumsq)
    return nodes, weights
