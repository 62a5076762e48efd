"""A-stable rational time stepping for the semi-discrete parabolic system.

A scheme is a rational function r = num/den applied to the scaled negative
generator; with a mass matrix M and a stiffness matrix K one step of size
tau solves

    (d0 M - d1 tau K) u_next = (n0 M - n1 tau K) u.

Implicit Euler (r(z) = 1/(1-z)) and Crank--Nicolson
(r(z) = (1+z/2)/(1-z/2)) are the provided instances; each is built and
passed through the A-acceptability probe once per process. With M = I
the formulas reduce to the resolvent form of the schemes on the
continuous state space.

Every grid is uniform: `evolve(scheme, t_final, n_steps, ...)` takes
n_steps steps of tau = t_final / n_steps, and a `Propagator` is the one-step
map of one step size, factored once. A `Propagator` (and `evolve`) may step
several independent systems at once: given the sizes of the diagonal blocks
of block-diagonal (M, K), one LU and one solve per step serve every block.
The per-step residual check stays per block: block k's residual is
measured against block k's own right-hand side, so a large block cannot
mask a failure in a small one, and a failing block raises
`StepResidualError` carrying its index.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .spatial import SolverError

__all__ = [
    "RationalScheme",
    "implicit_euler",
    "crank_nicolson",
    "scheme_by_name",
    "a_stability_probe",
    "Propagator",
    "StepResidualError",
    "evolve",
]

STEP_RESIDUAL_TOL = 1e-11


@dataclass(frozen=True)
class RationalScheme:
    """Rational symbol r(z) = num(z)/den(z), both at most linear in z."""

    name: str
    num: tuple[float, float]
    den: tuple[float, float]

    def r(self, z):
        z = np.asarray(z)
        return (self.num[0] + self.num[1] * z) / (self.den[0] + self.den[1] * z)


def a_stability_probe(scheme: RationalScheme, n_samples: int = 200):
    """Sample |r| on the closed left half plane; return (boundary_max, interior_max)."""
    rng = np.random.default_rng(12345)
    ys = np.concatenate([[0.0], np.logspace(-3, 4, n_samples // 2)])
    boundary = np.concatenate([1j * ys, -1j * ys[1:]])
    re = -np.exp(rng.uniform(np.log(1e-3), np.log(1e4), n_samples))
    im = rng.uniform(-1e4, 1e4, n_samples)
    interior = re + 1j * im
    bmax = float(np.max(np.abs(scheme.r(boundary))))
    imax = float(np.max(np.abs(scheme.r(interior))))
    return bmax, imax


def _validated(scheme: RationalScheme) -> RationalScheme:
    bmax, imax = a_stability_probe(scheme)
    if bmax > 1.0 + 1e-12 or imax > 1.0 + 1e-12:
        raise ValueError(f"{scheme.name} fails the A-acceptability probe")
    if imax >= 1.0:
        raise ValueError(f"{scheme.name} is not A-stable: |r| = {imax} inside Re z < 0")
    return scheme


@functools.cache
def implicit_euler() -> RationalScheme:
    return _validated(RationalScheme("implicit_euler", (1.0, 0.0), (1.0, -1.0)))


@functools.cache
def crank_nicolson() -> RationalScheme:
    return _validated(RationalScheme("crank_nicolson", (1.0, 0.5), (1.0, -0.5)))


def scheme_by_name(name: str) -> RationalScheme:
    try:
        return {"implicit_euler": implicit_euler, "crank_nicolson": crank_nicolson}[name]()
    except KeyError:
        raise ValueError(f"unknown scheme {name!r}") from None


class StepResidualError(SolverError):
    """A time step failed its residual check in diagonal block `block`."""

    def __init__(self, message: str, block: int):
        super().__init__(message)
        self.block = block


class Propagator:
    """One-step map of a scheme for fixed (M, K) and one step size tau.

    The step matrix d0 M - d1 tau K is factored at the first step, so that
    the LU is built inside `step`, and reused by every later step; every
    step still checks its residual against that matrix.
    When the scheme's numerator reads K (n1 != 0, as in Crank--Nicolson) the
    stacked CSR [M; K] is built once, so that one product gives both M u
    and K u; each row keeps its stored order, so the right-hand side is
    bitwise that of the two products.
    `blocks` gives the sizes of the diagonal blocks of a block-diagonal
    (M, K), in order (default: one block). Each block's residual is checked
    against that block's own right-hand side; the first block that fails
    raises a `StepResidualError` naming it.
    """

    def __init__(self, scheme: RationalScheme, mass, stiff, tau: float, blocks=None):
        if not tau > 0.0:  # "not >" so that NaN fails too
            raise ValueError("tau must be positive")
        self.scheme = scheme
        self.tau = tau
        self.mass = sp.csr_matrix(mass)
        self.stiff = sp.csr_matrix(stiff)
        size = self.mass.shape[0]
        blocks = (size,) if blocks is None else tuple(blocks)
        if min(blocks) < 1 or sum(blocks) != size:
            raise ValueError(f"block sizes {blocks} do not partition {size} unknowns")
        self._starts = np.cumsum((0,) + blocks[:-1])
        self._lu = None  # (step matrix, its LU), made at the first step
        self._stacked = None
        if scheme.num[1] != 0.0:
            self._stacked = sp.vstack([self.mass, self.stiff], format="csr")

    def rhs(self, u: np.ndarray) -> np.ndarray:
        """The step's right-hand side (n0 M - n1 tau K) u, as n0 (M u) - n1 tau (K u)."""
        n0, n1 = self.scheme.num
        if self._stacked is None:
            return n0 * (self.mass @ u)
        mk = self._stacked @ u
        size = self.mass.shape[0]
        return n0 * mk[:size] - n1 * self.tau * mk[size:]

    def step(self, u: np.ndarray) -> np.ndarray:
        tau = self.tau
        if self._lu is None:
            d0, d1 = self.scheme.den
            lhs = d0 * self.mass - d1 * tau * self.stiff
            try:
                self._lu = lhs, spla.splu(lhs.tocsc())
            except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
                raise SolverError(f"step matrix for tau = {tau} cannot be factored: {exc}") from exc
        lhs, lu = self._lu
        b = self.rhs(u)
        out = lu.solve(b)
        r = lhs @ out - b
        res = np.sqrt(np.add.reduceat(r * r, self._starts))
        scale = np.sqrt(np.add.reduceat(b * b, self._starts))
        # written as "not <=" so that a NaN residual fails too
        ok = res <= STEP_RESIDUAL_TOL * np.maximum(scale, 1e-300)
        if not ok.all():
            k = int(np.argmin(ok))  # the first failing block
            where = f" in block {k} of {len(self._starts)}" if len(self._starts) > 1 else ""
            raise StepResidualError(
                f"time step residual {res[k]:.3e} too large for tau = {tau}{where}", k
            )
        return out


def evolve(
    scheme: RationalScheme, t_final: float, n_steps: int, mass, stiff, u0: np.ndarray, blocks=None
) -> np.ndarray:
    """March n_steps steps of tau = t_final / n_steps; returns the state at
    t_final. `blocks` are the diagonal block sizes of a block-diagonal
    system (see `Propagator`)."""
    if n_steps < 1:
        raise ValueError("need at least one step")
    prop = Propagator(scheme, mass, stiff, t_final / n_steps, blocks)
    u = np.array(u0, dtype=float)
    for _ in range(n_steps):
        u = prop.step(u)
    return u
