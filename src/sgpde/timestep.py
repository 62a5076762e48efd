"""A-stable rational time stepping for the semi-discrete parabolic system.

A scheme is a rational function r = num/den applied to the scaled negative
generator. A `Propagator` steps the rows w_i of W (k, n) on one pair (M, K),
row i under M w' = -lam_i K w; one step of size tau solves, per row,

    (d0 M - d1 tau lam_i K) w_next = n0 (M w) - n1 tau lam_i (K w),

its right-hand side formed without the K term when n1 = 0 (implicit
Euler). For lam_i >= 0 each row's step matrix is symmetric positive
definite (Thomee, Galerkin Finite Element Methods for Parabolic Problems,
2nd ed., 2006), so it takes a banded Cholesky factor (George & Liu,
Computer Solution of Large Sparse Positive Definite Systems, 1981). The
spaces number their dofs in coordinate order (`spatial.make_fe_space`),
which keeps M and K banded, so a `BandedPair` holds them as assembled, as
CSR for the products and as LAPACK lower bands for the factors. A
`SparsePair` holds M and K on one pattern and factors each step matrix with
SuperLU; the harness checks each spectral propagation's first step on it,
so that the check shares neither the pencil's eigendecomposition nor the
banded Cholesky of the stepped path.

Implicit Euler (r(z) = 1/(1-z)) and Crank--Nicolson
(r(z) = (1+z/2)/(1-z/2)) are the provided instances; each is built and
passed through the A-acceptability probe once per process. With M = I
the formulas reduce to the resolvent form of the schemes on the
continuous state space.

Every grid is uniform: `evolve(prop, n_steps, w0)` takes n_steps steps of
the propagator's tau. A `Propagator` factors each row's step matrix once,
at its first step. Every step checks each row's residual against that
row's own right-hand side, so a large row cannot mask a failure in a small
one; a row whose step matrix cannot be factored, or whose residual fails,
raises a `StepError` carrying its index.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .spatial import SolverError

__all__ = [
    "RationalScheme",
    "implicit_euler",
    "crank_nicolson",
    "scheme_by_name",
    "a_stability_probe",
    "BandedPair",
    "banded_pair",
    "SparsePair",
    "Propagator",
    "StepError",
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


def a_stability_probe(scheme: RationalScheme):
    """Sample |r| at 201 points of the imaginary axis and 200 seeded points
    of the open left half plane; return (boundary_max, interior_max)."""
    rng = np.random.default_rng(12345)
    ys = np.concatenate([[0.0], np.logspace(-3, 4, 100)])
    boundary = np.concatenate([1j * ys, -1j * ys[1:]])
    re = -np.exp(rng.uniform(np.log(1e-3), np.log(1e4), 200))
    im = rng.uniform(-1e4, 1e4, 200)
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


def _cholesky(band: np.ndarray) -> np.ndarray:
    """The Cholesky factor of the symmetric matrix with LAPACK lower band
    `band`; SolverError when it holds a non-finite entry or is not positive
    definite."""
    if not np.isfinite(band).all():
        raise SolverError("it holds non-finite entries")
    c, info = dpbtrf(band, lower=1, overwrite_ab=1)
    if info != 0:
        raise SolverError(f"it is not positive definite (leading minor {info})")
    return c


@dataclass(frozen=True, eq=False)
class BandedPair:
    """A symmetric positive definite M and a symmetric K, held as one CSR
    [M; K], so that one product gives M w and K w, and as LAPACK lower
    bands (kd + 1, n), from which `factor` takes the banded Cholesky factor
    of d0 M + s K. M's own factor is taken once, when the pair is built
    (`banded_pair`)."""

    stacked: sp.csr_matrix  # [M; K], (2n, n)
    bands: tuple[np.ndarray, np.ndarray]  # (kd + 1, n) lower bands of M and K, Fortran order
    mass_factor: np.ndarray

    @property
    def kd(self) -> int:
        """The half-bandwidth of M and K."""
        return self.bands[0].shape[0] - 1

    def products(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """M w_i and K w_i of every row w_i of w (k, n), as rows."""
        both = (self.stacked @ w.T).T
        n = both.shape[1] // 2
        return both[:, :n], both[:, n:]

    def factor(self, d0: float, s: float) -> np.ndarray:
        """The banded Cholesky factor of d0 M + s K (SolverError as `_cholesky`)."""
        return _cholesky(d0 * self.bands[0] + s * self.bands[1])

    def solve(self, c: np.ndarray, b: np.ndarray) -> np.ndarray:
        """x with A x = b, c the `factor` of A."""
        return dpbtrs(c, b, lower=1)[0]

    def solve_mass(self, b: np.ndarray) -> np.ndarray:
        """x with M x = b."""
        return self.solve(self.mass_factor, b)


def banded_pair(mass, stiff) -> BandedPair:
    """The `BandedPair` of sparse symmetric (M, K), in their own order: the
    band is as wide as the numbering of their unknowns makes it.
    SolverError when M has no Cholesky factor."""
    mass, stiff = mass.tocsr(), stiff.tocsr()
    n = mass.shape[0]
    indptr = np.concatenate([mass.indptr, mass.indptr[-1] + stiff.indptr[1:]])
    cols = np.concatenate([mass.indices, stiff.indices])
    vals = np.concatenate([mass.data, stiff.data])
    stacked = sp.csr_matrix((vals, cols, indptr), shape=(2 * n, n))
    rows = np.repeat(np.arange(2 * n), np.diff(indptr))  # row i of K is row n + i
    d = rows % n - cols
    low = d >= 0
    # lower[k].T is the (kd + 1, n) lower band of M (k = 0) or K (k = 1), in Fortran order
    lower = np.zeros((2, n, int(d.max(initial=0)) + 1))
    lower[rows[low] // n, cols[low], d[low]] = vals[low]
    bands = lower[0].T, lower[1].T
    try:
        mass_factor = _cholesky(bands[0].copy(order="F"))
    except SolverError as exc:
        raise SolverError(f"mass matrix cannot be factored: {exc}") from exc
    return BandedPair(stacked, bands, mass_factor)


@dataclass(frozen=True, eq=False)
class SparsePair:
    """Symmetric M and K stored as CSR on one sparsity pattern, each step
    matrix factored by SuperLU."""

    mass: sp.csr_matrix
    stiff: sp.csr_matrix

    def __post_init__(self):
        a, b = self.mass, self.stiff
        if not (np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)):
            raise ValueError("M and K must be stored on one sparsity pattern")

    def factor(self, d0: float, s: float):
        """The SuperLU factor of d0 M + s K, read as CSC from the shared
        pattern, since it is symmetric; SolverError when it holds a
        non-finite entry or SuperLU finds it singular."""
        data = d0 * self.mass.data + s * self.stiff.data
        if not np.isfinite(data).all():
            raise SolverError("it holds non-finite entries")
        a = sp.csc_matrix((data, self.mass.indices, self.mass.indptr), shape=self.mass.shape)
        try:
            return spla.splu(a)
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise SolverError(str(exc)) from exc

    def products(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """M w_i and K w_i of every row w_i of w (k, n), as rows."""
        return (self.mass @ w.T).T, (self.stiff @ w.T).T

    def solve(self, lu, b: np.ndarray) -> np.ndarray:
        return lu.solve(b)


class StepError(SolverError):
    """A time step failed in row `row` of its propagator."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


class Propagator:
    """One-step map of a scheme, for one step size tau, of the rows w_i of
    W (k, n) on a pair (M, K), `BandedPair` or `SparsePair`, row i under
    M w' = -lam_i K w (default: one row, lam = 1). A 1-D w is one row.

    Each row's step matrix d0 M - d1 tau lam_i K is factored at the first
    step, so that the factors are built inside `step`, and reused by every
    later step. Every step checks each row's residual against that row's
    own right-hand side; the first row that fails raises a `StepError`
    naming it, and `worst` is the largest residual of any passed step
    relative to its bound. The residual needs M x and K x
    of the step's output x, which are also the next step's right-hand side:
    stepping its own last output, a step forms M x and K x once, for all its
    rows. That output is read-only, so the products stay its own.
    """

    def __init__(self, scheme: RationalScheme, pair, tau: float, lam=(1.0,)):
        if not tau > 0.0:  # "not >" so that NaN fails too
            raise ValueError("tau must be positive")
        self.scheme = scheme
        self.pair = pair
        self.tau = tau
        self.lam = np.asarray(lam, dtype=float).reshape(-1)
        self.worst = 0.0
        self._factors = None  # one per row, made at the first step
        self._last = None  # (the last output, its M x and K x)

    def _where(self, i: int) -> str:
        return f" in row {i} of {len(self.lam)}" if len(self.lam) > 1 else ""

    def step(self, w: np.ndarray) -> np.ndarray:
        tau, lam = self.tau, self.lam
        n0, n1 = self.scheme.num
        d0, d1 = self.scheme.den
        rows = np.atleast_2d(w)
        if len(rows) != len(lam):
            raise ValueError(f"{len(rows)} rows to step with {len(lam)} diffusivity factors")
        if self._factors is None:
            factors = []
            for i, s in enumerate(-d1 * tau * lam):
                try:
                    factors.append(self.pair.factor(d0, s))
                except SolverError as exc:
                    raise StepError(
                        f"step matrix for tau = {tau}{self._where(i)} cannot be factored: {exc}", i
                    ) from exc
            self._factors = factors
        if self._last is not None and w is self._last[0]:
            mw, kw = self._last[1:]
        else:
            mw, kw = self.pair.products(rows)
        b = n0 * mw
        if n1 != 0.0:
            b = b - (n1 * tau * lam)[:, None] * kw
        out = np.empty(b.shape)
        for i, c in enumerate(self._factors):
            out[i] = self.pair.solve(c, b[i])
        mx, kx = self.pair.products(out)
        r = d0 * mx - (d1 * tau * lam)[:, None] * kx - b
        res = np.sqrt(np.einsum("ij,ij->i", r, r))
        scale = np.sqrt(np.einsum("ij,ij->i", b, b))
        ratio = res / (STEP_RESIDUAL_TOL * np.maximum(scale, 1e-300))
        ok = ratio <= 1.0  # a NaN residual fails too
        if not ok.all():
            i = int(np.argmin(ok))  # the first failing row
            raise StepError(
                f"time step residual {res[i]:.3e} too large for tau = {tau}{self._where(i)}", i
            )
        self.worst = max(self.worst, float(ratio.max()))
        out = out.reshape(np.shape(w))
        out.flags.writeable = False
        self._last = out, mx, kx
        return out


def evolve(prop: Propagator, n_steps: int, w0: np.ndarray) -> np.ndarray:
    """March n_steps steps of `prop` from the rows w0; returns a writable
    copy of the rows at the end."""
    if n_steps < 1:
        raise ValueError("need at least one step")
    w = np.asarray(w0, dtype=float)
    for _ in range(n_steps):
        w = prop.step(w)
    return w.copy()
