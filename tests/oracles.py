"""Independent oracles used by the test suite.

The closed forms are derived by hand or from elementary probability facts,
deliberately avoiding the recurrence/quadrature code paths under test. The
slow paths that a faster library path replaced stay here as its reference.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy import integrate


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
    if family.kind == "hermite":
        return hermite_moment(j)
    if family.kind == "laguerre":
        return laguerre_moment(family.alpha, j)
    return jacobi_moment(family.alpha, family.beta, j)


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


def heat_amplitude(diffusivity: float, mode: int, t: float) -> float:
    """Damping factor of sin(mode*pi*x) under u_t = a u_xx on (0,1)."""
    return math.exp(-diffusivity * (mode * math.pi) ** 2 * t)


def rebuilt_step(scheme, mass, stiff, u, tau: float) -> np.ndarray:
    """One rational step with nothing cached: build and factor d0 M - d1 tau K
    afresh and solve against n0 M u - n1 tau K u."""
    mass, stiff = sp.csr_matrix(mass), sp.csr_matrix(stiff)
    n0, n1 = scheme.num
    d0, d1 = scheme.den
    lhs = d0 * mass - d1 * tau * stiff
    b = n0 * (mass @ u) - n1 * tau * (stiff @ u)
    return spla.splu(lhs.tocsc()).solve(b)
