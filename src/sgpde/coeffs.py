"""Random diffusion coefficient fields and initial data.

A coefficient field maps a random parameter z in R^N and a spatial point x
to a scalar (1D) or a Hermitian 2x2 matrix (2D). Every field is separable,
value = f(z) * g(x): `CoefficientField` holds the two factors, its value is
their product, and the library assembles the spatial matrix of g once per
space. Ellipticity bounds are declared, not proven; the test suite checks
them by sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "CoefficientField",
    "InitialDatum",
    "builtin_separable",
    "logistic_factor",
    "logistic_factor_derivatives",
    "coefficient_by_name",
    "initial_datum_by_name",
    "COEFFICIENT_BUILTINS",
]


@dataclass(frozen=True)
class CoefficientField:
    """Diffusion coefficient M(z, x) = f(z) g(x); see the module docstring.

    `z_factor` is the scalar f and `spatial_part` the spatial g.
    `z_derivatives` are optional exact derivatives of f, declared for the
    chaos truncation bound (`pce.weighted_sobolev_norm`); no report reads
    them yet (ROADMAP F4, D9). Fields without declared bounds are
    non-elliptic probes for assembly tests and are rejected by solvers that
    require coercivity.
    """

    dim: int
    z_factor: Callable
    spatial_part: Callable
    kappa: float | None = None
    bound: float | None = None
    z_derivatives: tuple = ()
    name: str = ""

    @property
    def elliptic(self) -> bool:
        return self.kappa is not None and self.kappa > 0.0

    def evaluate(self, z, x):
        """The value f(z) g(x) at the parameter z and the point x, the
        field's definition; the library assembles f and g apart."""
        return self.z_factor(z) * np.asarray(self.spatial_part(x))


@dataclass(frozen=True)
class InitialDatum:
    """Map from the random parameter to a spatial function, with metadata.

    `sample(z)` returns a callable on the spatial domain. `sine_modes`
    (1D only) lists (j, c_j) pairs of sin(j pi x) components when the datum
    is a deterministic Fourier sine sum, enabling analytic references.
    `smoothness` is free-form declared regularity, recorded in reports.
    """

    dim: int
    sample: Callable
    sine_modes: tuple = ()
    smoothness: str = ""
    name: str = ""


def _logistic(z):
    """1 / (1 + exp(-z)) without overflow: with e = exp(-|z|) it is 1 / (1 + e)
    for z >= 0 and e / (1 + e) below. A scalar z gives a NumPy scalar."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0, e) / (1.0 + e)


def logistic_factor(z):
    """1 / (1 + exp(-z)) + 1, values in (1, 2), all derivatives bounded."""
    return _logistic(z) + 1.0


def logistic_factor_derivatives() -> tuple:
    """Exact derivative callables of the logistic factor, orders 0..4."""
    s = _logistic
    return (
        logistic_factor,
        lambda z: s(z) * (1.0 - s(z)),
        lambda z: s(z) * (1.0 - s(z)) * (1.0 - 2.0 * s(z)),
        lambda z: s(z) * (1.0 - s(z)) * (1.0 - 6.0 * s(z) + 6.0 * s(z) ** 2),
        lambda z: s(z) * (1.0 - s(z)) * (1.0 - 2.0 * s(z)) * (1.0 - 12.0 * s(z) + 12.0 * s(z) ** 2),
    )


def builtin_separable(
    f: Callable,
    g: Callable,
    *,
    dim: int = 1,
    f_bounds: tuple[float, float] | None = None,
    g_bounds: tuple[float, float] | None = None,
    f_derivatives: tuple = (),
    name: str = "",
) -> CoefficientField:
    """Separable field value = f(z) g(x) with bounds kappa = inf f inf g etc.

    `f_bounds = None` builds a deliberately non-elliptic field (assembly
    probes only). A declared nonpositive lower bound of f is rejected.
    """
    if f_bounds is not None and f_bounds[0] <= 0.0:
        raise ValueError(f"inf f = {f_bounds[0]} must be positive for an elliptic field")
    kappa = bound = None
    if f_bounds is not None and g_bounds is not None:
        kappa = f_bounds[0] * g_bounds[0]
        bound = f_bounds[1] * g_bounds[1]
    return CoefficientField(
        dim=dim,
        kappa=kappa,
        bound=bound,
        z_factor=lambda z: f(np.asarray(z, dtype=float)[0] if np.ndim(z) else z),
        spatial_part=g,
        z_derivatives=f_derivatives,
        name=name,
    )


# --- named built-ins -----------------------------------------------------

def _constant_field(value: float = 1.0, dim: int = 1) -> CoefficientField:
    if value <= 0.0:
        raise ValueError("constant coefficient must be positive")
    return builtin_separable(
        lambda z: 1.0,
        (lambda x: value) if dim == 1 else (lambda x: value * np.eye(2)),
        dim=dim,
        f_bounds=(1.0, 1.0),
        g_bounds=(value, value),
        name=f"constant({value})",
    )


def _affine_field(slope: float = 0.5, dim: int = 1) -> CoefficientField:
    # unbounded in z: non-elliptic probe for matrix-assembly tests
    return builtin_separable(
        lambda z: 1.0 + slope * z,
        (lambda x: 1.0) if dim == 1 else (lambda x: np.eye(2)),
        dim=dim,
        f_bounds=None,
        name=f"affine({slope})",
    )


def _logistic_1d() -> CoefficientField:
    return builtin_separable(
        logistic_factor,
        lambda x: 1.0,
        dim=1,
        f_bounds=(1.0, 2.0),
        g_bounds=(1.0, 1.0),
        f_derivatives=logistic_factor_derivatives(),
        name="logistic_1d",
    )


def _logistic_anisotropic() -> CoefficientField:
    # diag(1 + |x|^2, 3 - |x|^2) on the unit square has eigenvalues in [1, 3]
    def g(x):
        r2 = float(x[0] ** 2 + x[1] ** 2)
        return np.array([[1.0 + r2, 0.0], [0.0, 3.0 - r2]])

    return builtin_separable(
        logistic_factor,
        g,
        dim=2,
        f_bounds=(1.0, 2.0),
        g_bounds=(1.0, 3.0),
        f_derivatives=logistic_factor_derivatives(),
        name="logistic_anisotropic",
    )


COEFFICIENT_BUILTINS = {
    "constant": _constant_field,
    "affine": _affine_field,
    "logistic_1d": _logistic_1d,
    "logistic_anisotropic": _logistic_anisotropic,
}


def coefficient_by_name(name: str, **params) -> CoefficientField:
    if name not in COEFFICIENT_BUILTINS:
        raise ValueError(f"unknown coefficient {name!r}; have {sorted(COEFFICIENT_BUILTINS)}")
    return COEFFICIENT_BUILTINS[name](**params)


def _sine_modes_datum(modes: Sequence = ((1, 1.0),)) -> InitialDatum:
    modes = tuple((int(j), float(c)) for j, c in modes)

    def u0(x):
        return sum(c * np.sin(j * np.pi * x) for j, c in modes)

    return InitialDatum(
        dim=1,
        sample=lambda z: u0,
        sine_modes=modes,
        smoothness="smooth (entire)",
        name="sine_modes",
    )


def _product_sine_datum(j: int = 1, amplitude: float = 1.0) -> InitialDatum:
    def u0(x):
        return amplitude * np.sin(j * np.pi * x[0]) * np.sin(j * np.pi * x[1])

    return InitialDatum(
        dim=2,
        sample=lambda z: u0,
        smoothness="smooth (entire)",
        name="product_sine",
    )


INITIAL_DATUM_BUILTINS = {
    "sine_modes": _sine_modes_datum,
    "product_sine": _product_sine_datum,
}


def initial_datum_by_name(name: str, **params) -> InitialDatum:
    if name not in INITIAL_DATUM_BUILTINS:
        raise ValueError(f"unknown initial datum {name!r}; have {sorted(INITIAL_DATUM_BUILTINS)}")
    return INITIAL_DATUM_BUILTINS[name](**params)
