"""Random diffusion coefficient fields and initial data.

A coefficient field maps a random parameter z in R^N and a spatial point x
to a scalar (1D) or a Hermitian 2x2 matrix (2D). Every field is separable,
value = f(z) * g(x): `CoefficientField` holds the two factors, its value is
their product, and the library assembles the spatial matrix of g once per
space. Both factors are functions over arrays, called once per grid: f of
all the nodes of a z-grid, g of all the points of an element rule (see
`spatial`). The library declares no ellipticity bounds: the tests hold
the bounds of each built-in and check them by sampling.

A config's numbers are read by `config_number` and `config_integer`,
shared with the harness and `orthopoly`, when its field or datum is
built: a constant's value must be finite and > 0, its dim 1 or 2, a sine
mode index an integer >= 1, and an amplitude finite.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "config_number",
    "config_integer",
    "CoefficientField",
    "InitialDatum",
    "builtin_separable",
    "logistic_factor",
    "coefficient_by_name",
    "initial_datum_by_name",
    "COEFFICIENT_BUILTINS",
]


@dataclass(frozen=True)
class CoefficientField:
    """Diffusion coefficient M(z, x) = f(z) g(x); see the module docstring.

    `z_factor` is the scalar f: it takes the nodes of a z-grid, (Q, N),
    and returns the (Q,) values at them (`factor_at` checks the shape).
    `spatial_part` is the spatial g: it takes points (n_points, dim) and
    returns (n_points,) scalars in 1D, and in 2D (n_points, 2, 2) Hermitian
    matrices or (n_points,) scalars; a scalar, or in 2D a constant 2x2
    matrix, stands for the same value at every point.
    """

    dim: int
    z_factor: Callable
    spatial_part: Callable
    name: str = ""

    def factor_at(self, nodes: np.ndarray) -> np.ndarray:
        """f at the nodes (Q, N) of a z-grid, from one call of `z_factor`;
        any shape of its values but (Q,) raises ValueError naming (Q,)."""
        vals = np.asarray(self.z_factor(nodes), dtype=float)
        if vals.shape != (len(nodes),):
            raise ValueError(f"z_factor: expected shape ({len(nodes)},), got {vals.shape}")
        return vals


@dataclass(frozen=True)
class InitialDatum:
    """Map from the random parameter to a spatial function, with metadata.

    `sample(z)` takes one node z (N,) and returns a spatial function of the
    points (n_points, dim) that gives their (n_points,) values, or one
    scalar for all. `sine_modes` (1D only) lists (j, c_j) pairs of
    sin(j pi x) components when the datum is a deterministic Fourier sine
    sum, enabling analytic references.
    """

    dim: int
    sample: Callable
    sine_modes: tuple = ()
    name: str = ""


def _logistic(z):
    """1 / (1 + exp(-z)) without overflow: with e = exp(-|z|) it is 1 / (1 + e)
    for z >= 0 and e / (1 + e) below. A scalar z gives a NumPy scalar."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0, e) / (1.0 + e)


def logistic_factor(z):
    """1 / (1 + exp(-z)) + 1, values in (1, 2), all derivatives bounded."""
    return _logistic(z) + 1.0


def builtin_separable(f: Callable, g: Callable, *, dim: int = 1, name: str = "") -> CoefficientField:
    """Separable field value = f(z) g(x).

    f reads the first input only: it maps an array of z_1 values to the
    array of its values, of the same shape. g is the `spatial_part`.
    """
    return CoefficientField(
        dim=dim,
        z_factor=lambda z: f(np.asarray(z, dtype=float)[:, 0]),
        spatial_part=g,
        name=name,
    )


# --- config values -------------------------------------------------------

def config_number(key: str, value, above: float = -math.inf) -> float:
    """A config number: a real, not a bool, finite and > `above`."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and above < value < math.inf):  # a NaN fails both comparisons
        shown = "" if above == -math.inf else f" > {above:g}"
        raise ValueError(f"{key} value {value!r} must be a finite number{shown}")
    return float(value)


def config_integer(key: str, value, lowest: int = 1, highest: float = math.inf) -> int:
    """A config integer: integral, not a bool, and `lowest` <= value <= `highest`."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not (integral and lowest <= value <= highest):
        shown = "" if highest == math.inf else f" and <= {highest}"
        raise ValueError(f"{key} value {value!r} must be an integer >= {lowest}{shown}")
    return int(value)


# --- named built-ins -----------------------------------------------------

def _constant_field(value: float = 1.0, dim: int = 1) -> CoefficientField:
    value = config_number("constant", value, 0.0)
    dim = config_integer("constant dim", dim, 1, 2)
    return builtin_separable(
        np.ones_like,
        (lambda x: np.full(len(x), value)) if dim == 1
        else (lambda x: value * np.broadcast_to(np.eye(2), (len(x), 2, 2))),
        dim=dim,
        name=f"constant({value})",
    )


def _logistic_1d() -> CoefficientField:
    return builtin_separable(
        logistic_factor,
        lambda x: np.ones(len(x)),
        dim=1,
        name="logistic_1d",
    )


def _logistic_anisotropic() -> CoefficientField:
    # diag(1 + |x|^2, 3 - |x|^2) on the unit square has eigenvalues in [1, 3]
    def g(x):
        r2 = x[:, 0] ** 2 + x[:, 1] ** 2
        vals = np.zeros((len(x), 2, 2))
        vals[:, 0, 0], vals[:, 1, 1] = 1.0 + r2, 3.0 - r2
        return vals

    return builtin_separable(
        logistic_factor,
        g,
        dim=2,
        name="logistic_anisotropic",
    )


COEFFICIENT_BUILTINS = {
    "constant": _constant_field,
    "logistic_1d": _logistic_1d,
    "logistic_anisotropic": _logistic_anisotropic,
}


def coefficient_by_name(name: str, **params) -> CoefficientField:
    if name not in COEFFICIENT_BUILTINS:
        raise ValueError(f"unknown coefficient {name!r}; have {sorted(COEFFICIENT_BUILTINS)}")
    return COEFFICIENT_BUILTINS[name](**params)


def _sine_modes_datum(modes: Sequence = ((1, 1.0),)) -> InitialDatum:
    modes = tuple((config_integer("sine_modes mode", j), config_number("sine_modes amplitude", c))
                  for j, c in modes)
    if not modes:
        raise ValueError("sine_modes modes must hold at least one [j, amplitude] pair")

    def u0(x):
        return sum(c * np.sin(j * np.pi * x[:, 0]) for j, c in modes)

    return InitialDatum(
        dim=1,
        sample=lambda z: u0,
        sine_modes=modes,
        name="sine_modes",
    )


def _product_sine_datum(j: int = 1, amplitude: float = 1.0) -> InitialDatum:
    j = config_integer("product_sine j", j)
    amplitude = config_number("product_sine amplitude", amplitude)

    def u0(x):
        return amplitude * np.sin(j * np.pi * x[:, 0]) * np.sin(j * np.pi * x[:, 1])

    return InitialDatum(
        dim=2,
        sample=lambda z: u0,
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
