"""Stochastic Galerkin discretization of random parabolic PDEs.

Chaos expansion in the random inputs, Galerkin finite elements in space,
A-stable rational schemes in time, and a harness that measures the
separate and joint convergence rates of the full discretization.
"""

__version__ = "0.1.0"

import logging

# silent by default: an application enables sgpde.* records by configuring logging
logging.getLogger("sgpde").addHandler(logging.NullHandler())

from .orthopoly import PolyFamily, hermite, jacobi, laguerre  # noqa: F401
from .pce import DistributionSpec, distribution, multi_index_set  # noqa: F401
