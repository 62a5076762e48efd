"""Experiment harness: references, error norms, sweeps, rate fits, reports.

A sweep refines the chaos order n, the mesh parameter m, and the number of
time steps one axis at a time (the other axes held at their finest values)
plus jointly, measures errors against a reference in the natural norm
(z-quadrature of spatial L2 norms), and fits log-log convergence slopes.
References are either analytic (constant-in-x 1D problems with sine data) or
deterministic collocation solves at the quadrature nodes on a strictly
finer space-time grid. Both hold their z-nodes and weights and measure a
state themselves: `error_norm_H` reconstructs the chaos state at the
reference's nodes and returns the reference's `distance`, which also gives
a collocation reference's two-grid estimate of its own error.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import time
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.sparse as sp

from . import __version__
from .coeffs import CoefficientField, InitialDatum, coefficient_by_name, initial_datum_by_name
from .orthopoly import FAMILY_PARAMS, PolyFamily
from .pce import DistributionSpec, multi_index_set, tensor_quad
from .sgsystem import (
    SgOperator,
    SgState,
    SpatialOperators,
    assemble_block_operator,
    initial_coefficients,
    reconstruct_at_nodes,
    spatial_operators,
)
from .spatial import FeSpace, SolverError, l2_error, make_fe_space, make_mesh, prolong, sampled
from .timestep import StepResidualError, crank_nicolson, evolve, scheme_by_name

__all__ = [
    "AnalyticReference",
    "CollocationReference",
    "ExperimentConfig",
    "ConvergenceReport",
    "OperatorCache",
    "RateFit",
    "analytic_reference",
    "build_reference",
    "collocation_reference",
    "error_norm_H",
    "fit_rate",
    "solve_points",
    "solve_single",
    "sweep",
    "load_config",
    "config_hash",
    "write_outputs",
]

log = logging.getLogger(__name__)

AXES = ("n", "m", "n_k")
MACHINE_ERROR_FLOOR = 100.0 * np.finfo(float).eps
REFERENCE_FLOOR_FACTOR = 10.0
SWEEP_FLOOR_FACTOR = 3.0
# Sweep points and collocation nodes on spaces of at most this many dofs are
# propagated through the spatial pencil instead of stepped. The crossover was
# measured on one BLAS thread: at 225 dofs (2D P2, m = 8) the dense eigh and its check cost
# 10-25 ms, more than the 16 Crank--Nicolson steps they replace (+11% on the
# whole solve), while at 121 dofs (2D P2, m = 6) and on every 1D acceptance
# space the pencil wins clearly.
SPECTRAL_NDOF_LIMIT = 200
# relative 2-norm gap allowed between a stepped first step and the spectral
# one-step map of the same block
FIRST_STEP_TOL = 1e-11


def _on_pencil(ops: SpatialOperators) -> bool:
    """Whether items on the space of `ops` are propagated through its pencil."""
    return ops.space.ndof <= SPECTRAL_NDOF_LIMIT


# --- references -----------------------------------------------------------
#
# A reference holds its z-nodes and weights, its own error estimate and a
# `distance(space, recon)`: the natural-norm distance
# sqrt(sum_i w_i |recon_i - u(z_i)|^2) between states recon (Q, ndof) on
# `space`, one row per node, and the solution it holds at its nodes.

@dataclass(frozen=True)
class AnalyticReference:
    """Exact solution of the constant-in-x 1D problem at the nodes of a z-grid.

    u(t, x, z) = sum_j c_j exp(-a(z) (j pi)^2 t) sin(j pi x), where a(z) is
    the scalar diffusivity factor; at the final time, node i holds
    sum_j amplitudes[i, j] sin(frequencies[j] x).
    """

    nodes: np.ndarray
    weights: np.ndarray
    frequencies: np.ndarray  # j pi
    amplitudes: np.ndarray  # (Q, modes): c_j exp(-a(z_i) (j pi)^2 t_final)
    est_error: float = 0.0  # exact: no error of its own

    def distance(self, space: FeSpace, recon: np.ndarray) -> float:
        """One stacked `l2_error` on the mesh of `space`, against the exact
        solution at every node and error point at once."""
        errors = l2_error(
            space, recon, lambda x: self.amplitudes @ np.sin(np.outer(self.frequencies, x))
        )
        return math.sqrt(float(self.weights @ (errors * errors)))


# the points at which `analytic_reference` checks that g is constant
_PROBES = np.array([[0.0], [0.23], [0.57], [0.91], [1.0]])
_PROBES.flags.writeable = False


def analytic_reference(
    dist: DistributionSpec, q: int, field: CoefficientField, u0: InitialDatum, t_final: float
) -> AnalyticReference:
    """Analytic reference for a constant-in-x 1D coefficient f(z) g on the
    q-node tensor Gauss grid of `dist`."""
    if field.dim != 1:
        raise ValueError("analytic reference needs a 1D coefficient")
    probes = sampled(field.spatial_part, _PROBES)
    if probes.max() - probes.min() > 1e-14 * max(1.0, abs(probes[0])):
        raise ValueError("analytic reference needs a constant-in-x coefficient")
    if not u0.sine_modes:
        raise ValueError("analytic reference needs Fourier sine initial data")
    g0 = float(probes[0])
    nodes, weights = tensor_quad(dist, q)
    a = field.factor_at(nodes) * g0
    j, c = (np.array(v, dtype=float) for v in zip(*u0.sine_modes))
    frequencies = j * math.pi
    amplitudes = c * np.exp(-np.outer(a, frequencies**2 * t_final))
    return AnalyticReference(nodes, weights, frequencies, amplitudes)


@dataclass(frozen=True)
class CollocationReference:
    """Fine deterministic solves at the z-quadrature nodes at the final time,
    on the space of `ops`."""

    nodes: np.ndarray
    weights: np.ndarray
    ops: SpatialOperators
    values: np.ndarray  # (Q, ndof_fine)
    est_error: float = 0.0

    def distance(self, space: FeSpace, recon: np.ndarray) -> float:
        """The states prolonged to the reference's space, measured in its
        mass matrix."""
        e = prolong(space, recon.T, self.ops.space) - self.values.T
        return math.sqrt(float(self.weights @ np.sum(e * (self.ops.mass @ e), axis=0)))


def collocation_reference(
    dist: DistributionSpec,
    q_ref: int,
    ops: SpatialOperators,
    n_steps: int,
    u0: InitialDatum,
    t_final: float,
) -> CollocationReference:
    """Independent Crank--Nicolson solves at each quadrature node on the
    space of `ops`.

    Node z_i is the scalar-diffusivity problem M w' = -f(z_i) K_g w from the
    checked projection `ops.project(u0(z_i))`, so each distinct spatial
    function of the datum is projected once per space; f is evaluated at
    all nodes in one call. Every node is one item of one `_propagate` call.
    A node whose datum or solve fails, or whose f(z_i) is not finite,
    raises with its index and z: a `SolverError` stays a `SolverError`,
    anything else becomes a `RuntimeError`.
    """
    t0 = time.perf_counter()
    nodes, weights = tensor_quad(dist, q_ref)
    factors = ops.field.factor_at(nodes)
    items = []
    for i, z in enumerate(nodes):
        name = f"collocation node {i} (z = {z})"
        try:
            items.append((ops, factors[i : i + 1], ops.project(u0.sample(z))[None, :], name))
        except SolverError as exc:
            raise SolverError(f"{name} failed: {exc}") from exc
        except Exception as exc:
            raise RuntimeError(f"{name} failed: {exc}") from exc
    values = np.concatenate(_propagate(crank_nicolson(), t_final, n_steps, items))
    log.debug(
        "collocation reference: Q=%d ndof=%d steps=%d wall_s=%.4f",
        len(nodes), ops.space.ndof, n_steps, time.perf_counter() - t0,
    )
    return CollocationReference(nodes, weights, ops, values)


def error_norm_H(dist: DistributionSpec, state: SgState, space: FeSpace, reference) -> float:
    """Natural-norm error: the chaos state reconstructed at the reference's
    nodes and measured by the reference's own `distance`."""
    return reference.distance(space, reconstruct_at_nodes(dist, state, reference.nodes))


# --- rate fitting ---------------------------------------------------------

@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    residual_rms: float
    stderr: float

    def to_dict(self) -> dict:
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "residual_rms": self.residual_rms,
            "stderr_95": 2.0 * self.stderr,
        }


def fit_rate(points) -> RateFit:
    """Least-squares slope of log(error) against log(h); needs >= 3 points."""
    pts = [(float(h), float(e)) for h, e in points]
    if len(pts) < 3:
        raise ValueError(f"need at least 3 admissible points, got {len(pts)}")
    logs_h = np.log([p[0] for p in pts])
    logs_e = np.log([p[1] for p in pts])
    slope, intercept = np.polyfit(logs_h, logs_e, 1)
    fitted = slope * logs_h + intercept
    residuals = logs_e - fitted
    rms = float(np.sqrt(np.mean(residuals**2)))
    denom = float(np.sum((logs_h - logs_h.mean()) ** 2))
    stderr = math.sqrt(np.sum(residuals**2) / (len(pts) - 2) / denom)
    return RateFit(float(slope), float(intercept), rms, float(stderr))


def _admissible(hs, errors, ref_floor: float, sweep_floor: float = 0.0):
    """Longest decreasing prefix of points clear of all error floors.

    A point is floored when it sits at 100x machine epsilon, within 10x of
    the reference's own estimated error, or within 3x of the best error the
    whole sweep attains (all three axes at their finest); fitting into any
    of those floors would bias the observed rate.
    """
    keep, flagged = [], []
    prev = math.inf
    for i, (h, e) in enumerate(zip(hs, errors)):
        if e <= MACHINE_ERROR_FLOOR:
            flagged.append((i, "at machine floor"))
            break
        if ref_floor > 0.0 and e <= REFERENCE_FLOOR_FACTOR * ref_floor:
            flagged.append((i, "near reference floor"))
            break
        if sweep_floor > 0.0 and e <= SWEEP_FLOOR_FACTOR * sweep_floor:
            flagged.append((i, "near sweep floor"))
            break
        if e >= prev:
            flagged.append((i, "not decreasing"))
            break
        keep.append(i)
        prev = e
    flagged.extend((j, "after break") for j in range(len(keep) + len(flagged), len(errors)))
    return keep, flagged


def half_split_slopes(hs, errors) -> tuple[float, float] | None:
    """Rates fitted on the coarse and fine halves of an axis, for detecting
    decay that accelerates under refinement; needs at least 4 points."""
    if len(hs) < 4:
        return None
    mid = (len(hs) + 1) // 2
    first = float(np.polyfit(np.log(hs[:mid]), np.log(errors[:mid]), 1)[0])
    second = float(np.polyfit(np.log(hs[mid - 1 :]), np.log(errors[mid - 1 :]), 1)[0])
    return first, second


# --- configuration --------------------------------------------------------

# the coarsest mesh m with an interior dof, per FE order: P1 on one cell has none
_LOWEST_M = {1: 2, 2: 1}
# bounds, in float64 entries (10^7 = 80 MB), on the largest dense arrays a
# sweep forms: the chaos basis on the tensor Gauss grid, q^N x d_n, and the
# collocation reference's node solutions, q_ref^N x ndof(m_ref)
MAX_CHAOS_BASIS_ENTRIES = 10**7
MAX_REFERENCE_ENTRIES = 10**7
# the keys the code reads from each dict of a config
_REFERENCE_KEYS = {"analytic": {"kind"}, "collocation": {"kind", "m_ref", "n_k_ref", "quad_order"}}
_TOLERANCE_KEYS = {
    **{axis: {"slope", "tol", "min_slope", "decreasing", "superalgebraic", "max_final_error"}
       for axis in AXES},
    "joint": {"allowed_increase"},
}
_CONFIG_DICT_KEYS = {
    "coefficient": {"name", "params"},
    "initial_datum": {"name", "params"},
    "geometry": {"dim", "fe_order"},
    "sweep": set(AXES),
    "output": {"csv_dir", "report"},
    "tolerances": set(_TOLERANCE_KEYS),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """The config keys of one experiment, checked when it is made: each value
    is read as its field's type and copied read-only (`_converted`), and a
    bad value raises a ValueError naming its key. What the checks build is
    kept in attributes that are not fields: `dist`, `field`, `u0` and
    `analytic` (the `AnalyticReference` of an analytic config, else None)."""

    distribution: tuple
    coefficient: dict
    initial_datum: dict
    geometry: dict
    sweep: dict
    scheme: str
    t_final: float
    quad_order: int
    reference: dict
    output: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    strict_reference: bool = True

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(self, f.name, _converted(f.name, f.type, getattr(self, f.name)))
        if not (math.isfinite(self.t_final) and self.t_final > 0.0):
            raise ValueError(f"t_final value {self.t_final!r} must be finite and positive")
        scheme_by_name(self.scheme)
        for key, known in _CONFIG_DICT_KEYS.items():
            _check_keys(key, getattr(self, key), known)
        for axis, tol in self.tolerances.items():
            _check_keys(f"tolerances.{axis}", tol, _TOLERANCE_KEYS[axis])
            for key, value in tol.items():
                if key in ("decreasing", "superalgebraic"):
                    ok, shown = isinstance(value, bool), "of type bool"
                else:
                    number = isinstance(value, (int, float)) and not isinstance(value, bool)
                    ok, shown = number and math.isfinite(value), "a finite number"
                    # below these bounds no sweep can meet the check
                    if ok and key in ("tol", "max_final_error"):
                        ok, shown = value >= 0.0, ">= 0"
                    elif ok and key == "allowed_increase":
                        ok, shown = value > -1.0, "> -1"
                if not ok:
                    raise ValueError(f"tolerances.{axis}.{key} value {value!r} must be {shown}")
            if ("slope" in tol) != ("tol" in tol):
                raise ValueError(f"tolerances.{axis} must give slope and tol together")
        for i, spec in enumerate(self.distribution):
            if not isinstance(spec, dict):
                raise ValueError(f"distribution[{i}] value {spec!r} must be of type dict")
        if self.geometry.get("dim") not in (1, 2):
            raise ValueError("geometry.dim must be 1 or 2")
        if self.geometry.get("fe_order") not in (1, 2):
            raise ValueError("geometry.fe_order must be 1 or 2")
        lowest_m = _LOWEST_M[self.geometry["fe_order"]]
        for axis, lowest in zip(AXES, (0, lowest_m, 1)):
            values = self.sweep.get(axis, [])
            if not (isinstance(values, tuple) and values):
                raise ValueError(f"sweep.{axis} must be a non-empty list")
            for v in values:
                _check_int(f"sweep.{axis}", v, lowest)
            if any(a >= b for a, b in zip(values, values[1:])):
                raise ValueError(f"sweep.{axis} must be strictly increasing")
        max_n = max(self.sweep["n"])
        if self.quad_order < 2 * max_n + 1:
            raise ValueError(
                f"quad_order {self.quad_order} too small for n = {max_n}; need >= {2 * max_n + 1}"
            )
        inputs = len(self.distribution)
        basis = self.quad_order**inputs * math.comb(inputs + max_n, max_n)
        if basis > MAX_CHAOS_BASIS_ENTRIES:
            raise ValueError(
                f"quad_order {self.quad_order} too large for N = {inputs} inputs and n = {max_n}: "
                f"the chaos basis on its grid has {basis} entries; need <= {MAX_CHAOS_BASIS_ENTRIES}"
            )
        kind = self.reference.get("kind")
        if kind not in _REFERENCE_KEYS:
            raise ValueError("reference.kind must be 'analytic' or 'collocation'")
        _check_keys("reference", self.reference, _REFERENCE_KEYS[kind])
        if kind == "collocation":
            for key, lowest in (("m_ref", lowest_m), ("n_k_ref", 1)):
                _check_int(f"reference.{key}", self.reference.get(key), lowest)
            if "quad_order" in self.reference:
                _check_int("reference.quad_order", self.reference["quad_order"], 1)
            m_ref = self.reference["m_ref"]
            nk_ref = self.reference["n_k_ref"]
            max_m, max_nk = max(self.sweep["m"]), max(self.sweep["n_k"])
            factor = 4 if self.strict_reference else 1
            if m_ref < factor * max_m or any(m_ref % m for m in self.sweep["m"]):
                raise ValueError(
                    f"reference m_ref = {m_ref} must be a multiple of every sweep m and "
                    f">= {factor} * max m = {factor * max_m}"
                )
            if nk_ref < factor * max_nk:
                raise ValueError(f"reference n_k_ref = {nk_ref} must be >= {factor} * max n_k")
            q_ref = self.reference.get("quad_order", self.quad_order)
            ndof = (self.geometry["fe_order"] * m_ref - 1) ** self.geometry["dim"]
            values = q_ref**inputs * ndof
            if values > MAX_REFERENCE_ENTRIES:
                raise ValueError(
                    f"reference quad_order {q_ref} and m_ref {m_ref} too large for N = {inputs} "
                    f"inputs: the reference has {values} entries; need <= {MAX_REFERENCE_ENTRIES}"
                )
        dist = _built(
            "distribution", lambda: DistributionSpec(tuple(map(_family, self.distribution)))
        )
        dim = self.geometry["dim"]
        field_ = _built("coefficient", lambda: _named(coefficient_by_name, self.coefficient))
        datum = _built("initial_datum", lambda: _named(initial_datum_by_name, self.initial_datum))
        for key, built in (("coefficient", field_), ("initial_datum", datum)):
            if built.dim != dim:
                raise ValueError(f"{key} {built.name!r} is {built.dim}D but geometry.dim is {dim}")
        analytic = None
        if kind == "analytic":
            analytic = _built("reference", lambda: analytic_reference(
                dist, self.quad_order, field_, datum, self.t_final
            ))
        for name, value in dict(dist=dist, field=field_, u0=datum, analytic=analytic).items():
            object.__setattr__(self, name, value)

    def to_canonical_json(self) -> str:
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _family(spec: dict):
    """The polynomial family of one distribution component."""
    kind = spec.get("kind")
    if kind not in FAMILY_PARAMS:
        raise ValueError(f"unknown distribution component {kind!r}")
    params = FAMILY_PARAMS[kind]
    _check_keys(kind, spec, {"kind", *params})
    return PolyFamily(kind, *(spec.get(p, 0.0) for p in params))


def _named(by_name: Callable, spec: dict):
    """The builtin that a coefficient or initial-datum dict names."""
    return by_name(spec["name"], **spec.get("params", {}))


def _built(key: str, build: Callable):
    """What `build` makes of config key `key`; a failure names the key."""
    try:
        return build()
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{key}: {exc}") from exc


def _check_keys(key: str, given: dict, known) -> None:
    """Reject a config dict `key` that is no dict or holds keys the code does not read."""
    if not isinstance(given, dict):
        raise ValueError(f"{key} value {given!r} must be of type dict")
    unknown = sorted(set(given) - set(known))
    if unknown:
        raise ValueError(f"unknown {key} keys: {unknown}")


def _check_int(key: str, value, lowest: int) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < lowest:
        raise ValueError(f"{key} value {value!r} must be an integer >= {lowest}")


def _converted(key: str, kind: str, value):
    """A top-level config value read as its field's annotated type `kind`.

    JSON has no tuple, and a number may come as an int or a float: a list
    or a tuple becomes a tuple, a number a float, and an integral number an
    int. A dict or a list is copied read-only, down to its nested values
    (`_frozen`). A value that does not fit its type (20.5 for an int,
    "false" for a bool, a string for a dict) raises a ValueError naming the
    key.
    """
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind == "float" and number:
        return float(value)
    if kind == "int" and number and (isinstance(value, int) or value.is_integer()):
        return int(value)
    json_type = {"tuple": (list, tuple), "dict": dict, "str": str, "bool": bool}.get(kind)
    if json_type is not None and isinstance(value, json_type):
        return _frozen(value)
    shown = "list" if kind == "tuple" else kind
    raise ValueError(f"{key} value {value!r} must be of type {shown}")


class _ReadOnlyDict(dict):
    """A dict that refuses every change; JSON still encodes it as a dict."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("a config value is read-only; make a new config with dataclasses.replace")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):  # copy and pickle rebuild it whole, not key by key
        return _ReadOnlyDict, (dict(self),)


def _frozen(value):
    """A read-only copy of a config value: each nested dict becomes a
    `_ReadOnlyDict` and each list a tuple."""
    if isinstance(value, dict):
        return _ReadOnlyDict({k: _frozen(v) for k, v in value.items()})
    if isinstance(value, (list, tuple)):
        return tuple(map(_frozen, value))
    return value


def load_config(source) -> ExperimentConfig:
    """The config in the JSON file at a path, or in a dict; the config reads
    each value as its field's type (see `_converted`) and checks it as it is
    made."""
    if isinstance(source, (str, Path)):
        raw = json.loads(Path(source).read_text())
    elif isinstance(source, dict):
        raw = source
    else:
        raise TypeError("config source must be a path or a dict")
    keys = fields(ExperimentConfig)
    _check_keys("config", raw, {f.name for f in keys})
    missing = [
        f.name for f in keys
        if f.name not in raw and f.default is MISSING and f.default_factory is MISSING
    ]
    if missing:
        raise ValueError(f"missing config keys: {missing}")
    return ExperimentConfig(**{f.name: raw[f.name] for f in keys if f.name in raw})


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(cfg.to_canonical_json().encode()).hexdigest()


# --- the solve pipeline ---------------------------------------------------

class OperatorCache:
    """The solve pipeline of one config: spatial operators per mesh, block
    operators and initial states, each built once from what the config
    built and shared across sweep points and the collocation reference.

    The operator G (x) K_g is built by factors: the chaos matrix G and its
    checked eigendecomposition once per chaos order n, the spatial
    operators once per mesh m. Each (n, m) pair only joins the two."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self._ops = {}
        self._chaos = {}
        self._spatial = {}

    def spatial(self, m: int) -> SpatialOperators:
        """The spatial operators of the mesh with parameter m."""
        if m not in self._spatial:
            geometry = self.cfg.geometry
            space = make_fe_space(make_mesh(geometry["dim"], m), geometry["fe_order"])
            self._spatial[m] = spatial_operators(space, self.cfg.field)
        return self._spatial[m]

    def space(self, m: int) -> FeSpace:
        return self.spatial(m).space

    def operator(self, n: int, m: int) -> tuple[SgOperator, SgState]:
        key = (n, m)
        if key not in self._ops:
            cfg, ops = self.cfg, self.spatial(m)
            mis = multi_index_set(cfg.dist.N, n)
            if n in self._chaos:
                op = replace(self._chaos[n], spatial=ops)
            else:
                op = self._chaos[n] = assemble_block_operator(cfg.dist, mis, ops, cfg.quad_order)
            state0 = initial_coefficients(cfg.dist, mis, cfg.u0, ops, cfg.quad_order)
            self._ops[key] = (op, state0)
        return self._ops[key]


def _block_diagonal(blocks) -> sp.csr_matrix:
    """The block-diagonal CSR matrix of square CSR blocks, joined from their
    arrays: each block keeps its stored entries in their order."""
    rows = np.cumsum([0] + [b.shape[0] for b in blocks])
    stored = np.cumsum([0] + [b.nnz for b in blocks])
    data = np.concatenate([b.data for b in blocks])
    indices = np.concatenate([b.indices + r for b, r in zip(blocks, rows)])
    indptr = np.concatenate([[0]] + [b.indptr[1:] + z for b, z in zip(blocks, stored)])
    return sp.csr_matrix((data, indices, indptr), shape=(rows[-1], rows[-1]))


def _system_matrices(items) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """The block-diagonal mass and stiffness of propagation items (see
    `_propagate`): row i of an item is one block, which stores the entries
    of its M, and lam_i times the entries of its K_g."""
    spatial = [ops for ops, lam, _, _ in items for _ in lam]
    stiffness = _block_diagonal([s.k_g for s in spatial])
    stiffness.data *= np.concatenate([np.repeat(lam, ops.k_g.nnz) for ops, lam, _, _ in items])
    return _block_diagonal([s.mass for s in spatial]), stiffness


def _stepped(scheme, t_final: float, n_steps: int, items) -> list[np.ndarray]:
    """Step the items as one block-diagonal system (`_system_matrices`)
    through the library's one `evolve`, with one residual block per item;
    returns each item's final rows. A failure names its item."""
    mass, stiffness = _system_matrices(items)
    sizes = [w0.size for _, _, w0, _ in items]
    start = np.concatenate([w0.reshape(-1) for _, _, w0, _ in items])
    try:
        w = evolve(scheme, t_final, n_steps, mass, stiffness, start, blocks=sizes)
    except StepResidualError as exc:
        raise SolverError(f"{items[exc.block][3]} failed: {exc}") from exc
    except SolverError as exc:
        raise SolverError(f"{', '.join(item[3] for item in items)} failed: {exc}") from exc
    parts = np.split(w, np.cumsum(sizes)[:-1])
    return [part.reshape(item[2].shape) for item, part in zip(items, parts)]


def _spectral(scheme, t_final: float, n_steps: int, items) -> tuple[list[np.ndarray], tuple]:
    """Propagate the items through their spaces' pencils (`Pencil.propagate`),
    and step the stiffest row (largest lam) of each once through `_stepped`
    as a check against the pencil's one-step map. Returns the final rows and
    the largest pencil defects and relative first-step gap; a failed pencil
    or a gap above FIRST_STEP_TOL raises SolverError naming its item."""
    tau = t_final / n_steps
    finals, stiffest = [], []
    for ops, lam, w0, name in items:
        try:
            finals.append(ops.pencil.propagate(scheme.r, tau, n_steps, lam, w0))
        except SolverError as exc:
            raise SolverError(f"{name} failed: {exc}") from exc
        k = int(np.argmax(lam))
        stiffest.append((ops, lam[k : k + 1], w0[k : k + 1], name))
    worst = 0.0
    for (ops, lam, w0, name), got in zip(stiffest, _stepped(scheme, tau, 1, stiffest)):
        want = ops.pencil.propagate(scheme.r, tau, 1, lam, w0)
        diff, scale = float(np.linalg.norm(got - want)), float(np.linalg.norm(got))
        if not diff <= FIRST_STEP_TOL * scale:  # "not <=" so that NaN fails too
            raise SolverError(
                f"{name} failed: its first step differs from the spectral one-step map "
                f"by {diff:.3e} (stepped norm {scale:.3e})"
            )
        worst = max(worst, diff / scale if scale else 0.0)
    pencils = [ops.pencil for ops, _, _, _ in items]
    return finals, (max(p.orth for p in pencils), max(p.res for p in pencils), worst)


def _propagate(scheme, t_final: float, n_steps: int, items) -> list[np.ndarray]:
    """The library's one propagation path: the final rows of every item
    after n_steps scheme steps of size t_final / n_steps.

    An item (ops, lam, w0, name) holds rows w_i of w0 (k, ndof) on the space
    of the `SpatialOperators` ops, each evolving under M w' = -lam_i K_g w,
    and the name that its failure carries. Items on spaces of at most
    SPECTRAL_NDOF_LIMIT dofs go through their pencils (`_spectral`), the
    others are stepped together (`_stepped`); each path logs one DEBUG
    record. A non-finite lam fails, naming its item, before any work.
    """
    for _, lam, _, name in items:
        if not np.isfinite(lam).all():
            raise SolverError(f"{name} failed: non-finite diffusivity factor in {lam}")
    finals = [None] * len(items)
    on_pencil = [_on_pencil(it[0]) for it in items]
    for spectral in (True, False):
        chosen = [i for i, p in enumerate(on_pencil) if p == spectral]
        if not chosen:
            continue
        t0 = time.perf_counter()
        batch = [items[i] for i in chosen]
        record = "propagation: path=%s steps=%d items=%s unknowns=%d wall_s=%.6f"
        if spectral:
            done, extra = _spectral(scheme, t_final, n_steps, batch)
            record += " pencil_orth=%.3e pencil_rel_res=%.3e first_step_rel_diff=%.3e"
        else:
            done, extra = _stepped(scheme, t_final, n_steps, batch), ()
        for i, final in zip(chosen, done):
            finals[i] = final
        log.debug(
            record, "spectral" if spectral else "stepped", n_steps, [it[3] for it in batch],
            sum(it[2].size for it in batch), time.perf_counter() - t0, *extra,
        )
    return finals


def solve_points(cache: OperatorCache, points) -> dict[tuple, tuple[SgState, float]]:
    """Run every distinct listed (n, m, n_k) to the final time.

    The points that share n_k are one `_propagate` call, one item per point:
    its chaos modes rotated by V^T, which decouples them, with the
    eigenvalues lam of G. Each final state is rotated back to the chaos
    basis; a failure names its (n, m, n_k).

    Returns the final chaos state of each distinct point and its wall time:
    its n_k's time (operators, pencils, propagation and rotations) split
    over that n_k's points in proportion to their unknowns d_n * ndof.
    """
    by_steps: dict[int, list] = {}
    for point in dict.fromkeys(tuple(p) for p in points):
        by_steps.setdefault(point[2], []).append(point)
    scheme = scheme_by_name(cache.cfg.scheme)
    solved = {}
    for n_k, batch in by_steps.items():
        t0 = time.perf_counter()
        built = [cache.operator(n, m) for n, m, _ in batch]
        items = [
            (op.spatial, op.eigvals, op.to_system(s0.coeffs), f"sweep point (n, m, n_k) = {point}")
            for point, (op, s0) in zip(batch, built)
        ]
        finals = _propagate(scheme, cache.cfg.t_final, n_k, items)
        finals = [op.to_chaos(w) for (op, _), w in zip(built, finals)]
        wall = time.perf_counter() - t0
        sizes = [op.size for op, _ in built]
        record = "solve batch: n_k=%d points=%s unknowns=%d wall_s=%.6f"
        log.debug(record, n_k, batch, sum(sizes), wall)
        for point, (_, state0), final, size in zip(batch, built, finals, sizes):
            solved[point] = SgState(final, state0.mis), wall * size / sum(sizes)
    return solved


def solve_single(cache: OperatorCache, n: int, m: int, n_k: int) -> tuple[SgState, FeSpace]:
    """Run one configuration to the final time (see `solve_points`); returns
    the final chaos state and its space."""
    state, _ = solve_points(cache, [(n, m, n_k)])[n, m, n_k]
    return state, cache.space(m)


def build_reference(cache: OperatorCache, estimate_error: bool = True):
    """The reference of the cache's config: the analytic reference the
    config built, or a collocation on the cache's spaces. A collocation
    reference's own error is estimated by the distance to the collocation
    on the mesh m_ref // 2 with half the steps."""
    cfg = cache.cfg
    if cfg.analytic is not None:
        return cfg.analytic
    m_ref = cfg.reference["m_ref"]
    nk_ref = cfg.reference["n_k_ref"]
    q_ref = cfg.reference.get("quad_order", cfg.quad_order)
    coarse_m = max(m_ref // 2, 1)
    if estimate_error and m_ref % coarse_m:
        raise ValueError(
            f"reference m_ref = {m_ref} cannot take the two-grid error estimate: its mesh "
            f"m = m_ref // 2 = {coarse_m} does not divide m_ref; use an even m_ref"
        )
    if estimate_error and coarse_m < _LOWEST_M[cfg.geometry["fe_order"]]:
        raise ValueError(
            f"reference m_ref = {m_ref} cannot take the two-grid error estimate: its mesh "
            f"m = m_ref // 2 = {coarse_m} has no interior dof; use m_ref >= 4"
        )
    ref = collocation_reference(cfg.dist, q_ref, cache.spatial(m_ref), nk_ref, cfg.u0, cfg.t_final)
    if not estimate_error:
        return ref
    half = collocation_reference(
        cfg.dist, q_ref, cache.spatial(coarse_m), max(nk_ref // 2, 1), cfg.u0, cfg.t_final
    )
    return replace(ref, est_error=ref.distance(half.ops.space, half.values))


# --- sweeping and reporting ------------------------------------------------

@dataclass
class AxisResult:
    axis: str
    values: list
    hs: list
    errors: list
    runtimes: list
    cache_hits: list
    fit: RateFit | None
    local_slopes: list
    half_split: tuple | None
    admissible: list
    flagged: list

    def to_dict(self) -> dict:
        return {
            "axis": self.axis,
            "points": [
                {"value": v, "h": h, "error": e, "runtime_s": r, "cache_hit": c}
                for v, h, e, r, c in zip(
                    self.values, self.hs, self.errors, self.runtimes, self.cache_hits
                )
            ],
            "fit": self.fit.to_dict() if self.fit else None,
            "local_slopes": self.local_slopes,
            "half_split_slopes": list(self.half_split) if self.half_split else None,
            "admissible": self.admissible,
            "flagged": self.flagged,
        }


@dataclass
class ConvergenceReport:
    config_digest: str
    version: str
    axes: dict
    joint: list
    checks: dict
    passed: bool
    reference_error_estimate: float

    def to_dict(self) -> dict:
        return {
            "config_hash": self.config_digest,
            "version": self.version,
            "axes": {k: v.to_dict() for k, v in self.axes.items()},
            "joint": self.joint,
            "checks": self.checks,
            "passed": self.passed,
            "reference_error_estimate": self.reference_error_estimate,
        }


def _axis_h(axis: str, value: int, t_final: float) -> float:
    return t_final / value if axis == "n_k" else 1.0 / value


def _joint_points(cfg) -> list[tuple]:
    """The joint table's (n, m, n_k): level i takes each axis's i-th value,
    or its last when the axis is shorter."""
    axes = [cfg.sweep[k] for k in AXES]
    levels = max(len(v) for v in axes)
    return [tuple(v[min(i, len(v) - 1)] for v in axes) for i in range(levels)]


def _axis_points(cfg, axis: str) -> list[tuple]:
    """The (n, m, n_k) of one axis: its values, the other axes at their finest."""
    finest = {k: max(cfg.sweep[k]) for k in AXES}
    return [tuple(v if k == axis else finest[k] for k in AXES) for v in cfg.sweep[axis]]


def _measure(cache, reference, tables: dict) -> dict:
    """Solve and measure every distinct point of the sweep's tables once;
    `tables` maps each table to its (n, m, n_k), in listing order.

    Returns, per table, the (point, error, runtime_s, cache_hit) of each of
    its points. A point listed earlier is a cache hit with runtime 0.0, so
    the runtimes add up to the solve and error work done. Logs the solve and
    error times of each distinct point at DEBUG."""
    solved = solve_points(cache, [p for points in tables.values() for p in points])
    errors = {}
    measured = {}
    for name, points in tables.items():
        measured[name] = []
        for point in points:
            if point in errors:
                measured[name].append((point, errors[point], 0.0, True))
                continue
            state, solve_s = solved[point]
            t0 = time.perf_counter()
            errors[point] = error_norm_H(cache.cfg.dist, state, cache.space(point[1]), reference)
            error_s = time.perf_counter() - t0
            log.debug(
                "sweep point: n=%d m=%d n_k=%d solve_s=%.6f error_s=%.6f",
                *point, solve_s, error_s,
            )
            measured[name].append((point, errors[point], solve_s + error_s, False))
    return measured


def _axis_result(cfg, axis: str, rows: list, ref_floor: float, sweep_floor: float) -> AxisResult:
    values = list(cfg.sweep[axis])
    _, errors, runtimes, hits = (list(column) for column in zip(*rows))
    hs = [_axis_h(axis, v, cfg.t_final) for v in values]
    keep, flagged = _admissible(hs, errors, ref_floor, sweep_floor)
    fit = None
    if len(keep) >= 3:
        fit = fit_rate([(hs[i], errors[i]) for i in keep])
    local = [
        math.log(errors[i] / errors[j]) / math.log(hs[i] / hs[j])
        for i, j in zip(keep, keep[1:])
    ]
    return AxisResult(
        axis, values, hs, errors, runtimes, hits, fit, local,
        half_split_slopes(hs, errors), keep, flagged,
    )


def _evaluate_checks(cfg, axes: dict, joint: list) -> dict:
    checks = {}
    for axis, tol in cfg.tolerances.items():
        if axis == "joint":
            ok = all(
                joint[i + 1]["error"] <= joint[i]["error"] * (1.0 + tol.get("allowed_increase", 0.05))
                for i in range(len(joint) - 1)
            )
            checks["joint_monotone"] = ok
            continue
        result = axes[axis]
        if "slope" in tol:
            ok = result.fit is not None and abs(result.fit.slope - tol["slope"]) <= tol["tol"]
            checks[f"{axis}_slope"] = ok
        if "min_slope" in tol:
            ok = result.fit is not None and result.fit.slope >= tol["min_slope"]
            checks[f"{axis}_min_slope"] = ok
        if tol.get("decreasing"):
            checks[f"{axis}_decreasing"] = all(
                b < a for a, b in zip(result.errors, result.errors[1:])
            )
        if tol.get("superalgebraic"):
            # accelerating decay: the rate fitted on the fine half exceeds
            # the rate on the coarse half (robust to parity staircasing)
            hs = result.half_split
            checks[f"{axis}_superalgebraic"] = hs is not None and hs[1] > hs[0]
        if "max_final_error" in tol:
            checks[f"{axis}_final_error"] = result.errors[-1] <= tol["max_final_error"]
    return checks


def sweep(cfg: ExperimentConfig) -> ConvergenceReport:
    """Run the full per-axis and joint refinement study for one configuration."""
    cache = OperatorCache(cfg)
    reference = build_reference(cache)
    # the joint table is listed first: its finest level is the sweep floor
    # used to keep per-axis fits clear of the other axes' errors
    tables = {"joint": _joint_points(cfg), **{axis: _axis_points(cfg, axis) for axis in AXES}}
    measured = _measure(cache, reference, tables)
    joint = [
        dict(level=i, n=n, m=m, n_k=n_k, error=err, runtime_s=runtime, cache_hit=hit)
        for i, ((n, m, n_k), err, runtime, hit) in enumerate(measured["joint"])
    ]
    sweep_floor = joint[-1]["error"]
    axes = {
        axis: _axis_result(cfg, axis, measured[axis], reference.est_error, sweep_floor)
        for axis in AXES
    }
    checks = _evaluate_checks(cfg, axes, joint)
    passed = all(checks.values()) if checks else True
    return ConvergenceReport(
        config_digest=config_hash(cfg),
        version=__version__,
        axes=axes,
        joint=joint,
        checks=checks,
        passed=passed,
        reference_error_estimate=reference.est_error,
    )


def write_outputs(cfg: ExperimentConfig, report: ConvergenceReport) -> list[str]:
    """Write per-axis and joint CSV tables plus the JSON report; returns paths."""
    written = []
    csv_dir = cfg.output.get("csv_dir")
    if csv_dir:
        out = Path(csv_dir)
        out.mkdir(parents=True, exist_ok=True)
        tables = {a: zip(r.values, r.errors, r.runtimes) for a, r in report.axes.items()}
        tables["joint"] = ((row["level"], row["error"], row["runtime_s"]) for row in report.joint)
        for axis, rows in tables.items():
            path = out / f"axis_{axis}.csv"
            with open(path, "w", newline="\n") as fh:
                fh.write("axis,value,error,runtime_s\n")
                for v, e, r in rows:
                    fh.write(f"{axis},{v},{e!r},{r:.6f}\n")
            written.append(str(path))
    report_path = cfg.output.get("report")
    if report_path:
        Path(report_path).parent.mkdir(parents=True, exist_ok=True)
        with open(report_path, "w", newline="\n") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(str(report_path))
    return written
