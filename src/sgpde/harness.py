"""Experiment harness: references, error norms, sweeps, rate fits, reports.

A sweep refines the chaos order n, the mesh parameter m, and the number of
time steps one axis at a time (the other axes held at their finest values)
plus jointly, measures errors against a reference in the natural norm
(z-quadrature of spatial L2 norms), and fits log-log convergence slopes.
References are either analytic (separable 1D problems with sine data) or
deterministic collocation solves at the quadrature nodes on a strictly
finer space-time grid.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .coeffs import CoefficientField, InitialDatum, coefficient_by_name, initial_datum_by_name
from .orthopoly import hermite, jacobi, laguerre
from .pce import DistributionSpec, eigenvalue_floor, multi_index_set, tensor_quad, triple_products
from .sgsystem import (
    SgOperator,
    SgState,
    _node_stiffness,
    assemble_block_operator,
    initial_coefficients,
    reconstruct_at_nodes,
)
from .spatial import (
    FeSpace,
    SolverError,
    _checked_solve,
    assemble_mass,
    assemble_stiffness,
    l2_error,
    load_vector,
    make_fe_space,
    make_mesh,
    prolong,
)
from .timestep import a_stability_probe, crank_nicolson, evolve, make_uniform_grid, scheme_by_name

__all__ = [
    "AnalyticReference",
    "CollocationReference",
    "ExperimentConfig",
    "ConvergenceReport",
    "OperatorCache",
    "RateFit",
    "analytic_reference",
    "collocation_reference",
    "error_norm_H",
    "fit_rate",
    "solve_single",
    "sweep",
    "load_config",
    "config_hash",
]

log = logging.getLogger(__name__)

MACHINE_ERROR_FLOOR = 100.0 * np.finfo(float).eps
REFERENCE_FLOOR_FACTOR = 10.0
SWEEP_FLOOR_FACTOR = 3.0


# --- references -----------------------------------------------------------

@dataclass(frozen=True)
class AnalyticReference:
    """Exact solution of the separable constant-in-x 1D problem.

    u(t, x, z) = sum_j c_j exp(-a(z) (j pi)^2 t) sin(j pi x), where a(z)
    is the scalar diffusivity factor.
    """

    diffusivity: Callable
    sine_modes: tuple
    t_final: float

    def solution(self, z, t: float | None = None) -> Callable:
        t = self.t_final if t is None else t
        a = float(self.diffusivity(z))
        modes = [(j, c * math.exp(-a * (j * math.pi) ** 2 * t)) for j, c in self.sine_modes]

        def u(x):
            return sum(c * math.sin(j * math.pi * x) for j, c in modes)

        return u


def analytic_reference(field: CoefficientField, u0: InitialDatum, t_final: float) -> AnalyticReference:
    """Analytic reference for a z-separable, constant-in-x 1D coefficient."""
    if field.dim != 1 or not field.separable:
        raise ValueError("analytic reference needs a separable 1D coefficient")
    g = field.spatial_part
    probes = [g(x) for x in (0.0, 0.23, 0.57, 0.91, 1.0)]
    if max(probes) - min(probes) > 1e-14 * max(1.0, abs(probes[0])):
        raise ValueError("analytic reference needs a constant-in-x coefficient")
    if not u0.sine_modes:
        raise ValueError("analytic reference needs Fourier sine initial data")
    g0 = float(probes[0])
    return AnalyticReference(
        diffusivity=lambda z, zf=field.z_factor: zf(z) * g0,
        sine_modes=u0.sine_modes,
        t_final=t_final,
    )


@dataclass(frozen=True)
class CollocationReference:
    """Fine deterministic solves at the z-quadrature nodes at the final time."""

    dist: DistributionSpec
    nodes: np.ndarray
    weights: np.ndarray
    space: FeSpace
    mass: object  # fine mass matrix, reused by the norm
    values: np.ndarray  # (Q, ndof_fine)
    t_final: float
    est_error: float = 0.0


def collocation_reference(
    dist: DistributionSpec,
    q_ref: int,
    space: FeSpace,
    n_steps: int,
    field: CoefficientField,
    u0: InitialDatum,
    t_final: float,
) -> CollocationReference:
    """Independent Crank--Nicolson solves at each quadrature node.

    A separable field f(z) g(x) assembles K_g once and node z_i steps
    f(z_i) K_g; any other field is assembled at each node. The initial
    datum is projected once per distinct spatial function it samples to.
    A node whose solve fails raises with its index and z: a `SolverError`
    stays a `SolverError`, anything else becomes a `RuntimeError`.
    """
    t0 = time.perf_counter()
    nodes, weights = tensor_quad(dist, q_ref)
    grid = make_uniform_grid(t_final, n_steps)
    mass = assemble_mass(space)
    scheme = crank_nicolson()
    stiffness_at = _node_stiffness(space, field)
    starts: dict = {}  # spatial function -> its L2 projection
    values = np.empty((len(nodes), space.ndof))
    for i, z in enumerate(nodes):
        try:
            f = u0.sample(z)
            if f not in starts:
                starts[f] = _checked_solve(mass, load_vector(space, f), 1e-10)
            values[i] = evolve(scheme, grid, mass, stiffness_at(z), starts[f])
        except SolverError as exc:
            raise SolverError(f"collocation node {i} (z = {z}) failed: {exc}") from exc
        except Exception as exc:
            raise RuntimeError(f"collocation node {i} (z = {z}) failed: {exc}") from exc
    log.debug(
        "collocation reference: path=%s Q=%d ndof=%d steps=%d wall_s=%.4f",
        "separable" if field.separable else "per-node",
        len(nodes), space.ndof, n_steps, time.perf_counter() - t0,
    )
    return CollocationReference(dist, nodes, weights, space, mass, values, t_final)


def _distance(ref: CollocationReference, lifted: np.ndarray) -> float:
    """Natural-norm distance sqrt(sum_i w_i |lifted_i - values_i|_M^2) between
    the reference and states on its space, one column per reference node."""
    e = lifted - ref.values.T
    return math.sqrt(float(ref.weights @ np.sum(e * (ref.mass @ e), axis=0)))


def _with_error_estimate(
    ref: CollocationReference, cache: OperatorCache, q_ref: int, coarse_m: int, coarse_steps: int
) -> CollocationReference:
    """Two-grid estimate of the reference's own discretization error."""
    half = collocation_reference(
        ref.dist, q_ref, cache.space(coarse_m), coarse_steps, cache.field, cache.u0, ref.t_final
    )
    return replace(ref, est_error=_distance(ref, prolong(half.space, half.values.T, ref.space)))


def error_norm_H(
    dist: DistributionSpec,
    state: SgState,
    space: FeSpace,
    reference,
    q: int = 20,
) -> float:
    """Natural-norm error: z-quadrature of spatial L2 errors.

    Against a collocation reference the chaos state is reconstructed at the
    reference's own nodes and prolonged to the fine mesh; against an
    analytic reference a q-node z-grid is used and the spatial error is
    integrated elementwise on the state's mesh.
    """
    if isinstance(reference, CollocationReference):
        recon = reconstruct_at_nodes(dist, state, reference.nodes)
        return _distance(reference, prolong(space, recon.T, reference.space))
    nodes, weights = tensor_quad(dist, q)
    recon = reconstruct_at_nodes(dist, state, nodes)
    total = 0.0
    for i, z in enumerate(nodes):
        err = l2_error(space, recon[i], reference.solution(z))
        total += float(weights[i]) * err * err
    return math.sqrt(total)


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
    stderr = math.sqrt(max(np.sum(residuals**2), 0.0) / max(len(pts) - 2, 1) / denom)
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

_FAMILY_BUILDERS = {
    "hermite": lambda spec: hermite(),
    "jacobi": lambda spec: jacobi(spec.get("alpha", 0.0), spec.get("beta", 0.0)),
    "laguerre": lambda spec: laguerre(spec.get("alpha", 0.0)),
}


@dataclass(frozen=True)
class ExperimentConfig:
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

    def validate(self) -> None:
        if self.t_final <= 0.0:
            raise ValueError("t_final must be positive")
        if self.geometry.get("dim") not in (1, 2):
            raise ValueError("geometry.dim must be 1 or 2")
        if self.geometry.get("fe_order") not in (1, 2):
            raise ValueError("geometry.fe_order must be 1 or 2")
        for axis in ("n", "m", "n_k"):
            values = self.sweep.get(axis, [])
            if not values:
                raise ValueError(f"sweep.{axis} must be a non-empty list")
            if sorted(values) != list(values):
                raise ValueError(f"sweep.{axis} must be increasing")
        max_n = max(self.sweep["n"])
        if self.quad_order < 2 * max_n + 1:
            raise ValueError(
                f"quad_order {self.quad_order} too small for n = {max_n}; need >= {2 * max_n + 1}"
            )
        kind = self.reference.get("kind")
        if kind == "collocation":
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
            if self.strict_reference and (m_ref == max_m or nk_ref == max_nk):
                raise ValueError("reference must be strictly finer than the finest sweep point")
        elif kind != "analytic":
            raise ValueError("reference.kind must be 'analytic' or 'collocation'")

    def build_distribution(self) -> DistributionSpec:
        fams = []
        for spec in self.distribution:
            kind = spec.get("kind")
            if kind not in _FAMILY_BUILDERS:
                raise ValueError(f"unknown distribution component {kind!r}")
            fams.append(_FAMILY_BUILDERS[kind](spec))
        return DistributionSpec(tuple(fams))

    def build_field(self) -> CoefficientField:
        return coefficient_by_name(self.coefficient["name"], **self.coefficient.get("params", {}))

    def build_initial_datum(self) -> InitialDatum:
        return initial_datum_by_name(
            self.initial_datum["name"], **self.initial_datum.get("params", {})
        )

    def to_canonical_json(self) -> str:
        payload = {
            "distribution": list(self.distribution),
            "coefficient": self.coefficient,
            "initial_datum": self.initial_datum,
            "geometry": self.geometry,
            "sweep": self.sweep,
            "scheme": self.scheme,
            "t_final": self.t_final,
            "quad_order": self.quad_order,
            "reference": self.reference,
            "output": self.output,
            "tolerances": self.tolerances,
            "strict_reference": self.strict_reference,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def load_config(source) -> ExperimentConfig:
    """Build and validate a config from a JSON document, path, or dict."""
    if isinstance(source, str) and source.lstrip().startswith("{"):
        raw = json.loads(source)
    elif isinstance(source, (str, Path)):
        raw = json.loads(Path(source).read_text())
    elif isinstance(source, dict):
        raw = source
    else:
        raise TypeError("config source must be a path, JSON text, or dict")
    known = {
        "distribution", "coefficient", "initial_datum", "geometry", "sweep",
        "scheme", "t_final", "quad_order", "reference", "output",
        "tolerances", "strict_reference",
    }
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    cfg = ExperimentConfig(
        distribution=tuple(raw["distribution"]),
        coefficient=raw["coefficient"],
        initial_datum=raw["initial_datum"],
        geometry=raw["geometry"],
        sweep=raw["sweep"],
        scheme=raw["scheme"],
        t_final=float(raw["t_final"]),
        quad_order=int(raw["quad_order"]),
        reference=raw["reference"],
        output=raw.get("output", {}),
        tolerances=raw.get("tolerances", {}),
        strict_reference=bool(raw.get("strict_reference", True)),
    )
    cfg.validate()
    scheme_by_name(cfg.scheme)  # fail early on unknown schemes
    return cfg


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(cfg.to_canonical_json().encode()).hexdigest()


# --- the solve pipeline ---------------------------------------------------

class OperatorCache:
    """The solve pipeline of one config: spaces, their mass and K_g matrices,
    block operators, initial states and final states, each built once and
    shared across sweep points."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.dist = cfg.build_distribution()
        self.field = cfg.build_field()
        self.u0 = cfg.build_initial_datum()
        self.dim = cfg.geometry["dim"]
        self.order = cfg.geometry["fe_order"]
        self._ops = {}
        self._spaces = {}
        self._matrices = {}
        self._finals = {}

    def space(self, m: int) -> FeSpace:
        if m not in self._spaces:
            self._spaces[m] = make_fe_space(make_mesh(self.dim, m), self.order)
        return self._spaces[m]

    def matrices(self, m: int) -> tuple:
        """The mass matrix of space m and, for a separable field, its K_g (else None)."""
        if m not in self._matrices:
            space = self.space(m)
            k_g = assemble_stiffness(space, self.field.spatial_part) if self.field.separable else None
            self._matrices[m] = (assemble_mass(space), k_g)
        return self._matrices[m]

    def operator(self, n: int, m: int) -> tuple[SgOperator, SgState]:
        key = (n, m)
        if key not in self._ops:
            space, q = self.space(m), self.cfg.quad_order
            mass, k_g = self.matrices(m)
            mis = multi_index_set(self.dist.N, n)
            op = assemble_block_operator(self.dist, mis, space, self.field, q, mass, k_g)
            state0 = initial_coefficients(self.dist, mis, self.u0, space, q, mass)
            self._ops[key] = (op, state0)
        return self._ops[key]

    def solved(self, n: int, m: int, n_k: int) -> bool:
        """Whether the final state of (n, m, n_k) is already stored."""
        return (n, m, n_k) in self._finals


def solve_single(cache: OperatorCache, n: int, m: int, n_k: int) -> tuple[SgState, FeSpace]:
    """Run one configuration to the final time; returns the final chaos state.

    Time stepping runs in the operator's system basis (the decoupled modes of
    a separable field) and the final state is rotated back to the chaos basis.
    """
    if not cache.solved(n, m, n_k):
        op, state0 = cache.operator(n, m)
        grid = make_uniform_grid(cache.cfg.t_final, n_k)
        scheme = scheme_by_name(cache.cfg.scheme)
        w0 = op.to_system(state0.coeffs)
        w = evolve(scheme, grid, op.mass, op.stiffness, w0.reshape(-1))
        final = op.to_chaos(w.reshape(w0.shape))
        cache._finals[n, m, n_k] = SgState(cache.cfg.t_final, final, state0.mis)
    return cache._finals[n, m, n_k], cache.space(m)


def build_reference(cfg: ExperimentConfig, cache: OperatorCache, estimate_error: bool = True):
    if cfg.reference["kind"] == "analytic":
        return analytic_reference(cache.field, cache.u0, cfg.t_final)
    m_ref = cfg.reference["m_ref"]
    nk_ref = cfg.reference["n_k_ref"]
    q_ref = cfg.reference.get("quad_order", cfg.quad_order)
    ref = collocation_reference(
        cache.dist, q_ref, cache.space(m_ref), nk_ref, cache.field, cache.u0, cfg.t_final
    )
    if estimate_error:
        ref = _with_error_estimate(
            ref, cache, q_ref, coarse_m=max(m_ref // 2, 1), coarse_steps=max(nk_ref // 2, 1)
        )
    return ref


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
    invariants: dict
    checks: dict
    passed: bool
    reference_error_estimate: float

    def to_dict(self) -> dict:
        return {
            "config_hash": self.config_digest,
            "version": self.version,
            "axes": {k: v.to_dict() for k, v in self.axes.items()},
            "joint": self.joint,
            "invariants": self.invariants,
            "checks": self.checks,
            "passed": self.passed,
            "reference_error_estimate": self.reference_error_estimate,
        }


def _axis_h(axis: str, value: int, t_final: float) -> float:
    return t_final / value if axis == "n_k" else 1.0 / value


def _measure(cfg, cache, reference, point: dict) -> tuple[float, float, bool]:
    """Error and wall time of one sweep point, and whether its final state was cached."""
    hit = cache.solved(point["n"], point["m"], point["n_k"])
    t0 = time.perf_counter()
    state, space = solve_single(cache, point["n"], point["m"], point["n_k"])
    err = error_norm_H(cache.dist, state, space, reference, q=cfg.quad_order)
    return err, time.perf_counter() - t0, hit


def _run_axis(cfg, cache, reference, axis: str, values, finest: dict, sweep_floor: float) -> AxisResult:
    errors, runtimes, hits, hs = [], [], [], []
    for v in values:
        point = dict(finest)
        point[axis] = v
        err, runtime, hit = _measure(cfg, cache, reference, point)
        errors.append(err)
        runtimes.append(runtime)
        hits.append(hit)
        hs.append(_axis_h(axis, v, cfg.t_final))
    ref_floor = getattr(reference, "est_error", 0.0)
    keep, flagged = _admissible(hs, errors, ref_floor, sweep_floor)
    fit = None
    if len(keep) >= 3:
        fit = fit_rate([(hs[i], errors[i]) for i in keep])
    local = [
        math.log(errors[i] / errors[j]) / math.log(hs[i] / hs[j])
        for i, j in zip(keep, keep[1:])
    ]
    return AxisResult(
        axis, list(values), hs, errors, runtimes, hits, fit, local,
        half_split_slopes(hs, errors), keep, flagged,
    )


def _run_joint(cfg, cache, reference) -> list:
    axes = {k: list(cfg.sweep[k]) for k in ("n", "m", "n_k")}
    levels = max(len(v) for v in axes.values())
    rows = []
    for i in range(levels):
        point = {k: v[min(i, len(v) - 1)] for k, v in axes.items()}
        err, runtime, hit = _measure(cfg, cache, reference, point)
        rows.append(
            {
                "level": i,
                "n": point["n"],
                "m": point["m"],
                "n_k": point["n_k"],
                "error": err,
                "runtime_s": runtime,
                "cache_hit": hit,
            }
        )
    return rows


def _invariant_summary(cfg, cache) -> dict:
    n, m = max(cfg.sweep["n"]), min(cfg.sweep["m"])
    op, _ = cache.operator(n, m)
    summary = {
        "block_symmetry_max_defect": op.symmetry_defect(),
        "a_stability_boundary_max": a_stability_probe(scheme_by_name(cfg.scheme))[0],
        "triple_product_entries": len(triple_products(cache.dist, n).entries),
        # informational: the sharper decay weight of the truncation bound
        "eigenvalue_floor_d_n_plus_1": eigenvalue_floor(cache.dist, n + 1),
        "initial_datum_smoothness": cache.u0.smoothness,
        "coefficient_field": cache.field.name,
    }
    if op.size <= 1200:
        summary["resolvent_min_generalized_eigenvalue"] = op.min_resolvent_eigenvalue()
    return summary


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
        if axis not in axes:
            checks[f"{axis}_present"] = False
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


def sweep(cfg: ExperimentConfig, estimate_reference_error: bool = True) -> ConvergenceReport:
    """Run the full per-axis and joint refinement study for one configuration."""
    cfg.validate()
    cache = OperatorCache(cfg)
    reference = build_reference(cfg, cache, estimate_error=estimate_reference_error)
    finest = {k: max(cfg.sweep[k]) for k in ("n", "m", "n_k")}
    # the joint table runs first: its finest level is the sweep floor used
    # to keep per-axis fits clear of the other axes' residual errors
    joint = _run_joint(cfg, cache, reference)
    sweep_floor = joint[-1]["error"]
    axes = {
        axis: _run_axis(cfg, cache, reference, axis, cfg.sweep[axis], finest, sweep_floor)
        for axis in ("n", "m", "n_k")
    }
    invariants = _invariant_summary(cfg, cache)
    checks = _evaluate_checks(cfg, axes, joint)
    passed = all(checks.values()) if checks else True
    return ConvergenceReport(
        config_digest=config_hash(cfg),
        version=__version__,
        axes=axes,
        joint=joint,
        invariants=invariants,
        checks=checks,
        passed=passed,
        reference_error_estimate=float(getattr(reference, "est_error", 0.0)),
    )


def write_outputs(cfg: ExperimentConfig, report: ConvergenceReport) -> list[str]:
    """Write per-axis and joint CSV tables plus the JSON report; returns paths."""
    written = []
    csv_dir = cfg.output.get("csv_dir")
    if csv_dir:
        out = Path(csv_dir)
        out.mkdir(parents=True, exist_ok=True)
        for axis, result in report.axes.items():
            path = out / f"axis_{axis}.csv"
            with open(path, "w", newline="\n") as fh:
                fh.write("axis,value,error,runtime_s\n")
                for v, e, r in zip(result.values, result.errors, result.runtimes):
                    fh.write(f"{axis},{v},{e!r},{r:.6f}\n")
            written.append(str(path))
        path = out / "axis_joint.csv"
        with open(path, "w", newline="\n") as fh:
            fh.write("axis,value,error,runtime_s\n")
            for row in report.joint:
                fh.write(f"joint,{row['level']},{row['error']!r},{row['runtime_s']:.6f}\n")
        written.append(str(path))
    report_path = cfg.output.get("report")
    if report_path:
        Path(report_path).parent.mkdir(parents=True, exist_ok=True)
        with open(report_path, "w", newline="\n") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(str(report_path))
    return written
