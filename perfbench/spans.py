"""Span tracing of sgpde's layer boundaries, installed from outside the program.

A span is recorded where a call crosses from one sgpde module into a public
function of another, and where the orchestrating layers (``harness`` and
``cli``) call their own public functions. ``Propagator.step`` is wrapped on
the class, and ``scipy.sparse.linalg.splu`` is recorded as ``<layer>.factor``
under the layer of the span that called it. Calls inside one computational
module (``spatial.prolong`` -> ``spatial.fe_eval``) stay inside their
caller's span, so each span is the cost of one layer-boundary call.

Spans are kept in memory as ``[name, start, end, parent, extra]`` and turned
into per-layer figures by :func:`summarize` and :func:`layer_metrics`.
Wrappers are installed only by :class:`Tracer` and removed by
:meth:`Tracer.restore`; an untraced run imports nothing from this file.
"""

from __future__ import annotations

import functools
import sys
import time
import types

LAYERS = ("orthopoly", "pce", "coeffs", "spatial", "sgsystem", "timestep", "harness", "cli")
ORCHESTRATORS = ("harness", "cli")
WRAPPED = "__perfbench_span__"


def _lu_nnz(lu) -> int:
    return int(lu.L.nnz + lu.U.nnz)


def _operator_size(op) -> tuple[int, int]:
    return int(op.matrix.nnz), int(op.matrix.shape[0])


# counts taken from the objects a wrapped call returns
EXTRACT = {
    "sgsystem.assemble_block_operator": _operator_size,
}


class Tracer:
    """Installs span-recording wrappers into the loaded sgpde modules."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _record(self, name, fn, extract=None, name_of_parent=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            label = name if name_of_parent is None else name_of_parent(parent)
            rec = [label, clock(), 0.0, parent, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if extract is not None:
                rec[4] = extract(out)
            return out

        setattr(wrapper, WRAPPED, True)
        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _parent_layer(self, parent: int) -> str:
        if parent < 0:
            return "toplevel.factor"
        return self.spans[parent][0].split(".", 1)[0] + ".factor"

    def install(self):
        """Wrap every layer-boundary binding; call :meth:`restore` afterwards."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import scipy.sparse.linalg as spla

        import sgpde
        from sgpde import timestep

        modules = {"sgpde": sgpde}
        modules.update({layer: sys.modules[f"sgpde.{layer}"] for layer in LAYERS
                        if f"sgpde.{layer}" in sys.modules})
        wrappers = {}
        for owner_name, module in modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                home = value.__module__.rpartition(".")[2]
                if not value.__module__.startswith("sgpde.") or home not in LAYERS:
                    continue
                if home == owner_name and home not in ORCHESTRATORS:
                    continue
                name = f"{home}.{value.__name__}"
                if value not in wrappers:
                    wrappers[value] = self._record(name, value, EXTRACT.get(name))
                self._patch(module, attr, wrappers[value])
        self._patch(timestep.Propagator, "step",
                    self._record("timestep.step", timestep.Propagator.step))
        self._patch(spla, "splu", self._record(None, spla.splu, _lu_nnz, self._parent_layer))

    def restore(self):
        """Put back every original binding, most recent first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def leftover_wrappers() -> list[str]:
    """Bindings in sgpde and scipy.sparse.linalg that still hold a span wrapper."""
    import scipy.sparse.linalg as spla

    found = []
    owners = [(n, m) for n, m in sys.modules.items() if n == "sgpde" or n.startswith("sgpde.")]
    owners.append(("scipy.sparse.linalg", spla))
    if "sgpde.timestep" in sys.modules:
        owners.append(("sgpde.timestep.Propagator", sys.modules["sgpde.timestep"].Propagator))
    for owner_name, owner in owners:
        for attr, value in list(vars(owner).items()):
            if getattr(value, WRAPPED, False):
                found.append(f"{owner_name}.{attr}")
    return found


def summarize(spans) -> dict[str, list]:
    """Per span name: [calls, self_s, total_s].

    A span's self time is its duration minus the durations of its direct
    children; spans nest (one thread), so children never overlap.
    """
    child = [0.0] * len(spans)
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    table: dict[str, list] = {}
    for i, (name, t0, t1, _, _) in enumerate(spans):
        rec = table.setdefault(name, [0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += (t1 - t0) - child[i]
        rec[2] += t1 - t0
    return table


def _under(spans, i: int, ancestor: str) -> bool:
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] == ancestor:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer figures of one traced sweep, named as in BENCHMARK.json."""
    table = summarize(spans)

    def calls(name):
        return table.get(name, [0, 0.0, 0.0])[0]

    def self_s(*names):
        return sum(table.get(n, [0, 0.0, 0.0])[1] for n in names)

    out: dict[str, float] = {}
    for name in ("timestep.step", "timestep.evolve", "timestep.factor",
                 "sgsystem.assemble_block_operator", "spatial.assemble_stiffness",
                 "spatial.load_vector", "harness.error_norm_H", "pce.triple_products",
                 "orthopoly.gauss_rule"):
        out[f"{name}.self_s"] = self_s(name)
        out[f"{name}.calls"] = calls(name)
    for name in ("sgsystem.initial_coefficients", "sgsystem.pce_coefficient_matrices",
                 "sgsystem.reconstruct_at_nodes"):
        out[f"{name}.self_s"] = self_s(name)
    for name in ("spatial.prolong", "spatial.l2_error", "spatial.l2_project",
                 "harness.collocation_reference", "harness.solve_single", "pce.tensor_quad"):
        out[f"{name}.calls"] = calls(name)
    # prolong (collocation reference) and l2_error (analytic reference) are
    # the spatial kernels of error evaluation; only one of them runs per
    # workload, so their self times are reported together
    out["spatial.error_eval.self_s"] = self_s("spatial.prolong", "spatial.l2_error")
    out["harness.build_reference.total_s"] = table.get("harness.build_reference", [0, 0.0, 0.0])[2]

    lu = [s[4] for s in spans if s[0] == "timestep.factor"]
    ops = [s[4] for s in spans if s[0] == "sgsystem.assemble_block_operator"]
    out["timestep.lu_nnz_max"] = max(lu, default=0)
    out["timestep.steps_per_factor"] = calls("timestep.step") / max(calls("timestep.factor"), 1)
    out["sgsystem.block_nnz_max"] = max((nnz for nnz, _ in ops), default=0)
    out["sgsystem.block_dofs_max"] = max((dofs for _, dofs in ops), default=0)
    evolves = sum(1 for i, s in enumerate(spans)
                  if s[0] == "timestep.evolve" and _under(spans, i, "harness.solve_single"))
    out["harness.solve_cache_hit_ratio"] = 1.0 - evolves / max(calls("harness.solve_single"), 1)
    # the part of the sweep that no wrapped call covers
    out["harness.self_s"] = self_s("harness.sweep")
    for layer in LAYERS:
        if layer != "cli":  # the sweep never enters the cli layer
            out[f"layer.{layer}.self_s"] = _layer_self_s(table, layer)
    return out


def solve_layer_metrics(spans) -> dict[str, float]:
    """Self time per layer of one traced ``sgpde solve``."""
    table = summarize(spans)
    return {f"solve.layer.{layer}.self_s": _layer_self_s(table, layer) for layer in LAYERS}


def _layer_self_s(table: dict[str, list], layer: str) -> float:
    return sum(rec[1] for name, rec in table.items() if name.split(".", 1)[0] == layer)
