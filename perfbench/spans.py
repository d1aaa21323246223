"""Outside-in tracing: wrap the public functions of each layer, from the
benchmark's own code, and aggregate spans in memory.

Every wrapped call is a span with a layer, a start and an end; spans
nest on one stack, so a layer's *self time* is its span time minus the
part its child spans cover, and the sum of all self times is the time
covered by any span at all.  Aggregates are kept, not individual spans:
the hot kernels are called hundreds of thousands of times per pass.

A function can be bound in many places: the module that defines it,
every module that imported it by name (``from repro.hls.density import
density_schedule``), and dictionaries such as ``repro.core.explore.
METHODS``.  :class:`Patch` replaces *every* binding of the target in
every loaded ``repro`` module, and restores them all on exit.  Methods
are replaced on their class.  Forked worker processes inherit the
wrappers, so recording is switched off in the child after a fork: the
parent only measures its own side.
"""

from __future__ import annotations

import functools
import importlib
import os
import pkgutil
import sys
import time
import weakref
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter_ns

#: Live tracers; a forked child stops all of them (see module doc).
_TRACERS: "weakref.WeakSet" = weakref.WeakSet()


def _stop_in_child() -> None:
    for tracer in list(_TRACERS):
        tracer.recording = False


os.register_at_fork(after_in_child=_stop_in_child)


def import_all(package: str = "repro") -> None:
    """Import every module of *package*, so that no module first imported
    while a patch is active keeps a wrapper after the patch is undone."""
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, package + "."):
        if not info.name.endswith(".__main__"):
            importlib.import_module(info.name)


class Patch:
    """Replace functions at every binding in loaded ``repro`` modules."""

    def __init__(self):
        self._undo: List[Callable[[], None]] = []

    def function(self, module: str, name: str,
                 make_wrapper: Callable[[Callable], Callable]) -> None:
        """Wrap ``module.name`` (``name`` may be ``Class.method``)."""
        owner = importlib.import_module(module)
        if "." in name:
            cls_name, attr = name.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, make_wrapper(original))
            self._undo.append(functools.partial(setattr, cls, attr,
                                                original))
            return
        original = getattr(owner, name)
        wrapper = make_wrapper(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro"
                                   or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append(functools.partial(
                        setattr, mod, attr, original))
                elif type(value) is dict:
                    for key, item in list(value.items()):
                        if item is original:
                            value[key] = wrapper
                            self._undo.append(functools.partial(
                                value.__setitem__, key, original))

    def undo(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Patch":
        return self

    def __exit__(self, *exc) -> None:
        self.undo()


# ----------------------------------------------------------------------
# the layer map: (module, function, layer, key)
# ----------------------------------------------------------------------
#: Each wrapped public function, the layer it belongs to, and the key
#: its own call count and inclusive time are kept under.
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.dfg.graph", "DataFlowGraph.add_edge", "dfg", "dfg.add_edge"),
    ("repro.dfg.graph", "DataFlowGraph.topological_order", "dfg", "dfg.topo"),
    ("repro.dfg.graph", "DataFlowGraph.validate", "dfg", "dfg.validate"),
    ("repro.dfg.compiled", "compile_graph", "dfg", "dfg.compile"),
    ("repro.dfg.generators", "random_dag", "dfg", "dfg.generate"),
    ("repro.dfg.generators", "layered_dag", "dfg", "dfg.generate"),
    ("repro.dfg.textio", "dumps", "dfg", "dfg.textio"),
    ("repro.dfg.textio", "loads", "dfg", "dfg.textio"),
    ("repro.hls.timing", "asap_starts", "timing", "timing"),
    ("repro.hls.timing", "asap_latency", "timing", "timing"),
    ("repro.hls.timing", "alap_starts", "timing", "timing"),
    ("repro.hls.timing", "time_frames", "timing", "timing"),
    ("repro.hls.timing", "mobility", "timing", "timing"),
    ("repro.hls.fastsched", "base_timing", "timing", "timing"),
    ("repro.hls.fastsched", "fast_asap_starts", "timing", "timing"),
    ("repro.hls.fastsched", "fast_asap_latency", "timing", "timing"),
    ("repro.hls.fastsched", "fast_alap_starts", "timing", "timing"),
    ("repro.hls.fastsched", "fast_time_frames", "timing", "timing"),
    ("repro.hls.fastsched", "batched_timing", "timing", "timing"),
    ("repro.hls.fastsched", "batched_time_frames", "timing", "timing"),
    ("repro.hls.fastsched", "fast_density_schedule", "density", "density"),
    ("repro.hls.fastsched", "batched_density_schedules", "density",
     "density.batched"),
    ("repro.hls.density", "density_schedule", "density",
     "density.reference"),
    ("repro.hls.listsched", "list_schedule", "list", "list"),
    ("repro.hls.listsched", "min_latency_with_counts", "list", "list"),
    ("repro.hls.fastsched", "fast_list_schedule", "list", "list"),
    ("repro.hls.binding", "left_edge_bind", "bind", "bind"),
    ("repro.hls.binding", "rebind_versions", "bind", "bind"),
    ("repro.core.engine", "EvaluationEngine.evaluate", "engine",
     "engine.evaluate"),
    ("repro.core.engine", "EvaluationEngine.evaluate_batch", "engine",
     "engine.batch"),
    ("repro.core.victims", "select_latency_victim", "victims", "victims"),
    ("repro.core.victims", "critical_operations", "victims", "victims"),
    ("repro.core.find_design", "find_design", "search", "search"),
    ("repro.core.baseline", "baseline_design", "search", "search"),
    ("repro.core.combined", "combined_design", "search", "search"),
    ("repro.core.explore", "sweep_bounds", "sweep", "sweep"),
    ("repro.parallel", "run_tasks", "parallel", "parallel.run_tasks"),
    ("repro.core.cache_store", "snapshot_engine", "cache_store",
     "cache_store"),
    ("repro.core.cache_store", "merge_snapshot", "cache_store",
     "cache_store"),
    ("repro.core.cache_store", "dumps", "cache_store", "cache_store"),
    ("repro.core.cache_store", "loads", "cache_store", "cache_store"),
    ("repro.charlib.characterize", "characterize_library", "charlib",
     "charlib"),
    ("repro.charlib.characterize", "characterize_component", "charlib",
     "charlib"),
    ("repro.core.montecarlo", "simulate_design", "montecarlo", "montecarlo"),
    ("repro.core.montecarlo", "simulate_designs", "montecarlo",
     "montecarlo"),
)

#: Layers in pipeline order (graph build first, sweeps last).
LAYERS = ("dfg", "timing", "density", "list", "bind", "engine", "victims",
          "search", "sweep", "parallel", "cache_store", "charlib",
          "montecarlo")


class Tracer:
    """In-memory span aggregator for one traced pass."""

    def __init__(self):
        self.stack: List[List[int]] = []  # child ns of each open span
        self.layer_depth: Counter = Counter()  # open spans per layer
        self.key_depth: Counter = Counter()    # open spans per key
        self.self_ns: Counter = Counter()  # per layer
        self.layer_ns: Counter = Counter()  # per layer, outermost spans
        self.key_ns: Counter = Counter()   # per key, outermost spans
        self.calls: Counter = Counter()    # per key
        self.counts: Counter = Counter()   # derived counters
        self.recording = True
        _TRACERS.add(self)

    def wrapper_for(self, layer: str, key: str) -> Callable:
        """A ``make_wrapper`` for :meth:`Patch.function`."""
        tracer = self
        note = _NOTES.get(key)

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if not tracer.recording:
                    return fn(*args, **kwargs)
                if note is not None:
                    note(tracer, args, kwargs)
                layer_depth, key_depth = tracer.layer_depth, tracer.key_depth
                stack = tracer.stack
                frame = [0]
                stack.append(frame)
                layer_depth[layer] += 1
                key_depth[key] += 1
                started = _clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    spent = _clock() - started
                    stack.pop()
                    layer_depth[layer] -= 1
                    key_depth[key] -= 1
                    tracer.self_ns[layer] += spent - frame[0]
                    if stack:
                        stack[-1][0] += spent
                    if not layer_depth[layer]:
                        tracer.layer_ns[layer] += spent
                        if layer == "search":
                            tracer.counts["search.designs"] += 1
                    if not key_depth[key]:
                        tracer.key_ns[key] += spent
                    tracer.calls[key] += 1
                    if key == "density.reference" and (
                            key_depth["density"]
                            or key_depth["density.batched"]):
                        tracer.counts["density.fallbacks"] += 1
                        tracer.counts["density.reference_ns"] += spent
            return traced
        return make

    def install(self, patch: Patch) -> None:
        for module, name, layer, key in TARGETS:
            patch.function(module, name, self.wrapper_for(layer, key))

    def metrics(self, run_s: float) -> Dict[str, float]:
        """The per-layer metrics of this pass (seconds, counts, ratios)."""
        def s(key: str) -> float:  # a key's time, or a whole layer's
            return (self.layer_ns[key] if key in LAYERS
                    else self.key_ns[key]) / 1e9

        calls, counts = self.calls, self.counts
        requested = counts["density.requested"]
        designs = counts["search.designs"]
        out = {
            "dfg.add_edge_s": s("dfg.add_edge"),
            "dfg.add_edge_calls": calls["dfg.add_edge"],
            "dfg.topo_s": s("dfg.topo"),
            "dfg.topo_calls": calls["dfg.topo"],
            "dfg.compile_s": s("dfg.compile"),
            "dfg.compile_calls": calls["dfg.compile"],
            "timing.s": s("timing"),
            "timing.calls": calls["timing"],
            "density.s": self.key_ns["density"] / 1e9,
            "density.calls": calls["density"],
            "density.batched_s": s("density.batched"),
            "density.batched_calls": calls["density.batched"],
            "density.batched_items": counts["density.batched_items"],
            "density.reference_s": counts["density.reference_ns"] / 1e9,
            "density.fallbacks": counts["density.fallbacks"],
            "density.fallback_ratio": (counts["density.fallbacks"] / requested
                                       if requested else 0.0),
            "list.s": s("list"),
            "list.calls": calls["list"],
            "bind.s": s("bind"),
            "bind.calls": calls["bind"],
            "engine.evaluate_s": s("engine.evaluate"),
            "engine.evaluate_calls": calls["engine.evaluate"],
            "engine.batch_s": s("engine.batch"),
            "engine.batch_calls": calls["engine.batch"],
            "victims.s": s("victims"),
            "victims.calls": calls["victims"],
            "search.s": s("search"),
            "search.calls": designs,
            "search.self_s": self.self_ns["search"] / 1e9,
            "search.evals_per_design": (counts["search.engine_requests"]
                                        / designs if designs else 0.0),
            "sweep.s": s("sweep"),
            "sweep.points": counts["sweep.points"],
            "parallel.run_tasks_s": s("parallel.run_tasks"),
            "cache_store.s": s("cache_store"),
            "charlib.s": s("charlib"),
            "montecarlo.s": s("montecarlo"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_ns[layer] / 1e9
        covered = sum(self.self_ns.values()) / 1e9
        out["trace.coverage"] = covered / run_s if run_s else 0.0
        return out

    def top_layer(self) -> Optional[str]:
        """The layer with the largest self time, if any span ran."""
        if not self.self_ns:
            return None
        return max(LAYERS, key=lambda layer: self.self_ns[layer])


# ----------------------------------------------------------------------
# counters read from call arguments, before the call runs
# ----------------------------------------------------------------------
def _size(args, kwargs, index: int, name: str) -> int:
    """Length of one argument, 0 when absent or unsized (a generator
    must not be consumed here)."""
    value = args[index] if len(args) > index else kwargs.get(name)
    return len(value) if hasattr(value, "__len__") else 0


def _note_fast_density(tracer: Tracer, args, kwargs) -> None:
    if not tracer.key_depth["density.batched"]:
        tracer.counts["density.requested"] += 1


def _note_batched_density(tracer: Tracer, args, kwargs) -> None:
    items = _size(args, kwargs, 1, "requests")
    tracer.counts["density.batched_items"] += items
    tracer.counts["density.requested"] += items


def _note_evaluate(tracer: Tracer, args, kwargs) -> None:
    if tracer.layer_depth["search"] and not tracer.key_depth["engine.batch"]:
        tracer.counts["search.engine_requests"] += 1


def _note_evaluate_batch(tracer: Tracer, args, kwargs) -> None:
    # args: (engine, graph, allocations, latency_bound, ...)
    if tracer.layer_depth["search"] and not tracer.key_depth["engine.batch"]:
        tracer.counts["search.engine_requests"] += _size(
            args, kwargs, 2, "allocations")


def _note_sweep(tracer: Tracer, args, kwargs) -> None:
    # args: (graph, library, latency_bounds, area_bounds, ...)
    tracer.counts["sweep.points"] += (_size(args, kwargs, 2, "latency_bounds")
                                      * _size(args, kwargs, 3, "area_bounds"))


_NOTES = {
    "density": _note_fast_density,
    "density.batched": _note_batched_density,
    "engine.evaluate": _note_evaluate,
    "engine.batch": _note_evaluate_batch,
    "sweep": _note_sweep,
}
