"""Design-space exploration: bound sweeps and Pareto analysis.

These drivers generate the paper's Figure 8 trade-off curves and
Table 2 grids, and additionally expose a three-dimensional
(latency, area, reliability) Pareto frontier over swept bounds.

Sweeps share one :class:`~repro.core.engine.EvaluationEngine` across
all grid points by default, so a realization computed for one (Ld, Ad)
pair is reused by every other pair that revisits the allocation.  Pass
``workers=N`` to :func:`sweep_bounds` to fan the grid out across
processes; each worker runs cold, through its own engine built with
the sweep engine's settings, and its caches are discarded on exit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.dfg.graph import DataFlowGraph
from repro.errors import NoSolutionError
from repro.hls.metrics import AREA_INSTANCES
from repro.library.library import ResourceLibrary
from repro.core.baseline import baseline_design
from repro.core.combined import combined_design
from repro.core.design import DesignResult
from repro.core.engine import EvaluationEngine, default_engine
from repro.core.find_design import find_design

METHODS: Dict[str, Callable] = {
    "ours": find_design,
    "baseline": baseline_design,
    "combined": combined_design,
}


@dataclass
class SweepPoint:
    """One (latency bound, area bound) synthesis outcome."""

    latency_bound: int
    area_bound: int
    result: Optional[DesignResult]  # None when infeasible

    @property
    def reliability(self) -> Optional[float]:
        return self.result.reliability if self.result else None


def synthesize(method: str, graph: DataFlowGraph, library: ResourceLibrary,
               latency_bound: int, area_bound: int,
               **kwargs) -> DesignResult:
    """Dispatch to one of the three approaches by name."""
    try:
        func = METHODS[method]
    except KeyError:
        raise NoSolutionError(
            f"unknown method {method!r}; use one of {sorted(METHODS)}"
        ) from None
    return func(graph, library, latency_bound, area_bound, **kwargs)


#: this worker process's engines, one per distinct engine settings
#: tuple (:func:`_engine_settings`), reused across the tasks it serves
_WORKER_ENGINES: Dict[tuple, EvaluationEngine] = {}


def _engine_settings(engine: EvaluationEngine) -> tuple:
    """What a worker needs to rebuild *engine*'s behaviour: its
    constructor settings, never its caches."""
    return (engine.scheduler, engine.cache_enabled, engine.max_entries)


def _worker_engine(settings: tuple) -> EvaluationEngine:
    engine = _WORKER_ENGINES.get(settings)
    if engine is None:
        scheduler, cache, max_entries = settings
        engine = _WORKER_ENGINES[settings] = EvaluationEngine(
            scheduler=scheduler, cache=cache, max_entries=max_entries)
    return engine


def _design_or_none(engine, method, graph, library, latency_bound,
                    area_bound, area_model, kwargs
                    ) -> Optional[DesignResult]:
    try:
        return synthesize(method, graph, library, latency_bound, area_bound,
                          area_model=area_model, engine=engine, **kwargs)
    except NoSolutionError:
        return None


def _sweep_point(settings: tuple, *point) -> Optional[DesignResult]:
    """One grid point in a worker; module-level so process pools can
    pickle it."""
    return _design_or_none(_worker_engine(settings), *point)


def sweep_bounds(graph: DataFlowGraph,
                 library: ResourceLibrary,
                 latency_bounds: Sequence[int],
                 area_bounds: Sequence[int],
                 method: str = "ours",
                 area_model: str = AREA_INSTANCES,
                 workers: Optional[int] = None,
                 engine: Optional[EvaluationEngine] = None,
                 **kwargs) -> List[SweepPoint]:
    """Synthesize at every (Ld, Ad) pair; infeasible points yield None.

    Every grid point's search evaluates through one engine, so a
    serial sweep answers the allocations, density points and list
    probes its grid points share from that engine's caches.

    Parameters
    ----------
    workers:
        Fan the grid out over this many worker processes.  ``None``/
        ``0``/``1`` runs serially through a single shared engine — the
        right choice for small grids, where cache reuse beats process
        startup.
    engine:
        Engine for the serial path (default: the process-wide one).
        With *workers* parallelism only its settings (scheduler,
        caching, ``max_entries``) reach the workers, never
        its caches: each worker evaluates through its own engine built
        with those settings, and *engine* is left untouched.
    """
    pairs = [(latency_bound, area_bound)
             for latency_bound in latency_bounds
             for area_bound in area_bounds]
    engine = engine if engine is not None else default_engine()
    # imported here, so that importing repro.core loads no fan-out code
    from repro.parallel import run_tasks, uses_workers

    if uses_workers(workers, len(pairs)):
        settings = _engine_settings(engine)
        results = run_tasks(
            [(_sweep_point, (settings, method, graph, library, latency_bound,
                             area_bound, area_model, kwargs), {})
             for latency_bound, area_bound in pairs], workers=workers)
    else:
        results = [_design_or_none(engine, method, graph, library,
                                   latency_bound, area_bound, area_model,
                                   kwargs)
                   for latency_bound, area_bound in pairs]
    return [SweepPoint(latency_bound, area_bound, result)
            for (latency_bound, area_bound), result in zip(pairs, results)]


def reliability_vs_latency(graph: DataFlowGraph, library: ResourceLibrary,
                           latency_bounds: Sequence[int], area_bound: int,
                           method: str = "ours",
                           **kwargs) -> List[Tuple[int, Optional[float]]]:
    """The paper's Figure 8(a): reliability as the latency bound varies."""
    points = sweep_bounds(graph, library, latency_bounds, [area_bound],
                          method, **kwargs)
    return [(p.latency_bound, p.reliability) for p in points]


def reliability_vs_area(graph: DataFlowGraph, library: ResourceLibrary,
                        latency_bound: int, area_bounds: Sequence[int],
                        method: str = "ours",
                        **kwargs) -> List[Tuple[int, Optional[float]]]:
    """The paper's Figure 8(b): reliability as the area bound varies."""
    points = sweep_bounds(graph, library, [latency_bound], area_bounds,
                          method, **kwargs)
    return [(p.area_bound, p.reliability) for p in points]


def pareto_frontier(points: Iterable[SweepPoint]) -> List[SweepPoint]:
    """Non-dominated feasible points in (latency, area, −reliability).

    A point dominates another when it is no worse on all three axes
    (realized latency, realized area, reliability) and strictly better
    on at least one.
    """
    feasible = [p for p in points if p.result is not None]

    def dominates(a: SweepPoint, b: SweepPoint) -> bool:
        ra, rb = a.result, b.result
        no_worse = (ra.latency <= rb.latency and ra.area <= rb.area
                    and ra.reliability >= rb.reliability)
        strictly = (ra.latency < rb.latency or ra.area < rb.area
                    or ra.reliability > rb.reliability)
        return no_worse and strictly

    return [p for p in feasible
            if not any(dominates(q, p) for q in feasible if q is not p)]
