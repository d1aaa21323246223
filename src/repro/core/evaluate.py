"""Allocation evaluation: schedule + bind + measure under bounds.

Given a complete allocation (operation → version), the concrete
schedule and binding determine the design's latency and area.  Because
the paper's density scheduler is time-constrained, stretching the
schedule toward the latency bound can reduce peak concurrency and thus
area (the paper's Figure 6, lines 15–21, exploits exactly this slack).
:func:`evaluate_allocation` scans the feasible latency range and keeps
the smallest-area realization.

The scan visits only latencies that can still win.  A version pool
with ``W`` busy cycles needs at least ``ceil(W / L)`` instances at
latency ``L`` (:func:`_area_lower_bound`, the work-conservation bound
that also seeds the list realization's instance counts), so a latency
whose bound is strictly above the best area so far — or, under
``"auto"``, above the list realization's area — is skipped, and the
scan stops once its best area is at most the bound at the latency
bound.  The result is the one the full scan returns: the first
minimum, and the density realization on a tie with the list one.

The realization algorithms themselves live in
:mod:`repro.core.engine`, which memoizes them across searches and
sweeps; this module keeps the historical call surface
(:func:`evaluate_allocation` delegates to the process-wide default
engine, or to an explicit ``engine=``).
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.dfg.graph import DataFlowGraph
from repro.hls.binding import Binding, left_edge_bind
from repro.hls.metrics import AREA_INSTANCES, AREA_VERSIONS, total_area
from repro.hls.schedule import Schedule
from repro.hls.timing import asap_latency
from repro.library.version import ResourceVersion

SCHEDULERS = ("auto", "density", "list")


class Evaluation:
    """One realized allocation: schedule, binding and measurements.

    The engine knows a realization's area before it binds it, and a
    search reads only the area of almost every candidate, so the
    binding is built on read: pass ``binding=None`` with the allocated
    *versions* (in the graph's op order) and the first read of
    :attr:`binding` runs the left-edge binder, checks that its area
    under *area_model* is :attr:`area`, counts it in *stats*
    (``EngineStats.bindings``, when given) and keeps it.
    """

    def __init__(self, schedule: Schedule, binding: Optional[Binding],
                 latency: int, area: int, *,
                 versions: Sequence[ResourceVersion] = (),
                 area_model: str = AREA_INSTANCES, stats=None):
        self.schedule = schedule
        self.latency = latency
        self.area = area
        self.versions = versions
        self.area_model = area_model
        self.stats = stats
        if binding is not None:
            self.binding = binding

    @cached_property
    def binding(self) -> Binding:
        """The left-edge binding of :attr:`versions` onto
        :attr:`schedule`, built on first read."""
        ops = (op.op_id for op in self.schedule.graph)
        binding = left_edge_bind(self.schedule,
                                 dict(zip(ops, self.versions)))
        if self.stats is not None:
            self.stats.bindings += 1
        assert total_area(binding, self.area_model) == self.area
        return binding


def delays_of(allocation: Mapping[str, ResourceVersion]) -> Dict[str, int]:
    """Per-operation delays implied by an allocation."""
    return {op_id: version.delay for op_id, version in allocation.items()}


def min_latency(graph: DataFlowGraph,
                allocation: Mapping[str, ResourceVersion]) -> int:
    """Critical-path latency of *graph* under *allocation*."""
    return asap_latency(graph, delays_of(allocation))


def _pool_work(graph: DataFlowGraph,
               allocation: Mapping[str, ResourceVersion]
               ) -> Dict[str, Tuple[int, int]]:
    """Busy cycles and unit area of every version pool, in first-use
    (op) order.

    A pool is every operation allocated one version name, as the binder
    groups them; its instances all carry the pool's last version in op
    order, so that version's area is the pool's unit area.  Both
    work-conservation bounds below read only this.
    """
    busy: Dict[str, int] = {}
    unit_area: Dict[str, int] = {}
    for op in graph:
        version = allocation[op.op_id]
        busy[version.name] = busy.get(version.name, 0) + version.delay
        unit_area[version.name] = version.area
    return {name: (cycles, unit_area[name]) for name, cycles in busy.items()}


def _count_lower_bounds(pools: Mapping[str, Tuple[int, int]],
                        latency_bound: int) -> Dict[str, int]:
    """Work-conservation lower bound on instances per version, from
    :func:`_pool_work`'s *pools*."""
    return {name: max(1, math.ceil(cycles / latency_bound))
            for name, (cycles, _) in pools.items()}


def _area_lower_bound(pools: Mapping[str, Tuple[int, int]], latency: int,
                      area_model: str) -> int:
    """Lower bound on the area of any realization of latency at most
    *latency*, from :func:`_pool_work`'s *pools*.

    A pool with ``W`` busy cycles keeps at least ``ceil(W / latency)``
    instances busy at some step (work conservation, the resource bound
    of Rim & Jain, IEEE TCAD 1994), and the binder opens no fewer
    lanes than the peak overlap.  Under the versions model the area is
    the sum of the versions used, whatever the schedule, so the bound
    is exact.
    """
    if area_model == AREA_VERSIONS:
        return sum(area for _, area in pools.values())
    return sum(area * -(-cycles // latency)
               for cycles, area in pools.values())


def evaluate_allocation(graph: DataFlowGraph,
                        allocation: Mapping[str, ResourceVersion],
                        latency_bound: int,
                        area_model: str = AREA_INSTANCES,
                        scheduler: str = "auto",
                        engine=None) -> Optional[Evaluation]:
    """Best (minimum-area) realization of an allocation within a bound.

    Returns ``None`` when even the critical path exceeds the bound.

    Parameters
    ----------
    scheduler:
        ``"density"`` — the paper's partition-density scheduler,
        scanning latencies from the critical path to the bound;
        ``"list"`` — count-driven list scheduling, growing instance
        budgets from the work-conservation lower bound;
        ``"auto"`` (default) — run both and keep the smaller area
        (ties: the density result, matching the paper's flow).
    engine:
        The :class:`~repro.core.engine.EvaluationEngine` answering the
        request; defaults to the process-wide shared engine.  A
        cached engine runs the compiled scheduling core, one built with
        ``cache=False`` the reference kernels; both give identical
        results.
    """
    from repro.core.engine import default_engine

    engine = engine if engine is not None else default_engine()
    return engine.evaluate(graph, allocation, latency_bound,
                           area_model=area_model, scheduler=scheduler)


def evaluate_allocations(graph: DataFlowGraph,
                         allocations: Sequence[Mapping[str,
                                                       ResourceVersion]],
                         latency_bound: int,
                         area_model: str = AREA_INSTANCES,
                         scheduler: str = "auto",
                         engine=None) -> List[Optional[Evaluation]]:
    """:func:`evaluate_allocation` over many candidate allocations of
    one graph, in order
    (:meth:`repro.core.engine.EvaluationEngine.evaluate_batch`, a loop
    over :meth:`~repro.core.engine.EvaluationEngine.evaluate`)."""
    from repro.core.engine import default_engine

    engine = engine if engine is not None else default_engine()
    return engine.evaluate_batch(graph, allocations, latency_bound,
                                 area_model=area_model,
                                 scheduler=scheduler)
