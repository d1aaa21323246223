"""Shared evaluation engine: memoized scheduling, binding and timing.

Every synthesis entry point in this package bottoms out in the same
question — "schedule + bind + measure this allocation under this
latency bound" — and the searches ask it with massive redundancy: the
latency-sweep horizons of :func:`repro.core.find_design.find_design`
replay near-identical greedy trajectories, the refinement hill climb
re-realizes neighbouring allocations, and a
:func:`repro.core.explore.sweep_bounds` grid revisits the same
allocations at bound after bound.  The :class:`EvaluationEngine`
centralizes that question behind content-addressed caches so repeated
work is answered from memory, while staying *behaviourally identical*
to the uncached algorithms (the test suite asserts byte-identical
``DesignResult``\\ s with the cache on and off).

A realization is costed one way.  The allocation's version pools are
grouped once (:class:`_Pools`), and every candidate schedule — each
latency the density scan visits, and the list schedule from its
probe's placements — is priced by one exact lane count
(:func:`_lane_area`, the left-edge binder's lane count without the
binder).  Only the list-vs-density winner (density on a tie) is built,
and it is bound only when its binding is first read
(:class:`~repro.core.evaluate.Evaluation`): a search reads the area of
almost every candidate and the binding of its incumbents alone.  The
scan (:meth:`EvaluationEngine._scan`) visits only latencies that can
still win: it skips a latency whose work-conservation area bound is
strictly above the best area so far or, under ``"auto"``, the list
realization's area (computed first), and stops once the best area is
at most the bound at the latency bound.  Ascending order and "first
minimum wins" are kept.  Skipped latencies count in
``EngineStats.density_pruned``.  On a cached engine under the
instances model, a visited point's solve is also *capped* by that
cap: it stops as soon as the lanes its pinned operations already
force (:func:`~repro.hls.fastsched.pinned_area`) are strictly above
it, since such a point could neither be the scan's minimum nor beat
the list realization.  Stopped solves count in ``EngineStats.density_aborts``.

Cache layers, from coarse to fine:

``evaluation``
    ``(graph, allocation, bound, area model, scheduler)``
    → the final :class:`~repro.core.evaluate.Evaluation`.  Exact-key
    memo; hits skip all scheduling.
``schedule point``
    ``(graph, delays, latency)`` → one density schedule (``None`` when
    the latency is infeasible), or the placement prefix (op id →
    start) of a capped solve that stopped.  Schedules depend only on
    the per-operation delays, so allocations that differ only in area
    or reliability share them, and a scan at one bound reuses the
    points a scan at another bound visited; each allocation is costed
    on a shared schedule by its own lane count.  A prefix answers a
    later capped request when its pinned lanes, on that request's
    pools, exceed that request's cap; otherwise the point is solved
    again and the entry replaced.  Snapshots leave prefixes out.
``probe``
    ``(graph, allocation, counts)`` → one list-schedule probe's latency
    (an int: the count-driven list realization reads nothing else from
    a probe; the probe that meets the bound records its placements,
    and the schedule is built from them only when the list realization
    wins).  The count-increment loop re-probes overlapping count
    vectors constantly (the winning probe of one round *is* the first
    probe of the next); the probe cache makes both the intra- and
    inter-call repeats free.
``timing``
    ``(graph, delays)`` → the critical-path latency (an int).
``paths``
    ``(graph, version pools)`` → the latency path of Figure 6's
    latency loop (lines 7–12): the critical path of the most reliable
    allocation, then one ``(op id, new version, critical path after)``
    step per victim, walked lazily only as far as the tightest horizon
    asked so far (:meth:`EvaluationEngine.latency_start`).  The pools
    are the graph's resource types with every library version of each,
    the only part of a library the walk reads, so every search on one
    graph and library — horizons, bound grids, sweeps — shares one
    walk.

Graphs are identified by *content* (name, operations, edges in
insertion order), not object identity, so rebuilding a benchmark graph
— as every experiment driver does — still hits the cache: the engine's
*graph key table* gives each distinct content a small int id, the
first element of every layer key.  Allocations
and delay vectors are keyed by one compact ``bytes`` vector each, in
compiled op order (:attr:`~repro.dfg.compiled.CompiledGraph.op_ids`,
insertion order); ``bytes`` caches its hash, so a key is hashed once
however many layers and lookups it passes through.  A delays key is
:meth:`~repro.dfg.compiled.CompiledGraph.delays_key` (shared with the
compiled core's base-timing memo).  An allocation key
(:meth:`EvaluationEngine.allocation_key`) holds one code per
operation from the engine's *version code table*: codes are assigned
by value, so equal :class:`~repro.library.version.ResourceVersion`
objects — a second ``paper_library()``, a pickle round trip — share a
code while same-named versions that differ in area, delay or
reliability never collide; a code is never reassigned for the
engine's lifetime, so keys held by callers stay valid across
:meth:`~EvaluationEngine.clear`.

Graph ids and version codes mean something only next to the two
tables that assigned them, so the caches leave an engine together with
those tables: :meth:`~EvaluationEngine.cache_state` returns the layers
in the engine's own key form plus the graph key table and the version
code table, and :meth:`~EvaluationEngine.restore_cache_state` adopts
such a capture into a *fresh* engine — one that has registered no
graph and interned no version, so no id or code it hands out can
clash with the adopted ones — without translating a single key.
:mod:`repro.core.cache_store` wraps the capture in a versioned,
digest-checked snapshot file, which CLI runs use to persist caches
across invocations (``--cache-dir``).

Every layer is a plain ``dict`` bounded by its share of
``max_entries`` (:attr:`EvaluationEngine.LAYER_SHARES`): a layer that
reaches its capacity is cleared whole before the next insert — the
policy the graph registry and the version id table use too — so a
probe-heavy search can never wipe the exact memo.

The caching setting also picks the scheduling kernels.  A cached
engine runs the compiled core (:mod:`repro.hls.fastsched` over
:class:`~repro.dfg.compiled.CompiledGraph`); ``cache=False`` runs the
reference kernels (:mod:`repro.hls.timing`, :mod:`repro.hls.density`,
:mod:`repro.hls.listsched`) and reads no compiled-core memo either, so
it is an independent oracle for the cached path.  Both produce
identical schedules (``tests/test_fastsched.py``).

A module-level default engine backs the
:func:`repro.core.evaluate.evaluate_allocation` compatibility wrapper;
pass ``engine=`` to any synthesis entry point to use a private one
(e.g. per worker process, or with ``cache=False`` for the reference
behaviour).
"""

from __future__ import annotations

import math
import struct
import time
from dataclasses import dataclass
from functools import partial
from heapq import heappush, heapreplace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.dfg.compiled import compile_graph
from repro.dfg.graph import DataFlowGraph
from repro.errors import CacheError, ReproError, SchedulingError
from repro.hls import fastsched
from repro.hls.density import density_schedule
from repro.hls.listsched import list_schedule
from repro.hls.metrics import AREA_INSTANCES, AREA_VERSIONS
from repro.hls.schedule import Schedule
from repro.hls.timing import asap_latency
from repro.library.library import ResourceLibrary
from repro.library.version import ResourceVersion
from repro.core.design import check_area_model
from repro.core.evaluate import (
    SCHEDULERS,
    Evaluation,
    _area_lower_bound,
    _count_lower_bounds,
)
from repro.core.victims import select_latency_victim

#: Format character of allocation keys: one native unsigned int code
#: per op.
_CODE_TYPECODE = "I"


class _Pools:
    """The version pools of one allocation, grouped once per
    realization: every operation allocated one version name, as the
    binder groups them, in first-use (compiled op) order."""

    __slots__ = ("work", "lanes", "pool", "units", "versions", "delays")

    def __init__(self, record: _GraphRecord,
                 allocation: Mapping[str, ResourceVersion]):
        versions = record.compiled.gather(allocation)
        ids = record.compiled.op_ids
        index: Dict[str, int] = {}
        #: the pool index of every op
        self.pool: List[int] = [index.setdefault(version.name, len(index))
                                for version in versions]
        members: List[List[int]] = [[] for _ in index]
        busy = [0] * len(index)
        #: the unit area of every pool: its last version in op order
        self.units: List[int] = [0] * len(index)
        for i, (p, version) in enumerate(zip(self.pool, versions)):
            members[p].append(i)
            busy[p] += version.delay
            self.units[p] = version.area
        #: name -> (busy cycles, unit area): the form of
        #: :func:`~repro.core.evaluate._pool_work`
        self.work: Dict[str, Tuple[int, int]] = {
            name: (busy[p], self.units[p]) for name, p in index.items()}
        #: (unit area, op indices in op id order) per pool
        self.lanes: List[Tuple[int, List[int]]] = [
            (unit, sorted(ops, key=ids.__getitem__))
            for unit, ops in zip(self.units, members)]
        #: the allocated version of every op
        self.versions: Tuple[ResourceVersion, ...] = versions
        self.delays: Tuple[int, ...] = tuple(v.delay for v in versions)


def _lane_area(pools: _Pools, starts: Sequence[int], area_model: str) -> int:
    """``total_area(left_edge_bind(schedule, allocation), area_model)``
    of the schedule with *starts* (in compiled op order), without
    running the binder.

    Each pool is packed in the binder's ``(start, op id)`` order onto a
    min-heap of lane finish steps: an operation takes a lane when the
    earliest finish is at most its start, and opens one otherwise.  A
    lane free at one start is free at every later start, so which free
    lane the binder picks never changes a later decision, and the lane
    count is the binder's exactly, zero-delay operations included.  The
    version model sums the pools' unit areas, whatever the schedule.
    """
    if area_model == AREA_VERSIONS:
        return sum(unit for unit, _ in pools.lanes)
    delays = pools.delays
    area = 0
    for unit, ops in pools.lanes:
        finish: List[int] = []
        for i in sorted(ops, key=starts.__getitem__):  # stable: op ids
            start = starts[i]
            if finish and finish[0] <= start:
                heapreplace(finish, start + delays[i])
            else:
                heappush(finish, start + delays[i])
        area += unit * len(finish)
    return area


@dataclass
class EngineStats:
    """Counters accumulated by one :class:`EvaluationEngine`."""

    requests: int = 0             # evaluate() calls
    hits: int = 0                 # exact evaluation-memo hits
    density_points: int = 0       # density latencies examined
    density_pruned: int = 0       # density latencies the bound skipped
    density_schedules: int = 0    # density solves started
    density_aborts: int = 0       # ... stopped by the scan's area cap
    schedule_reuses: int = 0      # density schedules shared via delays key
    list_schedules: int = 0       # list-schedule probes run
    list_probe_hits: int = 0      # probes served from the probe cache
    list_rounds: int = 0          # list greedy rounds (base probe missed)
    list_fixpoints: int = 0       # ... realizations refused at a fixpoint
    list_skips: int = 0           # ... trials answered without a run
    list_runs_peak: int = 0       # most list runs in one realization
    bindings: int = 0             # left_edge_bind executions
    timing_requests: int = 0      # critical-path latency queries
    timing_hits: int = 0          # ... served from the timing cache
    evictions: int = 0            # entries dropped by full-layer clears
    path_requests: int = 0        # latency_start() calls
    path_hits: int = 0            # ... answered by a stored latency path
    path_steps: int = 0           # latency-victim selections run
    wall_time: float = 0.0        # seconds spent inside evaluate()

    @property
    def schedules_run(self) -> int:
        """Total scheduler executions (density + list)."""
        return self.density_schedules + self.list_schedules

    @property
    def hit_rate(self) -> float:
        """Fraction of evaluate() calls answered from the exact memo."""
        return self.hits / self.requests if self.requests else 0.0

    @property
    def evaluations_per_second(self) -> float:
        """Evaluation throughput over the accumulated wall time."""
        return self.requests / self.wall_time if self.wall_time else 0.0

    def reset(self) -> None:
        """Zero every counter."""
        for name in self.__dataclass_fields__:
            setattr(self, name, type(getattr(self, name))())

    def as_dict(self) -> Dict[str, float]:
        """JSON-friendly snapshot including the derived rates."""
        snapshot: Dict[str, float] = {
            name: getattr(self, name) for name in self.__dataclass_fields__
        }
        snapshot["schedules_run"] = self.schedules_run
        snapshot["hit_rate"] = self.hit_rate
        snapshot["evaluations_per_second"] = self.evaluations_per_second
        return snapshot

    def as_text(self) -> str:
        """Multi-line human-readable report (the CLI's ``--stats``)."""
        return "\n".join([
            "engine statistics:",
            f"  evaluations requested : {self.requests}"
            f" (memo hits {self.hits}, hit rate {self.hit_rate:.1%})",
            f"  schedules run         : {self.schedules_run}"
            f" (density {self.density_schedules}, list {self.list_schedules})",
            f"  density points        : {self.density_points}"
            f" (pruned {self.density_pruned},"
            f" solves capped {self.density_aborts})",
            f"  list probes cached    : {self.list_probe_hits} hits",
            f"  list greedy rounds    : {self.list_rounds}"
            f" (fixpoint refusals {self.list_fixpoints},"
            f" trials skipped {self.list_skips},"
            f" most runs in one realization {self.list_runs_peak})",
            f"  bindings run          : {self.bindings}"
            f" (schedules shared {self.schedule_reuses})",
            f"  timing queries        : {self.timing_requests}"
            f" (cache hits {self.timing_hits})",
            f"  latency paths         : {self.path_requests}"
            f" (hits {self.path_hits}, victim steps {self.path_steps})",
            f"  evicted entries       : {self.evictions}",
            f"  evaluation wall time  : {self.wall_time:.3f}s"
            f" ({self.evaluations_per_second:.0f} evaluations/s)",
        ])


_MISSING = object()


class _GraphRecord:
    """Cached structural view of one live DataFlowGraph object.

    Built from the graph's :class:`~repro.dfg.compiled.CompiledGraph`,
    so the engine, the fast scheduling core and every other consumer
    share one flattening (topological order, adjacency) per graph.
    """

    __slots__ = ("graph", "compiled", "n_ops", "n_edges", "key",
                 "pack_codes")

    def __init__(self, graph: DataFlowGraph, key: int):
        self.graph = graph
        compiled = compile_graph(graph)
        self.compiled = compiled
        self.n_ops = compiled.n_ops
        self.n_edges = compiled.n_edges
        self.key = key
        #: packs one version code per op into an allocation key
        self.pack_codes = partial(struct.pack,
                                  f"{compiled.n_ops}{_CODE_TYPECODE}")


class EvaluationEngine:
    """Memoized allocation evaluation shared across searches and sweeps.

    Parameters
    ----------
    scheduler:
        Default realization scheduler (``"auto"``, ``"density"`` or
        ``"list"``); overridable per call.
    cache:
        A cached engine memoizes every layer and runs the compiled
        scheduling core.  Disable to force every request through the
        full reference algorithms — reference kernels, no engine memo,
        no compiled-core memo — the independent oracle the cached path
        must reproduce exactly.
        The density scan's area-bound pruning applies here too, so
        agreement with the cached engine does not check it;
        ``tests/test_property_engine.py::TestPrunedScan`` compares
        both engines with an exhaustive, unpruned scan.
    max_entries:
        Soft bound on the total number of cached entries, split across
        the cache layers by :attr:`LAYER_SHARES`.  A layer that reaches
        its share is cleared whole before its next insert; the other
        layers keep their entries.
    """

    #: Fraction of ``max_entries`` each cache layer may hold.
    LAYER_SHARES: Dict[str, float] = {
        "evaluations": 0.15,   # exact evaluate() memo
        "schedules": 0.10,     # delays-keyed density schedules
        "probes": 0.29,        # list-schedule probes
        "timing": 0.10,        # critical-path latencies
        "paths": 0.01,         # latency-loop paths per (graph, pools)
    }

    def __init__(self, *, scheduler: str = "auto",
                 cache: bool = True,
                 max_entries: int = 200_000):
        if scheduler not in SCHEDULERS:
            raise ReproError(
                f"unknown scheduler {scheduler!r}; use one of {SCHEDULERS}")
        self.scheduler = scheduler
        self.cache_enabled = cache
        self.max_entries = max_entries
        self.stats = EngineStats()
        # the prepared list-scheduling state of the last probed
        # (graph, allocation): ((graph id, allocation key), state)
        self._list_slot: Optional[tuple] = None
        self._graphs: Dict[int, _GraphRecord] = {}
        # the graph key table: content -> id, ids 0..n-1
        self._graph_keys: Dict[tuple, int] = {}
        # the version code table: value -> code, codes 0..n-1, never
        # reassigned; plus an id() fast path whose pins keep every
        # listed object alive, so no listed id can be reused
        self._version_codes: Dict[ResourceVersion, int] = {}
        self._id_codes: Dict[int, int] = {}
        self._id_pins: List[ResourceVersion] = []
        self._layers: Dict[str, dict] = {
            name: {} for name in self.LAYER_SHARES}
        self._capacities = {
            name: max(1, int(max_entries * share))
            for name, share in self.LAYER_SHARES.items()}
        self._evaluations = self._layers["evaluations"]
        self._schedules = self._layers["schedules"]
        self._list_probes = self._layers["probes"]
        self._timing_cache = self._layers["timing"]
        self._paths = self._layers["paths"]

    def _store(self, name: str, key, value) -> None:
        """Insert into layer *name*, first clearing it whole if it is
        full; the dropped entries count as evictions."""
        layer = self._layers[name]
        if len(layer) >= self._capacities[name] and key not in layer:
            self.stats.evictions += len(layer)
            layer.clear()
        layer[key] = value

    # ------------------------------------------------------------------
    # graph identity
    # ------------------------------------------------------------------
    #: soft bound on live graph-object records; records are cheap to
    #: rebuild, so the registry is simply dropped when it fills up
    #: (e.g. a long-lived process constructing a fresh graph per call).
    MAX_GRAPH_RECORDS = 4096

    def _record(self, graph: DataFlowGraph) -> _GraphRecord:
        record = self._graphs.get(id(graph))
        if (record is not None and record.graph is graph
                and record.n_ops == len(graph)
                and record.n_edges == graph.edge_count()):
            return record
        if len(self._graphs) >= self.MAX_GRAPH_RECORDS:
            self._graphs.clear()
        if len(self._graph_keys) > self.max_entries:
            self.clear()  # keys must stay consistent with cache entries
        content = (graph.name,
                   tuple((op.op_id, op.rtype) for op in graph),
                   tuple(graph.edges()))
        record = _GraphRecord(graph, self._graph_id(content))
        self._graphs[id(graph)] = record
        return record

    def _graph_id(self, content: tuple) -> int:
        """Id of a graph *content* tuple, registering it when new."""
        return self._graph_keys.setdefault(content, len(self._graph_keys))

    # ------------------------------------------------------------------
    # allocation keys
    # ------------------------------------------------------------------
    #: bound on the id() fast path of the version code table; when it
    #: fills up it is simply dropped (codes themselves are permanent).
    MAX_VERSION_IDS = 4096

    def allocation_key(self, graph: DataFlowGraph,
                       allocation: Mapping[str, ResourceVersion]) -> bytes:
        """The engine's identity of *allocation* on *graph*.

        One version code per operation in compiled op order, packed as
        ``bytes`` (hashed once, then cached by CPython).  Equal keys
        mean equal allocations by value, whatever the dict order or
        version object identity; a key stays valid for the engine's
        lifetime, :meth:`clear` included.  Entries for operations
        outside the graph are ignored.
        """
        return self._allocation_key(self._record(graph), allocation)

    def _allocation_key(self, record: _GraphRecord,
                        allocation: Mapping[str, ResourceVersion]) -> bytes:
        versions = record.compiled.gather(allocation)
        try:  # fast path: every version object already listed by id
            return record.pack_codes(*map(self._id_codes.get,
                                          map(id, versions)))
        except struct.error:  # a None code: some object is new
            return record.pack_codes(*map(self._intern, versions))

    def _intern(self, version: ResourceVersion) -> int:
        """Code of *version* (by value), assigning the next free code to
        a new value, and listing the object on the id() fast path."""
        code = self._id_codes.get(id(version))
        if code is not None:
            return code
        code = self._version_codes.setdefault(version,
                                              len(self._version_codes))
        if len(self._id_codes) >= self.MAX_VERSION_IDS:
            self._id_codes.clear()
            self._id_pins.clear()
        self._id_codes[id(version)] = code
        self._id_pins.append(version)
        return code

    def __getstate__(self):
        # id() values mean nothing in another process: a copy drops the
        # fast path and re-lists versions by value on first use
        state = self.__dict__.copy()
        state["_id_codes"] = {}
        state["_id_pins"] = []
        state["_list_slot"] = None  # derived, rebuilt on the next probe
        return state

    # ------------------------------------------------------------------
    # timing
    # ------------------------------------------------------------------
    def latency(self, graph: DataFlowGraph,
                delays: Mapping[str, int]) -> int:
        """Critical-path (ASAP) latency of *graph* under *delays*."""
        record = self._record(graph)
        key = (record.key, record.compiled.delays_key(delays))
        return self._latency_for(graph, key, delays)

    def _latency_for(self, graph, key, delays) -> int:
        self.stats.timing_requests += 1
        cached = self._timing_cache.get(key)
        if cached is not None:
            self.stats.timing_hits += 1
            return cached
        # a cache-disabled engine is the reference oracle: it must not
        # read fastsched's per-graph base-timing memo either, or a
        # keying bug there would corrupt both sides of an equivalence
        # comparison identically
        if self.cache_enabled and len(graph):
            latency = fastsched.base_timing(graph, delays).critical
        else:
            latency = asap_latency(graph, delays)
        if self.cache_enabled:
            self._store("timing", key, latency)
        return latency

    def min_latency(self, graph: DataFlowGraph,
                    allocation: Mapping[str, ResourceVersion]) -> int:
        """Critical-path latency of *graph* under *allocation*."""
        return self.latency(
            graph, {op_id: v.delay for op_id, v in allocation.items()})

    # ------------------------------------------------------------------
    # latency paths
    # ------------------------------------------------------------------
    def latency_start(self, graph: DataFlowGraph, library: ResourceLibrary,
                      horizon: int
                      ) -> Optional[Dict[str, ResourceVersion]]:
        """The allocation Figure 6's latency loop (lines 7–12) reaches
        for *horizon*, or ``None`` when it cannot get there.

        The loop starts from the most reliable version everywhere and,
        while the critical path exceeds *horizon*, gives the
        :func:`~repro.core.victims.select_latency_victim` victim its
        faster version; ``None`` means no critical operation had one
        left.  The walk never reads the horizon except to stop, so one
        stored path per graph and version pools serves every horizon:
        the answer is the path's shortest prefix whose critical path is
        at most *horizon*.  A path is extended lazily, only as far as a
        request needs, and marked complete once no victim remains; the
        extended path replaces the stored one.  A cache-disabled engine
        walks from scratch on every call and stores nothing.
        """
        record = self._record(graph)
        rtypes = graph.rtypes()
        pools = tuple((rtype, tuple(library.versions_of(rtype)))
                      for rtype in rtypes)
        reliable = {rtype: library.most_reliable(rtype) for rtype in rtypes}
        allocation = {op.op_id: reliable[op.rtype] for op in graph}
        self.stats.path_requests += 1
        key = (record.key, pools)
        path = self._paths.get(key) if self.cache_enabled else None
        if path is None:
            start = critical = self.min_latency(graph, allocation)
            steps: tuple = ()
        else:
            start, steps, complete = path
            critical = start
            for op_id, version, after in steps:
                if critical <= horizon:
                    break
                allocation[op_id] = version
                critical = after
            if critical <= horizon or complete:
                self.stats.path_hits += 1
                return allocation if critical <= horizon else None
        walked = []
        complete = False
        while critical > horizon:
            self.stats.path_steps += 1
            victim = select_latency_victim(graph, library, allocation,
                                           timing=self)
            if victim is None:
                complete = True
                break
            allocation[victim.op_id] = victim.new_version
            critical = self.min_latency(graph, allocation)
            walked.append((victim.op_id, victim.new_version, critical))
        if self.cache_enabled:
            self._store("paths", key, (start, steps + tuple(walked), complete))
        return None if complete else allocation

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def evaluate(self, graph: DataFlowGraph,
                 allocation: Mapping[str, ResourceVersion],
                 latency_bound: int,
                 area_model: str = AREA_INSTANCES,
                 scheduler: Optional[str] = None):
        """Best (minimum-area) realization of an allocation within a bound.

        Drop-in equivalent of the historical
        :func:`repro.core.evaluate.evaluate_allocation`; returns an
        :class:`~repro.core.evaluate.Evaluation` or ``None`` when even
        the critical path exceeds the bound.
        """
        scheduler = scheduler if scheduler is not None else self.scheduler
        check_area_model(area_model)
        if scheduler not in SCHEDULERS:
            raise ReproError(
                f"unknown scheduler {scheduler!r}; use one of {SCHEDULERS}")
        started = time.perf_counter()
        self.stats.requests += 1
        try:
            return self._evaluate(graph, allocation, latency_bound,
                                  area_model, scheduler)
        finally:
            self.stats.wall_time += time.perf_counter() - started

    def evaluate_batch(self, graph: DataFlowGraph,
                       allocations: Sequence[Mapping[str, ResourceVersion]],
                       latency_bound: int,
                       area_model: str = AREA_INSTANCES,
                       scheduler: Optional[str] = None
                       ) -> List[Optional["Evaluation"]]:
        """``[self.evaluate(graph, a, latency_bound, ...) for a in
        allocations]``: one call for a round of candidates.

        Each item is served exactly as the loop would serve it (memo
        hits, repeated allocations, ``None`` for an infeasible bound)
        and validated by :meth:`evaluate`; ``[]`` returns ``[]``.
        """
        return [self.evaluate(graph, allocation, latency_bound,
                              area_model=area_model, scheduler=scheduler)
                for allocation in allocations]

    def _evaluate(self, graph, allocation, latency_bound, area_model,
                  scheduler):
        delays = {op_id: v.delay for op_id, v in allocation.items()}
        record = self._record(graph)
        delays_key = record.compiled.delays_key(delays)
        critical = self._latency_for(graph, (record.key, delays_key), delays)
        if critical > latency_bound:
            return None
        signature = self._allocation_key(record, allocation)
        memo_key = (record.key, signature, latency_bound, area_model,
                    scheduler)
        if self.cache_enabled:
            memoized = self._evaluations.get(memo_key, _MISSING)
            if memoized is not _MISSING:
                self.stats.hits += 1
                return memoized

        result = self._realize(graph, record, signature, allocation, delays,
                               delays_key, critical, latency_bound,
                               area_model, scheduler)
        if self.cache_enabled:
            self._store("evaluations", memo_key, result)
        return result

    def _realize(self, graph, record, signature, allocation, delays,
                 delays_key, critical, latency_bound, area_model, scheduler):
        """Minimum-area realization under *scheduler*.

        The allocation's version pools are grouped once (:class:`_Pools`)
        and every candidate is costed from them by :func:`_lane_area`.
        Each side yields an ``(area, build)`` candidate; only the
        winner's schedule is built, and the
        :class:`~repro.core.evaluate.Evaluation` binds it only when its
        binding is first read.  The list realization runs first so that,
        under ``"auto"``, its area caps the density scan; density wins
        ties.
        """
        pools = _Pools(record, allocation)
        density = listed = None
        if scheduler in ("auto", "list"):
            listed = self._list_best(graph, record, signature, allocation,
                                     pools, latency_bound, area_model)
        if scheduler in ("auto", "density"):
            density = self._density_best(
                graph, record, delays, delays_key, pools, critical,
                latency_bound, area_model,
                None if listed is None else listed[0])
        winner = listed
        if density is not None and (listed is None
                                    or density[0] <= listed[0]):
            winner = density
        if winner is None:
            return None
        area, build = winner
        schedule = build()
        return Evaluation(schedule, None, schedule.latency, area,
                          versions=pools.versions, area_model=area_model,
                          stats=self.stats)

    # -- density -------------------------------------------------------
    def _density_best(self, graph, record, delays, delays_key, pools,
                      critical, latency_bound, area_model, ceiling):
        """Slack exploitation (Figure 6, lines 15–21): the first
        minimum-area density point over ``[critical, latency_bound]``,
        as an ``(area, build)`` candidate (``None`` when no latency is
        feasible or none can reach *ceiling*).

        Scanned by :meth:`_scan`, capped by *ceiling* (the list
        realization's area).  Each visited point is a schedule from the
        delays-keyed layer, costed by :func:`_lane_area`.  A cached
        engine under the instances model hands the scan's finite cap to
        the solve, which stops once the point cannot reach it.
        """
        capped = self.cache_enabled and area_model == AREA_INSTANCES

        def point(latency, cap):
            self.stats.density_points += 1
            schedule = self._schedule(
                graph, record, delays, delays_key, latency,
                (pools.pool, pools.units, cap)
                if capped and cap != math.inf else None)
            if schedule is None:
                return None
            starts = record.compiled.gather(schedule.starts)
            return _lane_area(pools, starts, area_model), schedule

        best = self._scan(critical, latency_bound, pools.work, area_model,
                          ceiling, point)
        if best is None:
            return None
        area, _, schedule = best
        return area, lambda: schedule

    def _scan(self, critical, latency_bound, pools, area_model, ceiling,
              point):
        """The ascending latency scan, pruned by the area lower bound.

        Returns the first minimum-area ``(area, latency, schedule)`` of
        ``point(latency, cap) -> (area, schedule)`` over ``[critical,
        latency_bound]``, or ``None``.  The cap is the best area so far,
        or the *ceiling* when smaller (``math.inf`` before either
        exists).  A latency whose
        :func:`~repro.core.evaluate._area_lower_bound` is strictly above
        the cap is skipped: its point could neither become the first
        minimum nor beat the list realization, which density replaces
        only on a tie or better.  For the same reason *point* may answer
        ``None`` for a point it can tell lies strictly above the cap (a
        capped solve), as it does for an infeasible latency.  The bound
        never grows with the latency, so once the best area is at most
        the bound at *latency_bound* no later point can beat it and the
        scan stops; when even the *ceiling* is below that bound, no
        point is visited.  Every latency not visited counts in
        ``EngineStats.density_pruned``.
        """
        floor = _area_lower_bound(pools, latency_bound, area_model)
        cap = math.inf if ceiling is None else ceiling
        if cap < floor:
            self.stats.density_pruned += latency_bound - critical + 1
            return None
        best = None
        for latency in range(critical, latency_bound + 1):
            if best is not None and best[0] <= floor:
                self.stats.density_pruned += latency_bound - latency + 1
                break
            if _area_lower_bound(pools, latency, area_model) > cap:
                self.stats.density_pruned += 1
                continue
            costed = point(latency, cap)
            if costed is not None and (best is None or costed[0] < best[0]):
                best = (costed[0], latency, costed[1])
                cap = min(cap, costed[0])
        return best

    def _schedule(self, graph, record, delays, delays_key, latency,
                  cap=None) -> Optional[Schedule]:
        """The delays-keyed density schedule at *latency* (memoized), or
        ``None`` when the latency is infeasible or the point cannot fit
        *cap*.

        A *cap* (:data:`~repro.hls.fastsched.LaneCap`: the allocation's
        pools and an area) lets the solve stop once its pinned lanes
        exceed the area.  A stopped solve stores its placement prefix
        under the same key; a later request replays the prefix's pinned
        lanes on its own pools and cap, and solves again only when the
        prefix fits them (an uncapped request always does).  On the
        compiled core the latency-range scan warm-starts across bounds
        for free: every bound's frames derive from one memoized
        ASAP/tail pass (:func:`repro.hls.fastsched.base_timing`), so only
        the placement loop runs per latency.
        """
        key = (record.key, delays_key, latency)
        if self.cache_enabled:
            cached = self._schedules.get(key, _MISSING)
            if type(cached) is dict:  # a stopped solve's placement prefix
                if cap is not None and fastsched.pinned_area(
                        record.compiled, record.compiled.gather(delays),
                        cached, cap[0], cap[1]) > cap[2]:
                    self.stats.schedule_reuses += 1
                    return None
            elif cached is not _MISSING:
                self.stats.schedule_reuses += 1
                return cached
        try:
            self.stats.density_schedules += 1
            if self.cache_enabled:
                schedule = fastsched.fast_density_schedule(graph, delays,
                                                           latency, cap)
            else:
                schedule = density_schedule(graph, delays, latency)
        except SchedulingError:
            schedule = None
        if self.cache_enabled:
            self._store("schedules", key, schedule)
        if type(schedule) is dict:
            self.stats.density_aborts += 1
            return None
        return schedule

    # -- list ----------------------------------------------------------
    def _list_best(self, graph, record, signature, allocation, pools,
                   latency_bound, area_model):
        """Count-driven list realization (see evaluate.py's docstring)
        as an ``(area, build)`` candidate, or ``None``.

        The counts come from :meth:`_list_counts`.  Their probe, the
        only one that can become final, records its placements (re-run
        with recording when a cache answered it).  Those placements are
        costed by :func:`_lane_area`, and ``build()`` turns them into
        the schedule (:func:`~repro.hls.fastsched.placed_schedule`), so
        a realization that density wins builds none.  The uncached
        engine runs the reference :func:`list_schedule` for the final
        counts and costs that.
        """
        runs = self.stats.list_schedules
        counts, placed = self._list_counts(graph, record, signature,
                                           allocation, pools, latency_bound)
        runs = self.stats.list_schedules - runs
        if runs > self.stats.list_runs_peak:
            self.stats.list_runs_peak = runs
        if counts is None:
            return None
        if self.cache_enabled:
            state = self._list_state(graph, record, signature, allocation)
            if not placed:  # a cache hit recorded nothing
                fastsched.list_probe_latency(state, tuple(counts.values()),
                                             placed=placed)
            starts = [0] * record.n_ops
            for r, step in placed:
                starts[state.order[r]] = step
            build = partial(fastsched.placed_schedule, graph, state, placed)
        else:
            reference = list_schedule(graph, allocation, counts)
            starts = record.compiled.gather(reference.starts)
            build = lambda: reference
        return _lane_area(pools, starts, area_model), build

    def _list_counts(self, graph, record, signature, allocation, pools,
                     latency_bound):
        """The greedy: instance counts grown from the work-conservation
        bound one unit a round, each round to the pool whose +1 trial
        probes best by ``(latency, unit area, name)``, until the counts
        meet *latency_bound*.  Returns ``(counts, placed)``, the
        placements of the final probe (empty when a cache answered it),
        or ``(None, None)`` when no counts do within the round limit.

        A cached engine stops the greedy at its fixpoint.  Each run it
        makes records which pools waited for a lane, in a dict local to
        this realization (a probe-cache hit has no flags and counts as
        waited everywhere).  One more lane of a pool that never waited
        changes no placement (:func:`~repro.hls.fastsched._run_list`),
        so (a) a trial on a pool that did not wait in the round's base
        run takes the base latency and flags without a run, and (b)
        once the chosen pool waited in none of the round's runs, the
        next round's base and trials repeat this round's runs exactly,
        so every later round chooses the same pool and misses the bound
        again: the realization is refused at once, as the full loop
        would refuse it after its last round.  The uncached engine, the
        oracle, records no flags and runs the full loop.
        """
        stats = self.stats
        unit_area = {name: unit for name, (_, unit) in pools.work.items()}
        counts = _count_lower_bounds(pools.work, latency_bound)
        # counts vector -> per-pool wait flags of its run, when known
        waits: Optional[dict] = {} if self.cache_enabled else None
        max_rounds = sum(counts.values()) + len(graph)
        for _ in range(max_rounds):
            placed: List[Tuple[int, int]] = []
            base = self._list_probe(graph, record, signature, allocation,
                                    counts, placed, waits)
            if base <= latency_bound:
                return counts, placed
            stats.list_rounds += 1
            base_waited = None if waits is None else \
                waits.get(tuple(counts.values()))
            flags = [base_waited]
            best_index = best_key = None
            for index, name in enumerate(counts):
                trial = dict(counts)
                trial[name] += 1
                vector = tuple(trial.values())
                if base_waited is not None and not base_waited[index]:
                    # the extra lane would only ever hold a free slot
                    stats.list_skips += 1
                    latency = base
                    waits[vector] = base_waited
                    self._store("probes", (record.key, signature, vector),
                                latency)
                else:
                    latency = self._list_probe(graph, record, signature,
                                               allocation, trial, None,
                                               waits)
                    flags.append(None if waits is None
                                 else waits.get(vector))
                key = (latency, unit_area[name], name)
                if best_key is None or key < best_key:
                    best_key = key
                    best_index = index
            if all(waited is not None and not waited[best_index]
                   for waited in flags):
                stats.list_fixpoints += 1
                return None, None
            counts[best_key[2]] += 1
        return None, None

    def _list_state(self, graph, record, signature, allocation
                    ) -> fastsched.ListState:
        """The prepared list-scheduling state of *allocation*: one slot
        serves every probe of a realization, since the state depends on
        the allocation only."""
        slot_key = (record.key, signature)
        if self._list_slot is None or self._list_slot[0] != slot_key:
            self._list_slot = (slot_key, fastsched.prepare_list_state(
                graph, allocation))
        return self._list_slot[1]

    def _list_probe(self, graph, record, signature, allocation,
                    counts, placed=None, waits=None) -> int:
        """Latency of the list schedule under *counts*; a probe run on
        the compiled core appends its ``(rank, start)`` placements to
        *placed* when given, and stores its per-pool wait flags in
        *waits* under the counts vector (a probe-cache hit does
        neither)."""
        # counts keep _count_lower_bounds' key order (first use in op
        # order), which the allocation key already determines
        key = (record.key, signature, tuple(counts.values()))
        if self.cache_enabled:
            cached = self._list_probes.get(key, _MISSING)
            if cached is not _MISSING:
                self.stats.list_probe_hits += 1
                return cached
        self.stats.list_schedules += 1
        if self.cache_enabled:
            waited = [False] * len(key[2])
            latency = fastsched.list_probe_latency(
                self._list_state(graph, record, signature, allocation),
                key[2], placed=placed, waited=waited)
            if waits is not None:
                waits[key[2]] = waited
            self._store("probes", key, latency)
        else:
            latency = list_schedule(graph, allocation, counts).latency
        return latency

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def cache_size(self) -> int:
        """Number of cached entries across all layers."""
        return sum(len(layer) for layer in self._layers.values())

    def layer_sizes(self) -> Dict[str, int]:
        """Current entry count of each cache layer."""
        return {name: len(layer) for name, layer in self._layers.items()}

    def clear(self) -> None:
        """Drop every cached entry (statistics are preserved).

        Also releases the graph registry, so long-lived processes that
        churn through many graph objects do not pin them in memory.
        """
        for layer in self._layers.values():
            layer.clear()
        self._list_slot = None
        self._graphs.clear()
        self._graph_keys.clear()

    # ------------------------------------------------------------------
    # persistence (see repro.core.cache_store for the on-disk format)
    # ------------------------------------------------------------------
    def cache_state(self) -> Dict[str, dict]:
        """Copies of every cache layer, keyed in this engine's own form,
        and of the two tables that give those keys meaning: the graph
        key table (content -> id) and the version code table (version
        -> code).  :meth:`restore_cache_state` adopts the result.  The
        placement prefixes of stopped density solves are left out: they
        only spare a solve that a later request may run anyway."""
        layers = {name: dict(layer) for name, layer in self._layers.items()
                  if layer is not self._schedules}
        layers["schedules"] = {key: schedule for key, schedule
                               in self._schedules.items()
                               if type(schedule) is not dict}
        return {"graph_keys": dict(self._graph_keys),
                "version_codes": dict(self._version_codes),
                "layers": layers}

    def restore_cache_state(self, state: Mapping[str, Mapping]) -> int:
        """Adopt a :meth:`cache_state` capture; returns the entries held.

        Keys are adopted as they are, so only a fresh engine can take
        them: one that has registered a graph or interned a version
        could already have handed out the ids and codes they use, and
        raises :class:`~repro.errors.CacheError`.  The whole capture is
        read before anything is adopted.  Entries go in through the
        layer capacities; unknown layer names are skipped.  Adopted
        evaluations count the bindings they build in this engine's
        statistics.  Nothing is adopted when caching is disabled.
        """
        if self._graph_keys or self._version_codes:
            raise CacheError("an engine cache snapshot restores only into "
                             "a fresh engine")
        if not self.cache_enabled:
            return 0
        graph_keys = dict(state["graph_keys"])
        version_codes = dict(state["version_codes"])
        layers = [(name, dict(entries))
                  for name, entries in state["layers"].items()
                  if name in self._layers]
        self._graph_keys.update(graph_keys)
        self._version_codes.update(version_codes)
        for name, entries in layers:
            for key, value in entries.items():
                self._store(name, key, value)
        for evaluation in self._evaluations.values():
            if evaluation is not None:
                evaluation.stats = self.stats
        return self.cache_size()


_default_engine: Optional[EvaluationEngine] = None


def default_engine() -> EvaluationEngine:
    """The process-wide engine backing ``evaluate_allocation``."""
    global _default_engine
    if _default_engine is None:
        _default_engine = EvaluationEngine()
    return _default_engine


def set_default_engine(engine: Optional[EvaluationEngine]
                       ) -> Optional[EvaluationEngine]:
    """Replace the process-wide engine; returns the previous one.

    Pass ``None`` to reset (a fresh default is created lazily).
    """
    global _default_engine
    previous = _default_engine
    _default_engine = engine
    return previous
