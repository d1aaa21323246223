"""The paper's Figure 6 algorithm: reliability-centric synthesis.

``find_design`` maximizes design reliability under latency and area
bounds:

1. **Initial allocation** — the most reliable version for every
   operation (this is the global reliability optimum, possibly
   violating both bounds).
2. **Latency loop** (Figure 6, lines 7–12) — while the critical path
   exceeds the bound, pick a critical-path victim and give it a
   faster (usually less reliable) version.  The loop never reads the
   bound except to stop, so the engine walks it once per graph and
   library and holds the path
   (:meth:`~repro.core.engine.EvaluationEngine.latency_start`): every
   horizon of every search starts from a prefix of the same walk.
3. **Slack exploitation** (lines 15–21) — realize the allocation at
   the latency, up to the bound, that minimizes area; stretching the
   schedule lets more operations share an instance.
4. **Area loop** (lines 23–28) — while the area exceeds the bound,
   re-allocate a whole sharing group to another version.  The default
   ``repair="generalized"`` policy considers *any* alternative version
   and judges candidates by realized total area (which also captures
   instance-count savings from faster versions); ``repair="paper"``
   restricts replacements to strictly-smaller-area versions, the
   literal Figure 6 rule.  Candidates that would break the latency
   bound are rejected, as the paper prescribes.
5. **Refinement** (optional, ``refine=True``) — spend leftover area
   upgrading allocations back to more reliable versions while both
   bounds still hold: first whole version groups, then single
   operations (a hill climb that discovers mixed allocations such as
   "seven pre-adders on the slow reliable adder, one on the fast
   one").  This is a monotone improvement the paper's greedy leaves on
   the table; disable it for a strictly faithful run.

Throughout the search every feasible realization encountered is
remembered and the most reliable one is returned, so a late unlucky
greedy step cannot discard an earlier feasible design.  The search
also records the realized area of every allocation it considers; the
area-repair and refinement loops use that record to *dominance-prune*
candidate swaps that were already realized and cannot improve on the
incumbent (the engine is deterministic, so re-evaluating them could
not change anything — the prune only skips provably redundant work).
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Iterator, Mapping, Optional

from repro.dfg.graph import DataFlowGraph
from repro.errors import NoSolutionError, ReproError
from repro.hls.metrics import AREA_INSTANCES
from repro.library.library import ResourceLibrary
from repro.library.version import ResourceVersion
from repro.reliability.composition import design_reliability
from repro.core.design import DesignResult, check_area_model
from repro.core.engine import EvaluationEngine, default_engine
from repro.core.evaluate import Evaluation, _area_lower_bound, _pool_work
from repro.core.victims import group_swaps

REPAIR_POLICIES = ("generalized", "paper")


def _allocation_log_reliability(allocation: Mapping[str, ResourceVersion]
                                ) -> float:
    return sum(math.log(v.reliability) for v in allocation.values())


_UNSEEN = object()


class _Search:
    """Mutable state of one find_design run."""

    def __init__(self, graph: DataFlowGraph, library: ResourceLibrary,
                 latency_bound: int, area_bound: int, area_model: str,
                 method: str, engine: EvaluationEngine):
        self.graph = graph
        self.library = library
        self.latency_bound = latency_bound
        self.area_bound = area_bound
        self.area_model = area_model
        self.method = method
        self.engine = engine
        self.best: Optional[DesignResult] = None
        #: reliability of :attr:`best`, kept for the comparisons
        self.best_reliability = 0.0
        #: realized area per allocation already considered this search
        #: (None = latency-infeasible) — the dominance-pruning record,
        #: keyed by the engine's allocation key.
        self.realized: Dict[bytes, Optional[int]] = {}

    def key(self, allocation: Mapping[str, ResourceVersion]) -> bytes:
        """The engine's allocation key of *allocation* on this graph."""
        return self.engine.allocation_key(self.graph, allocation)

    def known_area(self, key: bytes):
        """Cached realized area of the allocation keyed *key*, or
        ``_UNSEEN``.

        Safe pruning oracle: the engine is deterministic, so an
        allocation this search has already considered would realize to
        the same area (and :attr:`best` already accounts for it) —
        re-considering it can neither change the outcome nor the
        bookkeeping.
        """
        return self.realized.get(key, _UNSEEN)

    def consider(self, allocation: Dict[str, ResourceVersion], key: bytes
                 ) -> Optional[Evaluation]:
        """Realize *allocation* (keyed *key*); record it if feasible;
        return the engine's evaluation.

        The trajectories read only the area, so only a new incumbent
        becomes a :class:`DesignResult` (and is bound).  Its reliability
        is :attr:`DesignResult.reliability`'s float: no instance of a
        search design is replicated.
        """
        evaluation = self.engine.evaluate(
            self.graph, allocation, self.latency_bound,
            area_model=self.area_model)
        if evaluation is None:
            self.realized[key] = None
            return None
        self.realized[key] = evaluation.area
        if evaluation.area <= self.area_bound:
            reliability = design_reliability(self.graph, allocation)
            if self.best is None or reliability > self.best_reliability:
                self.best_reliability = reliability
                self.best = DesignResult(
                    graph=self.graph,
                    allocation=dict(allocation),
                    schedule=evaluation.schedule,
                    binding=evaluation.binding,
                    latency_bound=self.latency_bound,
                    area_bound=self.area_bound,
                    area_model=self.area_model,
                    method=self.method,
                )
        return evaluation


def find_design(graph: DataFlowGraph,
                library: ResourceLibrary,
                latency_bound: int,
                area_bound: int,
                *,
                area_model: str = AREA_INSTANCES,
                repair: str = "generalized",
                refine: bool = True,
                fallback: bool = True,
                latency_sweep: bool = True,
                engine: Optional[EvaluationEngine] = None) -> DesignResult:
    """Synthesize the most reliable design within the given bounds.

    Parameters
    ----------
    graph:
        Data-flow graph ``Gs(V, E)``.
    library:
        Characterized resource library ``R``.
    latency_bound:
        Desired latency ``Ld`` in clock cycles.
    area_bound:
        Desired area ``Ad`` in area units.
    area_model:
        Accounting model, see :mod:`repro.hls.metrics`.
    repair:
        Area-loop policy: ``"generalized"`` (default) or ``"paper"``.
    refine:
        Spend leftover area on reliability upgrades when ``True``.
    fallback:
        When the greedy trajectory ends infeasible, additionally sweep
        all uniform (one version per type) allocations before giving
        up.
    latency_sweep:
        Run the greedy trajectory once per effective latency bound in
        ``[fastest critical path, latency_bound]`` and keep the best.
        The single-trajectory greedy is not monotone in the latency
        bound — a looser bound stops the latency loop earlier, which
        can strand the search in a worse region — so the sweep both
        restores monotonicity and finds strictly better designs.
        Disable for the fastest, single-trajectory behaviour.
    engine:
        The :class:`~repro.core.engine.EvaluationEngine` serving every
        allocation evaluation and timing query of this search; defaults
        to the process-wide shared engine, so repeated searches over
        the same graph (latency sweeps, bound grids) reuse each other's
        schedules.

    Returns
    -------
    DesignResult

    Raises
    ------
    NoSolutionError
        When no explored allocation meets both bounds; at once, before
        any search, when *area_bound* is below the area floor (the sum
        over the graph's resource types of the smallest version's
        area).
    """
    graph.validate()
    check_area_model(area_model)
    if repair not in REPAIR_POLICIES:
        raise ReproError(
            f"unknown repair policy {repair!r}; use one of {REPAIR_POLICIES}")
    if latency_bound < 1 or area_bound < 1:
        raise ReproError("latency and area bounds must be positive")

    engine = engine if engine is not None else default_engine()
    # every used resource type needs at least one instance of some
    # version, under either area model: no design fits below this sum
    area_floor = sum(library.smallest(rtype).area
                     for rtype in graph.rtypes())
    if area_bound < area_floor:
        raise _no_solution(graph, library, latency_bound, area_bound,
                           area_model, engine,
                           f" (area floor {area_floor})")
    search = _Search(graph, library, latency_bound, area_bound, area_model,
                     method="find_design", engine=engine)

    fastest = {op.op_id: library.fastest(op.rtype) for op in graph}
    floor = engine.min_latency(graph, fastest)
    if latency_sweep:
        horizons = range(min(floor, latency_bound), latency_bound + 1)
    else:
        horizons = [latency_bound]
    seen_allocations: set = set()
    for horizon in horizons:
        _trajectory(search, horizon, repair, refine, seen_allocations)

    # Fallback: uniform single-version allocations (the generator stays
    # unmaterialized).
    if fallback and search.best is None:
        for combo in uniform_allocations(graph, library):
            search.consider(combo, search.key(combo))

    if search.best is None:
        raise _no_solution(graph, library, latency_bound, area_bound,
                           area_model, engine)
    return search.best


def _no_solution(graph: DataFlowGraph, library: ResourceLibrary,
                 latency_bound: int, area_bound: int, area_model: str,
                 engine: EvaluationEngine, detail: str = ""
                 ) -> NoSolutionError:
    """The error of an infeasible search, with the
    :func:`search_achievements` diagnostics."""
    achieved = search_achievements(graph, library, latency_bound,
                                   area_model, engine=engine)
    return NoSolutionError(
        f"no design of {graph.name!r} meets latency <= {latency_bound} "
        f"and area <= {area_bound}{detail}",
        latency=achieved.get("latency"),
        area=achieved.get("area"),
    )


def _trajectory(search: _Search, horizon: int, repair: str,
                refine: bool, seen_allocations: Optional[set] = None) -> None:
    """One Figure 6 greedy trajectory with effective latency *horizon*."""
    graph, library = search.graph, search.library
    area_bound = search.area_bound

    # 1-2. Most reliable version everywhere (Figure 6, line 3), then
    # the latency loop (lines 7-12), walked once per graph and library
    # by the engine.
    allocation = search.engine.latency_start(graph, library, horizon)
    if allocation is None:
        return

    start_key = search.key(allocation)
    if seen_allocations is not None:
        if start_key in seen_allocations:
            return  # same start as a previous horizon's trajectory
        seen_allocations.add(start_key)

    current = search.consider(allocation, start_key)

    # 3/4. Area repair loop (lines 15-28; slack exploitation happens
    # inside evaluate_allocation's latency scan).
    if current is not None:
        guard = 0
        while current.area > area_bound:
            guard += 1
            if guard > 10 * max(1, len(library)) * len(graph):
                raise ReproError("area repair loop failed to terminate")
            chosen = None
            chosen_key = None
            for swap in group_swaps(library, allocation,
                                    smaller_only=(repair == "paper")):
                trial_alloc = swap.apply(allocation)
                trial_key = search.key(trial_alloc)
                known = search.known_area(trial_key)
                if known is not _UNSEEN and (known is None
                                             or known >= current.area):
                    # dominance prune: already realized this search and
                    # cannot beat the current area — skip re-evaluation
                    continue
                trial = search.consider(trial_alloc, trial_key)
                if trial is None:     # violates the latency bound
                    continue
                if trial.area >= current.area:
                    continue
                loss = (_allocation_log_reliability(allocation)
                        - _allocation_log_reliability(trial_alloc))
                key = (trial.area, loss, swap.new_version.name)
                if chosen_key is None or key < chosen_key:
                    chosen_key = key
                    chosen = (swap, trial)
            if chosen is None:
                break
            swap, current = chosen
            allocation = swap.apply(allocation)

    # 5. Refinement: upgrade groups, then single ops, while bounds hold.
    if refine and search.best is not None:
        allocation = dict(search.best.allocation)
        improved = True
        while improved:
            improved = False
            chosen = None
            chosen_gain = 0.0
            for swap in group_swaps(library, allocation):
                gain = (len(swap.ops)
                        * (math.log(swap.new_version.reliability)
                           - math.log(swap.old_version.reliability)))
                if gain <= 1e-12:
                    continue
                trial_alloc = swap.apply(allocation)
                trial_key = search.key(trial_alloc)
                known = search.known_area(trial_key)
                if known is not _UNSEEN and (known is None
                                             or known > area_bound):
                    continue  # dominance prune: known infeasible
                trial = search.consider(trial_alloc, trial_key)
                if trial is None or trial.area > area_bound:
                    continue
                if gain > chosen_gain:
                    chosen_gain = gain
                    chosen = swap
            if chosen is not None:
                allocation = chosen.apply(allocation)
                improved = True
        _refine_per_op(search, allocation)


def _refine_per_op(search: _Search,
                   allocation: Dict[str, ResourceVersion]) -> None:
    """Hill-climb single-operation upgrades toward higher reliability.

    At each round, the feasible single-op version change with the
    largest reliability gain is applied; the climb stops when no
    single change both improves reliability and stays within bounds.
    Feasible intermediate states are recorded in *search* as usual.
    """
    while True:
        chosen = None
        chosen_gain = 0.0
        for op in search.graph:
            current = allocation[op.op_id]
            for candidate in search.library.versions_of(op.rtype):
                gain = (math.log(candidate.reliability)
                        - math.log(current.reliability))
                if gain <= chosen_gain + 1e-12:
                    continue
                trial_alloc = dict(allocation)
                trial_alloc[op.op_id] = candidate
                trial_key = search.key(trial_alloc)
                known = search.known_area(trial_key)
                if known is not _UNSEEN and (known is None
                                             or known > search.area_bound):
                    continue  # dominance prune: known infeasible
                trial = search.consider(trial_alloc, trial_key)
                if trial is None or trial.area > search.area_bound:
                    continue
                chosen_gain = gain
                chosen = (op.op_id, candidate)
        if chosen is None:
            return
        op_id, version = chosen
        allocation[op_id] = version


def uniform_allocations(graph: DataFlowGraph, library: ResourceLibrary
                        ) -> Iterator[Dict[str, ResourceVersion]]:
    """Every allocation using one fixed version per resource type.

    A generator: the cross-product over version pools is enumerated
    lazily, so callers that stop early (or libraries with many
    versions) never materialize the full combinatorial list.
    """
    rtypes = graph.rtypes()
    choices = [library.versions_of(rtype) for rtype in rtypes]
    for combo in itertools.product(*choices):
        per_type = dict(zip(rtypes, combo))
        yield {op.op_id: per_type[op.rtype] for op in graph}


def search_achievements(graph: DataFlowGraph, library: ResourceLibrary,
                        latency_bound: int, area_model: str,
                        engine: Optional[EvaluationEngine] = None
                        ) -> Dict[str, int]:
    """Best latency and area reachable independently (for diagnostics).

    ``"latency"`` is the critical path of the fastest version
    everywhere.  ``"area"`` is the minimum area of the smallest-version
    allocation at the loose bound ``max(latency_bound, latency) + |V|``,
    as the engine's :meth:`~repro.core.engine.EvaluationEngine.evaluate`
    reports it (absent when that allocation cannot meet the bound).

    Under the ``"auto"`` and ``"list"`` schedulers the list realization
    is evaluated first.  When its area is at most the work-conservation
    lower bound at the loose bound, it is the answer and no density
    point is scheduled: a density point at latency ``L`` costs at least
    the bound at ``L``, which is at least the bound at the loose bound,
    so it can only tie.  Otherwise, and always under ``"density"``, the
    full :meth:`evaluate` runs; it binds only its winner, so the list
    design is never bound twice.
    """
    engine = engine if engine is not None else default_engine()
    fastest = {op.op_id: library.fastest(op.rtype) for op in graph}
    best_latency = engine.min_latency(graph, fastest)
    smallest = {op.op_id: library.smallest(op.rtype) for op in graph}
    bound = max(latency_bound, best_latency) + len(graph)
    evaluation = None
    if engine.scheduler in ("auto", "list"):
        evaluation = engine.evaluate(graph, smallest, bound, area_model,
                                     scheduler="list")
        if evaluation is not None and evaluation.area > _area_lower_bound(
                _pool_work(graph, smallest), bound, area_model):
            evaluation = None
    if evaluation is None:
        evaluation = engine.evaluate(graph, smallest, bound, area_model)
    report = {"latency": best_latency}
    if evaluation is not None:
        report["area"] = evaluation.area
    return report
