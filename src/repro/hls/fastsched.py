"""Compiled scheduling core: fast ASAP/ALAP, incremental density,
event-driven list scheduling.

The reference kernels (:mod:`repro.hls.timing`,
:mod:`repro.hls.density`, :mod:`repro.hls.listsched`) are written for
clarity: string-keyed dicts, and a *full* ASAP+ALAP recompute — each
re-deriving the topological order — after every single placement.  On
cold evaluations (fresh graphs, first `explore`/`experiment` runs) that
inner loop dominates wall clock, and no cache layer can help a
workload the engine has never seen.  This module reimplements the same
algorithms in pure Python over the integer-indexed tuples of
:class:`repro.dfg.compiled.CompiledGraph`, with three structural
speedups:

``base timing``
    ASAP starts and *tails* (longest path from an operation through
    its own delay to the end), memoized per (graph, delays): two loops
    along the cached topological order.  Because
    ``alap(L) = L - tail``, the time frames at *any* latency bound
    follow in O(1) from one base pass — this is what lets
    :meth:`EvaluationEngine._density_best`'s latency-range scan
    warm-start bound ``L+1`` from bound ``L`` instead of paying a fresh
    ASAP/ALAP per bound.
``incremental density``
    After each placement the scheduler raises descendants' ASAP values
    and lowers ancestors' ALAP values by walking only the edges whose
    far-end frame actually moves (a plain stack over the compiled
    adjacency; a placement at the frame's own ASAP or ALAP step skips
    that walk, and a zero-width frame skips both).  It patches the
    per-rtype occupancy distribution in O(1) for exactly the operations
    whose frames changed, instead of rebuilding it from scratch, and
    costs the candidate starts straight from the occupancy density: a
    slice for a delay-1 operation, a pairwise sum of two slices for a
    delay-2 one, a windowed prefix sum otherwise.  A solve can be
    *capped*: it then also keeps the pinned lanes (:func:`pinned_area`,
    a lower bound on the bound area of any completion) and stops once
    they exceed the cap, returning its placement prefix.
``event-driven list scheduling``
    Ready sets are maintained with predecessor counters and per-version
    free-lane heaps; empty steps are skipped entirely.  Everything but
    the instance budgets — delays, priorities, the ready order as
    integer ranks — is prepared once per (graph, allocation)
    (:func:`prepare_list_state`), so a count-increment search probes
    budget after budget with :func:`list_probe_latency`, which returns
    the latency alone and builds no schedule; the probe that meets the
    bound records its placements, and :func:`placed_schedule` builds
    the schedule from them only when it is needed.  A probe also
    reports which pools had an operation wait for a lane: one more lane
    of a pool that never waited changes no placement, which lets the
    engine's greedy skip such trials and stop at its fixpoint.

The ``batched_*`` entry points run the same per-item kernels over a
list of requests, so there is one implementation of each kernel.

Equivalence with the reference schedulers is *exact*, not approximate:

* Time frames are integer fixpoints — the incremental updates compute
  the same numbers as a full recompute, provably.
* Density costs are exact rationals in both kernels.  An operation
  with window size ``w`` contributes probability ``1/w`` per feasible
  start, so every per-step density is a sum of unit fractions.  Windows
  only tighten, so every ``w`` the solve meets divides
  ``scale = lcm(1..w0max)`` (``w0max`` the widest initial window), and
  ``scale`` times any density or cost is an integer.  The solver keeps
  those integers (Python ints, which never overflow) and patches them
  in place losslessly; scaling by a positive constant preserves every
  comparison, so its earliest strict minimum is the reference's.
* Tie-breaks are replicated literally: most-constrained-first with
  topological-order ties for placement, earliest-start on cost ties,
  ``(-priority, op id)`` ready order for list scheduling.

``tests/test_fastsched.py`` asserts start-step-identical schedules
against the reference kernels over randomized graphs, delays and
bounds, and the golden paper values pin the end-to-end results.  A
cached :class:`~repro.core.engine.EvaluationEngine` runs this core;
one built with ``cache=False`` runs the reference kernels.
"""

from __future__ import annotations

import heapq
import math
from itertools import accumulate, islice
from operator import add, mul, sub
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.dfg.compiled import DELAYS_TYPECODE, CompiledGraph, compile_graph
from repro.dfg.graph import DataFlowGraph
from repro.errors import SchedulingError
from repro.hls.schedule import Schedule, schedule_from_starts

#: Entries kept in each compiled graph's delays-keyed base-timing memo.
TIMING_MEMO_ENTRIES = 128


class _BaseTiming:
    """ASAP starts and tails for one (graph, delays) pair."""

    __slots__ = ("asap", "tail", "critical")

    def __init__(self, asap: List[int], tail: List[int], critical: int):
        self.asap = asap
        self.tail = tail
        self.critical = critical


def _compute_base_timing(cg: CompiledGraph, d: List[int]) -> _BaseTiming:
    """ASAP and tail propagation for one delays vector *d* (compiled
    op order): two per-node loops along the topological order."""
    preds, succs = cg.preds, cg.succs
    asap = [0] * cg.n_ops
    critical = 0
    for i in cg.topo_order:
        start = 0
        for p in preds[i]:
            finish = asap[p] + d[p]
            if finish > start:
                start = finish
        asap[i] = start
        if start + d[i] > critical:
            critical = start + d[i]
    tail = d[:]  # delay + longest successor tail
    for i in reversed(cg.topo_order):
        best = 0
        for s in succs[i]:
            if tail[s] > best:
                best = tail[s]
        tail[i] += best
    return _BaseTiming(asap, tail, critical)


def base_timing(graph: DataFlowGraph,
                delays: Mapping[str, int]) -> _BaseTiming:
    """Memoized ASAP/tail/critical for *graph* under *delays*.

    The memo lives on the compiled graph (one per graph object), so a
    latency-range scan — and every other evaluation sharing the delay
    vector — pays the propagation exactly once.  The memo is keyed by
    :meth:`~repro.dfg.compiled.CompiledGraph.delays_key`, and a miss
    decodes the key itself as the delays vector; neither calls NumPy.
    """
    cg = compile_graph(graph)
    return _keyed_timing(cg, cg.delays_key(delays))


def _keyed_timing(cg: CompiledGraph, key: bytes) -> _BaseTiming:
    """:func:`base_timing` for a ready-made delays key."""
    memo = cg._timing_cache
    cached = memo.get(key)
    if cached is not None:
        return cached
    if len(memo) >= TIMING_MEMO_ENTRIES:
        memo.clear()
    timing = memo[key] = _compute_base_timing(
        cg, memoryview(key).cast(DELAYS_TYPECODE).tolist())
    return timing


# ----------------------------------------------------------------------
# drop-in timing queries (dict-in, dict-out)
# ----------------------------------------------------------------------
def fast_asap_starts(graph: DataFlowGraph,
                     delays: Mapping[str, int]) -> Dict[str, int]:
    """Array-based :func:`repro.hls.timing.asap_starts` equivalent."""
    cg = compile_graph(graph)
    starts = base_timing(graph, delays).asap
    # key order matches the reference (built along the topo walk)
    ids = cg.op_ids
    return {ids[i]: starts[i] for i in cg.topo_order}


def fast_asap_latency(graph: DataFlowGraph,
                      delays: Mapping[str, int]) -> int:
    """Array-based :func:`repro.hls.timing.asap_latency` equivalent."""
    if len(graph) == 0:
        # mirror the reference: max() over an empty schedule
        raise ValueError("max() arg is an empty sequence")
    return base_timing(graph, delays).critical


def fast_alap_starts(graph: DataFlowGraph,
                     delays: Mapping[str, int],
                     latency: int) -> Dict[str, int]:
    """Array-based :func:`repro.hls.timing.alap_starts` equivalent."""
    cg = compile_graph(graph)
    starts = [latency - t for t in base_timing(graph, delays).tail]
    _check_alap(cg, starts, latency)
    # key order matches the reference (built along the reversed walk)
    ids = cg.op_ids
    return {ids[i]: starts[i] for i in reversed(cg.topo_order)}


def fast_time_frames(graph: DataFlowGraph,
                     delays: Mapping[str, int],
                     latency: int) -> Dict[str, Tuple[int, int]]:
    """Array-based :func:`repro.hls.timing.time_frames` equivalent.

    No frame is ever empty: ``asap + tail`` is at most the critical
    path, so at a feasible latency every ALAP start is at least its
    ASAP start, and below the critical path the path's source gets a
    negative ALAP start, which :func:`_check_alap` reports as the
    reference's ALAP pass does."""
    cg = compile_graph(graph)
    timing = base_timing(graph, delays)
    alap = [latency - t for t in timing.tail]
    _check_alap(cg, alap, latency)
    ids, asap = cg.op_ids, timing.asap
    return {ids[i]: (asap[i], alap[i]) for i in cg.topo_order}


def _check_alap(cg: CompiledGraph, alap: List[int], latency: int) -> None:
    """The reference ALAP's negative-start error: it walks the reversed
    topological order, so the violator of highest rank is named."""
    violator = None
    rank = cg.topo_rank
    for i, start in enumerate(alap):
        if start < 0 and (violator is None or rank[i] > rank[violator]):
            violator = i
    if violator is not None:
        raise SchedulingError(
            f"latency {latency} is infeasible: operation "
            f"{cg.op_ids[violator]!r} would need to start at step "
            f"{alap[violator]}")


# ----------------------------------------------------------------------
# incremental density scheduling
# ----------------------------------------------------------------------
def fast_density_schedule(graph: DataFlowGraph,
                          delays: Mapping[str, int],
                          latency: Optional[int] = None,
                          cap: Optional[LaneCap] = None
                          ) -> Union[Schedule, Dict[str, int]]:
    """Drop-in, schedule-identical :func:`repro.hls.density.
    density_schedule` over the compiled graph.

    With a *cap* (see :func:`_solve_density`) the solve may stop early:
    it then returns the placements made so far, op id -> start in
    placement order, instead of a schedule."""
    if len(graph) == 0:
        raise SchedulingError("cannot schedule an empty graph")
    return _density_schedule(graph, compile_graph(graph), delays, latency,
                             base_timing(graph, delays), cap)


def _density_schedule(graph: DataFlowGraph, cg: CompiledGraph,
                      delays: Mapping[str, int], latency: Optional[int],
                      timing: _BaseTiming, cap: Optional[LaneCap] = None
                      ) -> Union[Schedule, Dict[str, int]]:
    """One density schedule from its ready-made base *timing*."""
    minimum = timing.critical
    if latency is None:
        latency = minimum
    if latency < minimum:
        raise SchedulingError(
            f"latency {latency} is below the critical path length {minimum}")
    fixed = _solve_density(cg, cg.delays_array(delays), timing, latency, cap)
    if len(fixed) < cg.n_ops:
        return fixed
    return schedule_from_starts(graph, fixed, delays)


def _window_scale(lo: List[int], hi: List[int]) -> int:
    """``lcm(1..w0max)`` over the initial windows: windows only tighten,
    so every weight ``1/w`` the solve meets is a whole multiple of
    ``1/scale``."""
    w0max = max(h - l for l, h in zip(lo, hi)) + 1
    return math.lcm(*range(1, w0max + 1))


#: ``(pool, unit, area)``: the version pool index of every op (compiled
#: op order), the unit area of every pool, and the area a capped
#: density solve may not exceed.
LaneCap = Tuple[Sequence[int], Sequence[int], int]


def pinned_area(cg: CompiledGraph, d: Sequence[int],
                placed: Mapping[str, int], pool: Sequence[int],
                unit: Sequence[int]) -> int:
    """The pinned lanes of *placed* (op id -> start): the sum over
    version pools of the unit area times the peak overlap of the
    pool's intervals ``[start, start + delay)``.

    The left-edge binder opens at least that many lanes per pool, and
    zero-delay operations only ever add lanes, so under the instances
    model no completion of *placed* costs less.  The sum never falls as
    placements are added, so a prefix a capped solve stopped at exceeds
    a cap of the same pools exactly when this sum does.
    """
    busy: Dict[Tuple[int, int], int] = {}
    peaks = [0] * len(unit)
    index = cg.index
    for op_id, start in placed.items():
        i = index[op_id]
        p = pool[i]
        for t in range(start, start + d[i]):
            count = busy[p, t] = busy.get((p, t), 0) + 1
            if count > peaks[p]:
                peaks[p] = count
    return sum(map(mul, unit, peaks))


def _solve_density(cg: CompiledGraph, d: List[int], timing: _BaseTiming,
                   latency: int, cap: Optional[LaneCap] = None
                   ) -> Dict[str, int]:
    """The placement loop; returns start steps in placement order.

    A *cap* keeps the running :func:`pinned_area` of the placements and
    stops the loop after the placement that lifts it strictly above the
    cap's area: the result is then a prefix of the uncapped one, short
    of the last placement unless that one tipped it.  Pinned starts are
    final, so no completion of a stopped solve fits the cap under the
    instances model.
    """
    n = cg.n_ops
    preds, succs = cg.preds, cg.succs
    rank = cg.topo_rank
    rcode = cg.rtype_codes
    lo = list(timing.asap)
    hi = [latency - t for t in timing.tail]
    pinned = [False] * n
    scale = _window_scale(lo, hi)

    # scaled occupancy, one row per rtype, stored as second differences:
    # an operation spreading over [lo, hi] with delay d covers step t
    # min(hi, t) - max(lo, t - d + 1) + 1 times, a trapezoid whose second
    # difference is +1 at lo and hi + d + 1 and -1 at lo + d and hi + 1.
    # Weighted by scale // w it adds scale times its density, so every
    # patch is four exact integer adds (zero-delay ops cancel to none).
    rows = [[0] * (latency + 2) for _ in cg.rtype_names]
    for i in range(n):
        lo_i, hi_i, d_i = lo[i], hi[i], d[i]
        weight = scale // (hi_i - lo_i + 1)
        row = rows[rcode[i]]
        row[lo_i] += weight
        row[lo_i + d_i] -= weight
        row[hi_i + 1] -= weight
        row[hi_i + d_i + 1] += weight

    if cap is not None:
        pool, unit, limit = cap
        busy = [[0] * latency for _ in unit]
        peaks = [0] * len(unit)
        lanes = 0

    # most-constrained first, topological order breaking ties: a heap
    # of (width, rank, op) entries.  Widths only shrink, so an op whose
    # frame moved gets a fresh entry and its older, wider ones are
    # skipped when they surface.
    queue = [(hi[i] - lo[i], rank[i], i) for i in range(n)]
    heapq.heapify(queue)
    fixed: Dict[str, int] = {}
    while queue:
        width, _, i = heapq.heappop(queue)
        if pinned[i] or width != hi[i] - lo[i]:
            continue
        pinned[i] = True
        lo_i, hi_i, d_i = lo[i], hi[i], d[i]
        if not width:
            # a zero-width frame: its start is forced, its occupancy
            # already final and no other frame can move
            start = lo_i
        else:
            # the cost of a start is the scaled occupancy summed over
            # the busy steps (the reference's cost less its constant
            # own-weight term, times scale): second differences ->
            # density, then the earliest strict minimum.  A delay-1 op's
            # costs are a slice of the density, a delay-2 op's the
            # pairwise sum of two slices; any other delay sums its
            # window from prefix sums over [lo, hi + d) only (a
            # zero-delay op costs 0 everywhere and keeps lo).
            row = rows[rcode[i]]
            density = list(accumulate(accumulate(
                islice(row, hi_i + d_i))))
            if d_i == 1:
                costs = density[lo_i:]
            elif d_i == 2:
                costs = list(map(add, density[lo_i:hi_i + 1],
                                 density[lo_i + 1:]))
            else:
                csum = list(accumulate(islice(density, lo_i, None),
                                       initial=0))
                costs = list(map(sub, csum[d_i:], csum[:width + 1]))
            start = lo_i + costs.index(min(costs))

            # move i's occupancy from its frame to its start
            weight = scale // (width + 1)
            row[lo_i] -= weight
            row[lo_i + d_i] += weight
            row[hi_i + 1] += weight
            row[hi_i + d_i + 1] -= weight
            row[start] += scale
            row[start + d_i] -= scale
            row[start + 1] -= scale
            row[start + d_i + 1] += scale
            lo[i] = hi[i] = start

            # frames can only tighten, and only i's frame moved.  Every
            # unpinned ASAP is the maximum of its predecessors'
            # finishes, and those only rise, so a descendant's ASAP
            # changes only through a predecessor whose ASAP rose
            # (likewise ALAP, falling, through successors).  A plain
            # stack walk that follows an edge only when it moves the
            # frame at its far end therefore reaches the same fixpoint
            # as a full recompute, touching only moved frames; a start
            # at i's old ASAP (ALAP) moves no descendant (ancestor).
            # Pinned frames are already consistent and are never
            # touched.
            changed: Dict[int, Tuple[int, int]] = {}
            stack = [i] if start != lo_i else []
            while stack:
                p = stack.pop()
                finish = lo[p] + d[p]
                for j in succs[p]:
                    if finish > lo[j] and not pinned[j]:
                        if j not in changed:
                            changed[j] = (lo[j], hi[j])
                        lo[j] = finish
                        stack.append(j)
            stack = [i] if start != hi_i else []
            while stack:
                s = stack.pop()
                latest = hi[s]
                for j in preds[s]:
                    if latest - d[j] < hi[j] and not pinned[j]:
                        if j not in changed:
                            changed[j] = (lo[j], hi[j])
                        hi[j] = latest - d[j]
                        stack.append(j)

            for j, (old_lo, old_hi) in changed.items():
                lo_j, hi_j, d_j = lo[j], hi[j], d[j]
                row = rows[rcode[j]]
                weight = scale // (old_hi - old_lo + 1)
                row[old_lo] -= weight
                row[old_lo + d_j] += weight
                row[old_hi + 1] += weight
                row[old_hi + d_j + 1] -= weight
                weight = scale // (hi_j - lo_j + 1)
                row[lo_j] += weight
                row[lo_j + d_j] -= weight
                row[hi_j + 1] -= weight
                row[hi_j + d_j + 1] += weight
                heapq.heappush(queue, (hi_j - lo_j, rank[j], j))
        fixed[cg.op_ids[i]] = start
        if cap is not None and d_i:
            # the pinned lanes, kept per pool as the overlap count of
            # every step and its peak
            p = pool[i]
            row = busy[p]
            peak = peaks[p]
            for t in range(start, start + d_i):
                row[t] += 1
                if row[t] > peak:
                    peak = row[t]
            if peak > peaks[p]:
                lanes += unit[p] * (peak - peaks[p])
                peaks[p] = peak
                if lanes > limit:
                    break
    return fixed


# ----------------------------------------------------------------------
# event-driven list scheduling
# ----------------------------------------------------------------------
class ListState:
    """Everything a list schedule of one (graph, allocation) pair needs
    besides the instance budgets, prepared once by
    :func:`prepare_list_state`.

    Operations are relabelled by their *ready rank*: their position in
    the ``(-priority, op id)`` order, so a ready set is a sorted list of
    ints.  All per-op vectors below are indexed by rank.
    """

    __slots__ = ("pools", "pool", "d", "succs", "roots", "n_preds", "order")

    def __init__(self, pools, pool, d, succs, roots, n_preds, order):
        #: version names in first-use op order: the key order of the
        #: count vectors :func:`list_probe_latency` takes
        self.pools: Tuple[str, ...] = pools
        #: index into :attr:`pools` of each op's version
        self.pool: List[int] = pool
        self.d: List[int] = d
        self.succs: List[Tuple[int, ...]] = succs
        self.roots: List[int] = roots
        self.n_preds: List[int] = n_preds
        #: compiled op index of each rank
        self.order: List[int] = order


def prepare_list_state(graph: DataFlowGraph, allocation) -> ListState:
    """The budget-independent part of a list schedule of *graph* under
    *allocation*: delays, the priority order and the ready bookkeeping.
    """
    cg = compile_graph(graph)
    try:
        versions = cg.gather(allocation)
    except KeyError:
        missing = next(op for op in cg.op_ids if op not in allocation)
        raise SchedulingError(
            f"operation {missing!r} has no allocation") from None
    d = [version.delay for version in versions]
    # the list-scheduling priority — delay plus longest downstream
    # path — is exactly the base-timing tail
    priority = _keyed_timing(cg, cg._pack_delays(*d)).tail
    ids = cg.op_ids
    order = sorted(range(cg.n_ops), key=lambda i: (-priority[i], ids[i]))
    rank = [0] * cg.n_ops
    for r, i in enumerate(order):
        rank[i] = r
    pool_of: Dict[str, int] = {}
    pool = [pool_of.setdefault(version.name, len(pool_of))
            for version in versions]
    preds, succs = cg.preds, cg.succs
    n_preds = [len(preds[i]) for i in order]
    return ListState(
        pools=tuple(pool_of),
        pool=[pool[i] for i in order],
        d=[d[i] for i in order],
        succs=[tuple(rank[j] for j in succs[i]) for i in order],
        roots=[r for r, count in enumerate(n_preds) if not count],
        n_preds=n_preds,
        order=order)


def list_probe_latency(state: ListState, counts,
                       max_steps: int = 100_000,
                       placed: Optional[List[Tuple[int, int]]] = None,
                       waited: Optional[List[bool]] = None) -> int:
    """Latency of the list schedule of a prepared *state* under the
    instance *counts*, one per :attr:`ListState.pools` entry, in that
    order.  Builds no schedule: a count-increment search reads only
    this number from a probe, and asks the probe that may become final
    to record its ``(rank, start)`` placements in *placed*, which
    :func:`placed_schedule` turns into the schedule.  A *waited* list
    (one ``False`` per pool) gets ``True`` for every pool one of whose
    operations waited for a lane (see :func:`_run_list`)."""
    for name, count in zip(state.pools, counts):
        if count < 1:
            raise SchedulingError(
                f"no instances budgeted for version {name!r}")
    return _run_list(state, counts, max_steps, placed, waited)


def _run_list(state: ListState, counts, max_steps: int,
              placed: Optional[List[Tuple[int, int]]],
              waited: Optional[List[bool]] = None) -> int:
    """The event loop: returns the latency, and appends ``(rank,
    start)`` to *placed* (when given) in placement order.

    Same greedy, same ``(-priority, op id)`` ready order and lane
    budgets as the reference, but readiness is event-driven
    (predecessor counters plus per-version free-lane heaps) and idle
    steps are skipped, so the cost scales with placements rather than
    with the latency horizon.  Every budget must be positive.

    Each deferral sets its pool's flag in *waited*.  A pool whose flag
    stays ``False`` never ran out of lanes, and one more lane of it
    changes nothing: at every step its busy lanes are its running
    operations, the same in both runs, so the extra lane only ever
    holds a free slot and the run places every op at the same step
    (and sets the same flags).
    """
    pool, d, succs = state.pool, state.d, state.succs
    if waited is None:
        waited = [False] * len(counts)
    free = [[0] * count for count in counts]
    pending = state.n_preds[:]
    ready_at = [0] * len(d)
    arrivals: Dict[int, List[int]] = {}
    ready = state.roots  # never mutated: replaced before any append
    remaining = len(d)
    latency = 0
    step = 0
    while True:
        if step > max_steps:
            raise SchedulingError(
                f"list scheduler exceeded {max_steps} steps; "
                "instance budget is likely malformed")
        deferred = []
        for r in ready:
            lanes = free[pool[r]]
            if lanes[0] > step:
                deferred.append(r)
                waited[pool[r]] = True
                continue
            finish = step + d[r]
            heapq.heapreplace(lanes, finish)
            if placed is not None:
                placed.append((r, step))
            if finish > latency:
                latency = finish
            remaining -= 1
            # a successor is observably ready once every producer has
            # finished *and* the current step has passed (the reference
            # recomputes readiness at the top of each step, so a
            # zero-delay producer placed this step unblocks its
            # consumers next step at the earliest)
            ripe = finish if finish > step else step + 1
            for j in succs[r]:
                if ripe > ready_at[j]:
                    ready_at[j] = ripe
                pending[j] -= 1
                if not pending[j]:
                    arrivals.setdefault(ready_at[j], []).append(j)
        if not remaining:
            return latency
        horizon = [free[pool[r]][0] for r in deferred]
        if arrivals:
            horizon.append(min(arrivals))
        if not horizon:  # unreachable with validated budgets
            raise SchedulingError(
                "list scheduler stalled with work outstanding")
        step = max(step + 1, min(horizon))
        ready = deferred
        arrived = arrivals.pop(step, None)
        if arrived:
            ready += arrived
            ready.sort()


def placed_schedule(graph: DataFlowGraph, state: ListState,
                    placed: List[Tuple[int, int]]) -> Schedule:
    """The :class:`Schedule` of the ``(rank, start)`` pairs a list run
    on *state* *placed*: starts in placement order (the order the
    reference builds them in), delays in op order."""
    ids, order = compile_graph(graph).op_ids, state.order
    starts = {ids[order[r]]: step for r, step in placed}
    delays = [0] * len(ids)
    for i, delay in zip(order, state.d):
        delays[i] = delay
    return schedule_from_starts(graph, starts, dict(zip(ids, delays)))


def fast_list_schedule(graph: DataFlowGraph, allocation,
                       instance_counts: Mapping[str, int],
                       max_steps: int = 100_000) -> Schedule:
    """Drop-in, schedule-identical :func:`repro.hls.listsched.
    list_schedule` over the compiled graph: :func:`prepare_list_state`,
    the event loop recording placements, then :func:`placed_schedule`.
    A cached engine does not call it: it records the placements of the
    probe that meets its bound and builds this schedule only when the
    list realization wins."""
    for op in graph:
        version = allocation.get(op.op_id)
        if version is None:
            raise SchedulingError(f"operation {op.op_id!r} has no allocation")
        if instance_counts.get(version.name, 0) < 1:
            raise SchedulingError(
                f"no instances budgeted for version {version.name!r}")
    state = prepare_list_state(graph, allocation)
    placed: List[Tuple[int, int]] = []
    _run_list(state, [instance_counts[name] for name in state.pools],
              max_steps, placed)
    return placed_schedule(graph, state, placed)


# ----------------------------------------------------------------------
# batched entry points: the per-item kernels over a list of requests
# ----------------------------------------------------------------------
def batched_timing(graph: DataFlowGraph,
                   delays_list: List[Mapping[str, int]]
                   ) -> List[_BaseTiming]:
    """``[base_timing(graph, d) for d in delays_list]``: equal delay
    vectors share one memoized result object."""
    cg = compile_graph(graph)
    return [_keyed_timing(cg, cg.delays_key(delays))
            for delays in delays_list]


def batched_time_frames(graph: DataFlowGraph,
                        delays_list: List[Mapping[str, int]],
                        latencies: List[int]
                        ) -> List[Dict[str, Tuple[int, int]]]:
    """``[fast_time_frames(g, d, L) for d, L in zip(...)]``; the first
    failing item raises its own error."""
    if len(delays_list) != len(latencies):
        raise ValueError("batched_time_frames arguments differ in length")
    return [fast_time_frames(graph, delays, latency)
            for delays, latency in zip(delays_list, latencies)]


def batched_density_schedules(graph: DataFlowGraph,
                              requests: List[Tuple[Mapping[str, int],
                                                   Optional[int]]]
                              ) -> List[Schedule]:
    """``[fast_density_schedule(g, d, L) for d, L in requests]``, with
    the base timing of every request from one :func:`batched_timing`
    call; the first failing request raises its own error."""
    requests = list(requests)
    if not requests:
        return []
    if len(graph) == 0:
        raise SchedulingError("cannot schedule an empty graph")
    cg = compile_graph(graph)
    timings = batched_timing(graph, [delays for delays, _ in requests])
    return [_density_schedule(graph, cg, delays, latency, timing)
            for (delays, latency), timing in zip(requests, timings)]
