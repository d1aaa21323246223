"""Array-based scheduling core: fast ASAP/ALAP, incremental density,
event-driven list scheduling.

The reference kernels (:mod:`repro.hls.timing`,
:mod:`repro.hls.density`, :mod:`repro.hls.listsched`) are written for
clarity: string-keyed dicts, and a *full* ASAP+ALAP recompute — each
re-deriving the topological order — after every single placement.  On
cold evaluations (fresh graphs, first `explore`/`experiment` runs) that
inner loop dominates wall clock, and no cache layer can help a
workload the engine has never seen.  This module reimplements the same
algorithms over the integer-indexed arrays of
:class:`repro.dfg.compiled.CompiledGraph`, with three structural
speedups:

``base timing``
    ASAP starts and *tails* (longest path from an operation through
    its own delay to the end), memoized per (graph, delays).  A single
    delays vector is timed in pure Python (two loops along the cached
    topological order: on the 25–35-op paper graphs that is several
    times faster than NumPy's per-call overhead); only batches
    (:func:`batched_timing`) propagate level-by-level with NumPy
    gather/``reduceat`` over the CSR arrays.  Because
    ``alap(L) = L - tail``, the time frames at *any* latency bound
    follow in O(1) from one base pass — this is what lets
    :meth:`EvaluationEngine._density_best`'s latency-range scan
    warm-start bound ``L+1`` from bound ``L`` instead of paying a fresh
    ASAP/ALAP per bound.
``incremental density``
    After each placement the scheduler updates only the affected
    descendants' ASAP values and ancestors' ALAP values (a rank-ordered
    worklist over the compiled adjacency), and patches the per-rtype
    occupancy distribution in O(1) for exactly the operations whose
    frames changed, instead of rebuilding it from scratch.
``event-driven list scheduling``
    Ready sets are maintained with predecessor counters and per-version
    free-lane heaps; empty steps are skipped entirely.  Everything but
    the instance budgets — delays, priorities, the ready order as
    integer ranks — is prepared once per (graph, allocation)
    (:func:`prepare_list_state`), so a count-increment search probes
    budget after budget with :func:`list_probe_latency`, which returns
    the latency alone and builds no schedule.

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
bounds, and the golden paper values pin the end-to-end results.
"""

from __future__ import annotations

import heapq
import math
from itertools import accumulate, islice
from operator import sub
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.dfg.compiled import DELAYS_TYPECODE, CompiledGraph, compile_graph
from repro.dfg.graph import DataFlowGraph
from repro.errors import SchedulingError
from repro.hls.schedule import Schedule, schedule_from_starts

#: Entries kept in each compiled graph's delays-keyed base-timing memo.
TIMING_MEMO_ENTRIES = 128

#: Route a whole batch through the per-item solver when
#: ``n_ops * n_columns`` is below this: the lockstep solver's fixed
#: per-round array overhead only amortizes once the batch carries
#: enough placement work (results are identical either way).
LOCKSTEP_MIN_WORK = 32

#: The lockstep solver's int64 padding sentinel; a column joins it only
#: when every scaled occupancy sum stays below this.
_LOCKSTEP_BIG = 2 ** 62


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
                     delays: Mapping[str, int],
                     fixed: Optional[Mapping[str, int]] = None
                     ) -> Dict[str, int]:
    """Array-based :func:`repro.hls.timing.asap_starts` equivalent."""
    cg = compile_graph(graph)
    if not fixed:
        starts = base_timing(graph, delays).asap
    else:
        starts = _asap_with_fixed(cg, cg.delays_array(delays), fixed)
    # key order matches the reference (built along the topo walk)
    ids = cg.op_ids
    return {ids[i]: int(starts[i]) for i in cg.topo_order}


def fast_asap_latency(graph: DataFlowGraph,
                      delays: Mapping[str, int]) -> int:
    """Array-based :func:`repro.hls.timing.asap_latency` equivalent."""
    if len(graph) == 0:
        # mirror the reference: max() over an empty schedule
        raise ValueError("max() arg is an empty sequence")
    return base_timing(graph, delays).critical


def fast_alap_starts(graph: DataFlowGraph,
                     delays: Mapping[str, int],
                     latency: int,
                     fixed: Optional[Mapping[str, int]] = None
                     ) -> Dict[str, int]:
    """Array-based :func:`repro.hls.timing.alap_starts` equivalent."""
    cg = compile_graph(graph)
    if not fixed:
        tail = base_timing(graph, delays).tail
        starts = [latency - t for t in tail]
        _check_alap(cg, starts, latency)
    else:
        starts = _alap_with_fixed(cg, cg.delays_array(delays), latency,
                                  fixed)
    # key order matches the reference (built along the reversed walk)
    ids = cg.op_ids
    return {ids[i]: int(starts[i]) for i in reversed(cg.topo_order)}


def fast_time_frames(graph: DataFlowGraph,
                     delays: Mapping[str, int],
                     latency: int,
                     fixed: Optional[Mapping[str, int]] = None
                     ) -> Dict[str, Tuple[int, int]]:
    """Array-based :func:`repro.hls.timing.time_frames` equivalent."""
    cg = compile_graph(graph)
    if not fixed:
        timing = base_timing(graph, delays)
        asap, tail = timing.asap, timing.tail
        alap = [latency - t for t in tail]
        _check_alap(cg, alap, latency)
    else:
        arr = cg.delays_array(delays)
        asap = _asap_with_fixed(cg, arr, fixed)
        alap = _alap_with_fixed(cg, arr, latency, fixed)
    frames: Dict[str, Tuple[int, int]] = {}
    ids = cg.op_ids
    for i in cg.topo_order:  # first empty frame in topo order wins
        if asap[i] > alap[i]:
            raise SchedulingError(
                f"operation {ids[i]!r} has an empty time frame "
                f"[{asap[i]}, {alap[i]}] at latency {latency}")
        frames[ids[i]] = (int(asap[i]), int(alap[i]))
    return frames


def _asap_with_fixed(cg: CompiledGraph, delays: np.ndarray,
                     fixed: Mapping[str, int]) -> List[int]:
    """ASAP honouring fixed placements; reference-identical errors."""
    n = cg.n_ops
    starts = [0] * n
    preds = cg.preds
    d = delays.tolist()
    fixed_idx: Dict[int, int] = {cg.index[op]: s for op, s in fixed.items()
                                 if op in cg.index}
    violator = None
    rank = cg.topo_rank
    for i in cg.topo_order:
        earliest = 0
        for p in preds[i]:
            finish = starts[p] + d[p]
            if finish > earliest:
                earliest = finish
        pinned = fixed_idx.get(i)
        if pinned is not None:
            if pinned < earliest and (violator is None
                                      or rank[i] < rank[violator[0]]):
                violator = (i, earliest)
            starts[i] = pinned
        else:
            starts[i] = earliest
    if violator is not None:
        i, earliest = violator
        raise SchedulingError(
            f"fixed start {fixed_idx[i]} of {cg.op_ids[i]!r} violates a "
            f"dependency (earliest feasible is {earliest})")
    return starts


def _alap_with_fixed(cg: CompiledGraph, delays: np.ndarray, latency: int,
                     fixed: Mapping[str, int]) -> List[int]:
    """ALAP honouring fixed placements; reference-identical errors."""
    n = cg.n_ops
    starts = [0] * n
    succs = cg.succs
    d = delays.tolist()
    fixed_idx: Dict[int, int] = {cg.index[op]: s for op, s in fixed.items()
                                 if op in cg.index}
    # the reference walks reversed(topo) and raises at the *first*
    # violation it meets — i.e. the violator with the highest rank
    violator = None
    rank = cg.topo_rank
    for i in reversed(cg.topo_order):
        latest = latency
        for s in succs[i]:
            if starts[s] < latest:
                latest = starts[s]
        latest -= d[i]
        pinned = fixed_idx.get(i)
        if pinned is not None:
            if pinned > latest and (violator is None
                                    or rank[i] > rank[violator[0]]):
                violator = (i, "fixed", latest)
            starts[i] = pinned
        else:
            starts[i] = latest
        if starts[i] < 0 and (violator is None
                              or rank[i] > rank[violator[0]]):
            violator = (i, "negative", starts[i])
    if violator is not None:
        i, kind, value = violator
        if kind == "fixed":
            raise SchedulingError(
                f"fixed start {fixed_idx[i]} of {cg.op_ids[i]!r} exceeds "
                f"the latest feasible step {value} for latency {latency}")
        raise SchedulingError(
            f"latency {latency} is infeasible: operation "
            f"{cg.op_ids[i]!r} would need to start at step {value}")
    return starts


def _check_alap(cg: CompiledGraph, alap: List[int], latency: int) -> None:
    """Negative-start check for the no-fixed ALAP fast path."""
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
                          latency: Optional[int] = None) -> Schedule:
    """Drop-in, schedule-identical :func:`repro.hls.density.
    density_schedule` over the compiled arrays."""
    if len(graph) == 0:
        raise SchedulingError("cannot schedule an empty graph")
    cg = compile_graph(graph)
    timing = base_timing(graph, delays)
    minimum = timing.critical
    if latency is None:
        latency = minimum
    if latency < minimum:
        raise SchedulingError(
            f"latency {latency} is below the critical path length {minimum}")
    d = [delays[op_id] for op_id in cg.op_ids]
    fixed = _solve_density(cg, d, timing, latency)
    return schedule_from_starts(graph, fixed, delays)


def density_schedule_range(graph: DataFlowGraph,
                           delays: Mapping[str, int],
                           latencies) -> Dict[int, Schedule]:
    """Density schedules at several latency bounds, sharing one base
    timing pass (every bound's frames derive from the same ASAP/tail
    arrays — the warm start across adjacent bounds)."""
    return {latency: fast_density_schedule(graph, delays, latency)
            for latency in latencies}


def _window_scale(lo: List[int], hi: List[int]) -> int:
    """``lcm(1..w0max)`` over the initial windows: windows only tighten,
    so every weight ``1/w`` the solve meets is a whole multiple of
    ``1/scale``."""
    w0max = max(h - l for l, h in zip(lo, hi)) + 1
    return math.lcm(*range(1, w0max + 1))


def _solve_density(cg: CompiledGraph, d: List[int], timing: _BaseTiming,
                   latency: int) -> Dict[str, int]:
    """The placement loop; returns start steps in placement order."""
    n = cg.n_ops
    preds, succs = cg.preds, cg.succs
    rank = cg.topo_rank.tolist()
    rcode = cg.rtype_codes.tolist()
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

    def patch(r: int, lo_: int, hi_: int, d_: int, sign: int) -> None:
        weight = sign * (scale // (hi_ - lo_ + 1))
        row = rows[r]
        row[lo_] += weight
        row[lo_ + d_] -= weight
        row[hi_ + 1] -= weight
        row[hi_ + d_ + 1] += weight

    for i in range(n):
        patch(rcode[i], lo[i], hi[i], d[i], +1)

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

        lo_i, hi_i, d_i, r_i = lo[i], hi[i], d[i], rcode[i]
        if hi_i == lo_i:
            start = lo_i
        else:
            # the cost of a start is the scaled occupancy summed over the
            # busy steps (the reference's cost less its constant
            # own-weight term, times scale): second differences ->
            # density -> prefix sums, then the earliest strict minimum
            # (a zero-delay op costs 0 everywhere and keeps lo)
            csum = list(accumulate(accumulate(accumulate(
                islice(rows[r_i], hi_i + d_i))), initial=0))
            costs = list(map(sub, csum[lo_i + d_i:hi_i + d_i + 1],
                             csum[lo_i:hi_i + 1]))
            start = lo_i + costs.index(min(costs))
        fixed[cg.op_ids[i]] = start

        patch(r_i, lo_i, hi_i, d_i, -1)
        patch(r_i, start, start, d_i, +1)
        lo[i] = hi[i] = start
        pinned[i] = True

        # frames can only tighten: descendants' ASAP rises, ancestors'
        # ALAP falls.  Rank-ordered worklists make one recompute per
        # affected node exact.
        changed: Dict[int, Tuple[int, int]] = {}
        heap = [(rank[j], j) for j in succs[i]]
        heapq.heapify(heap)
        seen = set()
        while heap:
            _, j = heapq.heappop(heap)
            if j in seen or pinned[j]:
                continue
            seen.add(j)
            new_lo = 0
            for p in preds[j]:
                finish = lo[p] + d[p]
                if finish > new_lo:
                    new_lo = finish
            if new_lo != lo[j]:
                changed.setdefault(j, (lo[j], hi[j]))
                lo[j] = new_lo
                for s in succs[j]:
                    heapq.heappush(heap, (rank[s], s))
        heap = [(-rank[j], j) for j in preds[i]]
        heapq.heapify(heap)
        seen = set()
        while heap:
            _, j = heapq.heappop(heap)
            if j in seen or pinned[j]:
                continue
            seen.add(j)
            new_hi = latency
            for s in succs[j]:
                if hi[s] < new_hi:
                    new_hi = hi[s]
            new_hi -= d[j]
            if new_hi != hi[j]:
                changed.setdefault(j, (lo[j], hi[j]))
                hi[j] = new_hi
                for p in preds[j]:
                    heapq.heappush(heap, (-rank[p], p))

        for j, (old_lo, old_hi) in changed.items():
            patch(rcode[j], old_lo, old_hi, d[j], -1)
            patch(rcode[j], lo[j], hi[j], d[j], +1)
            heapq.heappush(queue, (hi[j] - lo[j], rank[j], j))
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
                       max_steps: int = 100_000) -> int:
    """Latency of the list schedule of a prepared *state* under the
    instance *counts*, one per :attr:`ListState.pools` entry, in that
    order.  Builds no schedule: the count-increment search only reads
    this number from every probe but the last."""
    for name, count in zip(state.pools, counts):
        if count < 1:
            raise SchedulingError(
                f"no instances budgeted for version {name!r}")
    return _run_list(state, counts, max_steps, None)


def _run_list(state: ListState, counts, max_steps: int,
              placed: Optional[List[Tuple[int, int]]]) -> int:
    """The event loop: returns the latency, and appends ``(rank,
    start)`` to *placed* (when given) in placement order.

    Same greedy, same ``(-priority, op id)`` ready order and lane
    budgets as the reference, but readiness is event-driven
    (predecessor counters plus per-version free-lane heaps) and idle
    steps are skipped, so the cost scales with placements rather than
    with the latency horizon.  Every budget must be positive.
    """
    pool, d, succs = state.pool, state.d, state.succs
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


def fast_list_schedule(graph: DataFlowGraph, allocation,
                       instance_counts: Mapping[str, int],
                       max_steps: int = 100_000) -> Schedule:
    """Drop-in, schedule-identical :func:`repro.hls.listsched.
    list_schedule` over the compiled arrays: :func:`prepare_list_state`,
    then the event loop, recording starts in placement order (the order
    the reference builds them in)."""
    delays: Dict[str, int] = {}
    for op in graph:
        version = allocation.get(op.op_id)
        if version is None:
            raise SchedulingError(f"operation {op.op_id!r} has no allocation")
        if instance_counts.get(version.name, 0) < 1:
            raise SchedulingError(
                f"no instances budgeted for version {version.name!r}")
        delays[op.op_id] = version.delay
    state = prepare_list_state(graph, allocation)
    placed: List[Tuple[int, int]] = []
    _run_list(state, [instance_counts[name] for name in state.pools],
              max_steps, placed)
    ids, order = compile_graph(graph).op_ids, state.order
    starts = {ids[order[r]]: step for r, step in placed}
    return schedule_from_starts(graph, starts, delays)


# ----------------------------------------------------------------------
# batched kernels: propagate B delay assignments in one level pass
# ----------------------------------------------------------------------
def _batched_base_timing(cg: CompiledGraph, matrix: np.ndarray
                         ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-parallel :func:`_compute_base_timing`: *matrix* stacks B
    delay rows and every level pass propagates all B columns at once
    (``reduceat`` along axis 1).  Returns ``(asap, tail, critical)`` as
    ``(B, n)``, ``(B, n)`` and ``(B,)`` arrays."""
    n_batch, n = matrix.shape
    asap = np.zeros((n_batch, n), dtype=np.int64)
    finish = matrix.copy()
    for nodes, gather, seg_ptr in cg.fwd_levels:
        earliest = np.maximum.reduceat(finish[:, gather], seg_ptr, axis=1)
        asap[:, nodes] = earliest
        finish[:, nodes] = earliest + matrix[:, nodes]
    tail = matrix.copy()
    for nodes, gather, seg_ptr in cg.rev_levels:
        tail[:, nodes] += np.maximum.reduceat(tail[:, gather], seg_ptr,
                                              axis=1)
    if n:
        critical = finish.max(axis=1)
    else:
        critical = np.zeros(n_batch, dtype=np.int64)
    return asap, tail, critical


def batched_timing(graph: DataFlowGraph,
                   delays_list: List[Mapping[str, int]]
                   ) -> List[_BaseTiming]:
    """:func:`base_timing` for many delay assignments at once.

    Distinct uncached rows are stacked and propagated in a single
    batched level pass; duplicates and memo hits cost nothing extra.
    The per-row results land in the same compiled-graph memo the
    per-item path reads, so follow-up single evaluations stay warm.
    """
    cg = compile_graph(graph)
    memo = cg._timing_cache
    keyed = []
    # every memo hit is copied out *now*: a capacity clear later in
    # this call (or from a concurrent caller sharing the compiled
    # graph) must not lose rows this call already resolved
    resolved: Dict[bytes, _BaseTiming] = {}
    missing: Dict[bytes, None] = {}  # an ordered set
    for delays in delays_list:
        key = cg.delays_key(delays)
        keyed.append(key)
        if key in resolved or key in missing:
            continue
        cached = memo.get(key)
        if cached is not None:
            resolved[key] = cached
        else:
            missing[key] = None
    if missing:
        matrix = np.frombuffer(b"".join(missing), dtype=np.int64).reshape(
            len(missing), cg.n_ops)
        asap, tail, critical = _batched_base_timing(cg, matrix)
        for b, key in enumerate(missing):
            timing = _BaseTiming(asap[b].tolist(), tail[b].tolist(),
                                 int(critical[b]))
            resolved[key] = timing
            if len(memo) >= TIMING_MEMO_ENTRIES:
                memo.clear()
            memo[key] = timing
    return [resolved[key] for key in keyed]


def batched_time_frames(graph: DataFlowGraph,
                        delays_list: List[Mapping[str, int]],
                        latencies: List[int],
                        fixed_list: Optional[List[Optional[
                            Mapping[str, int]]]] = None
                        ) -> List[Dict[str, Tuple[int, int]]]:
    """``[fast_time_frames(g, d, L, f) for d, L, f in zip(...)]`` with
    one shared batched timing pass.

    Items carrying ``fixed`` placements take the per-item constrained
    propagation (their frames are not derivable from base timing); all
    error messages and the first-error-wins order match the sequential
    loop exactly.
    """
    if fixed_list is None:
        fixed_list = [None] * len(delays_list)
    if not (len(delays_list) == len(latencies) == len(fixed_list)):
        raise ValueError("batched_time_frames arguments differ in length")
    cg = compile_graph(graph)
    timings = batched_timing(graph, delays_list)
    ids = cg.op_ids
    topo = cg.topo_order
    results = []
    for delays, latency, fixed, timing in zip(delays_list, latencies,
                                              fixed_list, timings):
        if not fixed:
            asap, tail = timing.asap, timing.tail
            alap = [latency - t for t in tail]
            _check_alap(cg, alap, latency)
        else:
            arr = cg.delays_array(delays)
            asap = _asap_with_fixed(cg, arr, fixed)
            alap = _alap_with_fixed(cg, arr, latency, fixed)
        frames: Dict[str, Tuple[int, int]] = {}
        for i in topo:  # first empty frame in topo order wins
            if asap[i] > alap[i]:
                raise SchedulingError(
                    f"operation {ids[i]!r} has an empty time frame "
                    f"[{asap[i]}, {alap[i]}] at latency {latency}")
            frames[ids[i]] = (int(asap[i]), int(alap[i]))
        results.append(frames)
    return results


def batched_density_schedules(graph: DataFlowGraph,
                              requests: List[Tuple[Mapping[str, int],
                                                   Optional[int]]]
                              ) -> List[Schedule]:
    """``[fast_density_schedule(g, d, L) for d, L in requests]`` with
    the placement loops of all requests advanced in lockstep.

    Requests are deduplicated on (delays, latency); every distinct
    column whose scaled costs fit in int64 joins one vectorized solver
    (:func:`_solve_density_lockstep`) where each of the ``n`` placement
    rounds runs selection, candidate scan, re-patching and the frame
    recompute across all columns at once.  Columns past that bound run
    the exact per-item solver (:func:`_solve_density`), so results and
    raised errors (first failing request wins) are identical to the
    sequential loop by construction.
    """
    requests = list(requests)
    if not requests:
        return []
    if len(graph) == 0:
        raise SchedulingError("cannot schedule an empty graph")
    cg = compile_graph(graph)
    timings = batched_timing(graph, [d for d, _ in requests])
    resolved = []
    for (delays, latency), timing in zip(requests, timings):
        minimum = timing.critical
        if latency is None:
            latency = minimum
        if latency < minimum:
            raise SchedulingError(
                f"latency {latency} is below the critical path "
                f"length {minimum}")
        resolved.append((delays, latency, timing))

    # dedupe into columns; remember each request's column
    columns: Dict[Tuple[bytes, int], int] = {}
    order: List[Tuple[Mapping[str, int], int, _BaseTiming]] = []
    assign: List[int] = []
    for delays, latency, timing in resolved:
        dedup_key = (cg.delays_key(delays), latency)
        col = columns.get(dedup_key)
        if col is None:
            col = columns[dedup_key] = len(order)
            order.append((delays, latency, timing))
        assign.append(col)

    # a column joins the lockstep solver only when its int64 arithmetic
    # cannot overflow: every scaled occupancy (column) sum is at most
    # scale * sum(d), which must stay below the padding sentinel
    lockstep: List[int] = []
    solo: List[int] = []
    for col, (delays, latency, timing) in enumerate(order):
        hi = [latency - t for t in timing.tail]
        work = max(1, sum(delays[op_id] for op_id in cg.op_ids))
        if _window_scale(timing.asap, hi) * work < _LOCKSTEP_BIG:
            lockstep.append(col)
        else:
            solo.append(col)

    if cg.n_ops * len(lockstep) < LOCKSTEP_MIN_WORK:
        solo.extend(lockstep)
        lockstep = []

    schedules: List[Optional[Schedule]] = [None] * len(order)
    if lockstep:
        solved = _solve_density_lockstep(
            cg, [order[col] for col in lockstep])
        for col, fixed in zip(lockstep, solved):
            delays = order[col][0]
            schedules[col] = schedule_from_starts(graph, fixed, delays)
    for col in solo:
        delays, latency, timing = order[col]
        d = [delays[op_id] for op_id in cg.op_ids]
        schedules[col] = schedule_from_starts(
            graph, _solve_density(cg, d, timing, latency), delays)
    return [schedules[col] for col in assign]


def _solve_density_lockstep(cg: CompiledGraph,
                            cols: List[Tuple[Mapping[str, int], int,
                                             _BaseTiming]]
                            ) -> List[Dict[str, int]]:
    """Vectorized :func:`_solve_density` over B independent columns.

    Per-column equivalence with the per-item solver:

    * **Selection.**  The per-item most-constrained-first choice
      ``min((hi - lo, rank))`` equals ``argmin((hi - lo) * n + rank)``
      because ranks are the integers ``0..n-1`` (injective encoding).
    * **Cost scale.**  Each column uses the per-item solver's scale
      ``lcm(1..w0max)``, so every candidate cost here is the per-item
      exact integer cost, and the earliest strict minimum is NumPy's
      first-occurrence argmin.  The caller admits a column only when
      ``scale * max(1, sum(d))`` — a bound on every occupancy prefix
      sum — stays below the ``2**62`` padding sentinel, so no int64
      operation overflows.
    * **Frames.**  After each pin, every column's time frames tighten
      by the *same* rank-ordered worklist recursion the per-item solver
      runs (the code is a per-column copy of it), so the frames — and
      therefore the occupancy patches — agree exactly; only the
      selection, candidate scan and occupancy re-patching are
      vectorized across columns.

    Returns one placement-ordered ``{op_id: start}`` dict per column.
    """
    n = cg.n_ops
    n_batch = len(cols)
    matrix = np.stack([cg.delays_array(delays) for delays, _, _ in cols])
    lat = np.array([latency for _, latency, _ in cols], dtype=np.int64)
    lo = np.stack([np.asarray(t.asap, dtype=np.int64)
                   for _, _, t in cols])
    hi = lat[:, None] - np.stack([np.asarray(t.tail, dtype=np.int64)
                                  for _, _, t in cols])
    pinned = np.zeros((n_batch, n), dtype=bool)
    rank = cg.topo_rank.astype(np.int64)
    rcode = cg.rtype_codes.astype(np.int64)
    lat_max = int(lat.max())
    scale = np.array([_window_scale(t.asap, hi_c)
                      for (_, _, t), hi_c in zip(cols, hi.tolist())],
                     dtype=np.int64)

    # merged scaled occupancy: scaled[c, r, t] = scale[c] * density of
    # rtype r at step t (an exact integer by choice of scale)
    n_rtypes = len(cg.rtype_names)
    scaled = np.zeros((n_batch, n_rtypes, lat_max), dtype=np.int64)
    t_grid = np.arange(lat_max, dtype=np.int64)[None, :]

    def coverage(lo_, hi_, d_):
        """(rows, lat_max) trapezoid coverage counts; zero outside the
        occupied span [lo, hi + d) and for zero-delay rows."""
        return np.maximum(np.minimum(hi_, t_grid)
                          - np.maximum(lo_, t_grid - d_ + 1) + 1, 0)

    # initial occupancy: all (column, op) windows patched in one pass
    w0 = (hi - lo + 1).reshape(-1, 1)
    contrib = (np.repeat(scale, n)[:, None] // w0) * coverage(
        lo.reshape(-1, 1), hi.reshape(-1, 1), matrix.reshape(-1, 1))
    np.add.at(scaled, (np.repeat(np.arange(n_batch), n),
                       np.tile(rcode, n_batch)), contrib)

    # per-column Python mirrors drive the worklist frame updates (the
    # exact per-item recursion); the numpy arrays stay authoritative
    # for selection, scanning and patching
    preds, succs = cg.preds, cg.succs
    rank_py = cg.topo_rank.tolist()
    d_py = matrix.tolist()
    lat_py = lat.tolist()
    lo_py = lo.tolist()
    hi_py = hi.tolist()
    pin_py = [[False] * n for _ in range(n_batch)]

    placements: List[List[Tuple[int, int]]] = [[] for _ in range(n_batch)]
    big = np.int64(_LOCKSTEP_BIG)

    # drain forced placements eagerly: a width-1 window pins at its
    # only feasible start, which moves no frame (the worklist recursion
    # finds nothing to tighten) and adds no occupancy beyond what its
    # window already contributes (``scale * cov - (scale // 1) * cov
    # == 0``) — the per-item solver runs its full machinery over these
    # rounds to the same effect.  The per-item selection key
    # (width, rank) prefers every width-1 window over any wider one, so
    # draining them all before the next contested pin reproduces the
    # per-item sequence exactly.  A window can only reach width 1 at
    # setup or by a frame move, so past the initial sweep only the
    # ``changed`` ops of each cascade need checking.
    drained_c: List[int] = []
    drained_i: List[int] = []
    remaining = [n] * n_batch
    for c in range(n_batch):
        lo_c, hi_c, pin_c = lo_py[c], hi_py[c], pin_py[c]
        for i in range(n):
            if lo_c[i] == hi_c[i]:
                pin_c[i] = True
                placements[c].append((i, lo_c[i]))
                drained_c.append(c)
                drained_i.append(i)
                remaining[c] -= 1
    if drained_c:
        pinned[drained_c, drained_i] = True
    active = [c for c in range(n_batch) if remaining[c]]
    # round-loop scratch: a single prefix-sum buffer (column 0 stays
    # zero) and a single offset ramp, sliced per round instead of
    # reallocated — with a handful of columns the per-call overhead of
    # small numpy allocations dominates the arithmetic
    arange_b = np.arange(n_batch)
    track = scaled.shape[2]
    csum_buf = np.zeros((n_batch, track + 1), dtype=np.int64)
    offs_buf = np.arange(track + 1, dtype=np.int64)
    while active:
        # one contested placement per still-active column (every
        # remaining window has width >= 2 after the drains):
        # most-constrained first, topological order breaking ties
        n_act = len(active)
        if n_act == n_batch:
            # equal-length columns finish together, so the batch stays
            # full for every round but the last: index the arrays
            # directly instead of materialising subset copies
            act = arange_b
            lo_a, hi_a, pin_a = lo, hi, pinned
        else:
            act = np.array(active)
            lo_a, hi_a, pin_a = lo[act], hi[act], pinned[act]
        arange_a = arange_b[:n_act]
        keys = np.where(pin_a, big, (hi_a - lo_a) * n + rank[None, :])
        sel = np.argmin(keys, axis=1)
        d_sel = matrix[act, sel]
        lo_sel = lo_a[arange_a, sel]
        hi_sel = hi_a[arange_a, sel]
        r_sel = rcode[sel]
        # earliest least-dense start per column, via one prefix-sum of
        # the column's merged row and a padded candidate-window gather
        sel_rows = scaled[act, r_sel]
        csum = csum_buf[:n_act]
        np.cumsum(sel_rows, axis=1, out=csum[:, 1:])
        k_count = hi_sel - lo_sel + 1
        k_max = int(k_count.max())
        offs = offs_buf[:k_max][None, :]
        # padding candidates clamp to hi (within bounds); they lose
        # the argmin to the first-occurrence minimum via the mask
        cand = np.minimum(lo_sel[:, None] + offs, hi_sel[:, None])
        valid = offs < k_count[:, None]
        nums = (csum[arange_a[:, None], cand + d_sel[:, None]]
                - csum[arange_a[:, None], cand])
        nums[~valid] = big
        start = lo_sel + np.argmin(nums, axis=1)
        lo[act, sel] = start
        hi[act, sel] = start
        pinned[act, sel] = True
        # tighten every column's frames with the per-item worklists
        # (descendants' ASAP rises, ancestors' ALAP falls) and collect
        # the moved windows for one vectorized occupancy re-patch
        sel_py = sel.tolist()
        start_py = start.tolist()
        moved: List[Tuple[int, int, int, int, int, int]] = []
        drained_c = []
        drained_i = []
        for c, i, s in zip(active, sel_py, start_py):
            placements[c].append((i, s))
            remaining[c] -= 1
            lo_c, hi_c, pin_c, d_c = lo_py[c], hi_py[c], pin_py[c], d_py[c]
            # the pin itself is a window move [lo, hi] -> [s, s]; it
            # rides the same vectorized re-patch as the frame updates
            moved.append((c, i, lo_c[i], hi_c[i], s, s))
            lo_c[i] = hi_c[i] = s
            pin_c[i] = True
            changed: Dict[int, Tuple[int, int]] = {}
            heap = [(rank_py[j], j) for j in succs[i]]
            heapq.heapify(heap)
            seen = set()
            while heap:
                _, j = heapq.heappop(heap)
                if j in seen or pin_c[j]:
                    continue
                seen.add(j)
                new_lo = 0
                for p in preds[j]:
                    finish = lo_c[p] + d_c[p]
                    if finish > new_lo:
                        new_lo = finish
                if new_lo != lo_c[j]:
                    changed.setdefault(j, (lo_c[j], hi_c[j]))
                    lo_c[j] = new_lo
                    for t in succs[j]:
                        heapq.heappush(heap, (rank_py[t], t))
            heap = [(-rank_py[j], j) for j in preds[i]]
            heapq.heapify(heap)
            seen = set()
            while heap:
                _, j = heapq.heappop(heap)
                if j in seen or pin_c[j]:
                    continue
                seen.add(j)
                new_hi = lat_py[c]
                for t in succs[j]:
                    if hi_c[t] < new_hi:
                        new_hi = hi_c[t]
                new_hi -= d_c[j]
                if new_hi != hi_c[j]:
                    changed.setdefault(j, (lo_c[j], hi_c[j]))
                    hi_c[j] = new_hi
                    for p in preds[j]:
                        heapq.heappush(heap, (-rank_py[p], p))
            for j, (old_lo, old_hi) in changed.items():
                moved.append((c, j, old_lo, old_hi, lo_c[j], hi_c[j]))
                # a cascade that squeezes a window to width 1 forces
                # that op: drain it now (see the pre-loop drain note)
                if lo_c[j] == hi_c[j]:
                    pin_c[j] = True
                    placements[c].append((j, lo_c[j]))
                    drained_c.append(c)
                    drained_i.append(j)
                    remaining[c] -= 1
        if moved:
            m_arr = np.array(moved, dtype=np.int64)
            c_arr = m_arr[:, 0]
            j_arr = m_arr[:, 1]
            ol = m_arr[:, 2:3]
            oh = m_arr[:, 3:4]
            nl = m_arr[:, 4:5]
            nh = m_arr[:, 5:6]
            d_j = matrix[c_arr, j_arr][:, None]
            s_j = scale[c_arr][:, None]
            delta = (s_j // (nh - nl + 1)) * coverage(nl, nh, d_j)
            delta -= (s_j // (oh - ol + 1)) * coverage(ol, oh, d_j)
            np.add.at(scaled, (c_arr, rcode[j_arr]), delta)
            lo[c_arr, j_arr] = nl[:, 0]
            hi[c_arr, j_arr] = nh[:, 0]
        if drained_c:
            pinned[drained_c, drained_i] = True
        active = [c for c in active if remaining[c]]
    ids = cg.op_ids
    return [{ids[i]: start for i, start in placement}
            for placement in placements]

