"""The paper's partition-density scheduler (Section 6).

The scheduling heuristic described in the paper partitions the
schedule into ``L`` steps, builds a *density* per (resource type,
step) — the sum of the probabilities with which operations of that
type can occupy the step, each operation spreading uniformly over its
ASAP–ALAP window — and places each operation into the least dense
feasible partition.  Distributing same-type operations evenly across
steps minimizes the peak concurrency, and hence the number of resource
instances the binder needs.  This is the classic force-directed
distribution-graph idea, which the paper adopts in simplified form.

Operations are placed most-constrained-first (smallest mobility) and
all time frames are recomputed after every placement, so dependencies
are honoured exactly rather than probabilistically.

Densities and costs are exact rationals (:class:`fractions.Fraction`),
so the least dense start is the earliest strict minimum — no float
tolerance decides a tie.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Mapping, Optional

from repro.dfg.graph import DataFlowGraph
from repro.errors import SchedulingError
from repro.hls.schedule import Schedule, schedule_from_starts
from repro.hls.timing import asap_latency, time_frames


def _occupancy_probability(frames, delays, graph, rtype: str,
                           fixed: Mapping[str, int]) -> Dict[int, Fraction]:
    """Distribution graph: step → expected number of busy *rtype* ops."""
    density: Dict[int, Fraction] = {}
    for op in graph:
        if op.rtype != rtype:
            continue
        delay = delays[op.op_id]
        if op.op_id in fixed:
            start_lo = start_hi = fixed[op.op_id]
        else:
            start_lo, start_hi = frames[op.op_id]
        weight = Fraction(1, start_hi - start_lo + 1)
        for start in range(start_lo, start_hi + 1):
            for step in range(start, start + delay):
                density[step] = density.get(step, 0) + weight
    return density


def density_schedule(graph: DataFlowGraph,
                     delays: Mapping[str, int],
                     latency: Optional[int] = None) -> Schedule:
    """Schedule *graph* into *latency* steps by least-dense placement.

    Parameters
    ----------
    graph:
        The data-flow graph to schedule.
    delays:
        Operation id → delay (from the current resource allocation).
    latency:
        Number of steps to schedule into; defaults to the ASAP minimum
        (the paper's initial choice).  Must be at least the critical
        path length.

    Returns
    -------
    Schedule
        A validated schedule of exactly the requested latency budget
        (the realized latency may be smaller if the graph has slack it
        cannot usefully spend).
    """
    if len(graph) == 0:
        raise SchedulingError("cannot schedule an empty graph")
    minimum = asap_latency(graph, delays)
    if latency is None:
        latency = minimum
    if latency < minimum:
        raise SchedulingError(
            f"latency {latency} is below the critical path length {minimum}")

    fixed: Dict[str, int] = {}
    remaining = set(graph.op_ids())
    order_index = {op_id: i for i, op_id in enumerate(graph.topological_order())}

    while remaining:
        frames = time_frames(graph, delays, latency, fixed)
        # Most-constrained first; topological order breaks ties so
        # producers settle before their consumers.
        op_id = min(
            remaining,
            key=lambda o: (frames[o][1] - frames[o][0], order_index[o]),
        )
        op = graph.operation(op_id)
        density = _occupancy_probability(frames, delays, graph, op.rtype, fixed)
        delay = delays[op_id]
        start_lo, start_hi = frames[op_id]
        own_weight = Fraction(1, start_hi - start_lo + 1)

        best_start = start_lo
        best_cost = None
        for start in range(start_lo, start_hi + 1):
            cost = Fraction(0)
            for step in range(start, start + delay):
                # Exclude this op's own probability mass: we are asking
                # how crowded the partition is with *other* work.
                cost += density.get(step, 0) - own_weight
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_start = start
        fixed[op_id] = best_start
        remaining.discard(op_id)

    return schedule_from_starts(graph, fixed, delays)


def asap_schedule(graph: DataFlowGraph,
                  delays: Mapping[str, int]) -> Schedule:
    """The plain ASAP schedule (everything as early as possible)."""
    from repro.hls.timing import asap_starts

    return schedule_from_starts(graph, asap_starts(graph, delays), delays)
