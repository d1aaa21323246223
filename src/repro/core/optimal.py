"""Exhaustive (branch-and-bound) reference solver for small graphs.

``find_design`` is a greedy heuristic; this module finds the *true*
reliability optimum for small data-flow graphs by searching the full
allocation space (every operation × every version of its type) with
two sound prunings:

* **reliability bound** — a partial allocation whose best-case
  completion (most reliable version for every remaining operation)
  cannot beat the incumbent is cut;
* **latency bound** — a partial allocation whose critical path is
  already infeasible even with the fastest versions for the remaining
  operations is cut.

It exists as an oracle: the test suite checks that the greedy never
beats it (sanity) and stays within a small factor of it (quality).
Complexity is exponential; guarded by ``max_operations``.
"""

from __future__ import annotations

import math
from typing import Dict, List

from repro.dfg.graph import DataFlowGraph
from repro.errors import NoSolutionError, ReproError
from repro.hls.metrics import AREA_INSTANCES
from repro.library.library import ResourceLibrary
from repro.library.version import ResourceVersion
from repro.core.design import DesignResult, check_area_model
from repro.core.evaluate import evaluate_allocation, min_latency


def optimal_design(graph: DataFlowGraph,
                   library: ResourceLibrary,
                   latency_bound: int,
                   area_bound: int,
                   *,
                   area_model: str = AREA_INSTANCES,
                   max_operations: int = 12) -> DesignResult:
    """The most reliable feasible design, by exhaustive search.

    Raises
    ------
    ReproError
        If the graph exceeds *max_operations* (the search is
        exponential by design).
    NoSolutionError
        If no allocation meets the bounds.
    """
    graph.validate()
    check_area_model(area_model)
    if len(graph) > max_operations:
        raise ReproError(
            f"optimal_design is exponential; {graph.name!r} has "
            f"{len(graph)} operations (> max_operations={max_operations})")

    op_ids = graph.topological_order()
    choices: Dict[str, List[ResourceVersion]] = {
        op_id: sorted(library.versions_of(graph.operation(op_id).rtype),
                      key=lambda v: -v.reliability)
        for op_id in op_ids
    }
    best_rest: List[float] = [0.0] * (len(op_ids) + 1)
    for index in range(len(op_ids) - 1, -1, -1):
        top = choices[op_ids[index]][0].reliability
        best_rest[index] = best_rest[index + 1] + math.log(top)

    fastest = {
        op_id: min(choices[op_id], key=lambda v: v.delay)
        for op_id in op_ids
    }

    state: Dict[str, ResourceVersion] = {}
    best: Dict[str, object] = {"log_r": -math.inf, "result": None}

    def recurse(index: int, log_r: float) -> None:
        if log_r + best_rest[index] <= best["log_r"] + 1e-15:
            return
        if index == len(op_ids):
            evaluation = evaluate_allocation(graph, state, latency_bound,
                                             area_model)
            if evaluation is None or evaluation.area > area_bound:
                return
            best["log_r"] = log_r
            best["result"] = DesignResult(
                graph=graph,
                allocation=dict(state),
                schedule=evaluation.schedule,
                binding=evaluation.binding,
                latency_bound=latency_bound,
                area_bound=area_bound,
                area_model=area_model,
                method="optimal",
            )
            return
        op_id = op_ids[index]
        for version in choices[op_id]:
            state[op_id] = version
            # latency prune: fastest completion of the rest
            trial = {o: state.get(o, fastest[o]) for o in op_ids}
            if min_latency(graph, trial) <= latency_bound:
                recurse(index + 1, log_r + math.log(version.reliability))
            del state[op_id]

    recurse(0, 0.0)
    if best["result"] is None:
        raise NoSolutionError(
            f"optimal search: no design of {graph.name!r} meets latency "
            f"<= {latency_bound} and area <= {area_bound}")
    return best["result"]
