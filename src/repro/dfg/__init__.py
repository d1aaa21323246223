"""Data-flow graphs: the behavioural input of the synthesis flow.

Public surface:

* :class:`~repro.dfg.node.Operation` and :class:`~repro.dfg.graph.DataFlowGraph`
* :class:`~repro.dfg.builder.DFGBuilder` plus :func:`chain` /
  :func:`reduction_tree` helpers
* analysis: :func:`critical_path`, :func:`depth`, :func:`summarize`, ...
* persistence: :mod:`repro.dfg.textio` and :func:`to_dot`
* generators and transformations for tests and ablations
* :class:`~repro.dfg.compiled.CompiledGraph` / :func:`compile_graph`:
  the integer-indexed form the fast scheduling kernels run on
"""

from repro.dfg.analysis import (
    critical_path,
    critical_path_length,
    depth,
    earliest_starts,
    is_connected,
    max_parallelism,
    summarize,
    unit_delays,
    width_profile,
)
from repro.dfg.builder import DFGBuilder, chain, reduction_tree
from repro.dfg.compiled import CompiledGraph, compile_graph
from repro.dfg.dot import to_dot
from repro.dfg.generators import fir_like, layered_dag, random_dag
from repro.dfg.graph import DataFlowGraph
from repro.dfg.node import KIND_TO_RTYPE, Operation, RTYPE_ADD, RTYPE_MUL
from repro.dfg.transforms import duplicate_graph, rebalance_reduction

__all__ = [
    "DataFlowGraph",
    "CompiledGraph",
    "compile_graph",
    "DFGBuilder",
    "Operation",
    "KIND_TO_RTYPE",
    "RTYPE_ADD",
    "RTYPE_MUL",
    "chain",
    "reduction_tree",
    "critical_path",
    "critical_path_length",
    "depth",
    "earliest_starts",
    "unit_delays",
    "width_profile",
    "max_parallelism",
    "is_connected",
    "summarize",
    "to_dot",
    "random_dag",
    "layered_dag",
    "fir_like",
    "duplicate_graph",
    "rebalance_reduction",
]
