"""Compiled, integer-indexed view of a data-flow graph.

Profiling cold synthesis runs showed the single hottest operation in
the whole flow was not arithmetic but *graph bookkeeping*: every
``time_frames`` call re-derived the topological order, and every
scheduler pass walked string-keyed adjacency dicts.  A
:class:`CompiledGraph` pays those costs exactly once per graph: the
node set is flattened into dense integer indices (insertion order),
adjacency into per-node tuples of predecessor and successor indices,
the deterministic topological order into a tuple of indices (and its
inverse, each node's rank), and resource types into small integer
codes.  Everything is plain Python tuples, which the pure-Python
kernels of :mod:`repro.hls.fastsched` index directly.

Compilation is cached on the graph object itself (invalidated when the
operation or edge count changes), so every evaluation of a graph —
including the thousands a single sweep performs — shares one compiled
form.  The compiled form is faithful: :meth:`CompiledGraph.to_graph`
reconstructs an equivalent :class:`~repro.dfg.graph.DataFlowGraph`
(same ids, kinds, rtypes, labels and edge order), and the topological
order *is* :meth:`DataFlowGraph.topological_order` (smallest insertion
index among ready nodes), so compiled and reference algorithms
traverse nodes in the same sequence.
"""

from __future__ import annotations

from functools import partial
from operator import itemgetter
from struct import pack
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.dfg.graph import DataFlowGraph
from repro.dfg.node import Operation

#: Format character of :meth:`CompiledGraph.delays_key` vectors
#: (``struct`` and ``memoryview`` agree on it): native int64, so a key
#: decodes with ``memoryview(key).cast(DELAYS_TYPECODE).tolist()``.
DELAYS_TYPECODE = "q"

#: Attribute used to cache the compiled form on the graph object.
_CACHE_ATTR = "_compiled_graph_cache"
#: pickles must strip the cache (workers recompile in O(V+E)); the
#: stripping happens by name in DataFlowGraph.__getstate__
assert _CACHE_ATTR in DataFlowGraph._TRANSIENT_ATTRS


class CompiledGraph:
    """Integer-indexed tuples describing one :class:`DataFlowGraph`.

    Operations are numbered ``0..n_ops-1`` in graph insertion order.
    All fields are read-only views of the graph at compile time; use
    :func:`compile_graph` (which re-compiles when the graph grew) to
    obtain one.
    """

    __slots__ = (
        "name", "n_ops", "n_edges",
        "op_ids", "index", "kinds", "rtypes_per_op", "labels",
        "rtype_names", "rtype_codes",
        "edge_list", "preds", "succs", "topo_order", "topo_rank",
        "gather", "_pack_delays", "_timing_cache",
    )

    def __init__(self, graph: DataFlowGraph):
        self.name = graph.name
        op_ids = graph.op_ids()
        n = len(op_ids)
        self.n_ops = n
        self.op_ids: Tuple[str, ...] = tuple(op_ids)
        self.index: Dict[str, int] = {op_id: i
                                      for i, op_id in enumerate(op_ids)}
        #: ``gather(mapping)``: the values of an op-id keyed mapping as
        #: a tuple in compiled op order (KeyError for a missing op)
        self.gather: Callable[[Mapping], tuple] = _gatherer(self.op_ids)
        self._pack_delays = partial(pack, f"{n}{DELAYS_TYPECODE}")
        ops = graph.operations()
        self.kinds: Tuple[str, ...] = tuple(op.kind for op in ops)
        self.rtypes_per_op: Tuple[str, ...] = tuple(op.rtype for op in ops)
        self.labels: Tuple[Optional[str], ...] = tuple(op.label for op in ops)

        self.rtype_names: Tuple[str, ...] = tuple(
            sorted(set(self.rtypes_per_op)))
        code_of = {name: c for c, name in enumerate(self.rtype_names)}
        self.rtype_codes: Tuple[int, ...] = tuple(
            code_of[r] for r in self.rtypes_per_op)

        edges = graph.edges()
        self.n_edges = len(edges)
        index = self.index
        self.edge_list: Tuple[Tuple[int, int], ...] = tuple(
            (index[u], index[v]) for u, v in edges)

        preds: List[List[int]] = [[] for _ in range(n)]
        succs: List[List[int]] = [[] for _ in range(n)]
        for u, v in self.edge_list:
            preds[v].append(u)
            succs[u].append(v)
        self.preds: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(p) for p in preds)
        self.succs: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(s) for s in succs)

        self.topo_order: Tuple[int, ...] = tuple(
            index[op_id] for op_id in graph.topological_order())
        #: ``topo_rank[topo_order[k]] == k``
        rank = [0] * n
        for k, i in enumerate(self.topo_order):
            rank[i] = k
        self.topo_rank: Tuple[int, ...] = tuple(rank)
        # delays-keyed ASAP/tail memo used by repro.hls.fastsched
        self._timing_cache: Dict[tuple, object] = {}

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.n_ops

    def topo_ids(self) -> List[str]:
        """Operation ids in topological order (== the graph's)."""
        return [self.op_ids[i] for i in self.topo_order]

    def delays_array(self, delays: Mapping[str, int]) -> List[int]:
        """Per-index delay list from an op-id keyed mapping."""
        return list(self.gather(delays))

    def delays_key(self, delays: Mapping[str, int]) -> bytes:
        """The one hashable identity of a delays vector on this graph.

        Per-index delays in compiled op order (insertion order) packed as
        native int64 bytes.  ``bytes`` caches its hash, so every memo
        layer keyed by it hashes the vector once; the engine's timing,
        schedule and probe-table layers and :func:`repro.hls.fastsched.
        base_timing` all share this key.  Entries of *delays* for
        operations outside the graph are ignored.
        """
        return self._pack_delays(*self.gather(delays))

    def rtype_of(self, i: int) -> str:
        """Resource-type name of operation index *i*."""
        return self.rtype_names[self.rtype_codes[i]]

    # ------------------------------------------------------------------
    # round trip
    # ------------------------------------------------------------------
    def to_graph(self) -> DataFlowGraph:
        """Reconstruct an equivalent :class:`DataFlowGraph`.

        Ids, kinds, rtypes, labels and the edge insertion order are
        preserved, so ``compile_graph(cg.to_graph())`` yields identical
        tuples.
        """
        graph = DataFlowGraph(self.name)
        for i, op_id in enumerate(self.op_ids):
            graph.add_operation(Operation(op_id, self.kinds[i],
                                          self.rtypes_per_op[i],
                                          self.labels[i]))
        for u, v in self.edge_list:
            graph.add_edge(self.op_ids[u], self.op_ids[v])
        return graph

    def __repr__(self) -> str:
        return (f"CompiledGraph(name={self.name!r}, ops={self.n_ops}, "
                f"edges={self.n_edges}, rtypes={self.rtype_names})")


def _gatherer(op_ids: Tuple[str, ...]) -> Callable[[Mapping], tuple]:
    """A picklable ``mapping -> tuple of per-op values`` for *op_ids*
    (C-level ``itemgetter`` whenever it returns a tuple)."""
    if len(op_ids) > 1:
        return itemgetter(*op_ids)
    # itemgetter returns a bare value for one key and needs at least one
    return partial(_gather_few, op_ids)


def _gather_few(op_ids: Tuple[str, ...], mapping: Mapping) -> tuple:
    return tuple(mapping[op_id] for op_id in op_ids)


def compile_graph(graph: DataFlowGraph) -> CompiledGraph:
    """The cached compiled form of *graph*.

    The compiled form is stored on the graph object and rebuilt when
    the operation or edge count changes (the same invalidation contract
    the evaluation engine's graph registry uses); callers therefore
    treat this as O(1) after the first evaluation of a graph.
    """
    cached = graph.__dict__.get(_CACHE_ATTR)
    if cached is not None:
        n_ops, n_edges, compiled = cached
        if n_ops == len(graph) and n_edges == graph.edge_count():
            return compiled
    compiled = CompiledGraph(graph)
    graph.__dict__[_CACHE_ATTR] = (compiled.n_ops, compiled.n_edges,
                                   compiled)
    return compiled
