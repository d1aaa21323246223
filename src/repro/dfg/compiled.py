"""Compiled, integer-indexed view of a data-flow graph.

Profiling cold synthesis runs showed the single hottest operation in
the whole flow was not arithmetic but *graph bookkeeping*: every
``time_frames`` call re-derived the topological order, and every
scheduler pass walked string-keyed adjacency dicts.  A
:class:`CompiledGraph` pays those costs exactly once per graph: the
node set is flattened into dense integer indices (insertion order),
adjacency into CSR arrays, the deterministic topological order into a
permutation array (also kept as a tuple of Python ints for per-node
loops), and resource types into small integer codes.  Structural
*levels* (longest-path depth in edge count, forward and reverse) are
precomputed so batched timing passes can propagate many delay vectors
level-by-level with NumPy gather/``reduceat`` kernels
(:mod:`repro.hls.fastsched` builds on exactly these arrays).

Compilation is cached on the graph object itself (invalidated when the
operation or edge count changes), so every evaluation of a graph —
including the thousands a single sweep performs — shares one compiled
form.  The compiled form is faithful: :meth:`CompiledGraph.to_graph`
reconstructs an equivalent :class:`~repro.dfg.graph.DataFlowGraph`
(same ids, kinds, rtypes, labels and edge order), and the topological
order *is* :meth:`DataFlowGraph.topological_order` (smallest insertion
index among ready nodes), so array-based and reference algorithms
traverse nodes in the same sequence.
"""

from __future__ import annotations

from functools import partial
from operator import itemgetter
from struct import pack
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.dfg.graph import DataFlowGraph
from repro.dfg.node import Operation
from repro.errors import DFGError

#: Format character of :meth:`CompiledGraph.delays_key` vectors
#: (``struct`` and ``memoryview`` agree on it): native int64,
#: so a key is byte-identical to the same delays as an ``np.int64``
#: vector and decodes with ``np.frombuffer(key, dtype=np.int64)``.
DELAYS_TYPECODE = "q"

#: Attribute used to cache the compiled form on the graph object.
_CACHE_ATTR = "_compiled_graph_cache"
#: pickles must strip the cache (workers recompile in O(V+E)); the
#: stripping happens by name in DataFlowGraph.__getstate__
assert _CACHE_ATTR in DataFlowGraph._TRANSIENT_ATTRS


class CompiledGraph:
    """Integer-indexed arrays describing one :class:`DataFlowGraph`.

    Operations are numbered ``0..n_ops-1`` in graph insertion order.
    All arrays are read-only views of the graph at compile time; use
    :func:`compile_graph` (which re-compiles when the graph grew) to
    obtain one.
    """

    __slots__ = (
        "name", "n_ops", "n_edges",
        "op_ids", "index", "kinds", "rtypes_per_op", "labels",
        "rtype_names", "rtype_codes",
        "edge_list",
        "pred_ptr", "pred_idx", "succ_ptr", "succ_idx",
        "preds", "succs",
        "topo", "topo_order", "topo_rank",
        "fwd_levels", "rev_levels", "source_idx", "sink_idx",
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
        self.rtype_codes = np.fromiter(
            (code_of[r] for r in self.rtypes_per_op),
            dtype=np.int32, count=n)

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
        self.pred_ptr, self.pred_idx = _to_csr(preds)
        self.succ_ptr, self.succ_idx = _to_csr(succs)

        self.topo = np.fromiter(
            (index[op_id] for op_id in graph.topological_order()),
            dtype=np.int32, count=n)
        #: the same order as a tuple of Python ints, for per-node loops
        self.topo_order: Tuple[int, ...] = tuple(self.topo.tolist())
        self.topo_rank = np.empty(n, dtype=np.int32)
        self.topo_rank[self.topo] = np.arange(n, dtype=np.int32)

        self.fwd_levels = _levels(n, self.preds, self.topo_order)
        self.rev_levels = _levels(n, self.succs, self.topo_order[::-1])
        self.source_idx = np.fromiter(
            (i for i in range(n) if not preds[i]), dtype=np.int32)
        self.sink_idx = np.fromiter(
            (i for i in range(n) if not succs[i]), dtype=np.int32)
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

    def delays_array(self, delays) -> np.ndarray:
        """Per-index delay vector from an op-id keyed mapping."""
        return np.fromiter((delays[op_id] for op_id in self.op_ids),
                           dtype=np.int64, count=self.n_ops)

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
        arrays.
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


def _to_csr(adjacency: List[List[int]]
            ) -> Tuple[np.ndarray, np.ndarray]:
    """(ptr, idx) CSR arrays for a list-of-lists adjacency."""
    ptr = np.zeros(len(adjacency) + 1, dtype=np.int64)
    for i, neighbours in enumerate(adjacency):
        ptr[i + 1] = ptr[i] + len(neighbours)
    idx = np.fromiter((j for neighbours in adjacency for j in neighbours),
                      dtype=np.int32, count=int(ptr[-1]))
    return ptr, idx


def _levels(n: int, preds, order
            ) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Structural levels for vectorized propagation along *preds*.

    *order* must be a valid processing sequence for the *preds*
    direction (the topological order, or its reverse for successor
    adjacency).  Returns, for every depth ``>= 1`` (depth 0 nodes have
    no predecessors and need no propagation), a tuple ``(nodes,
    gather_idx, seg_ptr)``: the member nodes in insertion order, their
    concatenated predecessor indices, and ``reduceat`` segment offsets
    — ``np.maximum.reduceat(values[gather_idx], seg_ptr)`` yields the
    per-node max over predecessors in one call.
    """
    depth = [0] * n
    for i in order:
        if preds[i]:
            depth[i] = 1 + max(depth[p] for p in preds[i])
    by_depth: Dict[int, List[int]] = {}
    for i in range(n):
        by_depth.setdefault(depth[i], []).append(i)
    levels = []
    for d in sorted(by_depth):
        if d == 0:
            continue
        nodes = by_depth[d]
        gather: List[int] = []
        seg_ptr: List[int] = []
        for node in nodes:
            seg_ptr.append(len(gather))
            gather.extend(preds[node])
        levels.append((np.asarray(nodes, dtype=np.int32),
                       np.asarray(gather, dtype=np.int32),
                       np.asarray(seg_ptr, dtype=np.int64)))
    return levels


class MergedBatch:
    """Merge several per-request item lists into one deduplicated work
    list, then split flat results back per request.

    ``EvaluationEngine.evaluate_batch_grouped`` evaluates several
    ``evaluate_batch`` requests as one engine call; this helper owns
    the index bookkeeping that makes the merge lossless.  Items are
    deduplicated by a caller-supplied key (the engine uses the
    allocation signature), so an allocation submitted by several
    requests is *computed once* and fanned back out to every
    requester — the cross-request analogue of the duplicate collapsing
    the batched timing kernels already perform within one request.

    >>> merged = MergedBatch()
    >>> merged.add_request(["a", "b"], keys=["a", "b"])
    0
    >>> merged.add_request(["b", "c"], keys=["b", "c"])
    1
    >>> merged.items
    ['a', 'b', 'c']
    >>> merged.split([1, 2, 3])
    [[1, 2], [2, 3]]
    """

    __slots__ = ("items", "_slot_of", "_requests")

    def __init__(self):
        #: Unique items in first-seen order — the merged work list.
        self.items: List[object] = []
        self._slot_of: Dict[object, int] = {}
        self._requests: List[List[int]] = []

    def add_request(self, items, keys=None) -> int:
        """Append one request's *items*; returns its request index.

        *keys* (default: the items themselves) must be hashable and
        equal exactly when two items may share one computation.
        """
        items = list(items)
        keys = items if keys is None else list(keys)
        if len(keys) != len(items):
            raise DFGError(
                f"{len(items)} items but {len(keys)} merge keys")
        slots = []
        for item, key in zip(items, keys):
            slot = self._slot_of.get(key)
            if slot is None:
                slot = len(self.items)
                self._slot_of[key] = slot
                self.items.append(item)
            slots.append(slot)
        self._requests.append(slots)
        return len(self._requests) - 1

    def __len__(self) -> int:
        return len(self._requests)

    @property
    def merged_items(self) -> int:
        """Total items submitted across every request."""
        return sum(len(slots) for slots in self._requests)

    @property
    def unique_items(self) -> int:
        """Items surviving deduplication (== ``len(self.items)``)."""
        return len(self.items)

    def split(self, results) -> List[list]:
        """Fan per-unique-item *results* back out, one list per request
        in :meth:`add_request` order."""
        results = list(results)
        if len(results) != len(self.items):
            raise DFGError(
                f"{len(self.items)} merged items but {len(results)} "
                f"results")
        return [[results[slot] for slot in slots]
                for slots in self._requests]


def compile_graph(graph: DataFlowGraph) -> CompiledGraph:
    """The cached compiled form of *graph*.

    The compiled arrays are stored on the graph object and rebuilt when
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
