"""The data-flow graph (DFG) container.

A :class:`DataFlowGraph` is a directed acyclic graph whose nodes are
:class:`~repro.dfg.node.Operation` objects and whose edges are data
dependencies (producer → consumer).  It is the input to every
scheduling and synthesis routine in this library, mirroring the paper's
``Gs(V, E)``.

Adjacency is stored natively as per-operation successor and
predecessor dicts used as ordered sets, so :meth:`DataFlowGraph.edges`
lists producers in operation-insertion order and each producer's
consumers in edge-insertion order, and :meth:`predecessors` keeps
edge-insertion order.  Serialization and every scheduler's tie-breaks
follow these orders.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.dfg.node import Operation
from repro.errors import DFGError


class DataFlowGraph:
    """A directed acyclic graph of operations with data-dependency edges."""

    #: transient per-object caches (the memoized topological order and
    #: the compiled-array form attached by :mod:`repro.dfg.compiled`) —
    #: never pickled: workers and snapshots rebuild them in O(V+E), and
    #: shipping them would bloat every hand-off
    _TRANSIENT_ATTRS = ("_topo", "_compiled_graph_cache")

    def __init__(self, name: str = "dfg"):
        self.name = name
        self._ops: Dict[str, Operation] = {}
        #: op id -> {successor id: None}, in edge-insertion order
        self._succ: Dict[str, Dict[str, None]] = {}
        #: op id -> {predecessor id: None}, in edge-insertion order
        self._pred: Dict[str, Dict[str, None]] = {}
        self._n_edges = 0
        self._topo: Optional[List[str]] = None

    def __getstate__(self):
        state = dict(self.__dict__)
        for attr in self._TRANSIENT_ATTRS:
            state.pop(attr, None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._topo = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_operation(self, op: Operation) -> Operation:
        """Add *op* to the graph.  Duplicate ids are rejected."""
        if op.op_id in self._ops:
            raise DFGError(f"duplicate operation id {op.op_id!r} in {self.name!r}")
        self._ops[op.op_id] = op
        self._succ[op.op_id] = {}
        self._pred[op.op_id] = {}
        self._topo = None
        return op

    def add(self, op_id: str, kind: str, deps: Iterable[str] = (),
            rtype: str = "", label: Optional[str] = None) -> Operation:
        """Convenience: create an operation and wire its dependencies."""
        op = self.add_operation(Operation(op_id, kind, rtype, label))
        for dep in deps:
            self.add_edge(dep, op_id)
        return op

    def add_edge(self, producer: str, consumer: str) -> None:
        """Add a data dependency: *consumer* reads *producer*'s result."""
        for end in (producer, consumer):
            if end not in self._ops:
                raise DFGError(
                    f"edge ({producer!r} -> {consumer!r}) references unknown "
                    f"operation {end!r}"
                )
        if producer == consumer:
            raise DFGError(f"self-dependency on {producer!r}")
        if consumer in self._succ[producer]:
            return
        if self._reaches(consumer, producer):
            raise DFGError(
                f"edge ({producer!r} -> {consumer!r}) would create a cycle"
            )
        self._succ[producer][consumer] = None
        self._pred[consumer][producer] = None
        self._n_edges += 1
        self._topo = None

    def _reaches(self, start: str, target: str) -> bool:
        """True when a dependency path leads from *start* to *target*.

        Builders add an operation's inputs before its consumers exist,
        so *start* usually has no successors yet and this returns at
        once; otherwise it is a DFS over *start*'s descendants.
        """
        succ = self._succ
        if not succ[start]:
            return False
        stack = [start]
        seen = {start}
        while stack:
            for node in succ[stack.pop()]:
                if node == target:
                    return True
                if node not in seen:
                    seen.add(node)
                    stack.append(node)
        return False

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ops)

    def __contains__(self, op_id: str) -> bool:
        return op_id in self._ops

    def __iter__(self) -> Iterator[Operation]:
        return iter(self._ops.values())

    def operation(self, op_id: str) -> Operation:
        """Return the operation with id *op_id*."""
        try:
            return self._ops[op_id]
        except KeyError:
            raise DFGError(f"no operation {op_id!r} in {self.name!r}") from None

    def operations(self) -> List[Operation]:
        """All operations, in insertion order."""
        return list(self._ops.values())

    def op_ids(self) -> List[str]:
        """All operation ids, in insertion order."""
        return list(self._ops)

    def edges(self) -> List[Tuple[str, str]]:
        """All dependency edges as (producer, consumer) pairs: producers
        in insertion order, each one's consumers in edge order."""
        return [(u, v) for u, consumers in self._succ.items()
                for v in consumers]

    def edge_count(self) -> int:
        """Number of dependency edges (O(1), unlike ``len(edges())``)."""
        return self._n_edges

    def predecessors(self, op_id: str) -> List[str]:
        """Ids of operations whose results *op_id* consumes."""
        self.operation(op_id)
        return list(self._pred[op_id])

    def successors(self, op_id: str) -> List[str]:
        """Ids of operations consuming *op_id*'s result."""
        self.operation(op_id)
        return list(self._succ[op_id])

    def sources(self) -> List[str]:
        """Operations with no predecessors (read primary inputs only)."""
        return [n for n, preds in self._pred.items() if not preds]

    def sinks(self) -> List[str]:
        """Operations with no successors (produce primary outputs)."""
        return [n for n, succs in self._succ.items() if not succs]

    def topological_order(self) -> List[str]:
        """A topological ordering of operation ids: among the ready
        operations, the earliest inserted comes first.

        Memoized until the next :meth:`add_operation`/:meth:`add_edge`;
        the caller owns the returned list.
        """
        if self._topo is None:
            self._topo = self._kahn()
        return list(self._topo)

    def _kahn(self) -> List[str]:
        """Kahn's algorithm with a min-heap of insertion indices."""
        ids = list(self._ops)
        index = {op_id: i for i, op_id in enumerate(ids)}
        indegree = [len(self._pred[op_id]) for op_id in ids]
        ready = [i for i, degree in enumerate(indegree) if not degree]
        order: List[str] = []
        while ready:  # ascending from the comprehension: a valid heap
            op_id = ids[heapq.heappop(ready)]
            order.append(op_id)
            for succ in self._succ[op_id]:
                i = index[succ]
                indegree[i] -= 1
                if not indegree[i]:
                    heapq.heappush(ready, i)
        if len(order) != len(ids):
            raise DFGError(f"{self.name!r} contains a cycle")
        return order

    def counts_by_rtype(self) -> Dict[str, int]:
        """Number of operations per resource type."""
        counts: Dict[str, int] = {}
        for op in self._ops.values():
            counts[op.rtype] = counts.get(op.rtype, 0) + 1
        return counts

    def rtypes(self) -> List[str]:
        """Sorted list of resource types present in the graph."""
        return sorted(self.counts_by_rtype())

    # ------------------------------------------------------------------
    # manipulation
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "DataFlowGraph":
        """A deep copy (operations are immutable and shared)."""
        clone = DataFlowGraph(name or self.name)
        for op in self._ops.values():
            clone.add_operation(op)
        for u, v in self.edges():
            clone.add_edge(u, v)
        return clone

    def relabeled(self, prefix: str, name: Optional[str] = None) -> "DataFlowGraph":
        """A copy with every id prefixed by *prefix* (for graph merging)."""
        clone = DataFlowGraph(name or f"{prefix}{self.name}")
        for op in self._ops.values():
            clone.add_operation(Operation(
                prefix + op.op_id, op.kind, op.rtype, op.label))
        for u, v in self.edges():
            clone.add_edge(prefix + u, prefix + v)
        return clone

    def merged_with(self, other: "DataFlowGraph",
                    name: Optional[str] = None) -> "DataFlowGraph":
        """Disjoint union with *other*; ids must not collide."""
        merged = self.copy(name or f"{self.name}+{other.name}")
        for op in other.operations():
            merged.add_operation(op)
        for u, v in other.edges():
            merged.add_edge(u, v)
        return merged

    # ------------------------------------------------------------------
    # validation / serialization
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`DFGError` if the graph is not a well-formed DAG."""
        if not self._ops:
            raise DFGError(f"{self.name!r} has no operations")
        self.topological_order()  # raises on a cycle

    def to_dict(self) -> dict:
        """Serialize to a JSON-friendly dictionary."""
        return {
            "name": self.name,
            "operations": [op.to_dict() for op in self._ops.values()],
            "edges": [list(edge) for edge in self.edges()],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DataFlowGraph":
        """Inverse of :meth:`to_dict`."""
        try:
            graph = cls(str(data.get("name", "dfg")))
            for op_data in data["operations"]:
                graph.add_operation(Operation.from_dict(op_data))
            for producer, consumer in data["edges"]:
                graph.add_edge(producer, consumer)
        except (KeyError, TypeError, ValueError) as exc:
            raise DFGError(f"malformed DFG dictionary: {exc}") from exc
        return graph

    def __repr__(self) -> str:
        return (f"DataFlowGraph(name={self.name!r}, ops={len(self._ops)}, "
                f"edges={self._n_edges})")
