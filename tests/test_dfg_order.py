"""Adjacency-order regression tests for :class:`DataFlowGraph`.

``tests/data/dfg_order.json`` pins, for a few generated graphs and the
paper benchmarks, the exact ``textio.dumps`` text, the per-operation
predecessor/successor *lists* and the ``topological_order()``.  The
other graph tests compare adjacency as sets; this file catches a
reordering, which would shift list-scheduler tie-breaks and the
serialized form even though the graph is the same set of edges.

To regenerate after an *intentional* order change::

    PYTHONPATH=src python tests/test_dfg_order.py --regenerate
"""

import json
import os
import random

import pytest

ORDER_PATH = os.path.join(os.path.dirname(__file__), "data",
                          "dfg_order.json")


def _shuffled():
    """random_dag(60) rebuilt with ops in reverse and edges shuffled, so
    op-insertion order, edge-insertion order and topological order all
    disagree."""
    from repro.dfg import DataFlowGraph, random_dag

    base = random_dag(60, seed=7)
    graph = DataFlowGraph("shuffled60")
    for op in reversed(base.operations()):
        graph.add_operation(op)
    edges = base.edges()
    random.Random(11).shuffle(edges)
    for producer, consumer in edges:
        graph.add_edge(producer, consumer)
    return graph


def _graphs():
    from repro.bench import diffeq, ewf, fir16
    from repro.dfg import layered_dag, random_dag

    return {
        "random_dag(200,seed=1)": lambda: random_dag(200, seed=1),
        "layered_dag(6,8,seed=3)": lambda: layered_dag(6, 8, seed=3),
        "fir16": fir16,
        "ewf": ewf,
        "diffeq": diffeq,
        "shuffled60": _shuffled,
    }


def _snapshot(graph):
    from repro.dfg import textio

    return {
        "dumps": textio.dumps(graph),
        "predecessors": {v: graph.predecessors(v) for v in graph.op_ids()},
        "successors": {v: graph.successors(v) for v in graph.op_ids()},
        "topological_order": graph.topological_order(),
    }


def _load():
    with open(ORDER_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("label", sorted(_graphs()))
def test_adjacency_order_pinned(label):
    expected = _load()[label]
    graph = _graphs()[label]()
    actual = _snapshot(graph)
    assert actual["dumps"] == expected["dumps"]
    assert actual["predecessors"] == expected["predecessors"]
    assert actual["successors"] == expected["successors"]
    assert actual["topological_order"] == expected["topological_order"]


@pytest.mark.parametrize("label", sorted(_graphs()))
def test_rebuilt_graphs_keep_the_order(label):
    from repro.dfg import DataFlowGraph, compile_graph, textio

    expected = _load()[label]
    graph = _graphs()[label]()
    # a rebuild replays edges() producer-major, so each consumer's
    # predecessors come back in that order, not the original edge order
    replayed = {op_id: [] for op_id in graph.op_ids()}
    for producer, consumer in graph.edges():
        replayed[consumer].append(producer)
    expected["predecessors"] = replayed
    for rebuilt in (textio.loads(expected["dumps"]), graph.copy(),
                    DataFlowGraph.from_dict(graph.to_dict()),
                    compile_graph(graph).to_graph()):
        assert _snapshot(rebuilt) == expected


def _regenerate():
    data = {label: _snapshot(build()) for label, build in _graphs().items()}
    with open(ORDER_PATH, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {ORDER_PATH}")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv[1:]:
        _regenerate()
    else:
        sys.exit(pytest.main([__file__, "-q"]))
