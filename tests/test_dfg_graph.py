"""Unit tests for repro.dfg.graph and repro.dfg.node."""

import pytest

from repro.dfg import DataFlowGraph, Operation
from repro.errors import DFGError


def diamond() -> DataFlowGraph:
    g = DataFlowGraph("diamond")
    g.add("a", "add")
    g.add("b", "mul", deps=["a"])
    g.add("c", "add", deps=["a"])
    g.add("d", "add", deps=["b", "c"])
    return g


class TestOperation:
    def test_rtype_derived_from_kind(self):
        assert Operation("x", "add").rtype == "add"
        assert Operation("x", "sub").rtype == "add"
        assert Operation("x", "cmp").rtype == "add"
        assert Operation("x", "mul").rtype == "mul"

    def test_explicit_rtype_wins(self):
        op = Operation("x", "add", rtype="alu")
        assert op.rtype == "alu"

    def test_unknown_kind_without_rtype_rejected(self):
        with pytest.raises(DFGError):
            Operation("x", "fft")

    def test_unknown_kind_with_rtype_accepted(self):
        assert Operation("x", "fft", rtype="dsp").rtype == "dsp"

    def test_empty_id_rejected(self):
        with pytest.raises(DFGError):
            Operation("", "add")

    def test_glyphs(self):
        assert Operation("x", "add").glyph == "+"
        assert Operation("x", "mul").glyph == "*"
        assert Operation("x", "sub").glyph == "-"

    def test_display_name_prefers_label(self):
        assert Operation("x", "add", label="sum0").display_name() == "sum0"
        assert Operation("x", "add").display_name() == "x"

    def test_dict_roundtrip(self):
        op = Operation("n1", "mul", label="prod")
        assert Operation.from_dict(op.to_dict()) == op

    def test_from_dict_missing_key(self):
        with pytest.raises(DFGError):
            Operation.from_dict({"id": "x"})


class TestDataFlowGraph:
    def test_len_and_contains(self):
        g = diamond()
        assert len(g) == 4
        assert "a" in g and "z" not in g

    def test_duplicate_id_rejected(self):
        g = diamond()
        with pytest.raises(DFGError):
            g.add("a", "add")

    def test_edge_to_unknown_node_rejected(self):
        g = diamond()
        with pytest.raises(DFGError):
            g.add_edge("a", "nope")

    def test_self_edge_rejected(self):
        g = diamond()
        with pytest.raises(DFGError):
            g.add_edge("a", "a")

    def test_cycle_rejected_and_rolled_back(self):
        g = diamond()
        edges, order = g.edges(), g.topological_order()
        with pytest.raises(DFGError):
            g.add_edge("d", "a")
        # graph must still validate after the failed insertion
        g.validate()
        assert ("d", "a") not in g.edges()
        assert g.edge_count() == 4
        assert g.edges() == edges
        assert g.topological_order() == order
        assert g.successors("d") == [] and g.predecessors("a") == []

    def test_long_cycle_rejected(self):
        g = DataFlowGraph("chain")
        for i in range(6):
            g.add(f"n{i}", "add", deps=[f"n{i - 1}"] if i else [])
        with pytest.raises(DFGError, match="cycle"):
            g.add_edge("n5", "n0")
        g.add_edge("n0", "n5")  # a shortcut is no cycle
        assert g.edge_count() == 6

    def test_duplicate_edge_is_noop(self):
        g = diamond()
        edges = g.edges()
        g.add_edge("a", "b")
        assert g.edges() == edges and g.edge_count() == 4

    def test_predecessors_successors(self):
        g = diamond()
        assert set(g.predecessors("d")) == {"b", "c"}
        assert set(g.successors("a")) == {"b", "c"}

    def test_adjacency_keeps_edge_insertion_order(self):
        g = DataFlowGraph("order")
        for op_id in "pqrs":
            g.add(op_id, "add")
        g.add_edge("r", "s")
        g.add_edge("p", "s")
        g.add_edge("q", "s")
        g.add_edge("p", "r")
        assert g.predecessors("s") == ["r", "p", "q"]
        assert g.successors("p") == ["s", "r"]
        # producers in op-insertion order, consumers in edge order
        assert g.edges() == [("p", "s"), ("p", "r"), ("q", "s"), ("r", "s")]

    def test_sources_sinks(self):
        g = diamond()
        assert g.sources() == ["a"]
        assert g.sinks() == ["d"]

    def test_topological_order_respects_edges(self):
        g = diamond()
        order = g.topological_order()
        for producer, consumer in g.edges():
            assert order.index(producer) < order.index(consumer)

    def test_counts_by_rtype(self):
        assert diamond().counts_by_rtype() == {"add": 3, "mul": 1}

    def test_copy_is_independent(self):
        g = diamond()
        clone = g.copy()
        clone.add("e", "add", deps=["d"])
        assert len(g) == 4 and len(clone) == 5

    def test_relabeled(self):
        g = diamond().relabeled("p_")
        assert set(g.op_ids()) == {"p_a", "p_b", "p_c", "p_d"}
        assert ("p_a", "p_b") in g.edges()

    def test_merged_with_disjoint(self):
        g = diamond()
        merged = g.merged_with(g.relabeled("q_"))
        assert len(merged) == 8

    def test_merged_with_collision_rejected(self):
        g = diamond()
        with pytest.raises(DFGError):
            g.merged_with(g)

    def test_validate_empty_graph(self):
        with pytest.raises(DFGError):
            DataFlowGraph("empty").validate()

    def test_dict_roundtrip(self):
        g = diamond()
        restored = DataFlowGraph.from_dict(g.to_dict())
        assert restored.op_ids() == g.op_ids()
        assert sorted(restored.edges()) == sorted(g.edges())
        assert restored.name == g.name

    def test_unknown_operation_lookup(self):
        with pytest.raises(DFGError):
            diamond().operation("zz")


class TestMemoizedOrder:
    def test_topological_order_sees_mutation(self):
        g = diamond()
        assert g.topological_order() == ["a", "b", "c", "d"]
        g.add("e", "add")
        assert g.topological_order() == ["a", "b", "c", "d", "e"]
        g.add_edge("e", "a")
        assert g.topological_order() == ["e", "a", "b", "c", "d"]

    def test_compile_graph_sees_mutation(self):
        from repro.dfg import compile_graph

        g = diamond()
        g.add("e", "add")
        assert compile_graph(g).topo_ids() == ["a", "b", "c", "d", "e"]
        g.add_edge("e", "a")
        assert compile_graph(g).topo_ids() == ["e", "a", "b", "c", "d"]
        g.add("f", "mul", deps=["d"])
        compiled = compile_graph(g)
        assert compiled.topo_ids() == g.topological_order()
        assert compiled.n_ops == 6 and compiled.n_edges == 6

    def test_returned_list_is_a_copy(self):
        g = diamond()
        order = g.topological_order()
        order.reverse()
        order.append("zz")
        assert g.topological_order() == ["a", "b", "c", "d"]

    def test_memo_not_pickled(self):
        import pickle

        g = diamond()
        g.topological_order()
        assert "_topo" not in g.__getstate__()
        restored = pickle.loads(pickle.dumps(g))
        assert restored.topological_order() == ["a", "b", "c", "d"]
        restored.add("e", "add")
        restored.add_edge("e", "b")
        assert restored.topological_order() == ["a", "c", "e", "b", "d"]
