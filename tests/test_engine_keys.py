"""Interned memo keys of the evaluation engine, and restoring them.

Inside one engine an allocation is keyed by a ``bytes`` vector of
per-engine version codes and a delay assignment by
``CompiledGraph.delays_key``.  These tests pin the two halves of the
contract: equal-by-value allocations share one key (whatever object
identity or dict order they arrive with), and a snapshot carries those
keys as they are, together with the graph key and version code tables
that give them meaning, so only a fresh engine may adopt it.
"""

import pickle
import struct

import pytest

from repro.bench import diffeq, fir16
from repro.core import EvaluationEngine, cache_store, find_design
from repro.dfg import compile_graph
from repro.errors import CacheError
from repro.hls import fastsched
from repro.library import ResourceLibrary, paper_library


@pytest.fixture(scope="module")
def lib():
    return paper_library()


def uniform(graph, versions):
    """One version per resource type, from *versions* (rtype -> version)."""
    return {op.op_id: versions[op.rtype] for op in graph}


def fingerprint(result):
    return (result.area, result.latency, result.reliability,
            {op: v.name for op, v in result.allocation.items()},
            dict(result.schedule.starts),
            dict(result.binding.op_to_instance))


class TestAllocationKeys:
    def test_equal_versions_from_another_library_share_the_key(self, lib):
        graph = fir16()
        engine = EvaluationEngine()
        other = ResourceLibrary.from_dict(lib.to_dict())
        mine = uniform(graph, {r: lib.most_reliable(r) for r in lib.rtypes()})
        theirs = uniform(graph, {r: other.most_reliable(r)
                                 for r in other.rtypes()})
        assert all(mine[op] is not theirs[op] for op in mine)
        assert engine.allocation_key(graph, mine) == \
            engine.allocation_key(graph, theirs)
        bound = engine.min_latency(graph, mine) + 2
        assert engine.evaluate(graph, mine, bound) is not None
        engine.evaluate(graph, theirs, bound)
        assert engine.stats.hits == 1

    def test_pickled_versions_hit_the_same_entry(self, lib):
        graph = diffeq()
        engine = EvaluationEngine()
        allocation = uniform(graph, {r: lib.fastest(r) for r in lib.rtypes()})
        copy = pickle.loads(pickle.dumps(allocation))
        assert engine.allocation_key(graph, allocation) == \
            engine.allocation_key(graph, copy)
        bound = engine.min_latency(graph, allocation) + 1
        first = engine.evaluate(graph, allocation, bound)
        second = engine.evaluate(graph, copy, bound)
        assert engine.stats.hits == 1
        assert second is first is not None

    def test_dict_order_does_not_change_the_key(self, lib):
        graph = diffeq()
        engine = EvaluationEngine()
        allocation = uniform(graph, {r: lib.smallest(r) for r in lib.rtypes()})
        backward = dict(reversed(list(allocation.items())))
        assert list(backward) != list(allocation)
        assert engine.allocation_key(graph, allocation) == \
            engine.allocation_key(graph, backward)

    def test_keys_stay_valid_across_clear(self, lib):
        graph = fir16()
        engine = EvaluationEngine()
        allocation = uniform(graph, {r: lib.fastest(r) for r in lib.rtypes()})
        before = engine.allocation_key(graph, allocation)
        engine.clear()
        assert engine.allocation_key(fir16(), allocation) == before

    def test_id_fast_path_is_bounded_and_codes_are_stable(self, lib,
                                                          monkeypatch):
        monkeypatch.setattr(EvaluationEngine, "MAX_VERSION_IDS", 4)
        graph = diffeq()
        engine = EvaluationEngine()
        allocation = uniform(graph, {r: lib.fastest(r) for r in lib.rtypes()})
        key = engine.allocation_key(graph, allocation)
        for _ in range(10):  # distinct objects, equal values
            copy = pickle.loads(pickle.dumps(allocation))
            assert engine.allocation_key(graph, copy) == key
            assert len(engine._id_codes) <= 4
        assert len(engine._version_codes) == len(set(allocation.values()))

    def test_a_pickled_engine_keeps_codes_but_not_ids(self, lib):
        graph = diffeq()
        engine = EvaluationEngine()
        warm = find_design(graph, lib, 6, 11, engine=engine)
        copy = pickle.loads(pickle.dumps(engine))
        assert copy._id_codes == {} and copy._id_pins == []
        assert copy._version_codes == engine._version_codes
        again = find_design(diffeq(), lib, 6, 11, engine=copy)
        assert fingerprint(again) == fingerprint(warm)
        assert copy.stats.schedules_run == engine.stats.schedules_run


def restored(donor):
    """A fresh engine restored from *donor*'s snapshot, round-tripped
    through the wire format."""
    engine = EvaluationEngine()
    cache_store.merge_snapshot(engine, cache_store.loads(cache_store.dumps(
        cache_store.snapshot_engine(donor))))
    return engine


class TestRestore:
    def test_captured_keys_are_the_engines_own(self, lib):
        graph = diffeq()
        engine = EvaluationEngine()
        allocation = uniform(graph, {r: lib.smallest(r) for r in lib.rtypes()})
        bound = engine.min_latency(graph, allocation) + 1
        assert engine.evaluate(graph, allocation, bound) is not None
        content = (graph.name,
                   tuple((op.op_id, op.rtype) for op in graph),
                   tuple(graph.edges()))
        state = engine.cache_state()
        assert state["graph_keys"] == {content: 0}
        assert sorted(state["version_codes"].values()) == \
            list(range(len(set(allocation.values()))))
        key = engine.allocation_key(graph, allocation)
        delays = compile_graph(graph).delays_key(
            {op: v.delay for op, v in allocation.items()})
        assert (0, key, bound, "instances", "auto") in \
            state["layers"]["evaluations"]
        assert (0, delays) in state["layers"]["timing"]

    def test_restored_engine_answers_a_rebuilt_graph(self, lib):
        donor = EvaluationEngine()
        warm = find_design(fir16(), lib, 11, 8, engine=donor)
        receiver = restored(donor)
        fastest = uniform(fir16(), {r: lib.fastest(r) for r in lib.rtypes()})
        # the donor's codes came along with its keys
        assert receiver.allocation_key(fir16(), fastest) == \
            donor.allocation_key(fir16(), fastest)
        rebuilt = find_design(fir16(), lib, 11, 8, engine=receiver)
        cold = find_design(fir16(), lib, 11, 8,
                           engine=EvaluationEngine(cache=False))
        assert fingerprint(rebuilt) == fingerprint(cold) == fingerprint(warm)
        # the restored engine is exactly as warm as the donor itself
        donor.stats.reset()
        find_design(fir16(), lib, 11, 8, engine=donor)
        assert receiver.stats.hits == donor.stats.hits > 0
        assert receiver.stats.requests == donor.stats.requests
        assert receiver.stats.timing_hits == donor.stats.timing_hits
        assert receiver.stats.schedules_run == 0

    def test_restore_then_capture_round_trips_exactly(self, lib):
        donor = EvaluationEngine()
        find_design(diffeq(), lib, 6, 11, engine=donor)
        before = donor.cache_state()
        after = restored(donor).cache_state()
        assert after["graph_keys"] == before["graph_keys"]
        assert after["version_codes"] == before["version_codes"]
        # keys in insertion order; values are not all comparable
        assert {name: list(layer) for name, layer in after["layers"].items()} \
            == {name: list(layer) for name, layer in before["layers"].items()}

    @pytest.mark.parametrize("used", ["graph", "version"])
    def test_restore_into_a_non_fresh_engine_raises(self, lib, used):
        graph = fir16()
        donor = EvaluationEngine()
        find_design(graph, lib, 11, 8, engine=donor)
        snapshot = cache_store.snapshot_engine(donor)
        receiver = EvaluationEngine()
        fastest = uniform(graph, {r: lib.fastest(r) for r in lib.rtypes()})
        if used == "graph":
            receiver.min_latency(graph, fastest)  # registers the graph
            assert not receiver._version_codes
        else:
            receiver.allocation_key(graph, fastest)
            receiver.clear()  # drops the graph, keeps the codes
            assert not receiver._graph_keys
        size = receiver.cache_size()
        with pytest.raises(CacheError, match="fresh engine"):
            cache_store.merge_snapshot(receiver, snapshot)
        assert receiver.cache_size() == size


class TestDelaysKey:
    def test_bytes_equal_an_int64_vector(self):
        graph = fir16()
        compiled = compile_graph(graph)
        delays = {op.op_id: 1 + i % 3 for i, op in enumerate(graph)}
        n = compiled.n_ops
        want = struct.pack(f"{n}q", *(delays[op] for op in compiled.op_ids))
        assert compiled.delays_key(delays) == want
        delays["not-an-op"] = 7
        assert compiled.delays_key(delays) == want
        del delays[compiled.op_ids[0]]
        with pytest.raises(KeyError):
            compiled.delays_key(delays)

    def test_base_timing_hit_calls_no_numpy(self):
        """A miss decodes the key itself; an equal mapping hits."""
        graph = diffeq()
        delays = {op.op_id: 2 for op in graph}
        expected = fastsched.batched_timing(graph, [delays])[0]
        compile_graph(graph)._timing_cache.clear()

        cold = fastsched.base_timing(graph, delays)
        assert (cold.asap, cold.tail, cold.critical) == \
            (expected.asap, expected.tail, expected.critical)
        assert fastsched.base_timing(graph, dict(delays)) is cold
