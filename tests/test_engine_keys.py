"""Interned memo keys and the content boundary of the evaluation engine.

Inside one engine an allocation is keyed by a ``bytes`` vector of
per-engine version codes and a delay assignment by
``CompiledGraph.delays_key``.  Codes are process-local, so these tests
pin the two halves of the contract: equal-by-value allocations share
one key (whatever object identity or dict order they arrive with), and
everything that leaves an engine — exports, snapshots, merges —
carries the historical content form, so engines whose code tables
filled in different orders exchange entries losslessly.
"""

import pickle
import struct

import pytest

from repro.bench import diffeq, fir16
from repro.core import EvaluationEngine, cache_store, find_design
from repro.core.engine import allocation_signature
from repro.dfg import compile_graph
from repro.hls import fastsched
from repro.hls.schedule import Schedule
from repro.library import ResourceLibrary, ResourceVersion, paper_library


@pytest.fixture(scope="module")
def lib():
    return paper_library()


def uniform(graph, versions):
    """One version per resource type, from *versions* (rtype -> version)."""
    return {op.op_id: versions[op.rtype] for op in graph}


def engine_interning(lib, graph, reverse):
    """A fresh engine whose code table lists *lib*'s versions in sorted
    order, or reversed (the key of a one-version allocation interns
    that version; whether it fits each op's type does not matter)."""
    engine = EvaluationEngine()
    for version in sorted(lib, reverse=reverse):
        engine.allocation_key(graph, {op.op_id: version for op in graph})
    return engine


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
        assert len(engine._versions) == len(set(allocation.values()))

    def test_a_pickled_engine_keeps_codes_but_not_ids(self, lib):
        graph = diffeq()
        engine = EvaluationEngine()
        warm = find_design(graph, lib, 6, 11, engine=engine)
        copy = pickle.loads(pickle.dumps(engine))
        assert copy._id_codes == {} and copy._id_pins == []
        assert copy._versions == engine._versions
        again = find_design(diffeq(), lib, 6, 11, engine=copy)
        assert fingerprint(again) == fingerprint(warm)
        assert copy.stats.schedules_run == engine.stats.schedules_run


class TestContentBoundary:
    def test_export_entries_have_the_content_form(self, lib):
        graph = diffeq()
        engine = EvaluationEngine()
        allocation = uniform(graph, {r: lib.smallest(r) for r in lib.rtypes()})
        bound = engine.min_latency(graph, allocation) + 1
        assert engine.evaluate(graph, allocation, bound) is not None
        # the smallest versions are the most reliable ones, so the path
        # starts from the same allocation and needs no step at *bound*
        assert engine.latency_start(graph, lib, bound) == allocation
        pools = tuple((rtype, tuple(lib.versions_of(rtype)))
                      for rtype in graph.rtypes())
        content = (graph.name,
                   tuple((op.op_id, op.rtype) for op in graph),
                   tuple(graph.edges()))
        layers = engine.export_cache_state()
        delays = tuple(sorted((op, v.delay) for op, v in allocation.items()))
        assert (content, allocation_signature(allocation), bound,
                "instances", "auto", None) in [key for key, _ in layers["evaluations"]]
        assert (content, delays) in [key for key, _ in layers["timing"]]
        for name, entries in layers.items():
            assert entries, f"layer {name} is empty"
            for key, value in entries:
                assert key[0] == content
                if name in ("schedules", "timing"):
                    assert key[1] == delays
                elif name == "paths":
                    assert key[1] == pools
                    start, steps, complete = value
                    assert isinstance(start, int)
                    assert isinstance(complete, bool)
                    for op_id, version, critical in steps:
                        assert isinstance(op_id, str)
                        assert isinstance(version, ResourceVersion)
                        assert isinstance(critical, int)
                else:
                    assert key[1] == allocation_signature(allocation)
                if name == "probes":
                    counts = key[2]
                    assert counts == tuple(sorted(counts))
                    assert {n for n, _ in counts} == \
                        {v.name for v in allocation.values()}
                if name == "schedules":
                    # the schedule alone: nothing process-local to translate
                    assert value is None or isinstance(value, Schedule)
                    if value is not None:
                        assert tuple(sorted(value.delays.items())) == key[1]

    def test_merge_between_opposite_code_orders(self, lib):
        graph = fir16()
        donor = engine_interning(lib, graph, reverse=False)
        warm = find_design(graph, lib, 11, 8, engine=donor)
        snapshot = cache_store.loads(cache_store.dumps(
            cache_store.snapshot_engine(donor)))

        receiver = engine_interning(lib, graph, reverse=True)
        fastest = uniform(graph, {r: lib.fastest(r) for r in lib.rtypes()})
        assert receiver.allocation_key(graph, fastest) != \
            donor.allocation_key(graph, fastest)
        assert receiver.merge_cache_state(snapshot.layers) == \
            snapshot.entry_count
        merged = find_design(fir16(), lib, 11, 8, engine=receiver)
        cold = find_design(fir16(), lib, 11, 8,
                           engine=EvaluationEngine(cache=False))
        assert fingerprint(merged) == fingerprint(cold) == fingerprint(warm)
        # the merged engine is exactly as warm as the donor itself
        donor.stats.reset()
        find_design(fir16(), lib, 11, 8, engine=donor)
        assert receiver.stats.hits == donor.stats.hits > 0
        assert receiver.stats.requests == donor.stats.requests
        assert receiver.stats.timing_hits == donor.stats.timing_hits
        assert receiver.stats.schedules_run == 0

    def test_merge_then_export_round_trips_exactly(self, lib):
        graph = diffeq()
        donor = engine_interning(lib, graph, reverse=False)
        find_design(graph, lib, 6, 11, engine=donor)
        exported = donor.export_cache_state()
        receiver = engine_interning(lib, graph, reverse=True)
        receiver.merge_cache_state(exported)
        again = receiver.export_cache_state()
        for name, entries in exported.items():
            assert [key for key, _ in again[name]] == \
                [key for key, _ in entries]

    def test_entry_that_does_not_fit_its_graph_is_skipped(self, lib):
        graph = diffeq()
        donor = EvaluationEngine()
        allocation = uniform(graph, {r: lib.smallest(r)
                                     for r in lib.rtypes()})
        donor.evaluate(graph, allocation,
                       donor.min_latency(graph, allocation))
        layers = donor.export_cache_state()
        key, value = layers["evaluations"][0]
        short = (key[0], key[1][1:]) + key[2:]  # one op missing
        receiver = EvaluationEngine()
        assert receiver.merge_cache_state(
            {"evaluations": [(short, value)]}) == 0


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
