"""Unit tests for the engine's per-layer capacity bound.

Every layer is a plain dict bounded by its ``LAYER_SHARES`` share of
``max_entries``.  Three claims: a layer that reaches its capacity is
cleared whole and alone, the dropped entries are counted in
``EngineStats.evictions``, and — because every layer is a pure memo —
eviction can never change a result, only future hit rates.
"""

import pytest

from repro.bench import diffeq, ewf, fir16
from repro.core import EvaluationEngine, find_design
from repro.library import paper_library


@pytest.fixture(scope="module")
def lib():
    return paper_library()


def capacity(engine, name):
    return max(1, int(engine.max_entries * engine.LAYER_SHARES[name]))


class TestEngineLayerBounds:
    def test_default_capacities_follow_shares(self):
        engine = EvaluationEngine(max_entries=100)
        for name in EvaluationEngine.LAYER_SHARES:
            limit = capacity(engine, name)
            for index in range(limit):
                engine._store(name, index, index)
            assert engine.layer_sizes()[name] == limit
            assert engine.stats.evictions == 0
            engine._store(name, limit, limit)  # full: cleared first
            assert engine.layer_sizes()[name] == 1
            assert engine.stats.evictions == limit
            engine.clear()
            engine.stats.reset()

    def test_overwriting_a_full_layer_keeps_it(self):
        engine = EvaluationEngine(max_entries=100)
        limit = capacity(engine, "paths")
        for index in range(limit):
            engine._store("paths", index, index)
        engine._store("paths", 0, "extended")  # an existing key
        assert engine.layer_sizes()["paths"] == limit
        assert engine.stats.evictions == 0
        assert engine._layers["paths"][0] == "extended"

    def test_none_values_are_cacheable(self, lib):
        # evaluation/schedules layers legitimately memoize None
        # (infeasible): a cached None must answer without recomputation
        engine = EvaluationEngine()
        graph = diffeq()
        allocation = {op.op_id: lib.fastest(op.rtype) for op in graph}
        bound = engine.min_latency(graph, allocation) + 1
        key = (engine._record(graph).key,
               engine.allocation_key(graph, allocation), bound,
               "instances", "auto")
        engine._store("evaluations", key, None)
        assert engine.evaluate(graph, allocation, bound) is None
        assert engine.stats.hits == 1
        assert engine.stats.schedules_run == 0

    def test_per_layer_bounds_respected_under_load(self, lib):
        engine = EvaluationEngine(max_entries=60)
        for make, bounds in ((fir16, (10, 9)), (ewf, (14, 9)),
                             (diffeq, (6, 11))):
            find_design(make(), lib, *bounds, engine=engine)
        sizes = engine.layer_sizes()
        assert engine.stats.evictions > 0
        for name, size in sizes.items():
            assert size <= capacity(engine, name), (name, sizes)

    def test_one_layer_overflow_does_not_drain_the_others(self, lib):
        # a layer reaching its capacity clears itself only: every other
        # layer keeps exactly the entries it had
        engine = EvaluationEngine(max_entries=10_000)
        find_design(diffeq(), lib, 6, 11, engine=engine)
        before = {name: dict(layer) for name, layer in engine._layers.items()}
        assert all(before.values()), engine.layer_sizes()
        evictions = engine.stats.evictions
        limit = capacity(engine, "probes")
        for index in range(limit - len(before["probes"]) + 1):
            engine._store("probes", ("filler", index), 0)
        assert engine.layer_sizes()["probes"] == 1
        assert engine.stats.evictions == evictions + limit
        for name, entries in before.items():
            if name != "probes":
                assert engine._layers[name] == entries, name

    def test_stats_report_evictions(self, lib):
        # every new entry either is still in its layer or was dropped by
        # a whole-layer clear, and evictions counts exactly the dropped
        engine = EvaluationEngine(max_entries=12)
        inserted = []
        store = engine._store

        def counting_store(name, key, value):
            inserted.append(key not in engine._layers[name])
            store(name, key, value)

        engine._store = counting_store
        find_design(diffeq(), lib, 6, 11, engine=engine)
        assert engine.stats.evictions > 0
        assert sum(inserted) == \
            engine.cache_size() + engine.stats.evictions
        assert engine.stats.as_dict()["evictions"] == engine.stats.evictions
        assert "evicted entries" in engine.stats.as_text()


class TestEvictionTransparency:
    """Eviction never changes results — only how often work repeats."""

    GRID = [(fir16, 10, 9), (ewf, 14, 9), (diffeq, 6, 11)]

    @pytest.mark.parametrize("make,latency_bound,area_bound", GRID,
                             ids=lambda v: getattr(v, "__name__", str(v)))
    def test_thrashing_engine_matches_reference(self, lib, make,
                                                latency_bound, area_bound):
        # capacity so small every layer constantly clears
        thrashing = EvaluationEngine(max_entries=6)
        reference = EvaluationEngine(cache=False)
        ours = find_design(make(), lib, latency_bound, area_bound,
                           engine=thrashing)
        expected = find_design(make(), lib, latency_bound, area_bound,
                               engine=reference)
        assert thrashing.stats.evictions > 0
        assert ours.area == expected.area
        assert ours.latency == expected.latency
        assert ours.reliability == expected.reliability
        assert ours.schedule.starts == expected.schedule.starts
        assert ours.binding.op_to_instance == \
            expected.binding.op_to_instance
