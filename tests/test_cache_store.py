"""Snapshot-format tests: round-trip, rejection of bad files, merging.

The cache persistence layer's contract has two halves: a snapshot that
loads must make the receiving engine behave *identically* to the donor
(transparency is covered property-style in test_property_engine.py),
and a snapshot that cannot be trusted — wrong magic, future version,
corruption — must be rejected with :class:`repro.errors.CacheError`,
never a crash or a silently wrong cache.
"""

import os

import pytest

from repro.bench import diffeq, fir16
from repro.core import (
    EvaluationEngine,
    cache_store,
    find_design,
    merge_snapshot,
    snapshot_engine,
)
from repro.errors import CacheError, ReproError
from repro.library import paper_library


@pytest.fixture(scope="module")
def lib():
    return paper_library()


@pytest.fixture()
def warm_engine(lib):
    engine = EvaluationEngine()
    find_design(diffeq(), lib, 6, 11, engine=engine)
    return engine


class TestRoundTrip:
    def test_bytes_round_trip(self, warm_engine):
        snapshot = snapshot_engine(warm_engine)
        assert snapshot.entry_count > 0
        restored = cache_store.loads(cache_store.dumps(snapshot))
        assert restored.version == cache_store.SNAPSHOT_VERSION
        assert restored.entry_count == snapshot.entry_count
        assert sorted(restored.layers) == sorted(snapshot.layers)

    def test_probe_values_are_latencies(self, warm_engine):
        probes = snapshot_engine(warm_engine).layers["probes"]
        assert probes
        assert all(type(value) is int for _, value in probes)

    def test_file_round_trip(self, warm_engine, tmp_path):
        path = cache_store.snapshot_path(str(tmp_path))
        cache_store.save(snapshot_engine(warm_engine), path)
        assert os.path.exists(path)
        restored = cache_store.load(path)
        assert restored.entry_count == snapshot_engine(warm_engine).entry_count

    def test_save_creates_missing_directories(self, warm_engine, tmp_path):
        path = cache_store.snapshot_path(str(tmp_path / "a" / "b"))
        cache_store.save(snapshot_engine(warm_engine), path)
        assert cache_store.load(path).entry_count > 0

    def test_failed_save_leaves_no_temp_file(self, warm_engine, tmp_path):
        # a directory in the snapshot's place makes the final rename
        # fail after the temporary file was written
        path = cache_store.snapshot_path(str(tmp_path))
        os.mkdir(path)
        with pytest.raises(OSError):
            cache_store.save(snapshot_engine(warm_engine), path)
        assert sorted(os.listdir(tmp_path)) == [os.path.basename(path)]

    def test_merged_engine_serves_hits(self, warm_engine, lib):
        snapshot = cache_store.loads(
            cache_store.dumps(snapshot_engine(warm_engine)))
        fresh = EvaluationEngine()
        merged = merge_snapshot(fresh, snapshot)
        assert merged > 0
        assert fresh.cache_size() == merged
        find_design(diffeq(), lib, 6, 11, engine=fresh)
        assert fresh.stats.hits > 0

    def test_merge_is_idempotent(self, warm_engine):
        snapshot = snapshot_engine(warm_engine)
        fresh = EvaluationEngine()
        first = merge_snapshot(fresh, snapshot)
        assert first > 0
        assert merge_snapshot(fresh, snapshot) == 0  # locals win

    def test_merge_into_disabled_cache_is_a_noop(self, warm_engine):
        off = EvaluationEngine(cache=False)
        assert merge_snapshot(off, snapshot_engine(warm_engine)) == 0
        assert off.cache_size() == 0

    def test_unknown_layers_are_skipped(self, warm_engine):
        snapshot = snapshot_engine(warm_engine)
        snapshot.layers["hologram"] = [(("g",), object())]
        fresh = EvaluationEngine()
        assert merge_snapshot(fresh, snapshot) > 0
        assert "hologram" not in fresh.layer_sizes()


class TestRejection:
    """Every malformed input maps to a clean CacheError."""

    def _snapshot_bytes(self, engine):
        return cache_store.dumps(snapshot_engine(engine))

    def test_bad_magic(self):
        with pytest.raises(CacheError, match="magic"):
            cache_store.loads(b"GARBAGE v1\nabc\npayload")

    def test_empty_bytes(self):
        with pytest.raises(CacheError):
            cache_store.loads(b"")

    def test_unreadable_version(self):
        with pytest.raises(CacheError, match="version"):
            cache_store.loads(cache_store.MAGIC + b" vX\nabc\npayload")

    def test_version_mismatch(self, warm_engine):
        data = self._snapshot_bytes(warm_engine)
        future = data.replace(
            b"v%d\n" % cache_store.SNAPSHOT_VERSION, b"v999\n", 1)
        with pytest.raises(CacheError, match="999"):
            cache_store.loads(future)

    def test_truncated_payload(self, warm_engine):
        data = self._snapshot_bytes(warm_engine)
        with pytest.raises(CacheError, match="integrity|truncated"):
            cache_store.loads(data[:len(data) // 2])

    def test_corrupted_payload(self, warm_engine):
        data = bytearray(self._snapshot_bytes(warm_engine))
        data[-1] ^= 0xFF
        with pytest.raises(CacheError, match="integrity"):
            cache_store.loads(bytes(data))

    def test_missing_file(self, tmp_path):
        with pytest.raises(CacheError, match="unreadable"):
            cache_store.load(str(tmp_path / "nope.bin"))

    def test_merge_rejects_foreign_snapshot_version(self, warm_engine):
        snapshot = snapshot_engine(warm_engine)
        snapshot.version = 999
        with pytest.raises(CacheError):
            merge_snapshot(EvaluationEngine(), snapshot)

    def test_malformed_layer_shapes_raise_cache_error(self):
        # a digest only proves the bytes round-tripped; a well-formed
        # *file* can still carry garbage layers, which must surface as
        # CacheError (catchable by the CLI/worker nets), not TypeError
        import hashlib
        import pickle

        payload = pickle.dumps({
            "version": cache_store.SNAPSHOT_VERSION,
            "layers": {"density": [1, 2]},
        })
        digest = hashlib.sha256(payload).hexdigest().encode("ascii")
        data = (cache_store.MAGIC
                + b" v%d\n" % cache_store.SNAPSHOT_VERSION
                + digest + b"\n" + payload)
        snapshot = cache_store.loads(data)  # file format itself is valid
        with pytest.raises(CacheError, match="malformed layer"):
            merge_snapshot(EvaluationEngine(), snapshot)

    def test_half_merged_garbage_is_dropped(self, warm_engine):
        # one well-formed entry followed by a malformed one: the merge
        # must not leave the good-looking prefix behind
        snapshot = snapshot_engine(warm_engine)
        name = next(layer for layer, entries in snapshot.layers.items()
                    if entries)
        snapshot.layers[name] = list(snapshot.layers[name]) + [42]
        engine = EvaluationEngine()
        with pytest.raises(CacheError):
            merge_snapshot(engine, snapshot)
        assert engine.cache_size() == 0

    def test_cache_error_is_a_repro_error(self):
        # CLI / workers catch ReproError at the boundary; CacheError
        # must be inside that net
        assert issubclass(CacheError, ReproError)


class TestCompaction:
    """compact_snapshot shrinks files without changing behaviour."""

    def _warm_snapshot(self, lib):
        engine = EvaluationEngine()
        find_design(diffeq(), lib, 7, 12, engine=engine)
        return snapshot_engine(engine)

    def test_dominance_pruning_keeps_the_area_envelope(self, lib):
        from repro.core import compact_snapshot

        snapshot = self._warm_snapshot(lib)
        compacted, stats = compact_snapshot(snapshot)
        assert stats.entries_before == snapshot.entry_count
        assert stats.entries_after == compacted.entry_count
        assert stats.pruned_density == stats.removed
        # within every (graph, allocation) group, the surviving
        # feasible density points must strictly improve in area as
        # latency grows — anything else was dominated
        groups = {}
        for key, value in compacted.layers["density"]:
            if value is not None:
                groups.setdefault(key[:-1], []).append(
                    (key[-1], value[1].area))
        for entries in groups.values():
            areas = [area for _, area in sorted(entries)]
            assert all(a > b for a, b in zip(areas, areas[1:]))

    def test_infeasibility_markers_survive(self, lib):
        from repro.core import compact_snapshot

        snapshot = self._warm_snapshot(lib)
        nones_before = sum(1 for _, value in snapshot.layers["density"]
                           if value is None)
        compacted, _ = compact_snapshot(snapshot)
        nones_after = sum(1 for _, value in compacted.layers["density"]
                          if value is None)
        assert nones_after == nones_before

    def test_input_snapshot_is_not_mutated(self, lib):
        from repro.core import compact_snapshot

        snapshot = self._warm_snapshot(lib)
        before = {name: list(entries)
                  for name, entries in snapshot.layers.items()}
        compact_snapshot(snapshot)
        assert {name: list(entries)
                for name, entries in snapshot.layers.items()} == before

    def test_compacted_snapshot_still_loads_and_answers(self, lib):
        from repro.core import compact_snapshot

        snapshot = self._warm_snapshot(lib)
        compacted, _ = compact_snapshot(snapshot)
        restored = cache_store.loads(cache_store.dumps(compacted))
        engine = EvaluationEngine()
        assert merge_snapshot(engine, restored) == restored.entry_count
        warm = find_design(diffeq(), lib, 7, 12, engine=engine)
        off = find_design(diffeq(), lib, 7, 12,
                          engine=EvaluationEngine(cache=False))
        assert warm.area == off.area
        assert warm.reliability == off.reliability
        assert warm.schedule.starts == off.schedule.starts


class TestContentAddressing:
    def test_snapshot_reaches_a_rebuilt_graph(self, lib):
        """Entries keyed by graph content, not the donor's objects."""
        donor = EvaluationEngine()
        allocation_of = lambda g: {op.op_id: lib.fastest_smallest(op.rtype)
                                   for op in g}
        graph = fir16()
        donor.evaluate(graph, allocation_of(graph), 10)
        fresh = EvaluationEngine()
        merge_snapshot(fresh, snapshot_engine(donor))
        rebuilt = fir16()  # a different object, same content
        assert rebuilt is not graph
        fresh.evaluate(rebuilt, allocation_of(rebuilt), 10)
        assert fresh.stats.hits == 1
        assert fresh.stats.schedules_run == 0

    def test_different_graphs_do_not_collide(self, lib):
        donor = EvaluationEngine()
        for make, bound in ((fir16, 10), (diffeq, 7)):
            graph = make()
            donor.evaluate(graph, {op.op_id: lib.fastest_smallest(op.rtype)
                                   for op in graph}, bound)
        fresh = EvaluationEngine()
        merge_snapshot(fresh, snapshot_engine(donor))
        off = EvaluationEngine(cache=False)
        for make, bound in ((fir16, 10), (diffeq, 7)):
            graph = make()
            allocation = {op.op_id: lib.fastest_smallest(op.rtype)
                          for op in graph}
            warm = fresh.evaluate(graph, allocation, bound)
            cold = off.evaluate(graph, allocation, bound)
            assert warm.area == cold.area
            assert warm.schedule.starts == cold.schedule.starts
