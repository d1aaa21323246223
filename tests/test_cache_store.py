"""Snapshot-format tests: round-trip, rejection of bad files, restoring.

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
        assert all(type(value) is int for value in probes.values())

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

    def test_merge_into_disabled_cache_is_a_noop(self, warm_engine):
        off = EvaluationEngine(cache=False)
        assert merge_snapshot(off, snapshot_engine(warm_engine)) == 0
        assert off.cache_size() == 0

    def test_unknown_layers_are_skipped(self, warm_engine):
        # "density": a layer that older snapshots carry and the engine
        # no longer has
        for name in ("hologram", "density"):
            snapshot = snapshot_engine(warm_engine)
            snapshot.layers[name] = {("g",): object()}
            fresh = EvaluationEngine()
            assert merge_snapshot(fresh, snapshot) > 0
            assert name not in fresh.layer_sizes()


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

    @staticmethod
    def _payload_bytes(**payload):
        """A digest-valid file around an arbitrary pickled *payload*."""
        import hashlib
        import pickle

        data = pickle.dumps({"version": cache_store.SNAPSHOT_VERSION,
                             "graph_keys": {}, "version_codes": {},
                             "layers": {}, **payload})
        digest = hashlib.sha256(data).hexdigest().encode("ascii")
        return (cache_store.MAGIC
                + b" v%d\n" % cache_store.SNAPSHOT_VERSION
                + digest + b"\n" + data)

    def test_malformed_layer_shapes_raise_cache_error(self):
        # a digest only proves the bytes round-tripped; a well-formed
        # *file* can still carry garbage layers, which must surface as
        # CacheError (catchable by the CLI/worker nets), not TypeError
        snapshot = cache_store.loads(  # file format itself is valid
            self._payload_bytes(layers={"schedules": [1, 2]}))
        with pytest.raises(CacheError, match="malformed layer"):
            merge_snapshot(EvaluationEngine(), snapshot)

    @pytest.mark.parametrize("table", ["graph_keys", "version_codes"])
    @pytest.mark.parametrize("ids", [[0, 0], [0, 2], [1, 2], [0, "1"]],
                             ids=["duplicate", "gap", "offset", "not-int"])
    def test_inconsistent_key_tables_are_rejected(self, table, ids):
        data = self._payload_bytes(
            **{table: {("a",): ids[0], ("b",): ids[1]}})
        with pytest.raises(CacheError):
            cache_store.loads(data)

    def test_half_merged_garbage_is_dropped(self, warm_engine):
        # one well-formed layer followed by a malformed one: the restore
        # must not leave the good-looking layer behind, and the engine
        # stays fresh enough to take a good snapshot afterwards
        snapshot = snapshot_engine(warm_engine)
        good = snapshot_engine(warm_engine)
        snapshot.layers["probes"] = [42]
        engine = EvaluationEngine()
        with pytest.raises(CacheError):
            merge_snapshot(engine, snapshot)
        assert engine.cache_size() == 0
        assert merge_snapshot(engine, good) == good.entry_count

    def test_cache_error_is_a_repro_error(self):
        # CLI / workers catch ReproError at the boundary; CacheError
        # must be inside that net
        assert issubclass(CacheError, ReproError)


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
