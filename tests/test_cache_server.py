"""Concurrency and fault-injection harness for the live cache server.

The server's contract has three parts, each locked down here:

* **protocol hygiene** — length-prefixed frames round-trip; anything
  malformed (oversized, truncated, undecodable, a peer that goes
  silent) surfaces as a clean :class:`~repro.errors.CacheError` on a
  bounded clock, never a hang and never a crash of the serving
  process;
* **shared state** — concurrent clients hammering overlapping
  get/put traffic lose no updates and never deadlock, with LRU bounds
  enforced server-side;
* **transparency** — engines attached to a server produce results
  identical to engine-off runs, *including* when the server is killed
  mid-run (clients fall back to their local caches) and when the
  server was never reachable at all.
"""

import multiprocessing
import os
import pickle
import socket
import stat
import struct
import threading
import time

import pytest

from repro.bench import diffeq, fir16
from repro.core import (
    EvaluationEngine,
    attach_engine,
    cache_server,
    detach_engine,
    find_design,
    sweep_bounds,
)
from repro.core.cache_server import (
    PROTOCOL_VERSION,
    CacheClient,
    CacheServer,
    evaluate_batch_remote,
    synthesize_remote,
    _recv_frame,
    _send_frame,
)
from repro.errors import CacheError, NoSolutionError, ProtocolError
from repro.library import paper_library


@pytest.fixture(scope="module")
def lib():
    return paper_library()


@pytest.fixture()
def server(tmp_path):
    with CacheServer(str(tmp_path / "cache.sock")) as srv:
        yield srv


def design_fingerprint(result):
    if result is None:
        return None
    return (result.area, result.latency, result.reliability,
            dict(result.schedule.starts),
            dict(result.binding.op_to_instance))


def point_fingerprints(points):
    return [(p.latency_bound, p.area_bound, design_fingerprint(p.result))
            for p in points]


# ----------------------------------------------------------------------
# protocol hygiene
# ----------------------------------------------------------------------
class TestFraming:
    def _pair(self):
        a, b = socket.socketpair()
        a.settimeout(2.0)
        b.settimeout(2.0)
        return a, b

    def test_round_trip(self):
        a, b = self._pair()
        message = ("put", "density", (("g",), "sig", 3), [1, 2, 3])
        _send_frame(a, message)
        assert _recv_frame(b) == message

    def test_clean_eof_is_none(self):
        a, b = self._pair()
        a.close()
        assert _recv_frame(b) is None

    def test_oversized_send_rejected(self):
        a, _b = self._pair()
        with pytest.raises(CacheError, match="exceeds"):
            _send_frame(a, ("put", "x" * 64), max_bytes=32)

    def test_oversized_receive_rejected_before_payload(self):
        a, b = self._pair()
        a.sendall(struct.pack("!I", 1 << 30))  # header only, no payload
        with pytest.raises(CacheError, match="exceeds"):
            _recv_frame(b, max_bytes=1 << 20)

    def test_truncated_frame_rejected(self):
        a, b = self._pair()
        payload = pickle.dumps(("ping",))
        a.sendall(struct.pack("!I", len(payload) + 10) + payload)
        a.close()
        with pytest.raises(CacheError, match="truncated"):
            _recv_frame(b)

    def test_undecodable_payload_rejected(self):
        a, b = self._pair()
        garbage = b"\x80\x05not a pickle at all"
        a.sendall(struct.pack("!I", len(garbage)) + garbage)
        with pytest.raises(CacheError, match="undecodable"):
            _recv_frame(b)

    def test_non_tuple_message_rejected(self):
        a, b = self._pair()
        payload = pickle.dumps(["not", "a", "tuple"])
        a.sendall(struct.pack("!I", len(payload)) + payload)
        with pytest.raises(CacheError, match="malformed"):
            _recv_frame(b)

    def test_silent_peer_times_out(self):
        a, b = self._pair()
        b.settimeout(0.2)
        started = time.monotonic()
        with pytest.raises(CacheError, match="timed out"):
            _recv_frame(b)
        assert time.monotonic() - started < 2.0  # bounded, no hang


class TestClientFaults:
    def test_unreachable_address(self, tmp_path):
        client = CacheClient(str(tmp_path / "nothing.sock"), timeout=0.5)
        with pytest.raises(CacheError, match="cannot reach"):
            client.ping()

    def test_silent_server_times_out(self, tmp_path):
        """A server that accepts but never replies must not hang the
        client past its timeout."""
        address = str(tmp_path / "mute.sock")
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(address)
        listener.listen(1)
        accepted = []
        thread = threading.Thread(
            target=lambda: accepted.append(listener.accept()[0]),
            daemon=True)
        thread.start()
        client = CacheClient(address, timeout=0.3)
        started = time.monotonic()
        with pytest.raises(CacheError, match="timed out"):
            client.get("density", ("k",))
        assert time.monotonic() - started < 3.0
        listener.close()

    def test_corrupt_reply_is_cache_error(self, tmp_path):
        """A 'server' speaking garbage produces CacheError, not a
        crash or a hang."""
        address = str(tmp_path / "garbage.sock")
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(address)
        listener.listen(1)

        def serve_garbage():
            conn, _ = listener.accept()
            _recv_frame(conn)  # swallow the request
            garbage = b"junk payload"
            conn.sendall(struct.pack("!I", len(garbage)) + garbage)
            conn.close()

        thread = threading.Thread(target=serve_garbage, daemon=True)
        thread.start()
        client = CacheClient(address, timeout=2.0)
        with pytest.raises(CacheError):
            client.get("density", ("k",))
        listener.close()

    def test_oversized_frame_to_server_reports_and_closes(self, server):
        """The server rejects an oversized frame with an error reply;
        the next connection still works."""
        client = CacheClient(server.address, timeout=2.0)
        client.ping()
        # hand-roll a frame beyond the server's limit via a raw socket
        raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        raw.settimeout(2.0)
        raw.connect(server.address)
        raw.sendall(struct.pack("!I", server.max_frame_bytes + 1))
        reply = _recv_frame(raw)
        assert reply[0] == "error"
        assert "exceeds" in reply[1]
        raw.close()
        assert server.stats.bad_frames == 1
        client.ping()  # the server is still serving
        client.close()


# ----------------------------------------------------------------------
# server basics
# ----------------------------------------------------------------------
class TestServerBasics:
    def test_get_put_round_trip(self, server):
        with CacheClient(server.address) as client:
            client.ping()
            found, value, window = client.get("density", (("g",), "s", 1))
            assert (found, value) == (False, None) and window > 0
            assert client.put("density", (("g",), "s", 1), "value") == 1
            assert client.get("density", (("g",), "s", 1)) \
                == (True, "value", 0.0)
            # overwrite is not a new adoption
            assert client.put("density", (("g",), "s", 1), "value") == 0

    def test_get_many(self, server):
        with CacheClient(server.address) as client:
            entries = [("probes", (("g",), "s", i), i * i) for i in range(5)]
            assert client.put_many(entries) == 5
            keys = [key for _, key, _ in entries] + [(("g",), "s", 99)]
            found, windows = client.get_many("probes", keys)
            assert found == {key: value for _, key, value in entries}
            # the one absent key came back with a negative window
            assert set(windows) == {(("g",), "s", 99)}
            assert windows[(("g",), "s", 99)] > 0

    def test_unknown_layer_is_clean_error(self, server):
        with CacheClient(server.address) as client:
            with pytest.raises(CacheError, match="unknown cache layer"):
                client.put("hologram", ("k",), 1)
            client.ping()  # connection survives a dispatch error

    def test_unknown_op_is_clean_error(self, server):
        with CacheClient(server.address) as client:
            with pytest.raises(CacheError, match="unknown cache request"):
                client._request(("frobnicate", 1))
            client.ping()

    def test_malformed_request_shape_is_clean_error(self, server):
        with CacheClient(server.address) as client:
            with pytest.raises(CacheError):
                client._request(("get", "density"))  # missing the key
            client.ping()

    def test_stats_telemetry(self, server):
        with CacheClient(server.address) as client:
            client.put("evaluations", (("g",), "k"), 1)
            client.get("evaluations", (("g",), "k"))
            client.get("evaluations", (("g",), "absent"))
            stats = client.stats()
            assert stats["puts"] == 1 and stats["adopted"] == 1
            assert stats["gets"] == 2 and stats["hits"] == 1
            assert stats["hit_rate"] == 0.5
            assert stats["entries"] == 1
            assert stats["layer_sizes"]["evaluations"] == 1

    def test_server_side_lru_bounds_entries(self, tmp_path):
        with CacheServer(str(tmp_path / "small.sock"),
                         layer_capacities={"probes": 4}) as srv:
            with CacheClient(srv.address) as client:
                for i in range(20):
                    client.put("probes", (("g",), "s", i), i)
                stats = client.stats()
                assert stats["layer_sizes"]["probes"] == 4
                assert stats["evictions"] == 16
                # the newest entries survived
                found, _windows = client.get_many(
                    "probes", [(("g",), "s", i) for i in range(20)])
                assert sorted(found.values()) == [16, 17, 18, 19]

    def test_remote_shutdown(self, tmp_path):
        srv = CacheServer(str(tmp_path / "down.sock")).start()
        client = CacheClient(srv.address)
        client.shutdown()
        client.close()
        deadline = time.monotonic() + 5.0
        while os.path.exists(srv.address):
            assert time.monotonic() < deadline, "server did not stop"
            time.sleep(0.05)

    def test_write_behind_flush(self, tmp_path):
        from repro.core import cache_store

        path = str(tmp_path / "snap.bin")
        with CacheServer(str(tmp_path / "f.sock"), snapshot_path=path,
                         flush_interval=3600.0) as srv:
            with CacheClient(srv.address) as client:
                client.put("evaluations", (("g",), "k"), 42)
                assert client.flush() == path
                # nothing new: the next flush is a no-op
                assert client.flush() is None
        snapshot = cache_store.load(path)
        assert ((("g",), "k"), 42) in snapshot.layers["evaluations"]


# ----------------------------------------------------------------------
# engine attachment: transparency + fallback
# ----------------------------------------------------------------------
class TestEngineAttachment:
    def test_two_engines_share_live(self, server, lib):
        off = EvaluationEngine(cache=False)
        reference = design_fingerprint(find_design(diffeq(), lib, 6, 11,
                                                   engine=off))
        first = EvaluationEngine()
        assert attach_engine(first, server.address)
        warm = find_design(diffeq(), lib, 6, 11, engine=first)
        detach_engine(first)
        assert design_fingerprint(warm) == reference
        assert server.entry_count() > 0

        second = EvaluationEngine()
        assert attach_engine(second, server.address)
        shared = find_design(diffeq(), lib, 6, 11, engine=second)
        detach_engine(second)
        assert design_fingerprint(shared) == reference
        assert second.stats.remote_hits > 0, \
            "the second engine never used the first engine's results"

    def test_engines_with_different_code_orders_share_live(self, server,
                                                            lib):
        # version codes are per engine: keys must cross the server in
        # content form, or the second engine would read garbage
        def interning(reverse):
            engine = EvaluationEngine()
            graph = diffeq()
            for version in sorted(lib, reverse=reverse):
                engine.allocation_key(graph, {op.op_id: version
                                              for op in graph})
            return engine

        off = EvaluationEngine(cache=False)
        reference = design_fingerprint(find_design(diffeq(), lib, 6, 11,
                                                   engine=off))
        first, second = interning(False), interning(True)
        allocation = {op.op_id: lib.fastest(op.rtype) for op in diffeq()}
        assert first.allocation_key(diffeq(), allocation) != \
            second.allocation_key(diffeq(), allocation)
        for engine in (first, second):
            assert attach_engine(engine, server.address)
            result = find_design(diffeq(), lib, 6, 11, engine=engine)
            detach_engine(engine)
            assert design_fingerprint(result) == reference
        assert second.stats.remote_hits > 0
        assert second.stats.schedules_run < first.stats.schedules_run

    def test_attach_to_dead_address_is_false(self, tmp_path):
        engine = EvaluationEngine()
        assert not attach_engine(engine, str(tmp_path / "gone.sock"))
        assert engine.backend is None

    def test_attach_refuses_cache_disabled_engine(self, server):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="cache-disabled"):
            attach_engine(EvaluationEngine(cache=False), server.address)

    def test_detach_flushes_buffered_puts(self, server, lib):
        engine = EvaluationEngine()
        assert attach_engine(engine, server.address,
                             batch_size=10_000)  # nothing auto-flushes
        find_design(diffeq(), lib, 6, 11, engine=engine)
        mid_count = server.entry_count()
        detach_engine(engine)
        assert server.entry_count() > mid_count, \
            "detach did not ship the write-behind buffer"

    def test_server_killed_mid_run_falls_back(self, tmp_path, lib):
        """Satellite: kill the server between evaluations — the engine
        flips to local-only and finishes with engine-off-identical
        results, flagging the fallback in its stats."""
        off = EvaluationEngine(cache=False)
        expected = [design_fingerprint(find_design(fir16(), lib, 10, 9,
                                                   engine=off)),
                    design_fingerprint(find_design(diffeq(), lib, 6, 11,
                                                   engine=off))]
        srv = CacheServer(str(tmp_path / "dying.sock")).start()
        engine = EvaluationEngine()
        assert attach_engine(engine, srv.address, timeout=2.0)
        first = find_design(fir16(), lib, 10, 9, engine=engine)
        srv.stop()  # the socket vanishes under the live client
        second = find_design(diffeq(), lib, 6, 11, engine=engine)
        detach_engine(engine)
        assert [design_fingerprint(first),
                design_fingerprint(second)] == expected
        assert engine.stats.remote_fallbacks == 1
        # once fallen back, the backend stays silent (no reconnects)
        assert engine.backend is None

    def test_forked_backend_never_touches_the_inherited_socket(
            self, server, monkeypatch):
        """A backend inherited across fork() shares the parent's
        connection fd; writing on it would interleave frames with the
        parent's requests.  Simulated child (different pid): the
        backend must go silent — no flush, no fallback accounting."""
        engine = EvaluationEngine()
        assert attach_engine(engine, server.address,
                             batch_size=10_000)
        backend = engine.backend
        backend.store("evaluations", (("g",), "fork"), 1)  # buffered
        assert backend._pending
        puts_before = server.stats.puts
        monkeypatch.setattr("repro.core.engine.os.getpid",
                            lambda: backend._owner_pid + 1)
        backend.flush()
        assert not backend.alive
        assert backend._pending == []
        assert server.stats.puts == puts_before, \
            "the 'child' wrote on the inherited socket"
        assert engine.stats.remote_fallbacks == 0, \
            "fork inheritance is not a server failure"
        monkeypatch.undo()
        detach_engine(engine)

    def test_sweep_killed_server_mid_flight(self, tmp_path, lib):
        """Satellite: the server dies *while* a workers=2 live sweep is
        running; every point still matches the serial engine-on sweep
        (which itself equals engine-off, pinned elsewhere)."""
        latencies, areas = [10, 11], [8, 9]
        serial = point_fingerprints(sweep_bounds(
            fir16(), lib, latencies, areas, engine=EvaluationEngine()))
        srv = CacheServer(str(tmp_path / "vanish.sock")).start()
        killer = threading.Timer(0.3, srv.stop)
        killer.start()
        try:
            points = sweep_bounds(fir16(), lib, latencies, areas,
                                  workers=2, engine=EvaluationEngine(),
                                  cache_server=srv.address)
        finally:
            killer.cancel()
            srv.stop()
        assert point_fingerprints(points) == serial


# ----------------------------------------------------------------------
# live sweeps: equivalence + concurrency
# ----------------------------------------------------------------------
def _hammer(address: str, worker_id: int, rounds: int, span: int,
            failures) -> None:
    """One stress process: interleave overlapping puts and gets."""
    try:
        client = CacheClient(address, timeout=10.0)
        for round_no in range(rounds):
            for i in range(span):
                # every worker writes the same key space (overlapping
                # allocations); values are derived from the key alone,
                # as engine memos are, so last-write-wins is benign
                key = (("graph", i % span), "sig", round_no)
                client.put("evaluations", key, ("value", i % span, round_no))
            found, _windows = client.get_many(
                "evaluations",
                [(("graph", i), "sig", round_no) for i in range(span)])
            for key, value in found.items():
                expected = ("value", key[0][1], round_no)
                if value != expected:
                    failures.put((worker_id, key, value, expected))
        client.close()
    except Exception as exc:  # pragma: no cover - failure reporting
        failures.put((worker_id, "exception", repr(exc)))


class TestConcurrentClients:
    def test_stress_no_lost_updates_no_deadlock(self, server):
        """Satellite: N processes hammer overlapping get/put traffic;
        every update must land (no lost updates), every process must
        finish (no deadlock), and values must never interleave."""
        n_workers, rounds, span = 4, 10, 25
        failures = multiprocessing.Queue()
        processes = [
            multiprocessing.Process(
                target=_hammer,
                args=(server.address, worker_id, rounds, span, failures))
            for worker_id in range(n_workers)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=60.0)
            assert not process.is_alive(), "stress worker deadlocked"
            assert process.exitcode == 0
        assert failures.empty(), failures.get()
        stats_entries = server.entry_count()
        assert stats_entries == rounds * span, \
            f"lost updates: {rounds * span - stats_entries} entries missing"
        with CacheClient(server.address) as client:
            for round_no in range(rounds):
                found, _windows = client.get_many(
                    "evaluations",
                    [(("graph", i), "sig", round_no) for i in range(span)])
                assert len(found) == span
                for key, value in found.items():
                    assert value == ("value", key[0][1], round_no)

    def test_live_sweep_matches_engine_off(self, lib):
        """Acceptance: a workers=2 live sweep over a Table 2 subgrid is
        byte-identical to the engine-off serial sweep."""
        latencies, areas = [10, 11], [8, 9]
        off = point_fingerprints(sweep_bounds(
            fir16(), lib, latencies, areas,
            engine=EvaluationEngine(cache=False)))
        hub = EvaluationEngine()
        live = point_fingerprints(sweep_bounds(
            fir16(), lib, latencies, areas, workers=2,
            share_caches="live", engine=hub))
        assert live == off
        # the ephemeral server's contents were merged back into the hub
        assert hub.cache_size() > 0

    def test_live_sweep_against_external_server(self, server, lib):
        """Workers attached to an externally owned server leave their
        results on it for the next run."""
        latencies, areas = [5, 6], [11]
        serial = point_fingerprints(sweep_bounds(
            diffeq(), lib, latencies, areas, engine=EvaluationEngine()))
        points = sweep_bounds(diffeq(), lib, latencies, areas, workers=2,
                              engine=EvaluationEngine(),
                              cache_server=server.address)
        assert point_fingerprints(points) == serial
        assert server.entry_count() > 0
        assert server.stats.adopted > 0


# ----------------------------------------------------------------------
# negative-result TTL markers
# ----------------------------------------------------------------------
class _CountingClient:
    """Duck-typed CacheClient double: counts round trips, serves a dict."""

    def __init__(self, store=None):
        self.store = store or {}
        self.gets = 0
        self.get_many_keys = 0
        self.puts = []

    def get(self, layer, key):
        self.gets += 1
        try:
            return True, self.store[(layer, key)]
        except KeyError:
            return False, None

    def get_many(self, layer, keys):
        self.get_many_keys += len(keys)
        return {key: self.store[(layer, key)] for key in keys
                if (layer, key) in self.store}

    def put_many(self, entries):
        self.puts.extend(entries)
        return len(entries)

    def close(self):
        pass


class TestNegativeResultMarkers:
    def test_repeat_miss_skips_the_round_trip(self):
        from repro.core.engine import EngineStats, RemoteCacheBackend

        client = _CountingClient()
        backend = RemoteCacheBackend(client, negative_ttl=60.0)
        backend.stats = EngineStats()
        assert backend.fetch("density", ("k",)) == (False, None)
        assert backend.fetch("density", ("k",)) == (False, None)
        assert backend.fetch("density", ("k",)) == (False, None)
        assert client.gets == 1  # only the first miss hit the wire
        assert backend.stats.remote_negative_hits == 2

    def test_marker_expires_after_ttl(self, monkeypatch):
        import time as time_module

        from repro.core.engine import RemoteCacheBackend

        client = _CountingClient()
        backend = RemoteCacheBackend(client, negative_ttl=0.01)
        backend.fetch("density", ("k",))
        time_module.sleep(0.02)
        backend.fetch("density", ("k",))
        assert client.gets == 2  # marker expired, re-asked

    def test_own_store_clears_the_marker(self):
        from repro.core.engine import RemoteCacheBackend

        client = _CountingClient()
        backend = RemoteCacheBackend(client, negative_ttl=60.0)
        backend.fetch("density", ("k",))
        backend.store("density", ("k",), "fresh")
        backend.flush()
        client.store[("density", ("k",))] = "fresh"
        found, value = backend.fetch("density", ("k",))
        assert (found, value) == (True, "fresh")
        assert client.gets == 2

    def test_batched_lookups_filter_marked_keys(self):
        from repro.core.engine import EngineStats, RemoteCacheBackend

        client = _CountingClient({("density", ("hit",)): "value"})
        backend = RemoteCacheBackend(client, negative_ttl=60.0)
        backend.stats = EngineStats()
        first = backend.fetch_many("density", [("hit",), ("miss",)])
        assert first == {("hit",): "value"}
        assert client.get_many_keys == 2
        # the miss is marked: the next batch only ships the unknown key
        second = backend.fetch_many("density", [("miss",), ("other",)])
        assert second == {}
        assert client.get_many_keys == 3
        assert backend.stats.remote_negative_hits == 1

    def test_zero_ttl_disables_markers(self):
        from repro.core.engine import RemoteCacheBackend

        client = _CountingClient()
        backend = RemoteCacheBackend(client, negative_ttl=0.0)
        backend.fetch("density", ("k",))
        backend.fetch("density", ("k",))
        assert client.gets == 2

    def test_negative_ttl_must_be_non_negative(self):
        from repro.core.engine import RemoteCacheBackend
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            RemoteCacheBackend(_CountingClient(), negative_ttl=-1.0)

    def test_marker_table_is_bounded(self):
        from repro.core.engine import RemoteCacheBackend

        client = _CountingClient()
        backend = RemoteCacheBackend(client, negative_ttl=60.0)
        limit = RemoteCacheBackend.MAX_NEGATIVE
        for index in range(limit + 10):
            backend.fetch("density", (index,))
        assert len(backend._negative) <= limit

    def test_cold_prefetch_tail_is_not_reasked(self, server, lib):
        """End to end: density-range keys the server missed once are
        not re-asked by the next evaluation's prefetch.

        An early-exiting scan (``stop_at_area``) prefetches the whole
        latency range but never computes (or stores) the tail, so only
        the absent markers stop a second scan from re-asking the
        server key by key — the diffeq live-pass regression.
        """
        from repro.core.cache_server import attach_engine

        engine = EvaluationEngine()
        assert attach_engine(engine, server.address)
        graph = diffeq()
        allocation = {op.op_id: lib.fastest_smallest(op.rtype)
                      for op in graph}
        bound = engine.min_latency(graph, allocation) + 4
        first = engine.evaluate(graph, allocation, bound,
                                stop_at_area=10 ** 6, scheduler="density")
        assert first is not None  # scan stopped at the first point
        gets_after_first = server.stats.gets
        second = engine.evaluate(graph, allocation, bound,
                                 scheduler="density")
        assert second is not None
        # the whole marked tail (4 density keys) answered locally
        assert engine.stats.remote_negative_hits == 4
        # remaining round trips are all first-time keys (the new memo
        # entry and the tail's schedule points), never re-asked misses
        assert server.stats.gets - gets_after_first <= 5


# ----------------------------------------------------------------------
# server-side negative windows + marker pickling
# ----------------------------------------------------------------------
class TestServerNegativeWindows:
    def test_first_miss_registers_a_window(self, tmp_path):
        address = str(tmp_path / "neg.sock")
        with cache_server.CacheServer(address) as server:
            with cache_server.CacheClient(address) as client:
                found, _value, window = client.get("density", (("g",), "m"))
                assert found is False and window > 0.0
                client.get("density", (("g",), "m"))
                assert server.stats.negative_hits == 1

    def test_a_put_clears_the_window(self, tmp_path):
        address = str(tmp_path / "neg2.sock")
        with cache_server.CacheServer(address) as server:
            with cache_server.CacheClient(address) as client:
                client.get("density", (("g",), "m"))
                client.put("density", (("g",), "m"), "v")
                assert client.get("density", (("g",), "m"))[:2] \
                    == (True, "v")
                assert server.stats.negative_hits == 0

    def test_fleet_wide_single_ask(self, server):
        """The windows live server-side, so one engine's miss saves a
        *different* engine's round trip — impossible with client-local
        markers."""
        key = (("g",), "cold-everywhere")
        with CacheClient(server.address, timeout=10.0) as first:
            assert first.get("density", key)[0] is False
        with CacheClient(server.address, timeout=10.0) as second:
            found, _value, window = second.get("density", key)
            assert found is False and window > 0.0
        assert server.stats.negative_hits == 1

    def test_backend_honours_the_server_window(self):
        from repro.core.engine import EngineStats, RemoteCacheBackend

        class _WindowClient:
            def __init__(self):
                self.gets = 0

            def get(self, layer, key):
                self.gets += 1
                return (False, None, 60.0)

            def close(self):
                pass

        client = _WindowClient()
        # a tiny client-side default, but the server grants 60s: the
        # authoritative window governs, outliving the local ttl
        backend = RemoteCacheBackend(client, negative_ttl=0.005)
        backend.stats = EngineStats()
        assert backend.fetch("density", ("k",)) == (False, None)
        time.sleep(0.02)  # the local default would have expired
        assert backend.fetch("density", ("k",)) == (False, None)
        assert client.gets == 1, \
            "the server-granted window was not honoured"
        assert backend.stats.remote_negative_hits == 1

    def test_markers_do_not_survive_pickling(self, server):
        """``time.monotonic`` deadlines are only meaningful in the
        process that measured them.  A backend pickled into a
        forked/spawned worker must arrive with an empty marker table
        and an empty write-behind buffer."""
        engine = EvaluationEngine()
        assert attach_engine(engine, server.address)
        try:
            backend = engine.backend
            backend.fetch("density", (("g",), "will-miss"))
            backend.store("density", (("g",), "pending"), "v")
            assert backend._negative and backend._pending
            clone = pickle.loads(pickle.dumps(backend))
            assert clone._negative == {}
            assert clone._pending == []
            # the original keeps its state; only the copy is scrubbed
            assert backend._negative and backend._pending
        finally:
            detach_engine(engine)


# ----------------------------------------------------------------------
# stale unix sockets (bind-time hygiene)
# ----------------------------------------------------------------------
class TestStaleSockets:
    def test_stale_socket_file_is_reclaimed(self, tmp_path):
        """Satellite regression: a socket file left behind by a dead
        server (SIGKILL skips the unlink) must not block the next
        bind."""
        address = str(tmp_path / "stale.sock")
        corpse = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        corpse.bind(address)
        corpse.close()  # closes the fd but leaves the file behind
        assert os.path.exists(address)
        with CacheServer(address) as srv:
            with CacheClient(srv.address) as client:
                client.ping()

    def test_live_server_socket_is_not_clobbered(self, server):
        """A *live* server's socket must never be unlinked out from
        under it by a second bind attempt."""
        with pytest.raises(CacheError, match="live server"):
            CacheServer(server.address).start()
        assert os.path.exists(server.address)
        with CacheClient(server.address) as client:
            client.ping()  # the incumbent is unharmed

    def test_non_socket_file_is_refused(self, tmp_path):
        """A regular file at the address is someone else's data —
        refuse to bind rather than delete it."""
        address = str(tmp_path / "notasocket.sock")
        with open(address, "w") as handle:
            handle.write("precious")
        with pytest.raises(CacheError, match="not a socket"):
            CacheServer(address).start()
        with open(address) as handle:
            assert handle.read() == "precious"

    def test_socket_is_owner_only_whatever_the_umask(self, tmp_path):
        """Peers send pickles, so the socket file's mode is the only
        gate against other local users: a group-writable umask must
        not leave the socket open to the group."""
        address = str(tmp_path / "private.sock")
        previous = os.umask(0o002)
        try:
            srv = CacheServer(address).start()
        finally:
            os.umask(previous)
        try:
            mode = os.stat(address).st_mode
            assert stat.S_ISSOCK(mode)
            assert mode & 0o077 == 0, oct(mode)
            with CacheClient(address) as client:
                client.ping()  # the owner still connects
        finally:
            srv.stop()


# ----------------------------------------------------------------------
# client fork safety
# ----------------------------------------------------------------------
def _forked_child(client, address, failures):
    """Runs in a fork()ed child holding the parent's connected client."""
    try:
        if client._sock is not None and client._owner_pid == os.getpid():
            failures.put(("child", "inherited socket not detected"))
        client.ping()  # must reconnect, not write on the parent's fd
        client.put("density", (("g",), "from-child", 1), "child-value")
        client.close()
    except Exception as exc:  # pragma: no cover - failure reporting
        failures.put(("child", repr(exc)))


class TestClientForkSafety:
    def test_forked_client_reconnects_instead_of_sharing_the_fd(
            self, server):
        """Satellite regression: a CacheClient carried across fork()
        must reconnect in the child; writing on the inherited fd would
        interleave the child's frames with the parent's stream."""
        context = multiprocessing.get_context("fork")
        failures = context.Queue()
        with CacheClient(server.address, timeout=10.0) as client:
            client.ping()  # connect in the parent first
            assert client._sock is not None
            process = context.Process(
                target=_forked_child,
                args=(client, server.address, failures))
            process.start()
            process.join(timeout=30.0)
            assert not process.is_alive() and process.exitcode == 0
            assert failures.empty(), failures.get()
            # the parent's connection survived the child's traffic
            client.ping()
            assert client.get("density", (("g",), "from-child", 1)) \
                == (True, "child-value", 0.0)
        assert server.stats.connections >= 2, \
            "the child reused the parent's connection"


# ----------------------------------------------------------------------
# ping hygiene (malformed replies from a scripted fake server)
# ----------------------------------------------------------------------
def _scripted_server(tmp_path, replies):
    """A fake unix 'server' answering each request from a script."""
    address = str(tmp_path / "scripted.sock")
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(address)
    listener.listen(1)

    def serve():
        conn, _ = listener.accept()
        conn.settimeout(5.0)
        for reply in replies:
            if _recv_frame(conn) is None:
                break
            _send_frame(conn, reply)
        conn.close()

    threading.Thread(target=serve, daemon=True).start()
    return address, listener


class TestPingHygiene:
    @pytest.mark.parametrize("reply", [
        ("ok", ("pong",)),        # arity regression: slipped the guard
        ("ok", "pong"),           # non-tuple reply
        ("ok", ("gnop", PROTOCOL_VERSION)),
        ("ok", (None, None)),
    ])
    def test_malformed_pong_is_clean_cache_error(self, tmp_path, reply):
        address, listener = _scripted_server(tmp_path, [reply])
        try:
            with CacheClient(address, timeout=2.0) as client:
                with pytest.raises(CacheError, match="malformed ping"):
                    client.ping()
        finally:
            listener.close()

    @pytest.mark.parametrize("version", [None, 0, PROTOCOL_VERSION + 5,
                                         "2"])
    def test_version_skew_is_protocol_error(self, tmp_path, version):
        address, listener = _scripted_server(
            tmp_path, [("ok", ("pong", version))])
        try:
            with CacheClient(address, timeout=2.0) as client:
                with pytest.raises(ProtocolError, match="protocol"):
                    client.ping()
        finally:
            listener.close()

    def test_malformed_reply_envelope_is_clean(self, tmp_path):
        address, listener = _scripted_server(tmp_path, [("ok",)])
        try:
            with CacheClient(address, timeout=2.0) as client:
                with pytest.raises(CacheError, match="malformed"):
                    client.ping()
        finally:
            listener.close()


# ----------------------------------------------------------------------
# the synthesize RPC
# ----------------------------------------------------------------------
class TestSynthesizeRPC:
    """Remote-vs-local parity for jobs (results, streaming,
    NoSolutionError) is pinned by ``test_protocol_conformance.py``;
    only server-internal behaviours stay here."""

    def test_jobs_warm_the_server_cache(self, server, lib):
        """A synthesize job executes on the server's shared layers, so
        an engine attached afterwards reuses the job's entries."""
        with CacheClient(server.address) as client:
            client.synthesize(diffeq(), lib, 8, 20)
        assert server.entry_count() > 0
        engine = EvaluationEngine()
        assert attach_engine(engine, server.address)
        find_design(diffeq(), lib, 8, 20, engine=engine)
        detach_engine(engine)
        assert engine.stats.remote_hits > 0, \
            "the attached engine never used the job's entries"

    def test_bad_job_shapes_are_clean_errors(self, server, lib):
        with CacheClient(server.address) as client:
            with pytest.raises(CacheError, match="synthesize"):
                client._request(("synthesize", "not-a-graph"))
            client.ping()  # the connection survives

    def test_fail_open_to_local_compute(self, lib, tmp_path):
        """Acceptance: a dead server address means local compute with
        identical results — for jobs as well as cache lookups."""
        local = find_design(diffeq(), lib, 8, 20,
                            engine=EvaluationEngine(cache=False))
        result = synthesize_remote(
            diffeq(), lib, 8, 20, address=str(tmp_path / "gone.sock"),
            timeout=0.5,
            engine=EvaluationEngine(cache=False))
        assert design_fingerprint(result) == design_fingerprint(local)
        graph = diffeq()
        allocations = [{op.op_id: lib.fastest(op.rtype) for op in graph}]
        evals = evaluate_batch_remote(
            graph, allocations, 8, address=str(tmp_path / "gone.sock"),
            timeout=0.5)
        reference = EvaluationEngine(cache=False).evaluate_batch(
            graph, allocations, 8)
        assert [(e.latency, e.area) if e else None for e in evals] \
            == [(e.latency, e.area) if e else None for e in reference]

    def test_fail_open_preserves_no_solution(self, lib, tmp_path):
        with pytest.raises(NoSolutionError):
            synthesize_remote(diffeq(), lib, 1, 1,
                              address=str(tmp_path / "gone.sock"),
                              timeout=0.5,
                              engine=EvaluationEngine(cache=False))


# ----------------------------------------------------------------------
# event-loop hardening: fd exhaustion, backpressure, stream drops
# ----------------------------------------------------------------------
class TestAcceptHardening:
    def test_fd_exhaustion_pauses_accept_but_keeps_serving(self, tmp_path):
        """Satellite regression: ``accept()`` raising EMFILE used to be
        swallowed with a bare ``return``, leaving the listener readable
        and the event loop spinning hot (and, on some kernels, the
        pending connection wedged forever).  Now the listener pauses
        briefly, existing connections keep being served, and accepting
        resumes once descriptors free up."""
        resource = pytest.importorskip("resource")
        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        address = str(tmp_path / "fd.sock")
        server = cache_server.CacheServer(address).start()
        reserve = [os.open(os.devnull, os.O_RDONLY) for _ in range(8)]
        hogs = []
        thread = None
        try:
            with CacheClient(address, timeout=15.0) as steady:
                steady.put("density", (("g",), "k", 1), "v")
                resource.setrlimit(resource.RLIMIT_NOFILE, (256, hard))
                try:
                    while True:
                        hogs.append(os.open(os.devnull, os.O_RDONLY))
                except OSError:
                    pass
                assert hogs, "could not exhaust the fd table"
                # one descriptor back: enough for the late client's
                # socket, NOT enough for the server's accept()ed end
                os.close(reserve.pop())
                outcome = {}

                def late_client():
                    try:
                        with CacheClient(address, timeout=15.0) as late:
                            outcome["get"] = late.get(
                                "density", (("g",), "k", 1))
                    except Exception as exc:  # pragma: no cover
                        outcome["error"] = repr(exc)

                thread = threading.Thread(target=late_client)
                thread.start()
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline \
                        and not server.stats.accept_errors:
                    time.sleep(0.01)
                assert server.stats.accept_errors >= 1
                # the pre-existing connection is served while paused
                assert steady.get("density", (("g",), "k", 1))[:2] \
                    == (True, "v")
                for fd in hogs:
                    os.close(fd)
                hogs = []
                thread.join(timeout=15.0)
                assert not thread.is_alive()
                assert "error" not in outcome, outcome
                assert outcome["get"][:2] == (True, "v")
        finally:
            for fd in hogs:
                os.close(fd)
            for fd in reserve:
                os.close(fd)
            resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
            if thread is not None and thread.is_alive():
                thread.join(timeout=15.0)
            server.stop()


class TestBackpressure:
    def test_stalled_reader_is_disconnected_cleanly(self, tmp_path):
        """A client that pipelines requests without draining replies
        must not buffer the server into the ground: past the outbuf
        cap the connection gets one clean error frame and is closed —
        and the server keeps serving everyone else."""
        address = str(tmp_path / "bp.sock")
        with cache_server.CacheServer(
                address, max_outbuf_bytes=64 * 1024) as server:
            big = "x" * 16384
            key = (("g",), "big", 1)
            server.seed({"density": [(key, big)]})
            sock = socket.socket(socket.AF_UNIX)
            sock.connect(address)
            sock.settimeout(30.0)
            try:
                request = pickle.dumps(("get", "density", key))
                framed = struct.pack("!I", len(request)) + request
                sock.sendall(framed * 400)  # ~6.5 MB of replies due
                # stay stalled until the server condemns the connection:
                # a reader that drains while the replies are produced
                # can keep the outbuf under the cap
                deadline = time.monotonic() + 30.0
                while server.stats.backpressure_disconnects == 0 \
                        and time.monotonic() < deadline:
                    time.sleep(0.01)
                # now drain: ok replies, then the condemnation frame,
                # then EOF — never a hang, never a killed server
                saw_backpressure = False
                while True:
                    reply = _recv_frame(sock)
                    if reply is None:
                        break
                    if reply[0] == "error":
                        assert "backpressure" in reply[1]
                        saw_backpressure = True
                assert saw_backpressure
            finally:
                sock.close()
            assert server.stats.backpressure_disconnects == 1
            with CacheClient(address, timeout=10.0) as other:
                other.ping()
                assert other.get("density", key)[:2] == (True, big)

    def test_design_stream_frames_dropped_when_not_draining(self,
                                                            tmp_path):
        """White-box: optional ``design`` stream frames are shed once a
        connection's outbuf backs up, but the job's final reply always
        goes out."""
        server = cache_server.CacheServer(
            str(tmp_path / "unused.sock"), stream_outbuf_bytes=1024)
        left, right = socket.socketpair()
        try:
            conn = cache_server._Connection(left, time.monotonic())
            conn.busy = True
            backlog = b"\0" * 4096  # a stalled reader's buffered bytes
            conn.outbuf += backlog
            server._io_queue.append(
                ("frame", conn, ("design", "streamed")))
            server._io_queue.append(("done", conn, ("ok", "final")))
            server._drain_io_queue()
            assert server.stats.designs_dropped == 1
            assert conn.busy is False
            right.settimeout(5.0)
            received = bytearray()
            while len(received) < len(backlog):
                received += right.recv(1 << 16)
            assert bytes(received[:len(backlog)]) == backlog
            del received[:len(backlog)]
            while len(received) < struct.calcsize("!I"):
                received += right.recv(1 << 16)
            (length,) = struct.unpack(
                "!I", bytes(received[:struct.calcsize("!I")]))
            while len(received) < struct.calcsize("!I") + length:
                received += right.recv(1 << 16)
            payload = bytes(received[struct.calcsize("!I"):])
            assert pickle.loads(payload) == ("ok", "final")
            # nothing else was queued: the design frame is gone
            assert not conn.outbuf
        finally:
            left.close()
            right.close()
