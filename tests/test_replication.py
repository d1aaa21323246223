"""Replicated shard ring: RF=2 placement, failover, and chaos.

Four layers, bottom-up:

* **placement determinism** — the RF=2 successor walk picks the same
  two *distinct* owners in every process and member order, degrades
  to RF=1 on a single-member ring, and removing a member only remaps
  that member's ranges;
* **health checking** — the per-member circuit breaker replaces the
  old permanent dead-marks: a restarted member is re-admitted after
  its backoff without recreating the client, and a flapping member's
  dial attempts are dampened instead of repeated per request;
* **chaos harness** — :class:`repro.testing.ChaosProxy` injects
  drops, delays, truncated frames, and disconnects at frame
  boundaries, and each fault surfaces as the failure the client is
  built to absorb;
* **failover** — with RF=2, killing any single shard mid-sweep still
  yields engine-off-identical designs *and* serves the dead shard's
  warm keys from replicas (``replica_hits > 0``, not recomputed); a
  killed-then-restarted member rejoins via ``ring_update`` +
  warm-pull and resumes serving without any client restart.
"""

import subprocess
import sys
import time

import pytest

from repro.bench import fir16
from repro.core import (
    EvaluationEngine,
    attach_engine,
    cache_server,
    detach_engine,
    find_design,
    shard,
    sweep_bounds,
)
from repro.core.shard import (
    ShardRing,
    ShardedCacheClient,
    join_member,
    leave_member,
    partition_layers,
    ring_status,
    start_shard_ring,
)
from repro.errors import CacheError, CacheTimeoutError
from repro.library import paper_library
from repro.testing import ChaosPolicy, ChaosProxy

from test_cache_server import design_fingerprint, point_fingerprints

MEMBERS = ("a.sock", "b.sock", "c.sock", "d.sock")


@pytest.fixture(scope="module")
def lib():
    return paper_library()


@pytest.fixture()
def ring(tmp_path):
    with start_shard_ring(2, address=str(tmp_path / "ring.sock")) as handle:
        yield handle


def _keys(count):
    return [(("g",), "k", index) for index in range(count)]


def _primary_keys(ring, index, count=80, per=5):
    """Keys whose RF=2 *primary* is member *index* of *ring*."""
    chosen = [key for key in _keys(count)
              if ring.owner_indices("density", key, 2)[0] == index]
    assert len(chosen) >= per, "hash never favoured this member"
    return chosen[:per]


# ----------------------------------------------------------------------
# placement determinism
# ----------------------------------------------------------------------
class TestReplicaPlacement:
    def test_two_distinct_owners_stable_across_orders(self):
        forward = ShardRing(MEMBERS)
        backward = ShardRing(tuple(reversed(MEMBERS)))
        for key in _keys(200):
            owners = forward.owners("density", key, 2)
            assert len(owners) == 2
            assert owners[0] != owners[1]
            assert owners == backward.owners("density", key, 2)

    def test_raising_rf_never_moves_the_primary(self):
        ring = ShardRing(MEMBERS)
        for key in _keys(200):
            assert ring.owners("density", key, 2)[0] \
                == ring.owner("density", key)

    def test_placement_is_stable_across_processes(self):
        """The walk hashes canonical wire bytes, not ``PYTHONHASHSEED``
        — a fresh interpreter computes the same owner pairs."""
        snippet = (
            "from repro.core.shard import ShardRing\n"
            f"ring = ShardRing({MEMBERS!r})\n"
            "print([ring.owner_indices('density', (('g',), 'k', i), 2)\n"
            "       for i in range(50)])\n"
        )
        local = [ShardRing(MEMBERS).owner_indices(
            "density", key, 2) for key in _keys(50)]
        remote = subprocess.run(
            [sys.executable, "-c", snippet], capture_output=True,
            text=True, check=True, env={"PYTHONHASHSEED": "12345",
                                        "PYTHONPATH": "src"},
            cwd="/root/repo").stdout.strip()
        assert remote == repr([tuple(pair) for pair in local])

    def test_single_member_ring_degrades_to_rf1(self):
        ring = ShardRing(("only.sock",))
        for key in _keys(20):
            assert ring.owners("density", key, 2) == ("only.sock",)

    def test_rf_capped_at_member_count(self):
        ring = ShardRing(MEMBERS[:2])
        for key in _keys(20):
            owners = ring.owners("density", key, 5)
            assert sorted(owners) == sorted(MEMBERS[:2])

    def test_removal_only_remaps_the_removed_members_ranges(self):
        ring = ShardRing(MEMBERS)
        survivor = ring.without("b.sock")
        for key in _keys(300):
            before = ring.owners("density", key, 2)
            after = survivor.owners("density", key, 2)
            if "b.sock" not in before:
                assert after == before
            else:
                # the surviving copy stays put; only the lost copy
                # remaps to a new member
                kept = tuple(m for m in before if m != "b.sock")
                assert kept[0] in after

    def test_partition_layers_rf2_covers_every_entry_twice(self):
        ring = ShardRing(MEMBERS)
        layers = {"density": [(key, index) for index, key
                              in enumerate(_keys(120))]}
        parts = [partition_layers(layers, ring, index, 2)
                 for index in range(len(MEMBERS))]
        merged = [entry for part in parts for entry in part["density"]]
        assert sorted(merged) == sorted(layers["density"] * 2)


# ----------------------------------------------------------------------
# health checking: breakers end the permanent dead-mark era
# ----------------------------------------------------------------------
class TestBreakerRecovery:
    def test_restarted_member_is_readmitted_without_client_restart(
            self, ring):
        """Regression for the permanent dead-marks: a member marked
        dead used to stay invisible until the *client* was rebuilt.
        Now the breaker re-probes on its backoff schedule and the
        restarted member rejoins the rotation."""
        keys = _primary_keys(ring.ring(), 0)
        with ShardedCacheClient(ring.addresses, timeout=2.0,
                                replication=1,
                                breaker_base=0.05,
                                ring_refresh=0.0) as client:
            for key in keys:
                client.put("density", key, "warm")
            ring.servers[0].stop()
            assert client.get("density", keys[0])[0] is False
            assert client.dead_shards == (ring.addresses[0],)
            ring.respawn(0)  # cold, but listening again
            deadline = time.monotonic() + 5.0
            while client.dead_shards and time.monotonic() < deadline:
                time.sleep(0.05)
                client.get("density", keys[0])
            assert client.dead_shards == ()
            assert client.counters["breaker_probes"] >= 1
            assert client.counters["breaker_recoveries"] >= 1
            # the re-admitted member takes writes again
            assert client.put("density", keys[0], "again") == 1
            assert ring.servers[0].entry_count() == 1

    def test_flapping_member_is_dampened(self, tmp_path):
        """A member that accepts connections and then kills every
        stream must not be dialled once per request: the breaker
        absorbs the flapping after the retry budget."""
        backing = cache_server.CacheServer(
            str(tmp_path / "flap.sock")).start()
        healthy = cache_server.CacheServer(
            str(tmp_path / "ok.sock")).start()
        proxy = ChaosProxy(backing.address,
                           policy=ChaosPolicy(disconnect=1.0))
        try:
            with proxy:
                with ShardedCacheClient(
                        (proxy.address, healthy.address),
                        timeout=2.0, replication=1,
                        breaker_base=0.4,
                        ring_refresh=0.0) as client:
                    for key in _keys(25):
                        client.get("density", key)
                    assert client.dead_shards == (proxy.address,)
                    # dials ≪ requests: the budget, not the workload
                    assert proxy.stats["connections"] <= 4
                    # the flap ends; the next probe re-admits it
                    proxy.policy = ChaosPolicy()
                    time.sleep(0.6)
                    client.ping()
                    assert client.dead_shards == ()
                    assert client.counters["breaker_recoveries"] == 1
        finally:
            backing.stop()
            healthy.stop()


# ----------------------------------------------------------------------
# the chaos harness itself
# ----------------------------------------------------------------------
class TestChaosProxy:
    @pytest.fixture()
    def backed(self, tmp_path):
        server = cache_server.CacheServer(
            str(tmp_path / "chaos.sock")).start()
        yield server
        server.stop()

    def _client(self, proxy, **kwargs):
        kwargs.setdefault("timeout", 2.0)
        return cache_server.CacheClient(proxy.address, **kwargs)

    def test_clean_policy_is_transparent(self, backed):
        with ChaosProxy(backed.address) as proxy:
            with self._client(proxy) as client:
                assert client.put("density", (("g",), "k"), "v") == 1
                assert client.get("density", (("g",), "k"))[:2] \
                    == (True, "v")
            assert proxy.stats["forwarded"] >= 4
            assert proxy.stats["connections"] == 1

    def test_delays_slow_but_serve(self, backed):
        policy = ChaosPolicy(delay=1.0, delay_seconds=0.01)
        with ChaosProxy(backed.address, policy=policy) as proxy:
            with self._client(proxy) as client:
                assert client.put("density", (("g",), "k"), "v") == 1
                assert client.get("density", (("g",), "k"))[:2] \
                    == (True, "v")
            assert proxy.stats["delayed"] >= 4
            assert proxy.stats["dropped"] == 0

    def test_truncated_frames_surface_as_cache_errors(self, backed):
        policy = ChaosPolicy(truncate=1.0)
        with ChaosProxy(backed.address, policy=policy) as proxy:
            with self._client(proxy) as client:
                with pytest.raises(CacheError):
                    client.ping()
            assert proxy.stats["truncated"] >= 1
        # the fault never reached the server's health
        with cache_server.CacheClient(backed.address,
                                      timeout=2.0) as direct:
            direct.ping()

    def test_dropped_frames_hit_the_client_deadline(self, backed):
        policy = ChaosPolicy(drop=1.0)
        with ChaosProxy(backed.address, policy=policy) as proxy:
            with self._client(proxy, timeout=0.3) as client:
                with pytest.raises(CacheTimeoutError):
                    client.ping()
            assert proxy.stats["dropped"] >= 1

    def test_partition_and_heal(self, backed):
        with ChaosProxy(backed.address) as proxy:
            with self._client(proxy) as client:
                client.ping()
                proxy.partition()
                with pytest.raises(CacheError):
                    client.ping()
                    client.ping()  # severed mid-stream or refused
            proxy.heal()
            with self._client(proxy) as client:
                client.ping()

    def test_policy_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            ChaosPolicy(drop=1.5)
        with pytest.raises(ValueError):
            ChaosPolicy(drop=0.8, disconnect=0.8)


# ----------------------------------------------------------------------
# RF=2 failover: warm keys are recovered, not recomputed
# ----------------------------------------------------------------------
class TestReplicatedFailover:
    def test_kill_either_member_replicas_serve_warm(self, ring):
        keys = _keys(40)
        for dead_index in (0, 1):
            with ShardedCacheClient(ring.addresses,
                                    timeout=2.0) as client:
                for index, key in enumerate(keys):
                    client.put("density", key, index)
                ring.servers[dead_index].stop()
                for index, key in enumerate(keys):
                    assert client.get("density", key)[:2] \
                        == (True, index)
                assert client.dead_shards \
                    == (ring.addresses[dead_index],)
                assert client.counters["replica_hits"] > 0
            ring.respawn(dead_index)

    def test_get_many_survives_a_dead_member(self, ring):
        keys = _keys(40)
        with ShardedCacheClient(ring.addresses, timeout=2.0) as client:
            for index, key in enumerate(keys):
                client.put("density", key, index)
            ring.servers[1].stop()
            found, windows = client.get_many("density", keys)
            assert found == {key: index
                             for index, key in enumerate(keys)}
            assert windows == {}
            assert client.counters["replica_hits"] > 0

    def test_replica_hit_read_repairs_the_primary(self, ring):
        key = _keys(1)[0]
        primary, replica = ring.ring().owners("density", key, 2)
        replica_server = ring.servers[ring.addresses.index(replica)]
        primary_server = ring.servers[ring.addresses.index(primary)]
        # seed only the replica — the primary lost this key
        with cache_server.CacheClient(replica_server.address,
                                      timeout=2.0) as direct:
            direct.put("density", key, "survivor-copy")
        with ShardedCacheClient(ring.addresses, timeout=2.0) as client:
            assert client.get("density", key)[:2] \
                == (True, "survivor-copy")
            assert client.counters["replica_hits"] == 1
            assert client.counters["read_repairs"] == 1
        # the repair re-warmed the primary synchronously
        with cache_server.CacheClient(primary_server.address,
                                      timeout=2.0) as direct:
            assert direct.get("density", key)[:2] \
                == (True, "survivor-copy")
        # the served hit counted as a replica hit server-side too
        assert replica_server.stats.replica_hits == 1

    @pytest.mark.parametrize("dead_index", [0, 1])
    def test_kill_any_shard_mid_sweep_matches_engine_off(
            self, ring, lib, dead_index):
        """The acceptance criterion: RF=2, kill *any* single shard
        mid-sweep — designs identical to engine-off AND the dead
        shard's warm keys are served from replicas, not recomputed."""
        latencies, areas = [10, 11, 12], [8, 9]
        reference = point_fingerprints(sweep_bounds(
            fir16(), lib, latencies, areas,
            engine=EvaluationEngine(cache=False)))
        # warm both copies of every key with a first engine
        warm = EvaluationEngine()
        assert attach_engine(warm, ring.address)
        try:
            sweep_bounds(fir16(), lib, latencies, areas, engine=warm)
        finally:
            detach_engine(warm)
        # a second engine sweeps; the shard dies between grid points
        pairs = [(latency, area) for latency in latencies
                 for area in areas]
        engine = EvaluationEngine()
        assert attach_engine(engine, ring.address, timeout=2.0)
        try:
            fingerprints = []
            for count, (latency, area) in enumerate(pairs):
                if count == len(pairs) // 2:
                    ring.servers[dead_index].stop()
                try:
                    result = find_design(fir16(), lib, latency, area,
                                         engine=engine)
                except Exception as exc:
                    from repro.errors import NoSolutionError

                    if not isinstance(exc, NoSolutionError):
                        raise
                    result = None
                fingerprints.append(
                    (latency, area, design_fingerprint(result)))
            assert fingerprints == reference
            client = engine.backend.client
            assert client.dead_shards \
                == (ring.addresses[dead_index],)
            assert client.counters["replica_hits"] > 0, \
                "warm keys were recomputed instead of failing over"
        finally:
            detach_engine(engine)
        assert engine.stats.remote_replica_hits > 0

    def test_sweep_through_a_flaky_member_matches_engine_off(
            self, tmp_path, lib):
        """Everything ≡ engine-off even when one member's link drops
        a quarter of its streams mid-flight."""
        latencies, areas = [10, 11], [8, 9]
        reference = point_fingerprints(sweep_bounds(
            fir16(), lib, latencies, areas,
            engine=EvaluationEngine(cache=False)))
        flaky = cache_server.CacheServer(
            str(tmp_path / "flaky.sock")).start()
        steady = cache_server.CacheServer(
            str(tmp_path / "steady.sock")).start()
        proxy = ChaosProxy(flaky.address,
                           policy=ChaosPolicy(disconnect=0.25, seed=7))
        try:
            with proxy:
                spec = f"{proxy.address},{steady.address}"
                engine = EvaluationEngine()
                assert attach_engine(engine, spec, timeout=2.0)
                try:
                    points = sweep_bounds(fir16(), lib, latencies,
                                          areas, engine=engine)
                finally:
                    detach_engine(engine)
                assert point_fingerprints(points) == reference
                assert proxy.stats["disconnects"] > 0, \
                    "the chaos never actually fired"
        finally:
            flaky.stop()
            steady.stop()


# ----------------------------------------------------------------------
# live membership: join, leave, rejoin — under a running client
# ----------------------------------------------------------------------
class TestLiveMembership:
    def test_killed_member_rejoins_and_serves_without_client_restart(
            self, ring):
        keys = _keys(30)
        with ShardedCacheClient(ring.addresses, timeout=2.0,
                                breaker_base=0.05,
                                ring_refresh=0.05) as client:
            for index, key in enumerate(keys):
                client.put("density", key, index)
            ring.servers[0].stop()
            # only a key whose primary is member 0 reaches the dead
            # member first; which keys those are follows the socket path
            probe = _primary_keys(ring.ring(), 0, per=1)[0]
            client.get("density", probe)  # trips the breaker
            assert client.dead_shards == (ring.addresses[0],)

            ring.respawn(0)  # cold and map-less
            members, epoch, pulled = join_member(
                ring.addresses[1], ring.addresses[0], timeout=2.0)
            assert members == ring.addresses
            assert epoch == 2
            assert pulled == len(keys)  # warm-pulled before broadcast
            assert ring.servers[0].entry_count() == len(keys)
            assert ring.servers[0].shard_index == 0
            assert ring.servers[0].ring_epoch == 2

            # the running client adopts the epoch on its next refresh
            deadline = time.monotonic() + 5.0
            while client.epoch < 2 and time.monotonic() < deadline:
                time.sleep(0.05)
                client.get("density", keys[0])
            assert client.epoch == 2
            assert client.counters["ring_updates"] >= 1
            assert client.dead_shards == ()

            # the rejoined member alone serves the full warm set
            ring.servers[1].stop()
            found, _windows = client.get_many("density", keys)
            assert found == {key: index
                             for index, key in enumerate(keys)}

    def test_join_grows_and_leave_shrinks_a_running_ring(
            self, ring, tmp_path):
        with ShardedCacheClient(ring.addresses, timeout=2.0,
                                ring_refresh=0.05) as client:
            for index, key in enumerate(_keys(30)):
                client.put("density", key, index)
            joiner = cache_server.CacheServer(
                str(tmp_path / "joiner.sock")).start()
            try:
                members, epoch, pulled = join_member(
                    ring.address, joiner.address, timeout=2.0)
                assert members == ring.addresses + (joiner.address,)
                assert epoch == 2
                assert pulled > 0, "the joiner started cold"
                assert joiner.entry_count() == pulled
                assert ring_status(joiner.address) == (members, epoch)

                # a live client picks the grown ring up mid-stream
                deadline = time.monotonic() + 5.0
                while client.epoch < epoch \
                        and time.monotonic() < deadline:
                    time.sleep(0.05)
                    client.get("density", _keys(1)[0])
                assert client.addresses == members

                survivors, epoch = leave_member(
                    ring.address, joiner.address, timeout=2.0)
                assert survivors == ring.addresses
                assert epoch == 3
                assert ring_status(ring.address) \
                    == (ring.addresses, 3)
            finally:
                joiner.stop()

    def test_leave_guards_last_member_and_strangers(self, ring):
        with pytest.raises(CacheError, match="not a member"):
            leave_member(ring.address, "nope.sock", timeout=2.0)
        survivors, _epoch = leave_member(
            ring.address, ring.addresses[1], timeout=2.0)
        assert survivors == (ring.addresses[0],)
        with pytest.raises(CacheError, match="last ring member"):
            leave_member(ring.addresses[0], ring.addresses[0],
                         timeout=2.0)
