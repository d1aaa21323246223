"""Cross-transport protocol conformance matrix.

One parametrized rig runs the full client-visible op set — hello /
ping / put / get / get_many / evaluate_batch / synthesize — over
every supported (transport, encoding, auth) combination:

* AF_UNIX + pickle (the legacy no-handshake peer),
* AF_UNIX + json, with and without an auth token (unix transports
  never require one, but a client that offers one must still work),
* abstract-namespace AF_UNIX + json (``unix-abstract://`` — no
  socket file on disk, so no stale-file reclaim either),
* TCP + json with the mandatory token.

Each combination must behave identically: same results as a local
engine-off run, same error surfaces, same handshake guarantees.  The
matrix replaces the ad-hoc per-transport copies that used to live in
``test_cache_server.py`` (single-transport round-trip, version-skew,
synthesize/evaluate_batch parity, unix-vs-json cross-checks); the
hardening corner cases (pickle-on-TCP refusal, wrong tokens, frame
hygiene) stay there.

A second axis re-runs the job ops against servers with an RPC batch
window enabled, pinning the ISSUE 9 acceptance criterion that remote
designs are byte-identical to local across all three
transport/encoding combinations, windowed or not.
"""

import itertools
import os
import socket

import pytest

from repro.bench import diffeq
from repro.core import EvaluationEngine, find_design
from repro.core.cache_server import (
    PROTOCOL_VERSION,
    CacheClient,
    CacheServer,
    parse_address,
    _recv_frame,
    _send_frame,
)
from repro.errors import NoSolutionError, ProtocolError
from repro.library import paper_library

TOKEN = "conformance-secret"

#: (id, transport, encoding, client auth token, server auth token)
MATRIX = [
    ("unix-pickle", "unix", "pickle", None, None),
    ("unix-json", "unix", "json", None, None),
    ("unix-json-token", "unix", "json", TOKEN, None),
    ("abstract-json", "abstract", "json", None, None),
    ("tcp-json-token", "tcp", "json", TOKEN, TOKEN),
]

#: Abstract-namespace names are machine-global; make each rig's unique.
_ABSTRACT_IDS = itertools.count()


class Rig:
    """One live server plus a client factory for a matrix row."""

    def __init__(self, server, encoding, auth_token):
        self.server = server
        self.encoding = encoding
        self.auth_token = auth_token

    def client(self, **kwargs) -> CacheClient:
        return CacheClient(self.server.address, timeout=5.0,
                           encoding=self.encoding,
                           auth_token=self.auth_token, **kwargs)


def _make_rig(tmp_path_factory, transport, encoding, client_token,
              server_token, **server_kwargs):
    if transport == "tcp":
        address = "tcp://127.0.0.1:0"
    elif transport == "abstract":
        address = (f"unix-abstract://repro-conformance-{os.getpid()}"
                   f"-{next(_ABSTRACT_IDS)}")
    else:
        address = str(tmp_path_factory.mktemp("conformance")
                      / "cache.sock")
    server = CacheServer(address, auth_token=server_token,
                         **server_kwargs).start()
    return Rig(server, encoding, client_token)


@pytest.fixture(scope="module", params=MATRIX,
                ids=[row[0] for row in MATRIX])
def rig(request, tmp_path_factory):
    _id, transport, encoding, client_token, server_token = request.param
    built = _make_rig(tmp_path_factory, transport, encoding,
                      client_token, server_token)
    yield built
    built.server.stop()


@pytest.fixture(scope="module")
def lib():
    return paper_library()


def eval_fp(evals):
    return [None if e is None else
            (e.latency, e.area,
             tuple(sorted(e.schedule.starts.items())),
             tuple(sorted(e.binding.op_to_instance.items())))
            for e in evals]


def design_fp(result):
    if result is None:
        return None
    return (result.area, result.latency, result.reliability,
            dict(result.schedule.starts),
            dict(result.binding.op_to_instance))


def allocations_for(graph, lib):
    return [
        {op.op_id: lib.fastest(op.rtype) for op in graph},
        {op.op_id: lib.fastest_smallest(op.rtype) for op in graph},
        {op.op_id: lib.most_reliable(op.rtype) for op in graph},
    ]


# ----------------------------------------------------------------------
# the op set, identical over every matrix row
# ----------------------------------------------------------------------
class TestOpSet:
    def test_hello_and_ping(self, rig):
        before = rig.server.stats.handshakes
        with rig.client() as client:
            client.ping()
            if rig.encoding == "json":
                # json clients negotiated; an unsharded server
                # advertises no ring
                assert rig.server.stats.handshakes == before + 1
                assert client.server_shard_map is None
            else:
                # the legacy pickle peer never handshakes
                assert rig.server.stats.handshakes == before

    def test_put_get_roundtrip(self, rig):
        key = (("conformance", rig.encoding), "k", 1)
        with rig.client() as client:
            assert client.put("density", key, ("v", 2)) == 1
            hit, value, age = client.get("density", key)
            assert (hit, value) == (True, ("v", 2))
            assert age >= 0.0
            hit, value, _age = client.get("density",
                                          (("conformance",), "miss", 0))
            assert (hit, value) == (False, None)

    def test_get_many_mixed_hits(self, rig):
        present = (("many", rig.encoding), "k", 1)
        absent = (("many", rig.encoding), "k", 2)
        with rig.client() as client:
            client.put("density", present, 7)
            found, windows = client.get_many("density",
                                             [present, absent])
        assert found == {present: 7}
        assert absent not in found
        assert all(window >= 0.0 for window in windows.values())

    def test_evaluate_batch_matches_local(self, rig, lib):
        graph = diffeq()
        allocations = allocations_for(graph, lib)
        local = eval_fp(EvaluationEngine(cache=False).evaluate_batch(
            graph, allocations, 8))
        with rig.client() as client:
            remote = eval_fp(
                client.evaluate_batch(graph, allocations, 8))
        assert remote == local

    def test_synthesize_matches_local_and_streams(self, rig, lib):
        local = find_design(diffeq(), lib, 8, 20,
                            engine=EvaluationEngine(cache=False))
        streamed = []
        with rig.client() as client:
            remote = client.synthesize(diffeq(), lib, 8, 20,
                                       on_design=streamed.append)
        assert design_fp(remote) == design_fp(local)
        assert streamed, "no improving designs were streamed"
        assert design_fp(streamed[-1]) == design_fp(remote)

    def test_no_solution_parity(self, rig, lib):
        with pytest.raises(NoSolutionError) as remote_exc:
            with rig.client() as client:
                client.synthesize(diffeq(), lib, 1, 1)
        with pytest.raises(NoSolutionError) as local_exc:
            find_design(diffeq(), lib, 1, 1,
                        engine=EvaluationEngine(cache=False))
        assert remote_exc.value.latency == local_exc.value.latency
        assert remote_exc.value.area == local_exc.value.area


# ----------------------------------------------------------------------
# legacy peers: version skew is a clean rejection on every transport
# ----------------------------------------------------------------------
class TestLegacyPeer:
    @pytest.fixture(params=[row for row in MATRIX
                            if row[2] == "json"],
                    ids=[row[0] for row in MATRIX if row[2] == "json"])
    def json_rig(self, request, tmp_path_factory):
        _id, transport, encoding, client_token, server_token = \
            request.param
        built = _make_rig(tmp_path_factory, transport, encoding,
                          client_token, server_token)
        yield built
        built.server.stop()

    def _raw_connect(self, server):
        parsed = parse_address(server.address)
        if parsed[0] == "tcp":
            raw = socket.create_connection((parsed[1], parsed[2]),
                                           timeout=5.0)
        else:
            raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            raw.connect(parsed[1])
        raw.settimeout(5.0)
        return raw

    def test_version_2_peer_is_cleanly_rejected(self, json_rig):
        raw = self._raw_connect(json_rig.server)
        try:
            _send_frame(raw, ("hello", PROTOCOL_VERSION - 2, "json",
                              json_rig.auth_token or ""),
                        encoding="json")
            reply = _recv_frame(raw, encoding="json")
            assert reply[0] == "error" and "protocol" in reply[1]
            assert raw.recv(1) == b""  # server closed the connection
        finally:
            raw.close()
        # the rejection left the server fully serviceable
        with json_rig.client() as client:
            client.ping()

    def test_version_3_peer_is_still_served(self, json_rig):
        """A pre-replication peer handshakes at version 3 and gets the
        version-3 contract back: a 4-tuple ack with no ring-epoch
        field, pongs echoing 3, and working puts/gets — epoch fields
        never leak into its stream."""
        raw = self._raw_connect(json_rig.server)
        key = (("legacy-v3",), "k", 1)
        try:
            _send_frame(raw, ("hello", 3, "json",
                              json_rig.auth_token or ""),
                        encoding="json")
            status, ack = _recv_frame(raw, encoding="json")
            assert status == "ok"
            assert ack == ("hello", 3, "json", None)  # no 5th field
            _send_frame(raw, ("ping",), encoding="json")
            assert _recv_frame(raw, encoding="json") \
                == ("ok", ("pong", 3))
            _send_frame(raw, ("put", "density", key, "v"),
                        encoding="json")
            assert _recv_frame(raw, encoding="json") == ("ok", 1)
            _send_frame(raw, ("get", "density", key), encoding="json")
            status, (hit, value, _age) = _recv_frame(raw,
                                                     encoding="json")
            assert (status, hit, value) == ("ok", True, "v")
        finally:
            raw.close()

    def test_future_version_peer_is_cleanly_rejected(self, json_rig):
        raw = self._raw_connect(json_rig.server)
        try:
            _send_frame(raw, ("hello", PROTOCOL_VERSION + 1, "json",
                              json_rig.auth_token or ""),
                        encoding="json")
            reply = _recv_frame(raw, encoding="json")
            assert reply[0] == "error" and "protocol" in reply[1]
        finally:
            raw.close()

    def test_pickle_peer_is_transport_gated(self, json_rig):
        """The no-handshake pickle peer is a pathname-AF_UNIX-only
        privilege: the same raw frame that works on a socket file is
        refused on TCP *and* on the abstract namespace (which has no
        filesystem permissions to lean on)."""
        raw = self._raw_connect(json_rig.server)
        try:
            _send_frame(raw, ("ping",), encoding="pickle")
            if parse_address(json_rig.server.address)[0] == "unix":
                reply = _recv_frame(raw, encoding="pickle")
                assert reply == ("ok", ("pong", PROTOCOL_VERSION))
            else:
                reply = _recv_frame(raw, encoding="json")
                assert reply[0] == "error"
        finally:
            raw.close()


# ----------------------------------------------------------------------
# the same job ops with an RPC batch window enabled
# ----------------------------------------------------------------------
class TestWindowedOpSet:
    """ISSUE 9 acceptance: remote ≡ local on *windowed* servers too,
    across all three transport/encoding combinations."""

    WINDOWED = [row for row in MATRIX if row[0] != "unix-json-token"]

    @pytest.fixture(params=WINDOWED,
                    ids=[row[0] for row in WINDOWED])
    def windowed_rig(self, request, tmp_path_factory):
        _id, transport, encoding, client_token, server_token = \
            request.param
        built = _make_rig(tmp_path_factory, transport, encoding,
                          client_token, server_token,
                          batch_window=0.02)
        yield built
        built.server.stop()

    def test_jobs_match_local(self, windowed_rig, lib):
        graph = diffeq()
        allocations = allocations_for(graph, lib)
        local_evals = eval_fp(
            EvaluationEngine(cache=False).evaluate_batch(
                graph, allocations, 8))
        local_design = find_design(graph, lib, 8, 20,
                                   engine=EvaluationEngine(cache=False))
        with windowed_rig.client() as client:
            assert eval_fp(client.evaluate_batch(
                graph, allocations, 8)) == local_evals
            assert design_fp(client.synthesize(graph, lib, 8, 20)) \
                == design_fp(local_design)
            with pytest.raises(NoSolutionError):
                client.synthesize(graph, lib, 1, 1)
        assert windowed_rig.server.stats.window_batches >= 1
