"""Protocol conformance: the full client-visible op set.

One rig runs ping / put / get / get_many / evaluate_batch /
synthesize against a live server over its one transport, pickle
frames on an ``AF_UNIX`` path socket, and pins that every op behaves
like a local engine-off run: same results, same error surfaces.  The
frame-hygiene corner cases stay in ``test_cache_server.py``.

A second axis re-runs the job ops against a server with an RPC batch
window enabled: remote designs stay byte-identical to local, windowed
or not.
"""

import pytest

from repro.bench import diffeq
from repro.core import EvaluationEngine, find_design
from repro.core.cache_server import CacheClient, CacheServer
from repro.errors import NoSolutionError
from repro.library import paper_library

#: Rig ids; pickle over a unix socket path is the only combination.
MATRIX = ["unix-pickle"]


class Rig:
    """One live server plus a client factory."""

    def __init__(self, server):
        self.server = server

    def client(self, **kwargs) -> CacheClient:
        return CacheClient(self.server.address, timeout=5.0, **kwargs)


def _make_rig(tmp_path_factory, **server_kwargs):
    address = str(tmp_path_factory.mktemp("conformance") / "cache.sock")
    return Rig(CacheServer(address, **server_kwargs).start())


@pytest.fixture(scope="module", params=MATRIX)
def rig(request, tmp_path_factory):
    built = _make_rig(tmp_path_factory)
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
        """No hello: a connection opens straight with its first
        request, and ``ping`` checks the protocol version."""
        with rig.client() as client:
            client.ping()
        assert rig.server.stats.connections >= 1

    def test_put_get_roundtrip(self, rig):
        key = (("conformance",), "k", 1)
        with rig.client() as client:
            assert client.put("density", key, ("v", 2)) == 1
            hit, value, age = client.get("density", key)
            assert (hit, value) == (True, ("v", 2))
            assert age >= 0.0
            hit, value, _age = client.get("density",
                                          (("conformance",), "miss", 0))
            assert (hit, value) == (False, None)

    def test_get_many_mixed_hits(self, rig):
        present = (("many",), "k", 1)
        absent = (("many",), "k", 2)
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
# the same job ops with an RPC batch window enabled
# ----------------------------------------------------------------------
class TestWindowedOpSet:
    """Remote ≡ local on a *windowed* server too."""

    @pytest.fixture(params=MATRIX)
    def windowed_rig(self, request, tmp_path_factory):
        built = _make_rig(tmp_path_factory, batch_window=0.02)
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
