"""Property-equivalence suite for grouped batch evaluation
(``EvaluationEngine.evaluate_batch_grouped`` with
:class:`~repro.dfg.compiled.MergedBatch`).

Merging several ``evaluate_batch`` requests into one window of work is
a throughput optimisation and nothing else, so every test here pins an
invariance: a merged group must produce results byte-identical to each
request evaluated alone and to a local engine-off run, a duplicate
allocation is computed once, and each request owns exactly its own
error, never a window mate's.
"""

import pytest

from repro.bench import diffeq, fir16
from repro.core import EvaluationEngine
from repro.dfg.compiled import MergedBatch
from repro.library import paper_library


@pytest.fixture(scope="module")
def lib():
    return paper_library()


def three_allocations(graph, lib):
    return [
        {op.op_id: lib.fastest(op.rtype) for op in graph},
        {op.op_id: lib.fastest_smallest(op.rtype) for op in graph},
        {op.op_id: lib.most_reliable(op.rtype) for op in graph},
    ]


def eval_fp(evals):
    """Byte-level fingerprint of an evaluations list."""
    return [None if e is None else
            (e.latency, e.area,
             tuple(sorted(e.schedule.starts.items())),
             tuple(sorted(e.binding.op_to_instance.items())))
            for e in evals]


def spy_batches(engine):
    """Record the item count of every ``evaluate_batch`` call."""
    calls = []
    real = engine.evaluate_batch

    def spy(spy_graph, allocations, latency_bound, **options):
        calls.append(len(allocations))
        return real(spy_graph, allocations, latency_bound, **options)

    engine.evaluate_batch = spy
    return calls


# ----------------------------------------------------------------------
# equivalence: merged == each request alone == local engine-off
# ----------------------------------------------------------------------
class TestEquivalence:
    def test_windowed_unwindowed_local_identical(self, lib):
        graph = diffeq()
        allocations = three_allocations(graph, lib)
        requests = [allocations, allocations[::-1], allocations[1:]]
        local = [eval_fp(EvaluationEngine(cache=False).evaluate_batch(
            graph, request, 8)) for request in requests]

        unwindowed = [eval_fp(EvaluationEngine().evaluate_batch(
            graph, request, 8)) for request in requests]
        assert unwindowed == local

        engine = EvaluationEngine()
        calls = spy_batches(engine)
        outcomes = engine.evaluate_batch_grouped(
            [(graph, request, 8, {}) for request in requests])
        assert [status for status, _ in outcomes] == ["ok"] * 3
        assert [eval_fp(evals) for _, evals in outcomes] == local
        # one group (same graph, bound and options): one merged call
        # carrying the three unique allocations
        assert calls == [3]

    def test_error_parity_windowed_vs_unwindowed(self, lib):
        """A failing request surfaces the same error whether it was
        evaluated alone or demultiplexed out of a merged group, and
        its group mate's results are untouched."""
        bad_shape = ("evaluate_batch", "not-a-graph")
        # allocations built for the wrong graph fail deep inside the
        # engine, past the request-shape check
        graph = fir16()
        good = three_allocations(graph, lib)
        wrong = three_allocations(diffeq(), lib)

        with pytest.raises(Exception) as alone:
            EvaluationEngine().evaluate_batch(graph, wrong, 12)

        def harvest(requests):
            outcomes = EvaluationEngine().evaluate_batch_grouped(requests)
            return [(status, type(value), str(value))
                    if status == "error" else (status, eval_fp(value))
                    for status, value in outcomes]

        solo = harvest([bad_shape]) + harvest([(graph, wrong, 12, {})])
        expected_ok = ("ok", eval_fp(
            EvaluationEngine(cache=False).evaluate_batch(graph, good, 12)))
        # the failing request both after and before its group mate
        merged = harvest([bad_shape, (graph, good, 12, {}),
                          (graph, wrong, 12, {})])
        assert solo == [merged[0], merged[2]]
        assert merged[1] == expected_ok
        flipped = harvest([(graph, wrong, 12, {}),
                           (graph, good, 12, {}), bad_shape])
        assert flipped == [merged[2], expected_ok, merged[0]]
        assert merged[2] == ("error", type(alone.value),
                             str(alone.value))
        assert "malformed evaluate_batch request" in merged[0][2]


# ----------------------------------------------------------------------
# cross-request dedupe
# ----------------------------------------------------------------------
class TestDedupe:
    def test_merged_batch_dedupes_and_splits(self):
        merged = MergedBatch()
        first = merged.add_request(["a", "b", "c"],
                                   keys=["ka", "kb", "kc"])
        second = merged.add_request(["b2", "d"], keys=["kb", "kd"])
        assert (first, second) == (0, 1)
        # the duplicate key computes once, with the first spelling
        assert merged.items == ["a", "b", "c", "d"]
        assert len(merged) == 2
        assert merged.merged_items == 5
        assert merged.unique_items == 4
        fanned = merged.split(["A", "B", "C", "D"])
        assert fanned == [["A", "B", "C"], ["B", "D"]]
        with pytest.raises(Exception):
            merged.split(["A", "B", "C"])  # arity mismatch

    def test_cross_request_dedupe_computes_once(self, lib):
        """Two requests sharing an allocation merge into one engine
        call carrying only the unique items."""
        graph = diffeq()
        alloc_a, alloc_b, alloc_c = three_allocations(graph, lib)
        engine = EvaluationEngine()
        calls = []
        real = engine.evaluate_batch

        def spy(spy_graph, allocations, latency_bound, **options):
            calls.append(len(allocations))
            return real(spy_graph, allocations, latency_bound,
                        **options)

        engine.evaluate_batch = spy
        outcomes = engine.evaluate_batch_grouped([
            (graph, [alloc_a, alloc_b], 8, {}),
            (graph, [alloc_b, alloc_c], 8, {}),
        ])
        # 4 submitted items, 3 unique: one merged call, deduped
        assert calls == [3]
        assert [status for status, _ in outcomes] == ["ok", "ok"]
        reference = EvaluationEngine(cache=False)
        assert eval_fp(outcomes[0][1]) == eval_fp(
            reference.evaluate_batch(graph, [alloc_a, alloc_b], 8))
        assert eval_fp(outcomes[1][1]) == eval_fp(
            reference.evaluate_batch(graph, [alloc_b, alloc_c], 8))

    def test_duplicate_jobs_share_one_window_batch(self, lib):
        graph = diffeq()
        allocations = three_allocations(graph, lib)
        local = eval_fp(EvaluationEngine(cache=False).evaluate_batch(
            graph, allocations, 8))
        engine = EvaluationEngine()
        calls = spy_batches(engine)
        outcomes = engine.evaluate_batch_grouped(
            [(graph, allocations, 8, {})] * 2)
        assert [eval_fp(evals) for _, evals in outcomes] == [local] * 2
        assert calls == [3]  # one merged call, the duplicate job free
        # a different bound is a different group: its own call
        calls.clear()
        engine.evaluate_batch_grouped([(graph, allocations, 8, {}),
                                       (graph, allocations, 9, {})])
        assert calls == [3, 3]
