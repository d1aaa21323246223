"""Equivalence of the batched evaluation pipeline with the per-item path.

The contract of every batched entry point — :func:`repro.hls.
batched_timing`, :func:`repro.hls.batched_time_frames`,
:func:`repro.hls.batched_density_schedules`,
:meth:`repro.core.EvaluationEngine.evaluate_batch` and
:func:`repro.core.evaluate_allocations` — is *identical output* to the
sequential loop it replaces: same schedules, same selected designs,
same errors with the same messages, first failing item wins.  These
tests drive the Table 2 benchmarks and randomized graphs through both
paths and assert exact agreement.
"""

import itertools
import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench import diffeq, ewf, fir16, get_benchmark
from repro.dfg import random_dag
from repro.dfg.graph import DataFlowGraph, Operation
from repro.errors import SchedulingError
from repro.hls import (
    batched_density_schedules,
    batched_time_frames,
    batched_timing,
    density_schedule,
    fast_density_schedule,
    fast_time_frames,
    left_edge_bind,
    total_area,
)
from repro.hls import fastsched
from repro.hls.fastsched import base_timing
from repro.hls.metrics import AREA_INSTANCES, AREA_VERSIONS
from repro.hls.schedule import Schedule
from repro.core import EvaluationEngine, evaluate_allocations, find_design
from repro.core.engine import _GraphRecord, _lane_area, _Pools
from repro.experiments import paper_data
from repro.library import paper_library

BENCHES = (fir16, ewf, diffeq)


def random_delays(graph, seed, low=1, high=4):
    rng = random.Random(seed)
    return {op.op_id: rng.randint(low, high) for op in graph}


def library_requests(graph, count, seed, slack=3):
    """(delays, latency) pairs drawn from the paper library's delays."""
    library = paper_library()
    rng = random.Random(seed)
    choices = {op.op_id: [v.delay for v in library.versions_of(op.rtype)]
               for op in graph}
    requests = []
    for _ in range(count):
        delays = {op_id: rng.choice(ds) for op_id, ds in choices.items()}
        critical = base_timing(graph, delays).critical
        requests.append((delays, critical + rng.randint(0, slack)))
    return requests


def random_allocations(graph, count, seed):
    library = paper_library()
    rng = random.Random(seed)
    return [{op.op_id: rng.choice(library.versions_of(op.rtype))
             for op in graph} for _ in range(count)]


class TestBatchedTiming:
    def test_matches_per_item_on_benches(self):
        for bench in BENCHES:
            graph = bench()
            delays_list = [random_delays(graph, seed) for seed in range(8)]
            batched = batched_timing(graph, delays_list)
            for delays, timing in zip(delays_list, batched):
                single = base_timing(graph, delays)
                assert timing.asap == single.asap
                assert timing.tail == single.tail
                assert timing.critical == single.critical

    def test_duplicates_share_one_row(self):
        graph = fir16()
        delays = random_delays(graph, 3)
        batched = batched_timing(graph, [delays, dict(delays), delays])
        assert batched[0] is batched[1] is batched[2]

    def test_random_graphs(self):
        for seed in range(6):
            graph = random_dag(4 + 5 * seed, seed=seed)
            delays_list = [random_delays(graph, 31 * seed + k)
                           for k in range(5)]
            batched = batched_timing(graph, delays_list)
            for delays, timing in zip(delays_list, batched):
                assert timing.critical == base_timing(graph, delays).critical


class TestBatchedTimeFrames:
    def test_matches_per_item(self):
        graph = ewf()
        requests = library_requests(graph, 6, seed=5)
        delays_list = [d for d, _ in requests]
        latencies = [latency for _, latency in requests]
        batched = batched_time_frames(graph, delays_list, latencies)
        for delays, latency, frames in zip(delays_list, latencies, batched):
            assert frames == fast_time_frames(graph, delays, latency)

    def test_error_message_parity(self):
        graph = diffeq()
        delays = random_delays(graph, 2)
        bad = base_timing(graph, delays).critical - 1
        with pytest.raises(SchedulingError) as batched_err:
            batched_time_frames(graph, [delays], [bad])
        with pytest.raises(SchedulingError) as single_err:
            fast_time_frames(graph, delays, bad)
        assert str(batched_err.value) == str(single_err.value)

    def test_length_mismatch_raises(self):
        graph = diffeq()
        delays = random_delays(graph, 1)
        with pytest.raises(ValueError, match="differ in length"):
            batched_time_frames(graph, [delays, delays], [9])


class TestBatchedDensitySchedules:
    def test_matches_fast_and_reference_on_benches(self):
        for bench in BENCHES:
            graph = bench()
            requests = library_requests(graph, 12, seed=len(graph))
            batched = batched_density_schedules(graph, requests)
            for (delays, latency), got in zip(requests, batched):
                assert got.starts == fast_density_schedule(
                    graph, delays, latency).starts
                assert got.starts == density_schedule(
                    graph, delays, latency).starts

    def test_random_graphs_match_reference(self):
        for seed in range(5):
            graph = random_dag(6 + 6 * seed, seed=200 + seed)
            requests = [(random_delays(graph, 7 * seed + k),
                         base_timing(graph,
                                     random_delays(graph, 7 * seed + k))
                         .critical + k % 3)
                        for k in range(6)]
            batched = batched_density_schedules(graph, requests)
            for (delays, latency), got in zip(requests, batched):
                assert got.starts == density_schedule(
                    graph, delays, latency).starts, (seed, latency)

    def test_infeasible_latency_message_parity(self):
        graph = fir16()
        delays = random_delays(graph, 4)
        bad = base_timing(graph, delays).critical - 1
        with pytest.raises(SchedulingError) as batched_err:
            batched_density_schedules(graph, [(delays, bad)])
        with pytest.raises(SchedulingError) as single_err:
            fast_density_schedule(graph, delays, bad)
        assert str(batched_err.value) == str(single_err.value)

    def test_first_failing_request_wins(self):
        graph = diffeq()
        good = random_delays(graph, 5)
        latency = base_timing(graph, good).critical
        with pytest.raises(SchedulingError, match="below the critical"):
            batched_density_schedules(
                graph, [(good, latency), (good, latency - 1)])

    def test_empty_request_list(self):
        assert batched_density_schedules(fir16(), []) == []

    def test_empty_graph_raises(self):
        with pytest.raises(SchedulingError, match="empty graph"):
            batched_density_schedules(
                DataFlowGraph("empty"), [({}, 0)])

    def test_wide_windows_match_reference(self):
        # windows past 45 steps scale costs beyond 2**62: the exact
        # integer kernel must still agree with the rational reference
        graph = random_dag(12, seed=3)
        narrow = [(random_delays(graph, k), k % 3) for k in range(4)]
        wide = [(random_delays(graph, 10 + k), 45 + k) for k in range(2)]
        requests = [(delays, base_timing(graph, delays).critical + slack)
                    for delays, slack in narrow[:2] + wide + narrow[2:]]
        for delays, latency in requests:
            timing = base_timing(graph, delays)
            hi = [latency - t for t in timing.tail]
            work = sum(delays.values())
            scaled = fastsched._window_scale(timing.asap, hi) * work
            assert (scaled >= 2 ** 62) == (latency - timing.critical >= 45)
        batched = batched_density_schedules(graph, requests)
        for (delays, latency), got in zip(requests, batched):
            assert got.starts == fast_density_schedule(
                graph, delays, latency).starts
            assert got.starts == density_schedule(
                graph, delays, latency).starts

    def test_duplicate_requests_collapse(self):
        graph = ewf()
        delays = random_delays(graph, 8)
        latency = base_timing(graph, delays).critical + 1
        batched = batched_density_schedules(
            graph, [(delays, latency)] * 4)
        assert len(batched) == 4
        assert all(s.starts == batched[0].starts for s in batched)


class TestEvaluateBatch:
    def grids(self):
        for bench, latency in ((fir16, 12), (ewf, 15), (diffeq, 7)):
            graph = bench()
            yield graph, random_allocations(graph, 10, len(graph)), latency

    def assert_same_evaluation(self, got, want, context):
        if want is None:
            assert got is None, context
            return
        assert got is not None, context
        assert got.area == want.area, context
        assert got.latency == want.latency, context
        assert got.schedule.starts == want.schedule.starts, context
        assert got.binding.area == want.binding.area, context

    def test_batch_matches_sequential_and_oracle(self):
        for graph, allocations, latency in self.grids():
            batched_engine = EvaluationEngine(scheduler="density")
            sequential_engine = EvaluationEngine(scheduler="density")
            oracle = EvaluationEngine(scheduler="density", cache=False)
            batched = batched_engine.evaluate_batch(
                graph, allocations, latency)
            for idx, (allocation, got) in enumerate(
                    zip(allocations, batched)):
                want = sequential_engine.evaluate(graph, allocation, latency)
                self.assert_same_evaluation(got, want, (graph.name, idx))
                self.assert_same_evaluation(
                    got, oracle.evaluate(graph, allocation, latency),
                    (graph.name, idx))

    def test_duplicates_and_memo_hits(self):
        graph = diffeq()
        allocations = random_allocations(graph, 4, seed=2)
        engine = EvaluationEngine(scheduler="density")
        first = engine.evaluate_batch(
            graph, allocations + allocations, 7)
        self.assert_same_evaluation(first[0], first[len(allocations)], 0)
        # feasible results are memoized; infeasible bounds short-circuit
        # on the timing check and never reach the memo
        feasible = sum(1 for r in first[:len(allocations)] if r is not None)
        assert feasible > 0
        hits_before = engine.stats.hits
        again = engine.evaluate_batch(graph, allocations, 7)
        assert engine.stats.hits >= hits_before + feasible
        for g, w in zip(again, first):
            self.assert_same_evaluation(g, w, "memo")

    def test_empty_batch(self):
        engine = EvaluationEngine()
        assert engine.evaluate_batch(fir16(), [], 12) == []

    def test_auto_scheduler_and_wrapper(self):
        graph = diffeq()
        allocations = random_allocations(graph, 5, seed=4)
        engine = EvaluationEngine()  # "auto": density and list compete
        got = evaluate_allocations(graph, allocations, 7, engine=engine)
        check = EvaluationEngine()
        for allocation, g in zip(allocations, got):
            self.assert_same_evaluation(
                g, check.evaluate(graph, allocation, 7), "auto")

    def test_infeasible_bound_yields_nones(self):
        graph = fir16()
        allocations = random_allocations(graph, 3, seed=5)
        engine = EvaluationEngine(scheduler="density")
        assert engine.evaluate_batch(graph, allocations, 1) \
            == [None, None, None]


@dataclass(frozen=True)
class LaneVersion:
    """The fields binding and the lane count read from a version,
    without :class:`ResourceVersion`'s positive-delay check."""

    name: str
    area: int
    delay: int


@st.composite
def lane_pools(draw):
    """A graph of independent ops, one allocation and their starts:
    few pools and steps, so equal starts are common, zero delays
    allowed, same-named versions of different areas, and op ids whose
    order is not the insertion order (``"op10" < "op2"``)."""
    n = draw(st.integers(1, 14))
    graph = DataFlowGraph("lanes")
    allocation, starts = {}, {}
    for i in draw(st.permutations(range(n))):
        op_id = f"op{i}"
        graph.add_operation(Operation(op_id, "add", "add"))
        allocation[op_id] = LaneVersion(
            f"v{draw(st.integers(0, 2))}", draw(st.integers(1, 5)),
            draw(st.integers(0, 3)))
        starts[op_id] = draw(st.integers(0, 4))
    return graph, allocation, starts


def lane_area_of(graph, schedule, allocation, model):
    """:func:`_lane_area` of *schedule*, through the engine's pools."""
    record = _GraphRecord(graph, 0)
    return _lane_area(_Pools(record, allocation),
                      record.compiled.gather(schedule.starts), model)


class TestScanArea:
    """The area scan of a realization: the lane count on benchmark
    schedules and on zero-delay operations."""

    def test_matches_binder_on_benches(self):
        for bench in BENCHES:
            graph = bench()
            for seed in range(4):
                allocation = random_allocations(graph, 1, seed)[0]
                delays = {o: v.delay for o, v in allocation.items()}
                latency = base_timing(graph, delays).critical + seed % 3
                schedule = fast_density_schedule(graph, delays, latency)
                binding = left_edge_bind(schedule, allocation)
                for model in (AREA_INSTANCES, AREA_VERSIONS):
                    assert lane_area_of(graph, schedule, allocation, model) \
                        == total_area(binding, model), (graph.name, model)

    def test_zero_delay_returns_none_under_instances(self):
        # schedules from other frontends may carry zero-delay
        # operations; the scan once refused them under instances with
        # None, and the lane count now answers them exactly: a
        # zero-delay op still takes a lane, as the binder gives it one
        graph = DataFlowGraph("z")
        graph.add_operation(Operation("a", "read", "add"))
        graph.add_operation(Operation("b", "read", "add"))
        version = LaneVersion("add0", 3, 0)
        allocation = {"a": version, "b": version}
        schedule = Schedule(graph, {"a": 0, "b": 0}, {"a": 0, "b": 0})
        binding = left_edge_bind(schedule, allocation)
        for model in (AREA_INSTANCES, AREA_VERSIONS):
            area = lane_area_of(graph, schedule, allocation, model)
            assert area is not None
            assert area == total_area(binding, model) == version.area


class TestLaneArea:
    @settings(max_examples=300, deadline=None)
    @given(case=lane_pools())
    def test_matches_the_binder(self, case):
        graph, allocation, starts = case
        schedule = Schedule(graph, starts,
                            {o: v.delay for o, v in allocation.items()})
        binding = left_edge_bind(schedule, allocation)
        record = _GraphRecord(graph, 0)
        pools = _Pools(record, allocation)
        for model in (AREA_INSTANCES, AREA_VERSIONS):
            assert _lane_area(pools, record.compiled.gather(starts), model) \
                == total_area(binding, model), model


class TestFindDesignBatchedParity:
    def test_fast_matches_reference_engine(self):
        """A cached engine (compiled core) and an uncached one
        (reference kernels) select the same design."""
        library = paper_library()
        for bench, latency, area in ((fir16, 11, 9), (diffeq, 7, 20)):
            fast_engine = EvaluationEngine()
            ref_engine = EvaluationEngine(cache=False)
            fast = find_design(bench(), library, latency, area,
                               engine=fast_engine)
            ref = find_design(bench(), library, latency, area,
                              engine=ref_engine)
            assert fast.area == ref.area
            assert fast.reliability == ref.reliability
            assert fast.schedule.starts == ref.schedule.starts
            assert {o: v.name for o, v in fast.allocation.items()} \
                == {o: v.name for o, v in ref.allocation.items()}


def test_table2_style_grid_end_to_end():
    """The acceptance shape: every Table 2 graph's full
    uniform-allocation grid at each of its paper latency bounds,
    batched vs sequential vs uncached (the reference kernels),
    identical selected designs."""
    library = paper_library()
    for name in paper_data.TABLE2:
        graph = get_benchmark(name)
        lds = sorted({ld for ld, _ in paper_data.table2_grid(name)},
                     reverse=True)
        rtypes = sorted({op.rtype for op in graph})
        allocations = []
        for combo in itertools.product(
                *(library.versions_of(rt) for rt in rtypes)):
            pick = dict(zip(rtypes, combo))
            allocations.append(
                {op.op_id: pick[op.rtype] for op in graph})
        batched_engine = EvaluationEngine(scheduler="density")
        engines = (EvaluationEngine(scheduler="density"),
                   EvaluationEngine(scheduler="density", cache=False))
        for ld in lds:
            batched = batched_engine.evaluate_batch(graph, allocations, ld)
            selections = []
            for evaluations in [batched] + [
                    [engine.evaluate(graph, a, ld) for a in allocations]
                    for engine in engines]:
                selections.append(min(
                    ((ev.area, idx, ev.latency,
                      tuple(sorted(ev.schedule.starts.items())))
                     for idx, ev in enumerate(evaluations)
                     if ev is not None), default=None))
            assert selections[0] is not None, (graph.name, ld)
            assert selections.count(selections[0]) == len(selections), \
                (graph.name, ld)
