"""Property-based equivalence: compiled scheduling core ≡ reference.

The contract of :mod:`repro.hls.fastsched` is not "approximately as
good" but **identical output**: same start steps, same tie-breaks, same
errors.  These tests drive randomized graphs, delay vectors and
latency bounds through both implementations and assert exact
agreement — the property that lets the engine share every cache
layer, snapshot and golden value between the two cores.
"""

import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro.dfg import layered_dag, random_dag
from repro.errors import SchedulingError
from repro.hls import (
    alap_starts,
    asap_latency,
    asap_starts,
    density_schedule,
    fast_alap_starts,
    fast_asap_latency,
    fast_asap_starts,
    fast_density_schedule,
    fast_list_schedule,
    fast_time_frames,
    list_schedule,
    time_frames,
)
from repro.hls import fastsched
from repro.library import paper_library

graph_params = st.tuples(st.integers(1, 30), st.integers(0, 5_000))


def build(params):
    size, seed = params
    return random_dag(size, seed=seed)


def random_delays(graph, seed, high=4):
    rng = random.Random(seed)
    return {op.op_id: rng.randint(1, high) for op in graph}


def random_allocation(graph, seed):
    library = paper_library()
    rng = random.Random(seed)
    return {op.op_id: rng.choice(library.versions_of(op.rtype))
            for op in graph}


class TestTimingEquivalence:
    @given(graph_params, st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_asap_alap_frames_match(self, params, slack):
        graph = build(params)
        delays = random_delays(graph, params[1])
        latency = asap_latency(graph, delays) + slack
        assert fast_asap_latency(graph, delays) == \
            asap_latency(graph, delays)
        ref = asap_starts(graph, delays)
        fast = fast_asap_starts(graph, delays)
        assert fast == ref and list(fast) == list(ref)
        assert all(type(start) is int for start in fast.values())
        ref = alap_starts(graph, delays, latency)
        fast = fast_alap_starts(graph, delays, latency)
        assert fast == ref and list(fast) == list(ref)
        assert all(type(start) is int for start in fast.values())
        ref = time_frames(graph, delays, latency)
        fast = fast_time_frames(graph, delays, latency)
        assert fast == ref and list(fast) == list(ref)
        assert all(type(lo) is type(hi) is int for lo, hi in fast.values())

    @given(graph_params, st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_infeasible_latency_messages_match(self, params, short):
        """Below the critical path both ALAP passes and both frame
        computations raise, with the same message."""
        graph = build(params)
        delays = random_delays(graph, params[1])
        latency = asap_latency(graph, delays) - short
        for reference, fast in ((alap_starts, fast_alap_starts),
                                (time_frames, fast_time_frames)):
            with pytest.raises(SchedulingError) as expected:
                reference(graph, delays, latency)
            with pytest.raises(SchedulingError) as got:
                fast(graph, delays, latency)
            assert str(got.value) == str(expected.value)

    def test_infeasible_latency_raises_in_both(self):
        graph = random_dag(12, seed=5)
        delays = random_delays(graph, 5)
        latency = asap_latency(graph, delays) - 1
        with pytest.raises(SchedulingError):
            alap_starts(graph, delays, latency)
        with pytest.raises(SchedulingError):
            fast_alap_starts(graph, delays, latency)


class TestDensityEquivalence:
    @given(graph_params, st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_identical_start_steps(self, params, slack):
        graph = build(params)
        delays = random_delays(graph, params[1])
        latency = asap_latency(graph, delays) + slack
        reference = density_schedule(graph, delays, latency)
        fast = fast_density_schedule(graph, delays, latency)
        assert fast.starts == reference.starts
        assert fast.delays == reference.delays
        assert list(fast.starts) == list(reference.starts)

    @given(st.integers(2, 5), st.integers(2, 6), st.integers(0, 1_000),
           st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_layered_graphs_match(self, layers, width, seed, slack):
        graph = layered_dag(layers, width, seed=seed)
        delays = random_delays(graph, seed)
        latency = asap_latency(graph, delays) + slack
        reference = density_schedule(graph, delays, latency)
        fast = fast_density_schedule(graph, delays, latency)
        assert fast.starts == reference.starts

    def test_default_latency_is_critical_path(self):
        graph = random_dag(15, seed=11)
        delays = random_delays(graph, 11)
        assert fast_density_schedule(graph, delays).starts == \
            density_schedule(graph, delays).starts

    def test_below_critical_path_raises(self):
        graph = random_dag(10, seed=2)
        delays = random_delays(graph, 2)
        latency = asap_latency(graph, delays)
        with pytest.raises(SchedulingError):
            fast_density_schedule(graph, delays, latency - 1)

    def test_empty_graph_raises(self):
        from repro.dfg import DataFlowGraph

        with pytest.raises(SchedulingError):
            fast_density_schedule(DataFlowGraph("empty"), {})

    def test_zero_delay_operations_match_reference(self):
        from repro.dfg import DataFlowGraph

        g = DataFlowGraph("zd")
        g.add("a", "add")
        g.add("b", "add", deps=["a"])
        g.add("c", "add", deps=["a"])
        delays = {"a": 1, "b": 0, "c": 1}
        for latency in (2, 3, 4):
            assert fast_density_schedule(g, delays, latency).starts == \
                density_schedule(g, delays, latency).starts

    @given(graph_params, st.integers(0, 4))
    @settings(max_examples=40, deadline=None)
    def test_delays_with_zeros_match(self, params, slack):
        graph = build(params)
        rng = random.Random(params[1])
        delays = {op.op_id: rng.randint(0, 3) for op in graph}
        latency = asap_latency(graph, delays) + slack
        assert fast_density_schedule(graph, delays, latency).starts == \
            density_schedule(graph, delays, latency).starts

    def test_wide_windows_never_call_the_reference(self, monkeypatch):
        graph = random_dag(96, seed=1)
        library = paper_library()
        delays = {op.op_id: library.fastest(op.rtype).delay
                  for op in graph}
        # 60 steps of slack: windows of 61-66 steps, so exact costs
        # need a scale far beyond 1e10
        latency = asap_latency(graph, delays) + 60

        def forbidden(*args, **kwargs):
            raise AssertionError("the fast core called the reference")

        monkeypatch.setattr("repro.hls.density.density_schedule", forbidden)
        schedule = fast_density_schedule(graph, delays, latency)
        assert set(schedule.starts) == set(graph.op_ids())
        assert schedule.latency <= latency

    @given(st.tuples(st.integers(1, 20), st.integers(0, 5_000)),
           st.integers(24, 40))
    @settings(max_examples=40, deadline=None)
    def test_wide_slack_matches_exact_reference(self, params, slack):
        # slack >= 24 puts some window at >= 25 steps, so the exact
        # cost scale lcm(1..w0max) exceeds 1e10
        graph = build(params)
        delays = random_delays(graph, params[1])
        latency = asap_latency(graph, delays) + slack
        timing = fastsched.base_timing(graph, delays)
        hi = [latency - t for t in timing.tail]
        assert fastsched._window_scale(timing.asap, hi) > 10 ** 10
        assert fast_density_schedule(graph, delays, latency).starts == \
            density_schedule(graph, delays, latency).starts

    @pytest.mark.parametrize("size, seed", [(48, 6), (40, 2)])
    @pytest.mark.parametrize("slack", [0, 6, 12, 24, "ops"])
    def test_search_shapes_match(self, size, seed, slack):
        # the graphs of the perfbench ``loose`` searches, under delays
        # 1-4 (so every cost path runs, not only the paper library's
        # delays 1 and 2); slack |V| is the infeasible-search
        # diagnostic's window
        graph = random_dag(size, seed=seed)
        delays = random_delays(graph, seed)
        latency = asap_latency(graph, delays) + (
            len(graph) if slack == "ops" else slack)
        reference = density_schedule(graph, delays, latency)
        fast = fast_density_schedule(graph, delays, latency)
        assert list(fast.starts) == list(reference.starts)
        assert fast.starts == reference.starts


def brute_pinned_area(placed, delays, pool, unit):
    """The pinned lanes by definition: per pool, the most intervals
    ``[start, start + delay)`` sharing one step, times the unit area."""
    area = 0
    for p, unit_area in enumerate(unit):
        steps = [t for op_id, start in placed
                 if pool[op_id] == p
                 for t in range(start, start + delays[op_id])]
        area += unit_area * max((steps.count(t) for t in steps), default=0)
    return area


class TestCappedDensity:
    @given(graph_params, st.integers(0, 8), st.integers(1, 4),
           st.integers(0, 60), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_prefix_of_the_uncapped_solve(self, params, slack, pools, limit,
                                          zero_delays):
        graph = build(params)
        rng = random.Random(params[1])
        delays = {op.op_id: rng.randint(0 if zero_delays else 1, 4)
                  for op in graph}
        cg = fastsched.compile_graph(graph)
        d = cg.delays_array(delays)
        timing = fastsched.base_timing(graph, delays)
        latency = timing.critical + slack
        pool = [rng.randrange(pools) for _ in range(cg.n_ops)]
        unit = [rng.randint(1, 9) for _ in range(pools)]
        full = list(fastsched._solve_density(cg, d, timing, latency).items())
        capped = list(fastsched._solve_density(
            cg, d, timing, latency, (pool, unit, limit)).items())
        assert capped == full[:len(capped)]

        by_id = dict(zip(cg.op_ids, pool))
        lanes = [brute_pinned_area(capped[:k], delays, by_id, unit)
                 for k in range(len(capped) + 1)]
        # the solve runs on while the pinned lanes fit, and stops at
        # the first placement that lifts them above the cap
        assert all(area <= limit for area in lanes[:-1])
        assert lanes[-1] > limit or len(capped) == len(full)
        assert lanes == sorted(lanes)
        assert fastsched.pinned_area(cg, d, dict(capped), pool, unit) == \
            lanes[-1]

        result = fast_density_schedule(graph, delays, latency,
                                       (pool, unit, limit))
        if len(capped) < len(full):
            assert result == dict(capped)
        else:
            assert list(result.starts.items()) == full


class TestListEquivalence:
    @given(graph_params, st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_identical_schedules(self, params, adders, mults):
        graph = build(params)
        allocation = random_allocation(graph, params[1])
        counts = {version.name: (adders if version.rtype == "add"
                                 else mults)
                  for version in allocation.values()}
        reference = list_schedule(graph, allocation, counts)
        fast = fast_list_schedule(graph, allocation, counts)
        assert fast.starts == reference.starts
        assert list(fast.starts) == list(reference.starts)
        assert fast.delays == reference.delays

    def test_missing_allocation_raises(self):
        graph = random_dag(5, seed=1)
        allocation = random_allocation(graph, 1)
        removed = graph.op_ids()[0]
        del allocation[removed]
        counts = {version.name: 1 for version in allocation.values()}
        with pytest.raises(SchedulingError):
            fast_list_schedule(graph, allocation, counts)

    def test_zero_budget_raises(self):
        graph = random_dag(5, seed=1)
        allocation = random_allocation(graph, 1)
        with pytest.raises(SchedulingError):
            fast_list_schedule(graph, allocation, {})

    def test_max_steps_exceeded_raises(self):
        graph = random_dag(8, seed=3)
        allocation = random_allocation(graph, 3)
        counts = {version.name: 1 for version in allocation.values()}
        with pytest.raises(SchedulingError):
            fast_list_schedule(graph, allocation, counts, max_steps=0)


@dataclass(frozen=True)
class Version:
    """The two fields a list scheduler reads, without
    :class:`~repro.library.version.ResourceVersion`'s positive-delay
    check, so zero-delay operations can be scheduled."""

    name: str
    delay: int


def pooled_allocation(graph, seed, zero_delays):
    """Ops spread over three version pools with fixed delays."""
    rng = random.Random(seed)
    low = 0 if zero_delays else 1
    pools = [Version(f"v{k}", rng.randint(low, 3)) for k in range(3)]
    return {op.op_id: rng.choice(pools) for op in graph}


def probe(graph, allocation, counts, max_steps=100_000):
    state = fastsched.prepare_list_state(graph, allocation)
    return fastsched.list_probe_latency(
        state, [counts[name] for name in state.pools], max_steps)


class TestListProbeKernel:
    """The latency-only probe ≡ both full list schedulers."""

    @given(graph_params, st.booleans(),
           st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3),
                              st.integers(1, 3)), min_size=1, max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_latency_matches_both_schedulers(self, params, zero_delays,
                                             budgets):
        graph = build(params)
        allocation = pooled_allocation(graph, params[1], zero_delays)
        # one prepared state serves every budget, as in the engine
        state = fastsched.prepare_list_state(graph, allocation)
        for budget in budgets:
            counts = {f"v{k}": budget[k] for k in range(3)}
            latency = fastsched.list_probe_latency(
                state, [counts[name] for name in state.pools])
            assert latency == list_schedule(graph, allocation,
                                            counts).latency
            assert latency == fast_list_schedule(graph, allocation,
                                                 counts).latency

    def test_zero_delay_ops_and_budgets_of_one(self):
        from repro.dfg import DataFlowGraph

        g = DataFlowGraph("zd")
        g.add("a", "add")
        g.add("b", "add", deps=["a"])
        g.add("c", "add", deps=["a"])
        g.add("d", "add", deps=["b", "c"])
        zero, one = Version("z", 0), Version("u", 1)
        allocation = {"a": one, "b": zero, "c": one, "d": zero}
        counts = {"z": 1, "u": 1}
        expected = list_schedule(g, allocation, counts)
        assert probe(g, allocation, counts) == expected.latency == 2
        assert fast_list_schedule(g, allocation, counts).starts == \
            expected.starts

    def test_max_steps_message_matches_the_reference(self):
        graph = random_dag(8, seed=3)
        allocation = random_allocation(graph, 3)
        counts = {version.name: 1 for version in allocation.values()}
        with pytest.raises(SchedulingError) as reference:
            list_schedule(graph, allocation, counts, max_steps=0)
        with pytest.raises(SchedulingError) as probed:
            probe(graph, allocation, counts, max_steps=0)
        assert str(probed.value) == str(reference.value) == \
            "list scheduler exceeded 0 steps; instance budget is " \
            "likely malformed"

    def test_zero_budget_message_matches_the_reference(self):
        graph = random_dag(8, seed=3)
        allocation = random_allocation(graph, 3)
        counts = {version.name: 1 for version in allocation.values()}
        counts[allocation[graph.op_ids()[-1]].name] = 0
        with pytest.raises(SchedulingError) as reference:
            list_schedule(graph, allocation, counts)
        with pytest.raises(SchedulingError) as probed:
            probe(graph, allocation, counts)
        assert str(probed.value) == str(reference.value)

    def test_missing_allocation_raises(self):
        graph = random_dag(5, seed=1)
        allocation = random_allocation(graph, 1)
        del allocation[graph.op_ids()[2]]
        with pytest.raises(SchedulingError, match="has no allocation"):
            fastsched.prepare_list_state(graph, allocation)

    def test_full_schedule_keeps_placement_order(self):
        graph = random_dag(24, seed=4)
        allocation = random_allocation(graph, 4)
        counts = {version.name: 1 for version in allocation.values()}
        starts = fast_list_schedule(graph, allocation, counts).starts
        steps = list(starts.values())
        assert steps == sorted(steps)
        assert list(starts) == \
            list(list_schedule(graph, allocation, counts).starts)

    def test_probe_kernel_calls_no_numpy(self):
        graph = random_dag(20, seed=12)
        allocation = random_allocation(graph, 12)
        counts = {version.name: 1 for version in allocation.values()}
        expected = list_schedule(graph, allocation, counts).latency
        # a fresh graph: preparing the state misses the timing memo
        assert probe(graph, allocation, counts) == expected


def run_flagged(state, counts):
    """A probe's latency, placements and per-pool wait flags."""
    placed, waited = [], [False] * len(counts)
    latency = fastsched.list_probe_latency(state, counts, placed=placed,
                                           waited=waited)
    return latency, placed, waited


class TestWaitFlags:
    """A pool none of whose operations waited for a lane: one more lane
    of it places every operation at the same step (the lemma the
    engine's list greedy stops on)."""

    @given(graph_params, st.booleans(),
           st.tuples(st.integers(1, 3), st.integers(1, 3),
                     st.integers(1, 3)))
    @settings(max_examples=120, deadline=None)
    def test_a_lane_more_of_a_never_waiting_pool_changes_nothing(
            self, params, zero_delays, budget):
        graph = build(params)
        allocation = pooled_allocation(graph, params[1], zero_delays)
        state = fastsched.prepare_list_state(graph, allocation)
        counts = [budget[int(name[1:])] for name in state.pools]
        base = run_flagged(state, counts)
        for p, waited in enumerate(base[2]):
            if waited:
                continue
            more = counts[:]
            more[p] += 1
            assert run_flagged(state, more) == base

    @pytest.mark.parametrize("zero_delays", [False, True])
    def test_flags_name_exactly_the_pools_that_waited(self, zero_delays):
        graph = random_dag(30, seed=7)
        allocation = pooled_allocation(graph, 7, zero_delays)
        state = fastsched.prepare_list_state(graph, allocation)
        size = [state.pool.count(p) for p in range(len(state.pools))]
        # a lane per operation: nothing waits
        assert run_flagged(state, size)[2] == [False] * len(size)
        # one lane a pool: some pool has two ops ready at once
        _, placed, waited = run_flagged(state, [1] * len(size))
        assert any(waited)
        for p, flag in enumerate(waited):
            if not flag:
                # never deferred: the one-lane run is the unbounded one
                more = [1] * len(size)
                more[p] = size[p]
                assert run_flagged(state, more)[1] == placed


class TestEngineImplEquivalence:
    """A cached engine runs the compiled core, a ``cache=False`` engine
    the reference kernels: identical evaluations, independent code."""

    @given(graph_params, st.integers(0, 5), st.integers(0, 99))
    @settings(max_examples=25, deadline=None)
    def test_evaluations_identical(self, params, slack, seed):
        from repro.core import EvaluationEngine, min_latency

        graph = build(params)
        allocation = random_allocation(graph, seed)
        bound = min_latency(graph, allocation) + slack
        fast = EvaluationEngine()
        reference = EvaluationEngine(cache=False)
        got = fast.evaluate(graph, allocation, bound)
        expected = reference.evaluate(graph, allocation, bound)
        if expected is None:
            assert got is None
            return
        assert got.schedule.starts == expected.schedule.starts
        assert got.latency == expected.latency
        assert got.area == expected.area
        assert got.binding.instance_counts() == \
            expected.binding.instance_counts()

    def test_uncached_engine_never_runs_the_fast_core(self, monkeypatch):
        from repro.bench import diffeq
        from repro.core import EvaluationEngine, find_design

        def forbidden(*args, **kwargs):
            raise AssertionError("fast core ran in a cache=False engine")

        for name in ("base_timing", "fast_density_schedule",
                     "fast_list_schedule", "prepare_list_state",
                     "list_probe_latency", "placed_schedule",
                     "fast_time_frames",
                     "fast_asap_latency"):
            monkeypatch.setattr(fastsched, name, forbidden)
        # the latency loop runs victim selection too: Ld 6 is below
        # diffeq's most-reliable critical path
        result = find_design(diffeq(), paper_library(), 6, 11,
                             engine=EvaluationEngine(cache=False))
        assert result.latency <= 6

    def test_cached_engine_never_runs_the_reference_kernels(self,
                                                            monkeypatch):
        from repro.bench import diffeq
        import repro.core.engine as engine_module
        import repro.core.victims as victims_module
        from repro.core import EvaluationEngine, find_design

        def forbidden(*args, **kwargs):
            raise AssertionError("reference kernel ran in a cached engine")

        for name in ("density_schedule", "list_schedule", "asap_latency"):
            monkeypatch.setattr(engine_module, name, forbidden)
        for name in ("asap_latency", "time_frames"):
            monkeypatch.setattr(victims_module, name, forbidden)
        result = find_design(diffeq(), paper_library(), 6, 11,
                             engine=EvaluationEngine())
        assert result.latency <= 6


class TestBatchedTimingMemoOverflow:
    def test_capacity_clear_mid_batch_keeps_hit_rows(self, monkeypatch):
        """Regression: a batch mixing memo *hits* with enough misses to
        trip the capacity clear used to lose the hit rows — the final
        gather read the freshly cleared memo and raised KeyError."""
        graph = random_dag(10, seed=11)
        delays_list = [random_delays(graph, seed) for seed in range(12)]
        expected = [
            (tuple(timing.asap), tuple(timing.tail), timing.critical)
            for timing in fastsched.batched_timing(graph, delays_list)
        ]
        fastsched.compile_graph(graph)._timing_cache.clear()
        monkeypatch.setattr(fastsched, "TIMING_MEMO_ENTRIES", 4)
        # warm a few rows so the next batch sees genuine memo hits...
        fastsched.batched_timing(graph, delays_list[:3])
        # ...then resolve hits and misses together: the misses overflow
        # the 4-entry memo and clear it mid-call
        batched = fastsched.batched_timing(graph, delays_list)
        assert [(tuple(t.asap), tuple(t.tail), t.critical)
                for t in batched] == expected
