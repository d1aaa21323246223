"""Property-based equivalence tests for the engine cache layers.

Hypothesis drives random DFGs, random resource libraries (deliberately
including same-delay version pairs, which exercise the delays-keyed
schedule sharing), and random
allocation sequences through four engines that must be observationally
identical:

* **off** — caching disabled: the reference kernels
  (``hls/timing.py``, ``hls/density.py``, ``hls/listsched.py``) and no
  memo, the independent oracle; every other engine is cached and runs
  the compiled core (``hls/fastsched.py``);
* **cold** — a fresh engine per request;
* **warm** — one engine serving every request (intra-run reuse);
* **reloaded** — a fresh engine restored from a snapshot of *warm*
  round-tripped through the serialized wire format.

The density latency scan skips latencies whose area lower bound
cannot win, in every engine (the cache-disabled one included), so the
engines agreeing with each other no longer checks that pruning; a
further property compares them all with an exhaustive scan defined
here.

A further property pins the pool-local re-binder
(:func:`repro.hls.binding.rebind_versions`) against the full left-edge
bind on single-operation allocation deltas.
"""

from hypothesis import given, settings, strategies as st

from repro.bench import diffeq
from repro.core import (
    EvaluationEngine,
    cache_store,
    find_design,
    merge_snapshot,
    snapshot_engine,
)
from repro.core.evaluate import Evaluation
from repro.dfg import random_dag
from repro.errors import NoSolutionError, SchedulingError
from repro.hls import AREA_MODELS, density_schedule, total_area
from repro.hls.binding import left_edge_bind, rebind_versions
from repro.hls.timing import asap_latency
from repro.library import ResourceLibrary, ResourceVersion, paper_library


def random_library(rng_values) -> ResourceLibrary:
    """A 2-type library whose version parameters come from hypothesis.

    Every type gets one pair of versions sharing a delay (two
    allocations then share one density schedule) plus one
    distinct-delay version.
    """
    versions = []
    for rtype, prefix in (("add", "a"), ("mul", "m")):
        shared_delay, extra_delay, areas, rels = rng_values[rtype]
        versions.extend([
            ResourceVersion(rtype, f"{prefix}0", area=areas[0],
                            delay=shared_delay, reliability=rels[0]),
            ResourceVersion(rtype, f"{prefix}1", area=areas[1],
                            delay=shared_delay, reliability=rels[1]),
            ResourceVersion(rtype, f"{prefix}2", area=areas[2],
                            delay=extra_delay, reliability=rels[2]),
        ])
    return ResourceLibrary(versions)


library_params = st.fixed_dictionaries({
    rtype: st.tuples(
        st.integers(min_value=1, max_value=3),       # shared delay
        st.integers(min_value=1, max_value=4),       # extra delay
        st.tuples(*[st.integers(min_value=1, max_value=5)] * 3),  # areas
        st.tuples(*[st.floats(min_value=0.9, max_value=0.999,
                              allow_nan=False)] * 3),  # reliabilities
    )
    for rtype in ("add", "mul")
})

graph_params = st.tuples(
    st.integers(min_value=2, max_value=10),      # size
    st.integers(min_value=0, max_value=10_000),  # seed
    st.floats(min_value=0.1, max_value=0.9),     # edge probability
)


@st.composite
def evaluation_case(draw):
    """A graph, a library, and a handful of allocation requests."""
    size, seed, prob = draw(graph_params)
    graph = random_dag(size, seed=seed, edge_prob=prob)
    library = random_library(draw(library_params))
    choices = {rtype: library.versions_of(rtype)
               for rtype in ("add", "mul")}
    requests = []
    n_requests = draw(st.integers(min_value=2, max_value=5))
    for _ in range(n_requests):
        allocation = {
            op.op_id: choices[op.rtype][
                draw(st.integers(min_value=0, max_value=2))]
            for op in graph
        }
        slack = draw(st.integers(min_value=0, max_value=6))
        requests.append((allocation, slack))
    return graph, library, requests


def evaluation_fingerprint(evaluation):
    if evaluation is None:
        return None
    return (evaluation.latency, evaluation.area,
            dict(evaluation.schedule.starts),
            dict(evaluation.binding.op_to_instance),
            [(i.name, i.version) for i in evaluation.binding.instances])


class TestEvaluateEquivalence:
    @given(evaluation_case())
    @settings(max_examples=40, deadline=None)
    def test_cold_warm_reloaded_off_agree(self, case):
        graph, library, requests = case
        off = EvaluationEngine(cache=False)
        warm = EvaluationEngine()
        # bounds are derived from each allocation's critical path so a
        # good share of the requests are feasible
        resolved = []
        for allocation, slack in requests:
            bound = off.min_latency(graph, allocation) + slack
            resolved.append((allocation, bound))

        expected = [evaluation_fingerprint(
            off.evaluate(graph, allocation, bound))
            for allocation, bound in resolved]

        for index, (allocation, bound) in enumerate(resolved):
            cold = EvaluationEngine()
            assert evaluation_fingerprint(
                cold.evaluate(graph, allocation, bound)) == expected[index]
            # ask warm twice: miss then memo hit must both agree
            assert evaluation_fingerprint(
                warm.evaluate(graph, allocation, bound)) == expected[index]
            assert evaluation_fingerprint(
                warm.evaluate(graph, allocation, bound)) == expected[index]

        snapshot = cache_store.loads(
            cache_store.dumps(snapshot_engine(warm)))
        reloaded = EvaluationEngine()
        merge_snapshot(reloaded, snapshot)
        for index, (allocation, bound) in enumerate(resolved):
            assert evaluation_fingerprint(
                reloaded.evaluate(graph, allocation, bound)) == \
                expected[index]

    @given(evaluation_case())
    @settings(max_examples=15, deadline=None)
    def test_find_design_cached_equals_reference(self, case):
        """End-to-end: the full search (memo layers, schedule sharing,
        dominance pruning) matches the
        uncached reference on random instances."""
        graph, library, requests = case
        allocation, slack = requests[0]
        off = EvaluationEngine(cache=False)
        latency_bound = off.min_latency(graph, allocation) + slack
        area_bound = sum(v.area for v in allocation.values())

        def run(engine):
            try:
                result = find_design(graph, library, latency_bound,
                                     area_bound, engine=engine)
            except NoSolutionError:
                return None
            return (result.area, result.latency, result.reliability,
                    dict(result.schedule.starts),
                    dict(result.binding.op_to_instance))

        assert run(EvaluationEngine()) == run(off)

    @given(evaluation_case())
    @settings(max_examples=15, deadline=None)
    def test_snapshot_survives_graph_rebuild(self, case):
        """Content addressing: the reloaded engine must hit for a
        *rebuilt* graph object, and still answer like the reference."""
        graph, library, requests = case
        allocation, slack = requests[0]
        off = EvaluationEngine(cache=False)
        bound = off.min_latency(graph, allocation) + slack
        expected = evaluation_fingerprint(
            off.evaluate(graph, allocation, bound))

        donor = EvaluationEngine()
        donor.evaluate(graph, allocation, bound)
        reloaded = EvaluationEngine()
        merge_snapshot(reloaded, cache_store.loads(
            cache_store.dumps(snapshot_engine(donor))))

        # a distinct object with identical content: round-trip the
        # graph through its text serialization
        from repro.dfg.textio import dumps as graph_dumps, loads as \
            graph_loads
        rebuilt = graph_loads(graph_dumps(graph))
        assert rebuilt is not graph
        rebuilt_allocation = {op: allocation[op] for op in allocation}
        assert evaluation_fingerprint(
            reloaded.evaluate(rebuilt, rebuilt_allocation, bound)) == \
            expected


def exhaustive_realization(graph, allocation, bound, area_model,
                           scheduler):
    """The realization with no latency skipped: the reference density
    schedule, left-edge binding and area at every latency from the
    critical path to *bound*, keeping the first minimum; under
    ``"auto"`` the list realization replaces it only when strictly
    smaller."""
    delays = {op_id: version.delay for op_id, version in allocation.items()}
    critical = asap_latency(graph, delays)
    if critical > bound:
        return None
    best = None
    if scheduler in ("auto", "density"):
        for latency in range(critical, bound + 1):
            try:
                schedule = density_schedule(graph, delays, latency)
            except SchedulingError:
                continue
            binding = left_edge_bind(schedule, allocation)
            area = total_area(binding, area_model)
            if best is None or area < best.area:
                best = Evaluation(schedule, binding, schedule.latency, area)
    if scheduler in ("auto", "list"):
        listed = EvaluationEngine(cache=False, scheduler="list").evaluate(
            graph, allocation, bound, area_model=area_model)
        if listed is not None and (best is None or listed.area < best.area):
            best = listed
    return best


class TestPrunedScan:
    @given(evaluation_case(), st.sampled_from(AREA_MODELS),
           st.sampled_from(("auto", "density", "list")),
           st.integers(min_value=0, max_value=12))
    @settings(max_examples=60, deadline=None)
    def test_engines_match_the_exhaustive_scan(self, case, area_model,
                                               scheduler, stretch):
        graph, library, requests = case
        allocations = [allocation for allocation, _ in requests]
        kwargs = dict(area_model=area_model, scheduler=scheduler)
        engines = (EvaluationEngine(), EvaluationEngine(cache=False))
        for allocation, slack in requests:
            bound = engines[1].min_latency(graph, allocation) \
                + slack + stretch
            expected = evaluation_fingerprint(exhaustive_realization(
                graph, allocation, bound, area_model, scheduler))
            for engine in engines:
                assert evaluation_fingerprint(engine.evaluate(
                    graph, allocation, bound, **kwargs)) == expected
        # one bound for the whole batch: items below their critical
        # path come back None
        bound = min(engines[1].min_latency(graph, allocation)
                    for allocation in allocations) + stretch
        expected = [evaluation_fingerprint(exhaustive_realization(
            graph, allocation, bound, area_model, scheduler))
            for allocation in allocations]
        for engine in (EvaluationEngine(), EvaluationEngine(cache=False)):
            batch = engine.evaluate_batch(graph, allocations, bound,
                                          **kwargs)
            assert [evaluation_fingerprint(e) for e in batch] == expected


class TestIncrementalRebind:
    @given(evaluation_case(),
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_rebind_matches_full_bind_on_single_op_delta(self, case,
                                                         pick_seed):
        """rebind_versions ≡ left_edge_bind for every one-op change
        that keeps the schedule valid (same delay)."""
        import random

        graph, library, requests = case
        allocation, slack = requests[0]
        off = EvaluationEngine(cache=False)
        bound = off.min_latency(graph, allocation) + slack
        evaluation = off.evaluate(graph, allocation, bound,
                                  scheduler="density")
        if evaluation is None:
            return
        schedule = evaluation.schedule
        base = left_edge_bind(schedule, allocation)

        rng = random.Random(pick_seed)
        op = rng.choice(list(schedule.graph))
        old = allocation[op.op_id]
        same_delay = [v for v in library.versions_of(op.rtype)
                      if v.delay == old.delay and v != old]
        if not same_delay:
            return
        changed = dict(allocation)
        changed[op.op_id] = rng.choice(same_delay)

        incremental = rebind_versions(
            schedule, changed, base,
            {old.name, changed[op.op_id].name})
        full = left_edge_bind(schedule, changed)
        assert incremental.op_to_instance == full.op_to_instance
        assert [(i.name, i.version, i.ops) for i in incremental.instances] \
            == [(i.name, i.version, i.ops) for i in full.instances]
        assert incremental.area == full.area


class TestScheduleSharing:
    def test_same_delay_allocations_share_one_schedule(self):
        """The paper library has no same-delay version pairs, so build
        one explicitly: an allocation one same-delay swap away reuses
        the cached density schedule, bound afresh, and still equals the
        uncached reference."""
        library = ResourceLibrary([
            ResourceVersion("add", "slowrel", area=2, delay=2,
                            reliability=0.999),
            ResourceVersion("add", "slowcheap", area=1, delay=2,
                            reliability=0.99),
            ResourceVersion("mul", "m", area=4, delay=2,
                            reliability=0.99),
        ])
        graph = random_dag(8, seed=3, edge_prob=0.4)
        base = {op.op_id: library.version(
            "slowrel" if op.rtype == "add" else "m") for op in graph}
        adders = [op.op_id for op in graph if op.rtype == "add"]
        assert adders  # seed=3 contains adds
        engine = EvaluationEngine(scheduler="density")
        off = EvaluationEngine(cache=False, scheduler="density")
        bound = engine.min_latency(graph, base) + 2
        engine.evaluate(graph, base, bound)
        schedules_before = engine.stats.density_schedules
        delta = dict(base)
        delta[adders[0]] = library.version("slowcheap")
        warm = engine.evaluate(graph, delta, bound)
        cold = off.evaluate(graph, delta, bound)
        assert engine.stats.schedule_reuses > 0
        assert engine.stats.density_schedules == schedules_before
        assert evaluation_fingerprint(warm) == evaluation_fingerprint(cold)


class TestDefaultEnginePathway:
    def test_benchmark_snapshot_round_trip_equivalence(self):
        """The paper benchmark through the full snapshot pathway."""
        lib = paper_library()
        warm = EvaluationEngine()
        first = find_design(diffeq(), lib, 6, 11, engine=warm)
        reloaded = EvaluationEngine()
        merge_snapshot(reloaded, cache_store.loads(
            cache_store.dumps(snapshot_engine(warm))))
        second = find_design(diffeq(), lib, 6, 11, engine=reloaded)
        assert reloaded.stats.hits > 0
        assert second.area == first.area
        assert second.reliability == first.reliability
        assert second.schedule.starts == first.schedule.starts
        assert second.binding.op_to_instance == \
            first.binding.op_to_instance
