"""Correctness tests for the shared evaluation engine.

The engine's contract is *behavioural transparency*: with the cache
enabled it must produce results byte-identical to the uncached
algorithms, across benchmarks, bounds, and schedulers — while doing
strictly less scheduling work.
"""

import random
from dataclasses import dataclass

import pytest

from repro.bench import diffeq, ewf, fir16
from repro.dfg import DFGBuilder, layered_dag, random_dag
from repro.errors import ReproError
from repro.hls.metrics import AREA_MODELS, total_area
from repro.library import ResourceLibrary, ResourceVersion, paper_library
from repro.core import EvaluationEngine, find_design, sweep_bounds


@pytest.fixture(scope="module")
def lib():
    return paper_library()


def result_fingerprint(result):
    """Every observable field of a DesignResult, comparably encoded."""
    return {
        "allocation": {op: v.name for op, v in result.allocation.items()},
        "starts": dict(result.schedule.starts),
        "delays": dict(result.schedule.delays),
        "instances": [(i.name, i.version.name, i.ops)
                      for i in result.binding.instances],
        "op_to_instance": dict(result.binding.op_to_instance),
        "copies": dict(result.instance_copies),
        "latency": result.latency,
        "area": result.area,
        "reliability": result.reliability,
    }


BOUND_GRID = [
    (fir16, 10, 9),
    (fir16, 11, 11),
    (fir16, 12, 8),
    (ewf, 14, 9),
    (ewf, 16, 11),
    (diffeq, 5, 12),
    (diffeq, 6, 11),
]


class TestEngineTransparency:
    @pytest.mark.parametrize("make,latency_bound,area_bound", BOUND_GRID,
                             ids=lambda v: getattr(v, "__name__", str(v)))
    def test_cache_on_equals_cache_off(self, lib, make, latency_bound,
                                       area_bound):
        cached = find_design(make(), lib, latency_bound, area_bound,
                             engine=EvaluationEngine())
        reference = find_design(make(), lib, latency_bound, area_bound,
                                engine=EvaluationEngine(cache=False))
        assert result_fingerprint(cached) == result_fingerprint(reference)

    def test_shared_engine_across_sweep_matches_cold_engines(self, lib):
        shared = EvaluationEngine()
        warm = sweep_bounds(fir16(), lib, [10, 11], [8, 9], engine=shared)
        cold = [find_design(fir16(), lib, lb, ab,
                            engine=EvaluationEngine(cache=False))
                for lb in (10, 11) for ab in (8, 9)]
        for point, reference in zip(warm, cold):
            assert result_fingerprint(point.result) == \
                result_fingerprint(reference)

    def test_evaluate_matches_all_schedulers(self, lib):
        graph = diffeq()
        allocation = {op.op_id: lib.fastest_smallest(op.rtype)
                      for op in graph}
        for scheduler in ("auto", "density", "list"):
            on = EvaluationEngine()
            off = EvaluationEngine(cache=False)
            # evaluate twice on the warm engine: the second answer must
            # come from the memo and still equal the reference
            first = on.evaluate(graph, allocation, 7, scheduler=scheduler)
            again = on.evaluate(graph, allocation, 7, scheduler=scheduler)
            reference = off.evaluate(graph, allocation, 7,
                                     scheduler=scheduler)
            assert on.stats.hits == 1
            assert again is first
            assert first.area == reference.area
            assert first.latency == reference.latency
            assert first.schedule.starts == reference.schedule.starts
            assert first.binding.op_to_instance == \
                reference.binding.op_to_instance


class TestCacheBehaviour:
    def test_find_design_populates_and_hits_the_cache(self, lib):
        engine = EvaluationEngine()
        find_design(fir16(), lib, 10, 9, engine=engine)
        stats = engine.stats
        assert stats.requests > 0
        # within one search, dominance pruning now skips the duplicate
        # evaluations that used to produce memo hits — but the caches
        # must be populated: a second identical search answers from them
        assert stats.list_probe_hits > 0
        assert stats.timing_hits > 0
        requests_first = stats.requests
        find_design(fir16(), lib, 10, 9, engine=engine)
        assert stats.hits > 0
        assert stats.hit_rate > 0.1
        assert stats.requests <= 2 * requests_first
        # caching must strictly reduce scheduler executions: even two
        # cached searches run fewer schedules than one uncached search
        reference = EvaluationEngine(cache=False)
        find_design(fir16(), lib, 10, 9, engine=reference)
        assert stats.schedules_run < reference.stats.schedules_run

    def test_table2_grid_sweep_matches_uncached(self, lib):
        """diffeq's full Table 2 grid through one warm engine and
        through an uncached one: the same designs, fewer schedules."""
        from repro.experiments import paper_data

        grid = paper_data.table2_grid("diffeq")
        latencies = sorted({latency for latency, _ in grid})
        areas = sorted({area for _, area in grid})
        warm, cold = EvaluationEngine(), EvaluationEngine(cache=False)
        designs = [[(p.latency_bound, p.area_bound,
                     p.result and result_fingerprint(p.result))
                    for p in sweep_bounds(diffeq(), lib, latencies, areas,
                                          engine=engine)]
                   for engine in (warm, cold)]
        assert designs[0] == designs[1]
        assert any(design[2] for design in designs[1])
        assert warm.stats.hits > 0
        assert warm.stats.schedules_run < cold.stats.schedules_run

    def test_bound_aware_density_reuse(self, lib):
        graph = fir16()
        allocation = {op.op_id: lib.fastest_smallest(op.rtype)
                      for op in graph}
        engine = EvaluationEngine(scheduler="density")
        loose = engine.evaluate(graph, allocation, 14)
        schedules_after_loose = engine.stats.density_schedules
        tight = engine.evaluate(graph, allocation, 11)
        # the tighter scan is a prefix of the looser one: every density
        # point is served from the cache, no new schedules run
        assert engine.stats.density_schedules == schedules_after_loose
        reference = EvaluationEngine(cache=False, scheduler="density")
        expected = reference.evaluate(graph, allocation, 11)
        assert tight.area == expected.area
        assert tight.latency == expected.latency
        assert loose.area <= tight.area

    def test_loose_bound_scan_prunes_latencies(self, lib):
        graph = fir16()
        allocation = {op.op_id: lib.fastest_smallest(op.rtype)
                      for op in graph}
        engine = EvaluationEngine()
        critical = engine.min_latency(graph, allocation)
        bound = 3 * critical
        result = engine.evaluate(graph, allocation, bound)
        stats = engine.stats
        # every latency of [critical, bound] is either visited or pruned
        assert stats.density_pruned > 0
        assert stats.density_points + stats.density_pruned \
            == bound - critical + 1
        assert stats.as_dict()["density_pruned"] == stats.density_pruned
        assert f"pruned {stats.density_pruned}" in stats.as_text()
        reference = EvaluationEngine(cache=False).evaluate(
            graph, allocation, bound)
        assert (result.area, result.latency) == \
            (reference.area, reference.latency)

    def test_uncached_engine_stores_nothing(self, lib):
        # a density scan binds only its winner; an uncached engine must
        # not keep that winner, and still lands on the cached design
        graph = random_dag(24, seed=1)
        uncached = EvaluationEngine(cache=False)
        result = find_design(graph, lib, 20, 20, engine=uncached)
        assert uncached.cache_size() == 0
        cached = find_design(graph, lib, 20, 20, engine=EvaluationEngine())
        assert result_fingerprint(result) == result_fingerprint(cached)

    def test_content_addressed_graph_identity(self, lib):
        # rebuilding the same benchmark must hit the cache built by the
        # first object
        engine = EvaluationEngine()
        allocation_of = lambda g: {op.op_id: lib.fastest_smallest(op.rtype)
                                   for op in g}
        first = fir16()
        second = fir16()
        assert first is not second
        engine.evaluate(first, allocation_of(first), 10)
        before = engine.stats.schedules_run
        engine.evaluate(second, allocation_of(second), 10)
        assert engine.stats.hits == 1
        assert engine.stats.schedules_run == before

    def test_same_version_names_from_other_library_do_not_alias(self):
        # two libraries reusing a version name with different numbers
        # must not share cache entries
        graph = DFGBuilder("alias")
        a = graph.adder(op_id="+a")
        graph.adder(deps=[a], op_id="+b")
        graph = graph.build()

        def library_with(delay):
            return ResourceLibrary([
                ResourceVersion("add", "adder1", area=1, delay=delay,
                                reliability=0.99),
            ])

        engine = EvaluationEngine()
        slow = library_with(2)
        fast = library_with(1)
        first = engine.evaluate(
            graph, {op.op_id: slow.version("adder1") for op in graph}, 6)
        second = engine.evaluate(
            graph, {op.op_id: fast.version("adder1") for op in graph}, 6)
        assert first.latency == 4
        assert second.latency == 2
        assert engine.stats.hits == 0

    def test_in_place_graph_mutation_invalidates_the_record(self, lib):
        # adding an edge keeps the op count but changes the structure;
        # the engine must notice and not serve stale timings
        builder = DFGBuilder("mutating")
        builder.adder(op_id="+x")
        builder.adder(op_id="+y")
        graph = builder.build()
        allocation = {op.op_id: lib.version("adder1") for op in graph}
        engine = EvaluationEngine()
        assert engine.min_latency(graph, allocation) == 2  # parallel
        graph.add_edge("+x", "+y")
        assert engine.min_latency(graph, allocation) == 4  # now a chain

    def test_clear_and_eviction(self, lib):
        # a full layer is cleared alone: a tiny budget keeps every layer
        # at its (1-entry) bound, and evicted entries are simply
        # recomputed
        engine = EvaluationEngine(max_entries=1)
        graph = diffeq()
        allocation = {op.op_id: lib.fastest_smallest(op.rtype)
                      for op in graph}
        first = engine.evaluate(graph, allocation, 7)
        assert engine.stats.evictions > 0
        for name, size in engine.layer_sizes().items():
            assert size <= 1, name
        # and a post-eviction evaluation still answers correctly
        second = engine.evaluate(graph, allocation, 7)
        assert second.area == first.area
        assert second.schedule.starts == first.schedule.starts
        # clear() still empties everything on demand
        engine.clear()
        assert engine.cache_size() == 0

    def test_rejects_unknown_scheduler_and_area_model(self, lib):
        graph = diffeq()
        allocation = {op.op_id: lib.fastest_smallest(op.rtype)
                      for op in graph}
        engine = EvaluationEngine()
        with pytest.raises(ReproError):
            engine.evaluate(graph, allocation, 7, scheduler="magic")
        with pytest.raises(ReproError):
            EvaluationEngine(scheduler="magic")
        with pytest.raises(ReproError):
            engine.evaluate(graph, allocation, 7, area_model="magic")

    @pytest.mark.parametrize("cache", [True, False])
    def test_unknown_area_model_fails_before_any_work(self, lib, cache):
        graph = diffeq()
        allocation = {op.op_id: lib.fastest_smallest(op.rtype)
                      for op in graph}
        engine = EvaluationEngine(cache=cache)
        with pytest.raises(ReproError, match="area model"):
            engine.evaluate(graph, allocation, 7, area_model="bogus")
        stats = engine.stats
        assert stats.density_schedules == stats.list_schedules \
            == stats.bindings == 0


class TestListTieBreak:
    """The count-increment loop breaks probe ties by
    ``(latency, unit area, version name)`` — deterministically."""

    @staticmethod
    def _symmetric_case():
        """Two mirror-image subgraphs whose versions tie on delay and
        area: the first increment must go to the alphabetically
        smaller version name."""
        builder = DFGBuilder("tie")
        source_a = builder.adder(op_id="sa")
        for index in range(3):
            builder.adder(deps=[source_a], op_id=f"a{index}")
        source_b = builder.mul(op_id="sb")
        for index in range(3):
            builder.mul(deps=[source_b], op_id=f"b{index}")
        graph = builder.build()
        library = ResourceLibrary([
            ResourceVersion("add", "va", area=2, delay=1, reliability=0.99),
            ResourceVersion("mul", "vb", area=2, delay=1, reliability=0.99),
        ])
        allocation = {op.op_id: library.version("va" if op.rtype == "add"
                                                else "vb")
                      for op in graph}
        return graph, allocation

    def test_first_increment_goes_to_smaller_name(self):
        graph, allocation = self._symmetric_case()

        class RecordingEngine(EvaluationEngine):
            def __init__(self):
                super().__init__()
                self.probed = []

            def _list_probe(self, graph, record, signature, allocation,
                            counts, *args, **kwargs):
                self.probed.append(dict(counts))
                return super()._list_probe(graph, record, signature,
                                           allocation, counts, *args,
                                           **kwargs)

        engine = RecordingEngine()
        evaluation = engine.evaluate(graph, allocation, 2, scheduler="list")
        assert evaluation is not None
        # both sides are equally over-subscribed (probing either side
        # leaves latency 3 > bound 2) and tie on unit area, so the
        # first increment lands on 'va' < 'vb'
        increments = [counts for counts in engine.probed
                      if sum(counts.values()) == 5]
        assert increments[-1] == {"va": 3, "vb": 2}
        assert evaluation.binding.instance_counts() == {"va": 3, "vb": 3}

    def test_allocation_order_does_not_matter(self):
        graph, allocation = self._symmetric_case()
        forward = dict(sorted(allocation.items()))
        backward = dict(sorted(allocation.items(), reverse=True))
        assert list(forward) != list(backward)
        results = [
            EvaluationEngine().evaluate(graph, order, 2, scheduler="list")
            for order in (forward, backward)
        ]
        assert results[0].schedule.starts == results[1].schedule.starts
        assert results[0].binding.op_to_instance == \
            results[1].binding.op_to_instance
        engine = EvaluationEngine()
        assert engine.allocation_key(graph, forward) == \
            engine.allocation_key(graph, backward)


def evaluation_fingerprint(evaluation):
    """Every observable field of an Evaluation, in dict order too."""
    if evaluation is None:
        return None
    return {
        "starts": list(evaluation.schedule.starts.items()),
        "delays": list(evaluation.schedule.delays.items()),
        "instances": [(i.name, i.version.name, i.ops)
                      for i in evaluation.binding.instances],
        "latency": evaluation.latency,
        "area": evaluation.area,
    }


@dataclass(frozen=True)
class BareVersion:
    """The fields the engine reads from a version, without
    :class:`ResourceVersion`'s positive-delay check, so an operation
    can have zero delay."""

    name: str
    area: int
    delay: int
    reliability: float = 0.99


def zero_delay_case():
    """A graph whose operation ``x`` takes zero cycles: its empty busy
    interval leaves the lane-count area unanswered."""
    builder = DFGBuilder("zero")
    x = builder.adder(op_id="x")
    y = builder.adder(op_id="y")
    z = builder.mul(deps=[x, y], op_id="z")
    builder.adder(deps=[z], op_id="w")
    builder.mul(deps=[x], op_id="u")
    graph = builder.build()
    add, mul = BareVersion("add", 2, 1), BareVersion("mul", 4, 2)
    allocation = {"x": BareVersion("wire", 1, 0), "y": add, "z": mul,
                  "w": add, "u": mul}
    return graph, allocation


class TestOneBindingPerRealization:
    """A realization binds only the list-vs-density winner (density
    wins ties), and the cached engine's winner is the uncached
    oracle's."""

    SCHEDULERS = ("auto", "density", "list")
    GRAPHS = [random_dag(6 + seed % 9, seed=seed) if seed % 2
              else layered_dag(2 + seed % 3, 2 + seed % 4, seed=seed)
              for seed in range(10)]

    @staticmethod
    def requests(graph, seed):
        """Distinct seeded allocations of *graph*, each with one bound
        between its critical path and a loose ``critical + |V|``, plus
        the smallest-version allocation at the loose bound."""
        library = paper_library()
        rng = random.Random(seed)
        engine = EvaluationEngine()
        requests, keys = [], set()
        for _ in range(5):
            allocation = {op.op_id: rng.choice(library.versions_of(op.rtype))
                          for op in graph}
            key = engine.allocation_key(graph, allocation)
            if key not in keys:
                keys.add(key)
                slack = rng.choice((0, 1, 3, len(graph)))
                requests.append(
                    (allocation,
                     engine.min_latency(graph, allocation) + slack))
        smallest = {op.op_id: library.smallest(op.rtype) for op in graph}
        if engine.allocation_key(graph, smallest) not in keys:
            requests.append(
                (smallest,
                 engine.min_latency(graph, smallest) + len(graph)))
        return requests

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    @pytest.mark.parametrize("area_model", AREA_MODELS)
    def test_one_binding_per_realization(self, area_model, scheduler):
        for index, graph in enumerate(self.GRAPHS):
            requests = self.requests(graph, index)
            cached = EvaluationEngine(scheduler=scheduler)
            reference = EvaluationEngine(scheduler=scheduler, cache=False)
            realized = 0
            for allocation, bound in requests:
                got = cached.evaluate(graph, allocation, bound, area_model)
                assert evaluation_fingerprint(got) == evaluation_fingerprint(
                    reference.evaluate(graph, allocation, bound,
                                       area_model)), graph.name
                realized += got is not None
            for allocation, bound in requests:  # memo hits bind nothing
                cached.evaluate(graph, allocation, bound, area_model)
            assert cached.stats.hits == len(requests)
            assert cached.stats.bindings == realized, graph.name

    # layered_dag(4, 3, seed=117) under its smallest versions, critical
    # path 8: list 6 vs density 6 at 10, list 4 vs density 6 at 14,
    # list 4 vs density 3 at 16 (instance model)
    @pytest.mark.parametrize("bound,winner", [(10, "density"),
                                              (14, "list"),
                                              (16, "density")],
                             ids=["exact-tie", "list-wins", "density-wins"])
    def test_auto_binds_only_the_winner(self, bound, winner):
        library = paper_library()
        graph = layered_dag(4, 3, seed=117)
        smallest = {op.op_id: library.smallest(op.rtype) for op in graph}
        sides = {scheduler: EvaluationEngine(scheduler=scheduler).evaluate(
                     graph, smallest, bound)
                 for scheduler in ("list", "density")}
        loser = "list" if winner == "density" else "density"
        assert sides[winner].area <= sides[loser].area
        assert (sides[winner].area == sides[loser].area) == \
            (bound == 10)
        # the two sides are different designs, so the pick is visible
        assert sides[winner].schedule.starts != sides[loser].schedule.starts
        for cache in (True, False):
            engine = EvaluationEngine(cache=cache)
            got = engine.evaluate(graph, smallest, bound)
            assert evaluation_fingerprint(got) == \
                evaluation_fingerprint(sides[winner])
            assert engine.stats.bindings == 1

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    @pytest.mark.parametrize("area_model", AREA_MODELS)
    def test_zero_delay_op_matches_the_reference(self, area_model,
                                                  scheduler):
        graph, allocation = zero_delay_case()
        for slack in (0, 1, 3):
            cached = EvaluationEngine(scheduler=scheduler)
            reference = EvaluationEngine(scheduler=scheduler, cache=False)
            bound = cached.min_latency(graph, allocation) + slack
            got = cached.evaluate(graph, allocation, bound, area_model)
            assert got is not None
            assert evaluation_fingerprint(got) == evaluation_fingerprint(
                reference.evaluate(graph, allocation, bound, area_model))
            assert got.area == total_area(got.binding, area_model)


def same_delay_pools(seed):
    """``random_dag(16 + seed % 10, seed)`` with every op on a delay-1
    version, twice: once in one pool per resource type, and once with
    a seeded half of the adders moved to another delay-1 adder."""
    library = paper_library()
    versions = {v.name: v for rtype in ("add", "mul")
                for v in library.versions_of(rtype)}
    graph = random_dag(16 + seed % 10, seed=seed)
    rng = random.Random(seed)
    pooled = {op.op_id: versions["adder2" if op.rtype == "add" else "mult2"]
              for op in graph}
    split = {op.op_id: (versions["adder3"] if rng.random() < 0.5
                        else versions["adder2"])
             if op.rtype == "add" else versions["mult2"]
             for op in graph}
    return graph, pooled, split


def prefixes(engine):
    """Keys of the placement prefixes of stopped density solves."""
    return {key for key, value in engine._schedules.items()
            if type(value) is dict}


class TestCappedSolves:
    """A cached engine stops a density solve once its pinned lanes
    exceed the scan's cap, and keeps the placement prefix for the next
    allocation with the same delays."""

    # seed 37: the split pools' cap is tight enough that the stored
    # prefix answers them; seed 5: it fits the prefix, so they re-solve
    @pytest.mark.parametrize("seed,replayed", [(37, True), (5, False)],
                             ids=["tighter-cap-replays", "looser-cap-solves"])
    def test_a_stored_prefix_serves_other_pools(self, seed, replayed):
        graph, pooled, split = same_delay_pools(seed)
        engine = EvaluationEngine()
        bound = engine.min_latency(graph, pooled) + 2
        reference = EvaluationEngine(cache=False)
        got = engine.evaluate(graph, pooled, bound)
        stopped = prefixes(engine)
        assert stopped and engine.stats.density_aborts == len(stopped)
        solves = engine.stats.density_schedules
        reuses = engine.stats.schedule_reuses
        assert evaluation_fingerprint(got) == evaluation_fingerprint(
            reference.evaluate(graph, pooled, bound))

        got = engine.evaluate(graph, split, bound)
        assert evaluation_fingerprint(got) == evaluation_fingerprint(
            reference.evaluate(graph, split, bound))
        if replayed:
            assert engine.stats.density_schedules == solves
            assert engine.stats.schedule_reuses == reuses + len(stopped)
            assert prefixes(engine) == stopped
        else:
            assert engine.stats.density_schedules > solves
            assert not stopped <= prefixes(engine)

    def test_no_cap_without_an_instance_area(self, lib):
        graph, pooled, _ = same_delay_pools(37)
        bound = EvaluationEngine().min_latency(graph, pooled) + 2
        for engine, area_model in ((EvaluationEngine(), "versions"),
                                   (EvaluationEngine(cache=False),
                                    "instances")):
            engine.evaluate(graph, pooled, bound, area_model)
            assert engine.stats.density_schedules > 0
            assert engine.stats.density_aborts == 0

    def test_an_uncapped_request_completes_a_prefix(self):
        graph, pooled, _ = same_delay_pools(37)
        engine = EvaluationEngine()
        bound = engine.min_latency(graph, pooled)
        engine.evaluate(graph, pooled, bound)
        (key,) = prefixes(engine)
        assert key[2] == bound
        solves = engine.stats.density_schedules
        # under "density" no list area caps the scan, so its first
        # point, the prefix's latency, is solved in full
        got = engine.evaluate(graph, pooled, bound, scheduler="density")
        assert engine.stats.density_schedules == solves + 1
        assert not prefixes(engine)
        assert engine._schedules[key] is not None
        assert evaluation_fingerprint(got) == evaluation_fingerprint(
            EvaluationEngine(cache=False).evaluate(graph, pooled, bound,
                                                   scheduler="density"))

    def test_snapshots_leave_prefixes_out(self):
        from repro.core import cache_store, merge_snapshot, snapshot_engine

        graph, pooled, split = same_delay_pools(37)
        donor = EvaluationEngine()
        bound = donor.min_latency(graph, pooled) + 2
        donor.evaluate(graph, pooled, bound)
        assert prefixes(donor)
        snapshot = cache_store.loads(cache_store.dumps(
            snapshot_engine(donor)))
        assert not any(type(value) is dict
                       for value in snapshot.layers["schedules"].values())
        reloaded = EvaluationEngine()
        merge_snapshot(reloaded, snapshot)
        assert evaluation_fingerprint(
            reloaded.evaluate(graph, split, bound)) == \
            evaluation_fingerprint(EvaluationEngine(cache=False).evaluate(
                graph, split, bound))

    # ten 20-40-op searches, half of them infeasible; an uncached
    # engine runs each in ~0.1-1.3 s
    SEARCHES = [
        (random_dag, (20,), 0, 11, 12),
        (layered_dag, (5, 4), 1, 11, 10),
        (random_dag, (24,), 2, 5, 3),
        (layered_dag, (4, 6), 3, 9, 10),
        (random_dag, (28,), 4, 12, 8),
        (layered_dag, (6, 5), 5, 8, 5),
        (random_dag, (32,), 6, 16, 12),
        (random_dag, (36,), 8, 6, 5),
        (layered_dag, (4, 9), 9, 9, 10),
        (random_dag, (40,), 10, 10, 8),
    ]

    @staticmethod
    def search(graph, latency_bound, area_bound, engine):
        from repro.errors import NoSolutionError

        try:
            return result_fingerprint(find_design(
                graph, paper_library(), latency_bound, area_bound,
                engine=engine))
        except NoSolutionError as exc:
            return (str(exc), exc.latency, exc.area)

    @pytest.mark.parametrize("make,shape,seed,latency_bound,area_bound",
                             SEARCHES, ids=lambda v: getattr(v, "__name__",
                                                             str(v)))
    def test_find_design_equals_the_uncached_engine(
            self, make, shape, seed, latency_bound, area_bound):
        graph = make(*shape, seed=seed)
        cached, uncached = EvaluationEngine(), EvaluationEngine(cache=False)
        got = self.search(graph, latency_bound, area_bound, cached)
        assert got == self.search(graph, latency_bound, area_bound,
                                  uncached)
        assert cached.stats.density_aborts > 0
        assert uncached.stats.density_aborts == 0
        if isinstance(got, tuple):  # an infeasible search binds nothing
            assert cached.stats.bindings == uncached.stats.bindings == 0


class TestListFixpoint:
    """The cached list greedy stops at its fixpoint: a realization is
    refused once the chosen pool waited in none of the round's runs,
    and a trial on a pool that never waited takes the base latency
    without a run.  The uncached engine runs the full loop."""

    @staticmethod
    def tight_cases():
        """Random allocations at the critical path and one above."""
        for seed in range(12):
            graph = random_dag(30, seed=seed)
            rng = random.Random(seed)
            allocation = {op.op_id: rng.choice(paper_library().versions_of(
                op.rtype)) for op in graph}
            critical = EvaluationEngine().min_latency(graph, allocation)
            for bound in (critical, critical + 1):
                yield graph, allocation, bound

    @pytest.mark.parametrize("scheduler", ["list", "auto"])
    def test_cached_equals_uncached_at_tight_bounds(self, scheduler):
        cached, uncached = EvaluationEngine(), EvaluationEngine(cache=False)
        for graph, allocation, bound in self.tight_cases():
            got = cached.evaluate(graph, allocation, bound,
                                  scheduler=scheduler)
            expected = uncached.evaluate(graph, allocation, bound,
                                         scheduler=scheduler)
            assert (got is None) == (expected is None)
            if got is not None:
                assert got.schedule.starts == expected.schedule.starts
                assert (got.latency, got.area) == \
                    (expected.latency, expected.area)
                assert got.binding.op_to_instance == \
                    expected.binding.op_to_instance
        assert cached.stats.list_fixpoints > 0
        assert cached.stats.list_skips > 0
        assert cached.stats.list_rounds < uncached.stats.list_rounds
        assert uncached.stats.list_fixpoints == \
            uncached.stats.list_skips == 0
        assert 0 < cached.stats.list_runs_peak < \
            uncached.stats.list_runs_peak

    def test_counters_reach_the_reports(self):
        engine = EvaluationEngine()
        for graph, allocation, bound in self.tight_cases():
            engine.evaluate(graph, allocation, bound, scheduler="list")
        report = engine.stats.as_dict()
        for name in ("list_rounds", "list_fixpoints", "list_skips",
                     "list_runs_peak"):
            assert report[name] == getattr(engine.stats, name) > 0
        assert f"fixpoint refusals {engine.stats.list_fixpoints}" in \
            engine.stats.as_text()
        engine.stats.reset()
        assert engine.stats.list_runs_peak == 0

    def test_wide_dag_at_tight_latency_counts(self):
        engine = EvaluationEngine()
        result = find_design(random_dag(200, seed=1), paper_library(), 10,
                             100, engine=engine)
        assert (result.latency, result.area,
                round(result.reliability, 6)) == (10, 70, 0.761391)
        # the full greedy ran 11,558 list schedules here
        assert engine.stats.list_schedules <= 1_500


class TestBindOnRead:
    """An evaluation is bound the first time its binding is read, and
    only then."""

    def test_a_returned_design_is_the_left_edge_binding(self, lib):
        from repro.hls.binding import left_edge_bind

        engine = EvaluationEngine()
        result = find_design(fir16(), lib, 10, 9, engine=engine)
        expected = left_edge_bind(result.schedule, result.allocation)
        assert result.binding.instances == expected.instances
        assert result.binding.op_to_instance == expected.op_to_instance
        # one binding per incumbent, far fewer than realizations
        assert 0 < engine.stats.bindings < engine.stats.requests

    def test_an_infeasible_search_binds_nothing(self, lib):
        from repro.errors import NoSolutionError

        engine = EvaluationEngine()
        with pytest.raises(NoSolutionError):
            find_design(fir16(), lib, 8, 4, engine=engine)
        assert engine.stats.requests > 0
        assert engine.stats.bindings == 0

    def test_binds_once_and_keeps_it(self, lib):
        graph = fir16()
        allocation = {op.op_id: lib.smallest(op.rtype) for op in graph}
        engine = EvaluationEngine()
        bound = engine.min_latency(graph, allocation) + 2
        evaluation = engine.evaluate(graph, allocation, bound)
        assert engine.stats.bindings == 0
        binding = evaluation.binding
        assert evaluation.binding is binding
        assert engine.evaluate(graph, allocation, bound).binding is binding
        assert engine.stats.bindings == 1

    def test_an_unbound_evaluation_survives_a_snapshot(self, lib):
        from repro.core import cache_store, merge_snapshot, snapshot_engine
        from repro.hls.binding import left_edge_bind

        graph = fir16()
        allocation = {op.op_id: lib.smallest(op.rtype) for op in graph}
        donor = EvaluationEngine()
        bound = donor.min_latency(graph, allocation) + 2
        donor.evaluate(graph, allocation, bound)
        reloaded = EvaluationEngine()
        merge_snapshot(reloaded, cache_store.loads(cache_store.dumps(
            snapshot_engine(donor))))
        evaluation = reloaded.evaluate(graph, allocation, bound)
        assert reloaded.stats.hits == 1
        assert "binding" not in vars(evaluation)
        expected = left_edge_bind(evaluation.schedule, allocation)
        assert evaluation.binding.instances == expected.instances
        assert evaluation.binding.op_to_instance == expected.op_to_instance
        assert (donor.stats.bindings, reloaded.stats.bindings) == (0, 1)


class TestParallelSweep:
    def test_workers_match_serial(self, lib):
        serial = sweep_bounds(fir16(), lib, [10, 11], [8, 9],
                              engine=EvaluationEngine())
        parallel = sweep_bounds(fir16(), lib, [10, 11], [8, 9], workers=2)
        assert len(serial) == len(parallel)
        for a, b in zip(serial, parallel):
            assert (a.latency_bound, a.area_bound) == \
                (b.latency_bound, b.area_bound)
            assert result_fingerprint(a.result) == result_fingerprint(b.result)

    @pytest.mark.parametrize("scheduler", ["list", "density"])
    def test_workers_use_the_engine_settings(self, lib, scheduler):
        # the workers build their own engines, but from the sweep
        # engine's settings: a non-default scheduler reaches them
        def sweep(**kwargs):
            return [result_fingerprint(p.result) for p in sweep_bounds(
                fir16(), lib, [10, 11], [8, 9],
                engine=EvaluationEngine(scheduler=scheduler), **kwargs)]

        assert sweep(workers=2) == sweep()


class TestRunTasks:
    def test_results_come_back_in_task_order(self):
        from repro.parallel import run_tasks

        tasks = [(pow, (base, 2), {}) for base in range(5)]
        assert run_tasks(tasks, workers=2) == [0, 1, 4, 9, 16]
