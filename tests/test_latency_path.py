"""The engine's latency paths against the per-horizon latency loop.

Figure 6's latency loop (lines 7-12) starts from the most reliable
allocation and speeds up one critical-path victim at a time until the
critical path fits the horizon.  :meth:`EvaluationEngine.latency_start`
walks that loop once per graph and version pools and serves every
horizon from a prefix of the stored walk.  These tests pin it to a
local copy of the loop as the search ran it before, once per horizon:
on every horizon, in both query orders, with and without caching,
across libraries that share their most reliable versions, and across
a snapshot round trip.
"""

import random

import pytest

from repro.bench import ar_lattice, diffeq, ewf, fir16
from repro.core import EvaluationEngine, cache_store, find_design
from repro.core.victims import select_latency_victim
from repro.dfg import layered_dag, random_dag
from repro.errors import NoSolutionError
from repro.hls.timing import asap_latency
from repro.library import ResourceLibrary, ResourceVersion, paper_library


def loop_start(graph, library, horizon):
    """The per-horizon latency loop, on the reference timing kernels:
    the allocation it reaches for *horizon*, or ``None``."""
    allocation = {op.op_id: library.most_reliable(op.rtype) for op in graph}
    while _critical(graph, allocation) > horizon:
        victim = select_latency_victim(graph, library, allocation)
        if victim is None:
            return None
        allocation[victim.op_id] = victim.new_version
    return allocation


def _critical(graph, allocation):
    return asap_latency(graph, {op: v.delay for op, v in allocation.items()})


def wide_library():
    """Three or four versions per type, with equal-delay pairs, so the
    victim's replacement and its tie-breaks matter."""
    return ResourceLibrary([
        ResourceVersion("add", "a1", 1, 3, 0.999),
        ResourceVersion("add", "a2", 2, 2, 0.990),
        ResourceVersion("add", "a3", 2, 2, 0.995),
        ResourceVersion("add", "a4", 3, 1, 0.970),
        ResourceVersion("mul", "m1", 2, 4, 0.999),
        ResourceVersion("mul", "m2", 3, 2, 0.980),
        ResourceVersion("mul", "m3", 5, 1, 0.950),
    ], name="wide")


def graphs():
    out = [fir16(), ewf(), diffeq(), ar_lattice()]
    for seed in range(10):
        out.append(random_dag(8 + 2 * seed, seed=seed))
        out.append(layered_dag(2 + seed % 4, 2 + seed % 3, seed=seed))
    return out


GRAPHS = graphs()
LIBRARIES = {"paper": paper_library(), "wide": wide_library()}


def horizons(graph, library):
    """Every horizon from 1 to one past the most reliable critical path."""
    start = {op.op_id: library.most_reliable(op.rtype) for op in graph}
    return range(1, _critical(graph, start) + 2)


def _outcome(graph, library, latency, area, engine):
    try:
        design = find_design(graph, library, latency, area, engine=engine)
    except NoSolutionError as exc:
        return (exc.latency, exc.area)
    return (design.allocation, design.reliability, design.area)


def stored_paths(engine):
    return list(engine._layers["paths"].items())


@pytest.mark.parametrize("lib_name", sorted(LIBRARIES))
@pytest.mark.parametrize("graph", GRAPHS, ids=lambda g: g.name)
def test_every_horizon_matches_the_loop_in_both_orders(graph, lib_name):
    library = LIBRARIES[lib_name]
    spans = list(horizons(graph, library))
    expected = {h: loop_start(graph, library, h) for h in spans}
    loose_first = EvaluationEngine()
    tight_first = EvaluationEngine()
    for horizon in reversed(spans):
        assert loose_first.latency_start(graph, library, horizon) == \
            expected[horizon]
    for horizon in spans:
        assert tight_first.latency_start(graph, library, horizon) == \
            expected[horizon]
    assert stored_paths(loose_first) == stored_paths(tight_first)
    assert len(stored_paths(tight_first)) == 1
    # tight first walks once; every later horizon is a stored prefix
    assert tight_first.stats.path_hits == len(spans) - 1
    assert tight_first.stats.path_requests == len(spans)


@pytest.mark.parametrize("graph", GRAPHS[:4], ids=lambda g: g.name)
def test_path_is_walked_no_further_than_asked(graph):
    library = paper_library()
    spans = list(horizons(graph, library))
    engine = EvaluationEngine()
    for horizon in reversed(spans):
        engine.latency_start(graph, library, horizon)
        [(_, (start, steps, complete))] = stored_paths(engine)
        criticals = [start] + [after for _, _, after in steps]
        # every stored critical path but the last exceeds the tightest
        # horizon asked so far; the last fits it, or no victim was left
        assert all(c > horizon for c in criticals[:-1])
        assert criticals[-1] <= horizon or complete
        assert complete == (loop_start(graph, library, horizon) is None)


def test_cache_disabled_engine_walks_every_call_and_stores_nothing():
    graph, library = fir16(), paper_library()
    tight = min(horizons(graph, library))
    engine = EvaluationEngine(cache=False)
    first = engine.latency_start(graph, library, tight)
    steps = engine.stats.path_steps
    assert steps > 0
    assert engine.latency_start(graph, library, tight) == first
    assert engine.stats.path_steps == 2 * steps
    assert engine.stats.path_hits == 0
    assert engine.layer_sizes()["paths"] == 0
    assert stored_paths(engine) == []


def test_libraries_sharing_their_most_reliable_versions_get_own_paths():
    graph = fir16()
    full = paper_library()
    # same most reliable versions, but no Kogge-Stone adder to speed up to
    narrow = full.restricted_to(["adder1", "adder2", "mult1", "mult2"])
    for rtype in full.rtypes():
        assert full.most_reliable(rtype) == narrow.most_reliable(rtype)
    tight = _critical(graph, {op.op_id: full.fastest(op.rtype)
                              for op in graph})
    engine = EvaluationEngine()
    wide_start = engine.latency_start(graph, full, tight)
    narrow_start = engine.latency_start(graph, narrow, tight)
    assert wide_start == loop_start(graph, full, tight)
    assert narrow_start == loop_start(graph, narrow, tight)
    assert wide_start != narrow_start
    assert len(stored_paths(engine)) == 2


def test_search_without_latency_sweep_walks_only_to_the_bound():
    graph, library = ewf(), paper_library()
    engine = EvaluationEngine()
    bound = max(horizons(graph, library)) - 3
    result = find_design(graph, library, bound, 12, latency_sweep=False,
                         engine=engine)
    oracle = find_design(graph, library, bound, 12, latency_sweep=False,
                         engine=EvaluationEngine(cache=False))
    assert result.allocation == oracle.allocation
    assert result.reliability == oracle.reliability
    assert engine.stats.path_requests == 1
    [(_, (start, steps, complete))] = stored_paths(engine)
    assert not complete
    assert steps[-1][2] <= bound
    assert all(after > bound for _, _, after in steps[:-1])


def test_snapshot_round_trip_carries_the_paths():
    graph, library = fir16(), paper_library()
    donor = EvaluationEngine()
    warm = find_design(graph, library, 11, 8, engine=donor)
    assert donor.stats.path_steps > 0
    snapshot = cache_store.loads(cache_store.dumps(
        cache_store.snapshot_engine(donor)))
    assert list(snapshot.layers["paths"].items()) == stored_paths(donor)
    receiver = EvaluationEngine()
    cache_store.merge_snapshot(receiver, snapshot)
    assert stored_paths(receiver) == stored_paths(donor)
    merged = find_design(fir16(), paper_library(), 11, 8, engine=receiver)
    assert merged.allocation == warm.allocation
    assert merged.reliability == warm.reliability
    assert receiver.stats.path_steps == 0
    assert receiver.stats.path_hits == receiver.stats.path_requests > 0


def test_path_counters_are_reported():
    engine = EvaluationEngine()
    find_design(diffeq(), paper_library(), 6, 11, engine=engine)
    stats = engine.stats
    assert stats.path_requests > stats.path_hits > 0
    report = stats.as_dict()
    for name in ("path_requests", "path_hits", "path_steps"):
        assert report[name] == getattr(stats, name)
    assert (f"latency paths         : {stats.path_requests} "
            f"(hits {stats.path_hits}, victim steps {stats.path_steps})"
            ) in stats.as_text()


def test_searches_share_one_walk_per_graph_and_library():
    graph, library = diffeq(), paper_library()
    engine = EvaluationEngine()
    reference = EvaluationEngine(cache=False)
    rng = random.Random(7)
    bounds = [(rng.randint(4, 9), rng.randint(6, 14)) for _ in range(6)]
    for latency, area in bounds:
        got, want = (_outcome(graph, library, latency, area, e)
                     for e in (engine, reference))
        assert got == want
    # one walk: every stored step (and the final victim-less selection
    # of a complete path) was selected exactly once across the searches
    [(_, (_, steps, complete))] = stored_paths(engine)
    assert engine.stats.path_steps == len(steps) + complete
    assert engine.stats.path_requests > engine.stats.path_hits > 0
