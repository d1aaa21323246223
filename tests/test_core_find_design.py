"""Unit and reproduction tests for repro.core.find_design."""

import random

import pytest

from repro.bench import diffeq, ewf, fir16
from repro.dfg import DFGBuilder, layered_dag, random_dag
from repro.errors import NoSolutionError, ReproError
from repro.hls.metrics import AREA_INSTANCES, AREA_MODELS
from repro.library import paper_library
from repro.core import EvaluationEngine, find_design
from repro.core.evaluate import _area_lower_bound, _pool_work
from repro.core.find_design import search_achievements


@pytest.fixture(scope="module")
def lib():
    return paper_library()


def example_dfg():
    """The paper's Figure 4(a): six additions, diamond-of-diamonds."""
    b = DFGBuilder("fig4a")
    a = b.adder(op_id="+A")
    bb = b.adder(op_id="+B")
    c = b.adder(deps=[a, bb], op_id="+C")
    d = b.adder(deps=[c], op_id="+D")
    e = b.adder(deps=[c], op_id="+E")
    b.adder(deps=[d, e], op_id="+F")
    return b.build()


class TestExampleDesign:
    def test_fig5a_all_type2(self, lib):
        # At Ld=5, Ad=4 the best design uses type-2 adders throughout:
        # R = 0.969^6 = 0.82783 (paper Figure 5(a)).
        result = find_design(example_dfg(), lib, 5, 4)
        assert result.reliability == pytest.approx(0.82783, abs=5e-5)
        assert result.area <= 4
        assert result.latency <= 5

    def test_fig5b_mixed_versions_at_looser_latency(self, lib):
        # The paper's Figure 5(b) design (three ops on adder1, three on
        # adder2, R = 0.90713) requires completion-semantics latency 6;
        # see DESIGN.md §1.  Our search does at least as well (it finds
        # a four-type-1 design, R = 0.999^4 * 0.969^2 = 0.93521).
        result = find_design(example_dfg(), lib, 6, 4)
        assert result.reliability >= 0.90713 - 5e-5
        assert result.area <= 4 and result.latency <= 6

    def test_results_validate(self, lib):
        result = find_design(example_dfg(), lib, 5, 4)
        result.schedule.validate()
        result.binding.validate()


class TestFirReproduction:
    def test_paper_cell_10_9(self, lib):
        # Table 2(a), (Ld=10, Ad=9): the paper's 0.59998 exactly.
        result = find_design(fir16(), lib, 10, 9)
        assert result.reliability == pytest.approx(0.59998, abs=5e-5)

    def test_paper_cell_10_11(self, lib):
        # Table 2(a), (Ld=10, Ad=11): the paper's 0.69516 exactly.
        result = find_design(fir16(), lib, 10, 11)
        assert result.reliability == pytest.approx(0.69516, abs=5e-5)

    def test_paper_fir_design_value_appears(self, lib):
        # The paper's flagship FIR design value 0.89798
        # (0.999^16 · 0.987^7) is reached at Ld=11 within area 13
        # under instance accounting (the paper books it at 11).
        result = find_design(fir16(), lib, 11, 13)
        assert result.reliability == pytest.approx(0.89798, abs=5e-5)
        histogram = result.version_histogram()
        assert histogram == {"adder1": 8, "mult1": 8, "adder3": 7}

    def test_paper_area_model_reaches_fig7_value(self, lib):
        # Under the versions accounting the paper appears to use, the
        # Figure 7(b) reliability is met or exceeded at (11, 8).
        result = find_design(fir16(), lib, 11, 8, area_model="versions")
        assert result.reliability >= 0.78943 - 5e-5

    def test_bounds_respected(self, lib):
        for (latency_bound, area_bound) in [(10, 9), (11, 8), (12, 13)]:
            result = find_design(fir16(), lib, latency_bound, area_bound)
            assert result.latency <= latency_bound
            assert result.area <= area_bound


class TestMonotonicity:
    def test_latency_monotone_ew(self, lib):
        values = [find_design(ewf(), lib, latency, 9).reliability
                  for latency in (13, 14, 15)]
        assert values == sorted(values)

    def test_area_monotone_diffeq(self, lib):
        values = [find_design(diffeq(), lib, 6, area).reliability
                  for area in (11, 13, 15)]
        assert values == sorted(values)


class TestInfeasibility:
    def test_latency_below_floor(self, lib):
        with pytest.raises(NoSolutionError):
            find_design(fir16(), lib, 8, 100)  # critical path is 9

    def test_area_below_floor(self, lib):
        with pytest.raises(NoSolutionError):
            find_design(fir16(), lib, 100, 2)  # needs an adder and a mult

    def test_no_solution_carries_diagnostics(self, lib):
        with pytest.raises(NoSolutionError) as exc_info:
            find_design(fir16(), lib, 8, 100)
        assert exc_info.value.latency == 9

    def test_bad_bounds_rejected(self, lib):
        with pytest.raises(ReproError):
            find_design(fir16(), lib, 0, 8)
        with pytest.raises(ReproError):
            find_design(fir16(), lib, 11, -1)

    def test_bad_policy_rejected(self, lib):
        with pytest.raises(ReproError):
            find_design(fir16(), lib, 11, 8, repair="magic")


class TestAreaFloor:
    """Every used resource type costs at least its smallest version's
    area, so a bound below that sum fails before any search."""

    @pytest.mark.parametrize("area_model", AREA_MODELS)
    def test_fails_fast_with_the_search_diagnostics(self, lib, area_model):
        engine = EvaluationEngine()
        with pytest.raises(NoSolutionError) as exc_info:
            find_design(fir16(), lib, 100, 2, area_model=area_model,
                        engine=engine)
        achieved = search_achievements(fir16(), lib, 100, area_model,
                                       engine=EvaluationEngine())
        assert exc_info.value.latency == achieved["latency"]
        assert exc_info.value.area == achieved["area"]
        assert str(exc_info.value) == (
            "no design of 'fir16' meets latency <= 100 and area <= 2"
            " (area floor 3)")
        assert engine.stats.path_requests == 0  # no trajectory ran
        # the list realization meets the work bound: no density point
        assert engine.stats.density_schedules == 0

    def test_bound_at_the_floor_is_searched(self, lib):
        engine = EvaluationEngine()
        design = find_design(example_dfg(), lib, 20, 1, engine=engine)
        assert design.area == 1
        assert engine.stats.path_requests > 0

    @pytest.mark.parametrize("area_model", AREA_MODELS)
    def test_floor_bounds_every_realized_area(self, lib, area_model):
        engine = EvaluationEngine()
        rng = random.Random(5)
        for seed in range(20):
            graph = (random_dag(6 + seed, seed=seed) if seed % 2
                     else layered_dag(2 + seed % 3, 3, seed=seed))
            floor = sum(lib.smallest(rtype).area for rtype in graph.rtypes())
            for _ in range(3):
                allocation = {op.op_id: rng.choice(lib.versions_of(op.rtype))
                              for op in graph}
                bound = engine.min_latency(graph, allocation) \
                    + rng.randint(0, 4)
                evaluation = engine.evaluate(graph, allocation, bound,
                                             area_model=area_model)
                assert evaluation.area >= floor


class TestSearchAchievements:
    """The diagnostic's area is the full evaluation's, whether the list
    realization answers it alone or the density scan runs too."""

    ENGINES = [{"cache": cache, "scheduler": scheduler}
               for cache in (True, False)
               for scheduler in ("auto", "density", "list")]

    def test_area_is_the_full_evaluation(self, lib):
        graphs = [layered_dag(2 + seed % 4, 2 + seed % 3, seed=seed)
                  if seed % 2 else random_dag(5 + seed % 12, seed=seed)
                  for seed in range(24)]
        # here a density point beats the list realization
        graphs.append(layered_dag(4, 3, seed=117))
        fallbacks = beaten = 0
        for graph in graphs:
            smallest = {op.op_id: lib.smallest(op.rtype) for op in graph}
            for area_model in AREA_MODELS:
                for settings in self.ENGINES:
                    achieved = search_achievements(
                        graph, lib, 1, area_model,
                        engine=EvaluationEngine(**settings))
                    bound = achieved["latency"] + len(graph)
                    full = EvaluationEngine(**settings).evaluate(
                        graph, smallest, bound, area_model)
                    assert achieved["area"] == full.area, (graph.name,
                                                           settings)
                engine = EvaluationEngine()
                listed = engine.evaluate(graph, smallest, bound, area_model,
                                         scheduler="list")
                if listed.area > _area_lower_bound(
                        _pool_work(graph, smallest), bound, area_model):
                    fallbacks += 1
                    beaten += engine.evaluate(
                        graph, smallest, bound, area_model).area < listed.area
        # the density scan still runs, and sometimes wins
        assert fallbacks >= 1 and beaten >= 1

    def test_fallback_binds_each_design_once(self, lib):
        # the list realization is above the work bound here, so the
        # full evaluation runs after the list-only one; the diagnostic
        # reads only areas, so neither evaluation's design is bound
        graph = layered_dag(4, 3, seed=117)
        engine = EvaluationEngine()
        achieved = search_achievements(graph, lib, 1, AREA_INSTANCES,
                                       engine=engine)
        assert engine.stats.requests == 2
        assert engine.stats.bindings == 0
        assert achieved["area"] == 3


class TestPolicies:
    def test_paper_repair_policy_runs(self, lib):
        result = find_design(fir16(), lib, 11, 9, repair="paper")
        assert result.meets_bounds()

    def test_generalized_at_least_as_good_as_paper_policy(self, lib):
        ours = find_design(diffeq(), lib, 5, 11).reliability
        paper = find_design(diffeq(), lib, 5, 11, repair="paper").reliability
        assert ours >= paper - 1e-12

    def test_refine_only_improves(self, lib):
        base = find_design(ewf(), lib, 14, 9, refine=False).reliability
        refined = find_design(ewf(), lib, 14, 9, refine=True).reliability
        assert refined >= base - 1e-12

    def test_latency_sweep_only_improves(self, lib):
        single = find_design(ewf(), lib, 15, 9,
                             latency_sweep=False).reliability
        swept = find_design(ewf(), lib, 15, 9).reliability
        assert swept >= single - 1e-12

    def test_summary_and_text(self, lib):
        result = find_design(diffeq(), lib, 6, 11)
        summary = result.summary()
        assert summary["graph"] == "diffeq"
        assert 0 < summary["reliability"] < 1
        assert "reliability" in result.as_text()


class TestUniformAllocations:
    def test_is_a_lazy_generator(self, lib):
        from repro.core import uniform_allocations

        allocations = uniform_allocations(diffeq(), lib)
        assert iter(allocations) is allocations  # generator, not a list
        first = next(allocations)
        assert set(first) == {op.op_id for op in diffeq()}

    def test_enumerates_the_full_cross_product(self, lib):
        from repro.core import uniform_allocations

        graph = diffeq()  # add + mul resource types
        pools = {rtype: len(lib.versions_of(rtype))
                 for rtype in graph.rtypes()}
        expected = 1
        for size in pools.values():
            expected *= size
        combos = list(uniform_allocations(graph, lib))
        assert len(combos) == expected
        # each allocation is uniform: one version per resource type
        for allocation in combos:
            per_type = {}
            for op in graph:
                per_type.setdefault(op.rtype, set()).add(
                    allocation[op.op_id].name)
            assert all(len(names) == 1 for names in per_type.values())
