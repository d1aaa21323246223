"""Tests for the exhaustive oracle and greedy-vs-optimal quality."""

import itertools

import pytest

from repro.dfg import DFGBuilder, random_dag
from repro.errors import NoSolutionError, ReproError
from repro.library import paper_library
from repro.core import (EvaluationEngine, evaluate_allocation, find_design,
                        optimal_design)
from repro.reliability.composition import design_reliability


@pytest.fixture(scope="module")
def lib():
    return paper_library()


def small_mixed():
    b = DFGBuilder("small")
    a1 = b.adder()
    m1 = b.mul(deps=[a1])
    a2 = b.adder(deps=[m1])
    b.adder(deps=[a2])
    return b.build()


def all_allocations(graph, library):
    """Every allocation of *graph*: each op, each version of its type."""
    ops = list(graph)
    for combo in itertools.product(
            *(library.versions_of(op.rtype) for op in ops)):
        yield {op.op_id: version for op, version in zip(ops, combo)}


class TestOptimal:
    def test_small_graph_solved(self, lib):
        result = optimal_design(small_mixed(), lib, 6, 8)
        assert result.method == "optimal"
        assert result.meets_bounds()
        result.schedule.validate()
        result.binding.validate()

    def test_rejects_large_graphs(self, lib):
        from repro.bench import fir16

        with pytest.raises(ReproError):
            optimal_design(fir16(), lib, 11, 9)

    def test_infeasible(self, lib):
        with pytest.raises(NoSolutionError):
            optimal_design(small_mixed(), lib, 2, 8)

    def test_loose_bounds_give_all_most_reliable(self, lib):
        result = optimal_design(small_mixed(), lib, 20, 40)
        assert result.reliability == pytest.approx(0.999 ** 4, rel=1e-9)

    @pytest.mark.parametrize("graph,bounds", [
        (small_mixed(), (5, 8)),
        (small_mixed(), (6, 8)),
        (random_dag(6, seed=0), (8, 10)),
        (random_dag(6, seed=3), (10, 12)),
    ], ids=["small-5-8", "small-6-8", "dag0-8-10", "dag3-10-12"])
    def test_most_reliable_fit_at_its_minimum_area(self, lib, graph,
                                                   bounds):
        """The reliability is the best over every allocation whose
        minimum-area realization fits both bounds, and the design is
        that minimum-area realization of its allocation."""
        latency_bound, area_bound = bounds
        result = optimal_design(graph, lib, latency_bound, area_bound)
        engine = EvaluationEngine()
        best = 0.0
        for allocation in all_allocations(graph, lib):
            evaluation = engine.evaluate(graph, allocation, latency_bound)
            if evaluation is not None and evaluation.area <= area_bound:
                best = max(best, design_reliability(graph, allocation))
        assert result.reliability == pytest.approx(best, rel=1e-12)
        minimum = evaluate_allocation(graph, result.allocation,
                                      latency_bound,
                                      engine=EvaluationEngine(cache=False))
        assert result.area == minimum.area
        assert result.schedule.starts == minimum.schedule.starts


class TestGreedyVsOptimal:
    """The oracle checks: greedy never beats optimal, and stays close."""

    @pytest.mark.parametrize("seed", range(8))
    def test_greedy_bounded_by_optimal(self, lib, seed):
        graph = random_dag(6, seed=seed)
        bounds = (8, 10)
        try:
            best = optimal_design(graph, lib, *bounds)
        except NoSolutionError:
            with pytest.raises(NoSolutionError):
                find_design(graph, lib, *bounds)
            return
        greedy = find_design(graph, lib, *bounds)
        assert greedy.reliability <= best.reliability + 1e-12
        # quality: the greedy is within 5% of the optimum on these
        assert greedy.reliability >= 0.95 * best.reliability

    @pytest.mark.parametrize("bounds", [(4, 6), (5, 8), (8, 12)])
    def test_structured_graph(self, lib, bounds):
        graph = small_mixed()
        try:
            best = optimal_design(graph, lib, *bounds)
        except NoSolutionError:
            return
        greedy = find_design(graph, lib, *bounds)
        assert greedy.reliability <= best.reliability + 1e-12
        assert greedy.reliability >= 0.97 * best.reliability
