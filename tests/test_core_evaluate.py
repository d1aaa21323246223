"""Direct unit tests for repro.core.evaluate."""

import pytest

from repro.bench import diffeq, fir16
from repro.library import paper_library
from repro.core.evaluate import (
    Evaluation,
    delays_of,
    evaluate_allocation,
    min_latency,
)


@pytest.fixture(scope="module")
def lib():
    return paper_library()


def fast_alloc(graph, lib):
    return {op.op_id: lib.fastest_smallest(op.rtype) for op in graph}


def reliable_alloc(graph, lib):
    return {op.op_id: lib.most_reliable(op.rtype) for op in graph}


class TestDelays:
    def test_delays_of(self, lib):
        graph = diffeq()
        delays = delays_of(fast_alloc(graph, lib))
        assert all(d == 1 for d in delays.values())
        delays = delays_of(reliable_alloc(graph, lib))
        assert all(d == 2 for d in delays.values())

    def test_min_latency(self, lib):
        assert min_latency(fir16(), fast_alloc(fir16(), lib)) == 9
        assert min_latency(fir16(), reliable_alloc(fir16(), lib)) == 18


class TestEvaluateAllocation:
    def test_returns_none_when_infeasible(self, lib):
        assert evaluate_allocation(fir16(), fast_alloc(fir16(), lib),
                                   8) is None

    def test_finds_min_area_with_slack(self, lib):
        graph = fir16()
        allocation = fast_alloc(graph, lib)
        tight = evaluate_allocation(graph, allocation, 9)
        loose = evaluate_allocation(graph, allocation, 12)
        assert loose.area <= tight.area

    def test_evaluation_is_consistent(self, lib):
        graph = diffeq()
        allocation = fast_alloc(graph, lib)
        evaluation = evaluate_allocation(graph, allocation, 7)
        assert isinstance(evaluation, Evaluation)
        assert evaluation.latency == evaluation.schedule.latency
        assert evaluation.latency <= 7
        evaluation.schedule.validate()
        evaluation.binding.validate()

    def test_engines_agree_on_feasibility(self, lib):
        graph = diffeq()
        allocation = fast_alloc(graph, lib)
        density = evaluate_allocation(graph, allocation, 6,
                                      scheduler="density")
        listed = evaluate_allocation(graph, allocation, 6,
                                     scheduler="list")
        auto = evaluate_allocation(graph, allocation, 6, scheduler="auto")
        assert density is not None and listed is not None
        assert auto.area == min(density.area, listed.area)

    def test_versions_area_model(self, lib):
        graph = fir16()
        allocation = fast_alloc(graph, lib)
        evaluation = evaluate_allocation(graph, allocation, 10,
                                         area_model="versions")
        assert evaluation.area == 6  # adder2 + mult2 counted once each


class TestMarkdownExport:
    def test_markdown_rendering(self):
        from repro.experiments import ExperimentTable

        table = ExperimentTable("T", ("a", "b"))
        table.add_row(1, 0.5)
        table.add_note("n")
        text = table.as_markdown()
        assert text.startswith("### T")
        assert "| a | b |" in text
        assert "| 1 | 0.50000 |" in text
        assert "*n*" in text
