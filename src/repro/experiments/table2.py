"""Table 2 — the paper's headline comparison (Section 7).

For each benchmark and each (latency bound, area bound) pair, compare
the redundancy baseline (Ref [3]), the reliability-centric approach
("ours"), and the combined approach, reporting the reliability values
and percentage improvements exactly as the paper's Table 2 columns do,
alongside the published numbers.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.bench import get_benchmark
from repro.errors import NoSolutionError
from repro.hls.metrics import AREA_INSTANCES
from repro.library import paper_library
from repro.core import baseline_design, combined_design, find_design
from repro.experiments import paper_data
from repro.experiments.runner import ExperimentTable, improvement


def _reliability(func, graph, library, latency_bound, area_bound,
                 **kwargs) -> Optional[float]:
    try:
        return func(graph, library, latency_bound, area_bound,
                    **kwargs).reliability
    except NoSolutionError:
        return None


def run_table2(benchmark: str,
               grid: Optional[Sequence[Tuple[int, int]]] = None,
               area_model: str = AREA_INSTANCES) -> ExperimentTable:
    """Regenerate one section of Table 2.

    Parameters
    ----------
    benchmark:
        ``"fir"``, ``"ew"`` or ``"diffeq"``.
    grid:
        (Ld, Ad) pairs; defaults to the paper's grid for the benchmark.
    area_model:
        ``"instances"`` (physically sound, default) or ``"versions"``
        (the accounting several of the paper's cells imply).
    """
    library = paper_library()
    grid = list(grid) if grid is not None else paper_data.table2_grid(benchmark)
    published = paper_data.TABLE2.get(benchmark, {})

    table = ExperimentTable(
        title=(f"Table 2 ({benchmark}) — reliability under latency/area "
               f"bounds [area model: {area_model}]"),
        headers=("Ld", "Ad", "Ref[3]", "Ours", "%Imprv", "Ours+Ref[3]",
                 "%Imprv2", "paper Ref[3]", "paper Ours", "paper Comb"),
    )
    for latency_bound, area_bound in grid:
        graph = get_benchmark(benchmark)
        ref3 = _reliability(baseline_design, graph, library,
                            latency_bound, area_bound,
                            area_model=area_model)
        ours = _reliability(find_design, graph, library,
                            latency_bound, area_bound,
                            area_model=area_model)
        comb = _reliability(combined_design, graph, library,
                            latency_bound, area_bound,
                            area_model=area_model)
        paper_row = published.get((latency_bound, area_bound),
                                  (None, None, None))
        table.add_row(
            latency_bound, area_bound, ref3, ours,
            improvement(ours, ref3), comb, improvement(comb, ref3),
            *paper_row,
        )
    table.add_note(
        "'-' marks bounds infeasible under sound instance-based area "
        "accounting; 'repro experiment table2a|table2b|table2c "
        "--area-model versions' gives the paper-accounting run.")
    return table
