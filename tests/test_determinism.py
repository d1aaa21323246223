"""Determinism of parallel sweeps.

``sweep_bounds`` must produce byte-identical points regardless of the
worker count, on all three paper benchmarks.  Workers run cold, each
through its own engine, so a parallel sweep neither reads nor fills
the caches of the engine it is given.  This is the contract that lets
``--workers N`` and ``--cache-dir`` be pure wall-clock knobs: they may
never become result knobs.
"""

import pytest

from repro.bench import diffeq, ewf, fir16
from repro.core import EvaluationEngine, sweep_bounds
from repro.library import paper_library

#: benchmark → (latency bounds, area bounds) — small grids chosen so
#: each contains both feasible and tight points
GRIDS = {
    fir16: ([10, 11], [8, 9]),
    ewf: ([14, 16], [9]),
    diffeq: ([5, 6], [11]),
}


@pytest.fixture(scope="module")
def lib():
    return paper_library()


def point_fingerprint(point):
    if point.result is None:
        return (point.latency_bound, point.area_bound, None)
    result = point.result
    return (point.latency_bound, point.area_bound, result.area,
            result.latency, result.reliability,
            dict(result.schedule.starts),
            dict(result.binding.op_to_instance),
            {op: v.name for op, v in result.allocation.items()})


@pytest.fixture(scope="module")
def serial_points(lib):
    return {
        make: [point_fingerprint(p) for p in sweep_bounds(
            make(), lib, *GRIDS[make], engine=EvaluationEngine())]
        for make in GRIDS
    }


@pytest.mark.parametrize("make", list(GRIDS),
                         ids=lambda make: make.__name__)
class TestWorkerDeterminism:
    def test_workers4_matches_serial(self, lib, make, serial_points):
        points = sweep_bounds(make(), lib, *GRIDS[make], workers=4)
        assert [point_fingerprint(p) for p in points] == \
            serial_points[make]

    def test_repeated_parallel_sweep_matches_serial(self, lib, make,
                                                    serial_points):
        engine = EvaluationEngine()
        for attempt in ("first", "second"):
            points = sweep_bounds(make(), lib, *GRIDS[make], workers=4,
                                  engine=engine)
            assert [point_fingerprint(p) for p in points] == \
                serial_points[make], attempt
        assert engine.cache_size() == 0  # workers never touch its caches

    def test_workers1_falls_back_to_serial_path(self, lib, make,
                                                serial_points):
        points = sweep_bounds(make(), lib, *GRIDS[make], workers=1,
                              engine=EvaluationEngine())
        assert [point_fingerprint(p) for p in points] == \
            serial_points[make]
