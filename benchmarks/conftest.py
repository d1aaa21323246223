"""Shared fixtures for the reproduction benchmarks.

Every benchmark prints the regenerated table (run pytest with ``-s``
to see them) and asserts the paper's qualitative findings — who wins,
in which bound regime — rather than exact decimals, since our
substrate is a reimplementation, not the authors' testbed.
"""

import os

import pytest


@pytest.fixture(scope="session", autouse=True)
def bench_json_dir(tmp_path_factory):
    """Send the ``BENCH_<name>.json`` files of pytest runs (the CI smoke
    runs) to a temporary directory, so they never rewrite the tracked
    ones; an explicit ``BENCH_JSON_DIR`` still wins.  A full standalone
    run (``python benchmarks/bench_<name>.py``) refreshes the tracked
    file."""
    directory = os.environ.get("BENCH_JSON_DIR")
    if directory is not None:
        yield directory
        return
    directory = str(tmp_path_factory.mktemp("bench-json"))
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("BENCH_JSON_DIR", directory)
        yield directory


@pytest.fixture
def once(benchmark):
    """Run the benchmarked callable exactly once (experiments are
    deterministic and take seconds; statistical rounds add nothing)."""

    def runner(func, *args, **kwargs):
        return benchmark.pedantic(func, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)

    return runner
