"""Shared fixtures for the reproduction benchmarks.

Every benchmark prints the regenerated table (run pytest with ``-s``
to see them) and asserts the paper's qualitative findings — who wins,
in which bound regime — rather than exact decimals, since our
substrate is a reimplementation, not the authors' testbed.
"""

import pytest


@pytest.fixture
def once(benchmark):
    """Run the benchmarked callable exactly once (experiments are
    deterministic and take seconds; statistical rounds add nothing)."""

    def runner(func, *args, **kwargs):
        return benchmark.pedantic(func, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)

    return runner
