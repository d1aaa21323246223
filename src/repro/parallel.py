"""Process fan-out for independent tasks (sweeps, experiment tables).

One policy, shared by :func:`repro.core.explore.sweep_bounds` and the
experiment drivers: tasks are ``(func, args, kwargs)`` triples with a
module-level *func* (so they pickle), results come back in task order,
and anything that cannot benefit from processes — ``workers`` ≤ 1 or a
single task — runs in-process, where the shared evaluation engine's
cache is worth more than parallelism (:func:`uses_workers` decides).
Worker processes are reused across tasks, so each worker's engines
warm up over the tasks it serves; their caches are discarded when the
worker exits.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

Task = Tuple[Callable, tuple, dict]


def uses_workers(workers: Optional[int], tasks: int) -> bool:
    """Whether *tasks* independent tasks with this *workers* setting
    fan out to worker processes (the single source of truth for
    :func:`run_tasks`, :func:`repro.core.explore.sweep_bounds` and the
    CLI's ``--stats`` and ``--cache-dir`` handling)."""
    return workers is not None and workers > 1 and tasks > 1


def _run_task(task: Task):
    """Execute one (func, args, kwargs) task; module-level for pickling."""
    func, args, kwargs = task
    return func(*args, **kwargs)


def run_tasks(tasks: Sequence[Task],
              workers: Optional[int] = None) -> List[object]:
    """Run *tasks*, optionally fanned out across *workers* processes."""
    if not uses_workers(workers, len(tasks)):
        return [_run_task(task) for task in tasks]
    # process pools cost tens of milliseconds to import: only fanned-out
    # runs pay for them, not serial callers of uses_workers
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_task, tasks))
