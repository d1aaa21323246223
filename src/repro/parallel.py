"""Process fan-out for independent tasks (sweeps, experiment tables).

One policy, shared by :func:`repro.core.explore.sweep_bounds` and the
experiment drivers: tasks are ``(func, args, kwargs)`` triples with a
module-level *func* (so they pickle), results come back in task order,
and anything that cannot benefit from processes — ``workers`` ≤ 1 or a
single task — runs in-process, where the shared evaluation engine's
cache is worth more than parallelism.  Worker processes are reused
across tasks, so each worker's default engine warms up over the tasks
it serves.

Pass ``share_engine=`` to close the cross-process cache gap: before
any task runs, every worker's default engine is pre-warmed from a
snapshot of that engine (:mod:`repro.core.cache_store`), and on join
each worker exports its cache delta back, which is merged into
``share_engine``.  Workers exchange nothing while running.

Sharing is strictly best-effort — the engine is behaviourally
transparent, so a worker that fails to pre-warm or export simply
computes cold; results are identical either way.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import ReproError

Task = Tuple[Callable, tuple, dict]


def _run_task(task: Task):
    """Execute one (func, args, kwargs) task; module-level for pickling."""
    func, args, kwargs = task
    return func(*args, **kwargs)


def _worker_init(snapshot_bytes: Optional[bytes]) -> None:
    """Pool initializer: pre-warm this worker's default engine."""
    if not snapshot_bytes:
        return
    from repro.core import cache_store, default_engine

    try:
        cache_store.merge_snapshot(default_engine(),
                                   cache_store.loads(snapshot_bytes))
    except ReproError:
        pass  # a stale snapshot must not kill the worker; it starts cold


def _export_default_cache() -> bytes:
    """Snapshot this worker's default engine (runs inside the worker)."""
    from repro.core import cache_store, default_engine

    return cache_store.dumps(cache_store.snapshot_engine(default_engine()))


def run_tasks(tasks: Sequence[Task],
              workers: Optional[int] = None,
              share_engine=None) -> List[object]:
    """Run *tasks*, optionally fanned out across *workers* processes.

    Parameters
    ----------
    share_engine:
        An :class:`~repro.core.engine.EvaluationEngine` whose caches
        seed the workers and absorb their results on join.  Only
        meaningful when the tasks actually fan out; ignored (tasks run
        through whatever engine they reference) on the serial path.
    """
    tasks = [(func, tuple(args), dict(kwargs)) for func, args, kwargs in tasks]
    if not (workers is not None and workers > 1 and len(tasks) > 1):
        return [_run_task(task) for task in tasks]
    initargs: tuple = (None,)
    sharing = share_engine is not None and share_engine.cache_enabled
    if sharing:
        from repro.core import cache_store

        initargs = (cache_store.dumps(
            cache_store.snapshot_engine(share_engine)),)
    with ProcessPoolExecutor(max_workers=workers,
                             initializer=_worker_init,
                             initargs=initargs) as pool:
        results = list(pool.map(_run_task, tasks))
        if sharing:
            _merge_worker_caches(pool, min(workers, len(tasks)),
                                 share_engine)
    return results


def _merge_worker_caches(pool: ProcessPoolExecutor, exports: int,
                         share_engine) -> None:
    """Collect worker cache snapshots and merge them into *share_engine*.

    One export task is submitted per worker; the pool does not
    guarantee which worker serves which task, so a busy pool may export
    some worker twice and another not at all.  Merging is idempotent
    and the caches are pure memos, so the outcome is only a hit-rate
    difference, never a result difference.
    """
    from repro.core import cache_store

    snapshots = pool.map(_run_task,
                         [(_export_default_cache, (), {})] * exports)
    for raw in snapshots:
        try:
            cache_store.merge_snapshot(share_engine, cache_store.loads(raw))
        except ReproError:
            continue
