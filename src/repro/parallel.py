"""Process fan-out for independent tasks (sweeps, experiment tables).

One policy, shared by :func:`repro.core.explore.sweep_bounds` and the
experiment drivers: tasks are ``(func, args, kwargs)`` triples with a
module-level *func* (so they pickle), results come back in task order,
and anything that cannot benefit from processes — ``workers`` ≤ 1 or a
single task — runs in-process, where the shared evaluation engine's
cache is worth more than parallelism.  Worker processes are reused
across tasks, so each worker's default engine warms up over the tasks
it serves.

Pass ``share_engine=`` to close the cross-process cache gap, with two
sharing modes (``share_mode=``):

``"snapshot"``
    Before any task runs, every worker's default engine is pre-warmed
    from a snapshot of that engine (:mod:`repro.core.cache_store`),
    and on join each worker exports its cache delta back, which is
    merged into ``share_engine``.  Workers exchange nothing while
    running.
``"live"``
    Workers attach their default engines to a shared cache server
    (:mod:`repro.core.cache_server`) — an ephemeral one seeded from
    ``share_engine`` and merged back on join, or an external one when
    ``server_address=`` (a unix socket path) is given — so a result
    computed by one worker is served to every other worker *mid-run*,
    not at the join.

Sharing is strictly best-effort in both modes — the engine is
behaviourally transparent, so a worker that fails to pre-warm, attach,
or export simply computes cold; results are identical either way.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import ReproError

Task = Tuple[Callable, tuple, dict]

#: Accepted ``share_mode`` values.
SHARE_MODES = ("snapshot", "live")


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


def _worker_init_live(address: Optional[str]) -> None:
    """Pool initializer: attach this worker's default engine to the
    cache server at *address* (best-effort: an unreachable server
    leaves the worker computing locally with identical results)."""
    if not address:
        return
    from repro.core import cache_server, default_engine

    try:
        cache_server.attach_engine(default_engine(), address)
    except ReproError:
        pass


def _export_default_cache() -> bytes:
    """Snapshot this worker's default engine (runs inside the worker)."""
    from repro.core import cache_store, default_engine

    return cache_store.dumps(cache_store.snapshot_engine(default_engine()))


def _flush_default_backend() -> None:
    """Ship this worker's buffered write-behind puts (live mode)."""
    from repro.core import default_engine

    backend = default_engine().backend
    if backend is not None:
        backend.flush()


def run_tasks(tasks: Sequence[Task],
              workers: Optional[int] = None,
              share_engine=None,
              share_mode: str = "snapshot",
              server_address: Optional[str] = None) -> List[object]:
    """Run *tasks*, optionally fanned out across *workers* processes.

    Parameters
    ----------
    share_engine:
        An :class:`~repro.core.engine.EvaluationEngine` whose caches
        seed the workers and absorb their results on join.  Only
        meaningful when the tasks actually fan out; ignored (tasks run
        through whatever engine they reference) on the serial path.
    share_mode:
        ``"snapshot"`` — pre-warm/merge-back at the fork/join
        boundaries; ``"live"`` — workers share through a cache server
        while running.
    server_address:
        Live mode only: attach workers to the already-running cache
        server at this unix socket path instead of spawning an
        ephemeral server.  The external server owns the shared state, so no
        merge-back into *share_engine* happens (an attached parent
        engine reads through it anyway).
    """
    if share_mode not in SHARE_MODES:
        raise ReproError(
            f"unknown share mode {share_mode!r}; use one of {SHARE_MODES}")
    tasks = [(func, tuple(args), dict(kwargs)) for func, args, kwargs in tasks]
    if not (workers is not None and workers > 1 and len(tasks) > 1):
        return [_run_task(task) for task in tasks]
    if share_mode == "live":
        return _run_tasks_live(tasks, workers, share_engine,
                               server_address)
    return _run_tasks_snapshot(tasks, workers, share_engine)


def _run_tasks_snapshot(tasks: List[Task], workers: int,
                        share_engine) -> List[object]:
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


def _run_tasks_live(tasks: List[Task], workers: int, share_engine,
                    server_address: Optional[str]) -> List[object]:
    """Fan out with workers attached to a live cache server.

    With no *server_address*, an ephemeral server is spawned in this
    process, seeded from ``share_engine``'s caches, and merged back
    into it on join — the live-mode analogue of pre-warm/merge-back,
    except overlapping results flow between workers mid-run.  Server
    startup is best-effort: if the socket cannot be bound, the sweep
    falls back to the snapshot mode rather than failing.
    """
    from repro.core import cache_server

    server = None
    address = server_address
    if address is None:
        try:
            server = cache_server.CacheServer().start()
        except ReproError:
            return _run_tasks_snapshot(tasks, workers, share_engine)
        address = server.address
        if share_engine is not None and share_engine.cache_enabled:
            server.seed(share_engine.export_cache_state())
    try:
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=_worker_init_live,
                                 initargs=(address,)) as pool:
            results = list(pool.map(_run_task, tasks))
            # ship every worker's buffered write-behind puts; like the
            # snapshot-mode merge-back this is best-effort per worker
            # (the pool does not guarantee task placement)
            for _ in pool.map(_run_task,
                              [(_flush_default_backend, (), {})]
                              * min(workers, len(tasks))):
                pass
        if server is not None and share_engine is not None \
                and share_engine.cache_enabled:
            share_engine.merge_cache_state(server.export_layers())
    finally:
        if server is not None:
            server.stop()
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
