"""Order-preserving map over a worker process pool that receives the
shared read-only inputs once per worker, through the pool initializer,
instead of once per task."""
from __future__ import annotations

import multiprocessing
import os

_shared = None  # set in worker processes only, by _install


def _install(shared) -> None:
    global _shared
    _shared = shared


def _call(fn, task):
    return fn(_shared, task)


def parallel_map(fn, shared, tasks, jobs: int = 1) -> list:
    """[fn(shared, task) for task in tasks], computed on spawned worker
    processes when jobs > 1: at most one per job, task and usable CPU.
    fn must be a module-level function; shared, tasks and results must
    pickle."""
    tasks = list(tasks)
    workers = min(jobs, len(tasks), len(os.sched_getaffinity(0)))
    if workers <= 1:
        return [fn(shared, task) for task in tasks]
    context = multiprocessing.get_context("spawn")
    with context.Pool(
        processes=workers, initializer=_install, initargs=(shared,)
    ) as pool:
        return pool.starmap(_call, [(fn, task) for task in tasks], chunksize=1)
