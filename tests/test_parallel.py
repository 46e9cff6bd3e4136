"""parallel_map: order, serial fallback and the worker cap."""
import multiprocessing
import os

import pytest

from ramanfuse import parallel


def scaled(shared, task):
    return shared * task


class SerialPool:
    """Stand-in for the spawn context's Pool: records the requested worker
    count and runs the tasks in this process."""

    requested = []

    def __init__(self, processes, initializer, initargs):
        self.requested.append(processes)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def starmap(self, fn, args, chunksize=1):
        return [fn(*a) for a in args]


@pytest.fixture
def serial_pool(monkeypatch):
    SerialPool.requested = []
    monkeypatch.setattr(multiprocessing.get_context("spawn"), "Pool", SerialPool)
    monkeypatch.setattr(parallel, "_shared", None)
    return SerialPool.requested


@pytest.mark.parametrize("cpus,jobs,n_tasks,expect", [
    (2, 64, 10, [2]),      # capped at the usable CPUs
    (4, 3, 10, [3]),       # capped at the jobs asked for
    (8, 64, 5, [5]),       # capped at the task count
    (1, 64, 10, []),       # one CPU: no pool at all
    (4, 1, 10, []),        # one job: no pool at all
])
def test_worker_count_is_capped(monkeypatch, serial_pool, cpus, jobs, n_tasks, expect):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    got = parallel.parallel_map(scaled, 3, range(n_tasks), jobs)
    assert got == [3 * t for t in range(n_tasks)]
    assert serial_pool == expect
