"""Process-pool fan-out shared by the experiment and Monte-Carlo runners.

Two constraints shape this helper:

* Task *functions* are often closures (tracker/trace factories captured
  in a lambda), which ``pickle`` rejects. On platforms with ``fork``
  the children inherit the function through process memory instead, so
  only the per-task *arguments* and results cross the pipe.
* Fan-out must be an implementation detail: callers pass ``n_workers``
  and get back results in task order, identical to a serial map.

When ``fork`` is unavailable, or the pool cannot be built, the map
degrades to serial execution — correctness never depends on
parallelism being possible.

Pool creation is also *guarded against losing*: a pool is only built
when this process can actually use more than one CPU
(:func:`default_workers` respects cgroup/affinity limits) and the task
list is large enough to amortize worker startup. A 4-worker pool on a
1-CPU container used to run ~1.5x *slower* than serial; now it silently
takes the serial path instead.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

#: Below this many tasks a pool cannot amortize its startup cost, so
#: the map runs serially no matter how many workers were requested.
MIN_POOL_TASKS = 2

#: Function handed to workers through fork-inherited memory. Only valid
#: between pool creation and teardown in :func:`fork_map`; the lock
#: serialises concurrent fork_map calls so two threads cannot
#: cross-wire each other's task functions into a shared global.
_TASK_FN: Callable | None = None
_TASK_LOCK = threading.Lock()


def _call_task(arg):
    return _TASK_FN(arg)


def _call_task_indexed(indexed_arg):
    index, arg = indexed_arg
    return index, _TASK_FN(arg)


def fork_available() -> bool:
    """True when ``fork``-based pools can be used on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


def default_workers() -> int:
    """Usable CPUs for this process (respects cgroup/affinity limits)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def effective_workers(n_workers: int, n_tasks: int) -> int:
    """The worker count a pool call will actually use.

    Collapses to 1 (the serial path, bit-identical by construction)
    whenever a pool could only lose: a single usable CPU, too few
    tasks to amortize worker startup (:data:`MIN_POOL_TASKS`), or no
    ``fork`` support. Never exceeds the task count.
    """
    if n_workers <= 1 or n_tasks < MIN_POOL_TASKS:
        return 1
    if not fork_available() or default_workers() == 1:
        return 1
    return min(n_workers, n_tasks)


def fork_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    n_workers: int = 1,
    chunksize: int | None = None,
) -> list[R]:
    """Map ``fn`` over ``items`` across ``n_workers`` forked processes.

    ``fn`` may be any callable — including closures — because workers
    inherit it via fork rather than pickling it. ``items`` and the
    results must still be picklable. Results come back in input order,
    bit-identical to ``[fn(x) for x in items]`` provided ``fn`` is a
    pure function of its argument (use :mod:`repro.sim.seeding` to
    derive per-task randomness).

    Runs serially when :func:`effective_workers` collapses the request:
    ``n_workers <= 1``, fewer than :data:`MIN_POOL_TASKS` items, a
    single usable CPU, or no ``fork`` support.
    """
    work: Sequence[T] = list(items)
    workers = effective_workers(n_workers, len(work))
    if workers <= 1:
        return [fn(item) for item in work]
    if chunksize is None:
        chunksize = max(1, len(work) // (4 * workers))
    global _TASK_FN
    with _TASK_LOCK:
        _TASK_FN = fn
        try:
            context = multiprocessing.get_context("fork")
            with context.Pool(processes=workers) as pool:
                return pool.map(_call_task, work, chunksize=chunksize)
        finally:
            _TASK_FN = None


def fork_imap_unordered(
    fn: Callable[[T], R],
    items: Iterable[T],
    n_workers: int = 1,
) -> Iterator[tuple[int, R]]:
    """Yield ``(index, fn(item))`` pairs as tasks complete.

    The streaming variant of :func:`fork_map` used by the sharded
    experiment scheduler: the caller commits each result (store flush,
    journal mark) the moment its shard finishes instead of waiting for
    the whole map, so a killed run loses at most the in-flight shards.
    Completion order is scheduling-dependent; the index identifies the
    task. The serial fallback (same guards as :func:`fork_map`) yields
    in input order.

    Each item travels as its own pool task (``chunksize=1``) — callers
    amortize dispatch by making the items themselves chunky (shards of
    tasks, not single tasks).
    """
    work: Sequence[T] = list(items)
    workers = effective_workers(n_workers, len(work))
    if workers <= 1:
        for index, item in enumerate(work):
            yield index, fn(item)
        return
    global _TASK_FN
    with _TASK_LOCK:
        _TASK_FN = fn
        try:
            context = multiprocessing.get_context("fork")
            with context.Pool(processes=workers) as pool:
                yield from pool.imap_unordered(
                    _call_task_indexed, enumerate(work), chunksize=1
                )
        finally:
            _TASK_FN = None
