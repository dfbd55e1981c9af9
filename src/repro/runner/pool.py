"""Process-pool task dispatch with a bit-identical serial fallback.

``run_tasks`` is the single entry point: give it a picklable worker
function and an ordered list of picklable payloads and it returns the
results in submission order.  With ``parallel=False`` (or one worker, or
a single-task list) it degrades to a plain in-process loop — the same
calls in the same order as the pre-runner code paths, so serial results
are bit-identical to the historical campaign loops.

Workers that need expensive shared context (a protected image, a target
matrix) receive it through ``initializer``/``initargs``: the context is
pickled once per worker process, not once per task, and module-global
state installed by the initializer plays the role of the shared build
cache.  On POSIX the pool uses the ``fork`` start method, so large
read-only context is additionally shared copy-on-write.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, TypeVar

from .batching import in_position_order, make_batches

T = TypeVar("T")
R = TypeVar("R")

def _obs_initializer(initializer: Optional[Callable],
                     initargs: Tuple) -> None:
    """Pool initializer for instrumented runs: install the per-worker
    metrics registry, then run the campaign's own initializer."""
    from ..obs import worker as obs_worker
    obs_worker.install()
    if initializer is not None:
        initializer(*initargs)


def _alone(fn: Callable, group: list):
    """An ungrouped task, dispatched as a group of one."""
    yield 0, fn(group[0])


def _collect(fn: Callable, group: list) -> list:
    """One group's member results, in member order."""
    return in_position_order(fn(group), len(group))


def _timed(fn: Callable, group: list) -> tuple:
    """Instrumented group: member results plus one ``(position, span)``
    per member — the worker's pid, timing (from the previous member's
    completion) and counter deltas — piggybacked on the result channel."""
    from ..obs import worker as obs_worker
    results = [None] * len(group)
    spans = []
    start = time.perf_counter()
    for position, result in fn(group):
        end = time.perf_counter()
        results[position] = result
        spans.append((position, obs_worker.span(start, end)))
        start = end
    return results, spans


def available_cpus() -> int:
    """CPUs actually usable by this process, and at least one.

    ``os.cpu_count()`` reports the machine's core count even inside a
    cgroup/affinity-limited container (CI runners routinely pin a 64-core
    host down to 2), so prefer the scheduler affinity mask where the
    platform provides it.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux platforms
        return max(1, os.cpu_count() or 1)


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: ``None`` means one per available CPU, at least one."""
    if jobs is None:
        return available_cpus()
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def default_chunksize(num_tasks: int, jobs: int) -> int:
    """Tasks per pickle round-trip: ~4 chunks per worker.

    Small enough to load-balance tasks of uneven duration (fault runs
    range from a few hundred to millions of simulated instructions),
    large enough to amortize IPC for sub-millisecond tasks.
    """
    if num_tasks <= 0:
        return 1
    return max(1, num_tasks // (4 * jobs))


def _fork_context():
    """Prefer ``fork`` (cheap context sharing); fall back to the default."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def run_tasks(fn: Callable[[T], R], tasks: Iterable[T], *,
              jobs: Optional[int] = None,
              parallel: bool = True,
              chunksize: Optional[int] = None,
              initializer: Optional[Callable] = None,
              initargs: Tuple = (),
              telemetry=None,
              width: Optional[int] = None) -> List[R]:
    """Run ``fn`` over every task, returning results in task order.

    ``parallel=False`` (or a resolved worker count of one, or fewer than
    two tasks) calls ``fn`` on every task in-process, in order, after
    calling the initializer — the historical serial loop.  The parallel
    path fans the task list across ``jobs`` worker processes with
    chunked dispatch; ``ProcessPoolExecutor.map`` guarantees the result
    order matches the submission order regardless of which worker
    finishes first.

    ``width`` dispatches the tasks in submission-order groups of up to
    that many (:func:`~repro.runner.batching.make_batches`): ``fn``
    receives a whole group and yields ``(position, result)`` once per
    member, in any order, and the returned list is still one result per
    task in submission order.

    ``telemetry`` (a :class:`repro.obs.Telemetry`, default ``None``)
    turns on per-task collection: each worker installs a process-local
    metrics registry, times every task (every group member separately),
    and returns the spans through the same result channel; the parent
    strips them and folds them into the campaign telemetry in result
    order.  With ``telemetry=None`` no task is timed and no worker
    registry is installed.
    """
    groups = make_batches(list(tasks), width or 1)
    workers = resolve_jobs(jobs)
    member = fn if width is not None else functools.partial(_alone, fn)
    call = functools.partial(_collect if telemetry is None else _timed,
                             member)
    indices = (telemetry.claim_indices(sum(map(len, groups)))
               if telemetry is not None else None)
    if not parallel or workers == 1 or len(groups) < 2:
        from ..obs import worker as obs_worker
        if telemetry is not None:
            obs_worker.install()
        try:
            if initializer is not None:
                initializer(*initargs)
            return _gather(map(call, groups), telemetry, indices)
        finally:
            if telemetry is not None:
                obs_worker.uninstall()
    workers = min(workers, len(groups))
    if chunksize is None:
        chunksize = default_chunksize(len(groups), workers)
    if telemetry is not None:
        initializer, initargs = _obs_initializer, (initializer, initargs)
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=_fork_context(),
                             initializer=initializer,
                             initargs=initargs) as pool:
        return _gather(pool.map(call, groups, chunksize=chunksize),
                       telemetry, indices)


def _gather(outputs, telemetry, indices: Optional[List[int]]) -> list:
    """Flatten per-group outputs into per-task results, folding each
    member's span into ``telemetry`` as its group arrives."""
    results: list = []
    for output in outputs:
        if telemetry is not None:
            output, spans = output
            for position, span in spans:
                telemetry.task_completed(span,
                                         indices[len(results) + position])
        results.extend(output)
    return results
