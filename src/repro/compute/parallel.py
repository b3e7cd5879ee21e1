"""Parallel computation APIs over sharded data (§3.2).

``map``/``for_each``/``reduce``/``filter`` compose compute proclets with
memory proclets: each task scans a slice of a sharded vector through a
prefetching reader, burns per-element CPU, and optionally emits results
(e.g. into a sharded queue).  This is the "pass data structure iterators
to a map API" pattern the paper describes.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Union

from ..core.computeproclet import Task
from ..core.prefetch import CHUNK, DEPTH
from ..sim import Event

#: Per-element work: either a constant (seconds) or fn(key, value) -> s.
WorkSpec = Union[float, Callable[[Any, Any], float]]


def _work_of(work: WorkSpec, key, value) -> float:
    return work(key, value) if callable(work) else work


def _slice_tasks(pool, vector, lo: int, hi: int, task_elems: int,
                 body) -> List[Event]:
    """Submit one task per element slice; returns their events."""
    events = []
    start = lo
    while start < hi:
        end = min(start + task_elems, hi)
        events.append(pool.submit(Task(fn=body(start, end),
                                       key=(start, end))))
        start = end
    return events


def for_each(pool, vector, work: WorkSpec, emit=None,
             lo: int = 0, hi: Optional[int] = None,
             task_elems: int = 512, reader_depth: int = DEPTH,
             reader_chunk: int = CHUNK) -> Event:
    """Apply per-element *work* over ``vector[lo:hi]`` using *pool*.

    ``emit(ctx, key, value)`` is an optional generator run after each
    element (push to a queue, write a result, ...).  Returns an event
    that fires when every element has been processed.
    """
    hi = len(vector) if hi is None else hi

    def body(start: int, end: int):
        def task_fn(ctx, _task):
            reader = vector.reader(start, end, chunk=reader_chunk,
                                   depth=reader_depth)
            count = 0
            while True:
                batch = yield from reader.next_batch(ctx)
                if batch is None:
                    break
                for key, value in batch:
                    w = _work_of(work, key, value)
                    if w > 0:
                        yield ctx.cpu(w)
                    if emit is not None:
                        yield from emit(ctx, key, value)
                    count += 1
            return count

        return task_fn

    events = _slice_tasks(pool, vector, lo, hi, task_elems, body)
    return pool.qs.sim.all_of(events)


def map_collect(pool, vector, work: WorkSpec,
                transform: Optional[Callable[[Any, Any], Any]] = None,
                lo: int = 0, hi: Optional[int] = None,
                task_elems: int = 512) -> Event:
    """Map over the vector and collect ``[(key, result), ...]``.

    The completion event's value is the collected list (ordered by key).
    """
    hi = len(vector) if hi is None else hi
    results: List = []

    def body(start: int, end: int):
        def task_fn(ctx, _task):
            reader = vector.reader(start, end)
            out = []
            while True:
                batch = yield from reader.next_batch(ctx)
                if batch is None:
                    break
                for key, value in batch:
                    w = _work_of(work, key, value)
                    if w > 0:
                        yield ctx.cpu(w)
                    out.append((key, transform(key, value)
                                if transform else value))
            results.extend(out)
            return len(out)

        return task_fn

    done = pool.qs.sim.all_of(
        _slice_tasks(pool, vector, lo, hi, task_elems, body))
    collected = pool.qs.sim.event()
    done.subscribe(
        lambda e: collected.succeed(sorted(results)) if e.ok
        else collected.fail(e.value))
    return collected


def reduce(pool, vector, work: WorkSpec,
           fold: Callable[[Any, Any, Any], Any], initial: Any,
           lo: int = 0, hi: Optional[int] = None,
           task_elems: int = 512) -> Event:
    """Parallel reduction: per-task partial folds, combined at the end.

    ``fold(acc, key, value) -> acc`` must be associative over element
    order within a slice; partials combine with the same fold using the
    slice results as values.  The completion event's value is the final
    accumulator.
    """
    hi = len(vector) if hi is None else hi
    partials: List = []

    def body(start: int, end: int):
        def task_fn(ctx, _task):
            reader = vector.reader(start, end)
            acc = initial
            while True:
                batch = yield from reader.next_batch(ctx)
                if batch is None:
                    break
                for key, value in batch:
                    w = _work_of(work, key, value)
                    if w > 0:
                        yield ctx.cpu(w)
                    acc = fold(acc, key, value)
            partials.append((start, acc))
            return acc

        return task_fn

    done = pool.qs.sim.all_of(
        _slice_tasks(pool, vector, lo, hi, task_elems, body))
    result = pool.qs.sim.event()

    def _combine(e):
        if not e.ok:
            result.fail(e.value)
            return
        acc = initial
        for _start, partial in sorted(partials):
            acc = fold(acc, None, partial)
        result.succeed(acc)

    done.subscribe(_combine)
    return result


class _Drop:
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<dropped>"


_DROP = _Drop()


def filter_collect(pool, vector, work: WorkSpec,
                   predicate: Callable[[Any, Any], bool],
                   lo: int = 0, hi: Optional[int] = None,
                   task_elems: int = 512) -> Event:
    """Parallel filter: event value is ``[(key, value), ...]`` passing
    *predicate*, ordered by key."""
    mapped = map_collect(
        pool, vector, work,
        transform=lambda k, v: (v if predicate(k, v) else _DROP),
        lo=lo, hi=hi, task_elems=task_elems,
    )
    out = pool.qs.sim.event()

    def _strip(e):
        if not e.ok:
            out.fail(e.value)
            return
        out.succeed([(k, v) for k, v in e.value if v is not _DROP])

    mapped.subscribe(_strip)
    return out
