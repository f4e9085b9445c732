"""Deterministic parallel drivers for campaigns and sweeps.

Every unit of work this repo fans out — a campaign attempt, a sweep
point, a degradation-frontier budget level — is already deterministic
given its index and a seed.  That makes parallelism *embarrassingly*
safe: evaluate items in any order, merge results back **in item
order**, and the outcome is byte-identical to the serial run.  This
module supplies the one primitive everything else needs:

:class:`ParallelRunner` — an ordered, streamed map over **one** process
pool per stream (:meth:`ParallelRunner.imap_captured`), with a serial
fallback whenever the platform cannot fork, the pool cannot be built,
or ``jobs <= 1``.  ``map`` and ``map_captured`` are list-returning
wrappers around the stream.

Design notes
------------
* **Fork, not spawn.**  Work functions are closures over configs that
  hold device-factory lambdas; those never survive pickling.  With the
  ``fork`` start method the closure is *inherited* by the children via
  the parent's memory image — only the items (ints, small tuples) and
  the results cross the pipe, so work functions stay arbitrary.  The
  module-level :func:`_call_captured` trampoline is what actually gets
  pickled (by name), and it reads the closure from :data:`_WORK`, set
  in the parent before the pool forks and kept set for the pool's
  whole life (the pool may fork replacement workers later).
* **Results must be picklable.**  Callers return value objects
  (verdict tuples, rows, counterexamples) — never configs carrying
  lambdas.
* **One pool, streamed in order, in growing chunks.**  Items go to the
  workers through ``Pool.imap`` in consecutive chunks whose sizes double
  from 1 up to a cap (:func:`_chunks`): a task costs a pickle round trip
  and a result-handler wake-up in the parent, which rivals a millisecond
  campaign attempt, so long streams send several items per task.
  Doubling from 1 means a caller that stops early still sees its first
  results after 1, 2 and 4 items, and the cap — at most 8, and 1 for
  streams shorter than ``8 * processes`` items — keeps every frontier
  and sweep at one item per task.  The parent flattens each chunk back
  into items, so results come back in item order and "first violation"
  style reductions in the caller see the same order serial execution
  produced.  Workers run ahead of the caller's merge; a caller that
  stops early closes the stream, which raises the pool's stop flag:
  workers finish the item in hand, skip the rest (the flag is checked
  before every item, inside a chunk too), and exit through the pool's
  own shutdown.  Results the caller never consumed are discarded.
  Workers are not killed mid-run, because a worker killed while sending
  a result leaves the result queue's lock held and ``Pool.terminate``
  then waits on it forever.  A worker whose parent is gone (SIGKILLed
  mid-stream) exits by itself before its next item or result, and one
  blocked writing a result into the dead parent's pipe is ended by
  ``SIGPIPE``, so a killed run leaves neither workers nor
  ``BrokenPipeError`` tracebacks behind.
* **Per-item fault tolerance.**  A worker exception does not abort the
  whole stream: the trampoline ships failures back as values (the
  error's ``repr``), and the parent re-executes the failed item
  serially.  A worker *process* that dies (SIGKILL, OOM
  killer) is noticed while the parent waits on the next result: the
  pool is terminated and every undelivered item is finished serially
  in the parent.  Only when a serial retry *also* fails does the error
  surface — as an :class:`ItemError` carrying the item's index and the
  item itself, with the retry's exception chained, so a post-mortem
  knows exactly which unit died and why.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import signal
from collections.abc import Callable, Iterable, Iterator
from typing import Any, TypeVar

from .. import obs

T = TypeVar("T")
R = TypeVar("R")

logger = logging.getLogger(__name__)

#: Seconds the parent waits on the next result before checking that
#: the pool's workers are still alive.
_POLL_S = 0.25


class ItemError(RuntimeError):
    """One work item failed in a worker *and* in the serial retry.

    Carries the item's identity: ``index`` into the mapped sequence and
    the ``item`` value itself (for campaigns, the attempt index that
    seeds the failing scenario).  The retry's exception is chained as
    ``__cause__``.
    """

    def __init__(
        self, index: int, item: Any, error: BaseException | str
    ) -> None:
        self.index = index
        self.item = item
        super().__init__(
            f"work item #{index} ({item!r}) failed after serial retry: "
            f"{error}"
        )


#: The current work closure, inherited by forked workers.  Only ever
#: set in the parent, before a pool forks, until that pool is closed.
_WORK: Callable[[Any], Any] | None = None

#: The current pool's stop flag (a shared byte), inherited by forked
#: workers alongside :data:`_WORK`; nonzero once the parent closes the
#: pool, after which workers skip the items still queued.
_STOP: Any = None

#: The pid of the process that forked the current pool, inherited
#: alongside :data:`_WORK`.  A worker whose parent has changed was
#: orphaned (the parent was SIGKILLed): nothing will read its results.
_PARENT: int | None = None


def _run_captured(fn: Callable[[T], R], item: T) -> tuple[R, tuple]:
    """``fn(item)`` with the item's telemetry captured into a payload."""
    with obs.capture() as capsule:
        result = fn(item)
    return (result, capsule.payload())


def _call_captured(item: Any) -> tuple[bool, tuple[Any, tuple], str | None]:
    """Module-level trampoline (picklable by name) around :data:`_WORK`.

    Returns ``(ok, (result, payload), error)``.  Forked workers inherit
    the parent's enabled telemetry; the capture sink redirects the
    item's events into a picklable capsule that rides back over the
    result pipe alongside the result, so the parent can replay them in
    item order.  Exceptions become values, so a crashing item neither
    aborts the stream nor loses its identity; its partial events are
    dropped, since the serial retry captures the item afresh.
    """
    assert _WORK is not None, "worker forked before _WORK was set"
    _exit_if_orphaned()
    if _STOP.value:
        return (True, (None, ()), None)
    with obs.capture() as capsule:
        try:
            result = _WORK(item)
        except Exception as exc:
            return (False, (None, ()), repr(exc))
    return (True, (result, capsule.payload()), None)


def _call_chunk(chunk: list) -> list:
    """Module-level trampoline: :func:`_call_captured` on each item of
    one chunk, in order (each call checks the stop flag first)."""
    outcomes = [_call_captured(item) for item in chunk]
    _exit_if_orphaned()
    return outcomes


def _exit_if_orphaned() -> None:
    """End an orphaned worker at once, before it runs another item or
    writes a result into the dead parent's pipe (which would raise
    ``BrokenPipeError`` and print a traceback for every queued task)."""
    if os.getppid() != _PARENT:
        os._exit(0)


#: Largest number of items sent to a worker as one task.
_MAX_CHUNK = 8


def _chunks(work: list, processes: int) -> list[list]:
    """``work`` cut into consecutive chunks, one pool task each.

    Chunk sizes double from 1 up to
    ``max(1, min(8, len(work) // (4 * processes)))``; the last chunk
    takes whatever is left.  The length cap leaves every worker at
    least four full-size chunks, and one item per task for fewer than
    ``8 * processes`` items.
    """
    cap = max(1, min(_MAX_CHUNK, len(work) // (4 * processes)))
    chunks = []
    start, size = 0, 1
    while start < len(work):
        chunks.append(work[start:start + size])
        start += size
        size = min(2 * size, cap)
    return chunks


class _WorkerLost(Exception):
    """A pool worker process died with items still undelivered."""


def fork_available() -> bool:
    """True when the ``fork`` start method exists (Linux, most Unix)."""
    try:
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover - exotic platforms
        return False


def available_parallelism() -> int:
    """Best-effort count of cores *this process may actually use*.

    ``os.cpu_count()`` reports the machine's cores, which over-reports
    inside cgroup- or affinity-restricted environments (containers, CI
    runners pinned to one core) and would defeat the single-core
    serial-fallback guard below.  The scheduling affinity mask is the
    honest number where the platform exposes it.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # macOS/Windows: no affinity API
        return os.cpu_count() or 1


class ParallelRunner:
    """An ordered parallel map with a serial fallback.

    ``jobs <= 1`` (or no fork support, a single-core box, or a pool
    failure) degrades to a plain in-process loop — same results, same
    order.  ``jobs > 1`` on a multi-core machine fans items over a
    fork-based process pool.  On one core the pool is pure overhead
    (fork + pipe costs with zero concurrency), so it is skipped, with
    the reason logged once.

    A worker exception or a dead worker fails only the items it left
    undelivered: the parent re-executes them serially, so one crashed
    or OOM-killed unit of work does not abort (or hang) a campaign.
    """

    def __init__(self, jobs: int = 1) -> None:
        self.jobs = max(1, int(jobs))
        self.fallback_reason: str | None = None
        if self.jobs <= 1:
            self.fallback_reason = f"jobs={self.jobs} requests no parallelism"
        elif not fork_available():
            self.fallback_reason = "fork start method unavailable"
        elif available_parallelism() <= 1:
            self.fallback_reason = (
                f"only {available_parallelism()} CPU core available; "
                "a process pool would add overhead without concurrency"
            )
        if self.fallback_reason is not None and self.jobs > 1:
            logger.info(
                "ParallelRunner falling back to serial: %s",
                self.fallback_reason,
            )

    @property
    def parallel(self) -> bool:
        return self.fallback_reason is None

    def imap_captured(
        self, fn: Callable[[T], R], items: Iterable[T]
    ) -> Iterator[tuple[R, tuple]]:
        """Stream ``(result, telemetry payload)`` pairs in item order
        from one pool that lives as long as the generator.

        The pool forks lazily, on the first ``next``, and only for two
        or more items, with ``min(jobs, len(items))`` workers; fewer
        items, a serial runner, or a pool that cannot be built run
        in-process.  Payloads are *not* replayed here: the run store's
        :func:`~repro.analysis.runstore.journaled_imap` replays them in
        item order, exactly as far as a caller that stops early
        (first-violation reductions) would have executed serially, and
        the caller then closes the generator — with
        :func:`contextlib.closing`, so the workers have exited when
        the caller moves on.  Payloads are empty when telemetry is
        disabled.  ``fn`` may be any callable (closures welcome — see
        module docstring); items and results must be picklable when
        running parallel.
        """
        global _WORK, _STOP, _PARENT
        work = list(items)
        pool = None
        if len(work) > 1 and self.parallel:
            context = multiprocessing.get_context("fork")
            previous = (_WORK, _STOP, _PARENT)
            stop = context.RawValue("b", 0)
            _WORK, _STOP, _PARENT = fn, stop, os.getpid()
            processes = min(self.jobs, len(work))
            before = set(multiprocessing.active_children())
            try:
                # SIGPIPE ends a worker blocked writing a result when its
                # parent dies, which would otherwise raise BrokenPipeError.
                pool = context.Pool(
                    processes,
                    initializer=signal.signal,
                    initargs=(signal.SIGPIPE, signal.SIG_DFL),
                )
            except (OSError, ValueError) as exc:  # pool could not be built
                _WORK, _STOP, _PARENT = previous
                logger.info(
                    "ParallelRunner falling back to serial: pool failed (%s)",
                    exc,
                )
        if pool is None:
            for item in work:
                yield _run_captured(fn, item)
            return
        workers = [
            p for p in multiprocessing.active_children() if p not in before
        ]
        obs.emit(obs.WORKER_POOL, processes=processes)
        chunks = _chunks(work, processes)
        results = pool.imap(_call_chunk, chunks)
        merged = 0
        lost: int | None = None  # first undelivered item once a worker died
        try:
            for _ in chunks:
                try:
                    outcomes = _next(results, workers)
                except _WorkerLost:
                    logger.warning(
                        "a pool worker died; finishing %d item(s) serially",
                        len(work) - merged,
                    )
                    lost = merged
                    break
                for ok, value, error in outcomes:
                    index = merged
                    merged += 1
                    if ok:
                        yield value
                        continue
                    logger.warning(
                        "worker failed on item #%d (%r): %s; "
                        "re-executing serially",
                        index, work[index], error,
                    )
                    yield _retry(fn, index, work[index], error or "unknown")
        finally:
            # Workers that ran ahead finish the item in hand and skip
            # the rest; once every item is accounted for, the pool exits
            # through its own sentinels, so no worker is ever killed
            # while it holds a queue lock.  A pool that has lost a
            # worker (now or while draining) is terminated instead.
            stop.value = 1
            if lost is None:
                try:
                    while True:
                        _next(results, workers)
                except StopIteration:
                    pass
                except _WorkerLost:
                    lost = len(work)
            if lost is None:
                pool.close()
            else:
                pool.terminate()
            pool.join()
            _WORK, _STOP, _PARENT = previous
            obs.emit(obs.WORKER_MERGE, items=merged)
        for rest in range(len(work) if lost is None else lost, len(work)):
            yield _retry(fn, rest, work[rest], "worker died")

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        """Apply ``fn`` to every item; results in item order.

        Each item's telemetry is replayed in item order, so the merged
        event stream is byte-identical to the serial run's.
        """
        results = []
        for result, payload in self.imap_captured(fn, items):
            obs.replay(payload)
            results.append(result)
        return results

    def map_captured(
        self, fn: Callable[[T], R], items: Iterable[T]
    ) -> list[tuple[R, tuple]]:
        """:meth:`imap_captured`, collected into a list."""
        return list(self.imap_captured(fn, items))


def _next(results: Any, workers: list) -> Any:
    """The next task's result, raising :class:`_WorkerLost` if a worker
    dies first (its in-flight task would never be delivered)."""
    while True:
        try:
            return results.next(timeout=_POLL_S)
        except multiprocessing.TimeoutError:
            if not all(p.is_alive() for p in workers):
                raise _WorkerLost from None


def _retry(
    fn: Callable[[Any], Any], index: int, item: Any, error: str
) -> tuple[Any, tuple]:
    """Serially re-execute one item the pool did not deliver.

    A success stands in for the failed result (captured from scratch,
    so the merged event stream is exactly what an all-healthy run
    produces).  A second failure raises :class:`ItemError`.
    """
    obs.emit(obs.WORKER_RETRY, index=index, error=error)
    try:
        return _run_captured(fn, item)
    except Exception as exc:
        raise ItemError(index, item, exc) from exc


__all__ = [
    "ItemError",
    "ParallelRunner",
    "available_parallelism",
    "fork_available",
]
