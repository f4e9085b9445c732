"""Deterministic parallel drivers for campaigns and sweeps.

Every unit of work this repo fans out — a campaign attempt, a sweep
point, a degradation-frontier budget level — is already deterministic
given its index and a seed.  That makes parallelism *embarrassingly*
safe: evaluate items in any order, merge results back **in item
order**, and the outcome is byte-identical to the serial run.  This
module supplies the one primitive everything else needs:

:class:`ParallelRunner` — an ordered, streamed map over **one** process
pool per call (:meth:`ParallelRunner.imap_captured`, or several
dispatches sharing one :meth:`ParallelRunner.pool`), with a serial
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
* **One pool, streamed in order.**  Items go to the workers through
  ``Pool.imap`` (one item per task) and come back in item order, so
  "first violation" style reductions in the caller see the same order
  serial execution produced.  Workers run ahead of the caller's merge;
  a caller that stops early closes the stream, which raises the pool's
  stop flag: workers finish the item in hand, skip the rest, and exit
  through the pool's own shutdown.  Results the caller never consumed
  are discarded.  Workers are not killed mid-run, because a worker
  killed while sending a result leaves the result queue's lock held
  and ``Pool.terminate`` then waits on it forever.
* **Per-item fault tolerance.**  A worker exception does not abort the
  whole stream: the trampoline ships failures back as values (with the
  item's partially captured telemetry), and the parent re-executes the
  failed item serially.  A worker *process* that dies (SIGKILL, OOM
  killer) is noticed while the parent waits on the next result: the
  pool is terminated and every undelivered item is finished serially
  in the parent.  Only when a serial retry *also* fails does the error
  surface — as an :class:`ItemError` carrying the item's index, the
  item itself, and the worker's captured event payload, so a
  post-mortem knows exactly which unit died and what it had logged.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
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

    Carries the item's identity (``index`` into the mapped sequence and
    the ``item`` value itself — for campaigns that is the attempt index
    that seeds the failing scenario) plus ``payload``, the telemetry
    events the worker captured before dying, so the failure's partial
    trace is preserved rather than silently dropped.  The retry's
    exception is chained as ``__cause__``.
    """

    def __init__(
        self,
        index: int,
        item: Any,
        error: BaseException | str,
        payload: tuple = (),
    ) -> None:
        self.index = index
        self.item = item
        self.payload = payload
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
    aborts the stream nor loses its identity, and its partial capsule
    still rides back — post-mortem traces stay complete.
    """
    assert _WORK is not None, "worker forked before _WORK was set"
    if _STOP.value:
        return (True, (None, ()), None)
    with obs.capture() as capsule:
        try:
            result = _WORK(item)
        except Exception as exc:
            return (False, (None, capsule.payload()), repr(exc))
    return (True, (result, capsule.payload()), None)


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

    def pool(self, fn: Callable[[T], R]) -> WorkerPool:
        """A :class:`WorkerPool` running ``fn``; use it as a context
        manager so the pool is terminated when the caller is done."""
        return WorkerPool(self, fn)

    def imap_captured(
        self, fn: Callable[[T], R], items: Iterable[T]
    ) -> Iterator[tuple[R, tuple]]:
        """Stream ``(result, telemetry payload)`` pairs in item order
        from one pool that lives as long as the generator.

        Payloads are *not* replayed: callers whose serial semantics
        stop consuming early (first-violation reductions) replay them
        in item order, exactly as far as the serial run would have
        executed, then close the generator (or drop it), which
        terminates the pool.  Payloads are empty when telemetry is
        disabled.  ``fn`` may be any callable (closures welcome — see
        module docstring); items and results must be picklable when
        running parallel.
        """
        with self.pool(fn) as pool:
            yield from pool.imap_captured(items)

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


class WorkerPool:
    """One fork pool for one work function, shared by every dispatch
    made through :meth:`imap_captured` until :meth:`close`.

    The pool forks at most once, lazily, on the first dispatch of two
    or more items, with ``min(jobs, len(items))`` workers.  Smaller
    dispatches, and every dispatch once the pool could not be built or
    lost a worker, run serially in the parent.
    """

    def __init__(self, runner: ParallelRunner, fn: Callable[[Any], Any]) -> None:
        self.runner = runner
        self.fn = fn
        self._pool: Any = None
        self._workers: list[multiprocessing.process.BaseProcess] = []
        self._streams: list[Any] = []
        self._stop: Any = None
        self._forked = False
        self._merged = 0
        self._previous: tuple[Any, Any] = (None, None)

    def __enter__(self) -> WorkerPool:
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Shut the pool down and report how many results it delivered.

        Workers that ran ahead finish the item in hand and skip the
        rest; once every dispatched item is accounted for, the pool
        exits through its own sentinels, so no worker is ever killed
        while it holds a queue lock.  A pool that loses a worker while
        draining is terminated instead.
        """
        if self._pool is None:
            return
        self._stop.value = 1
        try:
            for results in self._streams:
                self._drain(results)
        except _WorkerLost:
            self._shutdown(terminate=True)
            return
        self._shutdown(terminate=False)

    def _drain(self, results: Any) -> None:
        """Consume and discard a dispatch's undelivered results."""
        while True:
            try:
                self._next(results)
            except StopIteration:
                return

    def _shutdown(self, terminate: bool) -> None:
        global _WORK, _STOP
        pool, self._pool = self._pool, None
        if terminate:
            pool.terminate()
        else:
            pool.close()
        pool.join()
        self._streams = []
        _WORK, _STOP = self._previous
        obs.emit(obs.WORKER_MERGE, items=self._merged)

    def imap_captured(self, items: Iterable[Any]) -> Iterator[tuple[Any, tuple]]:
        """Yield ``(result, telemetry payload)`` per item, in item order."""
        work = list(items)
        if len(work) <= 1 or not self._start(len(work)):
            for item in work:
                yield _run_captured(self.fn, item)
            return
        results = self._pool.imap(_call_captured, work)
        self._streams.append(results)
        for index, item in enumerate(work):
            try:
                ok, value, error = self._next(results)
            except _WorkerLost:
                logger.warning(
                    "a pool worker died; finishing %d item(s) serially",
                    len(work) - index,
                )
                self._shutdown(terminate=True)
                for rest in range(index, len(work)):
                    yield self._retry(rest, work[rest], "worker died", ())
                return
            self._merged += 1
            if ok:
                yield value
                continue
            logger.warning(
                "worker failed on item #%d (%r): %s; re-executing serially",
                index, item, error,
            )
            yield self._retry(index, item, error or "unknown", value[1])
        self._streams.remove(results)

    def _start(self, size: int) -> bool:
        """Fork the pool unless it is running already; ``False`` means
        run this dispatch serially."""
        global _WORK, _STOP
        if self._pool is not None:
            return True
        if not self.runner.parallel or self._forked:
            return False
        self._forked = True
        context = multiprocessing.get_context("fork")
        self._previous = (_WORK, _STOP)
        self._stop = context.RawValue("b", 0)
        _WORK, _STOP = self.fn, self._stop
        processes = min(self.runner.jobs, size)
        before = set(multiprocessing.active_children())
        try:
            self._pool = context.Pool(processes)
        except (OSError, ValueError) as exc:  # pool could not be built
            _WORK, _STOP = self._previous
            logger.info(
                "ParallelRunner falling back to serial: pool failed (%s)",
                exc,
            )
            return False
        self._workers = [
            p for p in multiprocessing.active_children() if p not in before
        ]
        obs.emit(obs.WORKER_POOL, processes=processes)
        return True

    def _next(self, results: Any) -> tuple[bool, Any, str | None]:
        """The next result, raising :class:`_WorkerLost` if a worker
        dies first (its in-flight item would never be delivered)."""
        while True:
            try:
                return results.next(timeout=_POLL_S)
            except multiprocessing.TimeoutError:
                if not all(p.is_alive() for p in self._workers):
                    raise _WorkerLost from None

    def _retry(
        self, index: int, item: Any, error: str, worker_payload: tuple
    ) -> tuple[Any, tuple]:
        """Serially re-execute one item the pool did not deliver.

        A success stands in for the failed result (re-captured from
        scratch, so the merged event stream is exactly what an
        all-healthy run produces — the worker's partial capsule is
        discarded).  A second failure raises :class:`ItemError`,
        preserving the worker's partial capsule for post-mortems.
        """
        obs.emit(obs.WORKER_RETRY, index=index, error=error)
        try:
            return _run_captured(self.fn, item)
        except Exception as exc:
            raise ItemError(index, item, exc, worker_payload) from exc


__all__ = [
    "ItemError",
    "ParallelRunner",
    "WorkerPool",
    "available_parallelism",
    "fork_available",
]
