"""Crash-safe run store: durable journals of campaign progress.

The ROADMAP's north star — "heavy traffic, as many scenarios as you can
imagine" — means searches that outlive a single uninterrupted process.
This module makes partial progress durable: every completed work item
(a campaign attempt, a degradation-frontier budget level, a sweep
point) is journaled to an append-only JSONL *shard* the moment it
merges, and a later run against the same store skips the journaled
items and continues from the exact index position where the previous
process died.  All three go through one stream,
:func:`journaled_imap`.

Layout and guarantees
---------------------
::

    <store>/
      meta.json               # how to re-run: command + args (atomic)
      shards/<key>.jsonl      # one journal per run content-fingerprint

* **Content-addressed shards.**  A shard's filename is a fingerprint
  over everything that determines the run's item stream (graph shape,
  device factory, budgets, seed, link kinds — see
  :func:`repro.analysis.campaign.campaign_store_key` and friends), so
  one store directory can be shared across many runs: a resumed run
  finds exactly its own journal, and an unrelated run gets a fresh one.
* **Atomic metadata.**  ``meta.json`` is written via
  :func:`atomic_write_text` (tmp file + ``fsync`` + ``os.replace``): a
  crash mid-write can never leave a truncated file behind.
* **Append-only journals that write through.**  Each record is one
  JSON line, written and flushed in a single call and then dropped from
  memory: a shard holds only the records its file held when it was
  opened, which is all a resume reads.  A process killed mid-append can
  tear at most the final line, which the loader discards (the item
  simply re-executes on resume); the first append after such a load
  cuts the file back to the end of the last good record, ending that
  record's line if it has no newline, so every appended record starts
  a line of its own.  Opening a shard changes no byte.  Garbage
  *before* the last line is real corruption and raises
  :class:`RunStoreError` with a clear message.  :func:`journaled_imap`
  fsyncs every ``max(4 * jobs, 8)`` merged items and when a stream ends
  (:meth:`Shard.sync`), and :meth:`Shard.close` fsyncs once more —
  bounding loss to the unsynced suffix even on power failure, while
  keeping the per-item cost to a buffered write.
* **Equivalence.**  A journaled record stores the item's result *and*
  (when telemetry is enabled) its payload as captured — every run-scope
  event the original execution emitted, a campaign attempt's from
  ``attempt_start`` to ``attempt_end`` — as JSON lists.  The stream
  replays a reused item's payload where it replays a fresh one's, so a
  resumed run's traces and ``run.*`` metrics are byte-identical to an
  uninterrupted run's.  Records journaled with telemetry off carry no
  payload and are deliberately **not** reused by a telemetry-on resume
  — the item re-executes so the trace stays complete.  Checkpoint
  reuse/write facts are host-scope events, counted and never captured.
* **One format.**  :meth:`RunStore.read_meta` and
  :meth:`RunStore.write_meta` both refuse a ``meta.json`` of another
  :data:`STORE_FORMAT`, before any shard opens.
"""

from __future__ import annotations

import glob
import json
import os
import tempfile
from collections.abc import Callable, Iterable, Iterator
from pathlib import Path
from typing import Any, TypeVar

from .. import obs

T = TypeVar("T")
R = TypeVar("R")

STORE_FORMAT = "repro-runstore/2"
META_NAME = "meta.json"
SHARD_DIR = "shards"

#: Age past which :func:`atomic_write_text` takes a sibling temp file
#: for a killed write's leftover.  A live write modifies its temp file
#: milliseconds before renaming it.
STALE_TMP_SECONDS = 60.0


class RunStoreError(ValueError):
    """A run store is missing, malformed, or corrupt.

    Subclasses :class:`ValueError` so CLI error handling reports it as
    a clear one-line message instead of a traceback.
    """


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path`` atomically: tmp + fsync + rename.

    The temporary file lives in the destination directory (rename is
    only atomic within a filesystem) and is fsynced before the
    ``os.replace``, so a crash at any point leaves either the old file
    or the complete new one — never a truncated hybrid.  A kill between
    the two leaves ``<name>.<8 random characters>.tmp`` behind.  Once
    the rename lands, such siblings last modified more than
    :data:`STALE_TMP_SECONDS` before this write began are removed; a
    younger one may be another process's write in flight (runs may
    share a store, and so its ``meta.json``), and is kept.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent) or ".", prefix=path.name + ".", suffix=".tmp"
    )
    cutoff = os.fstat(fd).st_mtime - STALE_TMP_SECONDS
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    for stale in path.parent.glob(glob.escape(path.name) + ".????????.tmp"):
        try:
            if stale.stat().st_mtime < cutoff:
                stale.unlink()
        except OSError:
            pass
    return path


# -- the journal ------------------------------------------------------------


def reusable(record: dict | None) -> bool:
    """May this journal record satisfy the current run's needs?

    A record without a stored event payload cannot reproduce the item's
    trace, so it only counts when telemetry is off.
    """
    if record is None:
        return False
    return not obs.is_enabled() or "obs" in record


class Shard:
    """One append-only JSONL journal of completed work items.

    Records are ``{"k": item_key, "v": {...}}`` lines; the constructor
    loads any existing journal into memory (last record wins per key,
    torn tail tolerated), and :meth:`get` answers from that load only.
    :meth:`append` writes and flushes one line and keeps nothing — a
    SIGKILL immediately after still finds the record on disk — and
    :meth:`sync` fsyncs at merge points.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._records: dict[str, dict] = {}
        self._fh = None
        self._unsynced = False
        #: Where the first append cuts the file (the end of the last
        #: good record), or ``None`` when the file ends cleanly.
        self._cut: int | None = None
        self._load()

    def _load(self) -> None:
        if not self.path.exists():
            return
        try:
            data = self.path.read_bytes()
        except OSError as exc:
            raise RunStoreError(
                f"cannot read journal shard {self.path}: {exc}"
            ) from exc
        pending: dict[str, dict] = {}
        bad_line: int | None = None
        good_end = offset = 0
        for lineno, line in enumerate(data.split(b"\n"), 1):
            line_start, offset = offset, offset + len(line) + 1
            if not line.strip():
                continue
            if bad_line is not None:
                # Parseable-or-not, content after a bad line means the
                # bad line was not a torn tail: corruption.
                raise RunStoreError(
                    f"corrupt journal shard {self.path}: unparseable "
                    f"record at line {bad_line} is not the final line; "
                    "the store cannot be trusted for resume"
                )
            try:
                record = json.loads(line)
            except ValueError:
                record = None
            if not isinstance(record, dict) or "k" not in record:
                bad_line = lineno
                continue
            pending[str(record["k"])] = record.get("v", {})
            good_end = line_start + len(line)
        # A trailing unparseable line is the signature of a crash
        # mid-append: drop it, the item re-executes on resume.
        self._records = pending
        if bad_line is not None or not data.endswith(b"\n"):
            self._cut = good_end

    def get(self, item_key: str) -> dict | None:
        """The record for ``item_key`` as loaded when the shard was
        opened, or ``None``; appends never show here."""
        return self._records.get(item_key)

    def append(self, item_key: str, value: dict) -> None:
        """Journal one completed item (write + flush; keeps nothing)."""
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a")
            if self._cut is not None:
                # Drop a torn tail and end the last good record's line,
                # so this record starts a line of its own.
                self._fh.truncate(self._cut)
                if self._cut:
                    self._fh.write("\n")
                self._cut = None
        line = json.dumps(
            {"k": item_key, "v": value},
            sort_keys=True,
            separators=(",", ":"),
        )
        self._fh.write(line + "\n")
        self._fh.flush()
        self._unsynced = True
        obs.emit(obs.CHECKPOINT_WRITE, item=item_key)

    def sync(self) -> None:
        """fsync the journal (called at merge points and on close)."""
        if self._fh is not None and self._unsynced:
            os.fsync(self._fh.fileno())
        self._unsynced = False

    def close(self) -> None:
        if self._fh is not None:
            self.sync()
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "Shard":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class RunStore:
    """A directory of journal shards plus resume metadata."""

    def __init__(self, root: str | Path, create: bool = True) -> None:
        self.root = Path(root)
        if create:
            (self.root / SHARD_DIR).mkdir(parents=True, exist_ok=True)
        elif not self.root.is_dir():
            raise RunStoreError(f"no run store at {self.root}")

    @property
    def meta_path(self) -> Path:
        return self.root / META_NAME

    def shard(self, key: str) -> Shard:
        """The journal shard for content fingerprint ``key``."""
        return Shard(self.root / SHARD_DIR / f"{key}.jsonl")

    def write_meta(self, command: str, seed: int, args: dict) -> None:
        """Atomically record how to re-run this store's command; raises
        :class:`RunStoreError`, writing nothing, if the store already
        holds metadata that :meth:`read_meta` refuses (another format)."""
        if self.meta_path.exists():
            self.read_meta()
        meta = {
            "format": STORE_FORMAT,
            "command": command,
            "seed": seed,
            "args": args,
        }
        atomic_write_text(
            self.meta_path, json.dumps(meta, indent=2, sort_keys=True) + "\n"
        )

    def read_meta(self) -> dict:
        """The resume metadata; raises :class:`RunStoreError` on a
        missing, truncated, or foreign file."""
        try:
            text = self.meta_path.read_text()
        except FileNotFoundError:
            raise RunStoreError(
                f"{self.meta_path} not found: not a run store (was the "
                "run started with --checkpoint?)"
            ) from None
        except OSError as exc:
            raise RunStoreError(
                f"cannot read {self.meta_path}: {exc}"
            ) from exc
        try:
            meta = json.loads(text)
        except json.JSONDecodeError as exc:
            raise RunStoreError(
                f"corrupt or truncated run-store metadata in "
                f"{self.meta_path}: {exc}"
            ) from exc
        if not isinstance(meta, dict) or meta.get("format") != STORE_FORMAT:
            raise RunStoreError(
                f"{self.meta_path} is not {STORE_FORMAT} metadata "
                f"(format={meta.get('format') if isinstance(meta, dict) else None!r})"
            )
        return meta


# -- checkpoint-aware ordered stream ----------------------------------------


def journaled_imap(
    runner: Any,
    fn: Callable[[T], R],
    items: Iterable[T],
    shard: Shard | None,
    key_fn: Callable[[T], str],
    encode: Callable[[R], dict],
    decode: Callable[[dict], R],
) -> Iterator[R]:
    """Stream each item's result over ``items``, in item order,
    journaling each fresh item and replaying its telemetry as it merges.

    The one checkpoint-aware driver behind campaigns, frontier levels
    and sweep points.  ``shard`` (anything with :class:`Shard`'s
    ``get``, ``append`` and ``sync``; ``None`` journals nothing) is read
    once: items whose key holds a :func:`reusable` record decode from
    it, with its recorded events as the payload.  The rest stream
    through ``runner`` (a :class:`~repro.analysis.parallel.
    ParallelRunner`), and each is appended as ``encode(result)`` plus,
    when telemetry is on, its captured payload — before it is yielded,
    so a process killed after merging an item has journaled it.  The
    journal is fsynced every ``max(4 * jobs, 8)`` merged items and once
    more when the stream ends or is closed early.

    Right before yielding an item, the stream replays its payload
    (:func:`repro.obs.replay`), so reused items emit the events their
    original execution emitted and traces and ``run.*`` metrics cannot
    tell the difference.  Callers close the stream with
    :func:`contextlib.closing`, which also shuts the runner's pool
    down; items past the point where they stop are never replayed.
    """
    work = list(items)
    keys = [key_fn(item) for item in work]
    records = [None if shard is None else shard.get(key) for key in keys]
    reused = [reusable(record) for record in records]
    obs_on = obs.is_enabled()
    every = max(4 * runner.jobs, 8)
    fresh = runner.imap_captured(
        fn, [item for item, old in zip(work, reused) if not old]
    )
    merged = 0
    try:
        for key, record, old in zip(keys, records, reused):
            if old:
                obs.emit(obs.CHECKPOINT_REUSE, item=key)
                result, payload = decode(record), record.get("obs", ())
            else:
                result, payload = next(fresh)
                if shard is not None:
                    value = encode(result)
                    if obs_on:
                        value["obs"] = payload
                    shard.append(key, value)
            merged += 1
            if shard is not None and merged % every == 0:
                shard.sync()
            if obs_on:
                obs.replay(payload)
            yield result
    finally:
        fresh.close()
        if shard is not None and merged % every:
            shard.sync()


__all__ = [
    "META_NAME",
    "RunStore",
    "RunStoreError",
    "STORE_FORMAT",
    "Shard",
    "atomic_write_text",
    "journaled_imap",
    "reusable",
]
