"""Content-addressed persistent result store.

The store promotes the per-run JSON cache of :mod:`repro.core.parallel`
into a durable, shareable artifact: one directory that any number of
sweep processes — across runs, machines and CI workflows — can read and
write concurrently, so repeated sweep/resilience/workload queries become
O(1) lookups and only novel candidates ever hit the simulator.

Layout (``STORE_SCHEMA`` 2)::

    <root>/
        store.json                  # {"schema": 2, "generation": N}
        objects/<key[:2]>/<key>.json
        quarantine/<name>           # corrupt entries moved aside, never lost

* **Content-addressed.**  Keys are the existing SHA-256 candidate
  identity (:func:`result_key` hashes the candidate ``key_dict`` plus the
  full simulation configuration under ``KEY_SCHEMA``), unchanged from the
  flat cache of earlier versions, so previously computed results keep
  their addresses.
* **Sharded.**  Entries fan out into 256 two-hex-character
  subdirectories, keeping directory listings small at millions of
  entries.
* **Atomic and lock-free.**  Entries are written to a temp file and
  published with :func:`os.replace`; readers only ever open complete
  entries.  Concurrent writers of the same key converge because the key
  determines the result bit-for-bit (deterministic seeds), so whichever
  replace lands last changes nothing observable.
* **Versioned.**  ``store.json`` carries the layout schema.  Older
  layouts are migrated in place exactly once (the flat per-run layout of
  earlier versions is schema 1, see :meth:`ResultStore.migrated`);
  layouts newer than this code are rejected with
  :class:`StoreSchemaError` instead of being misread.
* **Generation-guarded hygiene.**  Every open bumps a persistent
  generation counter under an exclusive :func:`fcntl.flock` on
  ``<root>/store.lock`` (the read, the bump, the write and any migration
  run under it), so concurrent openers in any process get distinct
  generations.  Temp files embed ``(generation, pid)`` plus a
  per-process write counter, so two handles or threads of one process
  never share a temp file.  The orphan sweep removes only temp files
  from *older* generations whose writer pid is dead at the check.
* **Long-lived handles.**  A handle keeps the generation it opened at
  for its whole lifetime: a service's
  :class:`~repro.service.jobs.JobManager` opens one handle and writes
  under its generation for as long as it runs, while later openers sweep
  with newer generations.  The sweep still never removes a live
  writer's temp file, because it skips every file whose pid is alive;
  and a pid recycled after the check belongs to a process that opens
  the store later, under a strictly newer generation the sweep skips
  too — the filename differs even when the pid matches.
"""

from __future__ import annotations

import fcntl
import hashlib
import itertools
import json
import os
import re
import threading
from dataclasses import dataclass, field
from typing import Any, Iterator

#: Version of the key-identity payload hashed into entry keys.  This is
#: the ``schema`` field the flat cache always hashed, kept at 1 so every
#: previously computed cache key stays valid.
KEY_SCHEMA = 1

#: Version of the on-disk layout and entry format.  Bump when either
#: changes, and register a migration (or let old stores be rejected).
STORE_SCHEMA = 2

#: The flat one-directory layout of earlier versions (``<key>.json``
#: entries with ``<key>.manifest.json`` sidecars, no meta file).
LEGACY_FLAT_SCHEMA = 1

_META_NAME = "store.json"
_LOCK_NAME = "store.lock"
_OBJECTS_DIR = "objects"
_QUARANTINE_DIR = "quarantine"
_SHARD_WIDTH = 2

_KEY_RE = re.compile(r"^[0-9a-f]{64}$")
# Temp names are ``<name>.tmp.g<gen>.p<pid>.n<write>``; the ``.n`` suffix
# is optional so temp files of earlier versions still parse.
_TMP_RE = re.compile(r"^(?P<stem>.+\.json)\.tmp\.g(?P<gen>\d+)\.p(?P<pid>\d+)(?:\.n\d+)?$")
_LEGACY_TMP_RE = re.compile(r"^(?P<stem>.+\.json)\.tmp\.(?P<pid>\d+)$")


#: Process-wide temp-file serial (``next`` on a count is atomic under the
#: GIL), so concurrent writes of one process never collide on a temp name.
_TMP_SERIAL = itertools.count()


def _tmp_path(path: str, generation: int) -> str:
    """A temp-file name for one write of ``path``, unique in this process."""
    return f"{path}.tmp.g{generation}.p{os.getpid()}.n{next(_TMP_SERIAL)}"


class StoreSchemaError(RuntimeError):
    """The store's on-disk schema cannot be used by this code."""


def result_key(candidate: dict[str, Any], config: dict[str, Any]) -> str:
    """Stable SHA-256 key of one (candidate identity, configuration) result.

    This is the exact computation the flat cache used (sorted-key JSON of
    ``{"schema": KEY_SCHEMA, "candidate": ..., "config": ...}``), so keys
    are unchanged across the layout migration.
    """
    payload = {"schema": KEY_SCHEMA, "candidate": candidate, "config": config}
    canonical = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(canonical).hexdigest()


def is_result_key(text: str) -> bool:
    """Whether ``text`` is a well-formed entry key (64 lowercase hex chars)."""
    return bool(_KEY_RE.match(text))


def _pid_alive(pid: int) -> bool:
    """Whether a process with this pid currently exists (signal-0 probe)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        # EPERM and friends: the process exists but is not ours.
        return True
    return True


@dataclass(frozen=True)
class StoreEntry:
    """One complete store entry: key, candidate identity, result, manifest."""

    key: str
    candidate: dict[str, Any]
    result: dict[str, Any]
    manifest: dict[str, Any] | None = None


@dataclass
class StoreCounters:
    """Per-:class:`ResultStore`-instance runtime counters.

    ``hits``/``misses`` count :meth:`ResultStore.load` outcomes through
    this handle (the cross-run hit ratio is what the sweep progress
    tracker reports); ``writes`` counts published entries and
    ``quarantined`` counts corrupt entries moved aside.  A handle shared
    by several threads (every job of a
    :class:`~repro.service.jobs.JobManager`) counts for all of them; the
    store updates the counters under a lock, so the totals stay exact.
    """

    hits: int = 0
    misses: int = 0
    writes: int = 0
    quarantined: int = 0

    @property
    def hit_ratio(self) -> float:
        seen = self.hits + self.misses
        return self.hits / seen if seen else 0.0


@dataclass(frozen=True)
class StoreStats:
    """A disk-level snapshot of the store (see :meth:`ResultStore.stats`)."""

    schema: int
    generation: int
    entries: int
    total_bytes: int
    shards: int
    quarantined: int
    orphan_tmp: int


@dataclass(frozen=True)
class StoreGCResult:
    """What one :meth:`ResultStore.gc` pass removed."""

    removed_tmp: int
    removed_quarantined: int
    pruned_shards: int
    freed_bytes: int


@dataclass
class ResultStore:
    """A content-addressed, sharded, cross-process-safe result store.

    Opening a store creates or validates the root (rejecting
    newer-schema stores, migrating older layouts exactly once), bumps
    the persistent generation counter under the root's lock file and
    sweeps orphaned temp files of dead writers from older generations.
    Every construction is one such open; callers that run many sweeps
    over one root (a :class:`~repro.service.jobs.JobManager`) open one
    handle and share it.  A shared handle survives its root being
    removed: a lookup misses and the next publish recreates the shard.
    """

    root: str
    _generation: int = field(init=False, default=0)
    _migrated: int = field(init=False, default=0)
    _preexisting: bool = field(init=False, default=False)
    counters: StoreCounters = field(init=False, default_factory=StoreCounters)
    _counter_lock: threading.Lock = field(
        init=False, default_factory=threading.Lock, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.root = os.fspath(self.root)
        os.makedirs(self.root, exist_ok=True)
        with open(os.path.join(self.root, _LOCK_NAME), "a", encoding="utf-8") as lock:
            # Released when the file closes.  flock locks belong to the
            # open file, so threads of one process exclude each other too.
            fcntl.flock(lock, fcntl.LOCK_EX)
            self._open_meta()
        os.makedirs(self._objects_root(), exist_ok=True)
        self.sweep_orphans()

    # -- layout --------------------------------------------------------------

    def _objects_root(self) -> str:
        return os.path.join(self.root, _OBJECTS_DIR)

    def _quarantine_root(self) -> str:
        return os.path.join(self.root, _QUARANTINE_DIR)

    def _meta_path(self) -> str:
        return os.path.join(self.root, _META_NAME)

    def entry_path(self, key: str) -> str:
        """Absolute path of the (existing or future) entry for ``key``."""
        return os.path.join(self._objects_root(), key[:_SHARD_WIDTH], f"{key}.json")

    @property
    def generation(self) -> int:
        """The generation this store instance opened at (monotonic per root)."""
        return self._generation

    @property
    def migrated(self) -> int:
        """Number of legacy entries migrated into the store when it opened."""
        return self._migrated

    @property
    def preexisting(self) -> bool:
        """Whether the root already held a (possibly legacy) store when opened."""
        return self._preexisting

    # -- meta / schema -------------------------------------------------------

    def _open_meta(self) -> None:
        meta_path = self._meta_path()
        schema = None
        generation = 0
        if os.path.exists(meta_path):
            self._preexisting = True
            try:
                with open(meta_path, "r", encoding="utf-8") as handle:
                    meta = json.load(handle)
                schema = meta["schema"]
                generation = int(meta.get("generation", 0))
            except (OSError, ValueError, KeyError, TypeError) as error:
                raise StoreSchemaError(
                    f"unreadable store meta {meta_path!r}: {error}"
                ) from error
        elif self._has_flat_entries():
            # A populated directory without a meta file is the legacy
            # flat layout (schema 1) of earlier versions.
            self._preexisting = True
            schema = LEGACY_FLAT_SCHEMA
        if schema is not None:
            if not isinstance(schema, int) or schema > STORE_SCHEMA:
                raise StoreSchemaError(
                    f"store at {self.root!r} has schema {schema!r}, newer than "
                    f"the supported schema {STORE_SCHEMA}; upgrade this "
                    "installation (or point --cache-dir at a fresh directory)"
                )
            if schema < STORE_SCHEMA:
                migrate = _MIGRATIONS.get(schema)
                if migrate is None:
                    raise StoreSchemaError(
                        f"store at {self.root!r} has schema {schema} and no "
                        f"migration path to schema {STORE_SCHEMA}; run "
                        "'hexamesh store migrate' with a version that supports "
                        "it, or start a fresh directory"
                    )
                self._migrated = migrate(self)
        self._generation = generation + 1
        self._write_meta()

    def _write_meta(self) -> None:
        payload = {"schema": STORE_SCHEMA, "generation": self._generation}
        tmp_path = _tmp_path(self._meta_path(), self._generation)
        try:
            with open(tmp_path, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(tmp_path, self._meta_path())
        finally:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass

    def _has_flat_entries(self) -> bool:
        try:
            names = os.listdir(self.root)
        except OSError:
            return False
        return any(
            name.endswith(".json") and is_result_key(name[: -len(".json")])
            for name in names
        )

    # -- entry I/O -----------------------------------------------------------

    def load(self, key: str) -> StoreEntry | None:
        """Return the complete entry for ``key``, or ``None`` on a miss.

        Corrupt entries (unparseable, wrong key, missing fields) are
        quarantined and reported as misses; entries written under a
        different entry schema are rejected as misses so callers
        recompute and overwrite them.  Hits and misses update
        :attr:`counters`.
        """
        entry = self._read_entry(key)
        with self._counter_lock:
            if entry is None:
                self.counters.misses += 1
            else:
                self.counters.hits += 1
        return entry

    def get(self, key: str) -> StoreEntry | None:
        """Like :meth:`load` but without touching the hit/miss counters."""
        return self._read_entry(key)

    def _read_entry(self, key: str) -> StoreEntry | None:
        path = self.entry_path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            self._quarantine(path)
            return None
        entry = self._entry_from_payload(key, payload)
        if entry is None and isinstance(payload, dict) and (
            payload.get("schema") == STORE_SCHEMA or "schema" not in payload
        ):
            # Structurally broken under the current schema: quarantine.
            # (A clean version mismatch is left in place — the caller
            # recomputes and atomically overwrites it.)
            self._quarantine(path)
        return entry

    def _entry_from_payload(self, key: str, payload: Any) -> StoreEntry | None:
        if not isinstance(payload, dict):
            return None
        if payload.get("schema") != STORE_SCHEMA:
            return None
        if payload.get("key") != key:
            return None
        candidate = payload.get("candidate")
        result = payload.get("result")
        manifest = payload.get("manifest")
        if not isinstance(candidate, dict) or not isinstance(result, dict):
            return None
        if manifest is not None and not isinstance(manifest, dict):
            return None
        return StoreEntry(key=key, candidate=candidate, result=result, manifest=manifest)

    def store(
        self,
        key: str,
        *,
        candidate: dict[str, Any],
        result: dict[str, Any],
        manifest: dict[str, Any] | None = None,
    ) -> str:
        """Atomically publish one entry; returns its path.

        The write goes to a uniquely named temp file in the
        target shard and lands with :func:`os.replace`, so a concurrent
        reader observes either the previous complete entry or the new
        complete entry, never bytes in between.
        """
        path = self.entry_path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = {
            "schema": STORE_SCHEMA,
            "key": key,
            "candidate": candidate,
            "result": result,
            "manifest": manifest,
        }
        tmp_path = _tmp_path(path, self._generation)
        try:
            with open(tmp_path, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(tmp_path, path)
        finally:
            # In-process failure cleanup; out-of-process deaths are the
            # orphan sweep's job.
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
        with self._counter_lock:
            self.counters.writes += 1
        return path

    def contains(self, key: str) -> bool:
        """Whether a (possibly corrupt) entry file exists for ``key``."""
        return os.path.exists(self.entry_path(key))

    def keys(self) -> list[str]:
        """All entry keys currently on disk, sorted."""
        found: list[str] = []
        for shard, names in self._iter_shards():
            del shard
            for name in names:
                if name.endswith(".json") and is_result_key(name[: -len(".json")]):
                    found.append(name[: -len(".json")])
        return sorted(found)

    def iter_entries(self) -> Iterator[StoreEntry]:
        """Yield every readable entry (corrupt ones are quarantined, skipped)."""
        for key in self.keys():
            entry = self._read_entry(key)
            if entry is not None:
                yield entry

    def _iter_shards(self) -> Iterator[tuple[str, list[str]]]:
        objects = self._objects_root()
        try:
            shards = sorted(os.listdir(objects))
        except OSError:
            return
        for shard in shards:
            shard_path = os.path.join(objects, shard)
            if not os.path.isdir(shard_path):
                continue
            try:
                yield shard_path, sorted(os.listdir(shard_path))
            except OSError:
                continue

    def _quarantine(self, path: str) -> None:
        """Move a corrupt entry aside (never delete possibly useful bytes)."""
        quarantine = self._quarantine_root()
        try:
            os.makedirs(quarantine, exist_ok=True)
            base = os.path.basename(path)
            target = os.path.join(quarantine, base)
            suffix = 0
            while os.path.exists(target):
                suffix += 1
                target = os.path.join(quarantine, f"{base}.{suffix}")
            os.replace(path, target)
        except OSError:
            return
        with self._counter_lock:
            self.counters.quarantined += 1

    # -- hygiene / stats -----------------------------------------------------

    def sweep_orphans(self) -> int:
        """Remove temp files stranded by dead writers of older generations.

        A temp file is an orphan exactly when its embedded generation is
        *older* than this store instance's and its writer pid is dead.
        The generation guard is what makes the pid probe safe against
        pid recycling: any live writer opened the store at a generation
        at least as new as ours (opens strictly increment the persisted
        counter), so its temp filenames can never collide with the
        orphans this sweep unlinks — even if the orphan's recorded pid
        has been recycled into that live writer's pid.  Returns the
        number of files removed.
        """
        removed = 0
        for shard_path, names in self._iter_shards():
            for name in names:
                match = _TMP_RE.match(name)
                if match is None:
                    continue
                if int(match.group("gen")) >= self._generation:
                    continue
                if _pid_alive(int(match.group("pid"))):
                    continue
                try:
                    os.unlink(os.path.join(shard_path, name))
                except OSError:
                    continue
                removed += 1
        return removed

    def stats(self) -> StoreStats:
        """Walk the store and return a disk-level snapshot."""
        entries = 0
        total_bytes = 0
        shards = 0
        orphan_tmp = 0
        for shard_path, names in self._iter_shards():
            shards += 1
            for name in names:
                path = os.path.join(shard_path, name)
                if _TMP_RE.match(name) or _LEGACY_TMP_RE.match(name):
                    orphan_tmp += 1
                    continue
                if name.endswith(".json") and is_result_key(name[: -len(".json")]):
                    entries += 1
                    try:
                        total_bytes += os.path.getsize(path)
                    except OSError:
                        continue
        try:
            quarantined = len(os.listdir(self._quarantine_root()))
        except OSError:
            quarantined = 0
        return StoreStats(
            schema=STORE_SCHEMA,
            generation=self._generation,
            entries=entries,
            total_bytes=total_bytes,
            shards=shards,
            quarantined=quarantined,
            orphan_tmp=orphan_tmp,
        )

    def gc(self, *, purge_quarantine: bool = True) -> StoreGCResult:
        """Clean the store: orphaned temp files, quarantine, empty shards.

        Orphan removal follows the same generation-and-liveness rule as
        :meth:`sweep_orphans` (a gc can run beside live sweeps).  Returns
        what was removed and how many bytes it freed.
        """
        freed = 0
        removed_tmp = 0
        for shard_path, names in self._iter_shards():
            for name in names:
                match = _TMP_RE.match(name)
                if match is None:
                    continue
                if int(match.group("gen")) >= self._generation:
                    continue
                if _pid_alive(int(match.group("pid"))):
                    continue
                path = os.path.join(shard_path, name)
                try:
                    freed += os.path.getsize(path)
                    os.unlink(path)
                except OSError:
                    continue
                removed_tmp += 1
        removed_quarantined = 0
        if purge_quarantine:
            quarantine = self._quarantine_root()
            try:
                names = os.listdir(quarantine)
            except OSError:
                names = []
            for name in names:
                path = os.path.join(quarantine, name)
                try:
                    freed += os.path.getsize(path)
                    os.unlink(path)
                except OSError:
                    continue
                removed_quarantined += 1
            try:
                os.rmdir(quarantine)
            except OSError:
                pass
        pruned = 0
        for shard_path, names in list(self._iter_shards()):
            if not names:
                try:
                    os.rmdir(shard_path)
                except OSError:
                    continue
                pruned += 1
        return StoreGCResult(
            removed_tmp=removed_tmp,
            removed_quarantined=removed_quarantined,
            pruned_shards=pruned,
            freed_bytes=freed,
        )


# ---------------------------------------------------------------------------
# Migrations
# ---------------------------------------------------------------------------


def _migrate_flat_layout(store: ResultStore) -> int:
    """One-shot migration of the legacy flat cache layout (schema 1 -> 2).

    Every flat ``<key>.json`` entry moves into its shard with the entry
    payload upgraded to the current schema and its ``<key>.manifest.json``
    provenance sidecar folded into the entry; the old files are removed.
    Unreadable flat entries are quarantined.  Legacy ``.tmp.<pid>`` files
    of dead writers are cleaned up; a live legacy writer's temp file is
    left for it to finish (its final rename still lands in the root and
    will be migrated by the next open).  Returns the number of entries
    migrated.
    """
    migrated = 0
    try:
        names = sorted(os.listdir(store.root))
    except OSError:
        return 0
    for name in names:
        legacy_tmp = _LEGACY_TMP_RE.match(name)
        if legacy_tmp is not None:
            if not _pid_alive(int(legacy_tmp.group("pid"))):
                try:
                    os.unlink(os.path.join(store.root, name))
                except OSError:
                    pass
            continue
        if not name.endswith(".json") or not is_result_key(name[: -len(".json")]):
            continue
        key = name[: -len(".json")]
        flat_path = os.path.join(store.root, name)
        manifest_path = os.path.join(store.root, f"{key}.manifest.json")
        try:
            with open(flat_path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            store._quarantine(flat_path)
            continue
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != LEGACY_FLAT_SCHEMA
            or not isinstance(payload.get("candidate"), dict)
            or not isinstance(payload.get("result"), dict)
        ):
            store._quarantine(flat_path)
            continue
        manifest = None
        if os.path.exists(manifest_path):
            try:
                with open(manifest_path, "r", encoding="utf-8") as handle:
                    manifest = json.load(handle)
            except (OSError, ValueError):
                manifest = None
            if not isinstance(manifest, dict):
                manifest = None
        store.store(
            key,
            candidate=payload["candidate"],
            result=payload["result"],
            manifest=manifest,
        )
        for stale in (flat_path, manifest_path):
            try:
                os.unlink(stale)
            except OSError:
                pass
        migrated += 1
    return migrated


#: Layout migrations: old schema -> in-place upgrade returning the number
#: of migrated entries.  Schemas without an entry here are rejected.
_MIGRATIONS = {LEGACY_FLAT_SCHEMA: _migrate_flat_layout}
