"""Content-addressed key -> value stores: one set of backends for every tier.

The reproduction reuses work at two levels: whole design evaluations (the
result caches of :mod:`repro.runtime.cache`) and the intermediate signals of
the stage graph (:mod:`repro.core.stage_graph`, persisted by
:mod:`repro.runtime.signal_store`).  Both are the same structure — a
content-addressed, size-capped key -> value map — so it is implemented once,
here, as three backends:

* :class:`MemoryStore` — thread-safe in-process LRU holding *live* values
  (frozen once on put by the codec), so a hit pays no encode or decode.
* :class:`DirectoryStore` — one file per entry inside a directory;
  human-inspectable, trivially mergeable between machines.
* :class:`SQLiteStore` — one table in a SQLite database file; the right
  choice when many processes or runs share one store.

A concrete store binds a backend to a :class:`Codec` and to a metrics tier
through two class attributes (``codec`` / ``tier``); the codecs are
:class:`ArrayCodec` (stage signals as ``.npy`` bytes) here and the canonical-
JSON evaluation codec in :mod:`repro.runtime.cache`.  Every store keeps one
:class:`StoreStats`, mirrored into ``repro_cache_ops_total{tier,op}``.

The two persistent backends share everything but their I/O:

* Every entry carries the SHA-256 of its encoded bytes.  A corrupted entry
  (truncated file, bit rot, a writer killed mid-put) is detected on read,
  counted in ``stats.corrupt``, dropped and reported as a miss — callers
  simply recompute it.
* Every store is stamped with its codec's schema tag (the value encoding and,
  for stage signals, the node-key schema).  On open, a store written under
  any other tag — or under none, like the stores that predate tagging — has
  its entries purged and counted in ``stats.stale`` instead of being mixed
  with entries it can no longer address or decode.
* ``max_entries`` caps the entry count and ``max_bytes`` the stored bytes:
  after every write the oldest entries beyond either budget are evicted and
  counted in ``stats.evictions``.  The newest entry always survives the byte
  budget, so one oversized entry cannot empty the store.  The budget index
  is seeded from the entries present at open and then tracks this process's
  writes in order, so a put costs O(evicted); entries written concurrently
  by *other* processes are outside it — each process bounds what it knows.

Stores are thread-safe (one lock per store): the stage graph resolves nodes
from inside the runtime's thread pool, and the service shares one result
cache and one signal store between concurrent jobs.
"""

from __future__ import annotations

import functools
import hashlib
import io
import os
import re
import sqlite3
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from ..obs import metrics as obs_metrics
from .fingerprint import STAGE_KEY_SCHEMA

__all__ = [
    "ArrayCodec",
    "Codec",
    "DirectoryStore",
    "MemoryStore",
    "SQLiteStore",
    "Store",
    "StoreStats",
]

#: Cache-tier operation counter shared by every store (tier = result_cache /
#: signal_store / stage_store).
_CACHE_OPS = obs_metrics.counter(
    "repro_cache_ops_total",
    "Cache-tier operations by tier (result_cache/signal_store/stage_store) and op.",
    labelnames=("tier", "op"),
)


# --------------------------------------------------------------- statistics
@dataclass
class StoreStats:
    """Hit/miss/eviction accounting of one store instance.

    ``corrupt`` counts entries dropped because they failed verification,
    ``stale`` entries purged on open because the store was written under a
    different schema tag.
    """

    tier: str = field(default="", repr=False, compare=False)
    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    corrupt: int = 0
    stale: int = 0

    def record(self, op: str, count: int = 1) -> None:
        """Account ``count`` events of ``op``, mirroring them into the
        process-wide ``repro_cache_ops_total{tier,op}`` counter."""
        if not count:
            return
        setattr(self, op, getattr(self, op) + int(count))
        _CACHE_OPS.labels(self.tier, op).inc(count)

    @property
    def lookups(self) -> int:
        """Total number of ``get`` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the store (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict snapshot (telemetry / CLI reporting)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "corrupt": self.corrupt,
            "stale": self.stale,
            "hit_rate": self.hit_rate,
        }


# ------------------------------------------------------------------- codecs
class Codec:
    """How one kind of value is held: live in memory, as bytes on disk."""

    #: SQLite table, and the stem of the directory schema-marker file.
    name = ""
    #: File suffix of one entry in a :class:`DirectoryStore`.
    suffix = ""
    #: Tag stamped into persistent stores (see the module docstring).
    schema = ""
    #: Entry suffix of the pre-tagging directory layout, purged on upgrade.
    legacy_suffix: Optional[str] = None

    def freeze(self, value):
        """The object a :class:`MemoryStore` keeps for ``value``."""
        return value

    def encode(self, value) -> bytes:
        raise NotImplementedError

    def decode(self, blob: bytes):
        raise NotImplementedError


class ArrayCodec(Codec):
    """NumPy arrays as ``.npy`` bytes; every value handed out is read-only."""

    name = "signals"
    suffix = ".signal"
    schema = f"{STAGE_KEY_SCHEMA}+npy-v1"
    legacy_suffix = ".signal.json"

    def freeze(self, value: np.ndarray) -> np.ndarray:
        # Copied and frozen once, so one stored signal can be handed to many
        # concurrent pipeline runs without any run mutating another's input.
        frozen = np.array(value, copy=True)
        frozen.setflags(write=False)
        return frozen

    def encode(self, value: np.ndarray) -> bytes:
        buffer = io.BytesIO()
        np.save(buffer, np.ascontiguousarray(value), allow_pickle=False)
        return buffer.getvalue()

    def decode(self, blob: bytes) -> np.ndarray:
        # np.load parses the header on every call, which costs a service job
        # more than the rest of the read; a store holds few distinct
        # (dtype, shape) headers, so each is parsed once.  Bytes 8-9 of a
        # version 1.0 header hold its length.
        header_end = 10 + int.from_bytes(blob[8:10], "little")
        dtype, shape = _npy_layout(blob[:header_end])
        # A view of the immutable bytes: read-only without a copy.
        return np.frombuffer(blob, dtype=dtype, offset=header_end).reshape(shape)


@functools.lru_cache(maxsize=64)
def _npy_layout(header: bytes) -> Tuple[np.dtype, Tuple[int, ...]]:
    """``(dtype, shape)`` of a C-ordered version 1.0 ``.npy`` header."""
    stream = io.BytesIO(header)
    if np.lib.format.read_magic(stream) != (1, 0):
        raise ValueError("unsupported .npy format version")
    shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(stream)
    if fortran_order or dtype.hasobject:
        raise ValueError("unsupported .npy layout")
    return dtype, shape


def _checksum(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


#: Every key is a SHA-256 hex digest (:mod:`repro.core.fingerprint`).
_KEY = re.compile("[0-9a-f]{64}")


# ------------------------------------------------------------------ backends
class Store:
    """Content-addressed store of one codec's values (abstract base).

    Also implements the mutable-mapping subset (``in`` / ``[]``) used by
    :class:`~repro.core.quality.DesignEvaluator`, so a store can back an
    evaluator's cache directly.
    """

    codec: Codec = Codec()
    tier = ""

    def __init__(
        self, max_entries: Optional[int] = None, max_bytes: Optional[int] = None
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.stats = StoreStats(self.tier)
        self._lock = threading.Lock()

    # ------------------------------------------------------------ interface
    def get(self, key: str):
        """The stored value for ``key``, or ``None`` on a miss."""
        with self._lock:
            value = self._load(key)
            self.stats.record("misses" if value is None else "hits")
        return value

    def put(self, key: str, value) -> None:
        """Store ``value`` under ``key``, then evict to the budgets."""
        raise NotImplementedError

    def __getitem__(self, key: str):
        value = self.get(key)
        if value is None:
            raise KeyError(key)
        return value

    def __setitem__(self, key: str, value) -> None:
        self.put(key, value)

    def report(self) -> Dict[str, float]:
        """Statistics plus the current entry count and byte footprint."""
        doc = self.stats.as_dict()
        doc["entries"] = len(self)
        size = self.size_bytes()
        if size is not None:
            doc["size_bytes"] = size
        return doc

    # -------------------------------------------------------------- budgets
    def _over_budget(self, entries: int, size: int) -> bool:
        return (self.max_entries is not None and entries > self.max_entries) or (
            self.max_bytes is not None and size > self.max_bytes and entries > 1
        )


class MemoryStore(Store):
    """Thread-safe in-process LRU store of live values.

    Values are frozen once by the codec on put and handed out as-is, so a hit
    costs one dictionary lookup.  Only ``max_entries`` applies.
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        super().__init__(max_entries)
        self._entries: "OrderedDict[str, object]" = OrderedDict()

    def _load(self, key: str):
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def put(self, key: str, value) -> None:
        value = self.codec.freeze(value)
        with self._lock:
            self.stats.record("puts")
            self._entries[key] = value
            self._entries.move_to_end(key)
            evicted = 0
            while self._over_budget(len(self._entries), 0):
                self._entries.popitem(last=False)
                evicted += 1
            self.stats.record("evictions", evicted)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def size_bytes(self) -> Optional[int]:
        """Not measured for live objects."""
        return None

    def clear(self) -> None:
        """Drop every entry (statistics are kept)."""
        with self._lock:
            self._entries.clear()


class PersistentStore(Store):
    """Checksummed, schema-tagged, budget-evicted entries on disk.

    Subclasses supply the I/O primitives: ``_read`` / ``_write`` /
    ``_remove`` one entry, ``_scan`` the entries oldest first (to seed the
    budget index), ``_count`` / ``_total_bytes`` them cheaply, ``_purge``
    them all and read/write the schema marker.
    """

    def __init__(
        self,
        location: str,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        super().__init__(max_entries, max_bytes)
        os.makedirs(os.path.dirname(os.path.abspath(location)), exist_ok=True)
        self._open(location)
        if self._read_marker() != self.codec.schema:
            self.stats.record("stale", self._purge())
            self._write_marker(self.codec.schema)
        # key -> stored bytes, oldest first; only kept when a budget is set.
        self._index: "Optional[OrderedDict[str, int]]" = None
        self._indexed_bytes = 0
        if max_entries is not None or max_bytes is not None:
            self._index = OrderedDict(self._scan())
            self._indexed_bytes = sum(self._index.values())

    def _load(self, key: str):
        entry = self._read(key)
        if entry is None:
            return None
        checksum, blob = entry
        try:
            if checksum == _checksum(blob):
                return self.codec.decode(blob)
        except (KeyError, TypeError, ValueError):
            pass
        self.stats.record("corrupt")
        self._drop(key)
        return None

    def put(self, key: str, value) -> None:
        blob = self.codec.encode(value)
        checksum = _checksum(blob)
        with self._lock:
            self.stats.record("puts")
            size = self._write(key, checksum, blob)
            if self._index is None:
                return
            self._indexed_bytes += size - self._index.pop(key, 0)
            self._index[key] = size
            evicted = 0
            while self._over_budget(len(self._index), self._indexed_bytes):
                oldest, oldest_size = self._index.popitem(last=False)
                self._indexed_bytes -= oldest_size
                self._remove(oldest)
                evicted += 1
            self.stats.record("evictions", evicted)

    def _drop(self, key: str) -> None:
        if self._index is not None:
            self._indexed_bytes -= self._index.pop(key, 0)
        self._remove(key)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return self._read(key) is not None

    def __len__(self) -> int:
        with self._lock:
            return self._count()

    def size_bytes(self) -> int:
        """Bytes currently held by the stored entries."""
        with self._lock:
            if self._index is not None:
                return self._indexed_bytes
            return self._total_bytes()

    def clear(self) -> None:
        """Drop every entry (statistics are kept)."""
        with self._lock:
            self._purge()
            if self._index is not None:
                self._index.clear()
                self._indexed_bytes = 0


class DirectoryStore(PersistentStore):
    """One file per entry inside ``directory``: the hex SHA-256 of the
    encoded value, a newline, then the encoded bytes.

    Writes go to a temporary file that is atomically renamed over the entry,
    so a reader sees the old or the new entry, never a partial one.  Only
    files carrying this codec's suffix belong to the store, so result caches
    and signal stores can share one directory.
    """

    _HEADER = 65  # hex digest + newline

    def __init__(
        self,
        directory: str,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        super().__init__(directory, max_entries, max_bytes)

    def _open(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key + self.codec.suffix)

    def _marker_path(self) -> str:
        return os.path.join(self.directory, f"_{self.codec.name}.schema")

    def _read(self, key: str) -> Optional[Tuple[str, bytes]]:
        try:
            with open(self._path(key), "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return None
        except OSError:
            return ("", b"")
        checksum = data[: self._HEADER - 1].decode("ascii", "replace")
        return checksum, data[self._HEADER :]

    def _write(self, key: str, checksum: str, blob: bytes) -> int:
        path = self._path(key)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "wb") as handle:
            handle.write(checksum.encode("ascii") + b"\n")
            handle.write(blob)
        os.replace(tmp, path)
        return self._HEADER + len(blob)

    def _remove(self, key: str) -> None:
        self._unlink(self._path(key))

    @staticmethod
    def _unlink(path: str) -> None:
        try:
            os.remove(path)
        except OSError:  # pragma: no cover - race with another process
            pass

    def _entries(self, suffix: str) -> Iterator[Tuple[str, str]]:
        """``(path, key)`` of every ``<key><suffix>`` file: other files,
        including other codecs' entries, are not this store's."""
        for name in os.listdir(self.directory):
            if name.endswith(suffix):
                yield os.path.join(self.directory, name), name[: -len(suffix)]

    def _sizes(self) -> Iterator[Tuple[float, str, int]]:
        for path, key in self._entries(self.codec.suffix):
            try:
                stat = os.stat(path)
            except OSError:  # pragma: no cover - race with another process
                continue
            yield stat.st_mtime, key, stat.st_size

    def _scan(self) -> Iterator[Tuple[str, int]]:
        return ((key, int(size)) for _, key, size in sorted(self._sizes()))

    def _count(self) -> int:
        return sum(1 for _ in self._entries(self.codec.suffix))

    def _total_bytes(self) -> int:
        return sum(int(size) for _, _, size in self._sizes())

    def _purge(self) -> int:
        doomed = [path for path, _ in self._entries(self.codec.suffix)]
        if self.codec.legacy_suffix is not None:
            # Pre-tagging stores held <key><legacy suffix> files; the key
            # test keeps a ".json" legacy suffix off every other file.
            doomed += [
                path
                for path, key in self._entries(self.codec.legacy_suffix)
                if _KEY.fullmatch(key)
            ]
        for path in doomed:
            self._unlink(path)
        return len(doomed)

    def _read_marker(self) -> Optional[str]:
        try:
            with open(self._marker_path(), "r", encoding="utf-8") as handle:
                return handle.read().strip()
        except OSError:
            return None

    def _write_marker(self, tag: str) -> None:
        path = self._marker_path()
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(tag + "\n")
        os.replace(tmp, path)


class SQLiteStore(PersistentStore):
    """All entries in one table (named after the codec) of a SQLite file.

    Each put commits on its own, so a writer killed mid-put leaves the table
    at the previous commit.  The schema tag lives in a ``meta`` table row
    ``schema:<table>``, so several stores can share one database file.
    """

    def __init__(
        self,
        path: str,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        super().__init__(path, max_entries, max_bytes)

    def _open(self, path: str) -> None:
        self.path = path
        self._table = self.codec.name
        # One connection shared across threads, guarded by the store lock.
        # The busy timeout and WAL journal additionally let separate
        # processes (the warm-started worker pool) share the file.
        self._connection = sqlite3.connect(
            path, check_same_thread=False, timeout=30.0
        )
        try:
            self._connection.execute("PRAGMA journal_mode=WAL")
        except sqlite3.OperationalError:  # pragma: no cover - read-only fs
            pass
        self._connection.execute(
            "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT)"
        )
        self._create_table()

    def _create_table(self) -> None:
        self._connection.execute(
            f"CREATE TABLE IF NOT EXISTS {self._table} ("
            " key TEXT PRIMARY KEY,"
            " checksum TEXT NOT NULL,"
            " payload BLOB NOT NULL)"
        )
        self._connection.commit()

    def _read(self, key: str) -> Optional[Tuple[str, bytes]]:
        return self._connection.execute(
            f"SELECT checksum, payload FROM {self._table} WHERE key = ?", (key,)
        ).fetchone()

    def _write(self, key: str, checksum: str, blob: bytes) -> int:
        # INSERT OR REPLACE always assigns a fresh rowid, so rowid order is
        # write order: _scan seeds the budget index from it.
        self._connection.execute(
            f"INSERT OR REPLACE INTO {self._table} (key, checksum, payload)"
            " VALUES (?, ?, ?)",
            (key, checksum, blob),
        )
        self._connection.commit()
        return len(blob)

    def _remove(self, key: str) -> None:
        self._connection.execute(
            f"DELETE FROM {self._table} WHERE key = ?", (key,)
        )
        self._connection.commit()

    def _scan(self) -> Iterator[Tuple[str, int]]:
        return iter(
            self._connection.execute(
                f"SELECT key, LENGTH(payload) FROM {self._table} ORDER BY rowid"
            ).fetchall()
        )

    def _count(self) -> int:
        (count,) = self._connection.execute(
            f"SELECT COUNT(*) FROM {self._table}"
        ).fetchone()
        return int(count)

    def _total_bytes(self) -> int:
        (total,) = self._connection.execute(
            f"SELECT COALESCE(SUM(LENGTH(payload)), 0) FROM {self._table}"
        ).fetchone()
        return int(total)

    def _purge(self) -> int:
        # Dropping (not just emptying) the table also upgrades a table
        # written under an older column layout.
        count = self._count()
        self._connection.execute(f"DROP TABLE {self._table}")
        self._create_table()
        return count

    def _read_marker(self) -> Optional[str]:
        row = self._connection.execute(
            "SELECT value FROM meta WHERE key = ?", (f"schema:{self._table}",)
        ).fetchone()
        return row[0] if row is not None else None

    def _write_marker(self, tag: str) -> None:
        self._connection.execute(
            "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
            (f"schema:{self._table}", tag),
        )
        self._connection.commit()

    def close(self) -> None:
        """Close the underlying database connection."""
        self._connection.close()
