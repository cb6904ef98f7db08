"""Persistent intermediate-signal stores for the stage graph.

The stage-graph executor (:mod:`repro.core.stage_graph`) memoizes each stage
run's output signal under a content-addressed node key.  Its default store is
in-process memory; the backends here persist the node outputs so stage-level
reuse survives across runs and is shareable between processes — the same
backends as the result caches of :mod:`repro.runtime.cache`
(:mod:`repro.core.store`), bound to the ``.npy`` array codec instead:

* :class:`MemorySignalStore` — re-export of the in-process LRU store (for
  symmetry with :func:`open_signal_store`).
* :class:`JSONDirectorySignalStore` — one checksummed ``.npy`` file per node;
  inspectable, trivially mergeable.
* :class:`SQLiteSignalStore` — one SQLite database file holding the signals
  as checksummed BLOBs; the right choice when many runs share one store.

A corrupted node is counted, dropped and reported as a miss, so the executor
transparently recomputes the stage.  Persistent stores are stamped with the
stage-node key schema (:data:`~repro.core.fingerprint.STAGE_KEY_SCHEMA`) and
the value format they were written under: on open, a store carrying a
different (or no) tag has its entries purged and counted in ``stats.stale``
— prefix-chain-keyed nodes from before the input-addressed refactor, and
nodes in the older base64/5-column layouts, are detected, never silently
mixed.  All stores are size-capped (``max_entries``, and for the persistent
backends also a ``max_bytes`` byte budget) with oldest-first eviction and
eviction accounting, because a long exploration writes far more intermediate
signals than final results.

Stores are thread-safe: the stage graph resolves nodes from inside the
thread pool of :class:`~repro.runtime.engine.ExplorationRuntime`.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..core.stage_graph import DEFAULT_STORE_ENTRIES, MemoryStageStore
from ..core.store import ArrayCodec, DirectoryStore, SQLiteStore, Store

__all__ = [
    "MemorySignalStore",
    "JSONDirectorySignalStore",
    "SQLiteSignalStore",
    "open_signal_store",
    "signal_store_spec",
]

#: The in-process store lives in :mod:`repro.core.stage_graph` (the executor
#: needs it without depending on the runtime layer); it is re-exported here
#: so the three signal-store backends sit behind one import path.
MemorySignalStore = MemoryStageStore


class JSONDirectorySignalStore(DirectoryStore):
    """One checksummed ``.npy`` file per stage-graph node inside ``directory``.

    ``max_entries`` caps the node count, ``max_bytes`` the byte footprint;
    the oldest nodes beyond either budget are evicted after every put.
    """

    codec = ArrayCodec()
    tier = "signal_store"

    def __init__(
        self,
        directory: str,
        max_entries: Optional[int] = DEFAULT_STORE_ENTRIES,
        max_bytes: Optional[int] = None,
    ) -> None:
        super().__init__(directory, max_entries, max_bytes)


class SQLiteSignalStore(SQLiteStore):
    """All stage-graph nodes in one SQLite database file.

    ``max_entries`` caps the row count, ``max_bytes`` the payload bytes;
    the oldest rows beyond either budget are evicted after every put.
    """

    codec = ArrayCodec()
    tier = "signal_store"

    def __init__(
        self,
        path: str,
        max_entries: Optional[int] = DEFAULT_STORE_ENTRIES,
        max_bytes: Optional[int] = None,
    ) -> None:
        super().__init__(path, max_entries, max_bytes)


def open_signal_store(
    path: Optional[str] = None,
    max_entries: Optional[int] = DEFAULT_STORE_ENTRIES,
    max_bytes: Optional[int] = None,
) -> Store:
    """Open the right signal-store backend for ``path``.

    ``None`` gives the in-process :class:`MemorySignalStore`, a path ending
    in ``.sqlite`` / ``.db`` a :class:`SQLiteSignalStore`, anything else a
    :class:`JSONDirectorySignalStore` rooted at the path — mirroring
    :func:`repro.runtime.cache.open_cache` one level down.  ``max_bytes``
    budgets the persistent backends only.
    """
    if path is None:
        if max_bytes is not None:
            raise ValueError("max_bytes requires a persistent signal store")
        return MemorySignalStore(max_entries=max_entries)
    if path.endswith((".sqlite", ".sqlite3", ".db")):
        return SQLiteSignalStore(path, max_entries=max_entries, max_bytes=max_bytes)
    return JSONDirectorySignalStore(
        path, max_entries=max_entries, max_bytes=max_bytes
    )


def signal_store_spec(
    store: object,
) -> Optional[Tuple[str, Optional[int], Optional[int]]]:
    """A picklable ``(path, max_entries, max_bytes)`` descriptor of a store.

    Used by the process-pool executor: SQLite connections and file handles
    cannot cross a ``fork``/``spawn`` boundary, so each worker reopens the
    store from this descriptor (via :func:`open_signal_store`) and shares the
    same on-disk nodes as the parent.  Returns ``None`` for in-memory stores,
    which stay private per worker.
    """
    if isinstance(store, SQLiteSignalStore):
        return (store.path, store.max_entries, store.max_bytes)
    if isinstance(store, JSONDirectorySignalStore):
        return (store.directory, store.max_entries, store.max_bytes)
    return None
