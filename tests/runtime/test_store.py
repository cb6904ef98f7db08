"""The unified store backends: directory sharing, crash consistency, upgrades.

Result caches and signal stores are the same three backends
(:mod:`repro.core.store`) bound to two codecs.  These tests cover what the
per-tier suites (``test_cache.py`` / ``test_signal_store.py``) cannot: two
codecs sharing one directory or database file, writers killed mid-put, and
stores written in the layouts that predate the unified backends.

Run as a script (``python test_store.py BACKEND LOCATION``), this module is
the writer process of the crash-consistency test: it puts values into a
result cache and a signal store at ``LOCATION`` in an endless loop.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import signal
import sqlite3
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import repro
from repro.core import DesignEvaluation, DesignPoint
from repro.core.fingerprint import STAGE_KEY_SCHEMA
from repro.core.store import StoreStats
from repro.runtime.cache import JSONDirectoryCache, SQLiteResultCache
from repro.runtime.signal_store import (
    JSONDirectorySignalStore,
    MemorySignalStore,
    SQLiteSignalStore,
)

#: Keys the crash writer cycles through, and puts before it reports ready.
CRASH_KEYS = 6
CRASH_WARMUP = 2 * CRASH_KEYS


def make_evaluation(index: int) -> DesignEvaluation:
    """A deterministic evaluation whose content encodes ``index``."""
    return DesignEvaluation(
        design=DesignPoint.from_lsbs({"lpf": 2 + index % 8}, name=f"d{index}"),
        psnr_db=float(index),
        ssim_value=0.5,
        peak_accuracy=1.0,
        detected_peaks=index,
        true_peaks=index,
        energy_reduction=1.5,
        per_record_accuracy={f"r{j}": float(index) for j in range(400)},
    )


def make_signal(index: int) -> np.ndarray:
    """A deterministic ~256 kB signal whose content encodes ``index``."""
    return np.full(32768, index, dtype=np.int64)


def open_pair(backend: str, location: str):
    """A result cache and a signal store sharing ``location``."""
    if backend == "sqlite":
        return SQLiteResultCache(location), SQLiteSignalStore(location, None)
    return JSONDirectoryCache(location), JSONDirectorySignalStore(location, None)


def _write_forever(backend: str, location: str) -> None:
    cache, signals = open_pair(backend, location)
    index = 0
    while True:
        key = f"k{index % CRASH_KEYS}"
        cache.put(key, make_evaluation(index))
        signals.put(key, make_signal(index))
        index += 1
        if index == CRASH_WARMUP:
            print("ready", flush=True)


# ------------------------------------------------------- shared locations
class TestSharedLocation:
    def test_sqlite_stores_share_one_file(self, tmp_path):
        path = str(tmp_path / "shared.sqlite")
        cache, signals = open_pair("sqlite", path)
        cache.put("k", make_evaluation(3))
        signals.put("k", make_signal(3))
        assert len(cache) == 1 and len(signals) == 1
        cache.close()
        signals.close()
        cache, signals = open_pair("sqlite", path)
        assert cache.stats.stale == 0 and signals.stats.stale == 0
        assert cache.get("k") == make_evaluation(3)
        np.testing.assert_array_equal(signals.get("k"), make_signal(3))
        cache.close()
        signals.close()


class TestOneStatsType:
    def test_every_tier_reports_the_same_stats(self, tmp_path):
        stores = [
            MemorySignalStore(),
            JSONDirectoryCache(str(tmp_path / "c")),
            SQLiteSignalStore(str(tmp_path / "s.sqlite")),
        ]
        for store in stores:
            assert type(store.stats) is StoreStats
        memory = stores[0]
        assert memory.get("k") is None
        memory.put("k", np.zeros(4, dtype=np.int64))
        assert memory.get("k") is not None
        report = memory.report()
        assert (report["hits"], report["misses"], report["puts"]) == (1, 1, 1)
        assert report["entries"] == 1
        stores[2].close()


class TestThreadedTraffic:
    """Concurrent puts and gets on one store lose no accounting."""

    THREADS, OPS, KEYS, CAP = 8, 60, 12, 8

    def _store(self, backend, tmp_path):
        if backend == "memory":
            return MemorySignalStore(max_entries=self.CAP)
        if backend == "directory":
            return JSONDirectorySignalStore(str(tmp_path / "s"), self.CAP)
        return SQLiteSignalStore(str(tmp_path / "s.sqlite"), self.CAP)

    @pytest.mark.parametrize("backend", ("memory", "directory", "sqlite"))
    def test_stats_and_values_survive_contention(self, backend, tmp_path):
        store = self._store(backend, tmp_path)
        wrong = []

        def traffic(seed):
            for op in range(self.OPS):
                index = (seed * 7 + op) % self.KEYS
                store.put(f"k{index}", np.full(64, index, dtype=np.int64))
                other = (index + seed) % self.KEYS
                value = store.get(f"k{other}")
                if value is not None and not (value == other).all():
                    wrong.append(value)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=traffic, args=(seed,))
                for seed in range(self.THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong
        total = self.THREADS * self.OPS
        assert store.stats.puts == total
        assert store.stats.hits + store.stats.misses == total
        assert len(store) <= self.CAP
        if backend == "sqlite":
            store.close()


# ------------------------------------------------------- crash consistency
def _kill_writer_mid_loop(backend: str, location: str, delay_s: float) -> None:
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    writer = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), backend, location],
        stdout=subprocess.PIPE,
        env=env,
    )
    try:
        assert writer.stdout.readline().strip() == b"ready"
        time.sleep(delay_s)
    finally:
        writer.send_signal(signal.SIGKILL)
        writer.wait()
        writer.stdout.close()


def _assert_old_or_new(backend: str, location: str) -> None:
    # Every key was written in full during the warm-up, and a put replaces an
    # entry atomically, so after the kill each key reads as the value of its
    # last completed put or of the interrupted one: never a wrong value, and
    # never a miss (a torn entry would be dropped and counted as corrupt).
    cache, signals = open_pair(backend, location)
    for slot in range(CRASH_KEYS):
        key = f"k{slot}"
        evaluation = cache.get(key)
        index = int(evaluation.psnr_db)
        assert index % CRASH_KEYS == slot
        assert evaluation == make_evaluation(index)
        node = signals.get(key)
        index = int(node[0])
        assert index % CRASH_KEYS == slot
        np.testing.assert_array_equal(node, make_signal(index))
    assert cache.stats.corrupt == 0 and signals.stats.corrupt == 0
    # Temporary files of the killed put never surface as entries.
    assert len(cache) == CRASH_KEYS and len(signals) == CRASH_KEYS
    if backend == "sqlite":
        cache.close()
        signals.close()


class TestCrashConsistency:
    """A writer SIGKILLed mid-put leaves every entry old or new."""

    def _run(self, backend: str, location: str) -> None:
        for delay_s in (0.0, 0.02, 0.05):
            _kill_writer_mid_loop(backend, location, delay_s)
            _assert_old_or_new(backend, location)

    def test_directory_backend(self, tmp_path):
        self._run("directory", str(tmp_path / "store"))

    def test_sqlite_backend(self, tmp_path):
        self._run("sqlite", str(tmp_path / "store.sqlite"))


# ---------------------------------------------------------------- upgrades
def _legacy_signal_checksum(dtype: str, shape: str, blob: bytes) -> str:
    hasher = hashlib.sha256()
    for part in (dtype.encode(), b"\x00", shape.encode(), b"\x00", blob):
        hasher.update(part)
    return hasher.hexdigest()


# Every key is a SHA-256 hex digest, as in the stores being upgraded.
KEY_A, KEY_B, KEY_K = ("a" * 64, "b" * 64, "c" * 64)
LEGACY_SIGNALS = {
    KEY_A: np.arange(16, dtype=np.int64),
    KEY_B: np.arange(-8, 8, dtype=np.int64),
}


class TestUpgradeFromLegacyLayouts:
    """Stores in the pre-unification layouts open cleanly and are purged."""

    def test_sqlite_signal_store_with_five_column_table(self, tmp_path):
        path = str(tmp_path / "signals.sqlite")
        connection = sqlite3.connect(path)
        connection.execute(
            "CREATE TABLE signals (key TEXT PRIMARY KEY, dtype TEXT NOT NULL,"
            " shape TEXT NOT NULL, checksum TEXT NOT NULL,"
            " payload BLOB NOT NULL)"
        )
        connection.execute(
            "CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT)"
        )
        connection.execute(
            "INSERT INTO meta VALUES ('schema', ?)", (STAGE_KEY_SCHEMA,)
        )
        for key, value in LEGACY_SIGNALS.items():
            dtype, shape = str(value.dtype), json.dumps(list(value.shape))
            blob = value.tobytes()
            connection.execute(
                "INSERT INTO signals VALUES (?, ?, ?, ?, ?)",
                (key, dtype, shape,
                 _legacy_signal_checksum(dtype, shape, blob), blob),
            )
        connection.commit()
        connection.close()

        store = SQLiteSignalStore(path)
        assert store.stats.stale == len(LEGACY_SIGNALS)
        assert len(store) == 0 and store.get(KEY_A) is None
        store.put(KEY_A, LEGACY_SIGNALS[KEY_A])
        store.close()
        reopened = SQLiteSignalStore(path)
        assert reopened.stats.stale == 0
        np.testing.assert_array_equal(reopened.get(KEY_A), LEGACY_SIGNALS[KEY_A])
        reopened.close()

    def test_json_directory_signal_store_with_base64_entries(self, tmp_path):
        path = tmp_path / "signals"
        path.mkdir()
        (path / "_schema.json").write_text(
            json.dumps({"schema": STAGE_KEY_SCHEMA})
        )
        for key, value in LEGACY_SIGNALS.items():
            payload = {
                "dtype": str(value.dtype),
                "shape": list(value.shape),
                "data": base64.b64encode(value.tobytes()).decode("ascii"),
            }
            payload["checksum"] = hashlib.sha256(
                json.dumps(payload, sort_keys=True, separators=(",", ":"))
                .encode()
            ).hexdigest()
            (path / f"{key}.signal.json").write_text(json.dumps(payload))

        store = JSONDirectorySignalStore(str(path))
        assert store.stats.stale == len(LEGACY_SIGNALS)
        assert len(store) == 0 and store.get(KEY_A) is None
        assert not any(name.endswith(".signal.json") for name in os.listdir(path))
        store.put(KEY_A, LEGACY_SIGNALS[KEY_A])
        reopened = JSONDirectorySignalStore(str(path))
        assert reopened.stats.stale == 0
        np.testing.assert_array_equal(reopened.get(KEY_A), LEGACY_SIGNALS[KEY_A])

    def test_result_caches_in_the_untagged_layout(self, tmp_path):
        path = str(tmp_path / "cache.sqlite")
        connection = sqlite3.connect(path)
        connection.execute(
            "CREATE TABLE evaluations (key TEXT PRIMARY KEY,"
            " checksum TEXT NOT NULL, payload TEXT NOT NULL)"
        )
        connection.execute(
            "INSERT INTO evaluations VALUES (?, 'abc', '{\"psnr_db\": 1}')",
            (KEY_K,),
        )
        connection.commit()
        connection.close()
        cache = SQLiteResultCache(path)
        assert cache.stats.stale == 1 and cache.get(KEY_K) is None
        cache.close()

        directory = tmp_path / "cache"
        directory.mkdir()
        (directory / f"{KEY_K}.json").write_text(
            '{"checksum": "abc", "payload": {}}'
        )
        cache = JSONDirectoryCache(str(directory))
        assert cache.stats.stale == 1 and cache.get(KEY_K) is None
        assert os.listdir(directory) == ["_evaluations.schema"]

    def test_upgrade_leaves_files_that_are_not_entries(self, tmp_path):
        # Opening a store on a directory of other JSON files (a project
        # root, a results folder) must not take them for legacy entries.
        others = ["notes.json", "BENCHMARK.json", "_schema.json", "a.b.json"]
        for name in others:
            (tmp_path / name).write_text("{}")
        cache = JSONDirectoryCache(str(tmp_path))
        signals = JSONDirectorySignalStore(str(tmp_path))
        assert cache.stats.stale == 0 and signals.stats.stale == 0
        assert len(cache) == 0 and len(signals) == 0
        cache.clear()
        signals.clear()
        assert sorted(os.listdir(tmp_path)) == sorted(
            others + ["_evaluations.schema", "_signals.schema"]
        )


if __name__ == "__main__":
    _write_forever(sys.argv[1], sys.argv[2])
