"""Result cache backends: round-trips, statistics, eviction, corruption."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.core import DesignEvaluator, DesignPoint
from repro.runtime.cache import (
    JSONDirectoryCache,
    MemoryResultCache,
    SQLiteResultCache,
    deserialize_evaluation,
    open_cache,
    serialize_evaluation,
)
from repro.runtime.signal_store import JSONDirectorySignalStore


@pytest.fixture(scope="module")
def sample_evaluation(tiny_record):
    evaluator = DesignEvaluator([tiny_record])
    return evaluator.evaluate(
        DesignPoint.from_lsbs({"lpf": 6, "hpf": 4}, name="sample",
                              description="cache round-trip sample")
    )


class TestSerialization:
    def test_round_trip_preserves_everything(self, sample_evaluation):
        restored = deserialize_evaluation(
            json.loads(json.dumps(serialize_evaluation(sample_evaluation)))
        )
        assert restored == sample_evaluation
        assert restored.design.name == "sample"
        assert restored.per_record_accuracy == sample_evaluation.per_record_accuracy


class TestMemoryCache:
    def test_hit_miss_accounting(self, sample_evaluation):
        cache = MemoryResultCache()
        assert cache.get("k") is None
        cache.put("k", sample_evaluation)
        assert cache.get("k") == sample_evaluation
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.puts == 1
        assert cache.stats.hit_rate == 0.5

    def test_lru_eviction(self, sample_evaluation):
        cache = MemoryResultCache(max_entries=2)
        cache.put("a", sample_evaluation)
        cache.put("b", sample_evaluation)
        cache.get("a")  # refresh "a": "b" becomes the LRU entry
        cache.put("c", sample_evaluation)
        assert cache.stats.evictions == 1
        assert "a" in cache and "c" in cache
        assert "b" not in cache

    def test_mapping_interface(self, sample_evaluation):
        cache = MemoryResultCache()
        cache["k"] = sample_evaluation
        assert cache["k"] == sample_evaluation
        with pytest.raises(KeyError):
            cache["missing"]


class TestJSONDirectoryCache:
    def test_round_trip_and_persistence(self, tmp_path, sample_evaluation):
        path = str(tmp_path / "cache")
        first = JSONDirectoryCache(path)
        first.put("k", sample_evaluation)
        # A brand-new instance over the same directory sees the entry.
        second = JSONDirectoryCache(path)
        assert len(second) == 1
        assert second.get("k") == sample_evaluation

    def test_corrupted_file_is_detected_and_dropped(self, tmp_path,
                                                    sample_evaluation):
        cache = JSONDirectoryCache(str(tmp_path / "cache"))
        cache.put("k", sample_evaluation)
        entry_path = cache._path("k")
        with open(entry_path, "rb") as handle:
            checksum, payload = handle.read().split(b"\n", 1)
        entry = json.loads(payload)
        entry["psnr_db"] = 999.0  # checksum no longer matches
        with open(entry_path, "wb") as handle:
            handle.write(checksum + b"\n" + json.dumps(entry).encode())

        assert cache.get("k") is None
        assert cache.stats.corrupt == 1
        assert not os.path.exists(entry_path)  # dropped, will be recomputed

    def test_truncated_file_is_detected(self, tmp_path, sample_evaluation):
        cache = JSONDirectoryCache(str(tmp_path / "cache"))
        cache.put("k", sample_evaluation)
        entry_path = cache._path("k")
        with open(entry_path, "w", encoding="utf-8") as handle:
            handle.write('{"checksum": "abc", "payl')
        assert cache.get("k") is None
        assert cache.stats.corrupt == 1

    def test_clear(self, tmp_path, sample_evaluation):
        cache = JSONDirectoryCache(str(tmp_path / "cache"))
        cache.put("a", sample_evaluation)
        cache.put("b", sample_evaluation)
        cache.clear()
        assert len(cache) == 0

    def test_size_cap_evicts_oldest_entries(self, tmp_path, sample_evaluation):
        cache = JSONDirectoryCache(str(tmp_path / "cache"), max_entries=2)
        for key in ("a", "b", "c", "d"):
            cache.put(key, sample_evaluation)
        assert len(cache) == 2
        assert cache.stats.evictions == 2
        assert cache.get("d") is not None
        assert cache.get("a") is None

    def test_rejects_nonpositive_cap(self, tmp_path):
        with pytest.raises(ValueError):
            JSONDirectoryCache(str(tmp_path / "cache"), max_entries=0)


class TestSharedDirectory:
    """A result cache and a signal store in one directory stay disjoint."""

    def test_cache_sees_only_its_own_entries(self, tmp_path, sample_evaluation):
        path = str(tmp_path / "shared")
        signals = JSONDirectorySignalStore(path)
        signals.put("node", np.arange(8, dtype=np.int64))
        cache = JSONDirectoryCache(path, max_entries=1)
        assert len(cache) == 0
        cache.put("k", sample_evaluation)
        assert cache.stats.evictions == 0
        np.testing.assert_array_equal(
            signals.get("node"), np.arange(8, dtype=np.int64)
        )
        cache.clear()
        assert len(cache) == 0 and len(signals) == 1
        cache.put("k", sample_evaluation)
        signals.clear()
        assert cache.get("k") == sample_evaluation
        # Reopening either store finds its own schema marker intact.
        assert JSONDirectoryCache(path).stats.stale == 0
        assert JSONDirectorySignalStore(path).stats.stale == 0


class TestSQLiteCache:
    def test_round_trip_and_persistence(self, tmp_path, sample_evaluation):
        path = str(tmp_path / "cache.sqlite")
        first = SQLiteResultCache(path)
        first.put("k", sample_evaluation)
        first.close()
        second = SQLiteResultCache(path)
        assert len(second) == 1
        assert second.get("k") == sample_evaluation
        second.close()

    def test_corrupted_row_is_detected_and_dropped(self, tmp_path,
                                                   sample_evaluation):
        path = str(tmp_path / "cache.sqlite")
        cache = SQLiteResultCache(path)
        cache.put("k", sample_evaluation)
        cache._connection.execute(
            "UPDATE evaluations SET payload = ? WHERE key = ?",
            ('{"not": "a valid entry"}', "k"),
        )
        cache._connection.commit()
        assert cache.get("k") is None
        assert cache.stats.corrupt == 1
        assert len(cache) == 0  # the bad row was deleted
        cache.close()

    def test_size_cap_evicts_in_insertion_order(self, tmp_path,
                                                sample_evaluation):
        cache = SQLiteResultCache(str(tmp_path / "cache.sqlite"), max_entries=3)
        for key in ("a", "b", "c", "d", "e"):
            cache.put(key, sample_evaluation)
        assert len(cache) == 3
        assert cache.stats.evictions == 2
        # Oldest insertions went first.
        assert cache.get("a") is None and cache.get("b") is None
        assert cache.get("e") is not None
        cache.close()

    def test_overwrite_refreshes_insertion_age(self, tmp_path,
                                               sample_evaluation):
        cache = SQLiteResultCache(str(tmp_path / "cache.sqlite"), max_entries=2)
        cache.put("a", sample_evaluation)
        cache.put("b", sample_evaluation)
        cache.put("a", sample_evaluation)  # re-insert: "b" is now oldest
        cache.put("c", sample_evaluation)
        assert cache.get("a") is not None
        assert cache.get("b") is None
        cache.close()

    def test_rejects_nonpositive_cap(self, tmp_path):
        with pytest.raises(ValueError):
            SQLiteResultCache(str(tmp_path / "cache.sqlite"), max_entries=0)


class TestOpenCache:
    def test_backend_selection(self, tmp_path):
        assert isinstance(open_cache(None), MemoryResultCache)
        sqlite = open_cache(str(tmp_path / "c.sqlite"))
        assert isinstance(sqlite, SQLiteResultCache)
        sqlite.close()
        assert isinstance(open_cache(str(tmp_path / "dir")), JSONDirectoryCache)

    def test_max_entries_is_forwarded(self, tmp_path):
        assert open_cache(None, max_entries=7).max_entries == 7
        sqlite = open_cache(str(tmp_path / "c.sqlite"), max_entries=7)
        assert sqlite.max_entries == 7
        sqlite.close()
        assert open_cache(str(tmp_path / "dir"), max_entries=7).max_entries == 7


class TestByteBudgetEviction:
    """max_bytes: oldest entries evicted once payload bytes exceed the budget."""

    def _entry_size(self, tmp_path, sample_evaluation):
        probe = JSONDirectoryCache(str(tmp_path / "probe"))
        probe.put("probe", sample_evaluation)
        return probe.size_bytes()

    def test_json_directory_byte_budget(self, tmp_path, sample_evaluation):
        entry = self._entry_size(tmp_path, sample_evaluation)
        cache = JSONDirectoryCache(
            str(tmp_path / "budget"), max_bytes=2 * entry + entry // 2
        )
        for key in ("a", "b", "c", "d"):
            cache.put(key, sample_evaluation)
        assert len(cache) == 2
        assert cache.stats.evictions == 2
        assert cache.size_bytes() <= cache.max_bytes
        # The newest entries survive.
        assert cache.get("d") is not None and cache.get("c") is not None
        assert cache.get("a") is None

    def test_json_newest_entry_survives_tiny_budget(self, tmp_path,
                                                    sample_evaluation):
        cache = JSONDirectoryCache(str(tmp_path / "tiny"), max_bytes=1)
        cache.put("a", sample_evaluation)
        assert len(cache) == 1  # one oversized entry is kept, not thrashed
        cache.put("b", sample_evaluation)
        assert len(cache) == 1
        assert cache.get("b") is not None and cache.get("a") is None

    def test_sqlite_byte_budget(self, tmp_path, sample_evaluation):
        probe = SQLiteResultCache(str(tmp_path / "probe.sqlite"))
        probe.put("probe", sample_evaluation)
        entry = probe.size_bytes()
        probe.close()
        cache = SQLiteResultCache(
            str(tmp_path / "budget.sqlite"), max_bytes=2 * entry + entry // 2
        )
        for key in ("a", "b", "c", "d"):
            cache.put(key, sample_evaluation)
        assert len(cache) == 2
        assert cache.stats.evictions == 2
        assert cache.size_bytes() <= cache.max_bytes
        assert cache.get("d") is not None
        assert cache.get("a") is None
        cache.close()

    def test_sqlite_newest_entry_survives_tiny_budget(self, tmp_path,
                                                      sample_evaluation):
        cache = SQLiteResultCache(str(tmp_path / "tiny.sqlite"), max_bytes=1)
        cache.put("a", sample_evaluation)
        cache.put("b", sample_evaluation)
        assert len(cache) == 1
        assert cache.get("b") is not None
        cache.close()

    def test_byte_and_entry_budgets_compose(self, tmp_path, sample_evaluation):
        entry = self._entry_size(tmp_path, sample_evaluation)
        cache = JSONDirectoryCache(
            str(tmp_path / "both"), max_entries=3, max_bytes=10 * entry
        )
        for index in range(5):
            cache.put(f"k{index}", sample_evaluation)
        assert len(cache) == 3  # entry cap binds before the byte budget
        assert cache.stats.evictions == 2

    def test_rejects_nonpositive_budget(self, tmp_path):
        with pytest.raises(ValueError):
            JSONDirectoryCache(str(tmp_path / "bad"), max_bytes=0)
        with pytest.raises(ValueError):
            SQLiteResultCache(str(tmp_path / "bad.sqlite"), max_bytes=0)

    def test_open_cache_forwards_max_bytes(self, tmp_path):
        sqlite = open_cache(str(tmp_path / "c.sqlite"), max_bytes=4096)
        assert sqlite.max_bytes == 4096
        sqlite.close()
        assert open_cache(str(tmp_path / "dir"), max_bytes=4096).max_bytes == 4096
        with pytest.raises(ValueError):
            open_cache(None, max_bytes=4096)  # memory backend has no bytes
