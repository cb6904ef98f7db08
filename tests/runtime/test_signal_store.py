"""Intermediate-signal stores: round-trips, corruption, eviction, integration.

The stage-memoization correctness matrix runs here: for each of the three
store backends (memory / JSON directory / SQLite), evaluation through a
stage graph backed by that store must be bit-identical to cold execution.
"""

from __future__ import annotations

import io
import os

import numpy as np
import pytest

from repro.core import DesignEvaluator, DesignPoint, paper_configuration
from repro.core.quality import run_design_evaluation
from repro.runtime import ExplorationRuntime
from repro.runtime.signal_store import (
    JSONDirectorySignalStore,
    MemorySignalStore,
    SQLiteSignalStore,
    open_signal_store,
    signal_store_spec,
)

BACKENDS = ("memory", "json", "sqlite")


def make_store(kind: str, tmp_path, max_entries=None, tag=""):
    if kind == "memory":
        return MemorySignalStore(max_entries=max_entries)
    if kind == "json":
        return JSONDirectorySignalStore(
            str(tmp_path / f"signals{tag}"), max_entries=max_entries
        )
    return SQLiteSignalStore(
        str(tmp_path / f"signals{tag}.sqlite"), max_entries=max_entries
    )


@pytest.fixture(params=BACKENDS)
def store(request, tmp_path):
    return make_store(request.param, tmp_path)


# ------------------------------------------------------------------ generic
class TestSignalStoreContract:
    def test_round_trip_preserves_dtype_shape_and_content(self, store):
        signal = np.arange(-50, 50, dtype=np.int64)
        store.put("node", signal)
        out = store.get("node")
        assert out.dtype == signal.dtype
        np.testing.assert_array_equal(out, signal)
        assert not out.flags.writeable

    def test_missing_key_is_a_miss(self, store):
        assert store.get("absent") is None

    def test_len_contains_clear(self, store):
        store.put("a", np.zeros(4, dtype=np.int64))
        store.put("b", np.ones(4, dtype=np.int64))
        assert len(store) == 2
        assert "a" in store and "missing" not in store
        store.clear()
        assert len(store) == 0

    def test_overwrite_replaces_the_signal(self, store):
        store.put("k", np.zeros(4, dtype=np.int64))
        store.put("k", np.ones(4, dtype=np.int64))
        assert len(store) == 1
        np.testing.assert_array_equal(
            store.get("k"), np.ones(4, dtype=np.int64)
        )

    def test_eviction_cap_is_enforced_and_counted(self, tmp_path, request):
        for kind in BACKENDS:
            capped = make_store(kind, tmp_path, max_entries=2, tag=f"-cap-{kind}")
            for index in range(5):
                capped.put(f"k{index}", np.full(8, index, dtype=np.int64))
            assert len(capped) == 2
            assert capped.stats.evictions == 3
            # The newest entries survive.
            assert capped.get("k4") is not None
            if kind == "sqlite":
                capped.close()

    def test_rejects_nonpositive_cap(self, tmp_path):
        for kind in BACKENDS:
            with pytest.raises(ValueError):
                make_store(kind, tmp_path, max_entries=0, tag="-bad")


# ------------------------------------------------------------- persistence
class TestPersistence:
    def test_json_store_survives_reopen(self, tmp_path):
        path = str(tmp_path / "signals")
        first = JSONDirectorySignalStore(path)
        first.put("k", np.arange(16, dtype=np.int64))
        second = JSONDirectorySignalStore(path)
        np.testing.assert_array_equal(
            second.get("k"), np.arange(16, dtype=np.int64)
        )

    def test_sqlite_store_survives_reopen(self, tmp_path):
        path = str(tmp_path / "signals.sqlite")
        first = SQLiteSignalStore(path)
        first.put("k", np.arange(16, dtype=np.int64))
        first.close()
        second = SQLiteSignalStore(path)
        np.testing.assert_array_equal(
            second.get("k"), np.arange(16, dtype=np.int64)
        )
        second.close()


# ----------------------------------------------------------- schema guard
class TestKeySchemaGuard:
    """Stores written under an older node-key schema are purged, not mixed."""

    def test_json_store_without_marker_is_purged_on_open(self, tmp_path):
        path = str(tmp_path / "signals")
        store = JSONDirectorySignalStore(path)
        store.put("old-node", np.arange(8, dtype=np.int64))
        # Simulate a store written before schema tagging (or under the
        # prefix-chain scheme): remove the marker the store just wrote.
        os.remove(store._marker_path())
        reopened = JSONDirectorySignalStore(path)
        assert reopened.stats.stale == 1
        assert reopened.get("old-node") is None
        assert len(reopened) == 0

    def test_json_store_with_foreign_schema_is_purged(self, tmp_path):
        path = str(tmp_path / "signals")
        store = JSONDirectorySignalStore(path)
        store.put("old-node", np.arange(8, dtype=np.int64))
        with open(store._marker_path(), "w") as handle:
            handle.write("prefix-chain-v0")
        reopened = JSONDirectorySignalStore(path)
        assert reopened.stats.stale == 1
        assert "old-node" not in reopened

    def test_sqlite_store_without_marker_is_purged_on_open(self, tmp_path):
        path = str(tmp_path / "signals.sqlite")
        store = SQLiteSignalStore(path)
        store.put("a", np.arange(8, dtype=np.int64))
        store.put("b", np.arange(8, dtype=np.int64))
        store._connection.execute("DELETE FROM meta WHERE key = 'schema:signals'")
        store._connection.commit()
        store.close()
        reopened = SQLiteSignalStore(path)
        assert reopened.stats.stale == 2
        assert len(reopened) == 0
        reopened.close()

    def test_matching_schema_keeps_entries(self, tmp_path):
        for kind in ("json", "sqlite"):
            store = make_store(kind, tmp_path, tag=f"-keep-{kind}")
            store.put("node", np.arange(8, dtype=np.int64))
            if kind == "sqlite":
                store.close()
            reopened = make_store(kind, tmp_path, tag=f"-keep-{kind}")
            assert reopened.stats.stale == 0
            np.testing.assert_array_equal(
                reopened.get("node"), np.arange(8, dtype=np.int64)
            )
            if kind == "sqlite":
                reopened.close()


# -------------------------------------------------------------- corruption
class TestCorruptionRecovery:
    def test_json_checksum_mismatch_is_dropped(self, tmp_path):
        store = JSONDirectorySignalStore(str(tmp_path / "signals"))
        store.put("k", np.arange(8, dtype=np.int64))
        path = store._path("k")
        with open(path, "rb") as handle:
            checksum = handle.read().split(b"\n", 1)[0]
        buffer = io.BytesIO()
        np.save(buffer, np.arange(4, dtype=np.int64))  # checksum mismatch
        with open(path, "wb") as handle:
            handle.write(checksum + b"\n" + buffer.getvalue())
        assert store.get("k") is None
        assert store.stats.corrupt == 1
        assert not os.path.exists(path)

    def test_json_truncated_file_is_dropped(self, tmp_path):
        store = JSONDirectorySignalStore(str(tmp_path / "signals"))
        store.put("k", np.arange(8, dtype=np.int64))
        with open(store._path("k"), "w", encoding="utf-8") as handle:
            handle.write('{"dtype": "int64", "sh')
        assert store.get("k") is None
        assert store.stats.corrupt == 1

    def test_sqlite_corrupted_blob_is_dropped(self, tmp_path):
        store = SQLiteSignalStore(str(tmp_path / "signals.sqlite"))
        store.put("k", np.arange(8, dtype=np.int64))
        store._connection.execute(
            "UPDATE signals SET payload = ? WHERE key = ?", (b"garbage", "k")
        )
        store._connection.commit()
        assert store.get("k") is None
        assert store.stats.corrupt == 1
        assert len(store) == 0
        store.close()


# ---------------------------------------------------------------- dispatch
class TestOpenSignalStore:
    def test_backend_selection(self, tmp_path):
        assert isinstance(open_signal_store(None), MemorySignalStore)
        sqlite = open_signal_store(str(tmp_path / "s.sqlite"))
        assert isinstance(sqlite, SQLiteSignalStore)
        sqlite.close()
        assert isinstance(
            open_signal_store(str(tmp_path / "dir")), JSONDirectorySignalStore
        )


class TestSignalStoreSpec:
    def test_persistent_stores_yield_reopenable_specs(self, tmp_path):
        sqlite = SQLiteSignalStore(str(tmp_path / "s.sqlite"), max_entries=9)
        assert signal_store_spec(sqlite) == (str(tmp_path / "s.sqlite"), 9, None)
        sqlite.close()
        json_store = JSONDirectorySignalStore(str(tmp_path / "dir"))
        assert signal_store_spec(json_store) == (
            str(tmp_path / "dir"),
            json_store.max_entries,
            None,
        )

    def test_memory_store_has_no_spec(self):
        assert signal_store_spec(MemorySignalStore()) is None


# ------------------------------------------------- stage-graph integration
class TestStageMemoizationAcrossBackends:
    """Memoized execution is bit-identical to cold, on every store backend."""

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_memoized_evaluation_matches_cold(self, kind, tmp_path, tiny_record):
        store = make_store(kind, tmp_path, tag=f"-int-{kind}")
        evaluator = DesignEvaluator([tiny_record], signal_store=store)
        designs = [
            paper_configuration("B2"),
            paper_configuration("B9"),
            DesignPoint.from_lsbs({"lpf": 10, "hpf": 12, "mwi": 8}),
        ]
        for design in designs:
            warm = evaluator.evaluate(design)
            cold = run_design_evaluation(
                design, evaluator.records, evaluator.accurate_results
            )
            assert warm.psnr_db == cold.psnr_db
            assert warm.ssim_value == cold.ssim_value
            assert warm.peak_accuracy == cold.peak_accuracy
            assert warm.detected_peaks == cold.detected_peaks
        # The shared lpf=10 / (10, 12) prefixes were reused, not recomputed.
        assert evaluator.stage_stats.hits_for("low_pass") >= 2
        assert evaluator.stage_stats.hits_for("high_pass") >= 1
        if kind == "sqlite":
            store.close()

    @pytest.mark.parametrize("kind", ("json", "sqlite"))
    def test_persistent_store_warms_a_fresh_evaluator(
        self, kind, tmp_path, tiny_record
    ):
        design = paper_configuration("B9")
        first_store = make_store(kind, tmp_path, tag="-warm")
        first = DesignEvaluator([tiny_record], signal_store=first_store)
        warm_reference = first.evaluate(design)
        if kind == "sqlite":
            first_store.close()

        second_store = make_store(kind, tmp_path, tag="-warm")
        second = DesignEvaluator([tiny_record], signal_store=second_store)
        result = second.evaluate(design)
        # Every stage of the accurate chain and of B9 came from the store.
        assert second.stage_stats.total_computes == 0
        assert result.psnr_db == warm_reference.psnr_db
        assert result.peak_accuracy == warm_reference.peak_accuracy
        if kind == "sqlite":
            second_store.close()

    def test_process_pool_workers_share_a_persistent_store(
        self, tmp_path, tiny_record
    ):
        # The worker pool reopens the store from its spec, so the nodes its
        # workers compute land on disk and warm a later serial evaluator.
        path = str(tmp_path / "pool-signals.sqlite")
        designs = [paper_configuration(f"B{i}") for i in range(1, 7)]
        pool_store = SQLiteSignalStore(path)
        with ExplorationRuntime(
            [tiny_record],
            executor="process",
            max_workers=2,
            signal_store=pool_store,
        ) as runtime:
            pool_results = runtime.evaluate_many(designs)
        pool_store.close()

        warm_store = SQLiteSignalStore(path)
        warm = DesignEvaluator([tiny_record], signal_store=warm_store)
        for design, pooled in zip(designs, pool_results):
            fresh = warm.evaluate(design)
            assert fresh.psnr_db == pooled.psnr_db
            assert fresh.peak_accuracy == pooled.peak_accuracy
        # The pool populated every node these designs need.
        assert warm.stage_stats.total_computes == 0
        warm_store.close()


# --------------------------------------------------------- byte budgets
class TestByteBudgetEviction:
    """max_bytes on the persistent stores: oldest nodes out, newest kept."""

    def test_json_store_byte_budget(self, tmp_path):
        probe = JSONDirectorySignalStore(str(tmp_path / "probe"))
        probe.put("probe", np.arange(256, dtype=np.int64))
        node_bytes = probe.size_bytes()
        store = JSONDirectorySignalStore(
            str(tmp_path / "budget"), max_bytes=2 * node_bytes + node_bytes // 2
        )
        for index in range(5):
            store.put(f"k{index}", np.arange(256, dtype=np.int64))
        assert len(store) == 2
        assert store.stats.evictions == 3
        assert store.size_bytes() <= store.max_bytes
        assert store.get("k4") is not None
        assert store.get("k0") is None

    def test_sqlite_store_byte_budget(self, tmp_path):
        probe = SQLiteSignalStore(str(tmp_path / "probe.sqlite"))
        probe.put("probe", np.arange(256, dtype=np.int64))
        node_bytes = probe.size_bytes()
        probe.close()
        store = SQLiteSignalStore(
            str(tmp_path / "budget.sqlite"),
            max_bytes=2 * node_bytes + node_bytes // 2,
        )
        for index in range(5):
            store.put(f"k{index}", np.arange(256, dtype=np.int64))
        assert len(store) == 2
        assert store.stats.evictions == 3
        assert store.size_bytes() <= store.max_bytes
        assert store.get("k4") is not None
        assert store.get("k0") is None
        store.close()

    def test_newest_node_survives_tiny_budget(self, tmp_path):
        store = SQLiteSignalStore(str(tmp_path / "tiny.sqlite"), max_bytes=1)
        store.put("a", np.arange(64, dtype=np.int64))
        store.put("b", np.arange(64, dtype=np.int64))
        assert len(store) == 1
        assert store.get("b") is not None
        store.close()

    def test_open_signal_store_forwards_max_bytes(self, tmp_path):
        sqlite = open_signal_store(str(tmp_path / "s.sqlite"), max_bytes=8192)
        assert sqlite.max_bytes == 8192
        sqlite.close()
        json_store = open_signal_store(str(tmp_path / "dir"), max_bytes=8192)
        assert json_store.max_bytes == 8192
        with pytest.raises(ValueError):
            open_signal_store(None, max_bytes=8192)

    def test_spec_carries_the_byte_budget(self, tmp_path):
        store = SQLiteSignalStore(
            str(tmp_path / "spec.sqlite"), max_entries=9, max_bytes=12345
        )
        assert signal_store_spec(store) == (
            str(tmp_path / "spec.sqlite"), 9, 12345,
        )
        store.close()
