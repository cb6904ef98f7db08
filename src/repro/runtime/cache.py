"""Content-addressed result caches for the exploration runtime.

Design evaluations are expensive (one approximate pipeline run per record),
deterministic and keyed by content (:mod:`repro.core.fingerprint`), which
makes them ideal cache citizens.  The caches here are the backends of
:mod:`repro.core.store` bound to the canonical-JSON evaluation codec:

* :class:`MemoryResultCache` — in-process LRU cache of live evaluations
  (optionally bounded, with eviction accounting).
* :class:`JSONDirectoryCache` — one checksummed file per entry inside a cache
  directory; human-inspectable, trivially mergeable between machines.
* :class:`SQLiteResultCache` — a single SQLite database file; the right
  choice when many processes or runs share one cache.

The persistent backends accept an entry cap (``max_entries``) and a byte
budget (``max_bytes``) with oldest-first eviction, detect corrupted entries
on read (counted in ``stats.corrupt``, dropped, reported as a miss — the
runtime simply recomputes them) and purge caches written in an older format
(counted in ``stats.stale``).  See :mod:`repro.core.store` for the details
shared with the signal stores.

All caches also implement the mutable-mapping subset used by
:class:`~repro.core.quality.DesignEvaluator` (``in`` / ``[]``), so a
persistent cache can be plugged straight into an evaluator.
"""

from __future__ import annotations

import json
from typing import Dict, Optional

from ..core.configurations import DesignPoint, StageApproximation
from ..core.quality import DesignEvaluation
from ..core.store import Codec, DirectoryStore, MemoryStore, SQLiteStore, Store

__all__ = [
    "MemoryResultCache",
    "JSONDirectoryCache",
    "SQLiteResultCache",
    "open_cache",
    "serialize_evaluation",
    "deserialize_evaluation",
]


# ------------------------------------------------------------ serialization
def serialize_evaluation(evaluation: DesignEvaluation) -> Dict[str, object]:
    """JSON-serialisable rendering of one :class:`DesignEvaluation`."""
    return {
        "design": {
            "name": evaluation.design.name,
            "description": evaluation.design.description,
            "stages": [
                {
                    "stage": s.stage,
                    "lsbs": s.lsbs,
                    "adder": s.adder,
                    "multiplier": s.multiplier,
                }
                for s in evaluation.design.stages
            ],
        },
        "psnr_db": float(evaluation.psnr_db),
        "ssim_value": float(evaluation.ssim_value),
        "peak_accuracy": float(evaluation.peak_accuracy),
        "detected_peaks": int(evaluation.detected_peaks),
        "true_peaks": int(evaluation.true_peaks),
        "energy_reduction": float(evaluation.energy_reduction),
        "per_record_accuracy": {
            name: float(value)
            for name, value in evaluation.per_record_accuracy.items()
        },
    }


def deserialize_evaluation(payload: Dict[str, object]) -> DesignEvaluation:
    """Inverse of :func:`serialize_evaluation`."""
    design_payload = payload["design"]
    design = DesignPoint(
        stages=tuple(
            StageApproximation(
                stage=s["stage"],
                lsbs=int(s["lsbs"]),
                adder=s["adder"],
                multiplier=s["multiplier"],
            )
            for s in design_payload["stages"]
        ),
        name=design_payload.get("name", ""),
        description=design_payload.get("description", ""),
    )
    return DesignEvaluation(
        design=design,
        psnr_db=float(payload["psnr_db"]),
        ssim_value=float(payload["ssim_value"]),
        peak_accuracy=float(payload["peak_accuracy"]),
        detected_peaks=int(payload["detected_peaks"]),
        true_peaks=int(payload["true_peaks"]),
        energy_reduction=float(payload["energy_reduction"]),
        per_record_accuracy=dict(payload["per_record_accuracy"]),
    )


class EvaluationCodec(Codec):
    """:class:`DesignEvaluation` as canonical (sorted, compact) JSON."""

    name = "evaluations"
    suffix = ".evaluation"
    schema = "evaluation-json-v1"
    legacy_suffix = ".json"

    def encode(self, evaluation: DesignEvaluation) -> bytes:
        text = json.dumps(
            serialize_evaluation(evaluation), sort_keys=True, separators=(",", ":")
        )
        return text.encode("utf-8")

    def decode(self, blob: bytes) -> DesignEvaluation:
        return deserialize_evaluation(json.loads(blob))


# ------------------------------------------------------------------ backends
class MemoryResultCache(MemoryStore):
    """In-process LRU cache, optionally bounded to ``max_entries``.

    Thread-safe: the exploration service resolves concurrent jobs against
    one shared cache from several worker threads.
    """

    codec = EvaluationCodec()
    tier = "result_cache"


class JSONDirectoryCache(DirectoryStore):
    """One checksummed canonical-JSON file per entry inside ``directory``.

    ``max_entries`` bounds the directory's entry count, ``max_bytes`` its
    byte footprint: after every write the oldest files beyond either budget
    are removed and counted as evictions.
    """

    codec = EvaluationCodec()
    tier = "result_cache"


class SQLiteResultCache(SQLiteStore):
    """All entries in one SQLite database file (share-friendly across runs).

    ``max_entries`` bounds the table's row count, ``max_bytes`` its payload
    bytes: after every write the oldest rows beyond either budget are
    deleted and counted as evictions.
    """

    codec = EvaluationCodec()
    tier = "result_cache"


def open_cache(
    path: Optional[str] = None,
    max_entries: Optional[int] = None,
    max_bytes: Optional[int] = None,
) -> Store:
    """Open the right cache backend for ``path``.

    ``None`` gives an in-memory cache, a path ending in ``.sqlite`` / ``.db``
    a :class:`SQLiteResultCache`, anything else a :class:`JSONDirectoryCache`
    rooted at the path.  ``max_entries`` caps any backend, ``max_bytes``
    additionally budgets the persistent ones (``None`` keeps either
    unbounded).
    """
    if path is None:
        if max_bytes is not None:
            raise ValueError("max_bytes requires a persistent cache backend")
        return MemoryResultCache(max_entries=max_entries)
    if path.endswith((".sqlite", ".sqlite3", ".db")):
        return SQLiteResultCache(path, max_entries=max_entries, max_bytes=max_bytes)
    return JSONDirectoryCache(path, max_entries=max_entries, max_bytes=max_bytes)
