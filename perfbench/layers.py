"""Outside-in layer decomposition for the traced run.

Two tools, both calling only public functions of the program:

* :func:`decomposed_evaluation` re-runs one design evaluation as the chain of
  layer calls ``runtime.evaluate`` makes (node keys, ``process_stage``,
  ``detect_peaks``, PSNR/SSIM, peak matching, the energy model), each inside a
  ledger span, with every arithmetic call of a stage timed through a backend
  proxy.  Callers assert the result equals the runtime's
  ``DesignEvaluation`` exactly, which proves the ledger timed the same work.
* :func:`call_costs` times single calls into each layer on the workload's own
  inputs (one compiled add, one stage, one cache get, ...).
"""

from __future__ import annotations

import os
import shutil
from typing import Dict, List, Sequence

import numpy as np

from common import Ledger, median

from repro.arithmetic.library import ArithmeticBackend
from repro.core.configurations import DesignPoint, paper_configuration
from repro.core.fingerprint import signal_content_hash, stage_node_key
from repro.core.quality import DesignEvaluation
from repro.dsp.detection import detect_peaks
from repro.dsp.pan_tompkins import PanTompkinsPipeline
from repro.dsp.stages import total_group_delay_samples
from repro.metrics.peaks import match_peaks
from repro.metrics.psnr import psnr
from repro.metrics.ssim import ssim
from repro.runtime.cache import MemoryResultCache, SQLiteResultCache
from repro.runtime.signal_store import MemorySignalStore, SQLiteSignalStore
from repro.signals.records import load_record
from repro.streaming.detector import IncrementalPeakDetector
from repro.streaming.stages import StageStreamer

#: Short stage names used in metric names.
STAGE_SHORT = {
    "low_pass": "low_pass",
    "high_pass": "high_pass",
    "derivative": "derivative",
    "squarer": "squarer",
    "moving_window_integral": "mwi",
}


class TimedBackend:
    """Arithmetic backend proxy: each arithmetic call the stages make
    (``add``, ``multiply_constant``, ``square``) runs in a span."""

    def __init__(self, inner: ArithmeticBackend, ledger: Ledger) -> None:
        self._inner = inner
        self._ledger = ledger

    def with_approx_lsbs(self, approx_lsbs: int) -> "TimedBackend":
        return TimedBackend(self._inner.with_approx_lsbs(approx_lsbs), self._ledger)

    def add(self, a, b):
        return self._ledger.call("arithmetic.add", self._inner.add, a, b)

    def multiply_constant(self, a, constant):
        return self._ledger.call(
            "arithmetic.multiply_constant", self._inner.multiply_constant, a, constant
        )

    def square(self, a):
        return self._ledger.call("arithmetic.square", self._inner.square, a)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def timed_pipeline(design: DesignPoint, ledger: Ledger) -> PanTompkinsPipeline:
    """The design's pipeline with every stage backend wrapped in a proxy."""
    plain = PanTompkinsPipeline(backends=design.backends())
    return PanTompkinsPipeline(
        backends={
            stage.name: TimedBackend(backend, ledger)
            for stage, backend in plain.stage_plan()
        }
    )


def decomposed_chain(
    samples, pipeline, real_backends, memo, ledger
) -> Dict[str, np.ndarray]:
    """Resolve the five stage nodes of one record through ``memo``."""
    samples = np.asarray(samples, dtype=np.int64)
    root = ledger.call("core.root_key", memo.root_key, samples)
    input_hash = root
    current = samples
    outputs: Dict[str, np.ndarray] = {}
    for stage in pipeline.stages:
        backend = real_backends[stage.name]
        key = ledger.call("core.node_key", memo.node_key, input_hash, stage, backend)

        def compute(signal=current, s=stage):
            return ledger.call(
                f"dsp.{STAGE_SHORT[s.name]}", pipeline.process_stage, signal, s
            )

        current = ledger.call(
            "core.resolve", memo.resolve, stage.name, key, compute, root_hash=root
        )
        input_hash = ledger.call("core.output_hash", memo.output_hash, key, current)
        outputs[stage.name] = current
    return outputs


def decomposed_evaluation(
    design: DesignPoint,
    records: Sequence,
    accurate_preprocessed: Dict[str, np.ndarray],
    memo,
    ledger: Ledger,
    peak_tolerance_samples: int = 40,
) -> DesignEvaluation:
    """``run_design_evaluation`` rebuilt from public layer calls, in spans."""
    with ledger.span("core.evaluate"):
        delay = ledger.call("dsp.group_delay", total_group_delay_samples)
        real = {
            stage.name: backend
            for stage, backend in PanTompkinsPipeline(
                backends=design.backends()
            ).stage_plan()
        }
        pipeline = timed_pipeline(design, ledger)
        psnr_values: List[float] = []
        ssim_values: List[float] = []
        accuracies: Dict[str, float] = {}
        detected_total = 0
        true_total = 0
        for record in records:
            outputs = decomposed_chain(record.samples, pipeline, real, memo, ledger)
            detection = ledger.call(
                "dsp.detect",
                detect_peaks,
                outputs["moving_window_integral"],
                outputs["high_pass"],
                pipeline.detection_config,
            )
            reference = accurate_preprocessed[record.name]
            psnr_values.append(
                ledger.call("metrics.psnr", psnr, reference, outputs["high_pass"])
            )
            ssim_values.append(
                ledger.call("metrics.ssim", ssim, reference, outputs["high_pass"])
            )
            matching = ledger.call(
                "metrics.match_peaks",
                match_peaks,
                record.r_peak_indices,
                detection.peak_array(),
                tolerance_samples=peak_tolerance_samples,
                expected_delay_samples=delay,
            )
            accuracies[record.name] = matching.detection_accuracy
            detected_total += detection.peak_count
            true_total += record.beat_count
        energy = ledger.call("energy.energy_reduction", design.energy_reduction)
        return DesignEvaluation(
            design=design,
            psnr_db=float(np.mean([min(p, 120.0) for p in psnr_values])),
            ssim_value=float(np.mean(ssim_values)),
            peak_accuracy=float(np.mean(list(accuracies.values()))),
            detected_peaks=detected_total,
            true_peaks=true_total,
            energy_reduction=energy,
            per_record_accuracy=accuracies,
        )


def _us(seconds: float) -> float:
    return seconds * 1e6


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _timed(ledger: Ledger, name: str, call, repeat: int) -> float:
    """Median seconds of ``repeat`` calls, each in a span called ``name``."""
    for _ in range(repeat):
        ledger.call(name, call)
    return median(ledger.durations(name)[-repeat:])


#: Calls timed per layer function (the median is reported), and the chunk
#: length of the streaming and short-row calls.
REPEAT = 15
CHUNK_SAMPLES = 50


def call_costs(ledger: Ledger, records: Sequence, scratch_dir: str) -> Dict[str, float]:
    """Per-call cost of each layer on this workload's inputs.

    Rows are workload-length (the first record); the approximate design is
    B9, whose five stages are all approximated with the default cells.
    """
    repeat = REPEAT
    chunk_samples = CHUNK_SAMPLES
    record = records[0]
    samples = np.asarray(record.samples, dtype=np.int64)
    design = paper_configuration("B9")
    accurate = PanTompkinsPipeline()
    approx = PanTompkinsPipeline(backends=design.backends())
    reference = accurate.process(samples)
    approximate = approx.process(samples)
    costs: Dict[str, float] = {}

    # arithmetic: one compiled call, as fir_filter issues it in the LPF.
    lpf = approx.stages[0]
    backend = approx.backend_for(lpf)
    backend = backend.with_approx_lsbs(
        lpf.datapath_lsbs(backend.approx_lsbs, backend.adder_width)
    )
    coefficients = lpf.quantized_coefficients(backend.multiplier_width)
    p0 = backend.multiply_constant(samples, int(coefficients[0]))
    p1 = backend.multiply_constant(samples, int(coefficients[1]))
    costs["arithmetic.add_us"] = _us(
        _timed(ledger, "arithmetic.add", lambda: backend.add(p0, p1), repeat)
    )
    costs["arithmetic.mul_const_us"] = _us(
        _timed(
            ledger,
            "arithmetic.multiply_constant",
            lambda: backend.multiply_constant(samples, int(coefficients[1])),
            repeat,
        )
    )
    c0, c1 = p0[:chunk_samples].copy(), p1[:chunk_samples].copy()
    costs["arithmetic.add_chunk_us"] = _us(
        _timed(ledger, "arithmetic.add_chunk", lambda: backend.add(c0, c1), repeat)
    )

    # dsp: one stage run each, on the accurate upstream signal.
    upstream = samples
    for stage in approx.stages:
        short = STAGE_SHORT[stage.name]
        signal = upstream
        costs[f"dsp.{short}_ms"] = _ms(
            _timed(
                ledger,
                f"dsp.{short}",
                lambda: approx.process_stage(signal, stage),
                repeat,
            )
        )
        upstream = reference.stage_outputs[stage.name]
    mwi = approximate.stage_outputs["moving_window_integral"]
    hpf = approximate.preprocessed
    costs["dsp.detect_ms"] = _ms(
        _timed(ledger, "dsp.detect", lambda: detect_peaks(mwi, hpf), repeat)
    )

    # core: the node key of one stage run (content hash + key digest).
    costs["core.node_key_us"] = _us(
        _timed(
            ledger,
            "core.node_key",
            lambda: stage_node_key(signal_content_hash(samples), lpf, backend),
            repeat,
        )
    )

    # metrics and energy.
    costs["metrics.psnr_us"] = _us(
        _timed(ledger, "metrics.psnr", lambda: psnr(reference.preprocessed, hpf), repeat)
    )
    costs["metrics.ssim_ms"] = _ms(
        _timed(ledger, "metrics.ssim", lambda: ssim(reference.preprocessed, hpf), repeat)
    )
    delay = total_group_delay_samples()
    costs["metrics.match_peaks_us"] = _us(
        _timed(
            ledger,
            "metrics.match_peaks",
            lambda: match_peaks(
                record.r_peak_indices,
                approximate.peak_indices,
                tolerance_samples=40,
                expected_delay_samples=delay,
            ),
            repeat,
        )
    )
    costs["energy.design_energy_us"] = _us(
        _timed(ledger, "energy.energy_reduction", design.energy_reduction, repeat)
    )

    # signals: synthesis of one record of this workload's length.
    costs["signals.load_record_ms"] = _ms(
        _timed(
            ledger,
            "signals.load_record",
            lambda: load_record(record.name, duration_s=record.duration_s),
            max(3, repeat // 3),
        )
    )

    # runtime: result-cache and signal-store get/put, memory and SQLite.
    evaluation = DesignEvaluation(
        design=design, psnr_db=1.0, ssim_value=1.0, peak_accuracy=1.0,
        detected_peaks=1, true_peaks=1, energy_reduction=1.0,
        per_record_accuracy={record.name: 1.0},
    )
    shutil.rmtree(scratch_dir, ignore_errors=True)
    os.makedirs(scratch_dir)
    backends = {
        "mem": (MemoryResultCache(), MemorySignalStore()),
        "sqlite": (
            SQLiteResultCache(os.path.join(scratch_dir, "calls-cache.sqlite")),
            SQLiteSignalStore(os.path.join(scratch_dir, "calls-signals.sqlite")),
        ),
    }
    for kind, (cache, store) in backends.items():
        keys = [f"{kind}-{i}" for i in range(repeat)]
        for key in keys:
            ledger.call(f"runtime.cache_put.{kind}", cache.put, key, evaluation)
            ledger.call(f"runtime.signal_put.{kind}", store.put, key, hpf)
        for key in keys:
            ledger.call(f"runtime.cache_get.{kind}", cache.get, key)
            ledger.call(f"runtime.signal_get.{kind}", store.get, key)
        for op in ("cache_put", "cache_get", "signal_put", "signal_get"):
            costs[f"runtime.{op}_{kind}_us"] = _us(
                median(ledger.durations(f"runtime.{op}.{kind}"))
            )
        close = getattr(store, "close", None)
        if close is not None:
            close()
        close = getattr(cache, "close", None)
        if close is not None:
            close()

    # streaming: one chunk through the five stage streamers and the detector.
    streamers = [StageStreamer(stage, b) for stage, b in approx.stage_plan()]
    detector = IncrementalPeakDetector()
    stage_push: List[float] = []
    detector_push: List[float] = []
    for start in range(0, min(samples.size, 40 * chunk_samples), chunk_samples):
        current = samples[start : start + chunk_samples]
        outputs = {}
        with ledger.span("streaming.stage_push"):
            for streamer in streamers:
                current = streamer.push(current)
                outputs[streamer.stage.name] = current
        stage_push.append(ledger.last("streaming.stage_push"))
        ledger.call(
            "streaming.detector_push",
            detector.update,
            outputs["moving_window_integral"],
            outputs["high_pass"],
        )
        detector_push.append(ledger.last("streaming.detector_push"))
    costs["streaming.stage_push_us"] = _us(median(stage_push))
    costs["streaming.detector_push_us"] = _us(median(detector_push))
    return costs
