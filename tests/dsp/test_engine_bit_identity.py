"""Pipeline-level bit-identity of the compiled engine's fast paths.

The word-level backends serve FIR taps from per-constant LUTs and the
squarer from a unary LUT.  These tests run the *whole* Pan-Tompkins
pipeline — offline and streaming, across the paper's Fig. 12 design set —
against a backend that spells both as generic multiplies (the historical
``full_like`` constant-multiply spelling), and assert every stage output and
every detected beat is identical.  One design is also anchored to the scalar
reference models, element by element, on a short slice of a record.
"""

import numpy as np
import pytest

from repro.arithmetic import ArithmeticBackend, RecursiveMultiplier, RippleCarryAdder
from repro.core.configurations import PAPER_CONFIGURATIONS
from repro.dsp.pan_tompkins import PanTompkinsPipeline
from repro.signals import load_record
from repro.streaming import StreamingPipeline


class GenericMultiplyBackend(ArithmeticBackend):
    """Compiled ``add``/``multiply``, with the constant-operand and squarer
    LUTs replaced by generic multiplies."""

    def multiply_constant(self, a, constant):
        a = np.asarray(a, dtype=np.int64)
        return self.multiply(a, np.full_like(a, constant))

    def square(self, a):
        return self.multiply(a, a)


class ScalarModelBackend(GenericMultiplyBackend):
    """Every add and multiply through the scalar reference models."""

    def _ripple_carry_adder(self):
        return RippleCarryAdder(self.adder_width, self.approx_lsbs, self.resolved_adder)

    def add(self, a, b):
        adder = self._ripple_carry_adder()
        return np.array([adder.add(int(x), int(y)) for x, y in zip(a, b)], dtype=np.int64)

    def subtract(self, a, b):
        adder = self._ripple_carry_adder()
        return np.array(
            [adder.subtract(int(x), int(y)) for x, y in zip(a, b)], dtype=np.int64
        )

    def multiply(self, a, b):
        multiplier = RecursiveMultiplier(
            self.multiplier_width,
            self.approx_lsbs,
            self.resolved_multiplier,
            self.resolved_adder,
        )
        return np.array(
            [multiplier.multiply(int(x), int(y)) for x, y in zip(a, b)], dtype=np.int64
        )


def _backends_as(backend_type, design):
    return {
        stage: backend_type(
            approx_lsbs=backend.approx_lsbs,
            adder_cell=backend.resolved_adder,
            multiplier_cell=backend.resolved_multiplier,
            adder_width=backend.adder_width,
            multiplier_width=backend.multiplier_width,
        )
        for stage, backend in design.backends().items()
    }


@pytest.fixture(scope="module")
def record():
    return load_record("16265", duration_s=6.0)


def _assert_results_identical(result_a, result_b):
    assert set(result_a.stage_outputs) == set(result_b.stage_outputs)
    for name, signal in result_a.stage_outputs.items():
        assert np.array_equal(signal, result_b.stage_outputs[name]), name
    assert np.array_equal(result_a.peak_indices, result_b.peak_indices)


@pytest.mark.parametrize("config_name", sorted(PAPER_CONFIGURATIONS))
def test_fig12_designs_bit_identical_to_generic_multiplies(config_name, record):
    design = PAPER_CONFIGURATIONS[config_name]
    compiled_result = PanTompkinsPipeline(backends=design.backends()).process(
        record.samples
    )
    generic_result = PanTompkinsPipeline(
        backends=_backends_as(GenericMultiplyBackend, design)
    ).process(record.samples)
    _assert_results_identical(compiled_result, generic_result)


def test_reference_backend_survives_datapath_translation():
    """``with_approx_lsbs`` must preserve the subclass (type(self) dispatch)."""
    backend = GenericMultiplyBackend(
        approx_lsbs=8, adder_cell="ApproxAdd5", multiplier_cell="AppMultV1"
    )
    translated = backend.with_approx_lsbs(12)
    assert isinstance(translated, GenericMultiplyBackend)
    assert translated.approx_lsbs == 12


@pytest.mark.parametrize("config_name", ["B9", "B14"])
@pytest.mark.parametrize("chunk_size", [1, 37, 256])
def test_streaming_chunks_match_generic_offline(config_name, chunk_size, record):
    """Chunked streaming through the compiled engine reproduces the
    generic-multiply offline pipeline bit-for-bit for any chunk split."""
    design = PAPER_CONFIGURATIONS[config_name]
    generic_result = PanTompkinsPipeline(
        backends=_backends_as(GenericMultiplyBackend, design)
    ).process(record.samples)

    streamer = StreamingPipeline(backends=design.backends())
    for start in range(0, record.samples.size, chunk_size):
        streamer.push(record.samples[start : start + chunk_size])
    streamed_result = streamer.finalize()
    _assert_results_identical(generic_result, streamed_result)


def test_b9_matches_scalar_models(record):
    """B9 through the compiled engine equals the scalar reference models.

    The scalar models take tens of milliseconds per sample through the whole
    pipeline, so the anchor runs on a 64-sample slice around the first R
    peak, where every stage output of B9 differs from the accurate one.
    """
    design = PAPER_CONFIGURATIONS["B9"]
    samples = record.samples[160:224]
    compiled_result = PanTompkinsPipeline(backends=design.backends()).process(samples)
    scalar_result = PanTompkinsPipeline(
        backends=_backends_as(ScalarModelBackend, design)
    ).process(samples)
    _assert_results_identical(compiled_result, scalar_result)
