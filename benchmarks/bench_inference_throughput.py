"""Throughput of the batched inference engine vs the per-frame loop.

Acceptance gates of the streaming engine:

* classifying quantised angle codewords in micro-batches of 64 through
  :class:`repro.core.engine.InferenceEngine` must be at least 5x faster
  (frames/sec) than calling ``DeepCsiClassifier.predict_matrix`` once per
  frame on the ``V~`` rebuilt from the same codewords,
* the ``fp32`` compute backend must deliver at least 2x the frames/sec of
  the fp64 batched engine measured in the same run.

The default shapes are a realistic observer workload (the paper's 80 MHz
sounding geometry with the usual stride-4 sub-carrier selection).  The
streaming path takes frames or codewords only, so the random ``V~`` stream
is quantised at the edge, as a beamformee does before it sends the frame.  Set
``REPRO_BENCH_SMOKE=1`` to shrink everything for a CI smoke run.

Run directly with::

    PYTHONPATH=src python -m pytest -q -s benchmarks/bench_inference_throughput.py
"""

import copy
import os
import time

import numpy as np
import pytest

from repro.core.classifier import ClassifierConfig, DeepCsiClassifier
from repro.core.engine import InferenceEngine
from repro.core.model import DeepCsiModelConfig
from repro.datasets.containers import FeedbackSample
from repro.datasets.features import FeatureConfig, strided_subcarriers
from repro.feedback.givens import compress_v_matrix, reconstruct_v_matrices_quantized
from repro.feedback.quantization import (
    QuantizationConfig,
    quantize_angles,
    stack_quantized_angles,
)
from repro.nn.training import TrainingConfig

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: Workload geometry: (K, M, N_SS), sub-carrier stride, frames to classify.
NUM_SUBCARRIERS = 32 if SMOKE else 234
STRIDE = 4
NUM_TX = 3
NUM_STREAMS = 2
NUM_FRAMES = 128 if SMOKE else 512
BATCH_SIZE = 64
REPEATS = 3

BENCH_MODEL = DeepCsiModelConfig(
    num_filters=16,
    kernel_widths=(7, 5),
    pool_width=2,
    dense_units=(32,),
    dropout_retain=(0.8,),
    attention_kernel_width=3,
)


def _random_v_batch(rng, batch, num_subcarriers, num_tx, num_streams):
    """Random matrices with orthonormal columns, shape (B, K, M, N_SS)."""
    raw = rng.standard_normal(
        (batch, num_subcarriers, num_tx, num_tx)
    ) + 1j * rng.standard_normal((batch, num_subcarriers, num_tx, num_tx))
    q, _ = np.linalg.qr(raw)
    return q[..., :num_streams]


@pytest.fixture(scope="module")
def trained_classifier():
    """A tiny classifier trained on synthetic V~ data (3 fake modules)."""
    rng = np.random.default_rng(7)
    samples = []
    for module_id in range(3):
        v_batch = _random_v_batch(rng, 24, NUM_SUBCARRIERS, NUM_TX, NUM_STREAMS)
        # Give each fake module a distinguishable bias so training converges.
        v_batch = v_batch + 0.1 * (module_id + 1)
        samples.extend(
            FeedbackSample(v_tilde=v, module_id=module_id, beamformee_id=1)
            for v in v_batch
        )
    classifier = DeepCsiClassifier(
        ClassifierConfig(
            num_classes=3,
            feature=FeatureConfig(
                stream_indices=(0,),
                subcarrier_positions=strided_subcarriers(NUM_SUBCARRIERS, STRIDE),
            ),
            model=BENCH_MODEL,
            training=TrainingConfig(
                epochs=2, batch_size=16, early_stopping_patience=None
            ),
        )
    )
    classifier.fit(samples)
    return classifier


@pytest.fixture(scope="module")
def frame_stream():
    """The observer's input: the angle codewords of random ``V~`` matrices."""
    rng = np.random.default_rng(11)
    config = QuantizationConfig()
    return [
        quantize_angles(compress_v_matrix(v), config)
        for v in _random_v_batch(rng, NUM_FRAMES, NUM_SUBCARRIERS, NUM_TX, NUM_STREAMS)
    ]


@pytest.fixture(scope="module")
def rebuilt_stream(frame_stream):
    """The ``V~`` the engine rebuilds from ``frame_stream``, for the per-frame loop."""
    q_phi, q_psi, config, num_tx, num_streams = stack_quantized_angles(frame_stream)
    return list(reconstruct_v_matrices_quantized(q_phi, q_psi, config, num_tx, num_streams))


def _best_of(repeats, fn):
    """Best wall-clock of ``repeats`` runs (least noisy point estimate)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def test_batched_engine_is_at_least_5x_faster(
    trained_classifier, frame_stream, rebuilt_stream, record
):
    """The tentpole acceptance criterion: >= 5x frames/sec at batch 64."""

    def per_frame():
        return [trained_classifier.predict_matrix(v) for v in rebuilt_stream]

    def batched():
        engine = InferenceEngine(trained_classifier, batch_size=BATCH_SIZE)
        return engine.drain(frame_stream)

    scalar_seconds, scalar_results = _best_of(REPEATS, per_frame)
    batched_seconds, batched_results = _best_of(REPEATS, batched)

    assert len(batched_results) == len(scalar_results) == NUM_FRAMES
    for (module_id, _), result in zip(scalar_results, batched_results):
        assert result.predicted_module_id == module_id

    scalar_fps = NUM_FRAMES / scalar_seconds
    batched_fps = NUM_FRAMES / batched_seconds
    speedup = batched_fps / scalar_fps
    record(
        "bench_inference_throughput",
        "\n".join(
            [
                "Batched streaming inference engine vs per-frame loop",
                f"  workload: {NUM_FRAMES} frames, "
                f"(K, M, N_SS) = ({NUM_SUBCARRIERS}, {NUM_TX}, {NUM_STREAMS}), "
                f"stride {STRIDE}, batch size {BATCH_SIZE}"
                f"{' [smoke]' if SMOKE else ''}",
                f"  per-frame loop:  {scalar_fps:10.1f} frames/s "
                f"({1000.0 * scalar_seconds / NUM_FRAMES:.3f} ms/frame)",
                f"  batched engine:  {batched_fps:10.1f} frames/s "
                f"({1000.0 * batched_seconds / NUM_FRAMES:.3f} ms/frame)",
                f"  speedup:         {speedup:10.2f}x",
            ]
        ),
        data={
            "smoke": SMOKE,
            "num_frames": NUM_FRAMES,
            "batch_size": BATCH_SIZE,
            "frames_per_second": {
                "per_frame_loop": scalar_fps,
                "batched_engine": batched_fps,
            },
            "speedup_vs_per_frame": speedup,
            "gate": {"threshold": 5.0, "enforced": True, "passed": speedup >= 5.0},
        },
    )
    assert speedup >= 5.0, (
        f"batched engine is only {speedup:.2f}x faster than the per-frame "
        f"loop (required: >= 5x)"
    )


def _engine_fps(classifier, frame_stream):
    """Best-of frames/sec of one engine drain (arena warm-up excluded)."""
    warmup = InferenceEngine(classifier, batch_size=BATCH_SIZE)
    results = warmup.drain(frame_stream)

    def drain():
        engine = InferenceEngine(classifier, batch_size=BATCH_SIZE)
        return engine.drain(frame_stream)

    seconds, results = _best_of(REPEATS, drain)
    return len(frame_stream) / seconds, results


def _agreement(reference, results):
    return float(
        np.mean(
            [
                a.predicted_module_id == b.predicted_module_id
                for a, b in zip(reference, results)
            ]
        )
    )


def test_compute_backends_are_at_least_2x_faster(
    trained_classifier, frame_stream, record
):
    """fp32 backend: >= 2x the fp64 batched-engine frames/sec."""
    fp64_fps, fp64_results = _engine_fps(trained_classifier, frame_stream)

    fp32_classifier = copy.deepcopy(trained_classifier)
    fp32_classifier.set_compute("fp32")
    fp32_fps, fp32_results = _engine_fps(fp32_classifier, frame_stream)

    fp32_speedup = fp32_fps / fp64_fps
    fp32_agreement = _agreement(fp64_results, fp32_results)

    def row(name, fps, speedup, agreement):
        return (
            f"  {name:<14s} {fps:10.1f} frames/s   {speedup:5.2f}x vs fp64   "
            f"prediction agreement {100.0 * agreement:6.2f}%"
        )

    record(
        "bench_compute_backends",
        "\n".join(
            [
                "Compute backends vs the fp64 batched engine (same run)",
                f"  workload: {NUM_FRAMES} frames, "
                f"(K, M, N_SS) = ({NUM_SUBCARRIERS}, {NUM_TX}, {NUM_STREAMS}), "
                f"stride {STRIDE}, batch size {BATCH_SIZE}"
                f"{' [smoke]' if SMOKE else ''}",
                row("fp64 engine:", fp64_fps, 1.0, 1.0),
                row("fp32 backend:", fp32_fps, fp32_speedup, fp32_agreement),
            ]
        ),
        data={
            "smoke": SMOKE,
            "num_frames": NUM_FRAMES,
            "batch_size": BATCH_SIZE,
            "frames_per_second": {
                "fp64_engine": fp64_fps,
                "fp32_backend": fp32_fps,
            },
            "speedup_vs_fp64": {"fp32": fp32_speedup},
            "prediction_agreement_vs_fp64": {"fp32": fp32_agreement},
            "gate": {
                "threshold": 2.0,
                # The 2x gate is defined against the realistic full-size
                # workload; the tiny smoke shapes are dominated by per-batch
                # overhead shared by every backend, so smoke runs only prove
                # the machinery and record the (informational) speedup.
                "enforced": not SMOKE,
                "passed": fp32_speedup >= 2.0,
            },
        },
    )
    if not SMOKE:
        assert fp32_speedup >= 2.0, (
            f"fp32 backend is only {fp32_speedup:.2f}x faster than the fp64 "
            f"engine (required: >= 2x)"
        )


def test_codeword_fast_path_end_to_end(trained_classifier, frame_stream, record):
    """End-to-end frames/s of the codeword-native engine paths.

    Baseline is the pre-fast-path equivalent pipeline (stack codewords,
    dequantize to float64 angles, rebuild V~, extract, classify) run over
    the same micro-batches; ``exact`` must reproduce its predictions
    bitwise.  Recorded for the throughput ledger; the 2x preprocessing gate
    itself lives in ``bench_feedback_throughput.py``.
    """
    from repro.feedback.givens import reconstruct_v_matrices
    from repro.feedback.quantization import dequantize_angles_batch

    quantized = frame_stream

    def baseline():
        predictions = []
        for start in range(0, len(quantized), BATCH_SIZE):
            chunk = quantized[start : start + BATCH_SIZE]
            q_phi, q_psi, chunk_config, num_tx, num_streams = stack_quantized_angles(
                chunk
            )
            phi, psi = dequantize_angles_batch(q_phi, q_psi, chunk_config)
            v_batch = reconstruct_v_matrices(phi, psi, num_tx, num_streams)
            ids, confidences = trained_classifier.predict_matrices(v_batch)
            predictions.extend(zip(ids, confidences))
        return predictions

    def engine_drain(precision):
        engine = InferenceEngine(
            trained_classifier, batch_size=BATCH_SIZE, precision=precision
        )
        return engine.drain(quantized)

    # Warm-up (arena growth, LUT construction) before the timed runs.
    baseline_predictions = baseline()
    engine_drain("exact")
    engine_drain("fast")

    baseline_seconds, _ = _best_of(REPEATS, baseline)
    exact_seconds, exact_results = _best_of(REPEATS, lambda: engine_drain("exact"))
    fast_seconds, fast_results = _best_of(REPEATS, lambda: engine_drain("fast"))

    assert len(exact_results) == NUM_FRAMES
    for (module_id, confidence), result in zip(baseline_predictions, exact_results):
        assert result.predicted_module_id == int(module_id)
        assert result.confidence == float(confidence)
    fast_agreement = _agreement(exact_results, fast_results)

    baseline_fps = NUM_FRAMES / baseline_seconds
    exact_fps = NUM_FRAMES / exact_seconds
    fast_fps = NUM_FRAMES / fast_seconds
    record(
        "bench_codeword_engine_end_to_end",
        "\n".join(
            [
                "End-to-end engine throughput on quantised codeword streams",
                f"  workload: {NUM_FRAMES} frames, "
                f"(K, M, N_SS) = ({NUM_SUBCARRIERS}, {NUM_TX}, {NUM_STREAMS}), "
                f"stride {STRIDE}, batch size {BATCH_SIZE}"
                f"{' [smoke]' if SMOKE else ''}",
                f"  legacy pipeline:        {baseline_fps:10.1f} frames/s",
                f"  engine precision=exact: {exact_fps:10.1f} frames/s "
                f"({exact_fps / baseline_fps:.2f}x, bitwise predictions)",
                f"  engine precision=fast:  {fast_fps:10.1f} frames/s "
                f"({fast_fps / baseline_fps:.2f}x, "
                f"agreement {100.0 * fast_agreement:.2f}%)",
            ]
        ),
        data={
            "smoke": SMOKE,
            "num_frames": NUM_FRAMES,
            "batch_size": BATCH_SIZE,
            "frames_per_second": {
                "legacy_pipeline": baseline_fps,
                "engine_exact": exact_fps,
                "engine_fast": fast_fps,
            },
            "speedup_vs_legacy": {
                "exact": exact_fps / baseline_fps,
                "fast": fast_fps / baseline_fps,
            },
            "fast_prediction_agreement_vs_exact": fast_agreement,
            "gate": {
                "threshold": 1.0,
                # Informational: the enforced 2x preprocessing gate lives in
                # bench_feedback_throughput.py where preprocessing is timed
                # in isolation (here the CNN forward dominates).
                "enforced": False,
                "passed": exact_fps >= baseline_fps,
            },
        },
    )


def test_partial_batches_still_beat_per_frame(
    trained_classifier, frame_stream, rebuilt_stream
):
    """Latency-bounded micro-batches (batch 16) must still win clearly."""
    subset = frame_stream[: min(NUM_FRAMES, 128)]

    def per_frame():
        return [trained_classifier.predict_matrix(v) for v in rebuilt_stream[: len(subset)]]

    def batched():
        engine = InferenceEngine(
            trained_classifier, batch_size=BATCH_SIZE, max_latency_frames=16
        )
        return engine.drain(subset)

    scalar_seconds, _ = _best_of(REPEATS, per_frame)
    batched_seconds, results = _best_of(REPEATS, batched)
    assert len(results) == len(subset)
    assert batched_seconds < scalar_seconds
