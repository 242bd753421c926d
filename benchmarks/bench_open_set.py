"""Open-set authentication gates: impostor separability and hot-path cost.

Two acceptance gates of the always-on lifecycle tentpole:

* **Separability** -- on the seeded impostor scenario
  (:mod:`repro.datasets.adversarial`: unseen transmitters + spoofed enrolled
  feedback), the max-softmax open-set score must reach **AUROC >= 0.95**
  against the enrolled test traffic, with the FRR-calibrated threshold's
  operating point reported alongside.
* **Hot-path cost** -- scoring every frame's known-ness on the streaming
  engine reuses the classification forward pass, so the open-set engine must
  sustain at least **85%** of the closed-set engine's frames/sec on the same
  traffic (the "rejection is ~free" claim), while predicting identical
  module ids for every frame.  The engines serve the scenario's codewords,
  classified by a classifier trained on the ``V~`` rebuilt from them.

Set ``REPRO_BENCH_SMOKE=1`` to shrink the workload for a CI smoke run (both
gates stay enforced; the smoke shapes prove the gate logic end to end).

Run directly with::

    PYTHONPATH=src python -m pytest -q -s benchmarks/bench_open_set.py
"""

import os
import time
from dataclasses import replace

import pytest

from repro.core.classifier import ClassifierConfig, DeepCsiClassifier
from repro.core.engine import InferenceEngine
from repro.core.model import DeepCsiModelConfig
from repro.core.openset import (
    OpenSetPolicy,
    calibrate_threshold,
    evaluate_open_set,
    score_samples,
)
from repro.datasets.adversarial import impostor_scenario
from repro.datasets.features import FeatureConfig
from repro.feedback.givens import compress_v_matrix, reconstruct_v_matrix
from repro.feedback.quantization import (
    QuantizationConfig,
    quantization_roundtrip,
    quantize_angles,
)
from repro.nn.training import TrainingConfig

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

NUM_ENROLLED = 3
NUM_UNSEEN = 2
NUM_PER_MODULE = 20 if SMOKE else 60
TARGET_FRR = 0.05
AUROC_GATE = 0.95
THROUGHPUT_RATIO_GATE = 0.85
BATCH_SIZE = 32
#: Interleaved closed/open rounds; the best round of each engine is compared.
#: A smoke round serves a few hundred frames in milliseconds, so a best of 3
#: still caught a slow phase of the host now and then: smoke runs take more.
REPEATS = 15 if SMOKE else 3
THROUGHPUT_ROUNDS = 4 if SMOKE else 16


def _edge_quantised(samples):
    """``samples`` with each ``V~`` replaced by the one rebuilt from its codewords."""
    config = QuantizationConfig()
    return [
        replace(
            sample,
            v_tilde=reconstruct_v_matrix(
                quantization_roundtrip(compress_v_matrix(sample.v_tilde), config)
            ),
        )
        for sample in samples
    ]


@pytest.fixture(scope="module")
def scenario():
    """The seeded impostor scenario shared by both gates."""
    return impostor_scenario(
        num_enrolled=NUM_ENROLLED,
        num_unseen=NUM_UNSEEN,
        num_per_module=NUM_PER_MODULE,
        seed=0,
    )


def _train(samples):
    """A tiny classifier trained on ``samples``."""
    config = ClassifierConfig(
        num_classes=NUM_ENROLLED,
        feature=FeatureConfig(stream_indices=(0,)),
        model=DeepCsiModelConfig(
            num_filters=8,
            kernel_widths=(3,),
            pool_width=2,
            dense_units=(16,),
            dropout_retain=(1.0,),
            use_attention=False,
        ),
        training=TrainingConfig(
            epochs=25,
            batch_size=16,
            validation_split=0.0,
            early_stopping_patience=None,
        ),
        learning_rate=5e-3,
        seed=0,
    )
    model = DeepCsiClassifier(config)
    model.fit(samples)
    return model


@pytest.fixture(scope="module")
def classifier(scenario):
    """A tiny classifier trained on the scenario's enrolled traffic."""
    return _train(scenario.enrolled_train)


def test_open_set_auroc_gate(scenario, classifier, record):
    """AUROC >= 0.95 separating enrolled traffic from impostors (seeded)."""
    policy = OpenSetPolicy(scoring="max_softmax")
    threshold = calibrate_threshold(
        score_samples(classifier, policy, scenario.enrolled_train),
        target_false_reject_rate=TARGET_FRR,
    )
    metrics = evaluate_open_set(
        classifier,
        replace(policy, threshold=threshold),
        scenario.enrolled_test,
        scenario.impostors,
    )
    passed = metrics.auroc >= AUROC_GATE

    lines = [
        "open-set separability on the impostor scenario "
        f"({NUM_ENROLLED} enrolled, {NUM_UNSEEN} unseen transmitters, "
        f"{NUM_PER_MODULE} frames/module{', smoke' if SMOKE else ''})",
        "  scoring rule        max_softmax",
        f"  threshold (FRR {TARGET_FRR:.0%})  {threshold:.6f}",
        f"  AUROC               {metrics.auroc:.4f}  (gate >= {AUROC_GATE})",
        f"  false accept rate   {metrics.false_accept_rate:.4f}",
        f"  false reject rate   {metrics.false_reject_rate:.4f}",
        f"  known accuracy      {metrics.known_accuracy:.4f}",
        f"  gate                {'PASS' if passed else 'FAIL'}",
    ]
    record(
        "bench_open_set_auroc",
        "\n".join(lines),
        data={
            "num_enrolled": NUM_ENROLLED,
            "num_unseen": NUM_UNSEEN,
            "num_per_module": NUM_PER_MODULE,
            "scoring": "max_softmax",
            "threshold": threshold,
            "auroc": metrics.auroc,
            "false_accept_rate": metrics.false_accept_rate,
            "false_reject_rate": metrics.false_reject_rate,
            "known_accuracy": metrics.known_accuracy,
            "gate": {
                "threshold": AUROC_GATE,
                "enforced": True,
                "passed": passed,
            },
        },
    )
    assert passed, (
        f"open-set AUROC {metrics.auroc:.4f} is below the {AUROC_GATE} gate"
    )


def _serve(engine, frames):
    """Steady-state serving seconds of one engine over the frame stream."""
    engine.reset()
    started = time.perf_counter()
    for index, frame in enumerate(frames):
        engine.submit(frame, source=f"src:{index % 8}")
    engine.flush()
    return time.perf_counter() - started


def test_open_set_throughput_gate(scenario, record):
    """Open-set rejection costs <= 15% of closed-set engine throughput."""
    # The engines take the codewords the beamformees send, so this gate's
    # classifier trains and calibrates on the V~ rebuilt from them.
    populations = ("enrolled_train", "enrolled_test", "unseen", "spoofed")
    edge = replace(
        scenario, **{name: _edge_quantised(getattr(scenario, name)) for name in populations}
    )
    classifier = _train(edge.enrolled_train)
    frames = [
        quantize_angles(compress_v_matrix(sample.v_tilde), QuantizationConfig())
        for sample in (edge.enrolled_test + edge.impostors)
    ] * THROUGHPUT_ROUNDS
    policy = OpenSetPolicy(scoring="max_softmax")
    threshold = calibrate_threshold(
        score_samples(classifier, policy, edge.enrolled_train),
        target_false_reject_rate=TARGET_FRR,
    )
    closed = InferenceEngine(classifier, batch_size=BATCH_SIZE)
    opened = InferenceEngine(
        classifier,
        batch_size=BATCH_SIZE,
        open_set=replace(policy, threshold=threshold),
    )

    # Interleave the rounds so host drift hits both engines evenly.
    closed_best = opened_best = float("inf")
    for _ in range(REPEATS):
        closed_best = min(closed_best, _serve(closed, frames))
        opened_best = min(opened_best, _serve(opened, frames))

    # Identical module ids on every frame: the open-set path reuses the same
    # forward pass, it only adds the score/threshold comparison.
    closed.reset()
    opened.reset()
    one_round = frames[: len(frames) // THROUGHPUT_ROUNDS]
    closed_ids = [r.predicted_module_id for r in closed.drain(one_round)]
    opened_ids = [r.predicted_module_id for r in opened.drain(one_round)]
    assert closed_ids == opened_ids

    closed_fps = len(frames) / closed_best
    opened_fps = len(frames) / opened_best
    ratio = opened_fps / closed_fps
    rejection_rate = opened.stats.rejection_rate
    passed = ratio >= THROUGHPUT_RATIO_GATE

    lines = [
        "open-set engine throughput vs closed-set "
        f"({len(frames)} frames, batch {BATCH_SIZE}, best of {REPEATS}"
        f"{', smoke' if SMOKE else ''})",
        f"  closed-set          {closed_fps:,.0f} frames/s",
        f"  open-set            {opened_fps:,.0f} frames/s",
        f"  ratio               {ratio:.3f}  (gate >= {THROUGHPUT_RATIO_GATE})",
        f"  rejection rate      {rejection_rate:.3f}",
        f"  gate                {'PASS' if passed else 'FAIL'}",
    ]
    record(
        "bench_open_set_throughput",
        "\n".join(lines),
        data={
            "num_frames": len(frames),
            "batch_size": BATCH_SIZE,
            "repeats": REPEATS,
            "closed_set_fps": closed_fps,
            "open_set_fps": opened_fps,
            "ratio": ratio,
            "rejection_rate": rejection_rate,
            "gate": {
                "threshold": THROUGHPUT_RATIO_GATE,
                "enforced": True,
                "passed": passed,
            },
        },
    )
    assert passed, (
        f"open-set engine at {ratio:.3f}x of closed-set throughput, below "
        f"the {THROUGHPUT_RATIO_GATE} gate"
    )
