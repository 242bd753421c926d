"""Scaling of the sharded streaming service on multi-source traffic.

The acceptance gate of the service tentpole: on traffic from *many*
concurrent low-rate beamformees, the 4-worker
:class:`repro.core.service.StreamingService` must classify at least **2x**
the frames/sec of the single-engine path, while producing **bitwise
identical** per-source majority verdicts.

The single-engine baseline serves many per-source streams with one
:class:`~repro.core.engine.InferenceEngine` per source, each draining one
source's frames (``capture.filter(source_address=...)``).  That keeps
per-source state isolated but pays small-batch inference because every
beamformee only sounds a handful of times inside an observation window.  The sharded service
keeps the same per-source isolation (a source never spans two shards) while
batching *across* the sources that share a shard, so its micro-batches stay
full; on multi-core hardware the worker threads additionally overlap the
per-shard CNN forwards.

For transparency the report also includes the single *shared* engine
(all sources mixed into one engine, no queue isolation) and the 1-worker
service, so the cross-source-batching and threading contributions are
visible separately.

Set ``REPRO_BENCH_SMOKE=1`` to shrink the workload for a CI smoke run.

Run directly with::

    PYTHONPATH=src python -m pytest -q -s benchmarks/bench_service_scaling.py
"""

import os
import time

import numpy as np
import pytest

from repro.core.classifier import ClassifierConfig, DeepCsiClassifier
from repro.core.engine import InferenceEngine
from repro.core.model import DeepCsiModelConfig
from repro.core.service import StreamingService, shard_for_source
from repro.datasets.containers import FeedbackSample
from repro.datasets.features import FeatureConfig, strided_subcarriers
from repro.feedback.givens import compress_v_matrix
from repro.feedback.quantization import QuantizationConfig, quantize_angles
from repro.nn.training import TrainingConfig

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: Workload geometry: (K, M, N_SS), sub-carrier stride, traffic shape.
NUM_SUBCARRIERS = 32 if SMOKE else 234
STRIDE = 4
NUM_TX = 3
NUM_STREAMS = 2
NUM_SOURCES = 32 if SMOKE else 256
FRAMES_PER_SOURCE = 3
NUM_WORKERS = 4
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
def traffic():
    """Interleaved multi-source traffic: NUM_SOURCES beamformees, round-robin.

    Every source sounds FRAMES_PER_SOURCE times; consecutive frames belong
    to different sources, like a monitor-mode capture of a dense network.
    Each frame is the angle codewords of a random ``V~``, quantised at the
    edge as the beamformee sends them.
    """
    rng = np.random.default_rng(11)
    config = QuantizationConfig()
    per_source = {
        f"02:00:00:00:{index // 256:02x}:{index % 256:02x}": [
            quantize_angles(compress_v_matrix(v), config)
            for v in _random_v_batch(
                rng, FRAMES_PER_SOURCE, NUM_SUBCARRIERS, NUM_TX, NUM_STREAMS
            )
        ]
        for index in range(NUM_SOURCES)
    }
    stream = []
    for position in range(FRAMES_PER_SOURCE):
        for source, frames in per_source.items():
            stream.append((source, frames[position]))
    return per_source, stream


def _best_of_interleaved(repeats, fns):
    """Best steady-state seconds of ``repeats`` rounds over several paths.

    Each ``fn`` times its own serving phase (setup like engine construction
    or worker spawning is excluded everywhere) and returns
    ``(serving_seconds, verdicts)``.  The paths are measured round-robin so
    slow drift of the host (frequency scaling, noisy neighbours) hits every
    path evenly instead of biasing whichever ran last.
    """
    best = [float("inf")] * len(fns)
    results = [None] * len(fns)
    for _ in range(repeats):
        for index, fn in enumerate(fns):
            seconds, results[index] = fn()
            best[index] = min(best[index], seconds)
    return list(zip(best, results))


def _per_source_engines(classifier, per_source):
    """PR 1 baseline: one single-threaded engine per source stream."""
    engines = {
        source: InferenceEngine(classifier, batch_size=BATCH_SIZE)
        for source in per_source
    }
    started = time.perf_counter()
    for source, frames in per_source.items():
        engines[source].drain(frames, source=source)
    seconds = time.perf_counter() - started
    return seconds, {
        source: engine.verdict(source) for source, engine in engines.items()
    }


def _shared_engine(classifier, stream):
    """One shared engine, all sources mixed into its micro-batches."""
    engine = InferenceEngine(classifier, batch_size=BATCH_SIZE)
    started = time.perf_counter()
    for source, frame in stream:
        engine.submit(frame, source=source)
    engine.flush()
    seconds = time.perf_counter() - started
    return seconds, {source: engine.verdict(source) for source in engine.sources}


def _single_engine_per_shard_substream(classifier, stream, num_workers):
    """Reference for bitwise parity: one single engine per routed sub-stream.

    Feeding every shard's sub-stream through its own single-threaded engine
    reproduces the exact batch contents the sharded service processes, so
    the results must match bit for bit - the definition of "sharding
    preserves the single-engine semantics".
    """
    verdicts = {}
    for shard_index in range(num_workers):
        engine = InferenceEngine(classifier, batch_size=BATCH_SIZE)
        for source, frame in stream:
            if shard_for_source(source, num_workers) == shard_index:
                engine.submit(frame, source=source)
        engine.flush()
        for source in engine.sources:
            verdicts[source] = engine.verdict(source)
    return verdicts


def _service(classifier, stream, num_workers, backend="threads"):
    """The sharded service: ``num_workers`` shards on the given backend.

    Worker startup (thread spawn / process fork + shm setup) happens before
    the clock starts: the service is a long-lived observer, so the gate
    measures steady-state serving throughput.
    """
    with StreamingService(
        classifier, num_workers=num_workers, batch_size=BATCH_SIZE, backend=backend
    ) as service:
        started = time.perf_counter()
        for source, frame in stream:
            service.submit(frame, source=source)
        service.flush()
        seconds = time.perf_counter() - started
        return seconds, {
            source: service.verdict(source) for source in service.sources
        }


def test_sharded_service_scales_multi_source_traffic(
    trained_classifier, traffic, record
):
    """The tentpole gate: >= 2x frames/sec at 4 workers, identical verdicts."""
    per_source, stream = traffic
    num_frames = len(stream)

    (
        (baseline_seconds, baseline_verdicts),
        (shared_seconds, shared_verdicts),
        (one_worker_seconds, one_worker_verdicts),
        (service_seconds, service_verdicts),
    ) = _best_of_interleaved(
        REPEATS,
        [
            lambda: _per_source_engines(trained_classifier, per_source),
            lambda: _shared_engine(trained_classifier, stream),
            lambda: _service(trained_classifier, stream, 1),
            lambda: _service(trained_classifier, stream, NUM_WORKERS),
        ],
    )

    # Sharded verdicts must be bitwise identical to a single engine fed the
    # same routed sub-streams: identical batch contents, identical weights
    # in every shard's classifier clone, per-source order preserved.  Paths
    # that pack the same frames into *different* micro-batches (the shared
    # engine, the per-source engines) run different GEMM shapes, so their
    # confidences may drift in the last ULP - compared with a 1e-12
    # relative tolerance instead.
    reference_verdicts = _single_engine_per_shard_substream(
        trained_classifier, stream, NUM_WORKERS
    )
    assert set(service_verdicts) == set(baseline_verdicts) == set(shared_verdicts)
    assert service_verdicts == reference_verdicts  # bitwise
    for source, verdict in service_verdicts.items():
        for other in (
            baseline_verdicts[source],
            shared_verdicts[source],
            one_worker_verdicts[source],
        ):
            assert verdict.module_id == other.module_id
            assert verdict.num_votes == other.num_votes
            assert verdict.window_size == other.window_size
            assert verdict.confidence == pytest.approx(other.confidence, rel=1e-12)

    baseline_fps = num_frames / baseline_seconds
    shared_fps = num_frames / shared_seconds
    one_worker_fps = num_frames / one_worker_seconds
    service_fps = num_frames / service_seconds
    speedup = service_fps / baseline_fps
    record(
        "bench_service_scaling",
        "\n".join(
            [
                "Sharded streaming service vs single-engine paths",
                f"  workload: {NUM_SOURCES} sources x {FRAMES_PER_SOURCE} "
                f"frames, (K, M, N_SS) = "
                f"({NUM_SUBCARRIERS}, {NUM_TX}, {NUM_STREAMS}), "
                f"stride {STRIDE}, batch size {BATCH_SIZE}"
                f"{' [smoke]' if SMOKE else ''}",
                f"  engine per source:     {baseline_fps:10.1f} frames/s "
                "(per-source batches)",
                f"  shared single engine:  {shared_fps:10.1f} frames/s "
                "(cross-source batches, no isolation)",
                f"  service, 1 worker:     {one_worker_fps:10.1f} frames/s",
                f"  service, {NUM_WORKERS} workers:    {service_fps:10.1f} "
                f"frames/s",
                f"  speedup vs baseline:   {speedup:10.2f}x "
                f"(gate: >= 2x; {os.cpu_count()} CPU core(s))",
            ]
        ),
        data={
            "backend": "threads",
            "workers": NUM_WORKERS,
            "cpu_cores": os.cpu_count(),
            "smoke": SMOKE,
            "num_frames": num_frames,
            "frames_per_second": {
                "engine_per_source": baseline_fps,
                "shared_engine": shared_fps,
                "service_1_worker": one_worker_fps,
                f"service_{NUM_WORKERS}_workers": service_fps,
            },
            "speedup_vs_baseline": speedup,
            "gate": {"threshold": 2.0, "enforced": True, "passed": speedup >= 2.0},
        },
    )
    assert speedup >= 2.0, (
        f"4-worker service is only {speedup:.2f}x faster than the "
        f"per-source single-engine path (required: >= 2x)"
    )


#: Multi-core gate of the process backend: 2 process workers must serve at
#: least this multiple of the 1-process-worker throughput.
PROCESS_WORKERS = 2
PROCESS_SPEEDUP_GATE = 1.6


def test_process_backend_scales_on_multi_core(trained_classifier, traffic, record):
    """Process shards break the GIL ceiling: >= 1.6x frames/s at 2 workers.

    Thread shards only overlap inside BLAS calls; process shards run the
    whole hot path (feature extraction, Givens reconstruction, NumPy
    dispatch) in parallel, fed through shared-memory ring buffers.  The
    near-linear gate is only meaningful when the host actually has a second
    core - on single-core runners (CI smoke included) the verdict-parity
    assertions still run and the skipped gate is recorded in the report.
    """
    _, stream = traffic
    num_frames = len(stream)
    cores = os.cpu_count() or 1
    multi_core = cores >= 2

    (
        (one_proc_seconds, one_proc_verdicts),
        (two_proc_seconds, two_proc_verdicts),
    ) = _best_of_interleaved(
        REPEATS,
        [
            lambda: _service(trained_classifier, stream, 1, backend="processes"),
            lambda: _service(
                trained_classifier, stream, PROCESS_WORKERS, backend="processes"
            ),
        ],
    )

    # Bitwise verdict parity against single engines fed the same routed
    # sub-streams - the invariant holds on any host, gate or no gate.
    assert two_proc_verdicts == _single_engine_per_shard_substream(
        trained_classifier, stream, PROCESS_WORKERS
    )
    assert one_proc_verdicts == _single_engine_per_shard_substream(
        trained_classifier, stream, 1
    )

    one_proc_fps = num_frames / one_proc_seconds
    two_proc_fps = num_frames / two_proc_seconds
    speedup = two_proc_fps / one_proc_fps
    gate_note = (
        f"gate: >= {PROCESS_SPEEDUP_GATE}x"
        if multi_core
        else f"gate >= {PROCESS_SPEEDUP_GATE}x SKIPPED: single-core host"
    )
    record(
        "bench_service_scaling_processes",
        "\n".join(
            [
                "Process-backend scaling (shared-memory frame transport)",
                f"  workload: {NUM_SOURCES} sources x {FRAMES_PER_SOURCE} "
                f"frames, (K, M, N_SS) = "
                f"({NUM_SUBCARRIERS}, {NUM_TX}, {NUM_STREAMS}), "
                f"stride {STRIDE}, batch size {BATCH_SIZE}"
                f"{' [smoke]' if SMOKE else ''}",
                f"  service, 1 process:    {one_proc_fps:10.1f} frames/s",
                f"  service, {PROCESS_WORKERS} processes:   "
                f"{two_proc_fps:10.1f} frames/s",
                f"  speedup:               {speedup:10.2f}x "
                f"({gate_note}; {cores} CPU core(s))",
                "  verdicts: bitwise identical to single engines fed the "
                "routed sub-streams",
            ]
        ),
        data={
            "backend": "processes",
            "workers": PROCESS_WORKERS,
            "cpu_cores": cores,
            "smoke": SMOKE,
            "num_frames": num_frames,
            "frames_per_second": {
                "service_1_process": one_proc_fps,
                f"service_{PROCESS_WORKERS}_processes": two_proc_fps,
            },
            "speedup_vs_1_process": speedup,
            "gate": {
                "threshold": PROCESS_SPEEDUP_GATE,
                "enforced": multi_core,
                "passed": speedup >= PROCESS_SPEEDUP_GATE if multi_core else None,
            },
        },
    )
    if multi_core:
        assert speedup >= PROCESS_SPEEDUP_GATE, (
            f"{PROCESS_WORKERS} process workers are only {speedup:.2f}x faster "
            f"than 1 on a {cores}-core host "
            f"(required: >= {PROCESS_SPEEDUP_GATE}x)"
        )


def test_process_backend_results_match_threads(trained_classifier, traffic):
    """Both backends produce bitwise-identical results on identical traffic."""
    _, stream = traffic
    subset = stream[: min(len(stream), 96)]

    def run(backend):
        with StreamingService(
            trained_classifier,
            num_workers=PROCESS_WORKERS,
            batch_size=BATCH_SIZE,
            backend=backend,
        ) as service:
            for source, frame in subset:
                service.submit(frame, source=source)
            service.flush()
            return sorted(service.collect(), key=lambda result: result.sequence)

    threaded = run("threads")
    processed = run("processes")
    assert len(threaded) == len(processed) == len(subset)
    for thread_result, process_result in zip(threaded, processed):
        assert thread_result.sequence == process_result.sequence
        assert thread_result.source == process_result.source
        assert (
            thread_result.predicted_module_id == process_result.predicted_module_id
        )
        assert thread_result.confidence == process_result.confidence  # bitwise


def test_service_results_match_single_engine_bitwise(trained_classifier, traffic):
    """Per-frame results match the routed single-engine sub-streams bitwise."""
    _, stream = traffic
    subset = stream[: min(len(stream), 96)]

    expected = {}
    for shard_index in range(NUM_WORKERS):
        engine = InferenceEngine(trained_classifier, batch_size=BATCH_SIZE)
        substream = [
            (index, source, frame)
            for index, (source, frame) in enumerate(subset)
            if shard_for_source(source, NUM_WORKERS) == shard_index
        ]
        results = []
        for _, source, frame in substream:
            results.extend(engine.submit(frame, source=source))
        results.extend(engine.flush())
        assert len(results) == len(substream)
        for (global_index, source, _), result in zip(substream, results):
            expected[global_index] = (source, result)

    with StreamingService(
        trained_classifier, num_workers=NUM_WORKERS, batch_size=BATCH_SIZE
    ) as service:
        for source, frame in subset:
            service.submit(frame, source=source)
        service.flush()
        actual = sorted(service.collect(), key=lambda result: result.sequence)

    assert len(actual) == len(expected) == len(subset)
    for got in actual:
        source, want = expected[got.sequence]
        assert got.source == source == want.source
        assert got.predicted_module_id == want.predicted_module_id
        assert got.confidence == want.confidence  # bitwise
