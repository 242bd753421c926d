"""Workloads, timed loops, output checks and the traced layer breakdown.

One call of :func:`run_workload` measures one workload against the real
entry point, :class:`~repro.core.service.StreamingService`: observations go
in through ``submit`` and come back through ``collect`` (and ``verdict`` on
the open-loop workload).  ``run.py`` calls it in a fresh subprocess per
workload (``python3 harness.py ...``) with the BLAS pools pinned to one
thread, after it trained and saved the model in its own process.

* The **timed run** (``trace=False``) starts the service several times to
  time set-up, then drives it with tracing off and reports the end-to-end
  metrics.  Afterwards every :data:`CHECK_EVERY`-th batch is replayed
  through a fresh :class:`~repro.core.engine.InferenceEngine` and must match
  bit for bit.
* The **traced run** (``trace=True``) drives the same frames three ways --
  the service loop (passes with tracing off and with spans), an untraced
  ``InferenceEngine`` and a replay of the batches through the layer
  functions -- and reports per-layer self time plus the overhead shares the
  three give.  Its spans are written to a ``trace.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arena import ArenaPool
from repro.core.classifier import ClassifierConfig, DeepCsiClassifier
from repro.core.engine import EngineResult, InferenceEngine, SourceWindows
from repro.core.lifecycle import DriftConfig, DriftMonitor
from repro.core.model import DeepCsiModelConfig
from repro.core.openset import OpenSetPolicy
from repro.core.service import ServiceStats, StreamingService
from repro.core.transport import pack_codeword_record, pack_frame_record, unpack_record
from repro.datasets.features import FeatureConfig, strided_subcarriers
from repro.feedback.frames import parse_feedback_frame
from repro.feedback.givens import angle_counts, reconstruct_accumulator_quantized
from repro.nn.training import TrainingConfig

import inputs
from spans import NullTracer, Tracer

#: BLAS pool sizes pinned in every workload subprocess.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: Every CHECK_EVERY-th batch of a timed pass is replayed and compared.
CHECK_EVERY = 8
#: A closed-loop timed run measures at least this many rounds.
MIN_ROUNDS = 3
#: Closed-loop timings report this quantile of the per-round values
#: (throughput; ``1 - BEST_DECILE`` for latencies).  See :func:`timed_run`.
BEST_DECILE = 0.9
#: Generator: sleep between two polls of ``collect`` that found nothing.
POLL_S = 0.001
#: Generator: no result for this long while frames are outstanding -> flush.
QUIET_S = 1.0
#: fp32 verdicts must agree with the fp64 exact reference this often.
MIN_FP32_AGREEMENT = 0.99
#: Open-set rule of the lifecycle workload.
POLICY = OpenSetPolicy(threshold=0.5)

#: Rounds of the traced run (each: untraced + traced service pass, engine, replay).
TRACE_ROUNDS = 2
#: Batches on which the traced run times per-frame layers off a workload's path.
OFF_PATH_BATCHES = 2

#: RNG streams under ``--seed``.
WARMUP, ROUND, TRACE = 0, 1, 2

#: End-to-end metrics (timed run) and their units.
E2E_UNITS = {
    "throughput_fps": "frames/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "prediction_agreement": "share",
}

#: Layers timed in the replay, in pipeline order.  ``classifier.predict``'s
#: self time is normalisation + softmax; its CNN layers report as ``nn.*``.
LAYERS = (
    "transport.encode",
    "transport.decode",
    "frames.parse",
    "engine.stage",
    "givens.reconstruct",
    "features.extract",
    "classifier.predict",
    "openset.score",
    "engine.emit",
    "engine.vote",
    "lifecycle.drift",
)
TRANSPORT_LAYERS = ("transport.encode", "transport.decode")
#: Layers called once per frame (the others once per micro-batch).
PER_FRAME_LAYERS = TRANSPORT_LAYERS + ("frames.parse",)


@dataclass(frozen=True)
class Scale:
    """Geometry, model and sizes shared by every workload of one run."""

    num_subcarriers: int
    stride: int
    model: DeepCsiModelConfig
    batch_size: int
    train_samples: int
    start_ups: int
    #: Caps a workload's batches per round and per traced pass (``None`` = none).
    max_batches: Optional[int]
    open_loop_fps: float


#: Paper geometry (K, M, N_SS) = (234, 3, 2), stride 4, Fig. 4 CNN, batch 64.
FULL = Scale(
    num_subcarriers=234,
    stride=4,
    model=DeepCsiModelConfig(),
    batch_size=64,
    train_samples=200,
    start_ups=7,
    max_batches=None,
    open_loop_fps=100.0,
)
#: Seconds-long variant for the tier-1 smoke test: same layer structure.
SMOKE = Scale(
    num_subcarriers=32,
    stride=1,
    model=DeepCsiModelConfig(num_filters=4, dense_units=(8, 8)),
    batch_size=16,
    train_samples=40,
    start_ups=2,
    max_batches=2,
    open_loop_fps=1000.0,
)


@dataclass(frozen=True)
class Workload:
    """One input mix driven through the service."""

    name: str
    why: str
    frames: bool  # FeedbackFrame bytes (parsed by the service) or codewords
    backend: str
    fp32: bool  # precision="fast" + compute="fp32" instead of exact fp64
    sources: int
    #: Closed loop: batches per timed round.  0 = open loop at the scale's rate.
    round_batches: int
    #: Batches per pass of the traced run (>= 1,024 frames, >= 4 s open loop).
    trace_batches: int
    max_latency_frames: Optional[int] = None
    #: Open-set policy + drift monitor, and verdict reads after each collect.
    lifecycle: bool = False


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="frames-fp64-threads",
            why="bytes to verdict, the canonical path; frame parsing is most of the time, "
            "so only here do parse changes show",
            frames=True,
            backend="threads",
            fp32=False,
            sources=256,
            round_batches=2,
            trace_batches=16,
        ),
        Workload(
            name="codewords-fp64-threads",
            why="parse bypassed, the bitwise fp64 reference; the CNN forward dominates, "
            "so NN work shows and parse work must not",
            frames=False,
            backend="threads",
            fp32=False,
            sources=256,
            round_batches=8,
            trace_batches=64,
        ),
        Workload(
            name="codewords-fp32-processes",
            why="fp32 CNN is small, so reconstruct, features and shared-memory transport "
            "to a worker process become large shares",
            frames=False,
            backend="processes",
            fp32=True,
            sources=256,
            round_batches=32,
            trace_batches=128,
        ),
        Workload(
            name="frames-openloop-processes",
            why="latency view: 100 frames/s open loop, batches of 8, open-set scoring, "
            "drift and a verdict read per result",
            frames=True,
            backend="processes",
            fp32=False,
            sources=512,
            round_batches=0,
            trace_batches=64,
            max_latency_frames=8,
            lifecycle=True,
        ),
    )
}


def classifier_config(scale: Scale) -> ClassifierConfig:
    """The classifier every run trains, saves and loads (10 transmitters)."""
    return ClassifierConfig(
        num_classes=inputs.NUM_CLASSES,
        feature=FeatureConfig(
            stream_indices=(0,),
            subcarrier_positions=strided_subcarriers(scale.num_subcarriers, scale.stride),
        ),
        model=scale.model,
        training=TrainingConfig(
            epochs=1, batch_size=32, validation_split=0.0, early_stopping_patience=None
        ),
    )


def prepare_model(scale: Scale, directory: Path) -> None:
    """Train for one epoch on seeded synthetic ``V~`` and save (not timed)."""
    traffic = inputs.TrafficModel(scale.num_subcarriers)
    samples = traffic.training_samples(np.random.default_rng([0, 99]), scale.train_samples)
    classifier = DeepCsiClassifier(classifier_config(scale))
    classifier.fit(samples)
    classifier.save(directory)


class Run:
    """Everything one workload run needs: settings, inputs and the model."""

    def __init__(self, workload: Workload, scale: Scale, seed: int, model_dir: Path) -> None:
        self.workload = workload
        self.scale = scale
        self.seed = seed
        self.model_dir = model_dir
        self.traffic = inputs.TrafficModel(scale.num_subcarriers)
        self.sources = inputs.source_addresses(workload.sources)
        #: Frames per micro-batch: the engine cuts batches by count.
        self.chunk = min(scale.batch_size, workload.max_latency_frames or scale.batch_size)

    def _codewords(self, stream: int, count: int, index: int) -> inputs.Codewords:
        return self.traffic.draw(np.random.default_rng([self.seed, stream, index]), count)

    def observations(self, stream: int, count: int, index: int = 0, verify: bool = False) -> list:
        """``count`` seeded observations of stream ``(stream, index)``."""
        codewords = self._codewords(stream, count, index)
        if not self.workload.frames:
            return codewords.quantized()
        control = self.traffic.control()
        payloads = inputs.pack_frames(codewords, control)
        if verify:
            inputs.check_packer(codewords, payloads, control, min(64, count))
        return inputs.to_frames(payloads, self.sources)

    def payloads(self, stream: int, count: int, index: int = 0) -> List[bytes]:
        """The frame bytes that carry the same codewords as :meth:`observations`."""
        codewords = self._codewords(stream, count, index)
        return [row.tobytes() for row in inputs.pack_frames(codewords, self.traffic.control())]

    def load_classifier(self) -> DeepCsiClassifier:
        return DeepCsiClassifier(classifier_config(self.scale)).load(self.model_dir)

    def engine_kwargs(self, reference: bool = False) -> dict:
        """Settings shared by the service's shard engine and the replays."""
        kwargs: dict = dict(
            batch_size=self.scale.batch_size,
            max_latency_frames=self.workload.max_latency_frames,
        )
        if self.workload.lifecycle:
            kwargs.update(open_set=POLICY, drift=DriftConfig())
        if self.workload.fp32 and not reference:
            kwargs.update(compute="fp32", precision="fast")
        return kwargs

    def start_up(self) -> Tuple[float, StreamingService, DeepCsiClassifier]:
        """Load -> start the service -> first warm-up batch collected, timed."""
        warmup = self.observations(WARMUP, self.chunk)
        started = time.perf_counter()
        classifier = self.load_classifier()
        service = StreamingService(
            classifier, num_workers=1, backend=self.workload.backend, **self.engine_kwargs()
        )
        for index, observation in enumerate(warmup):
            service.submit(observation, source=self.sources[index % len(self.sources)])
        service.flush()
        results = service.collect()
        elapsed = time.perf_counter() - started
        if len(results) != len(warmup):
            service.close()
            raise RuntimeError(f"warm-up returned {len(results)} of {len(warmup)} results")
        return elapsed, service, classifier

    def open_loop_frames(self, seconds: float) -> int:
        batches = round(self.scale.open_loop_fps * seconds / self.chunk)
        return max(CHECK_EVERY, batches) * self.chunk

    def frames(self, batches: int) -> int:
        """Frames in ``batches`` micro-batches, capped by the scale."""
        if self.scale.max_batches is not None:
            batches = min(batches, self.scale.max_batches)
        return batches * self.chunk


class Outcome:
    """Per-frame results of one pass through the service, by submission order."""

    def __init__(self, count: int, base: int) -> None:
        #: Service-wide sequence number of the pass's first frame.
        self.base = base
        self.due = np.zeros(count)
        self.lag = np.zeros(count)
        self.seen = np.full(count, np.nan)
        self.module_ids = np.full(count, -2, dtype=np.int64)
        self.confidences = np.zeros(count)
        self.scores = np.zeros(count)
        self.accepted = np.zeros(count, dtype=bool)
        self.wall = 0.0
        self._collected: List[Tuple[float, List[EngineResult]]] = []

    def __len__(self) -> int:
        return len(self.due)

    def collect(self, results: List[EngineResult], now: float) -> None:
        if results:
            self._collected.append((now, results))

    def finish(self) -> None:
        """Unpack what ``collect`` kept (outside the timed loop)."""
        for now, results in self._collected:
            for result in results:
                index = result.sequence - self.base
                if 0 <= index < len(self):
                    self.seen[index] = now
                    self.module_ids[index] = result.predicted_module_id
                    self.confidences[index] = result.confidence
                    self.scores[index] = result.score
                    self.accepted[index] = result.accepted
        self._collected = []

    @property
    def latency_ms(self) -> np.ndarray:
        return (self.seen - self.due) * 1e3

    def columns(self) -> Tuple[np.ndarray, ...]:
        return self.module_ids, self.confidences, self.scores, self.accepted


class Client:
    """The load generator's side of one pass: submit, poll ``collect``, drain.

    Every source is one client: frame ``i`` comes from source ``i % S``.
    """

    def __init__(
        self,
        service: StreamingService,
        observations: Sequence,
        sources: Sequence[str],
        base: int,
        read_verdicts: bool,
        tracer,
    ) -> None:
        self.service = service
        self.observations = observations
        self.sources = sources
        self.read_verdicts = read_verdicts
        self.tracer = tracer
        self.outcome = Outcome(len(observations), base)
        self.received = 0

    def submit(self, index: int) -> None:
        with self.tracer.span("service.submit"):
            self.service.submit(
                self.observations[index], source=self.sources[index % len(self.sources)]
            )

    def poll(self) -> int:
        """Collect what completed (and read those sources' verdicts)."""
        with self.tracer.span("service.collect"):
            results = self.service.collect()
        self.outcome.collect(results, time.perf_counter())
        self.received += len(results)
        if self.read_verdicts:
            for source in dict.fromkeys(result.source for result in results):
                with self.tracer.span("service.verdict"):
                    self.service.verdict(source)
        return len(results)

    def drain(self) -> None:
        """Poll until every result is in; flush once if the service goes quiet.

        A flush is only a fallback (for a partial batch held until a barrier,
        which the pass sizes here never leave): flushing eagerly would
        stamp every in-flight frame with the barrier's end instead of the
        moment its batch completed.
        """
        quiet_since = time.perf_counter()
        while self.received < len(self.outcome):
            if self.poll():
                quiet_since = time.perf_counter()
            elif time.perf_counter() - quiet_since > QUIET_S:
                with self.tracer.span("service.flush"):
                    self.service.flush()
                self.poll()
                return
            else:
                time.sleep(POLL_S)


def closed_pass(client: Client, window: int) -> Outcome:
    """Closed loop: at most ``window`` frames outstanding (one per source).

    A frame's lag is how long after its slot opened (the pass start, or the
    poll that returned the result freeing it) the generator submitted it.
    """
    outcome = client.outcome
    started = opened = time.perf_counter()
    for index in range(len(outcome)):
        while index - client.received >= window:
            if client.poll():
                opened = time.perf_counter()
            else:
                time.sleep(POLL_S)
        now = time.perf_counter()
        outcome.due[index] = now
        outcome.lag[index] = now - opened
        client.submit(index)
    client.drain()
    outcome.wall = time.perf_counter() - started
    outcome.finish()
    return outcome


def open_pass(client: Client, rate_fps: float) -> Outcome:
    """Open loop: send on a fixed schedule whatever the service does."""
    outcome = client.outcome
    period = 1.0 / rate_fps
    started = time.perf_counter() + period
    for index in range(len(outcome)):
        due = started + index * period
        outcome.due[index] = due
        now = time.perf_counter()
        while now < due:
            client.poll()
            now = time.perf_counter()
            if now < due:
                time.sleep(min(due - now, POLL_S))
                now = time.perf_counter()
        outcome.lag[index] = now - due
        client.submit(index)
        client.poll()
    client.drain()
    outcome.finish()
    outcome.wall = float(np.nanmax(outcome.seen)) - started
    return outcome


def drive(
    run: Run, service: StreamingService, observations: Sequence, base: int, tracer
) -> Outcome:
    """One pass of the workload's generator over ``observations``."""
    gc.collect()
    gc.freeze()  # the generated inputs are not the service's garbage to scan
    client = Client(service, observations, run.sources, base, run.workload.lifecycle, tracer)
    if run.workload.round_batches:
        return closed_pass(client, len(run.sources))
    return open_pass(client, run.scale.open_loop_fps)


def _classify(
    engine: InferenceEngine, observations: Sequence, indices: range, sources: Sequence[str]
) -> List[EngineResult]:
    results: List[EngineResult] = []
    for index in indices:
        results += engine.submit(observations[index], source=sources[index % len(sources)])
    return results + engine.flush()


def columns(results: Sequence[EngineResult]) -> Tuple[np.ndarray, ...]:
    """``(module ids, confidences, scores, accepted)`` of a result list."""
    return (
        np.array([result.predicted_module_id for result in results], dtype=np.int64),
        np.array([result.confidence for result in results], dtype=np.float64),
        np.array([result.score for result in results], dtype=np.float64),
        np.array([result.accepted for result in results], dtype=bool),
    )


def mismatches(outcome: Outcome, start: int, expected: Tuple[np.ndarray, ...]) -> np.ndarray:
    """Per frame from ``start``: does the outcome differ in any output bit?"""
    ids, confidences, scores, accepted = expected
    window = slice(start, start + len(ids))
    same = (
        (outcome.module_ids[window] == ids)
        & (outcome.confidences[window].view(np.int64) == confidences.view(np.int64))
        & (outcome.scores[window].view(np.int64) == scores.view(np.int64))
        & (outcome.accepted[window] == accepted)
    )
    return ~same


class Checker:
    """Replays sampled batches through fresh engines with the same settings."""

    def __init__(self, run: Run) -> None:
        self.run = run
        self.replay = InferenceEngine(run.load_classifier(), **run.engine_kwargs())
        #: fp64 exact engine for ``prediction_agreement`` (fp32 workloads).
        self.reference = (
            InferenceEngine(run.load_classifier(), **run.engine_kwargs(reference=True))
            if run.workload.fp32
            else None
        )
        self.checked = 0
        self.agreeing = 0

    def check(self, outcome: Outcome, observations: Sequence) -> np.ndarray:
        """Mask of failed frames: no result, or a sampled batch that differs."""
        failed = np.isnan(outcome.seen)
        chunk = self.run.chunk
        for start in range(0, len(observations), chunk * CHECK_EVERY):
            batch = range(start, min(start + chunk, len(observations)))
            expected = columns(_classify(self.replay, observations, batch, self.run.sources))
            failed[start : batch.stop] |= mismatches(outcome, start, expected)
            if self.reference is not None:
                expected = columns(
                    _classify(self.reference, observations, batch, self.run.sources)
                )
            agreeing = outcome.module_ids[start : batch.stop] == expected[0]
            self.agreeing += int(np.count_nonzero(agreeing))
            self.checked += len(batch)
        return failed

    @property
    def agreement(self) -> float:
        return self.agreeing / self.checked if self.checked else 0.0


def peak_rss_mb() -> float:
    """Larger of this process's and its reaped children's peak RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def timed_run(run: Run, seconds: float) -> dict:
    """Set-up x N, then the timed passes (tracing off), then the output check.

    A closed-loop run is a series of short rounds (a few tenths of a second
    each, until ``seconds`` of them are measured).  Throughput and the
    latency percentiles are taken per round and the best-decile round value
    is reported (:data:`BEST_DECILE`): on a shared host, phases of load from
    elsewhere slow everything by 20-45% for seconds at a time, often for
    most of a run, so a median over rounds flips between two levels while
    the best decile stays put.  The open-loop run is one pass of
    ``seconds`` at the fixed rate; set-up is the median of the start-ups.
    """
    setups = []
    service = None
    closed = bool(run.workload.round_batches)
    frames = run.frames(run.workload.round_batches) if closed else run.open_loop_frames(seconds)
    passes: List[Outcome] = []
    try:
        for _ in range(run.scale.start_ups):
            if service is not None:
                service.close()
            elapsed, service, _ = run.start_up()
            setups.append(elapsed)
        base = run.chunk  # sequences taken by the warm-up batch
        measured = 0.0
        while not passes or (closed and (len(passes) < MIN_ROUNDS or measured < seconds)):
            observations = run.observations(ROUND, frames, len(passes), verify=not passes)
            outcome = drive(run, service, observations, base, NullTracer())
            passes.append(outcome)
            base += frames
            measured += outcome.wall
    finally:
        if service is not None:
            service.close()
    rss = peak_rss_mb()

    checker = Checker(run)
    failed = samples = 0
    per_pass = []
    for index, outcome in enumerate(passes):
        failures = checker.check(outcome, run.observations(ROUND, frames, index))
        failed += int(np.count_nonzero(failures))
        latency = outcome.latency_ms[~np.isnan(outcome.seen)]
        samples += len(latency)
        per_pass.append(
            (len(outcome) / outcome.wall, np.percentile(latency, 50), np.percentile(latency, 99))
        )
    rates, p50s, p99s = (np.array(column) for column in zip(*per_pass))
    throughput = np.quantile(rates, BEST_DECILE)
    p50, p99 = np.quantile(p50s, 1.0 - BEST_DECILE), np.quantile(p99s, 1.0 - BEST_DECILE)
    attempted = frames * len(passes)
    floor = MIN_FP32_AGREEMENT if run.workload.fp32 else 1.0
    values = {
        "throughput_fps": throughput,
        "latency_p50_ms": p50,
        "latency_p99_ms": p99,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
        "prediction_agreement": checker.agreement,
    }
    metrics = {name: _metric(values[name], unit) for name, unit in E2E_UNITS.items()}
    extra = {
        "failed_share": _metric(failed / attempted, "share"),
        "latency_samples": _metric(samples, "count"),
        "checked_frames": _metric(checker.checked, "count"),
        "rounds": _metric(len(passes), "count"),
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and checker.agreement >= floor,
        "metrics": metrics,
        "extra": extra,
    }


def path_layers(workload: Workload) -> Tuple[str, ...]:
    """The :data:`LAYERS` a workload's frames pass through in the service."""
    skipped = set()
    if workload.backend != "processes":
        skipped.update(TRANSPORT_LAYERS)
    if not workload.frames:
        skipped.add("frames.parse")
    if not workload.lifecycle:
        skipped.update(("openset.score", "lifecycle.drift"))
    return tuple(layer for layer in LAYERS if layer not in skipped)


def frame_layers(
    run: Run,
    tracer,
    batch_id: int,
    sequence: int,
    observation,
    payload: bytes,
    layers: Sequence[str],
):
    """The named per-frame layers on one frame; returns what the engine stages.

    ``payload`` is the frame's bytes (for codeword workloads: bytes carrying
    the same codewords, so parsing can be timed there too).
    """
    workload = run.workload
    if "transport.encode" in layers:
        source = run.sources[sequence % len(run.sources)]
        with tracer.span("transport.encode", batch_id):
            if workload.frames:
                record = pack_frame_record(sequence, source, 0.0, payload)
            else:
                record = pack_codeword_record(sequence, source, 0.0, observation)
        with tracer.span("transport.decode", batch_id):
            decoded = unpack_record(record)
        if workload.frames:
            payload = decoded.payload
        else:
            observation = decoded.quantized
    if "frames.parse" in layers:
        with tracer.span("frames.parse", batch_id):
            _, parsed = parse_feedback_frame(payload)
        if workload.frames:
            observation = parsed
    return observation


class Replayer:
    """Part 3 of the traced run: the layer functions with their own state.

    Owns a classifier (CNN layer profiling on), an arena, vote windows and a
    drift monitor, warmed up on one micro-batch before the first replay.
    """

    def __init__(self, run: Run) -> None:
        self.run = run
        self.classifier = run.load_classifier()
        if run.workload.fp32:
            self.classifier.set_compute("fp32")
        self.arena = ArenaPool()
        self.windows = SourceWindows(16, 1024)
        self.drift = DriftMonitor(DriftConfig())
        warmup = run.observations(WARMUP, run.chunk)
        self.replay(NullTracer(), warmup, run.payloads(WARMUP, run.chunk), [range(run.chunk)])
        self.classifier.model.enable_profiling()

    @property
    def nn_names(self) -> List[str]:
        layers = self.classifier.model.layers
        return [f"nn.{index:02d}.{layer.name}" for index, layer in enumerate(layers)]

    def replay(
        self, tracer, observations: Sequence, payloads: Sequence[bytes], chunks: List[range]
    ) -> List[EngineResult]:
        results: List[EngineResult] = []
        for batch_id, batch in enumerate(chunks):
            with tracer.span("replay.batch", batch_id):
                results += self.batch(
                    tracer,
                    batch_id,
                    [observations[index] for index in batch],
                    [payloads[index] for index in batch],
                    batch.start,
                )
        return results

    def batch(
        self,
        tracer,
        batch_id: int,
        observations: Sequence,
        payloads: Sequence[bytes],
        start: int,
    ) -> List[EngineResult]:
        """One micro-batch through the layer functions, a span around each call.

        Mirrors the shard engine: the per-frame layers on the workload's path
        (ring record encode + decode, frame parse), then codeword staging,
        Givens reconstruction, feature extraction, normalise + CNN + softmax,
        open-set scoring, result objects, the vote windows and the drift
        monitor.  Open-set scoring and the drift monitor also run where the
        workload has them off, so they are a measured cost on every workload;
        the results follow the workload's own path.
        """
        run, classifier, arena = self.run, self.classifier, self.arena
        workload = run.workload
        sources = run.sources
        on_path = path_layers(workload)
        staged = [
            frame_layers(run, tracer, batch_id, start + offset, observation, payload, on_path)
            for offset, (observation, payload) in enumerate(zip(observations, payloads))
        ]

        count = len(staged)
        n_phi, n_psi = angle_counts(inputs.NUM_TX, inputs.NUM_STREAMS)
        num_sub = run.scale.num_subcarriers
        with tracer.span("engine.stage", batch_id):
            q_phi = arena.get(("stage", "q_phi"), (count, num_sub, n_phi), dtype=np.int16)
            q_psi = arena.get(("stage", "q_psi"), (count, num_sub, n_psi), dtype=np.int16)
            for position, item in enumerate(staged):
                q_phi[position] = item.q_phi
                q_psi[position] = item.q_psi
        with tracer.span("givens.reconstruct", batch_id):
            accumulator = reconstruct_accumulator_quantized(
                q_phi,
                q_psi,
                inputs.QUANTIZATION,
                inputs.NUM_TX,
                inputs.NUM_STREAMS,
                fast=workload.fp32,
                arena=arena,
            )
        with tracer.span("features.extract", batch_id):
            features = classifier.extractor.transform_accumulator(
                accumulator, inputs.NUM_STREAMS, arena=arena
            )

        model = classifier.model
        before = model.profile()
        with tracer.span("classifier.predict", batch_id) as predict_span:
            # predict_features() is exactly this plus the argmax, for closed set.
            logits, probabilities = classifier.predict_features_outputs(features)
            ids = np.argmax(probabilities, axis=1)
            confidences = probabilities[np.arange(count), ids]
        for index, (old, new) in enumerate(zip(before, model.profile())):
            layer = f"nn.{index:02d}.{new.name}"
            tracer.attribute(predict_span.index, layer, new.total_ns - old.total_ns)
        with tracer.span("openset.score", batch_id):
            policy_scores = POLICY.score_outputs(probabilities, logits)
            policy_accepted = policy_scores >= POLICY.threshold
        if workload.lifecycle:
            scores, accepted = policy_scores, policy_accepted
        else:
            scores, accepted = confidences, np.ones(count, dtype=bool)
        with tracer.span("engine.emit", batch_id):
            results = [
                EngineResult(
                    predicted_module_id=int(ids[position]),
                    confidence=float(confidences[position]),
                    source=sources[(start + position) % len(sources)],
                    sequence=start + position,
                    score=float(scores[position]),
                    accepted=bool(accepted[position]),
                )
                for position in range(count)
            ]
        with tracer.span("engine.vote", batch_id):
            for result in results:
                self.windows.append(result)
            if workload.lifecycle:
                for source in dict.fromkeys(result.source for result in results):
                    self.windows.verdict(source)
        with tracer.span("lifecycle.drift", batch_id):
            for result in results:
                self.drift.observe(result.source, result.score)
        return results


@dataclass
class TraceRound:
    """One round of the traced run: the three views of the same frames."""

    untraced: Outcome
    traced: Outcome
    engine_results: List[EngineResult]
    engine_ms: float  # per frame
    replay_results: List[EngineResult]
    accounted_ms: float  # per frame: self time of the layers on the path
    transport_ms: float  # per frame: the transport layers among them

    @property
    def untraced_ms(self) -> float:
        return self.untraced.wall / len(self.untraced) * 1e3

    @property
    def traced_ms(self) -> float:
        return self.traced.wall / len(self.traced) * 1e3

    def shares(self) -> Dict[str, float]:
        untraced, engine, accounted = self.untraced_ms, self.engine_ms, self.accounted_ms
        return {
            "trace.overhead_share": (self.traced_ms - untraced) / untraced,
            "service.overhead_share": (untraced - engine) / untraced,
            "engine.overhead_share": (engine - (accounted - self.transport_ms)) / engine,
            "unaccounted_share": (untraced - accounted) / untraced,
        }


def traced_run(run: Run, trace_path: Optional[Path]) -> dict:
    """The same frames through the service loop, a bare engine and a replay.

    After a warm-up pass, each of :data:`TRACE_ROUNDS` rounds runs: the
    service loop untraced, the service loop traced (spans around submit /
    collect / verdict / flush, then one ``verdict`` read per source), an
    untraced :class:`~repro.core.engine.InferenceEngine` over the same
    micro-batches, and a replay through the layer functions.  The parts of a
    round run back to back, so the shares computed from them see the same
    host load; each share is the median over rounds.  The service ends with
    one same-weights ``swap_model``.  All views must agree bit for bit.
    """
    workload = run.workload
    frames = run.frames(workload.trace_batches)
    observations = run.observations(TRACE, frames, verify=True)
    payloads = run.payloads(TRACE, frames)
    chunks = [range(start, start + run.chunk) for start in range(0, frames, run.chunk)]
    on_path = path_layers(workload)
    engine = InferenceEngine(run.load_classifier(), **run.engine_kwargs())
    warmup = run.observations(WARMUP, run.scale.batch_size)
    _classify(engine, warmup, range(len(warmup)), run.sources)
    replayer = Replayer(run)
    accounted_names = list(on_path) + replayer.nn_names
    transport_names = [name for name in on_path if name in TRANSPORT_LAYERS]

    tracer = Tracer()
    rounds: List[TraceRound] = []
    traced_wall_ns = replay_wall_ns = 0
    _, service, classifier = run.start_up()
    try:
        base = run.chunk
        drive(run, service, observations, base, NullTracer())
        before = service.stats
        for index in range(TRACE_ROUNDS):
            passes = {}
            # Alternate which pass goes first, so neither always follows the replay.
            for traced_pass in (False, True) if index % 2 == 0 else (True, False):
                base += frames
                if not traced_pass:
                    passes[False] = drive(run, service, observations, base, NullTracer())
                    continue
                started_ns = time.perf_counter_ns()
                passes[True] = drive(run, service, observations, base, tracer)
                for source in service.sources:
                    with tracer.span("service.verdict"):
                        service.verdict(source)
                traced_wall_ns += time.perf_counter_ns() - started_ns

            started = time.perf_counter()
            engine_results: List[EngineResult] = []
            for batch in chunks:
                engine_results += _classify(engine, observations, batch, run.sources)
            engine_ms = (time.perf_counter() - started) / frames * 1e3

            mark = tracer.totals()
            started_ns = time.perf_counter_ns()
            replay_results = replayer.replay(tracer, observations, payloads, chunks)
            replay_wall_ns += time.perf_counter_ns() - started_ns
            own = {n: own_ns - mark.get(n, (0, 0))[1] for n, (_, own_ns) in tracer.totals().items()}
            rounds.append(
                TraceRound(
                    passes[False],
                    passes[True],
                    engine_results,
                    engine_ms,
                    replay_results,
                    sum(own.get(n, 0) for n in accounted_names) / frames / 1e6,
                    sum(own.get(n, 0) for n in transport_names) / frames / 1e6,
                )
            )
        after = service.stats
        started_ns = time.perf_counter_ns()
        with tracer.span("service.swap_model"):
            service.swap_model(classifier)
        swap_ns = time.perf_counter_ns() - started_ns
        traced_wall_ns += swap_ns
    finally:
        service.close()

    # Per-frame layers the workload does not use still get a measured cost,
    # on the first few batches, apart from the replay so they disturb nothing.
    started_ns = time.perf_counter_ns()
    off_path = [name for name in PER_FRAME_LAYERS if name not in on_path]
    for batch_id, batch in enumerate(chunks[:OFF_PATH_BATCHES]):
        with tracer.span("replay.off_path", batch_id):
            for index in batch:
                frame_layers(
                    run, tracer, batch_id, index, observations[index], payloads[index], off_path
                )
    replay_wall_ns += time.perf_counter_ns() - started_ns

    reference = rounds[0].untraced
    failed = np.zeros(frames, dtype=bool)
    for trace_round in rounds:
        for outcome in (trace_round.untraced, trace_round.traced):
            failed |= np.isnan(outcome.seen) | mismatches(reference, 0, outcome.columns())
        for results in (trace_round.engine_results, trace_round.replay_results):
            failed |= mismatches(reference, 0, columns(results))

    metrics = layer_metrics(frames, rounds, tracer, replayer.nn_names, before, after)
    metrics["lifecycle.swap_ms"] = _metric(swap_ns / 1e6, "ms")
    if trace_path is not None:
        tracer.write(
            trace_path,
            {
                "workload": workload.name,
                "seed": run.seed,
                "frames": frames,
                "rounds": TRACE_ROUNDS,
                "traced_wall_ns": traced_wall_ns + replay_wall_ns,
                "service_wall_ns": traced_wall_ns,
                "replay_wall_ns": replay_wall_ns,
            },
        )
    failures = int(np.count_nonzero(failed))
    return {
        "attempted": frames,
        "failed": failures,
        "correct": failures == 0,
        "metrics": metrics,
        "extra": {},
    }


def layer_metrics(
    frames: int,
    rounds: List[TraceRound],
    tracer: Tracer,
    nn_names: List[str],
    before: ServiceStats,
    after: ServiceStats,
) -> Dict[str, dict]:
    """Per-layer self time and counts, service counters and overhead shares."""
    totals = tracer.totals()
    timed_frames = len(rounds) * frames
    metrics: Dict[str, dict] = {}
    for name in list(LAYERS) + nn_names:
        calls, own = totals.get(name, (0, 0))
        # Per-frame layers off the path ran on a sample of the frames only.
        covered = calls if name in PER_FRAME_LAYERS else timed_frames
        metrics[f"{name}.us_per_frame"] = _metric(own / covered / 1e3, "us")
        metrics[f"{name}.calls"] = _metric(calls, "count")
    for name in ("service.submit", "service.collect", "service.verdict"):
        own = totals.get(name, (0, 0))[1]
        metrics[f"{name}.us_per_frame"] = _metric(own / timed_frames / 1e3, "us")

    served = after.frames_out - before.frames_out
    loop_wall = sum(r.untraced.wall + r.traced.wall for r in rounds)
    submit_us = np.array(tracer.durations_ns("service.submit")) / 1e3
    lag_ms = np.concatenate([r.traced.lag for r in rounds]) * 1e3
    metrics.update(
        {
            "service.submit.p99_us": _metric(np.percentile(submit_us, 99), "us"),
            "service.queue_full_waits_per_kframe": _metric(
                (after.queue_full_waits - before.queue_full_waits) / served * 1e3, "count/kframe"
            ),
            "service.worker_busy_share": _metric(
                (after.inference_seconds - before.inference_seconds) / loop_wall, "share"
            ),
            "service.mean_batch_size": _metric(
                served / (after.batches - before.batches), "frames"
            ),
            "openset.rejected_share": _metric(
                (after.frames_rejected - before.frames_rejected) / served, "share"
            ),
            "generator.lag_p99_ms": _metric(np.percentile(lag_ms, 99), "ms"),
        }
    )
    for name, attribute in (
        ("e2e.untraced_ms_per_frame", "untraced_ms"),
        ("e2e.traced_ms_per_frame", "traced_ms"),
        ("engine.drain_ms_per_frame", "engine_ms"),
        ("replay.accounted_ms_per_frame", "accounted_ms"),
    ):
        metrics[name] = _metric(statistics.median(getattr(r, attribute) for r in rounds), "ms")
    for name in rounds[0].shares():
        metrics[name] = _metric(statistics.median(r.shares()[name] for r in rounds), "share")
    return metrics


def host_info() -> dict:
    return {
        "cores": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "blas_threads": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    model_dir: Path,
    smoke: bool = False,
    trace_path: Optional[Path] = None,
) -> dict:
    """Measure one workload; returns the result record ``run.py`` prints."""
    run = Run(WORKLOADS[name], SMOKE if smoke else FULL, seed, model_dir)
    result = traced_run(run, trace_path) if trace else timed_run(run, seconds)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        **result,
        "host": host_info(),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="One workload run (started by run.py).")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--model", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args(argv)
    result = run_workload(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        args.model,
        trace_path=args.trace_out,
    )
    args.result.write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
