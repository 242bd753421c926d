"""Tests for the sharded multi-worker streaming service."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.core.classifier import ClassifierConfig, DeepCsiClassifier
from repro.core.engine import STAGE_NAMES, EngineError, InferenceEngine
from repro.core.lifecycle import DriftConfig
from repro.feedback.capture import CapturedFeedback
from repro.core.model import DeepCsiModelConfig
from repro.core.openset import OpenSetPolicy
from repro.core.service import (
    ServiceError,
    ServiceStats,
    StreamingService,
    resolve_num_workers,
    shard_for_source,
)
from repro.datasets.features import FeatureConfig, strided_subcarriers
from repro.datasets.splits import D1_SPLITS, d1_split
from repro.feedback.capture import station_mac
from repro.nn.training import TrainingConfig
from tests.observations import codewords, frame

BACKENDS = ("threads", "processes")

TINY_MODEL = DeepCsiModelConfig(
    num_filters=8,
    kernel_widths=(5, 3),
    pool_width=2,
    dense_units=(16,),
    dropout_retain=(0.8,),
    attention_kernel_width=3,
)


@pytest.fixture(scope="module")
def trained_classifier(tiny_d1):
    train, _ = d1_split(tiny_d1, D1_SPLITS["S1"], beamformee_id=1)
    classifier = DeepCsiClassifier(
        ClassifierConfig(
            num_classes=3,
            feature=FeatureConfig(
                stream_indices=(0,), subcarrier_positions=strided_subcarriers(234, 8)
            ),
            model=TINY_MODEL,
            training=TrainingConfig(
                epochs=4, batch_size=16, validation_split=0.2,
                early_stopping_patience=None, seed=0,
            ),
            learning_rate=3e-3,
        )
    )
    classifier.fit(train)
    return classifier


@pytest.fixture(scope="module")
def test_samples(tiny_d1):
    _, test = d1_split(tiny_d1, D1_SPLITS["S1"], beamformee_id=1)
    return test


@pytest.fixture(scope="module")
def test_codewords(test_samples):
    return [codewords(sample.v_tilde) for sample in test_samples]


@pytest.fixture(scope="module")
def multi_source_stream(test_codewords):
    """(source, codewords) pairs: 6 sources, round-robin interleaved."""
    sources = [station_mac(index) for index in range(6)]
    return [
        (sources[index % len(sources)], quantized)
        for index, quantized in enumerate(test_codewords[:24])
    ]


@pytest.fixture(scope="module")
def multi_source_frames(multi_source_stream):
    """The same stream as frame bytes, each with its own capture timestamp."""
    return [
        (source, frame(quantized, source, 0.25 * index))
        for index, (source, quantized) in enumerate(multi_source_stream)
    ]


class TestShardRouting:
    def test_routing_is_stable_and_in_range(self):
        for num_shards in (1, 2, 4, 7):
            for index in range(64):
                source = station_mac(index)
                shard = shard_for_source(source, num_shards)
                assert 0 <= shard < num_shards
                assert shard == shard_for_source(source, num_shards)

    def test_many_sources_cover_every_shard(self):
        shards = {shard_for_source(station_mac(index), 4) for index in range(64)}
        assert shards == {0, 1, 2, 3}

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ServiceError):
            shard_for_source("02:00:00:00:00:01", 0)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_one_source_never_spans_two_shards(
        self, trained_classifier, test_codewords, backend
    ):
        with StreamingService(
            trained_classifier, num_workers=4, backend=backend
        ) as service:
            service.drain(test_codewords[:8], source="alice")
            shards = service._backend
            with shards._drain_lock:
                owners = [
                    index
                    for index, windows in enumerate(shards._windows)
                    if windows.sources
                ]
        assert owners == [shard_for_source("alice", 4)]


class TestServiceResults:
    def test_drain_matches_single_engine_bitwise(
        self, trained_classifier, multi_source_stream
    ):
        engine = InferenceEngine(trained_classifier, batch_size=5)
        expected = []
        for source, quantized in multi_source_stream:
            expected.extend(engine.submit(quantized, source=source))
        expected.extend(engine.flush())
        expected.sort(key=lambda result: result.sequence)

        with StreamingService(
            trained_classifier, num_workers=3, batch_size=5
        ) as service:
            for source, quantized in multi_source_stream:
                service.submit(quantized, source=source)
            service.flush()
            actual = sorted(service.collect(), key=lambda result: result.sequence)

        assert [result.sequence for result in actual] == list(
            range(len(multi_source_stream))
        )
        for got, want in zip(actual, expected):
            assert got.source == want.source
            assert got.predicted_module_id == want.predicted_module_id
            assert got.confidence == pytest.approx(want.confidence, rel=1e-12)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_verdicts_match_single_engine(
        self, trained_classifier, multi_source_stream, backend
    ):
        """The parent-side vote windows and drift monitors replayed from the
        shards' results answer exactly what one engine fed the whole stream
        answers."""
        engine = InferenceEngine(
            trained_classifier, batch_size=4, vote_window=8, drift=DriftConfig()
        )
        for source, quantized in multi_source_stream:
            engine.submit(quantized, source=source)
        engine.flush()

        with StreamingService(
            trained_classifier,
            num_workers=4,
            batch_size=4,
            vote_window=8,
            drift=DriftConfig(),
            backend=backend,
        ) as service:
            for source, quantized in multi_source_stream:
                service.submit(quantized, source=source)
            service.flush()
            assert service.sources == engine.sources
            for source in engine.sources:
                assert service.verdict(source) == engine.verdict(source)
            assert service.drift_snapshot() == engine.drift_snapshot()

    def test_drain_returns_submission_order(self, trained_classifier, test_codewords):
        with StreamingService(
            trained_classifier, num_workers=2, batch_size=4
        ) as service:
            results = service.drain(test_codewords[:10])
        assert [result.sequence for result in results] == list(range(10))

    def test_stream_yields_every_result(self, trained_classifier, test_codewords):
        with StreamingService(
            trained_classifier, num_workers=2, batch_size=4
        ) as service:
            results = list(service.stream(test_codewords[:7]))
        assert len(results) == 7

    def test_unknown_source_verdict_rejected(self, trained_classifier):
        from repro.core.engine import EngineError

        with StreamingService(trained_classifier, num_workers=2) as service:
            with pytest.raises(EngineError):
                service.verdict("nobody")


class TestConcurrentProducers:
    def test_parallel_submitters_get_unique_sequences(
        self, trained_classifier, test_codewords
    ):
        """Regression: the service-wide sequence stamp must not race."""
        import threading

        from repro.analysis.runtime import validate_guarded

        sources = [station_mac(index) for index in range(4)]
        per_producer = 8
        with StreamingService(
            trained_classifier, num_workers=2, batch_size=4
        ) as service:
            # Runtime lock validation: the # guarded-by: _submit_lock sequence
            # counter must be locked on every access, including the stats
            # snapshots the producers interleave with their submissions.
            monitor = validate_guarded(service)

            def produce(source):
                for quantized in test_codewords[:per_producer]:
                    service.submit(quantized, source=source)
                    service.stats

            threads = [
                threading.Thread(target=produce, args=(source,))
                for source in sources
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            service.flush()
            results = service.collect()
            monitor.assert_clean()
            monitor.restore()

        sequences = sorted(result.sequence for result in results)
        assert sequences == list(range(len(sources) * per_producer))


class TestBackpressureAndLifecycle:
    def test_bounded_queue_loses_no_frames(self, trained_classifier, test_codewords):
        with StreamingService(
            trained_classifier, num_workers=2, queue_depth=1, batch_size=4
        ) as service:
            results = service.drain(test_codewords[:20])
            stats = service.stats
        assert len(results) == 20
        assert stats.frames_in == stats.frames_out == 20
        assert stats.queue_full_waits >= 0

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    @pytest.mark.parametrize("kind", ["array", "sample", "captured"])
    def test_non_codeword_observation_costs_only_itself(
        self, trained_classifier, test_samples, test_codewords, backend, kind
    ):
        """A ready V~ in any wrapper raises at submit, on either backend,
        without taking a sequence number; the shards keep serving."""
        sample = test_samples[0]
        bad = {
            "array": sample.v_tilde,
            "sample": sample,
            "captured": CapturedFeedback(sample.v_tilde, "sta:bad", "ap", 0.0),
        }[kind]
        with StreamingService(
            trained_classifier, num_workers=2, batch_size=4, backend=backend
        ) as service:
            for _ in range(2):
                with pytest.raises(ServiceError, match="QuantizedAngles"):
                    service.submit(bad, source="alice")
                assert service.stats.frames_in == 0
            results = service.drain(test_codewords[:6], source="alice")
            stats = service.stats
        assert [result.sequence for result in results] == list(range(6))
        assert stats.frames_in == stats.frames_out == 6

    def test_invalid_configuration_rejected(self, trained_classifier):
        with pytest.raises(ServiceError):
            StreamingService(trained_classifier, num_workers=0)
        with pytest.raises(ServiceError):
            StreamingService(trained_classifier, queue_depth=0)


class TestWorkerHeuristic:
    def test_explicit_worker_count_always_wins(self):
        assert resolve_num_workers(2, "threads", cpu_count=1) == 2
        assert resolve_num_workers(7, "processes", cpu_count=1) == 7

    def test_single_core_defaults_to_one_shard(self):
        # On one core extra shards only add queue handshakes (threads: the
        # GIL already serialises them; processes: they time-slice the core
        # while paying transport copies) - the default must never be slower
        # than 1 worker.
        assert resolve_num_workers(None, "threads", cpu_count=1) == 1
        assert resolve_num_workers(None, "processes", cpu_count=1) == 1

    def test_multi_core_grows_with_cores_up_to_cap(self):
        assert resolve_num_workers(None, "threads", cpu_count=2) == 2
        assert resolve_num_workers(None, "processes", cpu_count=3) == 3
        assert resolve_num_workers(None, "threads", cpu_count=16) == 4

    def test_service_applies_heuristic_for_default_workers(
        self, trained_classifier
    ):
        import os

        expected = resolve_num_workers(None, "threads", cpu_count=os.cpu_count())
        with StreamingService(trained_classifier) as service:
            assert service.num_workers == expected

    def test_unknown_backend_rejected(self, trained_classifier):
        with pytest.raises(ServiceError):
            StreamingService(trained_classifier, num_workers=1, backend="fibers")


class TestShardProtocol:
    """The shard protocol both backends share: one worker loop, the result
    and ack messages, failures and the parent-side replicas."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_submit_and_collect_poll_the_result_queue_once(
        self, trained_classifier, test_codewords, monkeypatch, backend
    ):
        with StreamingService(
            trained_classifier, num_workers=1, batch_size=4, backend=backend
        ) as service:
            shards = service._backend
            drains = []
            drain = shards._drain

            def counted(block):
                drains.append(block)
                return drain(block)

            monkeypatch.setattr(shards, "_drain", counted)
            service.submit(test_codewords[0], source="alice")
            assert drains == [False]
            service.collect()
            assert drains == [False, False]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_worker_error_surfaces_at_the_next_collect_and_submit(
        self, trained_classifier, test_codewords, backend
    ):
        with StreamingService(
            trained_classifier, num_workers=1, batch_size=4, backend=backend
        ) as service:
            # The message a shard worker sends when its engine raises.
            service._backend._outbox.put(("error", 0, "ValueError: injected"))
            deadline = time.monotonic() + 10.0
            with pytest.raises(ServiceError, match="injected"):
                while time.monotonic() < deadline:
                    service.collect()
                    time.sleep(0.01)
            with pytest.raises(ServiceError, match="injected"):
                service.submit(test_codewords[0], source="alice")

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"batch_size": 0}, "batch_size must be >= 1"),
            ({"max_latency_frames": 0}, "max_latency_frames must be >= 1"),
            (
                {
                    "open_set": OpenSetPolicy(
                        scoring="centroid_distance", centroids=np.zeros((3, 5))
                    )
                },
                r"centroids have shape \(3, 5\)",
            ),
        ],
        ids=["batch_size", "max_latency_frames", "centroids"],
    )
    def test_bad_engine_settings_are_refused_before_any_worker_starts(
        self, trained_classifier, monkeypatch, backend, setting, message
    ):
        started = []
        monkeypatch.setattr(
            "repro.core.service.make_backend", lambda *args: started.append(args)
        )
        with pytest.raises(ServiceError, match=message):
            StreamingService(trained_classifier, num_workers=1, backend=backend, **setting)
        assert started == []

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_worker_that_cannot_build_its_engine_fails_the_flush(
        self, trained_classifier, test_codewords, monkeypatch, backend
    ):
        """The worker reports its failed engine construction and returns;
        the next flush raises it.  A process shard inherits the patched
        engine class through fork."""

        def broken_engine(*args, **kwargs):
            raise EngineError("injected engine failure")

        monkeypatch.setattr("repro.core.backends.InferenceEngine", broken_engine)
        with StreamingService(
            trained_classifier, num_workers=1, batch_size=4, backend=backend
        ) as service:
            with pytest.raises(ServiceError, match="EngineError: injected engine failure"):
                service.submit(test_codewords[0], source="alice")
                service.flush()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_stats_aggregate_per_shard_sums(
        self, trained_classifier, multi_source_stream, backend
    ):
        with StreamingService(
            trained_classifier,
            num_workers=3,
            batch_size=4,
            open_set=OpenSetPolicy(scoring="max_softmax", threshold=0.5),
            backend=backend,
        ) as service:
            for source, quantized in multi_source_stream:
                service.submit(quantized, source=source)
            service.flush()
            stats = service.stats
        workers = stats.worker_stats
        assert len(workers) == 3
        assert stats.frames_in == len(multi_source_stream)
        assert stats.frames_out == sum(w.frames_out for w in workers)
        assert stats.frames_out == len(multi_source_stream)
        assert stats.batches == sum(w.batches for w in workers)
        assert stats.inference_seconds == pytest.approx(
            sum(w.inference_seconds for w in workers)
        )
        assert stats.frames_rejected == sum(w.frames_rejected for w in workers)
        assert stats.score_histogram == tuple(
            sum(column) for column in zip(*(w.score_histogram for w in workers))
        )
        assert sum(stats.score_histogram) == stats.frames_out

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_worker_stats_carry_the_stage_profile(
        self, trained_classifier, multi_source_stream, backend
    ):
        """After a barrier every shard reports its engine's whole stats: the
        frame counters of a standalone engine fed the shard's routed
        sub-stream, and a stage profile of one call per stage and batch.
        Where a shard cuts its batches depends on load (an idle shard
        classifies what it holds), so ``batches`` is the shard's own, capped
        by ``batch_size``."""
        with StreamingService(
            trained_classifier, num_workers=2, batch_size=4, backend=backend
        ) as service:
            for source, quantized in multi_source_stream:
                service.submit(quantized, source=source)
            service.flush()
            workers = service.stats.worker_stats

        for index, worker in enumerate(workers):
            engine = InferenceEngine(trained_classifier, batch_size=4)
            for source, quantized in multi_source_stream:
                if shard_for_source(source, 2) == index:
                    engine.submit(quantized, source=source)
            engine.flush()
            expected = engine.stats
            assert (worker.frames_out, worker.frames_rejected) == (
                expected.frames_out,
                expected.frames_rejected,
            )
            assert -(-worker.frames_out // 4) <= worker.batches <= worker.frames_out
            assert [(stage.name, stage.calls) for stage in worker.stage_profile] == [
                (name, worker.batches) for name in STAGE_NAMES
            ]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_closed_service_rejects_submissions(
        self, trained_classifier, test_codewords, backend
    ):
        service = StreamingService(trained_classifier, num_workers=2, backend=backend)
        service.drain(test_codewords[:2])
        service.close()
        service.close()  # idempotent
        with pytest.raises(ServiceError):
            service.submit(test_codewords[0])
        with pytest.raises(ServiceError):
            service.flush()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_results_and_stats_outlive_close(
        self, trained_classifier, test_codewords, backend
    ):
        """close() flushes every shard; what it completed stays readable."""
        service = StreamingService(
            trained_classifier, num_workers=2, batch_size=4, backend=backend
        )
        for quantized in test_codewords[:6]:
            service.submit(quantized, source="alice")
        service.close()
        assert sorted(result.sequence for result in service.collect()) == list(range(6))
        assert service.stats.frames_out == 6
        assert service.verdict("alice").window_size == 6

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_verdict_reads_do_not_race_the_result_replay(
        self, trained_classifier, test_codewords, backend
    ):
        """One thread reads verdicts while another submits and flushes: every
        replica read holds the drain lock that the result replay holds."""
        from repro.analysis.runtime import validate_guarded

        sources = [station_mac(index) for index in range(4)]
        switch_interval = sys.getswitchinterval()
        with StreamingService(
            trained_classifier, num_workers=1, batch_size=4, backend=backend
        ) as service:
            for index, source in enumerate(sources):
                service.submit(test_codewords[index], source=source)
            service.flush()
            service.collect()
            monitor = validate_guarded(service._backend)
            errors = []
            done = threading.Event()

            def read_verdicts():
                try:
                    while not done.is_set():
                        for source in sources:
                            service.verdict(source)
                except Exception as error:  # noqa: BLE001 - asserted below
                    errors.append(error)

            reader = threading.Thread(target=read_verdicts)
            sys.setswitchinterval(1e-5)
            try:
                reader.start()
                for index in range(400):
                    service.submit(
                        test_codewords[index % len(test_codewords)],
                        source=sources[index % len(sources)],
                    )
                service.flush()
            finally:
                done.set()
                reader.join(timeout=30.0)
                sys.setswitchinterval(switch_interval)
            assert not reader.is_alive()
            assert errors == []
            assert len(service.collect()) == 400
            monitor.assert_clean()
            monitor.restore()


class TestIdleShard:
    """A shard that finds its inbox empty classifies what its engine holds, so
    a trickle of traffic needs neither a full batch nor a flush."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_trickle_arrives_without_flush(
        self, trained_classifier, multi_source_frames, backend
    ):
        trickle = [observation for _, observation in multi_source_frames[:3]]
        assert len({observation.source_address for observation in trickle}) == 3
        engine = InferenceEngine(trained_classifier, batch_size=64)
        for observation in trickle:
            engine.submit(observation)
        expected = engine.flush()
        sources = [result.source for result in expected]

        with StreamingService(
            trained_classifier, num_workers=2, batch_size=64, backend=backend
        ) as service:
            for observation in trickle:
                service.submit(observation)
            results = []
            deadline = time.monotonic() + 10.0
            while len(results) < len(trickle) and time.monotonic() < deadline:
                results.extend(service.collect())
                time.sleep(0.01)
            assert sorted(results, key=lambda result: result.sequence) == expected
            for source in sources:
                assert service.verdict(source) == engine.verdict(source)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_paced_stream_matches_a_standalone_engine(
        self, trained_classifier, multi_source_frames, backend
    ):
        """Frames paced slower than the shards classify them end a batch
        wherever a shard goes idle, yet results, verdicts and drift equal
        those of one engine that classifies the whole stream as one batch."""
        settings = dict(
            batch_size=64,
            vote_window=8,
            open_set=OpenSetPolicy(scoring="max_softmax", threshold=0.5),
            drift=DriftConfig(),
        )
        engine = InferenceEngine(trained_classifier, **settings)
        for _, observation in multi_source_frames:
            engine.submit(observation)
        expected = engine.flush()

        with StreamingService(
            trained_classifier, num_workers=2, backend=backend, **settings
        ) as service:
            for _, observation in multi_source_frames:
                service.submit(observation)
                time.sleep(0.005)
            service.flush()
            results = sorted(service.collect(), key=lambda result: result.sequence)
            assert results == expected
            assert service.stats.batches > 2  # not one batch per shard
            for source in engine.sources:
                assert service.verdict(source) == engine.verdict(source)
            assert service.drift_snapshot() == engine.drift_snapshot()


class TestProcessBackend:
    def test_results_match_threads_backend_bitwise(
        self, trained_classifier, multi_source_stream, multi_source_frames
    ):
        """Identical traffic through both backends: bitwise-identical results,
        on codeword and on frame traffic."""

        def run(stream, backend):
            with StreamingService(
                trained_classifier, num_workers=2, batch_size=5, backend=backend
            ) as service:
                for source, observation in stream:
                    service.submit(observation, source=source)
                service.flush()
                results = sorted(
                    service.collect(), key=lambda result: result.sequence
                )
                verdicts = {
                    source: service.verdict(source) for source in service.sources
                }
            return results, verdicts

        for stream in (multi_source_stream, multi_source_frames):
            thread_results, thread_verdicts = run(stream, "threads")
            process_results, process_verdicts = run(stream, "processes")
            assert len(process_results) == len(thread_results) == len(stream)
            for thread_result, process_result in zip(thread_results, process_results):
                assert thread_result.sequence == process_result.sequence
                assert thread_result.source == process_result.source
                assert (
                    thread_result.predicted_module_id
                    == process_result.predicted_module_id
                )
                assert thread_result.confidence == process_result.confidence  # bitwise
                assert thread_result.timestamp_s == process_result.timestamp_s
                assert thread_result.score == process_result.score
            assert set(process_verdicts) == set(thread_verdicts)
            for source, process_verdict in process_verdicts.items():
                thread_verdict = thread_verdicts[source]
                assert process_verdict.module_id == thread_verdict.module_id
                assert process_verdict.num_votes == thread_verdict.num_votes
                assert process_verdict.window_size == thread_verdict.window_size
                assert process_verdict.confidence == thread_verdict.confidence

    def test_worker_crash_raises_instead_of_hanging(
        self, trained_classifier, test_codewords
    ):
        """Killing a child process surfaces as ServiceError, not a deadlock."""
        service = StreamingService(
            trained_classifier,
            num_workers=2,
            batch_size=4,
            queue_depth=4,
            backend="processes",
        )
        try:
            service.drain(test_codewords[:4])
            for shard in service._shards:
                shard.process.kill()
                shard.process.join(timeout=5.0)
            with pytest.raises(ServiceError, match="died"):
                # The dead consumers never drain their rings, so keep
                # submitting until backpressure makes the liveness check run;
                # the small ring bounds the number of iterations needed.
                for quantized in test_codewords * 20:
                    service.submit(quantized, source="alice")
        finally:
            service.close()

    def test_flush_with_dead_worker_raises(self, trained_classifier, test_codewords):
        service = StreamingService(
            trained_classifier, num_workers=2, batch_size=4, backend="processes"
        )
        try:
            service.drain(test_codewords[:4])
            for shard in service._shards:
                shard.process.kill()
                shard.process.join(timeout=5.0)
            with pytest.raises(ServiceError):
                service.flush()
        finally:
            service.close()

    def test_close_unlinks_every_shm_segment(self, trained_classifier, test_codewords):
        from repro.core.transport import segment_exists

        service = StreamingService(
            trained_classifier, num_workers=2, batch_size=4, backend="processes"
        )
        names = service._backend.segment_names
        assert all(segment_exists(name) for name in names)
        service.drain(test_codewords[:6])
        service.close()
        assert not any(segment_exists(name) for name in names)

    def test_close_unlinks_segments_after_worker_crash(
        self, trained_classifier, test_codewords
    ):
        from repro.core.transport import segment_exists

        service = StreamingService(
            trained_classifier, num_workers=2, batch_size=4, backend="processes"
        )
        names = service._backend.segment_names
        service.drain(test_codewords[:4])
        for shard in service._shards:
            shard.process.kill()
            shard.process.join(timeout=5.0)
        service.close()
        assert not any(segment_exists(name) for name in names)


class TestServiceStats:
    def test_counters_aggregate_worker_stats(
        self, trained_classifier, multi_source_stream
    ):
        with StreamingService(
            trained_classifier, num_workers=3, batch_size=4
        ) as service:
            for source, quantized in multi_source_stream:
                service.submit(quantized, source=source)
            service.flush()
            stats = service.stats
        assert stats.frames_out == len(multi_source_stream)
        assert stats.batches == sum(w.batches for w in stats.worker_stats)
        assert stats.inference_seconds == pytest.approx(
            sum(w.inference_seconds for w in stats.worker_stats)
        )
        assert stats.frames_per_second > 0.0
        assert stats.wall_frames_per_second > 0.0
        assert stats.mean_batch_size > 0.0

    def test_fresh_service_stats_guard_zero_division(self, trained_classifier):
        with StreamingService(trained_classifier, num_workers=2) as service:
            stats = service.stats
        assert stats.frames_per_second == 0.0
        assert stats.mean_batch_size == 0.0

    def test_stats_without_wall_time_guard_zero_division(self):
        stats = ServiceStats()
        assert stats.frames_per_second == 0.0
        assert stats.wall_frames_per_second == 0.0
        assert stats.mean_batch_size == 0.0
