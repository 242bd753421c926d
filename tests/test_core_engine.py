"""Tests for the batched streaming inference engine."""

import numpy as np
import pytest

from repro.core.classifier import ClassifierConfig, DeepCsiClassifier
from repro.core.backends import ProcessBackend
from repro.core.engine import (
    ANONYMOUS_SOURCE,
    UNKNOWN_MODULE_ID,
    EngineError,
    EngineResult,
    EngineStats,
    InferenceEngine,
    SourceWindows,
)
from repro.core.model import DeepCsiModelConfig
from repro.core.transport import (
    pack_codeword_record,
    pack_frame_record,
    unpack_record,
)
from repro.datasets.features import FeatureConfig, strided_subcarriers
from repro.datasets.splits import D1_SPLITS, d1_split
from repro.feedback.capture import (
    CapturedFeedback,
    MonitorCapture,
    SoundingSimulator,
    station_mac,
)
from repro.feedback.frames import FeedbackFrame, FrameError
from repro.feedback.givens import compress_v_matrix
from repro.feedback.quantization import QuantizationConfig, quantize_angles
from repro.nn.training import TrainingConfig
from repro.phy.channel import MultipathChannel
from repro.phy.devices import AccessPoint, make_beamformee
from repro.phy.geometry import AP_POSITION_A, beamformee_positions
from repro.phy.ofdm import sounding_layout
from tests.observations import codewords, frame, rebuilt

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


class TestPredictMatrices:
    def test_matches_looped_predict_matrix_exactly(
        self, trained_classifier, test_samples
    ):
        subset = test_samples[:12]
        v_batch = np.stack([sample.v_tilde for sample in subset], axis=0)
        ids, confidences = trained_classifier.predict_matrices(v_batch)
        assert ids.shape == (12,)
        assert confidences.shape == (12,)
        for index, sample in enumerate(subset):
            module_id, confidence = trained_classifier.predict_matrix(sample.v_tilde)
            assert ids[index] == module_id
            assert confidences[index] == confidence

    def test_empty_batch_gives_empty_results(self, trained_classifier):
        ids, confidences = trained_classifier.predict_matrices(
            np.zeros((0, 29, 3, 2), dtype=complex)
        )
        assert ids.shape == (0,)
        assert confidences.shape == (0,)
        # Regression (found by repro-lint hot-path/missing-dtype): the empty
        # fast path must match the dtypes of the populated path.
        assert ids.dtype == np.dtype(int)
        assert confidences.dtype == np.dtype(float)

    def test_wrong_rank_rejected(self, trained_classifier, test_samples):
        from repro.core.classifier import ClassifierError

        with pytest.raises(ClassifierError):
            trained_classifier.predict_matrices(test_samples[0].v_tilde)


class TestEngineBatching:
    def test_drain_matches_per_frame_results(self, trained_classifier, test_codewords):
        engine = InferenceEngine(trained_classifier, batch_size=5)
        results = engine.drain(test_codewords[:13])
        assert len(results) == 13
        assert [result.sequence for result in results] == list(range(13))
        for result, v_tilde in zip(results, rebuilt(test_codewords[:13])):
            module_id, confidence = trained_classifier.predict_matrix(v_tilde)
            assert result.predicted_module_id == module_id
            assert result.confidence == confidence

    def test_submit_buffers_until_batch_is_full(
        self, trained_classifier, test_codewords
    ):
        engine = InferenceEngine(trained_classifier, batch_size=4)
        outputs = []
        for quantized in test_codewords[:6]:
            outputs.append(engine.submit(quantized))
        # The first three submissions buffer; the fourth releases the batch.
        assert [len(batch) for batch in outputs] == [0, 0, 0, 4, 0, 0]
        assert len(engine.flush()) == 2
        assert engine.stats.frames_in == 6
        assert engine.stats.frames_out == 6
        assert engine.stats.batches == 2

    def test_max_latency_forces_partial_batches(
        self, trained_classifier, test_codewords
    ):
        engine = InferenceEngine(
            trained_classifier, batch_size=64, max_latency_frames=2
        )
        outputs = [engine.submit(quantized) for quantized in test_codewords[:4]]
        assert [len(batch) for batch in outputs] == [0, 2, 0, 2]

    def test_stream_yields_every_result(self, trained_classifier, test_codewords):
        engine = InferenceEngine(trained_classifier, batch_size=4)
        results = list(engine.stream(test_codewords[:7]))
        assert len(results) == 7
        assert engine.stats.mean_batch_size == pytest.approx(3.5)
        assert engine.stats.frames_per_second > 0.0

    def test_mixed_geometries_keep_input_order(
        self, trained_classifier, test_samples, test_codewords
    ):
        # The classifier was trained on (K, M, N_SS) = (234, 3, 2) inputs.
        # Codebook-0 codewords of that geometry form a second group of the
        # micro-batch, between codebook-1 codewords and frame bytes.
        codebook0 = quantize_angles(
            compress_v_matrix(test_samples[1].v_tilde),
            QuantizationConfig(b_phi=7, b_psi=5),
        )
        engine = InferenceEngine(trained_classifier, batch_size=8)
        results = engine.drain([test_codewords[0], codebook0, frame(test_codewords[2])])
        assert [result.sequence for result in results] == [0, 1, 2]
        # Each result is the bitwise verdict on its own rebuilt V~ alone.
        for result, quantized in zip(results, [test_codewords[0], codebook0, test_codewords[2]]):
            module_id, confidence = trained_classifier.predict_matrix(rebuilt([quantized])[0])
            assert result.predicted_module_id == module_id
            assert result.confidence == confidence

    def test_invalid_configuration_rejected(self, trained_classifier):
        with pytest.raises(EngineError):
            InferenceEngine(trained_classifier, batch_size=0)
        with pytest.raises(EngineError):
            InferenceEngine(trained_classifier, max_latency_frames=0)
        with pytest.raises(EngineError):
            InferenceEngine(trained_classifier, vote_window=0)

    def test_invalid_observation_rejected(self, trained_classifier):
        engine = InferenceEngine(trained_classifier)
        with pytest.raises(EngineError):
            engine.submit(np.zeros((4, 4)))

    @pytest.mark.parametrize("kind", ["array", "sample", "captured", "frame"])
    def test_rejected_observation_costs_only_itself(
        self, trained_classifier, test_samples, test_codewords, kind
    ):
        """A bad observation raises at submit, is not buffered and takes no
        sequence number, so the frames around it classify as if it never came.

        A well-formed ``V~`` in any wrapper is refused (the streaming path
        takes frames and codewords only), as is a truncated frame.
        """
        good = test_codewords[:7]
        v_tilde = test_samples[0].v_tilde
        if kind == "frame":
            payload = frame(good[0]).payload
            bad = FeedbackFrame("bad", "ap", 0.0, payload[: len(payload) // 2])
        else:
            bad = {
                "array": v_tilde,
                "sample": test_samples[0],
                "captured": CapturedFeedback(v_tilde, "bad", "ap", 0.0),
            }[kind]
        engine = InferenceEngine(trained_classifier, batch_size=8)
        for quantized in good[:3]:
            assert engine.submit(quantized) == []
        with pytest.raises(FrameError if kind == "frame" else EngineError):
            engine.submit(bad)
        for quantized in good[3:]:
            assert engine.submit(quantized) == []
        results = engine.flush()
        assert [result.sequence for result in results] == list(range(7))
        assert results == InferenceEngine(trained_classifier, batch_size=8).drain(good)
        assert engine.stats.frames_in == engine.stats.frames_out == 7


def _observation(kind, quantized):
    """``quantized`` as one of the engine's two observation forms."""
    if kind == "codewords":
        return quantized
    return frame(quantized, "sta:frame", 4.5)


class TestObservationForms:
    @pytest.mark.parametrize(
        "kind, source, timestamp_s",
        [
            ("codewords", ANONYMOUS_SOURCE, 0.0),
            ("frame", "sta:frame", 4.5),
        ],
    )
    def test_source_and_timestamp_attribution(
        self, trained_classifier, test_codewords, kind, source, timestamp_s
    ):
        observation = _observation(kind, test_codewords[0])
        engine = InferenceEngine(trained_classifier, batch_size=4)
        engine.submit(observation)
        engine.submit(observation, source="explicit")
        own, overridden = engine.flush()
        assert (own.source, own.timestamp_s) == (source, timestamp_s)
        assert (overridden.source, overridden.timestamp_s) == ("explicit", timestamp_s)

    @pytest.mark.parametrize("kind", ["array", "sample", "captured"])
    def test_ready_v_tilde_is_refused(self, trained_classifier, test_samples, kind):
        sample = test_samples[0]
        observation = {
            "array": sample.v_tilde,
            "sample": sample,
            "captured": CapturedFeedback(sample.v_tilde, "sta:captured", "ap", 3.5),
        }[kind]
        engine = InferenceEngine(trained_classifier, batch_size=1)
        with pytest.raises(EngineError, match="quantize_angles"):
            engine.submit(observation)
        assert engine.stats.frames_in == 0
        assert engine.sources == []

    @pytest.mark.parametrize("kind", ["codewords", "frame"])
    def test_worker_rebuilt_observation_classifies_identically(
        self, trained_classifier, test_codewords, kind
    ):
        """What a process worker rebuilds from a record gives the same results
        (source and timestamp included) as submitting the original."""

        def pack(observation, source):
            if kind == "codewords":
                return pack_codeword_record(7, source, 0.0, observation)
            return pack_frame_record(
                7, source, observation.timestamp_s, observation.payload
            )

        originals = [_observation(kind, quantized) for quantized in test_codewords[:5]]
        direct = InferenceEngine(trained_classifier, batch_size=4)
        worker = InferenceEngine(trained_classifier, batch_size=4)
        expected, rebuilt = [], []
        for index, observation in enumerate(originals):
            source = f"sta:{index % 2}"
            expected += direct.submit(observation, source=source)
            record = unpack_record(pack(observation, source))
            rebuilt += worker.submit(ProcessBackend._decode(record), source=record.source)
        expected += direct.flush()
        rebuilt += worker.flush()
        assert len(rebuilt) == 5
        assert rebuilt == expected


class TestEngineVoting:
    def test_per_source_ring_buffers_and_verdicts(
        self, trained_classifier, test_codewords
    ):
        engine = InferenceEngine(trained_classifier, batch_size=4, vote_window=3)
        for quantized in test_codewords[:6]:
            engine.submit(quantized, source="alice")
        for quantized in test_codewords[6:10]:
            engine.submit(quantized, source="bob")
        engine.flush()
        assert engine.sources == ["alice", "bob"]
        verdict = engine.verdict("alice")
        # The window is capped at vote_window results.
        assert verdict.window_size == 3
        assert 1 <= verdict.num_votes <= 3
        assert 0.0 <= verdict.confidence <= 1.0

    def test_anonymous_observations_share_a_window(
        self, trained_classifier, test_codewords
    ):
        engine = InferenceEngine(trained_classifier, batch_size=2)
        engine.drain(test_codewords[:4])
        verdict = engine.verdict()
        assert verdict.window_size == 4
        assert engine.sources == [ANONYMOUS_SOURCE]

    def test_unknown_source_rejected(self, trained_classifier):
        engine = InferenceEngine(trained_classifier)
        with pytest.raises(EngineError):
            engine.verdict("nobody")

    def test_source_windows_are_bounded(self, trained_classifier, test_codewords):
        engine = InferenceEngine(trained_classifier, batch_size=1, max_sources=2)
        for index in range(4):
            engine.submit(test_codewords[index], source=f"station-{index}")
        # Only the two most recently seen sources keep a ring buffer.
        assert engine.sources == ["station-2", "station-3"]
        with pytest.raises(EngineError):
            engine.verdict("station-0")
        # A recently-updated source survives eviction over a stale one.
        engine.submit(test_codewords[0], source="station-2")
        engine.submit(test_codewords[1], source="station-4")
        assert engine.sources == ["station-2", "station-4"]

    def test_reset_clears_state(self, trained_classifier, test_codewords):
        engine = InferenceEngine(trained_classifier, batch_size=2)
        engine.drain(test_codewords[:4])
        engine.reset()
        assert engine.stats.frames_in == 0
        assert engine.sources == []
        results = engine.drain(test_codewords[:2])
        assert results[0].sequence == 0


class TestEngineStatsGuards:
    """Regression: the derived stats must not divide by zero when idle."""

    def test_fresh_stats_report_zero_throughput(self):
        stats = EngineStats()
        assert stats.frames_per_second == 0.0
        assert stats.mean_batch_size == 0.0

    def test_fresh_engine_stats_are_safe_to_read(self, trained_classifier):
        engine = InferenceEngine(trained_classifier)
        assert engine.stats.frames_per_second == 0.0
        assert engine.stats.mean_batch_size == 0.0

    def test_reset_engine_stats_are_safe_to_read(
        self, trained_classifier, test_codewords
    ):
        engine = InferenceEngine(trained_classifier, batch_size=2)
        engine.drain(test_codewords[:4])
        assert engine.stats.frames_per_second > 0.0
        engine.reset()
        assert engine.stats.frames_per_second == 0.0
        assert engine.stats.mean_batch_size == 0.0

    def test_stats_snapshot_is_consistent_mid_drain(
        self, trained_classifier, test_codewords
    ):
        """Regression: a snapshot taken from another thread mid-drain must be
        consistent - all counters of a batch published together, never a
        half-updated mix (e.g. frames_out bumped but batches not yet).
        """
        import threading

        from repro.analysis.runtime import validate_guarded

        batch_size = 2
        engine = InferenceEngine(trained_classifier, batch_size=batch_size)
        # Runtime lock validation: every access of the # guarded-by: _stats_lock
        # state must hold the lock, checked live while the watcher races.
        monitor = validate_guarded(engine)
        stop = threading.Event()
        violations = []

        def watch():
            while not stop.is_set():
                stats = engine.stats
                # Full batches only, so every published batch adds exactly
                # batch_size frames: any other ratio is a torn snapshot.
                if stats.frames_out != stats.batches * batch_size:
                    violations.append((stats.frames_out, stats.batches))

        watcher = threading.Thread(target=watch)
        watcher.start()
        try:
            for _ in range(10):
                for quantized in test_codewords[:8]:
                    engine.submit(quantized)
        finally:
            stop.set()
            watcher.join()
        assert not violations, f"torn stats snapshots observed: {violations[:5]}"
        assert engine.stats.frames_out == engine.stats.batches * batch_size
        monitor.assert_clean()
        monitor.restore()


class TestEngineOnSniffedFrames:
    def test_raw_frames_take_the_batched_givens_path(
        self, trained_classifier, small_modules
    ):
        layout = sounding_layout(80)
        access_point = AccessPoint(module=small_modules[0], position=AP_POSITION_A)
        bf_pos, _ = beamformee_positions(3)
        beamformee = make_beamformee(
            1, bf_pos, num_antennas=2, num_streams=2, seed=5 + 10_000
        )
        simulator = SoundingSimulator(
            access_point=access_point,
            beamformees=[beamformee],
            channel=MultipathChannel(num_scatterers=8, environment_seed=11),
            layout=layout,
        )
        capture = MonitorCapture()
        simulator.sound_many(5, np.random.default_rng(0), capture=capture)

        engine = InferenceEngine(trained_classifier, batch_size=3)
        results = engine.drain(capture.frames)
        assert len(results) == 5
        assert all(result.source == station_mac(1) for result in results)
        # The batched frame decode must agree with the scalar capture path.
        reconstructed = capture.reconstruct()
        for result, feedback in zip(results, reconstructed):
            module_id, confidence = trained_classifier.predict_matrix(
                feedback.v_tilde
            )
            assert result.predicted_module_id == module_id
            assert result.confidence == pytest.approx(confidence, abs=1e-12)
        verdict = engine.verdict(station_mac(1))
        assert verdict.window_size == 5


class TestSourceWindowsRejection:
    """Regression tests of the rejection-aware windowed majority vote.

    The original vote counted every window entry, so a burst of open-set
    rejections could be outvoted by *older* accepted entries and a departed
    (or taken-over) source would keep authenticating as its stale enrolled
    identity.  These tests pin the corrected rules.
    """

    @staticmethod
    def _result(module_id, accepted=True, score=0.9, confidence=0.9, version=0):
        return EngineResult(
            predicted_module_id=module_id,
            confidence=confidence,
            source="src",
            score=score,
            accepted=accepted,
            model_version=version,
        )

    def test_trailing_rejections_beat_older_accepted_majority(self):
        """An old accepted majority must NOT outvote a fresh reject streak."""
        windows = SourceWindows(vote_window=8, max_sources=4, reject_streak=3)
        for _ in range(5):
            windows.append(self._result(1))
        for _ in range(3):
            windows.append(self._result(1, accepted=False, score=0.2))
        verdict = windows.verdict("src")
        assert verdict.module_id == UNKNOWN_MODULE_ID
        assert verdict.num_rejected == 3
        assert verdict.window_size == 8

    def test_stray_rejection_does_not_flip_the_verdict(self):
        windows = SourceWindows(vote_window=8, max_sources=4, reject_streak=3)
        for _ in range(6):
            windows.append(self._result(2))
        windows.append(self._result(2, accepted=False, score=0.3))
        windows.append(self._result(2))
        verdict = windows.verdict("src")
        assert verdict.module_id == 2
        assert verdict.num_votes == 7
        assert verdict.num_rejected == 1

    def test_rejections_matching_winner_votes_give_unknown(self):
        windows = SourceWindows(vote_window=8, max_sources=4, reject_streak=5)
        windows.append(self._result(0))
        windows.append(self._result(0, accepted=False, score=0.1))
        windows.append(self._result(0, accepted=False, score=0.1))
        windows.append(self._result(0))
        verdict = windows.verdict("src")
        assert verdict.module_id == UNKNOWN_MODULE_ID
        assert verdict.num_rejected == 2

    def test_all_rejected_window_reports_rejection_strength(self):
        windows = SourceWindows(vote_window=4, max_sources=4)
        for score in (0.2, 0.4):
            windows.append(self._result(0, accepted=False, score=score))
        verdict = windows.verdict("src")
        assert verdict.module_id == UNKNOWN_MODULE_ID
        assert verdict.confidence == pytest.approx(0.7)  # mean(1 - score)
        assert verdict.num_votes == verdict.num_rejected == 2

    def test_streak_is_capped_by_the_window(self):
        """reject_streak larger than the window still triggers when the
        whole window is rejected."""
        windows = SourceWindows(vote_window=2, max_sources=4, reject_streak=10)
        windows.append(self._result(1, accepted=False, score=0.1))
        windows.append(self._result(1, accepted=False, score=0.1))
        assert windows.verdict("src").module_id == UNKNOWN_MODULE_ID

    def test_verdict_version_is_max_over_the_window(self):
        windows = SourceWindows(vote_window=4, max_sources=4)
        windows.append(self._result(1, version=0))
        windows.append(self._result(1, version=2))
        windows.append(self._result(1, version=1))
        assert windows.verdict("src").model_version == 2

    def test_invalid_reject_streak_rejected(self):
        with pytest.raises(EngineError, match="reject_streak"):
            SourceWindows(vote_window=4, max_sources=4, reject_streak=0)
