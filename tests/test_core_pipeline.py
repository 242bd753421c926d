"""Tests for the end-to-end authentication pipeline."""

import numpy as np
import pytest

from repro.core.classifier import ClassifierConfig, DeepCsiClassifier
from repro.core.model import DeepCsiModelConfig
from repro.core.engine import UNKNOWN_MODULE_ID
from repro.core.pipeline import AuthenticationPipeline, AuthenticationResult, PipelineError
from repro.datasets.features import FeatureConfig, strided_subcarriers
from repro.datasets.splits import D1_SPLITS, d1_split
from repro.feedback.capture import MonitorCapture, SoundingSimulator, station_mac
from repro.phy.channel import MultipathChannel
from repro.phy.devices import AccessPoint, make_beamformee
from repro.phy.geometry import AP_POSITION_A, beamformee_positions
from repro.phy.ofdm import sounding_layout
from tests.observations import codewords, rebuilt

TINY_MODEL = DeepCsiModelConfig(
    num_filters=8,
    kernel_widths=(5, 3),
    pool_width=2,
    dense_units=(16,),
    dropout_retain=(0.8,),
    attention_kernel_width=3,
)


@pytest.fixture(scope="module")
def trained_pipeline(tiny_d1):
    from repro.nn.training import TrainingConfig

    train, _ = d1_split(tiny_d1, D1_SPLITS["S1"], beamformee_id=1)
    classifier = DeepCsiClassifier(
        ClassifierConfig(
            num_classes=3,
            feature=FeatureConfig(
                stream_indices=(0,), subcarrier_positions=strided_subcarriers(234, 8)
            ),
            model=TINY_MODEL,
            training=TrainingConfig(
                epochs=6, batch_size=16, validation_split=0.2,
                early_stopping_patience=None, seed=0,
            ),
            learning_rate=3e-3,
        )
    )
    pipeline = AuthenticationPipeline(classifier, confidence_threshold=0.3)
    pipeline.enroll(train)
    return pipeline


@pytest.fixture(scope="module")
def test_samples(tiny_d1):
    _, test = d1_split(tiny_d1, D1_SPLITS["S1"], beamformee_id=1)
    return test


class TestAuthenticate:
    def test_accepts_correct_claim_on_majority_of_samples(self, trained_pipeline, test_samples):
        outcomes = [
            trained_pipeline.authenticate(sample, claimed_module_id=sample.module_id)
            for sample in test_samples[:20]
        ]
        accepted = sum(result.accepted for result in outcomes)
        assert accepted > len(outcomes) / 2

    def test_rejects_wrong_claim_on_majority_of_samples(self, trained_pipeline, test_samples):
        outcomes = [
            trained_pipeline.authenticate(
                sample, claimed_module_id=(sample.module_id + 1) % 3
            )
            for sample in test_samples[:20]
        ]
        rejected = sum(not result.accepted for result in outcomes)
        assert rejected > len(outcomes) / 2

    def test_open_set_query_returns_prediction(self, trained_pipeline, test_samples):
        result = trained_pipeline.authenticate(test_samples[0])
        assert isinstance(result, AuthenticationResult)
        assert result.claimed_module_id is None
        assert 0 <= result.predicted_module_id < 3

    def test_accepts_raw_array_input(self, trained_pipeline, test_samples):
        result = trained_pipeline.authenticate(np.asarray(test_samples[0].v_tilde))
        assert 0.0 <= result.confidence <= 1.0

    def test_invalid_observation_rejected(self, trained_pipeline):
        with pytest.raises(PipelineError):
            trained_pipeline.authenticate(np.zeros((4, 4)))

    def test_invalid_threshold_rejected(self, trained_pipeline):
        with pytest.raises(PipelineError):
            AuthenticationPipeline(trained_pipeline.classifier, confidence_threshold=1.5)


class TestCaptureAuthentication:
    def test_authenticate_capture_from_sniffed_frames(self, trained_pipeline, small_modules):
        # Sniff frames from the simulated network whose AP uses module 0 and
        # authenticate them with the enrolled pipeline.  The capture uses the
        # 80 MHz layout so the feature shapes match the training data.
        layout = sounding_layout(80)
        access_point = AccessPoint(module=small_modules[0], position=AP_POSITION_A)
        bf1_pos, _ = beamformee_positions(3)
        beamformee = make_beamformee(1, bf1_pos, num_antennas=2, num_streams=2, seed=5 + 10_000)
        simulator = SoundingSimulator(
            access_point=access_point,
            beamformees=[beamformee],
            channel=MultipathChannel(num_scatterers=8, environment_seed=11),
            layout=layout,
        )
        capture = MonitorCapture()
        simulator.sound_many(3, np.random.default_rng(0), capture=capture)

        results = trained_pipeline.authenticate_capture(
            capture, source_address=station_mac(1)
        )
        assert len(results) == 3
        verdict = trained_pipeline.majority_vote(results)
        assert 0 <= verdict.predicted_module_id < 3

    def test_empty_capture_rejected(self, trained_pipeline):
        with pytest.raises(PipelineError):
            trained_pipeline.authenticate_capture(MonitorCapture())

    def test_majority_vote_requires_results(self, trained_pipeline):
        with pytest.raises(PipelineError):
            trained_pipeline.majority_vote([])

    def test_majority_vote_picks_most_frequent(self, trained_pipeline):
        results = [
            AuthenticationResult(predicted_module_id=1, confidence=0.9, accepted=True),
            AuthenticationResult(predicted_module_id=1, confidence=0.8, accepted=True),
            AuthenticationResult(predicted_module_id=2, confidence=0.99, accepted=True),
        ]
        verdict = trained_pipeline.majority_vote(results)
        assert verdict.predicted_module_id == 1
        assert verdict.confidence == pytest.approx(0.85)

    def test_majority_vote_rejects_inconsistent_claims(self, trained_pipeline):
        results = [
            AuthenticationResult(
                predicted_module_id=1, confidence=0.9, accepted=True,
                claimed_module_id=1,
            ),
            AuthenticationResult(
                predicted_module_id=1, confidence=0.8, accepted=False,
                claimed_module_id=2,
            ),
        ]
        with pytest.raises(PipelineError):
            trained_pipeline.majority_vote(results)

    def test_majority_vote_rejects_mixed_open_and_claimed(self, trained_pipeline):
        results = [
            AuthenticationResult(
                predicted_module_id=1, confidence=0.9, accepted=True,
                claimed_module_id=1,
            ),
            AuthenticationResult(
                predicted_module_id=1, confidence=0.8, accepted=True,
            ),
        ]
        with pytest.raises(PipelineError):
            trained_pipeline.majority_vote(results)

    def test_majority_vote_keeps_consistent_claim(self, trained_pipeline):
        results = [
            AuthenticationResult(
                predicted_module_id=2, confidence=0.9, accepted=True,
                claimed_module_id=2,
            ),
            AuthenticationResult(
                predicted_module_id=2, confidence=0.7, accepted=True,
                claimed_module_id=2,
            ),
        ]
        verdict = trained_pipeline.majority_vote(results)
        assert verdict.claimed_module_id == 2
        assert verdict.accepted

    def test_authenticate_batch_matches_per_frame_path(
        self, trained_pipeline, test_samples
    ):
        subset = [codewords(sample.v_tilde) for sample in test_samples[:9]]
        batched = trained_pipeline.authenticate_batch(subset, batch_size=4)
        for v_tilde, result in zip(rebuilt(subset), batched):
            single = trained_pipeline.authenticate(v_tilde)
            assert result.predicted_module_id == single.predicted_module_id
            assert result.confidence == pytest.approx(single.confidence, abs=1e-12)
            assert result.accepted == single.accepted

    def test_authenticate_batch_rejects_empty_input(self, trained_pipeline):
        with pytest.raises(PipelineError):
            trained_pipeline.authenticate_batch([])

    def test_authenticate_batch_with_workers_matches_single_engine(
        self, trained_pipeline, test_samples
    ):
        subset = [codewords(sample.v_tilde) for sample in test_samples[:12]]
        single = trained_pipeline.authenticate_batch(subset, batch_size=4)
        sharded = trained_pipeline.authenticate_batch(
            subset, batch_size=4, workers=3
        )
        assert len(sharded) == len(single)
        for got, want in zip(sharded, single):
            assert got.predicted_module_id == want.predicted_module_id
            assert got.confidence == pytest.approx(want.confidence, rel=1e-12)
            assert got.accepted == want.accepted

    def test_authenticate_capture_with_workers(self, trained_pipeline, small_modules):
        layout = sounding_layout(80)
        access_point = AccessPoint(module=small_modules[0], position=AP_POSITION_A)
        bf1_pos, _ = beamformee_positions(3)
        beamformee = make_beamformee(
            1, bf1_pos, num_antennas=2, num_streams=2, seed=5 + 10_000
        )
        simulator = SoundingSimulator(
            access_point=access_point,
            beamformees=[beamformee],
            channel=MultipathChannel(num_scatterers=8, environment_seed=11),
            layout=layout,
        )
        capture = MonitorCapture()
        simulator.sound_many(4, np.random.default_rng(0), capture=capture)
        assert capture.source_addresses() == [station_mac(1)]

        single = trained_pipeline.authenticate_capture(capture)
        sharded = trained_pipeline.authenticate_capture(capture, workers=2)
        assert len(sharded) == len(single) == 4
        for got, want in zip(sharded, single):
            assert got.predicted_module_id == want.predicted_module_id
            assert got.confidence == pytest.approx(want.confidence, rel=1e-12)

        # The process backend must agree with the thread backend bit for bit:
        # same routed sub-streams, same engines, only the transport differs.
        processed = trained_pipeline.authenticate_capture(
            capture, workers=2, backend="processes"
        )
        assert len(processed) == len(sharded)
        for got, want in zip(processed, sharded):
            assert got.predicted_module_id == want.predicted_module_id
            assert got.confidence == want.confidence  # bitwise
            assert got.accepted == want.accepted


class TestMajorityVoteRejection:
    """Regression: a fused UNKNOWN winner must never authenticate.

    Open-set engines report rejected frames with
    ``predicted_module_id == UNKNOWN_MODULE_ID`` and high *rejection*
    confidence.  The original fusion only checked the confidence threshold,
    so a window full of confident rejections authenticated as "module -1" --
    exactly the traffic the open-set layer exists to refuse.
    """

    def test_unknown_majority_is_never_accepted(self, trained_pipeline):
        results = [
            AuthenticationResult(
                predicted_module_id=UNKNOWN_MODULE_ID,
                confidence=0.95,
                accepted=False,
            )
            for _ in range(3)
        ]
        verdict = trained_pipeline.majority_vote(results)
        assert verdict.predicted_module_id == UNKNOWN_MODULE_ID
        assert verdict.confidence == pytest.approx(0.95)
        assert not verdict.accepted

    def test_unknown_majority_with_claim_is_never_accepted(self, trained_pipeline):
        results = [
            AuthenticationResult(
                predicted_module_id=UNKNOWN_MODULE_ID,
                confidence=0.9,
                accepted=False,
                claimed_module_id=1,
            ),
            AuthenticationResult(
                predicted_module_id=UNKNOWN_MODULE_ID,
                confidence=0.9,
                accepted=False,
                claimed_module_id=1,
            ),
            AuthenticationResult(
                predicted_module_id=1,
                confidence=0.8,
                accepted=True,
                claimed_module_id=1,
            ),
        ]
        verdict = trained_pipeline.majority_vote(results)
        assert verdict.predicted_module_id == UNKNOWN_MODULE_ID
        assert not verdict.accepted

    def test_enrolled_majority_still_accepted(self, trained_pipeline):
        """The fix must not regress the accepted path: an enrolled winner
        with a minority of rejections keeps authenticating."""
        results = [
            AuthenticationResult(predicted_module_id=2, confidence=0.9, accepted=True),
            AuthenticationResult(predicted_module_id=2, confidence=0.8, accepted=True),
            AuthenticationResult(
                predicted_module_id=UNKNOWN_MODULE_ID, confidence=0.9, accepted=False
            ),
        ]
        verdict = trained_pipeline.majority_vote(results)
        assert verdict.predicted_module_id == 2
        assert verdict.accepted
