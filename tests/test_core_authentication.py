"""Tests of authentication through the streaming engine.

The engine -- bare, or sharded by the streaming service -- with an optional
open-set policy is the only code that turns sniffed traffic into
accept/reject decisions, and the per-source windowed verdict is the only
vote.  These tests play the observer's claim checks on dataset frames and on
a sniffed capture: a claimed identity is accepted on a frame iff the policy
accepted the frame and the classifier named the claimed module.
"""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro.core.classifier import ClassifierConfig, DeepCsiClassifier
from repro.core.engine import UNKNOWN_MODULE_ID, EngineError, InferenceEngine
from repro.core.model import DeepCsiModelConfig
from repro.core.openset import OpenSetPolicy, enroll_centroids, score_samples
from repro.core.service import StreamingService
from repro.datasets.features import FeatureConfig, strided_subcarriers
from repro.datasets.splits import D1_SPLITS, d1_split
from repro.feedback.capture import MonitorCapture, SoundingSimulator, station_mac
from repro.nn.training import TrainingConfig
from repro.phy.channel import MultipathChannel
from repro.phy.devices import AccessPoint, make_beamformee
from repro.phy.geometry import AP_POSITION_A, beamformee_positions
from repro.phy.ofdm import sounding_layout
from tests.observations import codewords, edge_quantised

BACKENDS = ("threads", "processes")

#: The static example's claim rule: a frame counts when its max-softmax
#: confidence reaches 0.5.
CLAIM_POLICY = OpenSetPolicy(threshold=0.5)

TINY_MODEL = DeepCsiModelConfig(
    num_filters=8,
    kernel_widths=(5, 3),
    pool_width=2,
    dense_units=(16,),
    dropout_retain=(0.8,),
    attention_kernel_width=3,
)


@pytest.fixture(scope="module")
def enrolled(tiny_d1):
    """The enrolled-device training samples (beamformee 1, split S1)."""
    train, _ = d1_split(tiny_d1, D1_SPLITS["S1"], beamformee_id=1)
    return train


@pytest.fixture(scope="module")
def classifier(enrolled):
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
    classifier.fit(enrolled)
    return classifier


@pytest.fixture(scope="module")
def test_samples(tiny_d1):
    _, test = d1_split(tiny_d1, D1_SPLITS["S1"], beamformee_id=1)
    return test


@pytest.fixture(scope="module")
def test_codewords(test_samples):
    return [codewords(sample.v_tilde) for sample in test_samples]


@pytest.fixture(scope="module")
def median_policy(classifier, test_codewords):
    """A max-softmax policy whose threshold splits the test frames in half."""
    closed = InferenceEngine(classifier, batch_size=8).drain(test_codewords[:24])
    return OpenSetPolicy(
        threshold=float(np.median([result.confidence for result in closed]))
    )


@pytest.fixture(scope="module")
def sniffed_capture(small_modules):
    """Four frames the observer sniffs from module 0's AP to station 1.

    The capture uses the 80 MHz layout, so the frames match the geometry the
    classifier was trained on.
    """
    access_point = AccessPoint(module=small_modules[0], position=AP_POSITION_A)
    bf_pos, _ = beamformee_positions(3)
    beamformee = make_beamformee(1, bf_pos, num_antennas=2, num_streams=2, seed=5 + 10_000)
    simulator = SoundingSimulator(
        access_point=access_point,
        beamformees=[beamformee],
        channel=MultipathChannel(num_scatterers=8, environment_seed=11),
        layout=sounding_layout(80),
    )
    capture = MonitorCapture()
    simulator.sound_many(4, np.random.default_rng(0), capture=capture)
    assert capture.source_addresses() == [station_mac(1)]
    return capture


def _claim_accepted(result, claimed_module_id):
    return result.accepted and result.predicted_module_id == claimed_module_id


def _assert_same_results(got, want):
    assert len(got) == len(want)
    for got_result, want_result in zip(got, want):
        assert got_result.sequence == want_result.sequence
        assert got_result.source == want_result.source
        assert got_result.predicted_module_id == want_result.predicted_module_id
        assert got_result.confidence == want_result.confidence  # bitwise
        assert got_result.score == want_result.score
        assert got_result.accepted == want_result.accepted


def _assert_same_verdict(got, want):
    assert got.module_id == want.module_id
    assert got.num_votes == want.num_votes
    assert got.num_rejected == want.num_rejected
    assert got.window_size == want.window_size
    assert got.confidence == want.confidence


class TestClaimChecks:
    def test_true_claim_is_accepted_on_most_frames(
        self, classifier, test_samples, test_codewords
    ):
        engine = InferenceEngine(classifier, batch_size=8, open_set=CLAIM_POLICY)
        results = engine.drain(test_codewords[:20])
        accepted = sum(
            _claim_accepted(result, sample.module_id)
            for result, sample in zip(results, test_samples)
        )
        assert accepted > len(results) / 2

    def test_wrong_claim_is_refused_on_most_frames(
        self, classifier, test_samples, test_codewords
    ):
        engine = InferenceEngine(classifier, batch_size=8, open_set=CLAIM_POLICY)
        results = engine.drain(test_codewords[:20])
        refused = sum(
            not _claim_accepted(result, (sample.module_id + 1) % 3)
            for result, sample in zip(results, test_samples)
        )
        assert refused > len(results) / 2

    def test_frame_is_accepted_iff_its_score_clears_the_threshold(
        self, classifier, test_codewords, median_policy
    ):
        closed = InferenceEngine(classifier, batch_size=8).drain(test_codewords[:24])
        engine = InferenceEngine(classifier, batch_size=8, open_set=median_policy)
        results = engine.drain(test_codewords[:24])
        accepted = [result.accepted for result in results]
        assert any(accepted) and not all(accepted)
        for result, closed_result in zip(results, closed):
            assert 0 <= result.predicted_module_id < 3
            # The policy decides; it never changes what the classifier says.
            assert result.predicted_module_id == closed_result.predicted_module_id
            assert result.confidence == closed_result.confidence
            assert result.score == result.confidence  # max-softmax known-ness
            assert result.accepted == (result.score >= median_policy.threshold)
        assert engine.stats.frames_rejected == accepted.count(False)

    @pytest.mark.parametrize(
        "scoring", ["max_softmax", "negative_entropy", "centroid_distance"]
    )
    def test_zero_threshold_accepts_every_frame(
        self, classifier, enrolled, test_codewords, scoring
    ):
        if scoring == "centroid_distance":
            policy = enroll_centroids(classifier, edge_quantised(enrolled))
        else:
            policy = OpenSetPolicy(scoring=scoring)
        policy = replace(policy, threshold=0.0)
        closed = InferenceEngine(classifier, batch_size=8)
        engine = InferenceEngine(classifier, batch_size=8, open_set=policy)
        want = closed.drain(test_codewords[:12], source="sta")
        got = engine.drain(test_codewords[:12], source="sta")
        assert all(result.accepted for result in got)
        assert engine.stats.frames_rejected == 0
        assert [result.predicted_module_id for result in got] == [
            result.predicted_module_id for result in want
        ]
        verdict = engine.verdict("sta")
        assert verdict.module_id == closed.verdict("sta").module_id
        assert verdict.num_rejected == 0

    def test_threshold_above_every_score_rejects_the_source(
        self, classifier, test_codewords
    ):
        """A window of rejected frames never authenticates, however confident
        the classifier's nearest enrolled module is."""
        engine = InferenceEngine(
            classifier, batch_size=8, open_set=OpenSetPolicy(threshold=1.5)
        )
        results = engine.drain(test_codewords[:6], source="sta")
        assert not any(result.accepted for result in results)
        verdict = engine.verdict("sta")
        assert verdict.module_id == UNKNOWN_MODULE_ID
        assert verdict.num_votes == verdict.num_rejected == verdict.window_size == 6
        assert verdict.confidence == pytest.approx(
            np.mean([1.0 - result.score for result in results])
        )
        assert engine.stats.rejection_rate == 1.0

    def test_engine_scores_equal_the_sample_scores(
        self, classifier, enrolled, test_samples, test_codewords
    ):
        """One rule: the engine scores a frame as score_samples scores the
        sample the frame's codewords rebuild."""
        rebuilt_samples = edge_quantised(test_samples[:12])
        for policy in (
            OpenSetPolicy(scoring="max_softmax"),
            OpenSetPolicy(scoring="negative_entropy"),
            enroll_centroids(classifier, edge_quantised(enrolled)),
        ):
            engine = InferenceEngine(classifier, batch_size=8, open_set=policy)
            results = engine.drain(test_codewords[:12])
            np.testing.assert_allclose(
                [result.score for result in results],
                score_samples(classifier, policy, rebuilt_samples),
                rtol=1e-12,
                atol=0.0,
            )


class TestSniffedCaptures:
    def test_capture_verdict_votes_over_the_accepted_frames(
        self, classifier, sniffed_capture
    ):
        engine = InferenceEngine(classifier, batch_size=3, open_set=CLAIM_POLICY)
        results = engine.drain(sniffed_capture.frames)
        assert len(results) == 4
        assert all(result.source == station_mac(1) for result in results)
        verdict = engine.verdict(station_mac(1))
        assert verdict.window_size == 4
        assert verdict.num_rejected == sum(not result.accepted for result in results)
        votes = Counter(
            result.predicted_module_id for result in results if result.accepted
        )
        assert verdict.module_id in votes
        assert verdict.num_votes == max(votes.values())

    def test_empty_capture_yields_no_results_and_no_verdict(self, classifier):
        engine = InferenceEngine(classifier, open_set=CLAIM_POLICY)
        assert engine.drain(MonitorCapture().frames) == []
        assert engine.stats.frames_in == 0
        assert engine.sources == []
        with pytest.raises(EngineError):
            engine.verdict(station_mac(1))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_sharded_capture_matches_single_engine(
        self, classifier, sniffed_capture, median_policy, backend
    ):
        engine = InferenceEngine(classifier, batch_size=3, open_set=median_policy)
        want = engine.drain(sniffed_capture.frames)
        with StreamingService(
            classifier,
            num_workers=2,
            batch_size=3,
            open_set=median_policy,
            backend=backend,
        ) as service:
            got = service.drain(sniffed_capture.frames)
            verdict = service.verdict(station_mac(1))
        _assert_same_results(got, want)
        _assert_same_verdict(verdict, engine.verdict(station_mac(1)))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_sharded_open_set_verdicts_match_single_engine(
        self, classifier, test_codewords, median_policy, backend
    ):
        stream = [
            (station_mac(index % 6), quantized)
            for index, quantized in enumerate(test_codewords[:24])
        ]
        engine = InferenceEngine(
            classifier, batch_size=4, vote_window=4, open_set=median_policy
        )
        want = []
        for source, quantized in stream:
            want.extend(engine.submit(quantized, source=source))
        want.extend(engine.flush())
        want.sort(key=lambda result: result.sequence)
        with StreamingService(
            classifier,
            num_workers=3,
            batch_size=4,
            vote_window=4,
            open_set=median_policy,
            backend=backend,
        ) as service:
            for source, quantized in stream:
                service.submit(quantized, source=source)
            service.flush()
            got = sorted(service.collect(), key=lambda result: result.sequence)
            verdicts = {source: service.verdict(source) for source in service.sources}
        _assert_same_results(got, want)
        assert sorted(verdicts) == engine.sources
        for source, verdict in verdicts.items():
            _assert_same_verdict(verdict, engine.verdict(source))
        assert service.stats.frames_rejected == engine.stats.frames_rejected
