"""Chaos tests of the always-on service lifecycle.

The zero-downtime swap claim is load-bearing: an always-on authenticator
must pick up new model weights *while* adversarial and enrolled traffic keep
flowing, without dropping a frame, without mixing two versions inside one
frame's classification, and without a failed swap wedging the service.  This
suite attacks that claim on both execution backends:

* swap under sustained load -- every submitted frame comes back, per-source
  verdict versions never decrease, and the new version actually serves;
* determinism -- a same-weights swap must leave every per-frame decision
  bitwise identical to a swap-free run (frames are classified entirely by
  one version, never by a half-installed one);
* the whole classifier swaps -- after the barrier, results are bit-equal to
  an engine that ran the new version alone, also when the new version has
  other normalisation statistics, reads other sub-carriers, or brings its
  own open-set policy;
* failed swaps -- a corrupt version is refused with
  :class:`~repro.core.service.ServiceError` before any shard sees it and the
  service keeps serving (and a killed worker process mid-swap must raise,
  not hang);
* policy hot-swap -- a version that bundles a new open-set policy
  re-calibrates rejection at the same batch boundary as the classifier.

Set ``REPRO_SLOW_TESTS=1`` to also run the sustained multi-swap soak
variants.
"""

import copy
import os
from dataclasses import replace

import numpy as np
import pytest

from repro.core.classifier import ClassifierConfig, DeepCsiClassifier
from repro.core.engine import UNKNOWN_MODULE_ID, InferenceEngine
from repro.core.lifecycle import DriftConfig, ModelVersion
from repro.core.model import DeepCsiModelConfig
from repro.core.openset import (
    OpenSetPolicy,
    calibrate_threshold,
    enroll_centroids,
    score_samples,
)
from repro.core.service import ServiceError, StreamingService, shard_for_source
from repro.datasets.adversarial import impostor_scenario, interleaved_traffic
from repro.datasets.features import FeatureConfig
from repro.nn.training import TrainingConfig
from tests.observations import codewords, edge_quantised, frame

SLOW = os.environ.get("REPRO_SLOW_TESTS", "") not in ("", "0")
BACKENDS = ("threads", "processes")

NUM_ENROLLED = 3


def _train_classifier(samples, seed, subcarriers=None, num_classes=NUM_ENROLLED):
    classifier = DeepCsiClassifier(
        ClassifierConfig(
            num_classes=num_classes,
            feature=FeatureConfig(stream_indices=(0,), subcarrier_positions=subcarriers),
            model=DeepCsiModelConfig(
                num_filters=8,
                kernel_widths=(3,),
                pool_width=2,
                dense_units=(16,),
                dropout_retain=(1.0,),
                use_attention=False,
            ),
            training=TrainingConfig(
                epochs=20,
                batch_size=16,
                validation_split=0.0,
                early_stopping_patience=None,
            ),
            learning_rate=5e-3,
            seed=seed,
        )
    )
    classifier.fit(samples)
    return classifier


def _scenario(seed):
    """The impostor scenario as the service sees it: every ``V~`` is the one
    rebuilt from the codewords a beamformee sends for it, so the classifiers
    train and calibrate on the traffic they serve."""
    raw = impostor_scenario(
        num_enrolled=NUM_ENROLLED, num_unseen=2, num_per_module=20, seed=seed
    )
    populations = ("enrolled_train", "enrolled_test", "unseen", "spoofed")
    return replace(raw, **{name: edge_quantised(getattr(raw, name)) for name in populations})


@pytest.fixture(scope="module")
def scenario():
    return _scenario(seed=0)


@pytest.fixture(scope="module")
def other_draw():
    """The same scenario drawn with another seed: other training data."""
    return _scenario(seed=1)


@pytest.fixture(scope="module")
def classifier_v0(scenario):
    return _train_classifier(scenario.enrolled_train, seed=0)


@pytest.fixture(scope="module")
def classifier_v1(scenario):
    """Same architecture, genuinely different weights (different init)."""
    return _train_classifier(scenario.enrolled_train, seed=1)


@pytest.fixture(scope="module")
def classifier_other_draw(other_draw):
    """Same architecture, trained on another draw: other normalisation."""
    return _train_classifier(other_draw.enrolled_train, seed=1)


@pytest.fixture(scope="module")
def four_class_classifier(scenario):
    """Same inputs, one class more: four logits where v0 has three."""
    return _train_classifier(scenario.enrolled_train, seed=0, num_classes=4)


@pytest.fixture(scope="module")
def even_and_odd(scenario):
    """Two classifiers with the same layer shapes that read the even and the
    odd sub-carriers of the K = 12 scenario."""
    even, odd = (
        _train_classifier(
            scenario.enrolled_train, seed=seed, subcarriers=tuple(range(seed, 12, 2))
        )
        for seed in (0, 1)
    )
    assert [p.shape for _, p, _ in even.model.parameters()] == [
        p.shape for _, p, _ in odd.model.parameters()
    ]
    return even, odd


@pytest.fixture(scope="module")
def feed(scenario):
    """The interleaved scenario traffic as ``(source, codewords)`` pairs."""
    return [
        (source, codewords(sample.v_tilde))
        for source, sample in interleaved_traffic(
            scenario, sources_per_population=2, seed=0
        )
    ]


def _serve_with_swaps(classifier, feed, backend, swaps=(), **service_kwargs):
    """Run the feed through a 2-worker service, swapping at given frame counts.

    ``swaps`` is a list of ``(frame_index, replacement)`` pairs; each swap
    fires right after that many frames have been submitted.  A
    ``swap_open_set`` keyword is forwarded to every swap as its bundled
    open-set policy.  Returns the results (submission order), the closed
    service (its stats, model version and drift snapshot stay readable) and
    the per-source verdicts.
    """
    swap_open_set = service_kwargs.pop("swap_open_set", None)
    pending = sorted(swaps, key=lambda entry: entry[0])
    results = []
    with StreamingService(
        classifier,
        num_workers=2,
        batch_size=8,
        backend=backend,
        **service_kwargs,
    ) as service:
        for submitted, (source, observation) in enumerate(feed, start=1):
            service.submit(observation, source=source)
            results.extend(service.collect())
            while pending and pending[0][0] == submitted:
                service.swap_model(pending.pop(0)[1], open_set=swap_open_set)
        service.flush()
        results.extend(service.collect())
        verdicts = {source: service.verdict(source) for source in service.sources}
    results.sort(key=lambda result: result.sequence)
    return results, service, verdicts


class TestSwapUnderLoad:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_no_dropped_frames_and_monotonic_versions(
        self, classifier_v0, classifier_v1, feed, backend
    ):
        swap_at = len(feed) // 2
        results, service, verdicts = _serve_with_swaps(
            classifier_v0, feed, backend, swaps=[(swap_at, classifier_v1)]
        )
        # Zero drops: every submitted frame produced exactly one result.
        assert [result.sequence for result in results] == list(range(len(feed)))
        assert service.stats.frames_out == len(feed)
        assert service.model_version == 1
        # The swap actually took: both versions served frames.
        versions = [result.model_version for result in results]
        assert 0 in versions and 1 in versions
        # Per-source verdict versions never decrease in submission order.
        by_source = {}
        for result in results:
            by_source.setdefault(result.source, []).append(result.model_version)
        for source, stamped in by_source.items():
            assert stamped == sorted(stamped), source
        assert all(verdict.model_version == 1 for verdict in verdicts.values())

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_same_weights_swap_is_bitwise_invisible(
        self, classifier_v0, feed, backend
    ):
        """Every frame is classified entirely by one version: a swap to
        identical weights must not perturb a single bit of any decision, on
        codeword and on frame traffic.

        The swap's barrier flush cuts the micro-batches differently from the
        swap-free run, so this parity needs the fp64 forward to give a frame
        the same bits in any batch (pinned in ``tests/test_core_model.py``).
        """
        frames = [(source, frame(quantized, source)) for source, quantized in feed]
        for traffic in (feed, frames):
            baseline, _, _ = _serve_with_swaps(classifier_v0, traffic, backend)
            swapped, service, _ = _serve_with_swaps(
                classifier_v0, traffic, backend, swaps=[(len(traffic) // 3, classifier_v0)]
            )
            assert service.model_version == 1
            assert len(baseline) == len(swapped) == len(traffic)
            for before, after in zip(baseline, swapped):
                assert before.sequence == after.sequence
                assert before.source == after.source
                assert before.predicted_module_id == after.predicted_module_id
                # Bitwise float equality, not approx: same version, same bits.
                assert before.confidence == after.confidence

    @pytest.mark.skipif(not SLOW, reason="soak variant; set REPRO_SLOW_TESTS=1")
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_sustained_load_with_repeated_swaps(
        self, classifier_v0, classifier_v1, feed, backend
    ):
        stream = feed * 4
        replacements = [classifier_v1, classifier_v0, classifier_v1, classifier_v0]
        step = len(stream) // (len(replacements) + 1)
        swaps = [
            (step * (index + 1), replacement)
            for index, replacement in enumerate(replacements)
        ]
        results, service, _ = _serve_with_swaps(
            classifier_v0, stream, backend, swaps=swaps
        )
        assert [result.sequence for result in results] == list(range(len(stream)))
        assert service.model_version == len(replacements)
        by_source = {}
        for result in results:
            by_source.setdefault(result.source, []).append(result.model_version)
        for stamped in by_source.values():
            assert stamped == sorted(stamped)


def _alone(classifier, feed, open_set=None):
    """Results of an engine that ran ``classifier`` alone over ``feed``."""
    engine = InferenceEngine(classifier, batch_size=8, open_set=open_set)
    results = []
    for source, observation in feed:
        results.extend(engine.submit(observation, source=source))
    return results + engine.flush()


def _assert_swapped_results_bit_equal(results, expected):
    """Every result of version 1 is bit-equal to the v1-only engine's."""
    swapped = [result for result in results if result.model_version == 1]
    assert swapped
    for result in swapped:
        reference = expected[result.sequence]
        assert (
            result.predicted_module_id,
            result.confidence,
            result.score,
            result.accepted,
        ) == (
            reference.predicted_module_id,
            reference.confidence,
            reference.score,
            reference.accepted,
        )


class TestWholeClassifierSwap:
    """A swap installs the whole classifier, not only its weights."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_other_normalisation_serves_like_a_v1_only_engine(
        self, classifier_v0, classifier_other_draw, feed, backend
    ):
        v1 = classifier_other_draw
        assert not np.array_equal(v1._normalization[0], classifier_v0._normalization[0])
        results, service, _ = _serve_with_swaps(
            classifier_v0, feed, backend, swaps=[(len(feed) // 2, v1)]
        )
        assert service.model_version == 1
        _assert_swapped_results_bit_equal(results, _alone(v1, feed))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_other_subcarriers_serve_like_a_v1_only_engine(
        self, even_and_odd, feed, backend
    ):
        """Same layer shapes, other sub-carrier positions: the new feature
        selection comes with the swap instead of feeding v1 v0's inputs."""
        even, odd = even_and_odd
        results, _, _ = _serve_with_swaps(even, feed, backend, swaps=[(len(feed) // 2, odd)])
        _assert_swapped_results_bit_equal(results, _alone(odd, feed))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_centroid_policy_swaps_with_the_classifier(
        self, scenario, other_draw, classifier_v0, classifier_other_draw, feed, backend
    ):
        """A centroid_distance service swapped to v1 with v1's enrolled policy
        scores every later frame against v1's centroids, not v0's."""

        def enrolled_policy(classifier, samples):
            policy = enroll_centroids(classifier, samples)
            scores = score_samples(classifier, policy, samples)
            return replace(
                policy, threshold=calibrate_threshold(scores, target_false_reject_rate=0.05)
            )

        v1_policy = enrolled_policy(classifier_other_draw, other_draw.enrolled_train)
        results, _, _ = _serve_with_swaps(
            classifier_v0,
            feed,
            backend,
            swaps=[(len(feed) // 2, classifier_other_draw)],
            open_set=enrolled_policy(classifier_v0, scenario.enrolled_train),
            swap_open_set=v1_policy,
        )
        _assert_swapped_results_bit_equal(
            results, _alone(classifier_other_draw, feed, open_set=v1_policy)
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_swap_installs_the_new_version_compute(self, classifier_v0, feed, backend):
        """A service built with fp32 and swapped to an fp64 classifier serves
        like an fp32 engine before the swap and like an fp64 one after it,
        bit for bit, on every shard."""
        fp32 = copy.deepcopy(classifier_v0)
        fp32.set_compute("fp32")
        before, after = feed[:16], feed[16:32]
        with StreamingService(
            copy.deepcopy(classifier_v0),
            num_workers=2,
            batch_size=8,
            backend=backend,
            compute="fp32",
        ) as service:
            for source, observation in before:
                service.submit(observation, source=source)
            service.swap_model(classifier_v0)
            for source, observation in after:
                service.submit(observation, source=source)
            service.flush()
            results = sorted(service.collect(), key=lambda result: result.sequence)
        # The feed reaches both shards.
        assert len({shard_for_source(source, 2) for source, _ in feed[:32]}) == 2

        def outputs(served):
            return [(r.predicted_module_id, r.confidence, r.score) for r in served]

        assert outputs(results[:16]) == outputs(_alone(fp32, before))
        assert outputs(results[16:]) == outputs(_alone(classifier_v0, after))
        assert outputs(results[:16]) != outputs(_alone(classifier_v0, before))


class TestSwapFailures:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_corrupt_version_is_refused_and_the_service_keeps_serving(
        self, classifier_v0, feed, backend
    ):
        """A version that does not decode must fail the swap loudly on every
        backend before any shard sees it -- never hang, never half-install --
        and the service keeps serving the old model."""
        good = ModelVersion.from_classifier(classifier_v0, version=1)
        corrupt = (
            ModelVersion(version=1, blob=good.blob[: len(good.blob) // 2]),
            ModelVersion(version=1, blob=classifier_v0.to_bytes(version=2)),
        )
        with StreamingService(
            classifier_v0, num_workers=2, batch_size=8, backend=backend
        ) as service:
            for source, observation in feed[:8]:
                service.submit(observation, source=source)
            for version in corrupt:
                with pytest.raises(ServiceError, match="model swap failed"):
                    service.swap_model(version)
            for source, observation in feed[8:16]:
                service.submit(observation, source=source)
            service.flush()
            results = service.collect()
            assert service.model_version == 0
        assert sorted(result.sequence for result in results) == list(range(16))
        assert all(result.model_version == 0 for result in results)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_version_whose_policy_cannot_score_it_is_refused(
        self, classifier_v0, feed, backend
    ):
        """A version bundling centroids without one column per logit is
        refused before any shard sees it; the service keeps serving v0."""
        bad = ModelVersion.from_classifier(
            classifier_v0,
            version=1,
            open_set=OpenSetPolicy(scoring="centroid_distance", centroids=np.zeros((3, 5))),
        )
        with StreamingService(
            classifier_v0,
            num_workers=1,
            batch_size=8,
            backend=backend,
            open_set=OpenSetPolicy(threshold=0.5),
        ) as service:
            for source, observation in feed[:8]:
                service.submit(observation, source=source)
            with pytest.raises(ServiceError, match="one column per logit"):
                service.swap_model(bad)
            for source, observation in feed[8:16]:
                service.submit(observation, source=source)
            service.flush()
            results = service.collect()
            assert service.model_version == 0
        assert sorted(result.sequence for result in results) == list(range(16))
        assert all(result.model_version == 0 for result in results)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_classifier_the_current_policy_cannot_score_is_refused(
        self, scenario, classifier_v0, four_class_classifier, feed, backend
    ):
        """A swap without a policy keeps the shards' current one, so a
        four-class classifier is refused under a three-class centroid policy,
        and accepted together with a policy enrolled for it."""
        with StreamingService(
            classifier_v0,
            num_workers=1,
            batch_size=8,
            backend=backend,
            open_set=enroll_centroids(classifier_v0, scenario.enrolled_train),
        ) as service:
            service.drain([observation for _, observation in feed[:8]])
            with pytest.raises(ServiceError, match="one column per logit"):
                service.swap_model(four_class_classifier)
            assert service.model_version == 0
            assert len(service.drain([observation for _, observation in feed[8:16]])) == 8
            policy = enroll_centroids(four_class_classifier, scenario.enrolled_train)
            assert service.swap_model(four_class_classifier, open_set=policy) == 1
            results = service.drain([observation for _, observation in feed[16:24]])
        assert [result.model_version for result in results] == [1] * 8

        def decisions(batch):
            return [(r.predicted_module_id, r.confidence, r.score, r.accepted) for r in batch]

        assert decisions(results) == decisions(
            _alone(four_class_classifier, feed[16:24], open_set=policy)
        )

    def test_version_with_its_own_policy_refuses_a_second_one(self, classifier_v0):
        version = ModelVersion.from_classifier(classifier_v0, version=1)
        with StreamingService(classifier_v0, num_workers=1, batch_size=8) as service:
            with pytest.raises(ServiceError, match="carries its own open-set policy"):
                service.swap_model(version, open_set=OpenSetPolicy(threshold=0.9))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_non_monotonic_version_rejected(self, classifier_v0, feed, backend):
        stale = ModelVersion.from_classifier(classifier_v0, version=5)
        with StreamingService(
            classifier_v0, num_workers=2, batch_size=8, backend=backend
        ) as service:
            with pytest.raises(ServiceError, match="must be 1"):
                service.swap_model(stale)
            # The failed precondition leaves the service fully usable.
            results = service.drain([observation for _, observation in feed[:8]])
            assert len(results) == 8
            assert service.model_version == 0

    def test_killed_worker_during_swap_raises_not_hangs(
        self, classifier_v0, classifier_v1, feed
    ):
        with StreamingService(
            classifier_v0, num_workers=2, batch_size=8, backend="processes"
        ) as service:
            for source, observation in feed[:8]:
                service.submit(observation, source=source)
            service.flush()
            service.collect()
            for shard in service._backend.shards:
                shard.process.kill()
            with pytest.raises(ServiceError, match="model swap failed"):
                service.swap_model(classifier_v1)


class TestThresholdHotSwap:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_swapped_threshold_applies_at_the_swap_boundary(
        self, scenario, classifier_v0, feed, backend
    ):
        """A version bundling a policy with threshold > 1 must reject every
        max-softmax score after the swap -- proving the policy swaps with the
        classifier."""
        policy = OpenSetPolicy(scoring="max_softmax")
        threshold = calibrate_threshold(
            score_samples(classifier_v0, policy, scenario.enrolled_train),
            target_false_reject_rate=0.05,
        )
        swap_at = len(feed) // 2
        results, service, verdicts = _serve_with_swaps(
            classifier_v0,
            feed,
            backend,
            swaps=[(swap_at, classifier_v0)],
            open_set=replace(policy, threshold=threshold),
            drift=DriftConfig(),
            swap_open_set=OpenSetPolicy(scoring="max_softmax", threshold=1.5),
        )
        assert service.model_version == 1
        # The calibrated threshold accepts traffic before the swap, so the
        # rejections after it are the bundled threshold's doing.
        assert any(r.accepted for r in results if r.model_version == 0)
        new_version = [r for r in results if r.model_version == 1]
        assert new_version
        assert all(not result.accepted for result in new_version)
        # Every source ends the run in a rejection streak, so the windowed
        # verdicts collapse to UNKNOWN.
        assert all(
            verdict.module_id == UNKNOWN_MODULE_ID for verdict in verdicts.values()
        )
        assert service.stats.frames_rejected >= len(new_version)
        # The drift monitor tracks every source's score trajectory.
        drift = service.drift_snapshot()
        assert [status.source for status in drift] == sorted(verdicts)
