"""Tests for the synthetic enrolled / unseen / spoofed traffic generators."""

import numpy as np
import pytest

from repro.datasets.adversarial import (
    DEFAULT_SHAPE,
    AdversarialError,
    ImpostorScenario,
    impostor_scenario,
    interleaved_traffic,
    spoofed_feedback_samples,
    synthetic_feedback_samples,
    traffic_labels,
)


def _by_module(samples):
    grouped = {}
    for sample in samples:
        grouped.setdefault(sample.module_id, []).append(sample.v_tilde)
    return {module_id: np.stack(arrays) for module_id, arrays in grouped.items()}


def _centres(module_ids, shape=DEFAULT_SHAPE, centres_seed=42):
    """Each module's fingerprint centre: the samples drawn without noise."""
    samples = synthetic_feedback_samples(
        module_ids, num_per_module=1, shape=shape, noise_scale=0.0,
        centres_seed=centres_seed,
    )
    return {sample.module_id: sample.v_tilde for sample in samples}


class TestSyntheticFeedbackSamples:
    def test_counts_shapes_and_labels(self):
        samples = synthetic_feedback_samples([3, 5], num_per_module=4, shape=(6, 3, 2))
        assert len(samples) == 8
        assert all(sample.v_tilde.shape == (6, 3, 2) for sample in samples)
        assert all(np.iscomplexobj(sample.v_tilde) for sample in samples)
        assert sorted(sample.module_id for sample in samples) == [3] * 4 + [5] * 4
        assert {sample.beamformee_id for sample in samples} == {1}

    def test_same_seed_gives_identical_samples(self):
        first = synthetic_feedback_samples([0, 1], num_per_module=5, seed=7)
        second = synthetic_feedback_samples([0, 1], num_per_module=5, seed=7)
        assert [s.module_id for s in first] == [s.module_id for s in second]
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.v_tilde, b.v_tilde)

    def test_zero_noise_samples_sit_on_the_module_centre(self):
        samples = synthetic_feedback_samples([0, 1], num_per_module=3, noise_scale=0.0)
        for stacked in _by_module(samples).values():
            np.testing.assert_array_equal(stacked, np.broadcast_to(stacked[0], stacked.shape))
        centres = _centres([0, 1])
        assert not np.allclose(centres[0], centres[1])

    def test_centres_depend_on_centres_seed_not_on_seed(self):
        """Captures drawn with different seeds share the class structure."""
        centres = _centres([0, 1, 2])
        for seed in (0, 9):
            samples = synthetic_feedback_samples(
                [0, 1, 2], num_per_module=400, noise_scale=0.15, seed=seed
            )
            for module_id, stacked in _by_module(samples).items():
                np.testing.assert_allclose(
                    stacked.mean(axis=0), centres[module_id], atol=0.06
                )
        moved = _centres([0, 1, 2], centres_seed=43)
        assert not np.allclose(moved[0], centres[0])

    def test_noise_power_follows_noise_scale(self):
        """Circular noise of scale s has mean squared magnitude 2 s^2."""
        centre = _centres([4])[4]
        samples = synthetic_feedback_samples([4], num_per_module=500, noise_scale=0.2)
        residual = _by_module(samples)[4] - centre
        assert np.mean(np.abs(residual) ** 2) == pytest.approx(2 * 0.2**2, rel=0.05)

    @pytest.mark.parametrize(
        "module_ids, num_per_module", [([], 5), ([0, 1], 0)]
    )
    def test_invalid_configuration_rejected(self, module_ids, num_per_module):
        with pytest.raises(AdversarialError):
            synthetic_feedback_samples(module_ids, num_per_module=num_per_module)


class TestSpoofedFeedbackSamples:
    def test_samples_claim_the_spoofed_identities(self):
        samples = spoofed_feedback_samples([0, 2], num_per_module=6)
        assert len(samples) == 12
        assert sorted(sample.module_id for sample in samples) == [0] * 6 + [2] * 6
        assert {sample.beamformee_id for sample in samples} == {2}
        assert all(sample.v_tilde.shape == DEFAULT_SHAPE for sample in samples)

    def test_undistorted_spoof_replays_the_enrolled_centre(self):
        samples = spoofed_feedback_samples(
            [0, 1], num_per_module=2, noise_scale=0.0, phase_jitter=0.0
        )
        centres = _centres([0, 1])
        for sample in samples:
            np.testing.assert_allclose(sample.v_tilde, centres[sample.module_id])

    def test_phase_rotation_alone_keeps_every_magnitude(self):
        """The impostor's RF chain rotates each sub-carrier by one phase."""
        samples = spoofed_feedback_samples(
            [1], num_per_module=3, noise_scale=0.0, phase_jitter=0.8
        )
        centre = _centres([1])[1]
        for sample in samples:
            np.testing.assert_allclose(np.abs(sample.v_tilde), np.abs(centre))
            assert not np.allclose(sample.v_tilde, centre)
            ratio = sample.v_tilde / centre
            np.testing.assert_allclose(ratio, np.broadcast_to(ratio[:, :1, :1], ratio.shape))

    def test_spoofs_sit_further_from_the_centre_than_enrolled_traffic(self):
        centres = _centres([0, 1, 2])
        enrolled = synthetic_feedback_samples([0, 1, 2], num_per_module=40)
        spoofed = spoofed_feedback_samples([0, 1, 2], num_per_module=40)

        def mean_distance(samples):
            return np.mean(
                [np.linalg.norm(s.v_tilde - centres[s.module_id]) for s in samples]
            )

        assert mean_distance(spoofed) > 2.0 * mean_distance(enrolled)

    @pytest.mark.parametrize(
        "claimed, num_per_module, phase_jitter",
        [([], 5, 0.8), ([0], 0, 0.8), ([0], 5, -0.1)],
    )
    def test_invalid_configuration_rejected(self, claimed, num_per_module, phase_jitter):
        with pytest.raises(AdversarialError):
            spoofed_feedback_samples(
                claimed, num_per_module=num_per_module, phase_jitter=phase_jitter
            )


class TestImpostorScenario:
    def test_populations_and_module_ids(self):
        scenario = impostor_scenario(num_enrolled=3, num_unseen=2, num_per_module=5)
        assert isinstance(scenario, ImpostorScenario)
        assert scenario.enrolled_ids == (0, 1, 2)
        assert scenario.unseen_ids == (100, 101)
        assert len(scenario.enrolled_train) == len(scenario.enrolled_test) == 15
        assert len(scenario.unseen) == 10
        assert len(scenario.spoofed) == 15
        assert {s.module_id for s in scenario.enrolled_test} == {0, 1, 2}
        assert {s.module_id for s in scenario.unseen} == {100, 101}
        assert {s.module_id for s in scenario.spoofed} == {0, 1, 2}

    def test_impostors_are_unseen_then_spoofed(self):
        scenario = impostor_scenario(num_per_module=4)
        impostors = scenario.impostors
        assert len(impostors) == len(scenario.unseen) + len(scenario.spoofed)
        assert all(a is b for a, b in zip(impostors, scenario.unseen + scenario.spoofed))

    def test_train_and_test_are_distinct_draws_of_the_same_modules(self):
        scenario = impostor_scenario(num_per_module=30)
        train = _by_module(scenario.enrolled_train)
        test = _by_module(scenario.enrolled_test)
        for module_id in scenario.enrolled_ids:
            assert not np.array_equal(train[module_id], test[module_id])
            np.testing.assert_allclose(
                train[module_id].mean(axis=0), test[module_id].mean(axis=0), atol=0.15
            )

    def test_deterministic_in_its_seeds(self):
        first = impostor_scenario(num_per_module=3, seed=4)
        second = impostor_scenario(num_per_module=3, seed=4)
        for a, b in zip(first.impostors, second.impostors):
            assert a.module_id == b.module_id
            np.testing.assert_array_equal(a.v_tilde, b.v_tilde)

    @pytest.mark.parametrize("num_enrolled, num_unseen", [(0, 2), (3, 0)])
    def test_invalid_population_sizes_rejected(self, num_enrolled, num_unseen):
        with pytest.raises(AdversarialError):
            impostor_scenario(num_enrolled=num_enrolled, num_unseen=num_unseen)


class TestInterleavedTraffic:
    @pytest.fixture(scope="class")
    def scenario(self):
        return impostor_scenario(num_enrolled=2, num_unseen=1, num_per_module=6)

    def test_every_sample_appears_once_under_its_population(self, scenario):
        feed = interleaved_traffic(scenario, sources_per_population=3)
        assert len(feed) == len(scenario.enrolled_test) + len(scenario.impostors)
        enrolled_ids = {id(s) for s in scenario.enrolled_test}
        impostor_ids = {id(s) for s in scenario.impostors}
        assert {id(s) for _, s in feed} == enrolled_ids | impostor_ids
        for source, sample in feed:
            population = "enrolled" if id(sample) in enrolled_ids else "impostor"
            assert source.split(":")[0] == population
        assert {source for source, _ in feed} == {
            f"{population}:{index}"
            for population in ("enrolled", "impostor")
            for index in range(3)
        }

    def test_shuffle_is_deterministic_in_its_seed(self, scenario):
        order = [id(s) for _, s in interleaved_traffic(scenario, seed=1)]
        assert order == [id(s) for _, s in interleaved_traffic(scenario, seed=1)]
        assert order != [id(s) for _, s in interleaved_traffic(scenario, seed=2)]

    def test_invalid_source_count_rejected(self, scenario):
        with pytest.raises(AdversarialError):
            interleaved_traffic(scenario, sources_per_population=0)

    def test_traffic_labels_mark_only_enrolled_sources(self, scenario):
        labels = traffic_labels(interleaved_traffic(scenario, sources_per_population=2))
        assert labels == {
            "enrolled:0": True,
            "enrolled:1": True,
            "impostor:0": False,
            "impostor:1": False,
        }
