"""Tests for the fp32 inference compute backend."""

import copy
import json
import pickle

import numpy as np
import pytest

from repro.core.classifier import ClassifierConfig, ClassifierError, DeepCsiClassifier
from repro.core.engine import InferenceEngine
from repro.core.lifecycle import ModelVersion
from repro.core.model import DeepCsiModelConfig, build_deepcsi_model
from repro.core.service import StreamingService
from repro.datasets.features import FeatureConfig, strided_subcarriers
from repro.datasets.splits import D1_SPLITS, d1_split
from repro.feedback.givens import compress_v_matrix
from repro.feedback.quantization import QuantizationConfig, quantize_angles
from repro.nn.attention import SpatialAttention
from repro.nn.compute import (
    COMPUTE_NAMES,
    ArenaPool,
    ComputeError,
    Fp32ArenaBackend,
    fused_selu,
)
from repro.nn.layers import SELU_ALPHA, SELU_SCALE, Conv2D, Dense, MaxPool2D, Selu, Softmax
from repro.nn.training import TrainingConfig
from tests.observations import codewords

TINY_MODEL = DeepCsiModelConfig(
    num_filters=8,
    kernel_widths=(5, 3),
    pool_width=2,
    dense_units=(16,),
    dropout_retain=(0.8,),
    attention_kernel_width=3,
)

#: The error every entry point raises for a name other than None / "fp32".
ACCEPTED_NAMES = r"expected None or one of \('fp32',\)"


@pytest.fixture()
def model_and_input():
    rng = np.random.default_rng(7)
    model = build_deepcsi_model((4, 1, 48), 5, config=TINY_MODEL, rng=rng)
    x = rng.standard_normal((12, 4, 1, 48))
    return model, x


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
def split_samples(tiny_d1):
    return d1_split(tiny_d1, D1_SPLITS["S1"], beamformee_id=1)


class TestRegistry:
    """The names ``set_compute`` accepts: ``None`` (fp64) and ``"fp32"``."""

    def test_unknown_backend_rejected(self, model_and_input):
        model, _ = model_and_input
        assert COMPUTE_NAMES == ("fp32",)
        with pytest.raises(ComputeError, match=ACCEPTED_NAMES):
            model.set_compute("fp16")
        assert model.compute is None


class TestRemovedComputeNames:
    """``exact`` and ``int8`` are gone: every entry point refuses them."""

    @pytest.mark.parametrize("name", ["exact", "int8"])
    def test_set_compute_refuses_removed_names(
        self, name, model_and_input, trained_classifier
    ):
        model, _ = model_and_input
        for target in (model, copy.deepcopy(trained_classifier)):
            with pytest.raises(ComputeError, match=ACCEPTED_NAMES):
                target.set_compute(name)
            # The failed attach must not leave a half-configured backend.
            assert target.compute is None

    def test_backend_instances_are_refused(self, model_and_input):
        model, _ = model_and_input
        with pytest.raises(ComputeError, match=ACCEPTED_NAMES):
            model.set_compute(Fp32ArenaBackend())

    def test_engine_and_service_refuse_removed_names(self, trained_classifier):
        with pytest.raises(ComputeError, match=ACCEPTED_NAMES):
            InferenceEngine(copy.deepcopy(trained_classifier), compute="int8")
        with pytest.raises(ComputeError, match=ACCEPTED_NAMES):
            StreamingService(
                copy.deepcopy(trained_classifier), num_workers=1, compute="exact"
            )


class TestArenaPool:
    def test_grow_only_reuse(self):
        pool = ArenaPool()
        first = pool.get(("k",), (8, 4), dtype=np.float32)
        assert pool.allocations == 1
        again = pool.get(("k",), (8, 4), dtype=np.float32)
        assert again.base is first.base or again is first
        assert pool.allocations == 1
        smaller = pool.get(("k",), (3, 4), dtype=np.float32)
        assert smaller.shape == (3, 4)
        assert pool.allocations == 1
        bigger = pool.get(("k",), (16, 4), dtype=np.float32)
        assert bigger.shape == (16, 4)
        assert pool.allocations == 2

    def test_distinct_keys_and_dtypes_get_distinct_buffers(self):
        pool = ArenaPool()
        pool.get(("a",), (4, 4), dtype=np.float32)
        pool.get(("b",), (4, 4), dtype=np.float32)
        a64 = pool.get(("a",), (4, 4), dtype=np.float64)
        assert pool.allocations == 3
        assert a64.dtype == np.float64
        # No silent default precision: the dtype must be named.
        with pytest.raises(TypeError):
            pool.get(("c",), (4, 4))

    def test_zero_initialised_buffers(self):
        pool = ArenaPool()
        buffer = pool.get(("pad",), (2, 3), dtype=np.float64, zero=True)
        assert buffer.dtype == np.float64
        assert np.all(buffer == 0.0)


class TestFusedSelu:
    def test_matches_reference_formula(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((64,)).astype(np.float32) * 4.0
        out = np.empty_like(x)
        scratch = np.empty_like(x)
        fused_selu(x, out, scratch)
        reference = SELU_SCALE * np.where(
            x > 0, x, SELU_ALPHA * (np.exp(x.astype(np.float64)) - 1.0)
        )
        np.testing.assert_allclose(out, reference, rtol=1e-6, atol=1e-6)
        # In float64 the fused kernel is the fp64 Selu layer's forward, so it
        # must reproduce the where-formula byte for byte.
        x64 = rng.standard_normal((64,)) * 4.0
        out64 = fused_selu(x64, np.empty_like(x64), np.empty_like(x64))
        reference64 = SELU_SCALE * np.where(
            x64 > 0, x64, SELU_ALPHA * (np.exp(x64) - 1.0)
        )
        assert out64.tobytes() == reference64.tobytes()


class TestFp32Backend:
    def test_logits_close_and_argmax_equal(self, model_and_input):
        model, x = model_and_input
        reference = model.forward(x, training=False)
        model.set_compute("fp32")
        logits = model.forward(x, training=False)
        assert logits.dtype == np.float32
        np.testing.assert_allclose(logits, reference, rtol=1e-4, atol=1e-4)
        assert np.array_equal(logits.argmax(axis=1), reference.argmax(axis=1))

    def test_steady_state_does_not_allocate(self, model_and_input):
        model, x = model_and_input
        backend = model.set_compute("fp32")
        model.forward(x, training=False)
        warm = backend.arena_allocations
        model.forward(x, training=False)
        model.forward(x, training=False)
        assert backend.arena_allocations == warm

    def test_smaller_batch_reuses_larger_arena(self, model_and_input):
        model, x = model_and_input
        backend = model.set_compute("fp32")
        reference_small = model.forward(x[:5], training=False)
        model.forward(x, training=False)  # grow to the full batch
        warm = backend.arena_allocations
        small = model.forward(x[:5], training=False)
        assert backend.arena_allocations == warm
        np.testing.assert_allclose(small, reference_small, rtol=1e-6, atol=1e-6)

    def test_larger_batch_regrows_arena(self, model_and_input):
        model, x = model_and_input
        backend = model.set_compute("fp32")
        model.forward(x, training=False)
        warm = backend.arena_allocations
        doubled = np.concatenate([x, x], axis=0)
        out = model.forward(doubled, training=False)
        assert backend.arena_allocations > warm
        reference = model_without_compute_forward(model, doubled)
        np.testing.assert_allclose(out, reference, rtol=1e-4, atol=1e-4)

    def test_outputs_do_not_alias_the_arena(self, model_and_input):
        model, x = model_and_input
        model.set_compute("fp32")
        first = model.forward(x, training=False)
        snapshot = np.array(first, copy=True)
        model.forward(x[::-1], training=False)
        # A second forward must not clobber the first result in place.
        np.testing.assert_array_equal(first, snapshot)

    def test_training_forward_bypasses_the_backend(self, model_and_input):
        model, x = model_and_input
        model.set_compute("fp32")
        out = model.forward(x, training=True)
        assert out.dtype == np.float64

    def test_backend_survives_pickle_and_deepcopy(self, model_and_input):
        model, x = model_and_input
        model.set_compute("fp32")
        reference = model.forward(x, training=False)
        for clone in (copy.deepcopy(model), pickle.loads(pickle.dumps(model))):
            assert clone.compute.name == "fp32"
            np.testing.assert_array_equal(
                clone.forward(x, training=False), reference
            )

    def test_set_weights_reprepares_the_backend(self, model_and_input):
        model, x = model_and_input
        backend = model.set_compute("fp32")
        before = model.forward(x, training=False)
        model.set_weights([2.0 * weight for weight in model.get_weights()])
        assert model.compute is backend
        after = model.forward(x, training=False)
        assert not np.array_equal(after, before)
        np.testing.assert_allclose(
            after, model_without_compute_forward(model, x), rtol=1e-4, atol=1e-4
        )

    def test_detaching_restores_the_bitwise_fp64_path(self, model_and_input):
        model, x = model_and_input
        reference = model.forward(x, training=False)
        model.set_compute("fp32")
        model.forward(x, training=False)
        assert model.set_compute(None) is None
        detached = model.forward(x, training=False)
        assert detached.dtype == np.float64
        assert detached.tobytes() == reference.tobytes()


def model_without_compute_forward(model, x):
    """fp64 reference forward regardless of the attached backend."""
    out = x
    for layer in model.layers:
        out = layer.forward(out, training=False)
    return out


class TestInferenceCachesDropped:
    """Regression: forwards at training=False must retain no cached arrays."""

    CACHE_ATTRS = ("_input", "_padded_input", "_windows", "_out", "_output", "_cache")

    def _assert_no_caches(self, layer):
        for attr in self.CACHE_ATTRS:
            assert getattr(layer, attr, None) is None, (layer, attr)
        if isinstance(layer, SpatialAttention):
            self._assert_no_caches(layer.conv)

    def test_individual_layers(self):
        rng = np.random.default_rng(0)
        cases = [
            (Dense(6, 3, rng=rng), rng.standard_normal((4, 6))),
            (
                Conv2D(2, 3, (1, 3), rng=rng),
                rng.standard_normal((4, 2, 1, 8)),
            ),
            (MaxPool2D((1, 2)), rng.standard_normal((4, 2, 1, 8))),
            (Selu(), rng.standard_normal((4, 6))),
            (Softmax(), rng.standard_normal((4, 6))),
            (SpatialAttention((1, 3), rng=rng), rng.standard_normal((4, 2, 1, 8))),
        ]
        for layer, x in cases:
            layer.forward(x, training=False)
            self._assert_no_caches(layer)

    def test_training_forward_still_retains_caches(self):
        rng = np.random.default_rng(0)
        layer = Dense(6, 3, rng=rng)
        layer.forward(rng.standard_normal((4, 6)), training=True)
        assert layer._input is not None

    def test_whole_model_after_predict(self, model_and_input):
        model, x = model_and_input
        model.predict(x)
        for layer in model.layers:
            self._assert_no_caches(layer)


class TestProfiling:
    def test_disabled_by_default(self, model_and_input):
        model, x = model_and_input
        model.forward(x, training=False)
        assert all(entry.calls == 0 for entry in model.profile())

    def test_accumulates_per_layer_counters(self, model_and_input):
        model, x = model_and_input
        model.enable_profiling()
        model.forward(x, training=False)
        model.forward(x, training=False)
        profile = model.profile()
        assert len(profile) == len(model.layers)
        assert all(entry.calls == 2 for entry in profile)
        assert all(entry.total_ns > 0 for entry in profile)
        assert profile[0].mean_ms > 0.0
        model.disable_profiling()
        model.forward(x, training=False)
        assert all(entry.calls == 2 for entry in model.profile())

    def test_reset_zeroes_counters(self, model_and_input):
        model, x = model_and_input
        model.enable_profiling()
        model.forward(x, training=False)
        model.reset_profile()
        assert all(entry.calls == 0 for entry in model.profile())

    def test_profiles_compute_backend_forwards(self, model_and_input):
        model, x = model_and_input
        model.set_compute("fp32")
        model.enable_profiling()
        out = model.forward(x, training=False)
        assert out.dtype == np.float32
        assert all(entry.calls == 1 for entry in model.profile())


class TestClassifierCompute:
    def test_default_is_fp64(self, trained_classifier):
        assert trained_classifier.compute is None
        assert trained_classifier.compute_name == "fp64"

    def test_same_name_is_a_noop(self, trained_classifier):
        classifier = copy.deepcopy(trained_classifier)
        backend = classifier.set_compute("fp32")
        assert classifier.set_compute("fp32") is backend

    def test_save_load_roundtrip_restores_backend(
        self, trained_classifier, split_samples, tmp_path
    ):
        _, test = split_samples
        classifier = copy.deepcopy(trained_classifier)
        classifier.set_compute("fp32")
        reference = classifier.predict_logits(test)
        classifier.save(tmp_path / "model")

        restored = DeepCsiClassifier(classifier.config).load(tmp_path / "model")
        assert restored.compute_name == "fp32"
        np.testing.assert_array_equal(restored.predict_logits(test), reference)

    def test_fp64_save_load_roundtrip_stays_fp64(
        self, trained_classifier, split_samples, tmp_path
    ):
        _, test = split_samples
        directory = trained_classifier.save(tmp_path / "model")
        metadata = json.loads((directory / "metadata.json").read_text())
        assert metadata["compute"] == "fp64"
        restored = DeepCsiClassifier(trained_classifier.config).load(directory)
        assert restored.compute is None
        np.testing.assert_array_equal(
            restored.predict_logits(test), trained_classifier.predict_logits(test)
        )

    def test_model_version_carries_the_compute_name(self, trained_classifier):
        source = copy.deepcopy(trained_classifier)
        source.set_compute("fp32")
        blob = ModelVersion.from_classifier(source, version=1).to_bytes()
        version = ModelVersion.from_bytes(blob, expected_version=1)
        assert version.compute == "fp32"
        target = copy.deepcopy(trained_classifier)
        version.apply(target)
        assert target.compute_name == "fp32"
        ModelVersion.from_classifier(trained_classifier, version=2).apply(target)
        assert target.compute is None

    def test_load_refuses_a_removed_compute_backend(
        self, trained_classifier, tmp_path
    ):
        # What an int8 save used to write: the backend name in the metadata.
        directory = copy.deepcopy(trained_classifier).save(tmp_path / "model")
        metadata = json.loads((directory / "metadata.json").read_text())
        metadata["compute"] = "int8"
        (directory / "metadata.json").write_text(json.dumps(metadata))
        with pytest.raises(ClassifierError, match="'int8'"):
            DeepCsiClassifier(trained_classifier.config).load(directory)


def _drain_engine(classifier, samples, **kwargs):
    engine = InferenceEngine(classifier, batch_size=8, **kwargs)
    results = []
    for sample in samples:
        results.extend(
            engine.submit(codewords(sample.v_tilde), source=f"module-{sample.module_id:02d}")
        )
    results.extend(engine.flush())
    return engine, [(r.predicted_module_id, r.confidence) for r in results]


def _drain_service(classifier, samples, backend, compute=None):
    with StreamingService(
        classifier,
        num_workers=2,
        batch_size=8,
        backend=backend,
        compute=compute,
    ) as service:
        for sample in samples:
            service.submit(codewords(sample.v_tilde), source=f"module-{sample.module_id:02d}")
        service.flush()
        results = service.collect()
        stats = service.stats
    results.sort(key=lambda result: result.sequence)
    return stats, [(r.predicted_module_id, r.confidence) for r in results]


class TestEngineAndServiceCompute:
    def test_engine_stats_carry_compute_name(self, trained_classifier, split_samples):
        _, test = split_samples
        classifier = copy.deepcopy(trained_classifier)
        engine, _ = _drain_engine(classifier, test[:16], compute="fp32")
        assert engine.stats.compute == "fp32"

    def test_engine_profile_surfaces_in_stats(self, trained_classifier, split_samples):
        _, test = split_samples
        classifier = copy.deepcopy(trained_classifier)
        engine, _ = _drain_engine(classifier, test[:16], profile=True)
        profile = engine.stats.layer_profile
        assert profile and all(entry.calls > 0 for entry in profile)

    def test_unprofiled_engine_stats_have_empty_profile(
        self, trained_classifier, split_samples
    ):
        _, test = split_samples
        classifier = copy.deepcopy(trained_classifier)
        engine, _ = _drain_engine(classifier, test[:16])
        assert engine.stats.layer_profile == ()

    def test_fp32_service_on_threads(self, trained_classifier, split_samples):
        _, test = split_samples
        samples = test[:24]
        _, reference = _drain_engine(
            copy.deepcopy(trained_classifier), samples, compute="fp32"
        )
        stats, results = _drain_service(
            copy.deepcopy(trained_classifier), samples, "threads", compute="fp32"
        )
        assert stats.compute == "fp32"
        assert results == reference

    def test_fp32_backend_travels_to_process_shards(
        self, trained_classifier, split_samples
    ):
        _, test = split_samples
        samples = test[:24]
        classifier = copy.deepcopy(trained_classifier)
        classifier.set_compute("fp32")
        _, reference = _drain_engine(copy.deepcopy(classifier), samples)
        stats, results = _drain_service(classifier, samples, "processes")
        assert stats.compute == "fp32"
        assert results == reference

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_worker_stats_report_compute_and_precision(
        self, trained_classifier, split_samples, backend
    ):
        _, test = split_samples
        with StreamingService(
            copy.deepcopy(trained_classifier),
            num_workers=2,
            batch_size=8,
            backend=backend,
            compute="fp32",
            precision="fast",
        ) as service:
            before = service.stats.worker_stats
            for sample in test[:16]:
                service.submit(
                    codewords(sample.v_tilde), source=f"module-{sample.module_id:02d}"
                )
            service.flush()
            after = service.stats.worker_stats
        assert after[0].frames_out + after[1].frames_out == 16
        for stats in before + after:
            assert (stats.compute, stats.precision) == ("fp32", "fast")

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_fp32_survives_a_hot_swap(
        self, trained_classifier, split_samples, backend
    ):
        _, test = split_samples
        config = QuantizationConfig()
        stream = [
            (
                f"module-{sample.module_id:02d}",
                quantize_angles(compress_v_matrix(sample.v_tilde), config),
            )
            for sample in test[:24]
        ]
        classifier = copy.deepcopy(trained_classifier)
        with StreamingService(
            classifier,
            num_workers=2,
            batch_size=8,
            backend=backend,
            compute="fp32",
            precision="fast",
        ) as service:
            for source, observation in stream[:12]:
                service.submit(observation, source=source)
            assert service.swap_model(classifier) == 1
            for source, observation in stream[12:]:
                service.submit(observation, source=source)
            service.flush()
            results = sorted(service.collect(), key=lambda result: result.sequence)
            worker_stats = service.stats.worker_stats
        assert [result.model_version for result in results[12:]] == [1] * 12
        assert [stats.compute for stats in worker_stats] == ["fp32", "fp32"]

        engine = InferenceEngine(
            copy.deepcopy(trained_classifier),
            batch_size=8,
            compute="fp32",
            precision="fast",
        )
        expected = []
        for source, observation in stream:
            expected.extend(engine.submit(observation, source=source))
        expected.extend(engine.flush())
        assert [
            (result.predicted_module_id, result.confidence, result.score)
            for result in results
        ] == [
            (result.predicted_module_id, result.confidence, result.score)
            for result in expected
        ]
