"""Tests for the inference forward, in float64 and float32."""

import copy
import gc
import io
import json
import pickle
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.arena import ArenaPool
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
from repro.nn.compute import COMPUTE_NAMES, GEMM_SAMPLES, ArenaForward, ComputeError
from repro.nn.layers import (
    SELU_ALPHA,
    SELU_SCALE,
    Conv2D,
    Dense,
    MaxPool2D,
    Selu,
    Softmax,
    fused_selu,
)
from repro.nn.model import Sequential
from repro.nn.optimizers import Adam
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

#: The Selu and MaxPool2D entries of the tiny model's two conv blocks: each
#: block runs as one step timed under its conv, so these record no calls.
TINY_BLOCK_ENTRIES = (1, 2, 4, 5)

#: The error every entry point raises for a name other than None / "fp32".
ACCEPTED_NAMES = r"expected None or one of \('fp32',\)"


def tiny_model_and_input():
    rng = np.random.default_rng(7)
    model = build_deepcsi_model((4, 1, 48), 5, config=TINY_MODEL, rng=rng)
    x = rng.standard_normal((12, 4, 1, 48))
    return model, x


@pytest.fixture()
def model_and_input():
    return tiny_model_and_input()


def scratch_buffers(model):
    """The calling thread's scratch buffers of ``model``'s forward, by role."""
    pool = model._forward._local.scratch.pool
    return {key[0]: buffer for (key, _, _), buffer in pool._buffers.items()}


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
            model.set_compute(ArenaForward(np.float32))

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
    """The layers' own fp64 math, chained without the model's forward."""
    out = x
    for layer in model.layers:
        out = layer.forward(out, training=False)
    return out


@pytest.mark.parametrize("compute", [None, "fp32"], ids=["fp64", "fp32"])
class TestOneForward:
    """Scratch, weights and threads of the inference forward, in both dtypes."""

    def test_im2col_buffer_holds_one_gemm_block(self, model_and_input, compute):
        model, x = model_and_input
        model.set_compute(compute)
        model.forward(x[:1])
        # conv1 has the widest GEMM block: 48 positions x (4 channels x 5 taps).
        one_block = GEMM_SAMPLES * 48 * 4 * 5
        assert scratch_buffers(model)["col"].size == one_block
        batch = np.concatenate([x] * 6)[:63]
        out = model.forward(batch)
        np.testing.assert_allclose(
            out, model_without_compute_forward(model, batch), rtol=1e-4, atol=1e-4
        )
        assert scratch_buffers(model)["col"].size == one_block

    def test_a_4d_output_comes_back_nchw(self, compute):
        layer = Conv2D(3, 4, (1, 3), rng=np.random.default_rng(0))
        model = Sequential([layer])
        model.set_compute(compute)
        x = np.random.default_rng(1).standard_normal((5, 3, 2, 9))
        out = model.forward(x)
        assert out.shape == (5, 4, 2, 9) and out.flags.c_contiguous
        np.testing.assert_allclose(out, layer.forward(x), rtol=1e-5, atol=1e-5)

    def test_all_layers_share_one_set_of_scratch(self, model_and_input, compute):
        model, x = model_and_input
        model.set_compute(compute)
        model.forward(x)
        # Two ping-pong activations, one GEMM block (padded input, im2col
        # and a conv block's product) and the attention's maps and logits,
        # whatever the depth.
        assert set(scratch_buffers(model)) == {
            0, 1, "block", "col", "gemm", "maps", "logits"
        }

    def test_paper_model_scratch_at_batch_64(self, compute):
        # Conv blocks store pooled maps only, so the largest activation is
        # conv1's pooled map (64 x 29 x 128 values), not its 59-wide output.
        model = build_deepcsi_model((5, 1, 59), 10, rng=np.random.default_rng(0))
        model.set_compute(compute)
        model.forward(np.random.default_rng(1).standard_normal((64, 5, 1, 59)))
        total = sum(buffer.nbytes for buffer in scratch_buffers(model).values())
        assert total <= (5.5 if compute is None else 2.75) * 2**20

    def test_warm_forward_allocates_only_its_result(self, model_and_input, compute):
        model, x = model_and_input
        model.set_compute(compute)
        batch = np.concatenate([x] * 22)[:256]
        model.forward(batch)
        warm = model._forward.arena_allocations
        model.forward(batch[:5])
        tracemalloc.start()
        try:
            out = model.forward(batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model._forward.arena_allocations == warm
        # Besides the result, only numpy's fixed-size iterator buffers: one
        # conv1 activation alone would be 256 * 48 * 8 values, >= 384 KiB.
        assert peak < out.nbytes + 128 * 1024

    def test_copies_carry_no_prepared_weights(self, model_and_input, compute):
        model, x = model_and_input
        model.set_compute(compute)
        before = len(pickle.dumps(model))
        model.forward(x)
        # The step plan, prepared operands (fp64 views, fp32 casts) and
        # scratch stay behind.
        assert len(pickle.dumps(model)) == before
        copied = copy.deepcopy(model)._forward
        assert copied._states == {} and copied._steps is None

    def test_dropping_a_model_frees_its_scratch(self, compute):
        model, x = tiny_model_and_input()
        model.set_compute(compute)
        model.forward(x)
        scratch = weakref.ref(model._forward._local.scratch)
        buffer = weakref.ref(scratch_buffers(model)[0])
        gc.disable()
        try:
            del model
            assert scratch() is None and buffer() is None
        finally:
            gc.enable()

    def test_a_threads_scratch_dies_with_the_thread(self, model_and_input, compute):
        model, x = model_and_input
        model.set_compute(compute)
        reference = model.forward(x)
        scratches = []

        def run():
            assert model.forward(x).tobytes() == reference.tobytes()
            scratches.append(weakref.ref(model._forward._local.scratch))

        worker = threading.Thread(target=run)
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert len(scratches) == 1 and scratches[0]() is None
        # The main thread keeps its own scratch.
        assert model._forward.arena_allocations > 0

    def test_concurrent_forwards_match_serial_ones(self, model_and_input, compute):
        model, x = model_and_input
        model.set_compute(compute)
        batches = [x, x[:5], x[3:], x[::-1], x[:1], x[2:9]]
        # Each copy prepares its own operands; the threads below race to
        # prepare the shared model's on their first forwards.
        expected = [copy.deepcopy(model).forward(batch).tobytes() for batch in batches]
        results = [None] * len(batches)
        start = threading.Barrier(len(batches))

        def run(slot):
            start.wait()
            for _ in range(10):
                results[slot] = model.forward(batches[slot]).tobytes()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=run, args=(slot,)) for slot in range(len(batches))]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert results == expected


def test_fp64_forward_after_an_in_place_adam_step_sees_the_new_weights():
    # The float64 forward multiplies views of the weights, so the validation
    # forwards inside Trainer.fit see every optimiser step.
    model, x = tiny_model_and_input()
    before = model.forward(x)
    logits = model.forward(x, training=True)
    model.backward(np.ones_like(logits))
    Adam(1e-2).step(model.parameters())
    after = model.forward(x)
    assert not np.array_equal(after, before)
    # A copy prepares its operands from the stepped weights afresh.
    assert after.tobytes() == copy.deepcopy(model).forward(x).tobytes()


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

    def test_backward_releases_the_training_caches(self, model_and_input):
        # Inference never touches the layers, so a trained model, its deep
        # copies and its pickles would otherwise carry the last batch.
        model, x = model_and_input
        logits = model.forward(x, training=True)
        model.backward(np.ones_like(logits))
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
        expected = [0 if entry.index in TINY_BLOCK_ENTRIES else 2 for entry in profile]
        assert [entry.calls for entry in profile] == expected
        assert all(entry.total_ns > 0 for entry in profile if entry.calls)
        assert profile[0].mean_ms > 0.0
        model.disable_profiling()
        model.forward(x, training=False)
        assert [entry.calls for entry in model.profile()] == expected

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
        assert all(
            entry.calls == (0 if entry.index in TINY_BLOCK_ENTRIES else 1)
            for entry in model.profile()
        )


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

        restored = DeepCsiClassifier.load(tmp_path / "model")
        assert restored.compute_name == "fp32"
        np.testing.assert_array_equal(restored.predict_logits(test), reference)

    def test_fp64_save_load_roundtrip_stays_fp64(
        self, trained_classifier, split_samples, tmp_path
    ):
        _, test = split_samples
        directory = trained_classifier.save(tmp_path / "model")
        restored = DeepCsiClassifier.load(directory)
        assert restored.compute is None
        np.testing.assert_array_equal(
            restored.predict_logits(test), trained_classifier.predict_logits(test)
        )

    def test_model_version_carries_the_compute_name(self, trained_classifier):
        source = copy.deepcopy(trained_classifier)
        source.set_compute("fp32")
        decoded, _ = ModelVersion.from_classifier(source, version=1).decode()
        assert decoded.compute_name == "fp32"
        decoded, _ = ModelVersion.from_classifier(trained_classifier, version=2).decode()
        assert decoded.compute is None

    def test_load_refuses_a_removed_compute_backend(self, trained_classifier):
        # What an int8 save used to record: the backend name in the metadata.
        with np.load(io.BytesIO(trained_classifier.to_bytes())) as archive:
            arrays = {name: archive[name] for name in archive.files}
        meta = json.loads(arrays["__meta__"].tobytes())
        meta["compute"] = "int8"
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        buffer = io.BytesIO()
        np.savez(buffer, **arrays)
        with pytest.raises(ClassifierError, match="'int8'"):
            DeepCsiClassifier.from_bytes(buffer.getvalue())


def _drain_engine(classifier, samples, **kwargs):
    engine = InferenceEngine(classifier, batch_size=8, **kwargs)
    results = []
    for sample in samples:
        results.extend(
            engine.submit(codewords(sample.v_tilde), source=f"module-{sample.module_id:02d}")
        )
    results.extend(engine.flush())
    return engine, [(r.predicted_module_id, r.confidence) for r in results]


def _drain_service(classifier, samples, backend, **kwargs):
    with StreamingService(
        classifier, num_workers=2, batch_size=8, backend=backend, **kwargs
    ) as service:
        for sample in samples:
            service.submit(codewords(sample.v_tilde), source=f"module-{sample.module_id:02d}")
        service.flush()
        results = service.collect()
    results.sort(key=lambda result: result.sequence)
    return [(r.predicted_module_id, r.confidence) for r in results]


class TestEngineAndServiceCompute:
    def test_engine_names_its_compute(self, trained_classifier, split_samples):
        _, test = split_samples
        classifier = copy.deepcopy(trained_classifier)
        engine, _ = _drain_engine(classifier, test[:16], compute="fp32")
        assert engine.compute == "fp32"

    def test_engine_profile_surfaces_in_stats(self, trained_classifier, split_samples):
        _, test = split_samples
        classifier = copy.deepcopy(trained_classifier)
        engine, _ = _drain_engine(classifier, test[:16], profile=True)
        profile = engine.stats.layer_profile
        assert profile and all(
            (entry.calls == 0) == (entry.index in TINY_BLOCK_ENTRIES) for entry in profile
        )

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
        results = _drain_service(
            copy.deepcopy(trained_classifier), samples, "threads", compute="fp32"
        )
        assert results == reference

    def test_fp32_backend_travels_to_process_shards(
        self, trained_classifier, split_samples
    ):
        _, test = split_samples
        samples = test[:24]
        classifier = copy.deepcopy(trained_classifier)
        classifier.set_compute("fp32")
        _, reference = _drain_engine(copy.deepcopy(classifier), samples)
        results = _drain_service(classifier, samples, "processes")
        assert results == reference

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_shards_run_the_fp32_forward_on_fast_codewords(
        self, trained_classifier, split_samples, backend
    ):
        """Every shard runs the service's compute and precision: its results
        equal an fp32 + fast engine's bit for bit, and not an fp64 one's."""
        _, test = split_samples
        samples = test[:16]
        _, fp32_fast = _drain_engine(
            copy.deepcopy(trained_classifier), samples, compute="fp32", precision="fast"
        )
        _, fp64_exact = _drain_engine(copy.deepcopy(trained_classifier), samples)
        results = _drain_service(
            copy.deepcopy(trained_classifier),
            samples,
            backend,
            compute="fp32",
            precision="fast",
        )
        assert results == fp32_fast
        assert results != fp64_exact

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
        assert [result.model_version for result in results[12:]] == [1] * 12

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
