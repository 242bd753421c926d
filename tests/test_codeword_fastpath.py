"""Tests of the codeword-native preprocessing fast path.

Covers the trig-LUT reconstruction (bitwise float64 parity with the legacy
dequantize+reconstruct pipeline, tolerance-bounded complex64 parity), the
arena steady state, the fused accumulator->features extraction, the engine
``precision`` knob and stage profile, and the compact ``RECORD_CODEWORDS``
transport (codec round trip plus process-backend parity).
"""

import copy

import numpy as np
import pytest

from repro.arena import ArenaPool
from repro.core.classifier import ClassifierConfig, DeepCsiClassifier
from repro.core.engine import (
    EngineError,
    InferenceEngine,
    STAGE_NAMES,
)
from repro.core.model import DeepCsiModelConfig
from repro.core.service import ServiceError, StreamingService
from repro.core.transport import (
    RECORD_CODEWORDS,
    TransportError,
    _unpack_codewords,
    pack_codeword_record,
    unpack_record,
)
from repro.datasets.features import (
    FeatureConfig,
    FeatureError,
    FeatureExtractor,
    strided_subcarriers,
)
from repro.datasets.splits import D1_SPLITS, d1_split
from repro.feedback.givens import (
    compress_v_matrix,
    reconstruct_accumulator_quantized,
    reconstruct_v_matrices,
    reconstruct_v_matrices_quantized,
)
from repro.feedback.quantization import (
    QuantizationConfig,
    dequantize_angles_batch,
    quantize_angles,
    stack_quantized_angles,
    trig_lut_for,
)
from repro.nn.training import TrainingConfig
from repro.phy.ofdm import sounding_layout, subband_indices
from tests.observations import codewords, frame

CODEBOOKS = [
    QuantizationConfig(b_phi=7, b_psi=5),  # VHT codebook 0
    QuantizationConfig(b_phi=9, b_psi=7),  # VHT codebook 1 (the paper's AP)
]
GEOMETRIES = [(2, 1), (2, 2), (3, 2), (3, 3), (4, 2)]


def _unitary_columns(rng, num_sub, num_tx, num_streams):
    raw = rng.standard_normal((num_sub, num_tx, num_tx)) + 1j * rng.standard_normal(
        (num_sub, num_tx, num_tx)
    )
    q, _ = np.linalg.qr(raw)
    return q[:, :, :num_streams]


def _quantized_batch(rng, batch, num_sub, num_tx, num_streams, config):
    return [
        quantize_angles(
            compress_v_matrix(_unitary_columns(rng, num_sub, num_tx, num_streams)),
            config,
        )
        for _ in range(batch)
    ]


def _legacy_reconstruct(q_phi, q_psi, config, num_tx, num_streams):
    phi, psi = dequantize_angles_batch(q_phi, q_psi, config)
    return reconstruct_v_matrices(phi, psi, num_tx, num_streams)


# --------------------------------------------------------------------------- #
# LUT reconstruction parity
# --------------------------------------------------------------------------- #
class TestCodewordReconstruction:
    @pytest.mark.parametrize("config", CODEBOOKS, ids=["low", "high"])
    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_exact_path_is_bitwise_identical_to_legacy(self, config, geometry):
        num_tx, num_streams = geometry
        rng = np.random.default_rng(7)
        items = _quantized_batch(rng, 3, 16, num_tx, num_streams, config)
        q_phi, q_psi, config, num_tx, num_streams = stack_quantized_angles(items)
        legacy = _legacy_reconstruct(q_phi, q_psi, config, num_tx, num_streams)
        fast = reconstruct_v_matrices_quantized(
            q_phi, q_psi, config, num_tx, num_streams
        )
        assert fast.dtype == np.complex128
        assert fast.shape == legacy.shape
        # Bitwise, not approximate: the LUT gathers and the restricted-row
        # Givens updates must reproduce the legacy IEEE operation order.
        assert fast.tobytes() == legacy.tobytes()

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_fast_tables_match_within_float32_tolerance(self, geometry):
        num_tx, num_streams = geometry
        config = QuantizationConfig()
        rng = np.random.default_rng(11)
        items = _quantized_batch(rng, 3, 16, num_tx, num_streams, config)
        q_phi, q_psi, config, num_tx, num_streams = stack_quantized_angles(items)
        legacy = _legacy_reconstruct(q_phi, q_psi, config, num_tx, num_streams)
        fast = reconstruct_v_matrices_quantized(
            q_phi, q_psi, config, num_tx, num_streams, fast=True
        )
        assert fast.dtype == np.complex64
        assert np.max(np.abs(fast - legacy)) < 1e-5

    def test_steady_state_reconstruction_is_allocation_free(self):
        config = QuantizationConfig()
        rng = np.random.default_rng(3)
        items = _quantized_batch(rng, 4, 16, 3, 2, config)
        q_phi, q_psi, config, num_tx, num_streams = stack_quantized_angles(items)
        arena = ArenaPool()
        first = reconstruct_accumulator_quantized(
            q_phi, q_psi, config, num_tx, num_streams, arena=arena
        ).copy()
        warm = arena.allocations
        second = reconstruct_accumulator_quantized(
            q_phi, q_psi, config, num_tx, num_streams, arena=arena
        )
        assert arena.allocations == warm
        assert second.tobytes() == first.tobytes()

    def test_shape_validation(self):
        config = QuantizationConfig()
        with pytest.raises(Exception):
            reconstruct_v_matrices_quantized(
                np.zeros((2, 4, 99), dtype=np.int16),
                np.zeros((2, 4, 3), dtype=np.int16),
                config,
                3,
                2,
            )

    def test_trig_lut_is_cached_and_matches_eq8(self):
        config = QuantizationConfig()
        lut = trig_lut_for(config)
        assert trig_lut_for(QuantizationConfig()) is lut
        assert lut.exp_phi.shape == (config.phi_levels,)
        assert lut.cos_psi.shape == (config.psi_levels,)
        from repro.feedback.quantization import dequantize_phi, dequantize_psi

        phi = dequantize_phi(np.arange(config.phi_levels, dtype=np.int64), config)
        psi = dequantize_psi(np.arange(config.psi_levels, dtype=np.int64), config)
        assert lut.exp_phi.tobytes() == np.exp(1j * phi).tobytes()
        assert lut.cos_psi.tobytes() == np.cos(psi).tobytes()
        assert lut.sin_psi.tobytes() == np.sin(psi).tobytes()

    def test_codewords_are_int16(self):
        config = QuantizationConfig()
        rng = np.random.default_rng(5)
        item = _quantized_batch(rng, 1, 8, 3, 2, config)[0]
        assert item.q_phi.dtype == np.int16
        assert item.q_psi.dtype == np.int16


# --------------------------------------------------------------------------- #
# Fused accumulator -> features extraction
# --------------------------------------------------------------------------- #
class TestTransformAccumulator:
    def test_matches_transform_matrices_bitwise(self):
        config = QuantizationConfig()
        rng = np.random.default_rng(13)
        items = _quantized_batch(rng, 4, 24, 3, 2, config)
        q_phi, q_psi, config, num_tx, num_streams = stack_quantized_angles(items)
        accumulator = reconstruct_accumulator_quantized(
            q_phi, q_psi, config, num_tx, num_streams
        )
        extractor = FeatureExtractor(
            FeatureConfig(
                stream_indices=(0,),
                subcarrier_positions=strided_subcarriers(24, 2),
            )
        )
        fused = extractor.transform_accumulator(accumulator, num_streams)
        reference = extractor.transform_matrices(accumulator[..., :num_streams])
        assert fused.tobytes() == reference.tobytes()

    def test_complex64_accumulator_gives_float32_features(self):
        config = QuantizationConfig()
        rng = np.random.default_rng(17)
        items = _quantized_batch(rng, 2, 16, 3, 2, config)
        q_phi, q_psi, config, num_tx, num_streams = stack_quantized_angles(items)
        accumulator = reconstruct_accumulator_quantized(
            q_phi, q_psi, config, num_tx, num_streams, fast=True
        )
        extractor = FeatureExtractor(FeatureConfig(stream_indices=(0,)))
        features = extractor.transform_accumulator(accumulator, num_streams)
        assert features.dtype == np.float32


# --------------------------------------------------------------------------- #
# Engine precision knob
# --------------------------------------------------------------------------- #
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
def quantized_stream(tiny_d1):
    _, test = d1_split(tiny_d1, D1_SPLITS["S1"], beamformee_id=1)
    return [
        (f"module-{sample.module_id:02d}", codewords(sample.v_tilde))
        for sample in test[:18]
    ]


#: Feature selections besides the fixture's stride 8; every one keeps
#: N_col = 30, so the fixture's trained CNN classifies all of them.
SELECTIONS = {
    # The top of the nested 40 MHz channel, as in Fig. 12a.
    "subband": FeatureConfig(
        stream_indices=(0,),
        subcarrier_positions=tuple(
            int(p) for p in subband_indices(sounding_layout(80), 40)[-30:]
        ),
    ),
    # Unsorted, with the last sub-carrier and a repeated position.
    "unsorted-repeat": FeatureConfig(
        stream_indices=(0,),
        subcarrier_positions=(233,) + tuple(range(224, 0, -8)) + (64,),
    ),
    # The second spatial stream, as in Fig. 15.
    "stream1": FeatureConfig(
        stream_indices=(1,), subcarrier_positions=strided_subcarriers(234, 8)
    ),
}


class TestEnginePrecision:
    def test_invalid_precision_rejected(self, trained_classifier):
        with pytest.raises(EngineError):
            InferenceEngine(trained_classifier, precision="float16")

    def test_exact_codewords_match_manual_reconstruction(
        self, trained_classifier, quantized_stream
    ):
        # The engine stages and rebuilds only the selected sub-carriers; for
        # every selection, from codewords and from frame bytes, its features,
        # ids and confidences must be those of the full-K reconstruction.
        q_phi, q_psi, codebook, num_tx, num_streams = stack_quantized_angles(
            [quantized for _, quantized in quantized_stream]
        )
        full_k = reconstruct_v_matrices_quantized(q_phi, q_psi, codebook, num_tx, num_streams)
        legacy = _legacy_reconstruct(q_phi, q_psi, codebook, num_tx, num_streams)
        assert full_k.tobytes() == legacy.tobytes()
        selections = {"stride8": trained_classifier.extractor.config, **SELECTIONS}
        for name, config in selections.items():
            for kind in ("codewords", "frames"):
                case = f"{name}/{kind}"
                classifier = copy.deepcopy(trained_classifier)
                classifier.extractor = FeatureExtractor(config)
                predict = classifier.predict_features
                seen = []

                def recording_predict(features):
                    seen.append(features.copy())
                    return predict(features)

                classifier.predict_features = recording_predict
                engine = InferenceEngine(classifier, batch_size=8)
                results = []
                for source, quantized in quantized_stream:
                    if kind == "codewords":
                        results.extend(engine.submit(quantized, source=source))
                    else:
                        results.extend(engine.submit(frame(quantized, source)))
                results.extend(engine.flush())
                assert len(results) == len(quantized_stream), case

                reference = classifier.extractor.transform_matrices(full_k)
                ids, confidences = predict(reference.copy())  # normalises in place
                assert np.concatenate(seen).tobytes() == reference.tobytes(), case
                assert [result.predicted_module_id for result in results] == ids.tolist(), case
                got = np.array([result.confidence for result in results])
                assert got.tobytes() == confidences.tobytes(), case

    def test_fast_precision_preserves_verdicts(
        self, trained_classifier, quantized_stream
    ):
        exact = InferenceEngine(trained_classifier, batch_size=8, precision="exact")
        fast = InferenceEngine(trained_classifier, batch_size=8, precision="fast")
        for source, quantized in quantized_stream:
            exact.submit(quantized, source=source)
            fast.submit(quantized, source=source)
        exact.flush()
        fast.flush()
        assert exact.sources == fast.sources
        for source in exact.sources:
            assert exact.verdict(source).module_id == fast.verdict(source).module_id

    def test_stage_profile_reports_preprocessing_stages(
        self, trained_classifier, quantized_stream
    ):
        engine = InferenceEngine(trained_classifier, batch_size=4)
        for source, quantized in quantized_stream[:8]:
            engine.submit(quantized, source=source)
        engine.flush()
        stats = engine.stats
        names = [stage.name for stage in stats.stage_profile]
        assert names == list(STAGE_NAMES)
        assert [stage.index for stage in stats.stage_profile] == [0, 1, 2]
        for stage in stats.stage_profile:
            assert stage.calls > 0
            assert stage.total_ns > 0
            assert stage.mean_ms >= 0.0

    def test_reset_clears_stage_profile(self, trained_classifier, quantized_stream):
        engine = InferenceEngine(trained_classifier, batch_size=4)
        for source, quantized in quantized_stream[:4]:
            engine.submit(quantized, source=source)
        engine.flush()
        assert engine.stats.stage_profile
        engine.reset()
        assert engine.stats.stage_profile == ()


# --------------------------------------------------------------------------- #
# Engine: only the selected sub-carriers are staged and reconstructed
# --------------------------------------------------------------------------- #
class TestEngineSubcarrierSelection:
    def test_steady_state_batches_do_not_grow_the_arena(
        self, trained_classifier, quantized_stream
    ):
        engine = InferenceEngine(trained_classifier, batch_size=6)
        batch = [quantized for _, quantized in quantized_stream[:6]]
        for quantized in batch:
            engine.submit(quantized)
        warm = engine._arena.allocations
        for _ in range(3):
            results = [engine.submit(quantized) for quantized in batch]
            assert sum(map(len, results)) == len(batch)
        assert engine._arena.allocations == warm

    def test_report_shorter_than_the_selected_positions_raises(self, trained_classifier):
        # Position 232 of the stride-8 selection does not exist when K = 64.
        rng = np.random.default_rng(23)
        short = _quantized_batch(rng, 1, 64, 3, 2, QuantizationConfig())[0]
        engine = InferenceEngine(trained_classifier, batch_size=4)
        engine.submit(short)
        with pytest.raises(FeatureError):
            engine.flush()


# --------------------------------------------------------------------------- #
# Codeword transport
# --------------------------------------------------------------------------- #
class TestCodewordTransport:
    def test_round_trip(self, quantized_stream):
        source, quantized = quantized_stream[0]
        data = pack_codeword_record(42, source, 1.5, quantized)
        record = unpack_record(data)
        assert record.kind == RECORD_CODEWORDS
        assert record.sequence == 42
        assert record.source == source
        assert record.timestamp_s == 1.5
        decoded = record.quantized
        assert decoded is not None
        assert decoded.config == quantized.config
        assert decoded.num_tx == quantized.num_tx
        assert decoded.num_streams == quantized.num_streams
        assert decoded.q_phi.dtype == np.int16
        assert np.array_equal(decoded.q_phi, quantized.q_phi)
        assert np.array_equal(decoded.q_psi, quantized.q_psi)

    def test_codeword_record_is_much_smaller_than_vtilde(self, quantized_stream):
        _, quantized = quantized_stream[0]
        q_phi, q_psi, config, num_tx, num_streams = stack_quantized_angles([quantized])
        v_batch = _legacy_reconstruct(q_phi, q_psi, config, num_tx, num_streams)
        codeword_bytes = len(pack_codeword_record(0, "a", 0.0, quantized))
        assert codeword_bytes * 6 < v_batch[0].nbytes

    def test_truncated_payload_rejected(self, quantized_stream):
        _, quantized = quantized_stream[0]
        data = pack_codeword_record(0, "a", 0.0, quantized)
        with pytest.raises(TransportError):
            unpack_record(data[:-3])

    def test_truncated_subheader_rejected(self):
        with pytest.raises(TransportError):
            _unpack_codewords(b"\x01")

    def test_length_mismatch_rejected(self):
        import struct

        # A valid subheader for (K, M, N_SS) = (4, 3, 2) followed by two
        # bytes fewer than the 4 * (5 + 3) int16 codewords it promises.
        subheader = struct.pack("<BBBBBH", 9, 7, 1, 3, 2, 4)
        with pytest.raises(TransportError):
            _unpack_codewords(subheader + b"\x00" * (2 * 4 * 8 - 2))

    def test_process_backend_parity(self, trained_classifier, quantized_stream):
        reference = InferenceEngine(trained_classifier, batch_size=8)
        expected = []
        for source, quantized in quantized_stream:
            expected.extend(reference.submit(quantized, source=source))
        expected.extend(reference.flush())

        with StreamingService(
            trained_classifier,
            num_workers=1,
            backend="processes",
            batch_size=8,
            queue_depth=32,
        ) as service:
            for source, quantized in quantized_stream:
                service.submit(quantized, source=source)
            service.flush()
            results = sorted(service.collect(), key=lambda r: r.sequence)
            verdicts = {source: service.verdict(source) for source in service.sources}

        assert len(results) == len(expected)
        for got, want in zip(results, expected):
            assert got.predicted_module_id == want.predicted_module_id
            assert got.confidence == want.confidence
            assert got.source == want.source
        for source in {source for source, _ in quantized_stream}:
            assert verdicts[source].module_id == reference.verdict(source).module_id

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_frames_match_codewords_through_the_service(
        self, trained_classifier, quantized_stream, backend
    ):
        # The same codewords once as QuantizedAngles (RECORD_CODEWORDS on the
        # process ring) and once packed into frame bytes (RECORD_FRAME, parsed
        # by the worker engine): per-source results must be bitwise equal.
        def per_source(observations):
            with StreamingService(
                trained_classifier,
                num_workers=2,
                backend=backend,
                batch_size=4,
                queue_depth=32,
            ) as service:
                for (source, _), observation in zip(quantized_stream, observations):
                    service.submit(observation, source=source)
                service.flush()
                results = sorted(service.collect(), key=lambda r: r.sequence)
            outputs = {}
            for result in results:
                outputs.setdefault(result.source, []).append(
                    (result.predicted_module_id, result.confidence, result.score)
                )
            return outputs

        from_codewords = per_source([quantized for _, quantized in quantized_stream])
        from_frames = per_source(
            [frame(quantized, source) for source, quantized in quantized_stream]
        )
        assert sum(map(len, from_frames.values())) == len(quantized_stream)
        assert from_frames == from_codewords

    def test_service_rejects_unknown_precision(self, trained_classifier):
        with pytest.raises(ServiceError):
            StreamingService(trained_classifier, num_workers=1, precision="half")
