"""Batch/scalar equivalence of the vectorised feedback hot path."""

import numpy as np
import pytest

from repro.feedback.capture import MonitorCapture
from repro.feedback.frames import FeedbackFrame, VhtMimoControl, pack_feedback_frame
from repro.feedback.givens import (
    GivensError,
    compress_v_matrix,
    reconstruct_v_matrices,
    reconstruct_v_matrix,
    stack_feedback_angles,
)
from repro.feedback.quantization import (
    QuantizationConfig,
    QuantizationError,
    dequantize_angles,
    dequantize_angles_batch,
    quantize_angles,
    stack_quantized_angles,
)
from tests.conftest import random_unitary_columns


def _random_angle_batch(rng, batch=6, num_subcarriers=11, num_tx=3, num_streams=2):
    matrices = [
        random_unitary_columns(rng, num_subcarriers, num_tx, num_streams)
        for _ in range(batch)
    ]
    return [compress_v_matrix(matrix) for matrix in matrices]


class TestBatchedReconstruction:
    @pytest.mark.parametrize(
        "num_tx,num_streams", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 2)]
    )
    def test_matches_per_sample_reconstruction(self, rng, num_tx, num_streams):
        angles = _random_angle_batch(
            rng, num_tx=num_tx, num_streams=num_streams
        )
        phi, psi, stacked_tx, stacked_streams = stack_feedback_angles(angles)
        batch = reconstruct_v_matrices(phi, psi, stacked_tx, stacked_streams)
        per_sample = np.stack(
            [reconstruct_v_matrix(item) for item in angles], axis=0
        )
        assert batch.shape == per_sample.shape
        np.testing.assert_allclose(batch, per_sample, atol=1e-12, rtol=0)

    def test_quantised_batch_matches_per_sample(self, rng):
        config = QuantizationConfig()
        quantized = [
            quantize_angles(item, config) for item in _random_angle_batch(rng)
        ]
        q_phi, q_psi, stacked_config, num_tx, num_streams = stack_quantized_angles(
            quantized
        )
        phi, psi = dequantize_angles_batch(q_phi, q_psi, stacked_config)
        batch = reconstruct_v_matrices(phi, psi, num_tx, num_streams)
        per_sample = np.stack(
            [reconstruct_v_matrix(dequantize_angles(item)) for item in quantized],
            axis=0,
        )
        np.testing.assert_allclose(batch, per_sample, atol=1e-12, rtol=0)

    def test_rejects_wrong_angle_shapes(self, rng):
        angles = _random_angle_batch(rng)
        phi, psi, num_tx, num_streams = stack_feedback_angles(angles)
        with pytest.raises(GivensError):
            reconstruct_v_matrices(phi[0], psi[0], num_tx, num_streams)
        with pytest.raises(GivensError):
            reconstruct_v_matrices(phi[:, :, :-1], psi, num_tx, num_streams)
        with pytest.raises(GivensError):
            reconstruct_v_matrices(phi[:-1], psi, num_tx, num_streams)


class TestStackHelpers:
    def test_stack_feedback_angles_rejects_mixed_geometry(self, rng):
        wide = compress_v_matrix(random_unitary_columns(rng, 11, 3, 2))
        narrow = compress_v_matrix(random_unitary_columns(rng, 11, 2, 2))
        with pytest.raises(GivensError):
            stack_feedback_angles([wide, narrow])
        with pytest.raises(GivensError):
            stack_feedback_angles([])

    def test_stack_quantized_rejects_mixed_configs(self, rng):
        angles = _random_angle_batch(rng, batch=2)
        low = quantize_angles(angles[0], QuantizationConfig(b_phi=7, b_psi=5))
        high = quantize_angles(angles[1], QuantizationConfig(b_phi=9, b_psi=7))
        with pytest.raises(QuantizationError):
            stack_quantized_angles([low, high])
        with pytest.raises(QuantizationError):
            stack_quantized_angles([])

    def test_dequantize_batch_matches_scalar(self, rng):
        config = QuantizationConfig()
        quantized = [
            quantize_angles(item, config) for item in _random_angle_batch(rng)
        ]
        q_phi, q_psi, stacked_config, _, _ = stack_quantized_angles(quantized)
        phi, psi = dequantize_angles_batch(q_phi, q_psi, stacked_config)
        for index, item in enumerate(quantized):
            scalar = dequantize_angles(item)
            np.testing.assert_array_equal(phi[index], scalar.phi)
            np.testing.assert_array_equal(psi[index], scalar.psi)


class TestFrameBatchReconstruction:
    def test_mixed_geometry_frames_keep_input_order(self, rng):
        config = QuantizationConfig()
        capture = MonitorCapture()
        expected = []
        # Alternate two geometries so the grouping has to scatter results
        # back into the original frame order.
        for index in range(6):
            num_tx = 3 if index % 2 == 0 else 2
            v_matrix = random_unitary_columns(rng, 11, num_tx, 2)
            quantized = quantize_angles(compress_v_matrix(v_matrix), config)
            control = VhtMimoControl(
                num_columns=2,
                num_rows=num_tx,
                bandwidth_mhz=80,
                codebook=1,
                num_subcarriers=11,
            )
            capture.record(
                FeedbackFrame(
                    source_address=f"02:00:00:00:00:{index:02x}",
                    destination_address="02:00:00:00:aa:00",
                    timestamp_s=float(index),
                    payload=pack_feedback_frame(quantized, control),
                )
            )
            expected.append(reconstruct_v_matrix(dequantize_angles(quantized)))
        batch = capture.reconstruct()
        assert len(batch) == len(capture)
        for index, (got, want) in enumerate(zip(batch, expected)):
            assert got.source_address == f"02:00:00:00:00:{index:02x}"
            assert got.timestamp_s == float(index)
            np.testing.assert_allclose(got.v_tilde, want, atol=1e-12, rtol=0)

    def test_empty_frame_list_gives_empty_batch(self):
        assert MonitorCapture().reconstruct() == []
