"""Frame and codeword forms of dataset samples for the streaming-path tests.

The streaming engine and service classify a sniffed frame or the quantised
angle codewords it carries.  Tests that start from a dataset's ``V~``
quantise it here, the way a beamformee does before it sends the frame.
"""

from dataclasses import replace

import numpy as np

from repro.feedback.frames import FeedbackFrame, VhtMimoControl, pack_feedback_frame
from repro.feedback.givens import compress_v_matrix, reconstruct_v_matrices_quantized
from repro.feedback.quantization import (
    QuantizationConfig,
    QuantizedAngles,
    quantize_angles,
    stack_quantized_angles,
)


def codewords(v_tilde) -> QuantizedAngles:
    """The angle codewords a beamformee sends for one ``(K, M, N_SS)`` ``V~``."""
    return quantize_angles(compress_v_matrix(np.asarray(v_tilde)), QuantizationConfig())


def frame(quantized, source="sta", timestamp_s=0.0) -> FeedbackFrame:
    """``quantized`` packed into the bytes of a VHT compressed-beamforming frame."""
    control = VhtMimoControl(
        quantized.num_streams, quantized.num_tx, 80, 1, quantized.num_subcarriers
    )
    return FeedbackFrame(source, "ap", timestamp_s, pack_feedback_frame(quantized, control))


def rebuilt(items) -> np.ndarray:
    """The ``(B, K, M, N_SS)`` ``V~`` the exact engine path classifies for ``items``."""
    q_phi, q_psi, config, num_tx, num_streams = stack_quantized_angles(list(items))
    return reconstruct_v_matrices_quantized(q_phi, q_psi, config, num_tx, num_streams)


def edge_quantised(samples) -> list:
    """``samples`` with each ``V~`` replaced by the one rebuilt from its codewords.

    That is the ``V~`` the streaming path classifies, so a classifier trained
    or calibrated on these samples sees the traffic it serves.
    """
    samples = list(samples)
    v_tildes = rebuilt(codewords(sample.v_tilde) for sample in samples)
    return [replace(sample, v_tilde=v_tilde) for sample, v_tilde in zip(samples, v_tildes)]
