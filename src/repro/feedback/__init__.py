"""Compressed beamforming feedback substrate (IEEE 802.11ac).

Implements the channel-sounding feedback path the paper exploits:

* :mod:`repro.feedback.givens` -- Algorithm 1 of the paper: decomposition of
  the beamforming matrix ``V_k`` into the ``phi``/``psi`` Givens-rotation
  angles, and the reconstruction of ``V~_k`` from those angles (Eq. 7).
* :mod:`repro.feedback.quantization` -- standard-compliant quantisation of
  the angles (Eq. 8) with ``b_phi`` / ``b_psi`` bits.
* :mod:`repro.feedback.frames` -- bit packing of the angles into a VHT
  compressed-beamforming action frame and the corresponding parser (what a
  monitor-mode observer such as Wireshark sees).
* :mod:`repro.feedback.capture` -- a simulated monitor-mode capture of the
  sounding exchange between an AP and its beamformees.
"""

from repro.feedback.givens import (
    FeedbackAngles,
    compress_v_matrix,
    reconstruct_v_matrix,
    reconstruct_v_matrices,
    stack_feedback_angles,
    angle_counts,
)
from repro.feedback.quantization import (
    QuantizationConfig,
    quantize_angles,
    dequantize_angles,
    dequantize_angles_batch,
    stack_quantized_angles,
    QuantizedAngles,
)
from repro.feedback.frames import (
    VhtMimoControl,
    FeedbackFrame,
    pack_feedback_frame,
    parse_feedback_frame,
)
from repro.feedback.capture import MonitorCapture, SoundingSimulator, CapturedFeedback

__all__ = [
    "FeedbackAngles",
    "compress_v_matrix",
    "reconstruct_v_matrix",
    "reconstruct_v_matrices",
    "stack_feedback_angles",
    "angle_counts",
    "QuantizationConfig",
    "quantize_angles",
    "dequantize_angles",
    "dequantize_angles_batch",
    "stack_quantized_angles",
    "QuantizedAngles",
    "VhtMimoControl",
    "FeedbackFrame",
    "pack_feedback_frame",
    "parse_feedback_frame",
    "MonitorCapture",
    "SoundingSimulator",
    "CapturedFeedback",
]
