"""VHT compressed beamforming frame packing and parsing.

The beamformee packs the quantised feedback angles into a *VHT Compressed
Beamforming* action frame.  The frame is transmitted unencrypted, so a
monitor-mode observer (Wireshark in the paper) can read:

* the **VHT MIMO control field**: number of columns (``N_SS``), number of
  rows (``M``), channel bandwidth and the codebook (i.e. ``b_phi``/``b_psi``),
* the **beamforming report**: the angle codewords, ``b_phi``/``b_psi`` bits
  each, packed little-endian bit-first in the standard transmission order
  (per sub-carrier: all angles of that sub-carrier).

This module implements a faithful (if simplified) binary layout plus the
parser DeepCSI's observer uses, so the whole pipeline exercises a realistic
capture path: angles -> bytes on air -> parsed bytes -> reconstructed ``V~``.

The codec is vectorised.  One little-endian word holds the magic byte and
the control field; one NumPy gather of 16-bit windows decodes the angle
report.  The gather follows a plan cached per ``(M, N_SS, codebook)``
layout, never per ``K``, because the header bytes are untrusted.
"""

from __future__ import annotations

# lint: dtype-strict

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.analysis.annotations import hot_path
from repro.feedback.givens import FeedbackAngles, angle_order
from repro.feedback.quantization import QuantizationConfig, QuantizedAngles, dequantize_angles

#: Frame-format magic marker (not part of the standard; guards the parser).
_FRAME_MAGIC = 0xBF
#: Map bandwidth in MHz <-> 2-bit field value used in the control field.
_BANDWIDTH_CODES = {20: 0, 40: 1, 80: 2, 160: 3}
_BANDWIDTH_FROM_CODE = {code: mhz for mhz, code in _BANDWIDTH_CODES.items()}
#: Magic byte plus the 24-bit control field; the angle report starts after it.
_HEADER_BYTES = 4
#: Largest ``K`` the 12-bit sub-carrier count field can carry.
_MAX_SUBCARRIERS = 0xFFF
#: Sub-carriers per plan period: 8 of them always fill whole bytes.
_PERIOD = 8


class FrameError(ValueError):
    """Raised when a feedback frame cannot be packed or parsed."""


@dataclass(frozen=True)
class VhtMimoControl:
    """Subset of the VHT MIMO control field relevant to DeepCSI.

    Attributes
    ----------
    num_columns:
        ``N_SS`` - number of columns of the beamforming matrix.
    num_rows:
        ``M`` - number of rows of the beamforming matrix.
    bandwidth_mhz:
        Channel bandwidth the feedback refers to.
    codebook:
        ``0`` for (b_psi, b_phi) = (5, 7), ``1`` for (7, 9); MU-MIMO feedback
        uses codebook 1 in the paper's testbed.
    num_subcarriers:
        Number of sub-carriers carried in the report.
    """

    num_columns: int
    num_rows: int
    bandwidth_mhz: int
    codebook: int
    num_subcarriers: int

    def __post_init__(self) -> None:
        if not 1 <= self.num_columns <= 8:
            raise FrameError("num_columns must be in 1..8")
        if not 2 <= self.num_rows <= 8:
            raise FrameError("num_rows must be in 2..8")
        if self.num_columns > self.num_rows:
            raise FrameError("num_columns (N_SS) must not exceed num_rows (M)")
        if self.bandwidth_mhz not in _BANDWIDTH_CODES:
            raise FrameError(f"unsupported bandwidth {self.bandwidth_mhz} MHz")
        if self.codebook not in (0, 1):
            raise FrameError("codebook must be 0 or 1")
        if not 1 <= self.num_subcarriers <= _MAX_SUBCARRIERS:
            raise FrameError(f"num_subcarriers must be in 1..{_MAX_SUBCARRIERS}")

    @property
    def quantization(self) -> QuantizationConfig:
        """Quantisation configuration implied by the codebook bit."""
        if self.codebook == 0:
            return QuantizationConfig(b_phi=7, b_psi=5)
        return QuantizationConfig(b_phi=9, b_psi=7)


@dataclass(frozen=True)
class FeedbackFrame:
    """A captured compressed-beamforming frame.

    Attributes
    ----------
    source_address:
        MAC address of the beamformee that sent the feedback.
    destination_address:
        MAC address of the beamformer (the AP under authentication).
    timestamp_s:
        Capture timestamp.
    payload:
        Raw frame bytes (control field + angle report).
    """

    source_address: str
    destination_address: str
    timestamp_s: float
    payload: bytes


@dataclass(frozen=True)
class _ReportPlan:
    """Field positions of one ``(M, N_SS, codebook)`` angle report.

    ``byte_index``/``shift``/``mask`` locate the fields of ``_PERIOD``
    sub-carriers (``stride_bits`` bytes) in codeword-column order, ``phi...,
    psi...`` per sub-carrier; ``bit_column``/``bit_index`` give the field and
    bit of each transmitted bit of one sub-carrier.
    """

    config: QuantizationConfig
    n_phi: int
    stride_bits: int
    byte_index: np.ndarray
    shift: np.ndarray
    mask: np.ndarray
    bit_column: np.ndarray
    bit_index: np.ndarray


#: Plans by ``(M, N_SS, codebook)``: 35 valid ``(M, N_SS)`` pairs x 2
#: codebooks bound it to 70 entries, whatever ``K`` the frames carry.
_PLANS: Dict[Tuple[int, int, int], _ReportPlan] = {}


def _report_plan(control: VhtMimoControl) -> _ReportPlan:
    key = (control.num_rows, control.num_columns, control.codebook)
    plan = _PLANS.get(key)
    if plan is not None:
        return plan
    config = control.quantization
    # One sub-carrier in transmission order: per i, a phi block then a psi block.
    order = angle_order(control.num_rows, control.num_columns)
    is_phi = np.array([kind == "phi" for kind, _, _ in order], dtype=bool)
    n_phi = int(is_phi.sum())
    column = np.where(is_phi, np.cumsum(is_phi) - 1, n_phi + np.cumsum(~is_phi) - 1)
    width = np.where(is_phi, config.b_phi, config.b_psi)
    start = np.cumsum(width) - width
    stride_bits = int(width.sum())
    by_column = np.argsort(column)
    bits = stride_bits * np.arange(_PERIOD, dtype=np.int64)[:, np.newaxis] + start[by_column]
    plan = _PLANS[key] = _ReportPlan(
        config=config,
        n_phi=n_phi,
        stride_bits=stride_bits,
        byte_index=bits.ravel() >> 3,
        shift=(bits.ravel() & 7).astype(np.uint16),
        mask=np.tile((1 << width[by_column]) - 1, _PERIOD).astype(np.uint16),
        bit_column=np.repeat(column, width),
        bit_index=np.arange(stride_bits, dtype=np.int64) - np.repeat(start, width),
    )
    return plan


def pack_feedback_frame(quantized: QuantizedAngles, control: VhtMimoControl) -> bytes:
    """Serialise a quantised feedback into frame bytes.

    The layout is: one magic byte, the 24-bit control field, then the angle
    report: for every sub-carrier, the angles in standard transmission
    order, ``b_phi``/``b_psi`` bits each.  The last byte is zero-padded.
    """
    if control.num_rows != quantized.num_tx:
        raise FrameError("control.num_rows must match the quantised feedback")
    if control.num_columns != quantized.num_streams:
        raise FrameError("control.num_columns must match the quantised feedback")
    if control.num_subcarriers != quantized.num_subcarriers:
        raise FrameError("control.num_subcarriers must match the quantised feedback")
    plan = _report_plan(control)
    if (plan.config.b_phi, plan.config.b_psi) != (quantized.config.b_phi, quantized.config.b_psi):
        raise FrameError("codebook bit inconsistent with the quantisation config")
    shape = (control.num_subcarriers, plan.n_phi)
    if quantized.q_phi.shape != shape or quantized.q_psi.shape != shape:
        raise FrameError(f"codeword arrays must have shape {shape}")
    codes = np.concatenate([quantized.q_phi, quantized.q_psi], axis=1)
    if codes.min() < 0 or np.any(codes > plan.mask[: codes.shape[1]]):
        raise FrameError("a codeword does not fit in its b_phi/b_psi bits")
    header = _FRAME_MAGIC | (control.num_columns - 1) << 8 | (control.num_rows - 1) << 11
    header |= _BANDWIDTH_CODES[control.bandwidth_mhz] << 14 | control.codebook << 16
    header |= control.num_subcarriers << 17  # bits 29-31 are reserved (zero)
    bits = (codes[:, plan.bit_column] >> plan.bit_index) & 1
    report = np.packbits(bits.ravel(), bitorder="little")
    return header.to_bytes(_HEADER_BYTES, "little") + report.tobytes()


@hot_path
def parse_feedback_frame(payload: bytes) -> Tuple[VhtMimoControl, QuantizedAngles]:
    """Parse frame bytes back into the control field and ``int16`` codewords.

    Every malformed frame raises :class:`FrameError`: a truncated control
    field, a bad magic byte, an invalid control field and a truncated angle
    report each with their own message.  Bytes after the report are ignored.
    """
    if len(payload) < _HEADER_BYTES:
        raise FrameError("frame truncated inside the control field")
    header = int.from_bytes(payload[:_HEADER_BYTES], "little")
    if header & 0xFF != _FRAME_MAGIC:
        raise FrameError("not a compressed beamforming frame (bad magic)")
    control = VhtMimoControl(
        num_columns=(header >> 8 & 0b111) + 1,
        num_rows=(header >> 11 & 0b111) + 1,
        bandwidth_mhz=_BANDWIDTH_FROM_CODE[header >> 14 & 0b11],
        codebook=header >> 16 & 1,
        num_subcarriers=header >> 17 & _MAX_SUBCARRIERS,
    )
    plan = _report_plan(control)
    end = frame_size_bytes(control)
    if len(payload) < end:
        raise FrameError("frame truncated while reading angle report")
    # windows[p, j] is the little-endian 16 bits at byte j of period p.  The
    # padding keeps every window inside the buffer; the masks and the K slice
    # drop whatever bits it adds.
    periods = -(-control.num_subcarriers // _PERIOD)
    windows = np.ndarray(
        (periods, plan.stride_bits),
        dtype="<u2",
        buffer=bytes(payload[:end]).ljust(_HEADER_BYTES + periods * plan.stride_bits + 1),
        offset=_HEADER_BYTES,
        strides=(plan.stride_bits, 1),
    )
    fields = (windows[:, plan.byte_index] >> plan.shift) & plan.mask
    codes = fields.view(np.int16).reshape(-1, 2 * plan.n_phi)[: control.num_subcarriers]
    return control, QuantizedAngles(
        q_phi=codes[:, : plan.n_phi],
        q_psi=codes[:, plan.n_phi :],
        config=plan.config,
        num_tx=control.num_rows,
        num_streams=control.num_columns,
    )


def frame_to_angles(payload: bytes) -> FeedbackAngles:
    """Parse a frame and de-quantise its angles in one step."""
    _, quantized = parse_feedback_frame(payload)
    return dequantize_angles(quantized)


def frame_size_bytes(control: VhtMimoControl) -> int:
    """Size of a packed frame for the given control configuration [bytes]."""
    report_bits = control.num_subcarriers * _report_plan(control).stride_bits
    return _HEADER_BYTES + (report_bits + 7) // 8
