"""Per-bit reference codec for VHT compressed-beamforming frames.

The straightforward bit-at-a-time implementation of the frame layout of
:mod:`repro.feedback.frames`: it walks the header fields and every angle
codeword one bit at a time, in the standard transmission order.  It is far
too slow for the observer, but it is obviously correct, so the parity suite
in ``tests/test_feedback_frames.py`` holds the vectorised codec to it.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.feedback.frames import FrameError, VhtMimoControl
from repro.feedback.givens import angle_counts
from repro.feedback.quantization import QuantizedAngles

FRAME_MAGIC = 0xBF
BANDWIDTH_CODES = {20: 0, 40: 1, 80: 2, 160: 3}
BANDWIDTH_FROM_CODE = {code: mhz for mhz, code in BANDWIDTH_CODES.items()}


class BitWriter:
    """Append integers as fixed-width little-endian bit fields."""

    def __init__(self) -> None:
        self._bits: List[int] = []

    def write(self, value: int, width: int) -> None:
        if value < 0 or value >= (1 << width):
            raise FrameError(f"value {value} does not fit in {width} bits")
        for bit in range(width):
            self._bits.append((value >> bit) & 1)

    def to_bytes(self) -> bytes:
        data = bytearray()
        for start in range(0, len(self._bits), 8):
            byte = 0
            for offset, bit in enumerate(self._bits[start : start + 8]):
                byte |= bit << offset
            data.append(byte)
        return bytes(data)


class BitReader:
    """Read fixed-width little-endian bit fields from a byte string."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._cursor = 0

    def read(self, width: int) -> int:
        value = 0
        for bit in range(width):
            index = self._cursor + bit
            byte_index, bit_index = divmod(index, 8)
            if byte_index >= len(self._data):
                raise FrameError("frame truncated while reading angle report")
            value |= ((self._data[byte_index] >> bit_index) & 1) << bit
        self._cursor += width
        return value


def _angle_blocks(num_rows: int, num_columns: int) -> List[int]:
    """Length of each (phi block, psi block) pair, in transmission order."""
    return [num_rows - 1 - i for i in range(min(num_columns, num_rows - 1))]


def pack_frame_bitwise(quantized: QuantizedAngles, control: VhtMimoControl) -> bytes:
    """Frame bytes of ``quantized``, written one bit at a time."""
    writer = BitWriter()
    writer.write(FRAME_MAGIC, 8)
    writer.write(control.num_columns - 1, 3)
    writer.write(control.num_rows - 1, 3)
    writer.write(BANDWIDTH_CODES[control.bandwidth_mhz], 2)
    writer.write(control.codebook, 1)
    writer.write(control.num_subcarriers, 12)
    writer.write(0, 3)  # reserved padding to a byte boundary
    b_phi, b_psi = quantized.config.b_phi, quantized.config.b_psi
    for k in range(quantized.num_subcarriers):
        phi_cursor = psi_cursor = 0
        for count in _angle_blocks(control.num_rows, control.num_columns):
            for _ in range(count):
                writer.write(int(quantized.q_phi[k, phi_cursor]), b_phi)
                phi_cursor += 1
            for _ in range(count):
                writer.write(int(quantized.q_psi[k, psi_cursor]), b_psi)
                psi_cursor += 1
    return writer.to_bytes()


def parse_frame_bitwise(payload: bytes) -> Tuple[VhtMimoControl, QuantizedAngles]:
    """Control field and codewords of a well-formed frame, read one bit at a time."""
    reader = BitReader(payload)
    if reader.read(8) != FRAME_MAGIC:
        raise FrameError("not a compressed beamforming frame (bad magic)")
    num_columns = reader.read(3) + 1
    num_rows = reader.read(3) + 1
    bandwidth_mhz = BANDWIDTH_FROM_CODE[reader.read(2)]
    codebook = reader.read(1)
    num_subcarriers = reader.read(12)
    reader.read(3)  # reserved
    control = VhtMimoControl(num_columns, num_rows, bandwidth_mhz, codebook, num_subcarriers)
    config = control.quantization
    n_phi, n_psi = angle_counts(num_rows, num_columns)
    q_phi = np.zeros((num_subcarriers, n_phi), dtype=np.int64)
    q_psi = np.zeros((num_subcarriers, n_psi), dtype=np.int64)
    for k in range(num_subcarriers):
        phi_cursor = psi_cursor = 0
        for count in _angle_blocks(num_rows, num_columns):
            for _ in range(count):
                q_phi[k, phi_cursor] = reader.read(config.b_phi)
                phi_cursor += 1
            for _ in range(count):
                q_psi[k, psi_cursor] = reader.read(config.b_psi)
                psi_cursor += 1
    quantized = QuantizedAngles(
        q_phi=q_phi, q_psi=q_psi, config=config, num_tx=num_rows, num_streams=num_columns
    )
    return control, quantized
