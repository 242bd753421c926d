"""Seeded synthetic observer traffic: angle codewords and VHT frame bytes.

Every module of the benchmark draws its inputs from here, so the same
``--seed`` always yields the same frames.  Two things are generated:

* **codewords** -- :class:`~repro.feedback.quantization.QuantizedAngles` of
  ten synthetic transmitters.  Each transmitter has a fixed per-sub-carrier
  prototype (drawn from the model seed, not the run seed); a frame is its
  prototype plus seeded integer jitter, so the classifier has something to
  learn and every frame is distinct;
* **frame bytes** -- the same codewords packed into the VHT compressed
  beamforming layout of :mod:`repro.feedback.frames`.  The reference packer
  (:func:`~repro.feedback.frames.pack_feedback_frame`) costs ~2 ms per paper
  frame, which would add seconds of set-up to every frame workload, so
  :func:`pack_frames` packs a whole batch with one ``np.packbits`` call and
  :func:`check_packer` proves it byte-identical on a prefix of every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.datasets.containers import FeedbackSample
from repro.feedback.frames import (
    FeedbackFrame,
    VhtMimoControl,
    pack_feedback_frame,
)
from repro.feedback.givens import reconstruct_v_matrices_quantized
from repro.feedback.quantization import QuantizationConfig, QuantizedAngles

#: Paper geometry: two spatial streams fed back by a three-antenna beamformer.
NUM_TX = 3
NUM_STREAMS = 2
#: Codebook 1 of the paper's AP: (b_phi, b_psi) = (9, 7).
CODEBOOK = 1
QUANTIZATION = QuantizationConfig(b_phi=9, b_psi=7)
NUM_CLASSES = 10
#: Address every frame is sent to (the beamformer under authentication).
AP_ADDRESS = "02:00:00:00:ff:ff"

#: Half-widths of the uniform codeword jitter around a transmitter prototype.
PHI_JITTER = 6
PSI_JITTER = 3


def source_addresses(count: int) -> List[str]:
    """``count`` distinct beamformee MAC addresses."""
    return [f"02:00:00:00:{index // 256:02x}:{index % 256:02x}" for index in range(count)]


@dataclass
class Codewords:
    """A batch of frames as stacked codeword planes plus their true labels."""

    labels: np.ndarray  # (F,)
    q_phi: np.ndarray  # (F, K, n_phi) int16
    q_psi: np.ndarray  # (F, K, n_psi) int16

    def __len__(self) -> int:
        return len(self.labels)

    def quantized(self) -> List[QuantizedAngles]:
        """One :class:`QuantizedAngles` per frame (views into the planes)."""
        return [
            QuantizedAngles(
                q_phi=self.q_phi[index],
                q_psi=self.q_psi[index],
                config=QUANTIZATION,
                num_tx=NUM_TX,
                num_streams=NUM_STREAMS,
            )
            for index in range(len(self))
        ]


class TrafficModel:
    """Per-transmitter codeword prototypes for ``num_subcarriers`` tones."""

    def __init__(self, num_subcarriers: int, model_seed: int = 0) -> None:
        self.num_subcarriers = num_subcarriers
        rng = np.random.default_rng(model_seed)
        shape = (NUM_CLASSES, num_subcarriers, 3)
        self._phi = rng.integers(0, QUANTIZATION.phi_levels, shape)
        self._psi = rng.integers(0, QUANTIZATION.psi_levels, shape)

    def draw(self, rng: np.random.Generator, count: int) -> Codewords:
        """``count`` frames of uniformly drawn transmitters."""
        labels = rng.integers(0, NUM_CLASSES, count)
        shape = (count, self.num_subcarriers, 3)
        phi = self._phi[labels] + rng.integers(-PHI_JITTER, PHI_JITTER + 1, shape)
        psi = self._psi[labels] + rng.integers(-PSI_JITTER, PSI_JITTER + 1, shape)
        return Codewords(
            labels=labels,
            q_phi=np.mod(phi, QUANTIZATION.phi_levels).astype(np.int16),
            q_psi=np.clip(psi, 0, QUANTIZATION.psi_levels - 1).astype(np.int16),
        )

    def training_samples(self, rng: np.random.Generator, count: int) -> List[FeedbackSample]:
        """Labelled ``V~`` samples reconstructed from fresh codewords."""
        batch = self.draw(rng, count)
        v_tilde = reconstruct_v_matrices_quantized(
            batch.q_phi, batch.q_psi, QUANTIZATION, NUM_TX, NUM_STREAMS
        )
        return [
            FeedbackSample(v_tilde=v_tilde[index], module_id=int(label), beamformee_id=1)
            for index, label in enumerate(batch.labels)
        ]

    def control(self) -> VhtMimoControl:
        """The VHT MIMO control field every generated frame carries."""
        return VhtMimoControl(
            num_columns=NUM_STREAMS,
            num_rows=NUM_TX,
            bandwidth_mhz=80,
            codebook=CODEBOOK,
            num_subcarriers=self.num_subcarriers,
        )


def _bits(values: np.ndarray, width: int) -> np.ndarray:
    """Little-endian bit planes of ``values``: shape ``values.shape + (width,)``."""
    return ((values[..., np.newaxis] >> np.arange(width)) & 1).astype(np.uint8)


def pack_frames(batch: Codewords, control: VhtMimoControl) -> np.ndarray:
    """Pack every frame of ``batch`` at once; returns ``(F, frame_bytes)`` uint8.

    Same layout as :func:`~repro.feedback.frames.pack_feedback_frame`: magic
    byte, control field, then per sub-carrier the angles in transmission
    order (for each ``i``: its ``phi`` block, then its ``psi`` block), every
    field little-endian bit-first.
    """
    header = np.concatenate(
        [
            _bits(np.array(value), width)
            for value, width in (
                (0xBF, 8),
                (control.num_columns - 1, 3),
                (control.num_rows - 1, 3),
                (2, 2),  # 80 MHz bandwidth code
                (control.codebook, 1),
                (control.num_subcarriers, 12),
                (0, 3),
            )
        ]
    )
    fields = []
    phi_cursor = psi_cursor = 0
    for i in range(min(control.num_columns, control.num_rows - 1)):
        count = control.num_rows - 1 - i
        for _ in range(count):
            fields.append(_bits(batch.q_phi[..., phi_cursor], QUANTIZATION.b_phi))
            phi_cursor += 1
        for _ in range(count):
            fields.append(_bits(batch.q_psi[..., psi_cursor], QUANTIZATION.b_psi))
            psi_cursor += 1
    report = np.concatenate(fields, axis=-1).reshape(len(batch), -1)
    bits = np.concatenate([np.broadcast_to(header, (len(batch), header.size)), report], axis=1)
    return np.packbits(bits, axis=1, bitorder="little")


def to_frames(payloads: np.ndarray, sources: Sequence[str]) -> List[FeedbackFrame]:
    """Wrap packed payload rows as sniffed frames, sources round-robin."""
    return [
        FeedbackFrame(
            source_address=sources[index % len(sources)],
            destination_address=AP_ADDRESS,
            timestamp_s=0.0,
            payload=row.tobytes(),
        )
        for index, row in enumerate(payloads)
    ]


def check_packer(
    batch: Codewords, payloads: np.ndarray, control: VhtMimoControl, count: int
) -> None:
    """Raise unless the first ``count`` payloads equal the reference packer's bytes."""
    for index, quantized in enumerate(batch.quantized()[:count]):
        expected = pack_feedback_frame(quantized, control)
        if payloads[index].tobytes() != expected:
            raise AssertionError(f"vectorised frame {index} differs from pack_feedback_frame")

