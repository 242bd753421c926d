"""Simulated monitor-mode capture of the channel-sounding exchange.

In the paper the observer runs Wireshark on an off-the-shelf laptop set to
monitor mode, records every VHT compressed-beamforming frame in the air and
later groups them by the source MAC address (the beamformee that sent the
feedback).  This module reproduces that workflow against the simulated
network:

* :class:`SoundingSimulator` drives one sounding round: the AP sends an NDP,
  every beamformee estimates the CFR, computes ``V``, compresses and
  quantises it and transmits the feedback frame.
* :class:`MonitorCapture` is the passive observer: it stores frames, can
  filter them by source/destination address and reconstructs ``V~`` from the
  captured payloads - exactly the information DeepCSI has access to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.feedback.frames import (
    FeedbackFrame,
    VhtMimoControl,
    pack_feedback_frame,
    parse_feedback_frame,
)
from repro.feedback.givens import compress_v_matrix, reconstruct_v_matrices_quantized
from repro.feedback.quantization import (
    QuantizationConfig,
    quantize_angles,
    stack_quantized_angles,
)
from repro.phy.channel import MultipathChannel
from repro.phy.devices import AccessPoint, Beamformee
from repro.phy.mimo import beamforming_matrix, compute_cfr
from repro.phy.ofdm import SubcarrierLayout


def station_mac(station_id: int) -> str:
    """Deterministic MAC address for a simulated beamformee."""
    return f"02:00:00:00:00:{station_id:02x}"


def access_point_mac(module_id: int) -> str:
    """Deterministic MAC address for a simulated AP module."""
    return f"02:00:00:00:ap:{module_id:02x}".replace("ap", "aa")


@dataclass(frozen=True)
class CapturedFeedback:
    """A parsed feedback: what DeepCSI reconstructs from one captured frame.

    Attributes
    ----------
    v_tilde:
        Reconstructed beamforming matrix ``V~`` of shape ``(K, M, N_SS)``.
    source_address / destination_address:
        Addresses read from the captured frame.
    timestamp_s:
        Capture timestamp.
    """

    v_tilde: np.ndarray
    source_address: str
    destination_address: str
    timestamp_s: float


@dataclass
class MonitorCapture:
    """Passive monitor-mode capture buffer."""

    frames: List[FeedbackFrame] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.frames)

    def record(self, frame: FeedbackFrame) -> None:
        """Store a sniffed frame."""
        self.frames.append(frame)

    def filter(
        self,
        source_address: Optional[str] = None,
        destination_address: Optional[str] = None,
    ) -> List[FeedbackFrame]:
        """Frames matching the given source and/or destination address."""
        result = []
        for frame in self.frames:
            if source_address is not None and frame.source_address != source_address:
                continue
            if (
                destination_address is not None
                and frame.destination_address != destination_address
            ):
                continue
            result.append(frame)
        return result

    def source_addresses(self) -> List[str]:
        """Distinct source addresses seen in the capture, sorted.

        One entry per beamformee that transmitted feedback; the streaming
        service shards its workload by exactly these addresses.
        """
        return sorted({frame.source_address for frame in self.frames})

    def reconstruct(
        self,
        source_address: Optional[str] = None,
        destination_address: Optional[str] = None,
    ) -> List[CapturedFeedback]:
        """Parse and de-quantise every matching frame into ``V~`` matrices.

        Frames are grouped by quantisation configuration and ``(K, M, N_SS)``
        geometry, and every group is rebuilt straight from its codewords in
        one vectorised call
        (:func:`~repro.feedback.givens.reconstruct_v_matrices_quantized`,
        bit-identical to de-quantising the angles and then reconstructing).
        The matrices come back in the capture's frame order.
        """
        frames = self.filter(source_address, destination_address)
        parsed = [parse_feedback_frame(frame.payload)[1] for frame in frames]
        groups: Dict[tuple, List[int]] = {}
        for index, quantized in enumerate(parsed):
            key = (
                quantized.config,
                quantized.num_tx,
                quantized.num_streams,
                quantized.num_subcarriers,
            )
            groups.setdefault(key, []).append(index)
        v_tildes: List[Optional[np.ndarray]] = [None] * len(frames)
        for indices in groups.values():
            q_phi, q_psi, config, num_tx, num_streams = stack_quantized_angles(
                [parsed[index] for index in indices]
            )
            v_batch = reconstruct_v_matrices_quantized(
                q_phi, q_psi, config, num_tx, num_streams
            )
            for position, index in enumerate(indices):
                v_tildes[index] = v_batch[position]
        return [
            CapturedFeedback(
                v_tilde=v_tilde,
                source_address=frame.source_address,
                destination_address=frame.destination_address,
                timestamp_s=frame.timestamp_s,
            )
            for frame, v_tilde in zip(frames, v_tildes)
        ]

    def clear(self) -> None:
        """Drop every stored frame."""
        self.frames.clear()


@dataclass
class SoundingSimulator:
    """End-to-end simulator of the DL MU-MIMO channel-sounding procedure.

    Attributes
    ----------
    access_point:
        The beamformer under authentication.
    beamformees:
        Stations that reply with compressed beamforming feedback.
    channel:
        Multipath environment.
    layout:
        Sub-carrier layout of the sounded channel.
    quantization:
        Quantisation configuration announced in the VHT MIMO control field.
    snr_db:
        Channel-estimation SNR at the beamformees.
    sounding_interval_s:
        Time between consecutive soundings (used for frame timestamps).
    pa_flip_probability:
        Probability of a per-packet ``pi`` phase ambiguity on each transmit
        antenna (see :class:`repro.phy.impairments.PacketOffsets`).
    """

    access_point: AccessPoint
    beamformees: Sequence[Beamformee]
    channel: MultipathChannel
    layout: SubcarrierLayout
    quantization: QuantizationConfig = field(default_factory=QuantizationConfig)
    snr_db: float = 30.0
    sounding_interval_s: float = 0.5
    pa_flip_probability: float = 0.5
    _clock_s: float = 0.0

    def __post_init__(self) -> None:
        if not self.beamformees:
            raise ValueError("at least one beamformee is required")
        if self.quantization.b_phi == 7:
            self._codebook = 0
        elif self.quantization.b_phi == 9:
            self._codebook = 1
        else:
            raise ValueError(
                "frame packing requires a standard codebook (b_phi in {7, 9})"
            )

    def sound_once(
        self, rng: np.random.Generator, capture: Optional[MonitorCapture] = None
    ) -> List[FeedbackFrame]:
        """Run one sounding round and return the feedback frames on the air.

        If ``capture`` is given, every frame is also recorded there (the
        observer sniffing the channel).
        """
        frames: List[FeedbackFrame] = []
        for beamformee in self.beamformees:
            cfr = compute_cfr(
                self.access_point,
                beamformee,
                self.channel,
                self.layout,
                rng,
                snr_db=self.snr_db,
                pa_flip_probability=self.pa_flip_probability,
            )
            v_matrix = beamforming_matrix(cfr, beamformee.num_streams)
            angles = compress_v_matrix(v_matrix)
            quantized = quantize_angles(angles, self.quantization)
            control = VhtMimoControl(
                num_columns=beamformee.num_streams,
                num_rows=self.access_point.num_antennas,
                bandwidth_mhz=self.layout.config.bandwidth_mhz,
                codebook=self._codebook,
                num_subcarriers=self.layout.num_subcarriers,
            )
            payload = pack_feedback_frame(quantized, control)
            frame = FeedbackFrame(
                source_address=station_mac(beamformee.station_id),
                destination_address=access_point_mac(
                    self.access_point.module.module_id
                ),
                timestamp_s=self._clock_s,
                payload=payload,
            )
            frames.append(frame)
            if capture is not None:
                capture.record(frame)
        self._clock_s += self.sounding_interval_s
        return frames

    def sound_many(
        self,
        num_soundings: int,
        rng: np.random.Generator,
        capture: Optional[MonitorCapture] = None,
    ) -> List[FeedbackFrame]:
        """Run ``num_soundings`` consecutive sounding rounds."""
        if num_soundings < 1:
            raise ValueError("num_soundings must be >= 1")
        frames: List[FeedbackFrame] = []
        for _ in range(num_soundings):
            frames.extend(self.sound_once(rng, capture=capture))
        return frames
