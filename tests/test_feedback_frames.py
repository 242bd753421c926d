"""Unit tests for the VHT compressed-beamforming frame packing/parsing.

The vectorised codec is held to the per-bit reference codec of
``tests/frame_oracle.py`` on every ``(M, N_SS, codebook)`` layout the
header can express.
"""

import numpy as np
import pytest

from repro.feedback import frames
from repro.feedback.frames import (
    FeedbackFrame,
    FrameError,
    VhtMimoControl,
    frame_size_bytes,
    frame_to_angles,
    pack_feedback_frame,
    parse_feedback_frame,
)
from repro.feedback.givens import angle_counts, compress_v_matrix
from repro.feedback.quantization import QuantizationConfig, QuantizedAngles, quantize_angles
from tests.conftest import random_unitary_columns
from tests.frame_oracle import pack_frame_bitwise, parse_frame_bitwise

#: Every (M, N_SS, codebook) layout the 3-bit and 1-bit header fields express.
LAYOUTS = [
    (rows, columns, codebook)
    for rows in range(2, 9)
    for columns in range(1, rows + 1)
    for codebook in (0, 1)
]
LAYOUT_IDS = [f"M{rows}-N{columns}-cb{codebook}" for rows, columns, codebook in LAYOUTS]
FILLS = ("random", "zeros", "max")


def make_quantized(rng, num_sub=16, num_tx=3, num_streams=2, b_phi=9, b_psi=7):
    v = random_unitary_columns(rng, num_sub, num_tx, num_streams)
    angles = compress_v_matrix(v)
    return quantize_angles(angles, QuantizationConfig(b_phi=b_phi, b_psi=b_psi))


def layout_codewords(layout, num_sub, fill="random"):
    """Control field and codewords of one layout: random, all-zero or all-max."""
    rows, columns, codebook = layout
    control = VhtMimoControl(columns, rows, 80, codebook, num_sub)
    config = control.quantization
    shape = (num_sub, angle_counts(rows, columns)[0])
    if fill == "random":
        rng = np.random.default_rng([rows, columns, codebook, num_sub])
        q_phi = rng.integers(0, config.phi_levels, shape, dtype=np.int16)
        q_psi = rng.integers(0, config.psi_levels, shape, dtype=np.int16)
    else:
        top = fill == "max"
        q_phi = np.full(shape, (config.phi_levels - 1) * top, dtype=np.int16)
        q_psi = np.full(shape, (config.psi_levels - 1) * top, dtype=np.int16)
    return control, QuantizedAngles(q_phi, q_psi, config, rows, columns)


def assert_parses_to(payload, control, quantized):
    """``payload`` parses to ``control`` and ``quantized``'s codewords, as int16."""
    parsed_control, parsed = parse_feedback_frame(payload)
    assert parsed_control == control
    assert parsed.q_phi.dtype == np.int16 and parsed.q_psi.dtype == np.int16
    np.testing.assert_array_equal(parsed.q_phi, quantized.q_phi)
    np.testing.assert_array_equal(parsed.q_psi, quantized.q_psi)
    assert parsed.config == quantized.config
    assert (parsed.num_tx, parsed.num_streams) == (quantized.num_tx, quantized.num_streams)


def make_control(quantized, bandwidth_mhz=80):
    return VhtMimoControl(
        num_columns=quantized.num_streams,
        num_rows=quantized.num_tx,
        bandwidth_mhz=bandwidth_mhz,
        codebook=1 if quantized.config.b_phi == 9 else 0,
        num_subcarriers=quantized.num_subcarriers,
    )


class TestVhtMimoControl:
    def test_codebook_implies_quantization(self):
        control = VhtMimoControl(2, 3, 80, 1, 234)
        assert control.quantization.b_phi == 9
        control = VhtMimoControl(2, 3, 80, 0, 234)
        assert control.quantization.b_phi == 7

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_columns=0, num_rows=3, bandwidth_mhz=80, codebook=1, num_subcarriers=10),
            dict(num_columns=2, num_rows=1, bandwidth_mhz=80, codebook=1, num_subcarriers=10),
            dict(num_columns=2, num_rows=3, bandwidth_mhz=30, codebook=1, num_subcarriers=10),
            dict(num_columns=2, num_rows=3, bandwidth_mhz=80, codebook=2, num_subcarriers=10),
            dict(num_columns=2, num_rows=3, bandwidth_mhz=80, codebook=1, num_subcarriers=0),
            dict(num_columns=2, num_rows=3, bandwidth_mhz=80, codebook=1, num_subcarriers=4096),
            dict(num_columns=4, num_rows=2, bandwidth_mhz=80, codebook=1, num_subcarriers=10),
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(FrameError):
            VhtMimoControl(**kwargs)


class TestFramePacking:
    def test_roundtrip_recovers_codewords_and_control(self, rng):
        quantized = make_quantized(rng)
        control = make_control(quantized)
        payload = pack_feedback_frame(quantized, control)
        parsed_control, parsed = parse_feedback_frame(payload)
        assert parsed_control == control
        np.testing.assert_array_equal(parsed.q_phi, quantized.q_phi)
        np.testing.assert_array_equal(parsed.q_psi, quantized.q_psi)

    def test_roundtrip_with_low_codebook(self, rng):
        quantized = make_quantized(rng, b_phi=7, b_psi=5)
        control = make_control(quantized)
        payload = pack_feedback_frame(quantized, control)
        _, parsed = parse_feedback_frame(payload)
        np.testing.assert_array_equal(parsed.q_phi, quantized.q_phi)
        assert parsed.config.b_phi == 7

    def test_roundtrip_single_stream(self, rng):
        quantized = make_quantized(rng, num_streams=1)
        control = make_control(quantized)
        payload = pack_feedback_frame(quantized, control)
        _, parsed = parse_feedback_frame(payload)
        np.testing.assert_array_equal(parsed.q_psi, quantized.q_psi)

    def test_payload_size_matches_prediction(self, rng):
        quantized = make_quantized(rng, num_sub=30)
        control = make_control(quantized)
        payload = pack_feedback_frame(quantized, control)
        assert len(payload) == frame_size_bytes(control)

    def test_frame_to_angles_dequantises(self, rng):
        quantized = make_quantized(rng)
        control = make_control(quantized)
        payload = pack_feedback_frame(quantized, control)
        angles = frame_to_angles(payload)
        assert angles.phi.shape == quantized.q_phi.shape
        assert np.all(angles.phi >= 0) and np.all(angles.phi < 2 * np.pi)

    def test_mismatched_control_rejected(self, rng):
        quantized = make_quantized(rng)
        bad_control = VhtMimoControl(
            num_columns=1,  # quantized feedback has 2 streams
            num_rows=quantized.num_tx,
            bandwidth_mhz=80,
            codebook=1,
            num_subcarriers=quantized.num_subcarriers,
        )
        with pytest.raises(FrameError):
            pack_feedback_frame(quantized, bad_control)

    def test_codebook_mismatch_rejected(self, rng):
        quantized = make_quantized(rng, b_phi=9, b_psi=7)
        control = VhtMimoControl(
            num_columns=quantized.num_streams,
            num_rows=quantized.num_tx,
            bandwidth_mhz=80,
            codebook=0,  # implies b_phi = 7
            num_subcarriers=quantized.num_subcarriers,
        )
        with pytest.raises(FrameError):
            pack_feedback_frame(quantized, control)

    def test_bad_magic_rejected(self, rng):
        quantized = make_quantized(rng)
        payload = pack_feedback_frame(quantized, make_control(quantized))
        corrupted = bytes([payload[0] ^ 0xFF]) + payload[1:]
        with pytest.raises(FrameError):
            parse_feedback_frame(corrupted)

    def test_truncated_frame_rejected(self, rng):
        quantized = make_quantized(rng)
        payload = pack_feedback_frame(quantized, make_control(quantized))
        with pytest.raises(FrameError):
            parse_feedback_frame(payload[: len(payload) // 2])


    def test_out_of_range_codeword_rejected(self, rng):
        quantized = make_quantized(rng, num_sub=4)
        q_psi = quantized.q_psi.copy()
        q_psi[3, 1] = quantized.config.psi_levels  # one past the 7-bit field
        too_wide = QuantizedAngles(
            quantized.q_phi, q_psi, quantized.config, quantized.num_tx, quantized.num_streams
        )
        with pytest.raises(FrameError, match="does not fit"):
            pack_feedback_frame(too_wide, make_control(quantized))

    def test_codeword_shape_mismatch_rejected(self, rng):
        quantized = make_quantized(rng, num_sub=4)
        narrow = QuantizedAngles(
            quantized.q_phi[:, :2],
            quantized.q_psi,
            quantized.config,
            quantized.num_tx,
            quantized.num_streams,
        )
        with pytest.raises(FrameError, match="shape"):
            pack_feedback_frame(narrow, make_control(quantized))


class TestCodecParity:
    """The vectorised codec against the per-bit oracle, layout by layout."""

    def test_layout_table_covers_every_header_layout(self):
        assert len(LAYOUTS) == 70

    @pytest.mark.parametrize("layout", LAYOUTS, ids=LAYOUT_IDS)
    def test_short_reports_match_the_oracle(self, layout):
        # Codebook 0 with an odd K ends the report inside a byte.
        for num_sub in (1, 3, 7):
            for fill in FILLS:
                control, quantized = layout_codewords(layout, num_sub, fill)
                payload = pack_feedback_frame(quantized, control)
                assert payload == pack_frame_bitwise(quantized, control)
                assert len(payload) == frame_size_bytes(control)
                assert_parses_to(payload, *parse_frame_bitwise(payload))

    @pytest.mark.parametrize("layout", LAYOUTS, ids=LAYOUT_IDS)
    def test_long_reports_match_the_oracle(self, layout):
        # Byte-identical packing plus an exact round trip pins the parse to
        # the oracle too; the short-report test checks the oracle's parse.
        control, quantized = layout_codewords(layout, 234)
        payload = pack_feedback_frame(quantized, control)
        assert payload == pack_frame_bitwise(quantized, control)
        assert_parses_to(payload, control, quantized)
        # The largest K the 12-bit field carries.
        control, quantized = layout_codewords(layout, 4095)
        payload = pack_feedback_frame(quantized, control)
        assert len(payload) == frame_size_bytes(control)
        assert_parses_to(payload, control, quantized)

    @pytest.mark.parametrize(
        "layout", [(2, 1, 0), (3, 2, 0), (3, 2, 1)], ids=["M2-N1-cb0", "M3-N2-cb0", "M3-N2-cb1"]
    )
    def test_largest_k_matches_the_oracle(self, layout):
        control, quantized = layout_codewords(layout, 4095)
        assert pack_feedback_frame(quantized, control) == pack_frame_bitwise(
            quantized, control
        )

    def test_any_cut_raises_frame_error(self):
        for layout in LAYOUTS:
            for num_sub in (1, 7):
                control, quantized = layout_codewords(layout, num_sub)
                payload = pack_feedback_frame(quantized, control)
                for cut in range(4):
                    with pytest.raises(FrameError, match="control field"):
                        parse_feedback_frame(payload[:cut])
                with pytest.raises(FrameError, match="angle report"):
                    parse_feedback_frame(payload[:-1])

    def test_trailing_bytes_are_ignored(self):
        control, quantized = layout_codewords((3, 2, 0), 7)
        payload = pack_feedback_frame(quantized, control)
        assert_parses_to(payload + b"\xff" * 9, control, quantized)

    def test_every_header_parses_or_raises_frame_error(self):
        # Every value of the N_SS, M, codebook fields, with K = 0 and 1.
        for columns_field in range(8):
            for rows_field in range(8):
                for codebook in (0, 1):
                    for num_sub in (0, 1):
                        header = (
                            0xBF
                            | columns_field << 8
                            | rows_field << 11
                            | 2 << 14
                            | codebook << 16
                            | num_sub << 17
                        )
                        payload = header.to_bytes(4, "little") + bytes(64)
                        columns, rows = columns_field + 1, rows_field + 1
                        if 2 <= rows and columns <= rows and num_sub == 1:
                            control, _ = parse_feedback_frame(payload)
                            assert (control.num_columns, control.num_rows) == (
                                columns,
                                rows,
                            )
                        else:
                            with pytest.raises(FrameError):
                                parse_feedback_frame(payload)

    def test_random_bytes_parse_or_raise_frame_error(self):
        rng = np.random.default_rng(14)
        for _ in range(2000):
            payload = bytearray(rng.integers(0, 256, rng.integers(0, 80), dtype=np.uint8))
            if payload:
                payload[0] = 0xBF  # get past the magic check
            try:
                parse_feedback_frame(bytes(payload))
            except FrameError:
                pass

    def test_more_columns_than_rows_raises_frame_error(self):
        control, quantized = layout_codewords((2, 2, 1), 3)
        payload = bytearray(pack_feedback_frame(quantized, control))
        payload[1] |= 0b011  # N_SS field 3 -> num_columns = 4 > M = 2
        with pytest.raises(FrameError, match="must not exceed"):
            parse_feedback_frame(bytes(payload))

    def test_plan_cache_is_bounded_by_layouts(self):
        for layout in LAYOUTS:
            for num_sub in (1, 2, 5, 234):
                control, quantized = layout_codewords(layout, num_sub, "zeros")
                parse_feedback_frame(pack_feedback_frame(quantized, control))
        assert len(frames._PLANS) <= 70
        assert set(frames._PLANS) <= set(LAYOUTS)


class TestFeedbackFrameDataclass:
    def test_carries_addresses_and_payload(self):
        frame = FeedbackFrame(
            source_address="02:00:00:00:00:01",
            destination_address="02:00:00:00:aa:00",
            timestamp_s=1.5,
            payload=b"\x00\x01",
        )
        assert frame.source_address.endswith(":01")
        assert frame.payload == b"\x00\x01"
