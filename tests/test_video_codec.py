"""End-to-end tests for the Figure-1 video encoder/decoder."""

import numpy as np
import pytest

from repro.video import (
    EncoderConfig,
    Frame,
    VideoDecoder,
    VideoEncoder,
    sequence_psnr,
)
from repro.video.bitstream import BitWriter
from repro.video.encoder import _halve_motion
from repro.video.motion import SEARCH_ALGORITHMS, MotionField
from repro.workloads.video_gen import (
    colour_sequence,
    moving_blocks_sequence,
    noise_sequence,
    static_sequence,
)


def roundtrip(frames, config=None):
    encoder = VideoEncoder(config)
    encoded = encoder.encode(frames)
    decoded = VideoDecoder().decode(encoded.data)
    return encoded, decoded


class TestRoundtrip:
    def test_shapes_and_count_preserved(self):
        frames = moving_blocks_sequence(num_frames=5, height=32, width=48)
        encoded, decoded = roundtrip(frames)
        assert len(decoded.frames) == 5
        assert decoded.frames[0].y.shape == (32, 48)

    def test_quality_acceptable_on_synthetic_video(self):
        frames = moving_blocks_sequence(num_frames=6, height=32, width=48, seed=1)
        _, decoded = roundtrip(
            frames, EncoderConfig(quality=90, code_chroma=False)
        )
        assert sequence_psnr(frames, decoded.frames) > 30.0

    def test_higher_quality_gives_higher_psnr_and_more_bits(self):
        frames = moving_blocks_sequence(num_frames=4, height=32, width=32, seed=2)
        enc_lo, dec_lo = roundtrip(
            frames, EncoderConfig(quality=20, code_chroma=False)
        )
        enc_hi, dec_hi = roundtrip(
            frames, EncoderConfig(quality=95, code_chroma=False)
        )
        assert enc_hi.total_bits > enc_lo.total_bits
        assert sequence_psnr(frames, dec_hi.frames) > sequence_psnr(
            frames, dec_lo.frames
        )

    def test_gop_structure(self):
        frames = static_sequence(num_frames=6)
        encoded, decoded = roundtrip(
            frames, EncoderConfig(gop_size=3, code_chroma=False)
        )
        assert [s.frame_type for s in encoded.frame_stats] == [
            "I", "P", "P", "I", "P", "P",
        ]
        assert decoded.frame_types == ["I", "P", "P", "I", "P", "P"]

    def test_intra_only_when_gop_is_one(self):
        frames = static_sequence(num_frames=3)
        encoded, _ = roundtrip(frames, EncoderConfig(gop_size=1, code_chroma=False))
        assert all(s.frame_type == "I" for s in encoded.frame_stats)

    def test_colour_roundtrip(self):
        frames = colour_sequence(num_frames=3)
        encoded, decoded = roundtrip(frames, EncoderConfig(quality=85))
        assert decoded.frames[0].cb.shape == frames[0].cb.shape
        cb_err = np.mean(np.abs(decoded.frames[0].cb - frames[0].cb))
        assert cb_err < 20.0

    def test_luma_array_input_accepted(self):
        frames = [np.full((16, 16), 128.0) for _ in range(2)]
        encoded, decoded = roundtrip(frames, EncoderConfig(code_chroma=False))
        assert isinstance(decoded.frames[0], Frame)


class TestCompression:
    def test_static_p_frames_cost_far_less_than_i_frames(self):
        frames = static_sequence(num_frames=4)
        encoded, _ = roundtrip(
            frames, EncoderConfig(gop_size=4, code_chroma=False)
        )
        i_bits = encoded.frame_stats[0].bits
        p_bits = [s.bits for s in encoded.frame_stats[1:]]
        # The first P frame re-codes the intra quantization noise; once the
        # loop settles, P frames on a static scene cost almost nothing.
        assert p_bits[0] < i_bits
        assert all(p < i_bits / 8 for p in p_bits[1:])

    def test_motion_estimation_reduces_bits_on_moving_content(self):
        frames = moving_blocks_sequence(
            num_frames=6, height=32, width=48, noise_sigma=0.5, seed=3
        )
        cfg_me = EncoderConfig(code_chroma=False, motion_enabled=True, gop_size=6)
        cfg_no = EncoderConfig(code_chroma=False, motion_enabled=False, gop_size=6)
        enc_me, _ = roundtrip(frames, cfg_me)
        enc_no, _ = roundtrip(frames, cfg_no)
        p_me = sum(s.bits for s in enc_me.frame_stats[1:])
        p_no = sum(s.bits for s in enc_no.frame_stats[1:])
        assert p_me < p_no

    def test_noise_is_incompressible(self):
        frames = noise_sequence(num_frames=2, height=32, width=32)
        encoded, _ = roundtrip(
            frames, EncoderConfig(quality=95, code_chroma=False)
        )
        # High-quality noise coding should cost well over 1 bit/pixel.
        assert encoded.total_bits > 32 * 32 * 2

    def test_rate_control_tracks_target(self):
        frames = moving_blocks_sequence(num_frames=8, height=32, width=48, seed=4)
        target = 60_000.0  # bits/s at 30 fps -> 2000 bits/frame
        cfg = EncoderConfig(
            target_bitrate=target, frame_rate=30.0, code_chroma=False, gop_size=4
        )
        encoded, _ = roundtrip(frames, cfg)
        mean_bits = encoded.mean_bits_per_frame()
        assert mean_bits == pytest.approx(target / 30.0, rel=0.75)
        steps = [s.quant_step for s in encoded.frame_stats]
        assert len(set(steps)) > 1  # controller actually adapted


class TestDecoderRobustness:
    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            VideoDecoder().decode(b"\x00\x00\x00\x00\x00\x00\x00\x00")

    def test_truncated_stream_raises(self):
        frames = static_sequence(num_frames=2)
        encoded, _ = roundtrip(frames, EncoderConfig(code_chroma=False))
        with pytest.raises((EOFError, ValueError)):
            VideoDecoder().decode(encoded.data[: len(encoded.data) // 3])


class TestConfigValidation:
    def test_bad_algorithm_rejected(self):
        with pytest.raises(ValueError, match="search algorithm"):
            EncoderConfig(search_algorithm="psychic")

    def test_bad_quality_rejected(self):
        with pytest.raises(ValueError):
            EncoderConfig(quality=0)

    def test_bad_gop_rejected(self):
        with pytest.raises(ValueError):
            EncoderConfig(gop_size=0)

    @pytest.mark.parametrize("block_size", [0, 4, 16])
    def test_unsupported_block_size_rejected(self, block_size):
        # The intra quantization matrix is 8x8: other sizes used to pass
        # here and fail later, mid-encode, on a shape mismatch.
        with pytest.raises(ValueError, match="unsupported block size"):
            EncoderConfig(block_size=block_size)

    def test_negative_search_range_rejected(self):
        with pytest.raises(ValueError, match="search range"):
            EncoderConfig(search_range=-1)

    @pytest.mark.parametrize("algorithm", sorted(SEARCH_ALGORITHMS))
    def test_zero_search_range_codes_zero_vectors(self, algorithm):
        frames = moving_blocks_sequence(num_frames=2, height=16, width=16)
        cfg = EncoderConfig(
            search_algorithm=algorithm, search_range=0, code_chroma=False
        )
        encoded, decoded = roundtrip(frames, cfg)
        assert encoded.frame_stats[1].me_evaluations == 4  # one per block
        assert len(decoded.frames) == 2

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            VideoEncoder().encode([])

    def test_mismatched_frame_sizes_rejected(self):
        frames = [np.zeros((16, 16)), np.zeros((32, 32))]
        with pytest.raises(ValueError):
            VideoEncoder().encode(frames)


INT32 = np.iinfo(np.int32)


def _halve_motion_loop(motion, chroma_shape, n):
    """The per-block loop ``_halve_motion`` replaced: the pinned behaviour."""
    by, bx = chroma_shape[0] // n, chroma_shape[1] // n
    dy = np.zeros((by, bx), dtype=np.int32)
    dx = np.zeros((by, bx), dtype=np.int32)
    ly, lx = motion.shape
    for i in range(by):
        for j in range(bx):
            si, sj = min(2 * i, ly - 1), min(2 * j, lx - 1)
            dy[i, j] = int(motion.dy[si, sj]) // 2
            dx[i, j] = int(motion.dx[si, sj]) // 2
    return dy, dx


class TestMotionSideInfo:
    """The MV writer and the chroma field, against per-value loops."""

    @pytest.mark.parametrize(
        "lo,hi",
        [(0, 0), (-3, 3), (-64, 64), (-(1 << 20), 1 << 20),
         (INT32.min, INT32.max)],
    )
    def test_motion_bits_equal_write_se(self, rng, lo, hi):
        shape = tuple(int(s) for s in rng.integers(1, 9, size=2))
        dy = rng.integers(lo, hi, size=shape, endpoint=True)
        dx = rng.integers(lo, hi, size=shape, endpoint=True)
        dy.flat[0], dx.flat[-1] = lo, hi
        field = MotionField(dy=dy, dx=dx, block_size=8)
        fast, slow = BitWriter(), BitWriter()
        for writer in (fast, slow):
            writer.write_bits(5, 3)  # start mid-byte
        VideoEncoder()._write_motion(fast, field)
        for value in np.stack((field.dy, field.dx), axis=-1).ravel():
            slow.write_se(int(value))
        assert len(fast) == len(slow)
        assert fast.getvalue() == slow.getvalue()

    @pytest.mark.parametrize(
        "luma,chroma",
        [((2, 2), (1, 1)), ((3, 5), (2, 3)), ((5, 3), (3, 2)),
         ((1, 1), (2, 3)), ((4, 6), (3, 5)), ((6, 8), (3, 4))],
    )
    def test_halve_motion_matches_block_loop(self, rng, luma, chroma):
        n = 8
        field = MotionField(
            dy=rng.integers(-15, 16, size=luma),
            dx=rng.integers(-15, 16, size=luma),
            block_size=n,
        )
        shape = (chroma[0] * n, chroma[1] * n)
        halved = _halve_motion(field, shape, n)
        dy, dx = _halve_motion_loop(field, shape, n)
        assert halved.dy.dtype == np.int32 and halved.dx.dtype == np.int32
        assert np.array_equal(halved.dy, dy)
        assert np.array_equal(halved.dx, dx)
        assert halved.block_size == n


class TestStats:
    def test_stage_ops_recorded(self):
        frames = moving_blocks_sequence(num_frames=3, height=16, width=16, seed=5)
        encoded, _ = roundtrip(frames, EncoderConfig(code_chroma=False, gop_size=3))
        i_stat = encoded.frame_stats[0]
        p_stat = encoded.frame_stats[1]
        assert "dct" in i_stat.stage_ops
        assert "motion_estimation" in p_stat.stage_ops
        assert p_stat.me_evaluations > 0
        assert i_stat.me_evaluations == 0

    def test_bits_accounting_sums_to_total(self):
        frames = static_sequence(num_frames=3)
        encoded, _ = roundtrip(frames, EncoderConfig(code_chroma=False))
        per_frame = sum(s.bits for s in encoded.frame_stats)
        # Header plus padding is the only difference.
        assert 0 <= encoded.total_bits - per_frame < 128
