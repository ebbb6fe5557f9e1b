"""Equivalence pins for the batched block-transform pipeline (R6).

Every batched stage must be *bit-identical* to its scalar reference — same
coefficients, same levels, same (run, level) events, same bitstream bytes —
kernel by kernel, codec by codec, and across every registered runtime
scenario (digest comparison over whole engine workloads).
"""

import ast
import hashlib
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import repro
from repro.image.jpeg import JpegLikeCodec
from repro.video.bitstream import BitReader, BitWriter
from repro.video.blockpipe import (
    plane_to_vectors,
    read_plane_vectors,
    vectors_to_plane,
    write_plane_vectors,
)
from repro.video.dct import (
    blocked_dct_2d,
    blocked_idct_2d,
    dct_2d,
    idct_2d,
    tile_blocks,
    untile_blocks,
)
from repro.video.decoder import VideoDecoder
from repro.video.encoder import EncoderConfig, VideoEncoder
from repro.video.quant import INTRA_BASE, dequantize, quantize, scaled_matrix
from repro.video.rle import EOB, batch_run_levels, encode_block, encode_blocks
from repro.runtime.scenarios import REGISTRY
from repro.video.zigzag import (
    inverse_zigzag,
    inverse_zigzag_blocks,
    inverse_zigzag_reference,
    zigzag,
    zigzag_blocks,
    zigzag_reference,
)
from repro.workloads.video_gen import moving_blocks_sequence

#: Smallest viable parameterisation per registered scenario (mirrors the
#: scheduler determinism sweep in ``tests/test_runtime_schedulers.py``).
SMALL = {
    "quickstart": {"frames": 8},
    "videoconferencing": {"frames": 8},
    "set_top_box": {"frames": 8},
    "dvr": {"frames": 8},
    "surveillance": {"cameras": 2, "frames": 8},
    "video_wall": {"tiles": 2, "frames": 8},
    "transcode_farm": {"workers": 2, "clips": 1, "frames": 16},
    "portable_player": {},
    "podcast_farm": {"workers": 2, "episodes": 1},
    "conference_bridge": {"narrowband": 1, "wideband": 1},
}


def frame(seed=0, shape=(48, 64)):
    rng = np.random.default_rng(seed)
    return np.floor(rng.uniform(0, 256, size=shape))


class TestTiling:
    def test_tile_untile_roundtrip(self):
        img = frame(1, (24, 32))
        assert np.array_equal(untile_blocks(tile_blocks(img, 8), img.shape), img)

    def test_tile_order_is_row_major_blocks(self):
        img = frame(2, (16, 24))
        tiles = tile_blocks(img, 8)
        assert np.array_equal(tiles[0], img[:8, :8])
        assert np.array_equal(tiles[2], img[:8, 16:24])
        assert np.array_equal(tiles[3], img[8:, :8])

    def test_non_multiple_rejected(self):
        with pytest.raises(ValueError):
            tile_blocks(np.zeros((10, 16)), 8)
        with pytest.raises(ValueError):
            untile_blocks(np.zeros((3, 8, 8)), (16, 16))


class TestBlockedDct:
    def test_bitwise_equal_to_per_block_dct(self):
        img = frame(3, (64, 80)) - 128.0
        tiles = tile_blocks(img, 8)
        batched = blocked_dct_2d(tiles)
        for b, tile in enumerate(tiles):
            assert np.array_equal(batched[b], dct_2d(tile))

    def test_bitwise_equal_to_per_block_idct(self):
        coeffs = blocked_dct_2d(tile_blocks(frame(4, (32, 40)), 8))
        batched = blocked_idct_2d(coeffs)
        for b in range(coeffs.shape[0]):
            assert np.array_equal(batched[b], idct_2d(coeffs[b]))

    def test_rejects_non_batched_input(self):
        with pytest.raises(ValueError):
            blocked_dct_2d(np.zeros((8, 8)))
        with pytest.raises(ValueError):
            blocked_idct_2d(np.zeros((8, 8)))


class TestZigzagFastPaths:
    def test_gather_matches_reference_scan(self):
        rng = np.random.default_rng(5)
        for n in (2, 4, 8, 16):
            block = rng.integers(-100, 100, size=(n, n)).astype(np.int32)
            assert np.array_equal(zigzag(block), zigzag_reference(block))

    def test_inverse_matches_reference(self):
        rng = np.random.default_rng(6)
        for n in (2, 4, 8):
            vec = rng.integers(-100, 100, size=n * n).astype(np.int32)
            assert np.array_equal(
                inverse_zigzag(vec, n), inverse_zigzag_reference(vec, n)
            )

    def test_batched_rows_match_per_block_scan(self):
        rng = np.random.default_rng(7)
        blocks = rng.integers(-50, 50, size=(12, 8, 8)).astype(np.int32)
        vectors = zigzag_blocks(blocks)
        for b in range(12):
            assert np.array_equal(vectors[b], zigzag(blocks[b]))
        assert np.array_equal(inverse_zigzag_blocks(vectors, 8), blocks)

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            zigzag_blocks(np.zeros((3, 4, 8)))
        with pytest.raises(ValueError):
            inverse_zigzag_blocks(np.zeros((3, 63)), 8)


class TestBatchRunLevels:
    def test_matches_scalar_encode_block(self):
        rng = np.random.default_rng(8)
        vectors = rng.integers(-3, 4, size=(20, 63)).astype(np.int32)
        assert encode_blocks(vectors) == [encode_block(v) for v in vectors]

    def test_all_zero_rows_are_just_eob(self):
        vectors = np.zeros((4, 63), dtype=np.int32)
        assert encode_blocks(vectors) == [[EOB]] * 4

    def test_event_slices_line_up(self):
        vectors = np.array([[0, 5, 0, -2], [0, 0, 0, 0], [1, 0, 0, 3]])
        starts, runs, levels = batch_run_levels(vectors)
        assert starts.tolist() == [0, 2, 2, 4]
        assert runs.tolist() == [1, 1, 0, 2]
        assert levels.tolist() == [5, -2, 1, 3]

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            batch_run_levels(np.zeros(8))


@settings(max_examples=40, deadline=None)
@given(
    arrays(np.int32, (6, 20), elements=st.integers(-30, 30)),
)
def test_batch_run_levels_property(vectors):
    assert encode_blocks(vectors) == [encode_block(v) for v in vectors]


class TestWriteMany:
    def test_matches_per_field_write_bits(self):
        rng = np.random.default_rng(9)
        widths = rng.integers(1, 24, size=200)
        values = np.array(
            [int(rng.integers(0, 1 << w)) for w in widths], dtype=np.int64
        )
        a, b = BitWriter(), BitWriter()
        a.write_bits(5, 3)  # start both mid-byte
        b.write_bits(5, 3)
        a.write_many(values, widths)
        for v, w in zip(values.tolist(), widths.tolist()):
            b.write_bits(v, w)
        assert len(a) == len(b)
        assert a.getvalue() == b.getvalue()

    def test_rejects_oversized_values(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write_many([4], [2])
        with pytest.raises(ValueError):
            w.write_many([1], [64])

    def test_empty_is_noop(self):
        w = BitWriter()
        w.write_many([], [])
        assert len(w) == 0


class TestPlaneRoundtrip:
    def test_write_then_read_plane_vectors(self):
        from repro.video import codec_tables as tables

        matrix = scaled_matrix(INTRA_BASE, 60)
        _, vectors = plane_to_vectors(frame(10) - 128.0, matrix, 8)
        writer = BitWriter()
        last_dc = write_plane_vectors(writer, vectors, 8, 0)
        assert last_dc == int(vectors[-1, 0])
        reader = BitReader(writer.getvalue())
        back, _ = read_plane_vectors(
            reader,
            vectors.shape[0],
            8,
            0,
            tables.default_ac_codec(8),
            tables.default_dc_codec(8),
            tables.eob_symbol(8),
        )
        assert np.array_equal(back, vectors)

    def test_vectors_to_plane_matches_scalar_chain(self):
        matrix = scaled_matrix(INTRA_BASE, 60)
        plane = frame(11) - 128.0
        _, vectors = plane_to_vectors(plane, matrix, 8)
        batched = vectors_to_plane(vectors, matrix, 8, plane.shape)
        for b in range(vectors.shape[0]):
            y, x = divmod(b, plane.shape[1] // 8)
            block = idct_2d(
                dequantize(
                    inverse_zigzag(vectors[b], 8).astype(np.float64), matrix
                )
            )
            assert np.array_equal(
                batched[8 * y:8 * y + 8, 8 * x:8 * x + 8], block
            )


class TestCodecEquivalence:
    """Batched vs scalar reference, whole-codec bitstream equality."""

    def sequence(self):
        return [
            np.floor(f)
            for f in moving_blocks_sequence(
                num_frames=8, height=48, width=64, seed=12
            )
        ]

    def test_video_encoder_bit_identical(self):
        cfg = EncoderConfig(quality=70, gop_size=4, target_bitrate=300_000.0)
        frames = self.sequence()
        fast = VideoEncoder(cfg, batched=True).encode(frames)
        ref = VideoEncoder(cfg, batched=False).encode(frames)
        assert fast.data == ref.data
        assert [s.stage_ops for s in fast.frame_stats] == [
            s.stage_ops for s in ref.frame_stats
        ]

    def test_video_decoder_bit_identical(self):
        cfg = EncoderConfig(quality=70, gop_size=4)
        data = VideoEncoder(cfg).encode(self.sequence()).data
        fast = VideoDecoder(batched=True).decode(data)
        ref = VideoDecoder(batched=False).decode(data)
        for a, b in zip(fast.frames, ref.frames):
            assert np.array_equal(a.y, b.y)
            assert np.array_equal(a.cb, b.cb)
            assert np.array_equal(a.cr, b.cr)
        assert fast.stage_ops == ref.stage_ops

    def test_jpeg_bit_identical(self):
        img = frame(13, (60, 90))  # non-multiple of 8: exercises padding
        fast = JpegLikeCodec(batched=True).encode(img, quality=55)
        ref = JpegLikeCodec(batched=False).encode(img, quality=55)
        assert fast.data == ref.data
        assert np.array_equal(
            JpegLikeCodec(batched=True).decode(fast),
            JpegLikeCodec(batched=False).decode(ref),
        )

    def test_out_of_alphabet_symbols_fail_loudly_on_both_paths(self):
        # Regression: the batched field tables must reject symbols the
        # Huffman codecs never assigned (absurd out-of-range inputs) with
        # the same KeyError the scalar path raises — never emit a
        # zero-width field and a silently corrupt stream.
        wild = np.full((8, 8), 1e6)
        wild[0, 1] = -1e6  # huge AC level -> magnitude category > 12
        with pytest.raises(KeyError):
            JpegLikeCodec(batched=False).encode(wild, quality=50)
        with pytest.raises(KeyError):
            JpegLikeCodec(batched=True).encode(wild, quality=50)

    @pytest.mark.parametrize(
        "codec", [VideoEncoder, VideoDecoder, JpegLikeCodec],
        ids=lambda c: c.__name__,
    )
    def test_pipeline_is_chosen_per_instance(self, codec):
        # The batched path is the default; the scalar oracle is picked by
        # argument only, never by state shared between instances.
        scalar = codec(batched=False)
        assert codec().batched is True and codec(batched=True).batched is True
        assert scalar.batched is False


@pytest.mark.parametrize("package", ["video", "audio", "image"])
def test_codec_packages_rebind_no_globals(package):
    """The codecs hold no process-global state: no ``global`` statement
    anywhere in their packages."""
    root = Path(repro.__file__).parent / package
    rebinds = [
        f"{path.name}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Global)
    ]
    assert rebinds == []


def _scenario_digests(scenario, overrides):
    """Run every session of a scenario to completion; digest its outputs."""
    digests = {}
    for session in scenario.sessions(**overrides):
        session.run_to_completion()
        h = hashlib.sha256(session.output_bytes())
        for seg in session.segments:
            for luma in seg.extras.get("luma", []):
                h.update(np.ascontiguousarray(luma).tobytes())
        digests[session.name] = h.hexdigest()
    return digests


@pytest.mark.parametrize(
    "scenario_name", sorted(s.name for s in REGISTRY)
)
def test_batched_pipeline_bit_identical_on_every_scenario(
    scenario_name, monkeypatch
):
    """R6 acceptance: bitstream digests match the scalar reference path on
    every registered scenario (encode, decode, transcode, and analysis
    sessions alike).  The scalar run rebinds the codec names the runtime
    constructs from to ``batched=False`` factories."""
    scenario = REGISTRY.get(scenario_name)
    overrides = SMALL.get(scenario_name, {})
    fast = _scenario_digests(scenario, overrides)
    for target, codec in (
        ("repro.runtime.session.VideoEncoder", VideoEncoder),
        ("repro.runtime.session.VideoDecoder", VideoDecoder),
        ("repro.runtime.scenarios.VideoEncoder", VideoEncoder),
    ):
        monkeypatch.setattr(target, partial(codec, batched=False))
    ref = _scenario_digests(scenario, overrides)
    assert fast == ref
