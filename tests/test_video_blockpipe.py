"""Equivalence pins for the batched block-transform pipeline (R6).

Every batched stage must be *bit-identical* to its scalar reference — same
coefficients, same levels, same (run, level) events, same bitstream bytes —
kernel by kernel, codec by codec, and across every registered runtime
scenario (digest comparison over whole engine workloads).
"""

import ast
from functools import lru_cache, partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import repro
from repro.image.jpeg import MAGIC as JPEG_MAGIC, JpegLikeCodec
from repro.video import codec_tables as tables
from repro.video.bitstream import BitReader, BitWriter
from repro.video.blockpipe import (
    plane_to_vectors,
    read_plane_vectors,
    read_plane_vectors_reference,
    vectors_to_plane,
    write_plane_vectors,
    write_plane_vectors_reference,
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
from repro.video.huffman import HuffmanCodec
from repro.video.quant import INTRA_BASE, dequantize, quantize, scaled_matrix
from repro.video.rle import EOB, RunLevel, batch_run_levels, encode_block
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

from strategies.registry import (
    assert_equivalent,
    plane_parse_outcome,
    plane_vector_streams,
)
from strategies.scenario_pin import scenario_digests


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


def batch_events(vectors):
    """:func:`batch_run_levels` per block, in ``encode_block``'s form."""
    starts, runs, levels = batch_run_levels(vectors)
    return [
        [RunLevel(int(r), int(v)) for r, v in zip(runs[a:b], levels[a:b])]
        + [EOB]
        for a, b in zip(starts[:-1], starts[1:])
    ]


class TestBatchRunLevels:
    def test_matches_scalar_encode_block(self):
        rng = np.random.default_rng(8)
        vectors = rng.integers(-3, 4, size=(20, 63)).astype(np.int32)
        assert batch_events(vectors) == [encode_block(v) for v in vectors]

    def test_all_zero_rows_are_just_eob(self):
        vectors = np.zeros((4, 63), dtype=np.int32)
        assert batch_events(vectors) == [encode_block(v) for v in vectors]
        assert batch_events(vectors) == [[EOB]] * 4

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
    assert batch_events(vectors) == [encode_block(v) for v in vectors]


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
        matrix = scaled_matrix(INTRA_BASE, 60)
        _, vectors = plane_to_vectors(frame(10) - 128.0, matrix, 8)
        writer = BitWriter()
        last_dc = write_plane_vectors(writer, vectors, 8, 0)
        assert last_dc == int(vectors[-1, 0])
        reader = BitReader(writer.getvalue())
        (back,) = read_plane_vectors(
            reader,
            [vectors.shape[0]],
            8,
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


    def test_stacked_frames_take_one_matrix_each(self):
        """A segment's frames stacked into one tall plane, each under its
        own matrix, reconstruct as each frame alone does."""
        matrices = [scaled_matrix(INTRA_BASE, 60), np.full((8, 8), 7.5)]
        planes = [frame(12) - 128.0, frame(13) - 128.0]
        vectors = [
            plane_to_vectors(plane, matrix, 8)[1]
            for plane, matrix in zip(planes, matrices)
        ]
        stacked = vectors_to_plane(
            np.concatenate(vectors), np.stack(matrices), 8, (96, 64)
        )
        alone = [
            vectors_to_plane(v, matrix, 8, (48, 64))
            for v, matrix in zip(vectors, matrices)
        ]
        assert np.array_equal(stacked, np.concatenate(alone))


@lru_cache(maxsize=2)
def _holey_codecs(n):
    """The default codecs minus a few short codes: canonical codes are
    reassigned, and the freed patterns decode as invalid codes."""
    ac = tables.default_ac_codec(n)
    dc = tables.default_dc_codec(n)
    drop_ac = {tables.pack_ac(0, 2), tables.pack_ac(1, 2)}
    return (
        HuffmanCodec(
            {s: w for s, w in ac.lengths.items() if s not in drop_ac}
        ),
        HuffmanCodec({s: w for s, w in dc.lengths.items() if s != 2}),
    )


DAMAGE = ("none", "resplit", "truncate", "flip", "overrun", "invalid",
          "more_blocks")


@st.composite
def damaged_plane_streams(draw):
    """(bytes, plane_blocks, n, codecs) with one kind of damage."""
    damage = draw(st.sampled_from(DAMAGE))
    data, plane_blocks, n = draw(
        plane_vector_streams(overrun=damage == "overrun")
    )
    codecs = None
    if damage == "resplit":  # plane ends wherever, mid-chunk included
        total = sum(plane_blocks)
        cuts = sorted(draw(st.lists(st.integers(0, total), max_size=2)))
        plane_blocks = list(np.diff([0, *cuts, total]))
    elif damage == "truncate":
        data = data[:draw(st.integers(0, max(0, len(data) - 1)))]
    elif damage == "flip" and data:
        out = bytearray(data)
        for _ in range(draw(st.integers(1, 3))):
            bit = draw(st.integers(0, len(data) * 8 - 1))
            out[bit // 8] ^= 0x80 >> (bit % 8)
        data = bytes(out)
    elif damage == "invalid":
        codecs = _holey_codecs(n)
    elif damage == "more_blocks":
        plane_blocks[-1] += draw(st.integers(1, 3))
    return data, plane_blocks, n, codecs


@given(case=damaged_plane_streams())
def test_read_plane_vectors_error_parity(case):
    """One frame-wide parse equals the per-plane reference (DC predictor
    at 0 per plane): same vectors and reader position, or the same
    exception type and message — on clean, truncated, bit-flipped,
    overrunning, invalid-code and short streams alike."""
    assert_equivalent(
        plane_parse_outcome(*case, batched=False),
        plane_parse_outcome(*case, batched=True),
    )


class TestPlaneParseErrors:
    """The error paths the parity property must be able to reach."""

    n = 8

    def _stream(self, runs, eob=True):
        return self._writer(runs, eob).getvalue()

    def _writer(self, runs, eob=True):
        writer = BitWriter()
        ac = tables.default_ac_codec(self.n)
        tables.default_dc_codec(self.n).encode_symbol(0, writer)
        for run in runs:
            ac.encode_symbol(tables.pack_ac(run, 1), writer)
            tables.encode_magnitude(1, writer)
        if eob:
            ac.encode_symbol(tables.eob_symbol(self.n), writer)
        return writer

    def _both(self, data, plane_blocks, codecs=None):
        ref = plane_parse_outcome(
            data, plane_blocks, self.n, codecs, batched=False
        )
        fast = plane_parse_outcome(
            data, plane_blocks, self.n, codecs, batched=True
        )
        assert_equivalent(ref, fast)
        return fast

    def test_overrun_then_end_of_buffer_raises_the_overrun(self):
        # 66 dense 4-bit events: the 64th overruns, and the buffer ends
        # (no EOB) before the scalar parse would ever need more bits.
        outcome = self._both(self._stream([0] * 66, eob=False), [1])
        assert outcome == (
            ValueError, "corrupt stream: AC coefficients overrun block"
        )

    def test_overrun_in_an_event_cut_off_mid_magnitude(self):
        # The run is checked before the magnitude is read: a level at
        # position 64 whose magnitude runs off the buffer is an overrun.
        writer = BitWriter()
        tables.default_dc_codec(self.n).encode_symbol(0, writer)
        tables.default_ac_codec(self.n).encode_symbol(
            tables.pack_ac(63, 12), writer
        )
        outcome = self._both(writer.getvalue(), [1])
        assert outcome == (
            ValueError, "corrupt stream: AC coefficients overrun block"
        )

    def test_invalid_code(self):
        # A zero DC category, then all ones: the top of a canonical code
        # space is what an incomplete code leaves unassigned.
        outcome = self._both(
            b"\x7f" + b"\xff" * 4, [2], _holey_codecs(self.n)
        )
        assert outcome == (
            ValueError, "invalid Huffman code in bitstream at bit offset 1"
        )

    def test_truncation_is_end_of_buffer(self):
        outcome = self._both(self._stream([0] * 10)[:3], [1])
        assert outcome == (EOFError, "bitstream exhausted")

    def test_reader_stops_at_the_last_end_of_block(self):
        block = self._stream([0, 0, 3])
        # The last chunk runs on into the next block's events.
        vectors, position = self._both(block * 4, [1])
        assert position == len(self._writer([0, 0, 3]))
        assert vectors[0][0, :7].tolist() == [0, 1, 1, 0, 0, 0, 1]


class TestSegmentParse:
    """Plane counts drawn one at a time, and errors that keep the planes
    parsed whole before them."""

    n = 8
    codecs = (
        tables.default_ac_codec(8),
        tables.default_dc_codec(8),
        tables.eob_symbol(8),
    )

    def _planes(self, seed, plane_blocks):
        rng = np.random.default_rng(seed)
        return [
            (rng.integers(-9, 10, size=(nb, 64))
             * (rng.random((nb, 64)) < 0.3)).astype(np.int32)
            for nb in plane_blocks
        ]

    def _parse(self, data, plane_blocks):
        return read_plane_vectors(
            BitReader(data), plane_blocks, self.n, *self.codecs
        )

    def test_counts_are_drawn_at_each_plane_start(self):
        planes = self._planes(1, [3, 2, 4])
        writer = BitWriter()
        for marker, vectors in zip((0xA5, 0x5A, 0xC3), planes):
            writer.write_bits(marker, 8)
            write_plane_vectors(writer, vectors, self.n, 0)
        reader = BitReader(writer.getvalue())
        markers = []

        def counts():
            for vectors in planes:
                markers.append(reader.read_bits(8))
                yield vectors.shape[0]

        back = read_plane_vectors(reader, counts(), self.n, *self.codecs)
        assert markers == [0xA5, 0x5A, 0xC3]
        assert all(map(np.array_equal, back, planes))
        assert reader.bit_position == len(writer)

    def test_a_truncated_plane_keeps_the_planes_before_it(self):
        planes = self._planes(2, [4, 4, 4])
        writer = BitWriter()
        for vectors in planes:
            write_plane_vectors(writer, vectors, self.n, 0)
        data = writer.getvalue()
        with pytest.raises(EOFError) as failure:
            self._parse(data[:len(data) - 4], [4, 4, 4])
        assert len(failure.value.planes) == 2
        assert all(map(np.array_equal, failure.value.planes, planes))

    def test_an_overrun_comes_first_and_cuts_at_its_plane(self):
        planes = self._planes(3, [2, 1])
        writer = BitWriter()
        for vectors in planes:
            write_plane_vectors(writer, vectors, self.n, 0)
        ac = tables.default_ac_codec(self.n)
        tables.default_dc_codec(self.n).encode_symbol(0, writer)
        for _ in range(66):  # the 64th level overruns the block
            ac.encode_symbol(tables.pack_ac(0, 1), writer)
            tables.encode_magnitude(1, writer)
        with pytest.raises(ValueError, match="overrun") as failure:
            self._parse(writer.getvalue(), [2, 1, 1, 5])
        assert len(failure.value.planes) == 2
        assert all(map(np.array_equal, failure.value.planes, planes))

    def test_an_error_drawing_a_count_is_raised_after_an_overrun(self):
        ac = tables.default_ac_codec(self.n)
        writer = BitWriter()
        tables.default_dc_codec(self.n).encode_symbol(0, writer)
        ac.encode_symbol(tables.pack_ac(40, 1), writer)
        tables.encode_magnitude(1, writer)
        ac.encode_symbol(tables.pack_ac(40, 1), writer)  # past the block
        tables.encode_magnitude(1, writer)
        ac.encode_symbol(tables.eob_symbol(self.n), writer)

        def counts(fail_with):
            yield 1
            raise fail_with

        with pytest.raises(ValueError, match="overrun") as failure:
            self._parse(writer.getvalue(), counts(EOFError("header")))
        assert failure.value.planes == []
        good = self._planes(4, [1])
        writer = BitWriter()
        write_plane_vectors(writer, good[0], self.n, 0)
        with pytest.raises(EOFError, match="header") as failure:
            self._parse(writer.getvalue(), counts(EOFError("header")))
        assert all(map(np.array_equal, failure.value.planes, good))


def test_scalar_plane_format_round_trips():
    """The scalar writer and parser are inverses, DC predictor included."""
    rng = np.random.default_rng(21)
    vectors = rng.integers(-40, 41, size=(9, 64)) * (rng.random((9, 64)) < 0.3)
    writer = BitWriter()
    last_dc = write_plane_vectors_reference(writer, vectors, 8, 5)
    reader = BitReader(writer.getvalue())
    parsed, parsed_dc = read_plane_vectors_reference(
        reader, 9, 8, 5, tables.default_ac_codec(8),
        tables.default_dc_codec(8), tables.eob_symbol(8),
    )
    assert np.array_equal(parsed, vectors)
    assert last_dc == parsed_dc == vectors[-1, 0]
    assert reader.bit_position == len(writer)


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

    def test_jpeg_overrun_raises_the_same_error_on_both_paths(self):
        # An 8x8 image whose one block carries 66 levels: the 64th
        # lands past the block.
        writer = BitWriter()
        for value, width in ((JPEG_MAGIC, 16), (8, 16), (8, 16), (50, 7)):
            writer.write_bits(value, width)
        tables.default_dc_codec(8).encode_symbol(0, writer)
        for _ in range(66):
            tables.default_ac_codec(8).encode_symbol(
                tables.pack_ac(0, 1), writer
            )
            tables.encode_magnitude(1, writer)
        writer.align()
        for batched in (True, False):
            with pytest.raises(ValueError) as err:
                JpegLikeCodec(batched=batched).decode(writer.getvalue())
            assert str(err.value) == (
                "corrupt stream: AC coefficients overrun block"
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
    fast = scenario_digests(scenario_name)
    for target, codec in (
        ("repro.runtime.session.VideoEncoder", VideoEncoder),
        ("repro.runtime.session.VideoDecoder", VideoDecoder),
        ("repro.runtime.scenarios.VideoEncoder", VideoEncoder),
    ):
        monkeypatch.setattr(target, partial(codec, batched=False))
    assert scenario_digests(scenario_name) == fast
