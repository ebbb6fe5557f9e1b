"""Property tests: decoders degrade cleanly on damaged streams.

A lossy transport hands decoders truncated prefixes (everything after a
lost fragment is unusable) and the odd flipped bit.  The contract under
test, for :class:`VideoDecoder` and :class:`AudioDecoder` alike:

* damage never hangs the decoder or escapes as an uncontrolled
  exception (``IndexError``, ``struct.error``, ...) — only the clear
  parse errors (``ValueError``/``EOFError``, plus ``KeyError`` from
  Huffman tables on video) are acceptable;
* with ``conceal=True`` a truncated stream whose header survives comes
  back *without* exception, at full length, with finite samples;
* concealment only widens acceptance: if the concealing decode raises,
  the strict decode of the same prefix raises too.

Streams are built by the real encoders over the strategy library's
domain inputs, so every knob (GOP structure, chroma, psychoacoustics,
fractional sample rates) is exercised.  Example counts follow the
loaded settings profile.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.audio import AudioDecoder, AudioEncoder
from repro.video import VideoDecoder, VideoEncoder, codec_tables
from repro.video.bitstream import BitReader
from repro.workloads.video_gen import moving_blocks_sequence

from strategies import domains

#: The only exception types a damaged video stream may surface.
VIDEO_ERRORS = (ValueError, EOFError, KeyError)
#: Likewise for audio (no Huffman tables, so no KeyError).
AUDIO_ERRORS = (ValueError, EOFError)


@st.composite
def encoded_video(draw):
    """(coded bytes, frame count, luma shape) from a real encode."""
    frames = draw(domains.video_sequences())
    cfg = draw(domains.video_encoder_configs())
    data = VideoEncoder(cfg).encode(frames).data
    return data, len(frames), frames[0].shape


@st.composite
def encoded_audio(draw):
    """(coded bytes, pcm length) from a real encode."""
    pcm = draw(domains.audio_segments(max_samples=1024))
    cfg = draw(domains.audio_encoder_configs())
    data = AudioEncoder(cfg).encode(pcm).data
    return data, pcm.size


def _truncate(draw_fn, data: bytes) -> bytes:
    """A strict prefix (anywhere from empty to one byte short)."""
    cut = draw_fn(st.integers(0, len(data) - 1))
    return data[:cut]


def _flip(data: bytes, bit_index: int) -> bytes:
    out = bytearray(data)
    out[bit_index // 8] ^= 1 << (bit_index % 8)
    return bytes(out)


# ------------------------------------------------------------------ video


@given(stream=encoded_video(), data=st.data())
def test_video_truncation_clear_error_or_sane_output(stream, data):
    coded, num_frames, shape = stream
    cut = _truncate(data.draw, coded)
    try:
        decoded = VideoDecoder().decode(cut)
    except VIDEO_ERRORS:
        return
    # Truncation that only removed trailing padding still parses; the
    # result must then be complete and well-formed.
    assert len(decoded.frames) == num_frames
    assert decoded.frames[0].y.shape == shape


@given(stream=encoded_video(), data=st.data())
def test_video_conceal_survives_truncation(stream, data):
    coded, num_frames, shape = stream
    cut = _truncate(data.draw, coded)
    try:
        decoded = VideoDecoder().decode(cut, conceal=True)
    except VIDEO_ERRORS:
        # Only acceptable when the header itself is unreadable — in
        # which case the strict decode must fail as well.
        try:
            VideoDecoder().decode(cut)
        except VIDEO_ERRORS:
            return
        raise AssertionError(
            "conceal=True raised where conceal=False succeeded"
        )
    assert len(decoded.frames) == num_frames
    assert decoded.concealed <= num_frames
    for frame in decoded.frames:
        assert frame.y.shape == shape
        assert np.all(np.isfinite(frame.y))


@given(stream=encoded_video(), data=st.data())
def test_video_bitflip_clear_error_or_sane_output(stream, data):
    """A flipped bit may still parse (e.g. it hit a magnitude, padding,
    or an undetectable header field) — but then the output must be
    internally consistent: same-shaped, finite frames."""
    coded, num_frames, shape = stream
    flipped = _flip(coded, data.draw(st.integers(0, len(coded) * 8 - 1)))
    try:
        decoded = VideoDecoder().decode(flipped)
    except VIDEO_ERRORS:
        return
    shapes = {frame.y.shape for frame in decoded.frames}
    assert len(shapes) <= 1
    for frame in decoded.frames:
        assert np.all(np.isfinite(frame.y))


#: Bit offsets of the video header's width, height and block-size
#: fields (after the 16-bit magic and the 4-bit version).
WIDTH_AT, HEIGHT_AT, BLOCK_SIZE_AT = 20, 36, 52


def _set_field(data: bytes, at: int, width: int, value: int) -> bytes:
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    bits[at:at + width] = [value >> (width - 1 - k) & 1 for k in range(width)]
    return np.packbits(bits).tobytes()


def _small_video() -> bytes:
    """A ~5 KB stream: five 64x48 frames with chroma."""
    frames = moving_blocks_sequence(num_frames=5, height=48, width=64, seed=3)
    return VideoEncoder().encode(frames).data


#: Bit offset of the first frame's type bit, right after the header.
FIRST_FRAME_AT = 77


@pytest.mark.parametrize("batched", [True, False])
def test_video_p_frame_first_is_a_parse_error(batched):
    """A first frame flagged P has nothing to predict from: a clear
    ``ValueError``, which concealment covers, in both decode paths."""
    data = _set_field(_small_video(), FIRST_FRAME_AT, 1, 1)
    with pytest.raises(ValueError) as raised:
        VideoDecoder(batched=batched).decode(data)
    assert str(raised.value) == "corrupt stream: P frame before any I frame"
    decoded = VideoDecoder(batched=batched).decode(data, conceal=True)
    assert decoded.frame_types == ["C"] * 5


@pytest.mark.parametrize("batched", [True, False])
def test_video_conceal_keeps_every_frame_before_the_break(batched):
    """A stream cut inside a later frame: the frames before it decode as
    from the intact stream, the rest repeat the last of them."""
    data = _small_video()
    intact = VideoDecoder(batched=batched).decode(data)
    decoded = VideoDecoder(batched=batched).decode(
        data[:len(data) * 3 // 4], conceal=True
    )
    good = 5 - decoded.concealed
    assert 0 < good < 5
    assert decoded.frame_types == intact.frame_types[:good] + ["C"] * (5 - good)
    for got, want in zip(decoded.frames, intact.frames[:good]):
        assert np.array_equal(got.y, want.y)
        assert np.array_equal(got.cr, want.cr)
    assert all(f is decoded.frames[good - 1] for f in decoded.frames[good:])


@pytest.mark.parametrize("block_size", [0, 4, 16, 255])
def test_video_unsupported_block_size_rejected_before_tables(
    block_size, monkeypatch
):
    """A corrupt block size fails in the header, even when concealing,
    before any code table is built for it (a 255 once cost ~40 s)."""
    data = _set_field(_small_video(), BLOCK_SIZE_AT, 8, block_size)

    def no_tables(n):
        raise AssertionError(f"built a code table for block size {n}")

    monkeypatch.setattr(codec_tables, "default_ac_codec", no_tables)
    monkeypatch.setattr(codec_tables, "default_dc_codec", no_tables)
    with pytest.raises(ValueError) as raised:
        VideoDecoder().decode(data, conceal=True)
    assert str(raised.value) == (
        f"corrupt stream header: unsupported block size {block_size}"
    )


def test_video_oversized_header_fails_within_its_own_bits():
    """A 4000x4000 header on a ~5 KB stream: the frame's events are
    parsed before any header-sized prediction or vector buffer exists,
    so the error costs memory in proportion to the stream, and matches
    the scalar decoder's."""
    data = _small_video()
    data = _set_field(data, WIDTH_AT, 16, 4000)
    data = _set_field(data, HEIGHT_AT, 16, 4000)
    with pytest.raises(VIDEO_ERRORS) as scalar:
        VideoDecoder(batched=False).decode(data)
    tracemalloc.start()
    try:
        with pytest.raises(scalar.type) as batched:
            VideoDecoder().decode(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(batched.value) == str(scalar.value)
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"


def _long_code(zeros: int) -> str:
    """An Exp-Golomb code with ``zeros`` leading zeros, as bit characters:
    the largest value of that length, whose signed form is the most
    negative."""
    return "0" * zeros + "1" * (zeros + 1)


def _as_bytes(bits: str) -> bytes:
    bits += "0" * (-len(bits) % 8)
    return int(bits, 2).to_bytes(len(bits) // 8, "big")


@pytest.mark.parametrize("read", [
    lambda r: r.read_se(),
    lambda r: r.read_se_many(1)[0],
    lambda r: r.read_se_many_reference(1)[0],
], ids=["read_se", "read_se_many", "read_se_many_reference"])
def test_exp_golomb_prefix_is_capped_where_values_fit_int64(read):
    """62 leading zeros is the longest code whose value fits int64; a
    longer one is a clear parse error on every read path, not an
    ``OverflowError`` that concealment would not catch."""
    value = read(BitReader(_as_bytes(_long_code(62) + "1")))
    assert value == -(2**62 - 1)
    for zeros in (63, 64):
        with pytest.raises(ValueError, match="malformed Exp-Golomb code"):
            read(BitReader(_as_bytes(_long_code(zeros) + "1")))


def test_video_overlong_vector_code_conceals_its_frame():
    """A 2-frame 16x16 stream with a 64-zero code spliced in front of
    frame 1's motion vectors: frame 1 conceals on both decode paths, and
    a strict decode raises the same error on both."""
    frames = moving_blocks_sequence(num_frames=2, height=16, width=16, seed=3)
    encoded = VideoEncoder().encode(frames)
    bits = "".join(f"{b:08b}" for b in encoded.data)
    vectors_at = FIRST_FRAME_AT + encoded.frame_stats[0].bits + 13
    data = _as_bytes(bits[:vectors_at] + _long_code(64) + bits[vectors_at:])
    errors = set()
    for batched in (True, False):
        decoder = VideoDecoder(batched=batched)
        intact = decoder.decode(encoded.data)
        decoded = decoder.decode(data, conceal=True)
        assert decoded.frame_types == ["I", "C"]
        assert decoded.concealed == 1
        assert np.array_equal(decoded.frames[0].y, intact.frames[0].y)
        assert decoded.frames[1] is decoded.frames[0]
        with pytest.raises(VIDEO_ERRORS) as raised:
            decoder.decode(data)
        errors.add((raised.type, str(raised.value)))
    assert errors == {(ValueError, "malformed Exp-Golomb code")}


# ------------------------------------------------------------------ audio


@given(stream=encoded_audio(), data=st.data())
def test_audio_truncation_clear_error_or_sane_output(stream, data):
    coded, num_samples = stream
    cut = _truncate(data.draw, coded)
    try:
        decoded = AudioDecoder().decode(cut)
    except AUDIO_ERRORS:
        return
    assert decoded.pcm.size == num_samples
    assert np.all(np.isfinite(decoded.pcm))


@given(stream=encoded_audio(), data=st.data())
def test_audio_conceal_survives_truncation(stream, data):
    coded, num_samples = stream
    cut = _truncate(data.draw, coded)
    try:
        decoded = AudioDecoder().decode(cut, conceal=True)
    except AUDIO_ERRORS:
        try:
            AudioDecoder().decode(cut)
        except AUDIO_ERRORS:
            return
        raise AssertionError(
            "conceal=True raised where conceal=False succeeded"
        )
    assert decoded.pcm.size == num_samples
    assert np.all(np.isfinite(decoded.pcm))


@given(stream=encoded_audio(), data=st.data())
def test_audio_bitflip_clear_error_or_finite_output(stream, data):
    coded, num_samples = stream
    assume(len(coded) > 0)
    flipped = _flip(coded, data.draw(st.integers(0, len(coded) * 8 - 1)))
    try:
        decoded = AudioDecoder().decode(flipped)
    except AUDIO_ERRORS:
        return
    assert np.all(np.isfinite(decoded.pcm))
