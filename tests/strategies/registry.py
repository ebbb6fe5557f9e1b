"""The oracle registry: every ``*_reference`` callable, paired and fuzzed.

Each :class:`OraclePair` names one scalar oracle (by the dotted path
``tests/test_reference_equivalence.py`` discovers), a strategy over its
input domain, and two runners — one driving the reference path, one the
batched production path.  The equivalence test draws cases from the
strategy and asserts the two runners' results are bit-exact (or, for
the explicitly floating-point recurrences, equal to tight tolerance).

Adding a new ``*_reference`` kernel anywhere under ``repro.*`` without
registering it here fails
``test_every_reference_oracle_has_a_registered_strategy`` loudly — that
is the point: the refactor gate must never silently lose coverage.
"""

from __future__ import annotations

import dataclasses
import zlib
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
from hypothesis import strategies as st

from repro.audio.bitalloc import (
    SNR_PER_BIT,
    allocate_bits_batch,
    allocate_bits_reference,
)
from repro.audio.encoder import AudioDecoder, AudioEncoder
from repro.audio.filterbank import (
    _analyze_raw,
    _analyze_raw_reference,
    _bank_matrices,
    _synthesize_raw,
    _synthesize_raw_reference,
)
from repro.image.jpeg import JpegLikeCodec
from repro.net.channel import (
    serialization_times,
    serialization_times_reference,
)
from repro.net.fec import (
    interleave_indices,
    interleave_indices_reference,
    recover_group,
    recover_group_reference,
    xor_parity,
    xor_parity_reference,
)
from repro.net.packetizer import (
    crc32_reference,
    packets_to_wire,
    packets_to_wire_reference,
)
from repro.support.ipstack import (
    ones_complement_checksum,
    ones_complement_checksum_reference,
)
from repro.video import codec_tables
from repro.video.bitstream import BitReader, BitWriter
from repro.video.blockpipe import (
    read_plane_vectors,
    read_plane_vectors_reference,
    write_plane_vectors,
    write_plane_vectors_reference,
)
from repro.video.decoder import VideoDecoder
from repro.video.encoder import VideoEncoder
from repro.video.motion import (
    MotionField,
    _diamond_schedule,
    _pattern_search,
    _pattern_search_reference,
    _three_step_schedule,
    full_search,
    full_search_reference,
    motion_compensate,
    motion_compensate_reference,
)
from repro.video.zigzag import (
    inverse_zigzag,
    inverse_zigzag_reference,
    zigzag,
    zigzag_reference,
)

from . import domains


# ------------------------------------------------------------ comparison


def assert_equivalent(reference: Any, batched: Any, path: str = "result"):
    """Recursive bit-exact comparison with a readable failure trail.

    Arrays must match in dtype, shape, and every element (NaNs compare
    equal to NaNs); dataclasses compare field by field; containers
    recurse.  This is deliberately stricter than ``==`` — the
    ``_reference`` convention promises *bit* identity, not closeness.
    """
    if isinstance(reference, np.ndarray) or isinstance(batched, np.ndarray):
        ref = np.asarray(reference)
        fast = np.asarray(batched)
        assert ref.dtype == fast.dtype, (
            f"{path}: dtype {fast.dtype} != reference {ref.dtype}"
        )
        assert ref.shape == fast.shape, (
            f"{path}: shape {fast.shape} != reference {ref.shape}"
        )
        assert np.array_equal(ref, fast, equal_nan=ref.dtype.kind == "f"), (
            f"{path}: arrays differ "
            f"(first mismatch at {_first_mismatch(ref, fast)})"
        )
        return
    if dataclasses.is_dataclass(reference) and not isinstance(reference, type):
        assert type(reference) is type(batched), (
            f"{path}: {type(batched).__name__} != "
            f"reference {type(reference).__name__}"
        )
        for f in dataclasses.fields(reference):
            assert_equivalent(
                getattr(reference, f.name),
                getattr(batched, f.name),
                f"{path}.{f.name}",
            )
        return
    if isinstance(reference, (list, tuple)):
        assert isinstance(batched, (list, tuple)) and (
            len(reference) == len(batched)
        ), f"{path}: length {len(batched)} != reference {len(reference)}"
        for i, (r, b) in enumerate(zip(reference, batched)):
            assert_equivalent(r, b, f"{path}[{i}]")
        return
    if isinstance(reference, dict):
        assert reference.keys() == batched.keys(), (
            f"{path}: keys differ ({set(reference) ^ set(batched)})"
        )
        for key in reference:
            assert_equivalent(reference[key], batched[key], f"{path}[{key!r}]")
        return
    if isinstance(reference, float) and isinstance(batched, float):
        assert (reference == batched) or (
            np.isnan(reference) and np.isnan(batched)
        ), f"{path}: {batched!r} != reference {reference!r}"
        return
    assert reference == batched, (
        f"{path}: {batched!r} != reference {reference!r}"
    )


def _first_mismatch(a: np.ndarray, b: np.ndarray) -> str:
    if a.dtype.kind == "f":
        diff = ~((a == b) | (np.isnan(a) & np.isnan(b)))
    else:
        diff = a != b
    where = np.argwhere(diff)
    if where.size == 0:
        return "<none>"
    idx = tuple(int(i) for i in where[0])
    return f"{idx}: {b[idx]!r} vs {a[idx]!r}"


def assert_allclose(reference: Any, batched: Any, path: str = "result"):
    """Tight-tolerance comparator for floating-point *recurrence*
    identities (cumulative-max serialization), where the vectorized
    algebra is exact in real arithmetic but reassociates roundoff."""
    np.testing.assert_allclose(batched, reference, rtol=1e-9, atol=1e-12)


@dataclass(frozen=True)
class OraclePair:
    """One registered ``*_reference`` / batched pair."""

    oracle: str  # dotted path, e.g. "repro.video.zigzag.zigzag_reference"
    strategy: st.SearchStrategy
    run_reference: Callable[[Any], Any]
    run_batched: Callable[[Any], Any]
    compare: Callable[[Any, Any], None] = assert_equivalent


# ----------------------------------------------------- composite domains


@st.composite
def _filterbank_geometry(draw):
    """(num_bands, taps) kept inside the matrix lru_cache working set."""
    m = draw(st.sampled_from((8, 32)))
    taps = draw(st.sampled_from((8, 16)))
    return m, taps


@st.composite
def _analysis_cases(draw):
    m, taps = draw(_filterbank_geometry())
    x = draw(domains.audio_segments(max_samples=1024))
    return x, m, taps


@st.composite
def _synthesis_cases(draw):
    m, taps = draw(_filterbank_geometry())
    rows = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(domains.rng_seeds()))
    sub = rng.uniform(-1.0, 1.0, size=(rows, m))
    return sub, m, taps


@st.composite
def _bitalloc_cases(draw):
    """Multi-row (possibly empty) SMR batches and allocator settings.

    ``side`` ranges past ``samples``, so a first bit can cost more than
    two later ones and the batch form's lockstep continuation runs more
    than one pass.  Half the non-empty cases draw the pool below what the
    first row would spend with an unlimited pool (every candidate level
    under 12 dB), so the pool runs out inside the sorted prefix.
    """
    smr = draw(domains.smr_arrays(max_bands=48, max_rows=6, min_rows=0))
    samples = draw(st.integers(4, 16))
    side = draw(st.integers(0, 24))
    max_bits = draw(st.sampled_from((0, 1, 4, 8, 15)))
    if smr.shape[0] and draw(st.booleans()):
        below = np.sum(
            SNR_PER_BIT * np.arange(max_bits) - smr[0][:, None] < 12.0,
            axis=1,
        )
        unlimited = int(np.sum(samples * below + side * (below > 0)))
        pool = draw(st.integers(0, max(unlimited - 1, 0)))
    else:
        pool = draw(st.integers(0, 4000))
    return smr, pool, samples, side, max_bits


@st.composite
def _audio_encode_cases(draw):
    cfg = draw(domains.audio_encoder_configs())
    pcm = draw(
        domains.audio_segments(max_samples=3 * cfg.samples_per_frame)
    )
    anc = draw(st.binary(max_size=2 * cfg.ancillary_bytes_per_frame + 1))
    return pcm, cfg, anc


@st.composite
def _video_encode_cases(draw):
    frames = draw(domains.video_sequences())
    cfg = draw(domains.video_encoder_configs())
    return frames, cfg


#: Bits of the video stream header (magic, version, width, height, block
#: size, frame count, chroma flag).
_VIDEO_HEADER_BITS = 16 + 4 + 16 + 16 + 8 + 16 + 1


@st.composite
def _video_streams(draw):
    """A coded clip, intact, truncated, or with one to three bits past
    its header flipped.

    A flip may land in a frame's type bit, quantizer step, motion
    vectors or coefficients, so the pair pins which frame a damaged
    segment first fails in, not only that it fails.
    """
    frames, cfg = draw(_video_encode_cases())
    data = VideoEncoder(cfg, batched=True).encode(frames).data
    damage = draw(st.sampled_from(("intact", "truncated", "flipped")))
    if damage == "truncated":
        return data[:draw(st.integers(0, len(data) - 1))]
    if damage == "flipped":
        buf = bytearray(data)
        bits = st.integers(_VIDEO_HEADER_BITS, len(data) * 8 - 1)
        for bit in draw(st.lists(bits, min_size=1, max_size=3)):
            buf[bit // 8] ^= 0x80 >> (bit % 8)
        return bytes(buf)
    return data


@st.composite
def _jpeg_encode_cases(draw):
    image = draw(domains.luma_frames(max_side=32, even=False))
    quality = draw(st.integers(5, 95))
    return image, quality


#: Bits of the JPEG-like header (magic, width, height, quality).
_JPEG_HEADER_BITS = 16 + 16 + 16 + 7


@st.composite
def _jpeg_streams(draw):
    """A coded image, intact, truncated, or with one to three bits of its
    entropy-coded payload flipped.

    Flips stay past the header: a flipped dimension field only scales
    the block count, which the truncation cases already cover.
    """
    image, quality = draw(_jpeg_encode_cases())
    data = JpegLikeCodec(batched=True).encode(image, quality).data
    damage = draw(st.sampled_from(("intact", "truncated", "flipped")))
    if damage == "truncated":
        return data[:draw(st.integers(0, len(data) - 1))]
    if damage == "flipped":
        buf = bytearray(data)
        bits = st.integers(_JPEG_HEADER_BITS, len(data) * 8 - 1)
        for bit in draw(st.lists(bits, min_size=1, max_size=3)):
            buf[bit // 8] ^= 0x80 >> (bit % 8)
        return bytes(buf)
    return data


@st.composite
def _se_bitstreams(draw):
    """(bytes, count): ``count`` signed-Exp-Golomb codes + trailing noise.

    A sprinkle of large magnitudes pushes codes past the 16-bit peek so
    the bulk parse's scalar fallback is exercised; the trailing noise
    bits pin the final reader position (the parse must stop exactly
    after code ``count``).
    """
    count = draw(st.integers(0, 120))
    rng = np.random.default_rng(draw(domains.rng_seeds()))
    values = rng.integers(-40, 41, size=count)
    big_at = rng.random(count) < 0.08
    values[big_at] = rng.integers(-60_000, 60_001, size=int(big_at.sum()))
    writer = BitWriter()
    for v in values:
        writer.write_se(int(v))
    trailing = draw(st.integers(0, 17))
    if trailing:
        writer.write_bits(draw(st.integers(0, (1 << trailing) - 1)), trailing)
    return writer.getvalue(), count


@st.composite
def _plane_vector_cases(draw):
    """(vectors, n, prev_dc, lead): one plane of zig-zag vectors to code.

    Zero to six blocks, each sparse with levels across every AC category,
    dense with small levels, or empty; DC values and the incoming DC
    predictor span the whole DC-difference alphabet.  ``lead`` bits are
    written first, so the plane starts mid-byte.
    """
    n = draw(st.sampled_from((4, 8)))
    nblocks = draw(st.integers(0, 6))
    rng = np.random.default_rng(draw(domains.rng_seeds()))
    ac_length = n * n - 1
    vectors = np.zeros((nblocks, n * n), dtype=np.int32)
    for b in range(nblocks):
        style = int(rng.integers(3))  # sparse-large, dense-small, empty
        if style == 0:
            sparse = rng.random(ac_length) < 0.15
            vectors[b, 1:] = rng.integers(-4095, 4096, size=ac_length) * sparse
        elif style == 1:
            vectors[b, 1:] = rng.integers(-3, 4, size=ac_length)
    vectors[:, 0] = rng.integers(-2048, 2048, size=nblocks)
    prev_dc = int(rng.integers(-2048, 2048))
    return vectors, n, prev_dc, draw(st.integers(0, 7))


@st.composite
def plane_vector_streams(draw, overrun=False):
    """(bytes, plane_blocks, n): a frame's entropy-coded planes + noise.

    Built symbol by symbol against the default codecs: one to three
    planes of zero to six blocks.  A block is sparse, with AC categories
    across the full 1..12 range and DC differences over the whole
    admissible span (magnitudes spill past the 16-bit peek); dense, with
    small levels (several events share one window, so chunks straddle
    block and plane ends); or empty.  Trailing noise pins the final
    reader position.  With ``overrun``, one block runs its levels past
    the block end and the stream stops a few events later, so the
    overrun is followed by the end of the buffer.
    """
    n = draw(st.sampled_from((4, 8)))
    plane_blocks = draw(st.lists(st.integers(0, 6), min_size=1, max_size=3))
    rng = np.random.default_rng(draw(domains.rng_seeds()))
    ac = codec_tables.default_ac_codec(n)
    dc = codec_tables.default_dc_codec(n)
    eob = codec_tables.eob_symbol(n)
    nblocks = sum(plane_blocks)
    broken = int(rng.integers(nblocks)) if overrun and nblocks else -1
    writer = BitWriter()
    total = n * n
    for b in range(nblocks):
        style = int(rng.integers(3))  # sparse-large, dense-small, empty
        span, magnitude = (2048, 4096) if style == 0 else (3, 4)
        diff = int(rng.integers(-span, span + 1))
        dc.encode_symbol(codec_tables.magnitude_category(diff), writer)
        codec_tables.encode_magnitude(diff, writer)
        if b == broken:
            positions = list(range(1, total + int(rng.integers(1, 4))))
        elif style == 0:
            k = int(rng.integers(0, min(9, total)))
            positions = sorted(
                int(p) for p in
                rng.choice(np.arange(1, total), size=k, replace=False)
            )
        elif style == 1:
            positions = sorted(
                int(p) for p in np.flatnonzero(rng.random(total - 1) < 0.7) + 1
            )
        else:
            positions = []
        last = 0
        for p in positions:
            value = int(rng.integers(1, magnitude))
            value *= -1 if rng.random() < 0.5 else 1
            symbol = codec_tables.pack_ac(
                p - last - 1, codec_tables.magnitude_category(value)
            )
            ac.encode_symbol(symbol, writer)
            codec_tables.encode_magnitude(value, writer)
            last = p
        if b == broken:
            break
        ac.encode_symbol(eob, writer)
    trailing = draw(st.integers(0, 17))
    if trailing:
        writer.write_bits(draw(st.integers(0, (1 << trailing) - 1)), trailing)
    return writer.getvalue(), plane_blocks, n


@st.composite
def _compensate_cases(draw):
    """(reference plane, motion field), vectors spilling past the edges."""
    n = draw(st.sampled_from((4, 8)))
    by = draw(st.integers(1, 4))
    bx = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(domains.rng_seeds()))
    reference = np.floor(rng.uniform(0.0, 256.0, size=(by * n, bx * n)))
    span = draw(st.integers(1, 3 * n))  # beyond-frame vectors must clamp
    dy = rng.integers(-span, span + 1, size=(by, bx)).astype(np.int32)
    dx = rng.integers(-span, span + 1, size=(by, bx)).astype(np.int32)
    return reference, MotionField(dy=dy, dx=dx, block_size=n)


@st.composite
def _audio_streams(draw):
    """A coded stream, whole or cut short anywhere."""
    pcm, cfg, anc = draw(_audio_encode_cases())
    data = AudioEncoder(cfg, batched=True).encode(pcm, anc).data
    if draw(st.booleans()):
        return data[:draw(st.integers(0, len(data) - 1))]
    return data


@st.composite
def _motion_cases(draw):
    current, reference = draw(domains.frame_pairs(max_blocks=3))
    search_range = draw(st.integers(1, 3))
    return current, reference, search_range


@st.composite
def _pattern_cases(draw):
    """(current, reference, n, R, schedule) for the pattern-search walks.

    Global shifts up to 8 pixels against ranges 0..7 on frames at most
    three blocks a side walk blocks into both the window and frame edges.
    """
    n = draw(st.sampled_from((4, 8)))
    current, reference = draw(domains.frame_pairs(block_size=n, max_shift=8))
    search_range = draw(st.integers(0, 7))
    schedule = draw(st.sampled_from((_diamond_schedule, _three_step_schedule)))
    return current, reference, n, search_range, schedule


@st.composite
def _recovery_cases(draw):
    """(parity packet, surviving packets) with 0, 1, or 2 losses."""
    _, _, wire = draw(domains.parity_groups())
    parities = [p for p in wire if p.is_parity]
    parity = draw(st.sampled_from(parities))
    covered = [
        p
        for p in wire
        if not p.is_parity
        and parity.seq - parity.frag_count <= p.seq < parity.seq
    ]
    n_drop = draw(st.integers(0, min(2, len(covered))))
    shuffled = draw(st.permutations(covered))
    dropped = {p.seq for p in shuffled[:n_drop]}
    present = {p.seq: p for p in covered if p.seq not in dropped}
    return parity, present


@st.composite
def _interleave_cases(draw):
    return draw(st.integers(0, 200)), draw(st.integers(1, 12))


# ---------------------------------------------------------------- runners


def _video_encode(batched: bool):
    def run(case):
        frames, cfg = case
        out = VideoEncoder(cfg, batched=batched).encode(frames)
        return out.data, [s.bits for s in out.frame_stats]

    return run


def _video_decode(batched: bool):
    """The strict and the concealing decode: each the frames, types and
    concealed count, or the ``(exception type, message)`` raised."""
    def decode(data, conceal):
        try:
            decoded = VideoDecoder(batched=batched).decode(data, conceal)
        except (EOFError, ValueError) as exc:
            return type(exc), str(exc)
        planes = [(f.y, f.cb, f.cr) for f in decoded.frames]
        return planes, decoded.frame_types, decoded.concealed

    return lambda data: [decode(data, conceal) for conceal in (False, True)]


def _read_se(batched: bool):
    def run(case):
        data, count = case
        reader = BitReader(data)
        values = (
            reader.read_se_many(count)
            if batched
            else reader.read_se_many_reference(count)
        )
        return values, reader.bit_position

    return run


def _write_plane(batched: bool):
    def run(case):
        vectors, n, prev_dc, lead = case
        writer = BitWriter()
        writer.write_bits(0, lead)
        write = write_plane_vectors if batched else write_plane_vectors_reference
        dc = write(writer, vectors, n, prev_dc)
        return writer.getvalue(), len(writer), dc

    return run


def plane_parse_outcome(
    data: bytes, plane_blocks, n: int, codecs=None, *, batched: bool
):
    """``(vectors, bit_position)`` of a frame's plane parse, or the
    ``(exception type, message)`` it raised.

    The batched side is one :func:`read_plane_vectors` call over every
    plane; the reference side runs :func:`read_plane_vectors_reference`
    once per plane with the DC predictor at 0, as the decoders do.
    ``codecs`` overrides the default ``(ac, dc)`` pair.
    """
    ac, dc = codecs or (
        codec_tables.default_ac_codec(n), codec_tables.default_dc_codec(n)
    )
    eob = codec_tables.eob_symbol(n)
    reader = BitReader(data)
    try:
        if batched:
            vectors = read_plane_vectors(reader, plane_blocks, n, ac, dc, eob)
        else:
            vectors = [
                read_plane_vectors_reference(reader, nb, n, 0, ac, dc, eob)[0]
                for nb in plane_blocks
            ]
    except (EOFError, ValueError) as exc:
        return type(exc), str(exc)
    return vectors, reader.bit_position


def _plane_vectors(batched: bool):
    return lambda case: plane_parse_outcome(*case, batched=batched)


def _compensate(batched: bool):
    def run(case):
        reference, field = case
        fn = motion_compensate if batched else motion_compensate_reference
        return fn(reference, field)

    return run


def _audio_decode(batched: bool):
    """The decoded stream, or the ``(exception type, message)`` raised."""
    def run(data):
        try:
            out = AudioDecoder(batched=batched).decode(data)
        except (EOFError, ValueError) as exc:
            return type(exc), str(exc)
        return out.pcm, out.sample_rate, out.ancillary, out.delay

    return run


def _audio_encode(batched: bool):
    def run(case):
        pcm, cfg, anc = case
        out = AudioEncoder(cfg, batched=batched).encode(pcm, anc)
        return out.data, [s.allocation for s in out.frame_stats]

    return run


def _jpeg_decode(batched: bool):
    """The decoded image, or the ``(exception type, message)`` raised."""
    def run(data):
        try:
            return JpegLikeCodec(batched=batched).decode(data)
        except (EOFError, ValueError) as exc:
            return type(exc), str(exc)

    return run


def _jpeg_encode(batched: bool):
    def run(case):
        image, quality = case
        return JpegLikeCodec(batched=batched).encode(image, quality).data

    return run


def _with_mnr_bytes(alloc):
    """An allocation plus its MNR bytes (``array_equal`` lets -0.0 pass
    for 0.0; the bytes do not)."""
    return alloc, alloc.mnr_db.tobytes()


def _bitalloc_reference(case):
    smr, pool, samples, side, max_bits = case
    return [
        _with_mnr_bytes(
            allocate_bits_reference(row, pool, samples, side, max_bits)
        )
        for row in smr
    ]


def _bitalloc_batched(case):
    smr, pool, samples, side, max_bits = case
    return [
        _with_mnr_bytes(alloc)
        for alloc in allocate_bits_batch(smr, pool, samples, side, max_bits)
    ]


def _filterbank(kernel):
    def run(case):
        x, m, taps = case
        analysis, synthesis, _ = _bank_matrices(m, taps)
        matrix = analysis if kernel in (_analyze_raw, _analyze_raw_reference) \
            else synthesis
        return kernel(x, matrix, m)

    return run


# --------------------------------------------------------------- registry

REGISTRY: dict[str, OraclePair] = {}


def _register(pair: OraclePair) -> None:
    if pair.oracle in REGISTRY:
        raise ValueError(f"duplicate oracle registration: {pair.oracle}")
    REGISTRY[pair.oracle] = pair


# -- video ---------------------------------------------------------------

_register(OraclePair(
    oracle="repro.video.zigzag.zigzag_reference",
    strategy=domains.square_blocks(),
    run_reference=zigzag_reference,
    run_batched=zigzag,
))

_register(OraclePair(
    oracle="repro.video.zigzag.inverse_zigzag_reference",
    strategy=domains.zigzag_vectors(),
    run_reference=lambda case: inverse_zigzag_reference(case[0], case[1]),
    run_batched=lambda case: inverse_zigzag(case[0], case[1]),
))

_register(OraclePair(
    oracle="repro.video.motion.full_search_reference",
    strategy=_motion_cases(),
    run_reference=lambda c: full_search_reference(
        c[0], c[1], block_size=8, search_range=c[2]
    ),
    run_batched=lambda c: full_search(
        c[0], c[1], block_size=8, search_range=c[2]
    ),
))

_register(OraclePair(
    oracle="repro.video.motion._pattern_search_reference",
    strategy=_pattern_cases(),
    run_reference=lambda c: _pattern_search_reference(*c),
    run_batched=lambda c: _pattern_search(*c),
))

_register(OraclePair(
    oracle="repro.video.encoder.VideoEncoder._code_plane_reference",
    strategy=_video_encode_cases(),
    run_reference=_video_encode(batched=False),
    run_batched=_video_encode(batched=True),
))

_register(OraclePair(
    oracle="repro.video.decoder.VideoDecoder._decode_plane_reference",
    strategy=_video_streams(),
    run_reference=_video_decode(batched=False),
    run_batched=_video_decode(batched=True),
))

_register(OraclePair(
    oracle="repro.video.bitstream.BitReader.read_se_many_reference",
    strategy=_se_bitstreams(),
    run_reference=_read_se(batched=False),
    run_batched=_read_se(batched=True),
))

_register(OraclePair(
    oracle="repro.video.blockpipe.write_plane_vectors_reference",
    strategy=_plane_vector_cases(),
    run_reference=_write_plane(batched=False),
    run_batched=_write_plane(batched=True),
))

_register(OraclePair(
    oracle="repro.video.blockpipe.read_plane_vectors_reference",
    strategy=plane_vector_streams(),
    run_reference=_plane_vectors(batched=False),
    run_batched=_plane_vectors(batched=True),
))

_register(OraclePair(
    oracle="repro.video.motion.motion_compensate_reference",
    strategy=_compensate_cases(),
    run_reference=_compensate(batched=False),
    run_batched=_compensate(batched=True),
))

# -- image ---------------------------------------------------------------

_register(OraclePair(
    oracle="repro.image.jpeg.JpegLikeCodec._encode_blocks_reference",
    strategy=_jpeg_encode_cases(),
    run_reference=_jpeg_encode(batched=False),
    run_batched=_jpeg_encode(batched=True),
))

_register(OraclePair(
    oracle="repro.image.jpeg.JpegLikeCodec._decode_blocks_reference",
    strategy=_jpeg_streams(),
    run_reference=_jpeg_decode(batched=False),
    run_batched=_jpeg_decode(batched=True),
))

# -- audio ---------------------------------------------------------------

_register(OraclePair(
    oracle="repro.audio.filterbank._analyze_raw_reference",
    strategy=_analysis_cases(),
    run_reference=_filterbank(_analyze_raw_reference),
    run_batched=_filterbank(_analyze_raw),
))

_register(OraclePair(
    oracle="repro.audio.filterbank._synthesize_raw_reference",
    strategy=_synthesis_cases(),
    run_reference=_filterbank(_synthesize_raw_reference),
    run_batched=_filterbank(_synthesize_raw),
))

_register(OraclePair(
    oracle="repro.audio.bitalloc.allocate_bits_reference",
    strategy=_bitalloc_cases(),
    run_reference=_bitalloc_reference,
    run_batched=_bitalloc_batched,
))

_register(OraclePair(
    oracle="repro.audio.encoder.AudioEncoder._encode_frames_reference",
    strategy=_audio_encode_cases(),
    run_reference=_audio_encode(batched=False),
    run_batched=_audio_encode(batched=True),
))

_register(OraclePair(
    oracle="repro.audio.encoder.AudioDecoder._decode_frames_reference",
    strategy=_audio_streams(),
    run_reference=_audio_decode(batched=False),
    run_batched=_audio_decode(batched=True),
))

# -- net -----------------------------------------------------------------

_register(OraclePair(
    oracle="repro.net.packetizer.crc32_reference",
    strategy=domains.bitstreams(max_size=2048),
    run_reference=crc32_reference,
    run_batched=lambda data: zlib.crc32(data) & 0xFFFFFFFF,
))

_register(OraclePair(
    oracle="repro.net.packetizer.packets_to_wire_reference",
    strategy=domains.packet_batches(),
    run_reference=packets_to_wire_reference,
    run_batched=packets_to_wire,
))

_register(OraclePair(
    oracle="repro.net.channel.serialization_times_reference",
    strategy=domains.link_workloads(),
    run_reference=lambda c: serialization_times_reference(c[0], c[1], c[2]),
    run_batched=lambda c: serialization_times(c[0], c[1], c[2]),
    compare=assert_allclose,
))

_register(OraclePair(
    oracle="repro.net.fec.xor_parity_reference",
    strategy=st.lists(
        domains.seeded_payloads(max_size=256), min_size=1, max_size=8
    ),
    run_reference=xor_parity_reference,
    run_batched=xor_parity,
))

_register(OraclePair(
    oracle="repro.net.fec.recover_group_reference",
    strategy=_recovery_cases(),
    run_reference=lambda c: recover_group_reference(c[0], c[1]),
    run_batched=lambda c: recover_group(c[0], c[1]),
))

_register(OraclePair(
    oracle="repro.net.fec.interleave_indices_reference",
    strategy=_interleave_cases(),
    run_reference=lambda c: interleave_indices_reference(c[0], c[1]),
    run_batched=lambda c: interleave_indices(c[0], c[1]),
))

# -- support -------------------------------------------------------------

_register(OraclePair(
    oracle="repro.support.ipstack.ones_complement_checksum_reference",
    strategy=domains.bitstreams(max_size=4096),
    run_reference=ones_complement_checksum_reference,
    run_batched=ones_complement_checksum,
))
