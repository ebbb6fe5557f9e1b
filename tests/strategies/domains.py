"""Strategies over the repository's domain objects.

The idiom throughout is *seeded bulk content, shrinkable structure*:
hypothesis draws the small structural knobs (shapes, dtypes, counts,
config fields) plus one RNG seed, and the bulk payload (pixels, PCM,
payload bytes) comes from a ``np.random.Generator`` on that seed.  That
keeps example generation fast enough for 100-example tiers over whole
codec pipelines while every failure still replays from the reported
(structure, seed) pair.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.audio.bitalloc import SNR_PER_BIT
from repro.audio.encoder import AudioEncoderConfig
from repro.net.channel import GilbertElliott, IIDLoss
from repro.video.huffman import HuffmanCodec
from repro.net.fec import add_parity
from repro.net.packetizer import (
    FLAG_PARITY,
    MAX_FRAG,
    MAX_SEGMENT,
    Packet,
    packetize,
)
from repro.video.decoder import VideoDecoder
from repro.video.encoder import EncoderConfig, VideoEncoder

# ------------------------------------------------------------------ seeds


def rng_seeds() -> st.SearchStrategy[int]:
    """Seeds for ``np.random.default_rng`` (the replay handle)."""
    return st.integers(min_value=0, max_value=2**32 - 1)


# ----------------------------------------------------------- video frames

#: Dtypes a coefficient block may arrive in (the pipelines promise exact
#: behaviour for integer-valued content in any of these).
BLOCK_DTYPES = (np.int32, np.int64, np.float64)


@st.composite
def square_blocks(draw, sizes=(4, 8), lo=-256, hi=256):
    """One ``n x n`` coefficient block with a controlled dtype."""
    n = draw(st.sampled_from(sizes))
    dtype = draw(st.sampled_from(BLOCK_DTYPES))
    rng = np.random.default_rng(draw(rng_seeds()))
    return rng.integers(lo, hi, size=(n, n)).astype(dtype)


@st.composite
def zigzag_vectors(draw, sizes=(4, 8)):
    """A flat zig-zag vector plus its block side ``n``."""
    n = draw(st.sampled_from(sizes))
    dtype = draw(st.sampled_from(BLOCK_DTYPES))
    rng = np.random.default_rng(draw(rng_seeds()))
    return rng.integers(-256, 256, size=n * n).astype(dtype), n


@st.composite
def luma_frames(draw, min_side=8, max_side=40, even=True):
    """Integer-valued luma planes (float64, like real 8-bit video).

    Sides are arbitrary within the range (the codecs pad to block
    multiples themselves); ``even`` keeps the 4:2:0 chroma halving
    exact.
    """
    step = 2 if even else 1
    h = draw(st.integers(min_side // step, max_side // step)) * step
    w = draw(st.integers(min_side // step, max_side // step)) * step
    rng = np.random.default_rng(draw(rng_seeds()))
    return np.floor(rng.uniform(0.0, 256.0, size=(h, w)))


@st.composite
def frame_pairs(draw, block_size=8, max_blocks=3, max_shift=4):
    """(current, reference) frame pair with genuine block motion.

    The current frame is the reference shifted by a random global
    displacement plus sparse noise, so motion search has structure to
    find; both frames are block-aligned.  Pixel values are one of:

    * ``integer`` — floored, like real 8-bit video;
    * ``float`` — continuous uniform values;
    * ``decoded`` — the pair after an I/P encode and decode: inverse DCT
      plus prediction, clipped but never rounded, which is what the
      encoder searches when it re-encodes decoded video.
    """
    by = draw(st.integers(1, max_blocks))
    bx = draw(st.integers(1, max_blocks))
    h, w = by * block_size, bx * block_size
    rng = np.random.default_rng(draw(rng_seeds()))
    content = draw(st.sampled_from(("integer", "float", "decoded")))
    reference = rng.uniform(0.0, 256.0, size=(h, w))
    dy = draw(st.integers(-max_shift, max_shift))
    dx = draw(st.integers(-max_shift, max_shift))
    current = np.roll(reference, (dy, dx), axis=(0, 1))
    noise_at = rng.random(size=(h, w)) < 0.05
    current = np.where(noise_at, rng.uniform(0.0, 256.0, size=(h, w)), current)
    if content == "integer":
        return np.floor(current), np.floor(reference)
    if content == "decoded":
        cfg = EncoderConfig(
            gop_size=2, code_chroma=False, quality=draw(st.integers(5, 95))
        )
        stream = VideoEncoder(cfg).encode([reference, current]).data
        first, second = VideoDecoder().decode(stream).frames
        return second.y, first.y
    return current, reference


@st.composite
def video_sequences(draw, max_frames=2, min_side=8, max_side=32):
    """A short list of same-shaped integer-valued luma frames."""
    num = draw(st.integers(1, max_frames))
    h = draw(st.integers(min_side // 2, max_side // 2)) * 2
    w = draw(st.integers(min_side // 2, max_side // 2)) * 2
    rng = np.random.default_rng(draw(rng_seeds()))
    base = np.floor(rng.uniform(0.0, 256.0, size=(h, w)))
    frames = [base]
    for _ in range(num - 1):
        shifted = np.roll(frames[-1], (1, draw(st.integers(-2, 2))),
                          axis=(0, 1))
        frames.append(np.floor(np.clip(shifted, 0.0, 255.0)))
    return frames


def video_encoder_configs() -> st.SearchStrategy[EncoderConfig]:
    """Figure-1 encoder knobs, small enough for 100-example tiers.

    ``block_size`` stays 8: the intra quantization matrix
    (``repro.video.quant.INTRA_BASE``) is defined at 8x8.
    """
    return st.builds(
        EncoderConfig,
        gop_size=st.integers(1, 3),
        search_range=st.integers(1, 3),
        quality=st.integers(10, 95),
        code_chroma=st.booleans(),
        motion_enabled=st.booleans(),
    )


# ----------------------------------------------------------------- audio


@st.composite
def audio_segments(draw, max_samples=1536):
    """Mono PCM in [-1, 1]: tones, noise, or a mix, seeded."""
    n = draw(st.integers(64, max_samples))
    rng = np.random.default_rng(draw(rng_seeds()))
    kind = draw(st.sampled_from(("noise", "tone", "mix")))
    t = np.arange(n)
    if kind == "noise":
        pcm = rng.uniform(-1.0, 1.0, size=n)
    else:
        freq = draw(st.floats(0.001, 0.45))
        pcm = 0.7 * np.sin(2.0 * np.pi * freq * t)
        if kind == "mix":
            pcm = 0.6 * pcm + 0.3 * rng.uniform(-1.0, 1.0, size=n)
    return pcm


def sample_rates() -> st.SearchStrategy[float]:
    """Sample rates including deliberately fractional ones (the header
    carries the exact float64 bit pattern since stream version 2)."""
    return st.one_of(
        st.sampled_from((8000.0, 16000.0, 22050.0, 44100.0, 48000.0)),
        st.floats(
            min_value=4000.0, max_value=96000.0,
            allow_nan=False, allow_infinity=False,
        ),
    )


def audio_encoder_configs() -> st.SearchStrategy[AudioEncoderConfig]:
    """Figure-2 encoder knobs sized for property tiers (small banks)."""

    def build(num_bands, rate, bitrate, psycho, anc):
        return AudioEncoderConfig(
            sample_rate=rate,
            num_bands=num_bands,
            bitrate=bitrate,
            use_psychoacoustics=psycho,
            fft_size=max(128, 2 * num_bands),
            ancillary_bytes_per_frame=anc,
        )

    return st.builds(
        build,
        st.sampled_from((8, 16, 32)),
        sample_rates(),
        st.floats(32_000.0, 256_000.0),
        st.booleans(),
        st.integers(0, 3),
    )


@st.composite
def smr_arrays(draw, max_bands=48, max_rows=1, min_rows=1):
    """Per-band signal-to-mask ratios in dB (1-D, or stacked frames).

    Three families: ``uniform`` continuous SMRs; ``ties`` — a few
    repeated values mixed with whole multiples of ``SNR_PER_BIT``, so
    candidate MNR levels tie across bands and bit ranks and the
    allocator's (MNR, band) tie-break decides; ``infinite`` — uniform
    SMRs with some bands at ``+inf`` (never transparent) or ``-inf``
    (never needing a bit).
    """
    bands = draw(st.integers(2, max_bands))
    rows = draw(st.integers(min_rows, max_rows))
    kind = draw(st.sampled_from(("uniform", "ties", "infinite")))
    rng = np.random.default_rng(draw(rng_seeds()))
    smr = rng.uniform(-30.0, 60.0, size=(rows, bands))
    if kind == "ties":
        pool = np.concatenate([
            rng.uniform(-30.0, 60.0, size=3),
            SNR_PER_BIT * np.arange(-3, 10),
        ])
        smr = rng.choice(pool, size=(rows, bands))
    elif kind == "infinite":
        pick = rng.random(size=(rows, bands))
        smr[pick < 0.15] = np.inf
        smr[pick > 0.85] = -np.inf
    return smr[0] if max_rows == 1 else smr


# ---------------------------------------------------------- huffman tables


@st.composite
def huffman_codecs(draw):
    """Canonical Huffman codecs spanning the decoder's table shapes.

    Four families, chosen to hit every branch of the two-level LUT
    decoder (``repro.video.huffman.FastHuffmanDecoder``):

    * ``single`` — a one-symbol alphabet (the degenerate 1-bit code);
    * ``uniform`` — random near-flat frequencies (every code fits the
      first-level table);
    * ``skewed`` — powers-of-two frequencies, the maximally unbalanced
      chain tree (code lengths up to ``n - 1``, past the peek width for
      ``n > 17``, so second-level subtables are exercised);
    * ``deep`` — Fibonacci frequencies, the classic worst case packing
      many distinct beyond-peek lengths into one table.
    """
    kind = draw(st.sampled_from(("single", "uniform", "skewed", "deep")))
    if kind == "single":
        return HuffmanCodec.from_frequencies({draw(st.integers(0, 500)): 1})
    if kind == "uniform":
        n = draw(st.integers(2, 300))
        rng = np.random.default_rng(draw(rng_seeds()))
        return HuffmanCodec.from_frequencies(
            {s: int(f) for s, f in enumerate(rng.integers(1, 1000, size=n))}
        )
    if kind == "skewed":
        n = draw(st.integers(2, 24))  # depth n-1 stays within MAX_CODE_LENGTH
        return HuffmanCodec.from_frequencies(
            {s: 1 << (n - s) for s in range(n)}
        )
    n = draw(st.integers(18, 28))
    a, b = 1, 2
    freqs = {}
    for s in range(n):
        freqs[s] = a
        a, b = b, a + b
    return HuffmanCodec.from_frequencies(freqs)


# ------------------------------------------------------------- bitstreams


def bitstreams(max_size=512) -> st.SearchStrategy[bytes]:
    """Raw byte strings (checksums, CRCs, corrupt-input fuzzing)."""
    return st.binary(min_size=0, max_size=max_size)


@st.composite
def seeded_payloads(draw, min_size=0, max_size=4096):
    """Larger seeded payloads: size + seed shrink, content is bulk."""
    size = draw(st.integers(min_size, max_size))
    rng = np.random.default_rng(draw(rng_seeds()))
    return rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()


# ---------------------------------------------------------------- packets


@st.composite
def packets(draw, max_payload=64):
    """One valid transport packet (data or parity-flagged)."""
    return Packet(
        stream_id=draw(st.integers(0, 0xFFFF)),
        seq=draw(st.integers(0, 2**31)),
        segment=draw(st.integers(0, MAX_SEGMENT)),
        frag=draw(st.integers(0, MAX_FRAG)),
        frag_count=draw(st.integers(1, MAX_FRAG)),
        payload=draw(seeded_payloads(max_size=max_payload)),
        flags=draw(st.sampled_from((0, FLAG_PARITY))),
    )


def packet_batches(max_packets=12) -> st.SearchStrategy[list]:
    """Batches of valid packets (the wire-serialization domain)."""
    return st.lists(packets(), min_size=0, max_size=max_packets)


@st.composite
def packetized_segments(draw, max_bytes=2048):
    """(segment bytes, mtu, packet list): one packetize() call's worth."""
    data = draw(seeded_payloads(max_size=max_bytes))
    mtu = draw(st.integers(1, 512))
    stream_id = draw(st.integers(0, 0xFFFF))
    segment = draw(st.integers(0, MAX_SEGMENT))
    seq_start = draw(st.integers(0, 10_000))
    pkts = packetize(stream_id, segment, data, mtu=mtu, seq_start=seq_start)
    return data, mtu, pkts


@st.composite
def parity_groups(draw, max_group=8):
    """A FEC-protected wire list plus its parity group size.

    Built with :func:`repro.net.fec.add_parity` over a packetized
    segment, so groups carry realistic header fields and a short tail
    group is always possible.
    """
    data, _, pkts = draw(packetized_segments(max_bytes=512))
    group = draw(st.integers(1, max_group))
    wire = add_parity(pkts, group=group, seq_start=draw(st.integers(0, 999)))
    return data, group, wire


# --------------------------------------------------------------- channels


@st.composite
def gilbert_params(draw):
    """Valid Gilbert–Elliott parameter tuples (burst-loss channels)."""
    return dict(
        p_good_to_bad=draw(st.floats(0.0, 1.0)),
        p_bad_to_good=draw(st.floats(0.05, 1.0)),
        loss_good=draw(st.floats(0.0, 0.2)),
        loss_bad=draw(st.floats(0.5, 1.0)),
    )


@st.composite
def gilbert_channels(draw):
    """A seeded Gilbert–Elliott loss process ready to sample."""
    params = draw(gilbert_params())
    seed = draw(rng_seeds())
    return GilbertElliott(rng=np.random.default_rng(seed), **params)


@st.composite
def iid_channels(draw):
    """A seeded i.i.d. loss process."""
    return IIDLoss(
        draw(st.floats(0.0, 0.9)),
        rng=np.random.default_rng(draw(rng_seeds())),
    )


@st.composite
def link_workloads(draw, max_packets=64):
    """(sizes, send times, bandwidth) for the FIFO serialization model."""
    n = draw(st.integers(1, max_packets))
    rng = np.random.default_rng(draw(rng_seeds()))
    sizes = rng.integers(20, 1500, size=n)
    send = np.sort(rng.random(n) * draw(st.floats(0.001, 1.0)))
    bandwidth = draw(st.floats(1e4, 1e8))
    return sizes, send, bandwidth
