"""Segment-granularity batched Figure-2 audio pipeline (experiment R7).

The audio twin of :mod:`repro.video.blockpipe`: Wolf's Figure-2 subband
encoder is, like the Figure-1 transform chain, a regular data-parallel
kernel sequence — polyphase filterbank, windowed FFT analysis, per-band
allocation, uniform quantization, fixed-width field packing — that the
seed implementation walked one 384-sample frame at a time through Python
loops.  This module runs the whole chain at *segment* granularity:

* the filterbank frames the signal with one strided view and a single
  matmul per direction (:func:`repro.audio.filterbank._analyze_raw` /
  ``_synthesize_raw``, scalar loops kept as ``*_reference``);
* the psychoacoustic model runs one batched ``np.fft.rfft`` over every
  analysis window at once with vectorized masker/threshold/SMR math
  (:meth:`repro.audio.psychoacoustic.PsychoacousticModel.analyze_batch`);
* the greedy bit allocator advances every frame in lockstep with an
  incremental MNR update (:func:`repro.audio.bitalloc.allocate_bits_batch`);
* frame packing assembles every fixed-width field of the segment —
  allocations, scalefactors, codes, ancillary bytes — as one ``(values,
  widths)`` pair flushed through ``BitWriter.write_many``
  (:func:`pack_frames_batch`), and unpacking drains them back through the
  chunked ``BitReader.read_many`` bulk path (:func:`unpack_frames_batch`).

Every step is **bit-identical** to the scalar reference implementations
(same subbands, same SMRs, same allocations, same bitstream bytes),
pinned per kernel, per codec, and across every registered runtime
scenario in ``tests/test_audio_subbandpipe.py``; the speedup is asserted
in ``benchmarks/bench_audio_pipeline.py`` (>= 5x on whole-stream encode).
Codecs and filterbanks pick the pipeline per instance with their
``batched=`` argument (default ``True``).
"""

from __future__ import annotations

import numpy as np

from ..video.bitstream import PEEK_WIDTH
from .frame import (
    ALLOC_FIELD_BITS,
    SAMPLES_PER_BAND,
    SCF_FIELD_BITS,
    scalefactor_table,
)

# ----------------------------------------------------------- frame packing


def batch_scalefactors(max_abs: np.ndarray) -> np.ndarray:
    """Vectorized :func:`repro.audio.frame.choose_scalefactor`.

    The table is strictly descending, so the entries still covering
    ``max_abs`` form a prefix and the chosen index is the prefix length
    minus one (0 when even the largest entry is exceeded — the band will
    clip, exactly like the scalar helper).
    """
    table = scalefactor_table()
    covering = np.sum(
        table >= np.asarray(max_abs, dtype=np.float64)[..., None], axis=-1
    )
    return np.maximum(covering - 1, 0)


def batch_quantize(
    subbands: np.ndarray, allocations: np.ndarray, scf: np.ndarray
) -> np.ndarray:
    """Uniform midrise quantization of a whole segment at once.

    ``subbands`` is ``(frames, samples_per_band, bands)``, ``allocations``
    and ``scf`` are ``(frames, bands)``.  Mirrors
    :func:`repro.audio.frame.quantize_band` expression for expression;
    inactive bands (0 bits) produce don't-care codes the packer skips.
    """
    safe_scf = np.where(allocations > 0, scf, 1.0)[:, None, :]
    levels = (1 << allocations)[:, None, :]
    normalized = np.clip(subbands / safe_scf, -1.0, 1.0 - 1e-12)
    return np.floor((normalized + 1.0) * 0.5 * levels).astype(np.int64)


def batch_dequantize(
    codes: np.ndarray, allocations: np.ndarray, scf: np.ndarray
) -> np.ndarray:
    """Midrise reconstruction of a whole segment; inactive bands stay 0.

    The chain runs in place on one float64 buffer — operation for
    operation the same binary ops on the same operands as the obvious
    expression, so the bits are identical, without five temporaries.
    """
    active = (allocations > 0)[:, None, :]
    levels = np.where(allocations > 0, 1 << allocations, 1)[:, None, :]
    recon = codes.astype(np.float64)
    recon += 0.5
    recon /= levels
    recon *= 2.0
    recon -= 1.0
    recon *= scf[:, None, :]
    return np.where(active, recon, 0.0)


def pack_frames_batch(
    writer,
    subbands: np.ndarray,
    allocations: np.ndarray,
    ancillary: bytes = b"",
    ancillary_bytes_per_frame: int = 0,
) -> np.ndarray:
    """Serialize a whole segment of frames with one ``write_many`` call.

    ``subbands`` is ``(frames, samples_per_band, bands)``, ``allocations``
    ``(frames, bands)``.  Emits, per frame, exactly the scalar layout —
    allocation fields, scalefactors of the active bands, band-major
    sample codes, then the frame's (zero-padded) ancillary chunk — as one
    flat ``(values, widths)`` pair, and returns the per-frame bit counts.
    """
    subbands = np.asarray(subbands, dtype=np.float64)
    allocations = np.asarray(allocations, dtype=np.int64)
    if subbands.ndim != 3:
        raise ValueError("expected a (frames, samples, bands) tensor")
    num_frames, spb, num_bands = subbands.shape
    if allocations.shape != (num_frames, num_bands):
        raise ValueError("allocations must be (frames, bands)")
    anc = int(ancillary_bytes_per_frame)

    scf_idx = batch_scalefactors(np.max(np.abs(subbands), axis=1))
    codes = batch_quantize(
        subbands, allocations, scalefactor_table()[scf_idx]
    )

    active = allocations > 0
    a = np.count_nonzero(active, axis=1)
    frame_bits = (
        num_bands * ALLOC_FIELD_BITS
        + a * SCF_FIELD_BITS
        + spb * allocations.sum(axis=1)
        + 8 * anc
    )
    if num_frames == 0:
        return frame_bits

    # One flat field list; frame f's fields occupy [off[f], off[f+1]).
    fields_per_frame = num_bands + (1 + spb) * a + anc
    off = np.cumsum(fields_per_frame) - fields_per_frame
    total = int(fields_per_frame.sum())
    vals = np.empty(total, dtype=np.int64)
    ws = np.empty(total, dtype=np.int64)

    alloc_pos = np.repeat(off, num_bands) + np.tile(
        np.arange(num_bands), num_frames
    )
    vals[alloc_pos] = allocations.reshape(-1)
    ws[alloc_pos] = ALLOC_FIELD_BITS

    act_f, act_b = np.nonzero(active)  # row-major: frame, then band order
    starts = np.cumsum(a) - a
    rank = np.arange(act_f.size) - starts[act_f]
    scf_pos = off[act_f] + num_bands + rank
    vals[scf_pos] = scf_idx[act_f, act_b]
    ws[scf_pos] = SCF_FIELD_BITS

    band_widths = allocations[act_f, act_b]
    code_start = off[act_f] + num_bands + a[act_f] + rank * spb
    code_pos = np.repeat(code_start, spb) + np.tile(
        np.arange(spb), act_f.size
    )
    vals[code_pos] = codes.transpose(0, 2, 1)[act_f, act_b].reshape(-1)
    ws[code_pos] = np.repeat(band_widths, spb)

    if anc:
        padded = ancillary[:num_frames * anc].ljust(num_frames * anc, b"\x00")
        anc_pos = np.repeat(
            off + num_bands + (1 + spb) * a, anc
        ) + np.tile(np.arange(anc), num_frames)
        vals[anc_pos] = np.frombuffer(padded, dtype=np.uint8)
        ws[anc_pos] = 8

    writer.write_many(vals, ws)
    return frame_bits


def unpack_frames_batch(
    reader,
    num_frames: int,
    num_bands: int,
    samples_per_band: int = SAMPLES_PER_BAND,
    ancillary_bytes_per_frame: int = 0,
) -> tuple[np.ndarray, bytes]:
    """Deserialize + dequantize a run of frames as two window gathers.

    The field layout is self-describing only frame by frame (a frame's
    scalefactor/code widths follow from its allocation fields), but with
    the buffer unpacked once into :meth:`BitReader.bit_window` peeks the
    sequential part shrinks to almost nothing (experiment R9): pass 1
    walks frames gathering just the ``num_bands`` allocation nibbles per
    frame — each frame's total bit length follows — and pass 2 computes
    the bit position of *every* scalefactor, sample code, and ancillary
    byte of the segment at once (mirroring the :func:`pack_frames_batch`
    layout math) and gathers them all in three fancy-index pulls.  The
    dequantization then runs over the whole ``(frames, samples, bands)``
    tensor as before.

    A segment whose frames run off the end of the buffer falls back to
    the chunked ``read_many`` drain (:func:`_unpack_frames_chunked`, the
    pre-R9 formulation) from the starting position, preserving the exact
    truncation error behaviour.
    """
    anc = int(ancillary_bytes_per_frame)
    start = reader.bit_position
    window = reader.bit_window()
    nbits = reader.size_bits
    offs = np.zeros(num_frames, dtype=np.int64)
    alloc_bits = num_bands * ALLOC_FIELD_BITS
    anc_bits = 8 * anc
    # Shift the whole window down to nibble values once: frame f's
    # allocation fields are then a plain strided slice of ``nibbles`` —
    # basic indexing, far cheaper per frame than a fancy gather + shift.
    nibbles = window >> (PEEK_WIDTH - ALLOC_FIELD_BITS)
    pos = start
    for f in range(num_frames):
        if pos + alloc_bits > nbits:
            reader.seek(start)
            return _unpack_frames_chunked(
                reader, num_frames, num_bands, samples_per_band, anc
            )
        offs[f] = pos
        # C-speed reductions over a plain list beat both ndarray
        # reductions and a Python walk in this sequential loop.
        widths = nibbles[pos:pos + alloc_bits:ALLOC_FIELD_BITS].tolist()
        active_bands = num_bands - widths.count(0)
        pos += (
            alloc_bits
            + active_bands * SCF_FIELD_BITS
            + samples_per_band * sum(widths)
            + anc_bits
        )
        if pos > nbits:
            reader.seek(start)
            return _unpack_frames_chunked(
                reader, num_frames, num_bands, samples_per_band, anc
            )

    # The allocation matrix itself is one vectorized gather off the
    # now-final frame offsets — cheaper than a per-frame row store.
    allocations = nibbles[
        offs[:, None] + ALLOC_FIELD_BITS * np.arange(num_bands)[None, :]
    ].astype(np.int64)

    scf_idx = np.zeros((num_frames, num_bands), dtype=np.int64)
    codes = np.zeros((num_frames, samples_per_band, num_bands), dtype=np.int64)
    active = allocations > 0
    a = np.count_nonzero(active, axis=1)
    act_f, act_b = np.nonzero(active)  # row-major, mirroring the packer
    if act_f.size:
        starts = np.cumsum(a) - a
        rank = np.arange(act_f.size) - starts[act_f]
        scf_pos = (
            offs[act_f] + num_bands * ALLOC_FIELD_BITS + rank * SCF_FIELD_BITS
        )
        scf_idx[act_f, act_b] = (
            window[scf_pos] >> (PEEK_WIDTH - SCF_FIELD_BITS)
        )
        band_widths = allocations[act_f, act_b]
        # Exclusive running bit-width sum of each frame's earlier active
        # bands: one whole-segment cumsum re-based at every frame's first entry.
        ex = np.cumsum(band_widths) - band_widths
        frame_base = ex[np.minimum(starts, ex.size - 1)]
        within = ex - frame_base[act_f]
        code_start = (
            offs[act_f]
            + num_bands * ALLOC_FIELD_BITS
            + a[act_f] * SCF_FIELD_BITS
            + samples_per_band * within
        )
        sample_pos = (
            code_start[:, None]
            + np.arange(samples_per_band)[None, :] * band_widths[:, None]
        )
        codes[act_f, :, act_b] = (
            window[sample_pos] >> (PEEK_WIDTH - band_widths[:, None])
        )

    if anc and num_frames:
        anc_start = (
            offs
            + num_bands * ALLOC_FIELD_BITS
            + a * SCF_FIELD_BITS
            + samples_per_band * allocations.sum(axis=1)
        )
        anc_pos = anc_start[:, None] + 8 * np.arange(anc)[None, :]
        ancillary = (
            (window[anc_pos] >> (PEEK_WIDTH - 8))
            .astype(np.uint8)
            .tobytes()
        )
    else:
        ancillary = b""

    reader.seek(int(pos))
    blocks = batch_dequantize(
        codes, allocations, scalefactor_table()[scf_idx]
    )
    return blocks, ancillary


def _unpack_frames_chunked(
    reader,
    num_frames: int,
    num_bands: int,
    samples_per_band: int = SAMPLES_PER_BAND,
    ancillary_bytes_per_frame: int = 0,
) -> tuple[np.ndarray, bytes]:
    """Chunked ``read_many`` drain (the R7 batched unpack).

    Kept as the truncated-stream fallback of :func:`unpack_frames_batch`:
    it consumes fields in exactly the scalar order, so a stream that ends
    mid-frame raises from the same field with the same exception as
    before the window-gather rewrite.
    """
    anc = int(ancillary_bytes_per_frame)
    allocations = np.zeros((num_frames, num_bands), dtype=np.int64)
    scf_idx = np.zeros((num_frames, num_bands), dtype=np.int64)
    codes = np.zeros((num_frames, samples_per_band, num_bands), dtype=np.int64)
    anc_chunks: list[np.ndarray] = []
    alloc_widths = np.full(num_bands, ALLOC_FIELD_BITS, dtype=np.int64)
    for f in range(num_frames):
        alloc = reader.read_many(alloc_widths)
        allocations[f] = alloc
        active = np.nonzero(alloc > 0)[0]
        if active.size:
            scf_idx[f, active] = reader.read_many(
                np.full(active.size, SCF_FIELD_BITS, dtype=np.int64)
            )
            band_codes = reader.read_many(
                np.repeat(alloc[active], samples_per_band)
            )
            codes[f, :, active] = band_codes.reshape(
                active.size, samples_per_band
            )
        if anc:
            anc_chunks.append(
                reader.read_many(np.full(anc, 8, dtype=np.int64))
            )
    blocks = batch_dequantize(
        codes, allocations, scalefactor_table()[scf_idx]
    )
    ancillary = (
        np.concatenate(anc_chunks).astype(np.uint8).tobytes()
        if anc_chunks else b""
    )
    return blocks, ancillary
