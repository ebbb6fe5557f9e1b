"""Batched block-transform pipeline (experiments R6, R11, R13).

Wolf's survey stresses that the Figure-1 transform chain — DCT, quantize,
zig-zag, run-length — is regular and data-parallel, exactly the shape media
hardware batches across a whole frame.  This module is the software version
of that observation: instead of walking 8x8 blocks one at a time through
Python loops, a plane is tiled into an ``(nblocks, n, n)`` tensor once and
every stage runs over the block axis in a handful of NumPy passes.  The
encoder works at frame granularity (each frame predicts from the last
one's reconstruction); the decoder at segment granularity, since only
its motion compensation sits inside the prediction loop:

* ``plane_to_vectors`` — tiled DCT (one broadcast matmul pair), batched
  quantization, and index-array zig-zag, plane -> ``(nblocks, n*n)``;
* ``write_plane_vectors`` — vectorized run-length extraction
  (:func:`repro.video.rle.batch_run_levels`) plus table-driven Huffman/
  magnitude field assembly, flushed through ``BitWriter.write_many``;
* ``read_plane_vectors`` — the entropy parse of many planes, a whole
  coded segment's for the video decoder (one plane for the JPEG codec):
  a serial walk of one multi-event table probe per 16-bit window, then one
  NumPy pass for DC prediction, in-block positions and the scatter;
* ``vectors_to_plane`` — batched dequantize + inverse zig-zag + inverse DCT
  back to a plane, or to a segment's frames of one plane type stacked,
  each under its own quantizer matrix.

Every step is **bit-identical** to the scalar reference implementations the
codecs keep (``_code_plane_reference`` / ``_decode_plane_reference`` and
the ``*_reference`` kernels in :mod:`repro.video.zigzag`): same coefficient
values, same levels, same (run, level) events, same bitstream bytes.  The
scalar entropy format lives here once, as
:func:`write_plane_vectors_reference` / :func:`read_plane_vectors_reference`,
and every scalar codec path (video and JPEG, encode and decode) goes
through that pair.  The equivalence is pinned per kernel and per codec in
``tests/test_video_blockpipe.py`` and across every registered runtime
scenario; the speedup is asserted in
``benchmarks/bench_block_pipeline.py`` (>= 5x on whole-frame intra encode).
Codecs pick the pipeline per instance with their ``batched=`` argument
(default ``True``).
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate

import numpy as np

from . import codec_tables as tables
from .bitstream import PEEK_WIDTH
from .dct import blocked_dct_2d, blocked_idct_2d, tile_blocks, untile_blocks
from .huffman import fast_decoder
from .quant import dequantize, quantize
from .rle import batch_run_levels, encode_block
from .zigzag import inverse_zigzag_blocks, zigzag_blocks, zigzag_index

# --------------------------------------------------------------- transforms


def plane_to_vectors(
    plane: np.ndarray, matrix: np.ndarray, block_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Transform + quantize + zig-zag a plane at frame granularity.

    Returns ``(levels, vectors)``: the quantized ``(nblocks, n, n)`` level
    tensor (handy for reconstruction without undoing the scan) and its
    ``(nblocks, n*n)`` zig-zag vectors, in row-major block order.
    """
    blocks = tile_blocks(plane, block_size)
    levels = quantize(blocked_dct_2d(blocks), matrix)
    return levels, zigzag_blocks(levels)


def vectors_to_plane(
    vectors: np.ndarray,
    matrix: np.ndarray,
    block_size: int,
    shape: tuple[int, int],
) -> np.ndarray:
    """Dequantize + inverse-transform zig-zag vectors back into a plane.

    ``matrix`` is one ``(n, n)`` quantizer matrix, or a stack of ``k``
    of them, one per run of ``nblocks / k`` consecutive blocks: a
    segment's frames stacked into one ``(k * h, w)`` plane, whose
    row-major block order is frame order.  Levels are dequantized in
    scan order, before the un-scan — the same products, one float
    buffer fewer.
    """
    n = block_size
    scan = np.asarray(matrix, dtype=np.float64).reshape(-1, 1, n * n)
    runs = np.asarray(vectors).reshape(scan.shape[0], -1, n * n)
    coeffs = inverse_zigzag_blocks(
        (runs * scan[..., zigzag_index(n)]).reshape(-1, n * n), n
    )
    return untile_blocks(blocked_idct_2d(coeffs), shape)


def levels_to_plane(
    levels: np.ndarray, matrix: np.ndarray, shape: tuple[int, int]
) -> np.ndarray:
    """Reconstruction from the pre-scan level tensor (skips the un-scan).

    ``inverse_zigzag_blocks(zigzag_blocks(levels))`` is an exact
    permutation round-trip, so feeding ``levels`` straight back is
    bit-identical to the reference path's scan/un-scan detour.
    """
    coeffs = dequantize(levels.astype(np.float64), matrix)
    return untile_blocks(blocked_idct_2d(coeffs), shape)


# ------------------------------------------------------------ entropy stage

#: The error every plane parse raises for a block whose runs pass its end.
OVERRUN = "corrupt stream: AC coefficients overrun block"


def _field_tables(codec, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Symbol -> (code, width) lookup arrays for a Huffman codec.

    Slots the codec never assigned keep width -1 so lookups of
    out-of-alphabet symbols fail loudly (matching the scalar path's
    ``KeyError``) instead of silently emitting zero-width fields.
    """
    codes = np.zeros(size, dtype=np.int64)
    widths = np.full(size, -1, dtype=np.int64)
    for symbol, (code, width) in codec.codes.items():
        codes[symbol] = code
        widths[symbol] = width
    return codes, widths


@lru_cache(maxsize=8)
def _ac_field_tables(block_size: int) -> tuple[np.ndarray, np.ndarray]:
    """AC symbol -> (code, width) arrays (EOB is the last symbol)."""
    return _field_tables(
        tables.default_ac_codec(block_size), tables.ac_alphabet_size(block_size)
    )


@lru_cache(maxsize=8)
def _dc_field_tables(block_size: int) -> tuple[np.ndarray, np.ndarray]:
    """DC category -> (code, width) arrays."""
    return _field_tables(
        tables.default_dc_codec(block_size), tables.NUM_CATEGORIES
    )


def _lookup_fields(
    codes: np.ndarray, widths: np.ndarray, symbols: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Table lookup that rejects unassigned symbols like ``code_for`` does."""
    symbols = np.asarray(symbols)
    if np.any(symbols >= codes.size):
        bad = int(symbols[symbols >= codes.size][0])
        raise KeyError(f"symbol {bad} not in Huffman alphabet")
    ws = widths[symbols]
    if np.any(ws < 0):
        bad = int(symbols[ws < 0][0])
        raise KeyError(f"symbol {bad} not in Huffman alphabet")
    return codes[symbols], ws


def write_plane_vectors(
    writer, vectors: np.ndarray, block_size: int, prev_dc: int
) -> int:
    """Entropy-code a plane's zig-zag vectors; returns the new DC predictor.

    Bit-identical to :func:`write_plane_vectors_reference` (DC category +
    magnitude, then per non-zero level the packed (run, category) Huffman
    code + its magnitude bits, then EOB): every field of the plane is
    assembled as a (value, width) pair in NumPy — Huffman code and
    magnitude bits fused into one field — and flushed with a single
    ``write_many`` call.
    """
    vectors = np.asarray(vectors)
    nblocks = vectors.shape[0]
    if nblocks == 0:
        return prev_dc
    ac_codes, ac_widths = _ac_field_tables(block_size)
    dc_codes, dc_widths = _dc_field_tables(block_size)

    dcs = vectors[:, 0].astype(np.int64)
    diffs = np.diff(dcs, prepend=np.int64(prev_dc))
    dc_cats = tables.magnitude_categories(diffs)
    dc_codes_f, dc_widths_f = _lookup_fields(dc_codes, dc_widths, dc_cats)
    dc_vals = (dc_codes_f << dc_cats) | tables.magnitude_bits(diffs, dc_cats)
    dc_ws = dc_widths_f + dc_cats

    starts, runs, levels = batch_run_levels(vectors[:, 1:])
    counts = np.diff(starts)

    # Interleave DC / AC events / EOB per block into one flat field list:
    # block b's fields occupy [starts[b] + 2b, starts[b+1] + 2b + 2).
    total = int(starts[-1]) + 2 * nblocks
    vals = np.empty(total, dtype=np.int64)
    ws = np.empty(total, dtype=np.int64)
    dc_pos = starts[:-1] + 2 * np.arange(nblocks)
    vals[dc_pos] = dc_vals
    ws[dc_pos] = dc_ws
    eob = tables.eob_symbol(block_size)
    eob_pos = dc_pos + counts + 1
    vals[eob_pos] = ac_codes[eob]
    ws[eob_pos] = ac_widths[eob]
    if levels.size:
        ac_cats = tables.magnitude_categories(levels)
        symbols = runs * tables.NUM_CATEGORIES + ac_cats
        ac_codes_f, ac_widths_f = _lookup_fields(ac_codes, ac_widths, symbols)
        ac_pos = (
            np.arange(levels.size)
            + 2 * np.repeat(np.arange(nblocks), counts)
            + 1
        )
        vals[ac_pos] = (ac_codes_f << ac_cats) | tables.magnitude_bits(
            levels, ac_cats
        )
        ws[ac_pos] = ac_widths_f + ac_cats

    writer.write_many(vals, ws)
    return int(dcs[-1])


def write_plane_vectors_reference(
    writer, vectors: np.ndarray, block_size: int, prev_dc: int
) -> int:
    """Scalar per-block writer: the :func:`write_plane_vectors` oracle.

    One ``encode_symbol`` / ``encode_magnitude`` call per field, in the
    stream order of the format: the DC difference's category and
    magnitude, then each :func:`~repro.video.rle.encode_block` event's
    packed (run, category) code and magnitude, then EOB.  Returns the new
    DC predictor.
    """
    ac_codec = tables.default_ac_codec(block_size)
    dc_codec = tables.default_dc_codec(block_size)
    eob = tables.eob_symbol(block_size)
    for vec in np.asarray(vectors):
        dc = int(vec[0])
        diff = dc - prev_dc
        dc_codec.encode_symbol(tables.magnitude_category(diff), writer)
        tables.encode_magnitude(diff, writer)
        for event in encode_block(vec[1:])[:-1]:  # the last event is EOB
            cat = tables.magnitude_category(event.level)
            ac_codec.encode_symbol(tables.pack_ac(event.run, cat), writer)
            tables.encode_magnitude(event.level, writer)
        ac_codec.encode_symbol(eob, writer)
        prev_dc = dc
    return prev_dc


def read_plane_vectors(
    reader,
    plane_blocks,
    block_size: int,
    ac_codec,
    dc_codec,
    eob: int,
) -> list[np.ndarray]:
    """Parse consecutive planes' entropy streams into zig-zag vectors.

    ``plane_blocks`` gives each plane's block count; plane ``i`` comes
    back as an ``(plane_blocks[i], n*n)`` array, its DC predictor
    starting at 0 as the encoder writes it.  The counts are drawn one at
    a time, each with the reader at that plane's first bit, so a
    generator may read whatever the stream stores between planes — a
    video frame's header and motion vectors — and one call parses a
    whole coded segment.

    The serial part of the parse is one
    :func:`repro.video.codec_tables.chunk_table` probe per
    :meth:`BitReader.bit_window` peek, which resolves the greedy run of
    complete events — Huffman code *plus* magnitude field — the window
    starts with, and records only the row id.  A plane ends exactly at
    its last end-of-block: a row that runs past it keeps only the events
    up to it, as exact events, and the reader is left there.  One NumPy
    pass over all planes then gathers the rows, turns DC differences
    into levels (a cumulative sum restarted per plane), finds in-block
    positions (a segmented cumulative sum of ``run + 1``), checks for
    overrun, and scatters once.

    A window whose *first* event does not fit it (a code or magnitude past
    the peek, a chunk past the end of the buffer, a corrupt pattern) gets
    one exact scalar event.  When a parse error — or an error drawing the
    next count — propagates, the events collected so far are first
    checked for an overrun, which comes first in the stream.  Results
    *and* errors are thus bit-identical to
    :func:`read_plane_vectors_reference` run once per plane — pinned by
    the oracle pair in ``tests/strategies/registry.py`` and the parity
    property in ``tests/test_video_blockpipe.py``.  The raised
    ``EOFError`` / ``ValueError`` carries the planes parsed whole before
    the failing one in its ``planes`` attribute, so a concealing decoder
    keeps them without parsing again.
    """
    length = block_size * block_size
    heads, slots = tables.chunk_table(ac_codec, dc_codec, eob)
    window = memoryview(reader.bit_window())
    safe = reader.size_bits - PEEK_WIDTH  # a chunk read here fits the buffer
    bits_mask = tables.CHUNK_BITS_MASK
    ac_state = tables.CHUNK_AC
    eob_shift = tables.CHUNK_EOB_SHIFT
    ids: list[int] = []
    append = ids.append
    exact_id = len(slots)  # the row id that stands for the next of extra
    extra: list[int] = []  # exactly parsed events
    counts: list[int] = []  # block count of every plane begun
    pending: list[int] = []
    total = eobs = state = 0
    try:
        for nblocks in plane_blocks:
            counts.append(nblocks)
            total += nblocks
            pos = reader.bit_position
            while eobs < total:
                while pos <= safe:
                    key = state | window[pos]
                    head = heads[key]
                    if not head:
                        break
                    append(key)
                    pos += head & bits_mask
                    state = head & ac_state
                    if head >> eob_shift:
                        eobs += head >> eob_shift
                        if eobs >= total:
                            break
                if eobs >= total:
                    if state or eobs > total:
                        # The row runs past the plane's last end-of-block:
                        # keep its events up to it, as exact events.
                        pos -= head & bits_mask
                        kept = _row_until(
                            slots[key], total - eobs + (head >> eob_shift)
                        )
                        ids[-1:] = [exact_id] * len(kept)
                        extra += kept
                        pos += sum(e & tables.EVENT_BITS_MASK for e in kept)
                        eobs, state = total, 0
                    break
                pending = []
                event = _exact_event(
                    reader, pos, state, ac_codec, dc_codec, eob, pending
                )
                extra.append(event)
                append(exact_id)
                pos = reader.bit_position
                if event & tables.EVENT_EOB:
                    eobs += 1
                    state = 0
                else:
                    state = ac_state
            reader.seek(pos)
    except (EOFError, ValueError) as exc:
        failed = len(counts) - (eobs < total)
        if eobs < total and state:
            # Close the open block so its levels are checked too; an AC
            # event's run is checked before its magnitude, as the scalar
            # parse does.
            pending.append(tables.EVENT_EOB | (1 << tables.EVENT_STEP_SHIFT))
        else:
            pending = []
        events = _recorded_events(
            slots, ids + [exact_id] * len(pending), extra + pending
        )
        raise _failure(exc, events, counts, failed, length)
    events = _recorded_events(slots, ids, extra)
    return _planes(events, counts, length)


def _row_until(row, need: int) -> list[int]:
    """The events of a chunk row up to its ``need``-th end-of-block."""
    kept = []
    for event in row.tolist():
        kept.append(event)
        if event & tables.EVENT_EOB:
            need -= 1
            if not need:
                break
    return kept


def _exact_event(
    reader, pos, state, ac_codec, dc_codec, eob, pending
) -> int:
    """One event parsed exactly at ``pos``, packed like a table event.

    An AC event's in-block advance goes to ``pending`` before its
    magnitude is read, so that a caller seeing the read fail can check
    the run for an overrun first.
    """
    reader.seek(pos)
    if state:
        symbol = fast_decoder(ac_codec).decode_symbol(reader)
        if symbol == eob:
            return (
                (1 << tables.EVENT_STEP_SHIFT)
                | tables.EVENT_EOB
                | (reader.bit_position - pos)
            )
        run, category = tables.unpack_ac(symbol)
        kind = (run + 1) << tables.EVENT_STEP_SHIFT
        pending.append(kind)
    else:
        category = fast_decoder(dc_codec).decode_symbol(reader)
        kind = tables.EVENT_DC
    value = tables.decode_magnitude(category, reader)
    return (
        (value << tables.EVENT_VALUE_SHIFT)
        | kind
        | (reader.bit_position - pos)
    )


def _recorded_events(slots, ids, extra) -> np.ndarray:
    """The packed events of the recorded chunk rows, in stream order.

    Each row id past ``slots`` stands for the next event of ``extra``.
    """
    ids = np.fromiter(ids, dtype=np.intp, count=len(ids))
    rows = slots.take(ids, axis=0, mode="clip")
    if extra:
        exact = ids >= len(slots)
        rows[exact] = 0
        rows[exact, 0] = extra
    rows = rows.ravel()
    return rows.compress(rows != 0)


def _block_layout(events, length):
    """``(dc_at, eob_at, ends, overrun)`` of stream-ordered events.

    ``dc_at`` / ``eob_at`` index each block's DC and end-of-block, and
    ``ends`` is the running sum of in-block advances, so block ``b``'s
    levels sit at ``ends - ends[dc_at[b]]``.  ``overrun`` is the first
    closed block whose end-of-block lands past the block, or ``None``.
    """
    eob_at = np.flatnonzero((events & tables.EVENT_EOB) != 0)
    dc_at = np.flatnonzero((events & tables.EVENT_DC) != 0)
    ends = np.cumsum((events >> tables.EVENT_STEP_SHIFT) & 0xFF)
    over = np.flatnonzero(ends[eob_at] - ends[dc_at[:eob_at.size]] > length)
    return dc_at, eob_at, ends, int(over[0]) if over.size else None


def _failure(exc, events, counts, failed, length):
    """The error a parse raises, with the whole planes before it.

    ``exc`` failed plane ``failed``; an overrun in an earlier block comes
    first in the stream and replaces it.
    """
    overrun = _block_layout(events, length)[3]
    if overrun is not None:
        failed = bisect_right(list(accumulate(counts)), overrun)
        exc = ValueError(OVERRUN)
    exc.planes = _planes(events, counts[:failed], length)
    return exc


def _planes(events, counts, length) -> list[np.ndarray]:
    """Scatter the first ``sum(counts)`` blocks of ``events`` into planes.

    Raises the scalar parse's overrun error, with the planes before the
    overrunning block, when one of those blocks overruns.
    """
    bounds = [0, *accumulate(counts)]
    total = bounds[-1]
    if total == 0:
        return [np.zeros((nb, length), dtype=np.int32) for nb in counts]
    dc_at, eob_at, ends, overrun = _block_layout(events, length)
    if overrun is not None and overrun < total:
        raise _failure(ValueError(OVERRUN), events, counts, 0, length)
    dc_at, eob_at = dc_at[:total], eob_at[:total]
    cut = int(eob_at[-1]) + 1
    values = events[:cut] >> tables.EVENT_VALUE_SHIFT
    # Flat output index of every event: its block's base plus its
    # in-block position.  An end-of-block lands one past its block's last
    # level — a zero slot, or the next block's DC slot (one spare slot
    # after the last), which the DC store below overwrites.
    flat = ends[:cut] + np.repeat(
        np.arange(0, total * length, length) - ends[dc_at],
        eob_at - dc_at + 1,
    )
    out = np.zeros(total * length + 1, dtype=np.int32)
    out[flat] = values
    dc_sums = np.cumsum(values[dc_at])
    restart = np.concatenate(([0], dc_sums))[bounds[:-1]]
    out[:-1:length] = dc_sums - np.repeat(restart, counts)
    vectors = out[:-1].reshape(total, length)
    return [vectors[a:b] for a, b in zip(bounds, bounds[1:])]


def read_plane_vectors_reference(
    reader,
    nblocks: int,
    block_size: int,
    prev_dc: int,
    ac_codec,
    dc_codec,
    eob: int,
) -> tuple[np.ndarray, int]:
    """Scalar bit-serial plane parse: the :func:`read_plane_vectors` oracle.

    One ``decode_symbol`` dict walk per code, one ``decode_magnitude``
    per level — the formulation the R6 pipeline shipped with, kept per
    the ``_reference`` convention.
    """
    length = block_size * block_size
    vectors = np.zeros((nblocks, length), dtype=np.int32)
    for b in range(nblocks):
        cat = dc_codec.decode_symbol(reader)
        prev_dc += tables.decode_magnitude(cat, reader)
        vectors[b, 0] = prev_dc
        pos = 1
        while True:
            symbol = ac_codec.decode_symbol(reader)
            if symbol == eob:
                break
            run, cat = tables.unpack_ac(symbol)
            pos += run
            if pos >= length:
                raise ValueError(OVERRUN)
            vectors[b, pos] = tables.decode_magnitude(cat, reader)
            pos += 1
    return vectors, prev_dc
