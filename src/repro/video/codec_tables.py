"""Static entropy-coding tables shared by the video encoder and decoder.

Standards ship fixed Huffman tables trained on representative content; this
module builds ours deterministically from analytic priors (geometric run
lengths, Laplacian-ish level magnitudes), so encoder and decoder derive
bit-identical tables without any table serialization in the stream.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .bitstream import PEEK_WIDTH
from .huffman import HuffmanCodec

#: Magnitude categories 0..15 (JPEG-style: category = bit_length(|level|)).
NUM_CATEGORIES = 16

#: AC events are (run, category) pairs packed as run * NUM_CATEGORIES + cat.
#: The extra trailing symbol is the end-of-block marker.


def ac_alphabet_size(block_size: int) -> int:
    return block_size * block_size * NUM_CATEGORIES + 1


def eob_symbol(block_size: int) -> int:
    return block_size * block_size * NUM_CATEGORIES


def pack_ac(run: int, category: int) -> int:
    return run * NUM_CATEGORIES + category


def unpack_ac(symbol: int) -> tuple[int, int]:
    return divmod(symbol, NUM_CATEGORIES)


@lru_cache(maxsize=8)
def default_ac_codec(block_size: int) -> HuffmanCodec:
    """AC (run, category) codec from a geometric run / decaying level prior."""
    freqs: dict[int, int] = {}
    max_run = block_size * block_size
    for run in range(max_run):
        p_run = 0.55 ** run
        for cat in range(1, 13):
            p_cat = 0.5 ** cat
            freqs[pack_ac(run, cat)] = 1 + int(2_000_000 * p_run * p_cat)
    freqs[eob_symbol(block_size)] = 600_000
    return HuffmanCodec.from_frequencies(freqs)


@lru_cache(maxsize=8)
def default_dc_codec(block_size: int) -> HuffmanCodec:
    """DC-difference category codec: small differences dominate."""
    freqs = {cat: 1 + int(1_000_000 * 0.6 ** cat) for cat in range(13)}
    return HuffmanCodec.from_frequencies(freqs)


def magnitude_category(value: int) -> int:
    """JPEG-style category: number of bits in |value| (0 for value == 0)."""
    return int(abs(value)).bit_length()


#: Category thresholds for the vectorized bit_length: value v has category
#: k iff 2^(k-1) <= |v| < 2^k, i.e. k thresholds are <= |v|.
_CATEGORY_THRESHOLDS = 2 ** np.arange(0, 31, dtype=np.int64)


def magnitude_categories(values: np.ndarray) -> np.ndarray:
    """Vectorized :func:`magnitude_category` over an integer array."""
    magnitudes = np.abs(np.asarray(values, dtype=np.int64))
    return np.searchsorted(
        _CATEGORY_THRESHOLDS, magnitudes, side="right"
    ).astype(np.int64)


def magnitude_bits(values: np.ndarray, categories: np.ndarray) -> np.ndarray:
    """Vectorized magnitude payloads, matching :func:`encode_magnitude`.

    Element ``i`` is the ``categories[i]``-bit field ``encode_magnitude``
    would write for ``values[i]`` (0 — an empty field — when the category
    is 0, so callers can unconditionally OR it under a Huffman code).
    """
    values = np.asarray(values, dtype=np.int64)
    categories = np.asarray(categories, dtype=np.int64)
    return np.where(values > 0, values, values + (1 << categories) - 1)


def encode_magnitude(value: int, writer) -> None:
    """Write the JPEG-style magnitude bits for ``value`` (category implied)."""
    cat = magnitude_category(value)
    if cat == 0:
        return
    bits = value if value > 0 else value + (1 << cat) - 1
    writer.write_bits(bits, cat)


def decode_magnitude(category: int, reader) -> int:
    """Read back a value whose category was decoded from the Huffman stream."""
    if category == 0:
        return 0
    bits = reader.read_bits(category)
    if bits >= 1 << (category - 1):
        return bits
    return bits - (1 << category) + 1


# ------------------------------------------------- fused event tables (R9)
#
# The table-driven decode path (experiment R9) goes one step past the
# symbol LUT of :class:`repro.video.huffman.FastHuffmanDecoder`: because a
# PEEK_WIDTH-bit window usually covers a whole *event* — the Huffman code
# AND the magnitude field that follows it — a single lookup indexed by the
# raw window value can return the fully decoded ``(run, value, bits
# consumed)`` triple.  :func:`decode_magnitude` is thereby folded into the
# LUT: the magnitude bits are part of the table index, so every possible
# payload pattern under a code gets its own pre-decoded entry.
#
# Event packing (int32): the signed value in the high 16 bits (categories
# stay below 16), the event's in-block advance in the 8 bits at
# :data:`EVENT_STEP_SHIFT` (``run + 1`` for an AC level — runs stay below
# 255 — 1 for an end-of-block, 0 for a DC difference), the :data:`EVENT_DC` /
# :data:`EVENT_EOB` flags, and the consumed bit count — code plus
# magnitude — in the low 6 bits.  Every event consumes at least one bit,
# so 0 means "no event": the code or its magnitude runs past the peek, or
# the pattern is unassigned, and the caller must parse that event exactly.

EVENT_BITS_MASK = 0x3F
EVENT_DC = 0x40
EVENT_EOB = 0x80
EVENT_STEP_SHIFT = 8
EVENT_VALUE_SHIFT = 16


def _magnitude_values(category: int) -> np.ndarray:
    """Decoded values for every ``category``-bit magnitude payload, in
    payload order (the inverse of :func:`magnitude_bits`)."""
    if category == 0:
        return np.zeros(1, dtype=np.int32)
    payloads = np.arange(1 << category, dtype=np.int32)
    return np.where(
        payloads >= 1 << (category - 1),
        payloads,
        payloads - (1 << category) + 1,
    )


def build_event_table(
    codec: HuffmanCodec, eob: int | None = None
) -> np.ndarray:
    """Fused ``window -> packed event`` decode table (int32, 0 = no event).

    ``codec``'s symbols are interpreted as packed ``(run, category)`` AC
    events when ``eob`` is given (with ``eob`` itself the end-of-block
    marker) and as DC categories otherwise.
    """
    table = np.zeros(1 << PEEK_WIDTH, dtype=np.int32)
    for symbol, (code, length) in codec.codes.items():
        if length > PEEK_WIDTH:
            continue  # prefix indexes keep "no event"
        base = code << (PEEK_WIDTH - length)
        span = 1 << (PEEK_WIDTH - length)
        if eob is not None and symbol == eob:
            table[base:base + span] = (
                (1 << EVENT_STEP_SHIFT) | EVENT_EOB | length
            )
            continue
        if eob is None:
            category, kind = symbol, EVENT_DC
        else:
            run, category = unpack_ac(symbol)
            kind = (run + 1) << EVENT_STEP_SHIFT
        if length + category > PEEK_WIDTH:
            continue  # magnitude spills past the peek: keep "no event"
        entries = (
            (_magnitude_values(category) << EVENT_VALUE_SHIFT)
            | kind
            | (length + category)
        )
        table[base:base + span] = np.repeat(
            entries, 1 << (PEEK_WIDTH - length - category)
        )
    return table


# ------------------------------------------------ chunked event tables
#
# The parse of a plane is a two-state machine: the next event is either a
# block's DC difference or one of its AC events, and an end-of-block
# returns it to DC.  Keyed by ``state | window`` (state 0 = DC,
# :data:`CHUNK_AC` = AC), one probe of :func:`chunk_table` resolves the
# greedy run of *complete* events a whole PEEK_WIDTH-bit window starts
# with — about three events of a dense block — so the serial part of the
# parse advances a window at a time and defers every per-event field to
# one NumPy pass over the recorded row ids.

#: Events kept per chunk row: measured as fast as 8 at half the memory.
CHUNK_SLOTS = 4
#: The AC state: the row offset of its half of the table, and the bit of
#: a chunk header that says the run ends in it.
CHUNK_AC = 1 << PEEK_WIDTH
#: A chunk header packs the bits consumed (low bits), :data:`CHUNK_AC` and
#: the end-of-blocks crossed (from :data:`CHUNK_EOB_SHIFT` up).
CHUNK_BITS_MASK = 0x1F
CHUNK_EOB_SHIFT = PEEK_WIDTH + 1


def _greedy_chunks(events: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(slots, code)`` of every ``state | window`` row.

    ``events`` is the DC event table followed by the AC one.  ``code``
    packs each row's header in a byte: bits consumed (low 5 bits, 0 when
    even the first event does not fit), end-of-blocks crossed (next 2 —
    four events cross at most two) and whether the run ends in the AC
    state (bit 7).  Everything stays int32, so the transient is a few
    row-sized arrays.
    """
    rows = events.size
    rest = np.arange(rows, dtype=np.int32)
    state = rest & CHUNK_AC
    rest &= CHUNK_AC - 1  # the window bits not yet consumed, left-aligned
    consumed = np.zeros(rows, dtype=np.int32)
    eobs = np.zeros(rows, dtype=np.int32)
    alive = np.ones(rows, dtype=bool)
    slots = np.zeros((rows, CHUNK_SLOTS), dtype=np.int32)
    for k in range(CHUNK_SLOTS):
        event = events[state | rest]
        bits = event & EVENT_BITS_MASK
        alive &= (bits > 0) & (consumed + bits <= PEEK_WIDTH)
        event[~alive] = 0
        bits[~alive] = 0
        slots[:, k] = event
        consumed += bits
        rest &= 0xFFFF >> bits
        rest <<= bits
        is_eob = (event & EVENT_EOB).astype(bool)
        eobs += is_eob
        state[alive] = CHUNK_AC
        state[is_eob] = 0
    code = consumed | (eobs << 5) | (state >> (PEEK_WIDTH - 7))
    code[consumed == 0] = 0
    return slots, code


@lru_cache(maxsize=4)
def chunk_table(
    ac_codec: HuffmanCodec, dc_codec: HuffmanCodec, eob: int
) -> tuple[list[int], np.ndarray]:
    """Two-state multi-event decode table: ``(heads, slots)``.

    Row ``state | w`` describes the greedy run of complete events that
    the window ``w`` starts with in ``state``: ``slots[row]`` holds up to
    :data:`CHUNK_SLOTS` packed events (see :func:`build_event_table`),
    zero-filled, and ``heads[row]`` the chunk header (see
    :data:`CHUNK_BITS_MASK`), 0 when even the first event does not fit.
    ``heads`` is a list because the parse loop indexes it with Python
    integers.  Headers take few distinct values, so each is looked up in
    a small object table and the list shares one int per value instead
    of boxing 2**17 of them: the two tables hold ~3 MB.
    """
    slots, code = _greedy_chunks(
        np.concatenate(
            (build_event_table(dc_codec), build_event_table(ac_codec, eob))
        )
    )
    header = np.array(
        [
            (c & CHUNK_BITS_MASK)
            | (c >> 7) * CHUNK_AC
            | (c >> 5 & 3) << CHUNK_EOB_SHIFT
            for c in range(256)
        ],
        dtype=object,
    )
    return header[code].tolist(), slots
