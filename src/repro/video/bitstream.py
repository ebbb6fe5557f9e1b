"""Bit-level I/O used by every entropy coder in the library.

The paper's Figure 1 ends in a *variable length encode* stage followed by a
*buffer*; both need a bit-exact serialization substrate.  ``BitWriter`` packs
bits MSB-first into a ``bytearray``; ``BitReader`` reads them back in the same
order.  Both support fixed-width unsigned fields, signed fields
(two's-complement in a fixed width), and Exp-Golomb codes (used for motion
vectors, where small magnitudes dominate).
"""

from __future__ import annotations

import numpy as np

#: Width (bits) of the :meth:`BitReader.bit_window` peek entries.  16 bits
#: cover every first-level Huffman LUT probe *and* every magnitude /
#: scalefactor / allocation field the codecs read, so one window gather
#: resolves a whole field.
PEEK_WIDTH = 16


class BitWriter:
    """Accumulates bits MSB-first and exposes the packed bytes."""

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._accum = 0
        self._nbits = 0

    def __len__(self) -> int:
        """Total number of bits written so far."""
        return len(self._buffer) * 8 + self._nbits

    def write_bit(self, bit: int) -> None:
        """Append a single bit (0 or 1)."""
        self._accum = (self._accum << 1) | (bit & 1)
        self._nbits += 1
        if self._nbits == 8:
            self._buffer.append(self._accum)
            self._accum = 0
            self._nbits = 0

    def write_bits(self, value: int, width: int) -> None:
        """Append ``width`` bits of the unsigned integer ``value``, MSB first.

        Packs whole fields at once (shift-accumulate, byte-at-a-time flush)
        rather than looping bit by bit; the emitted bit sequence is identical
        to ``width`` successive :meth:`write_bit` calls.
        """
        if width < 0:
            raise ValueError(f"width must be non-negative, got {width}")
        if value < 0 or (width < 64 and value >= (1 << width)):
            raise ValueError(f"value {value} does not fit in {width} bits")
        accum = (self._accum << width) | value
        nbits = self._nbits + width
        buffer = self._buffer
        while nbits >= 8:
            nbits -= 8
            buffer.append((accum >> nbits) & 0xFF)
        self._accum = accum & ((1 << nbits) - 1)
        self._nbits = nbits

    def write_many(self, values, widths) -> None:
        """Append a sequence of ``(value, width)`` fields in order.

        The bulk entry point of the batched entropy coders: callers
        pre-compute every field of a plane (Huffman codes with magnitude
        bits already appended) and hand the two parallel sequences over in
        one call.  The whole run — including any pending partial byte — is
        packed vectorized (``np.packbits``) instead of looping per field,
        and the result is bit-identical to calling :meth:`write_bits` per
        pair.  Fields are limited to 63 bits (int64 assembly); every code
        the entropy coders emit is far narrower.
        """
        vals = np.asarray(values, dtype=np.int64)
        ws = np.asarray(widths, dtype=np.int64)
        if vals.shape != ws.shape or vals.ndim != 1:
            raise ValueError("values and widths must be 1-D and equal length")
        if np.any((ws < 0) | (ws > 63)):
            raise ValueError("field widths must be in 0..63")
        if np.any((vals < 0) | (vals >> ws)):
            raise ValueError("every value must fit its field width")
        if self._nbits:
            # Fold the pending partial byte in as a leading field.
            vals = np.concatenate(([self._accum], vals))
            ws = np.concatenate(([self._nbits], ws))
        total = int(ws.sum())
        if not total:
            return
        # One flat bit array: bit k of field f is (value >> (width-1-k)) & 1.
        owner_value = np.repeat(vals, ws)
        owner_width = np.repeat(ws, ws)
        starts = np.cumsum(ws) - ws
        pos = np.arange(total, dtype=np.int64) - np.repeat(starts, ws)
        bits = ((owner_value >> (owner_width - 1 - pos)) & 1).astype(np.uint8)
        packed = np.packbits(bits)  # MSB-first, zero-padded tail
        nfull, rem = divmod(total, 8)
        self._buffer.extend(packed[:nfull].tobytes())
        if rem:
            self._accum = int(packed[nfull]) >> (8 - rem)
        else:
            self._accum = 0
        self._nbits = rem

    def write_signed(self, value: int, width: int) -> None:
        """Append a signed integer as ``width``-bit two's complement."""
        lo = -(1 << (width - 1))
        hi = (1 << (width - 1)) - 1
        if not lo <= value <= hi:
            raise ValueError(f"value {value} does not fit in signed {width} bits")
        self.write_bits(value & ((1 << width) - 1), width)

    def write_unary(self, value: int) -> None:
        """Append ``value`` ones followed by a terminating zero."""
        if value < 0:
            raise ValueError("unary codes encode non-negative integers only")
        for _ in range(value):
            self.write_bit(1)
        self.write_bit(0)

    def write_ue(self, value: int) -> None:
        """Append an unsigned Exp-Golomb code (0 -> '1', 1 -> '010', ...)."""
        if value < 0:
            raise ValueError("ue(v) encodes non-negative integers only")
        code = value + 1
        nbits = code.bit_length()
        self.write_bits(0, nbits - 1)
        self.write_bits(code, nbits)

    def write_se(self, value: int) -> None:
        """Append a signed Exp-Golomb code (0, 1, -1, 2, -2, ...)."""
        if value > 0:
            self.write_ue(2 * value - 1)
        else:
            self.write_ue(-2 * value)

    def align(self) -> None:
        """Pad with zero bits to the next byte boundary."""
        while self._nbits:
            self.write_bit(0)

    def getvalue(self) -> bytes:
        """Return the packed bytes, zero-padding the final partial byte."""
        if not self._nbits:
            return bytes(self._buffer)
        tail = self._accum << (8 - self._nbits)
        return bytes(self._buffer) + bytes([tail])


class BitReader:
    """Reads bits MSB-first from a ``bytes`` object."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0  # bit position
        self._window: np.ndarray | None = None

    @property
    def bits_remaining(self) -> int:
        return len(self._data) * 8 - self._pos

    @property
    def bit_position(self) -> int:
        return self._pos

    @property
    def size_bits(self) -> int:
        """Total number of bits in the underlying buffer."""
        return len(self._data) * 8

    def seek(self, bit_pos: int) -> None:
        """Reposition the read cursor to an absolute bit offset."""
        if not 0 <= bit_pos <= len(self._data) * 8:
            raise ValueError(
                f"bit position {bit_pos} outside the "
                f"{len(self._data) * 8}-bit buffer"
            )
        self._pos = bit_pos

    def skip(self, nbits: int) -> None:
        """Advance past ``nbits`` bits (the bulk parsers' seek-over-body)."""
        if nbits < 0:
            raise ValueError(f"cannot skip a negative bit count ({nbits})")
        if self._pos + nbits > len(self._data) * 8:
            raise EOFError("bitstream exhausted")
        self._pos += nbits

    def bit_window(self) -> np.ndarray:
        """Sliding-window peeks: ``W[i]`` = the :data:`PEEK_WIDTH` bits at
        absolute bit offset ``i`` (zero-padded past the end of the buffer).

        Built lazily, once per reader, from the whole buffer — this is the
        primitive that makes table-driven entropy decode possible: the
        bit-serial parsers index ``W`` at their current offset and resolve
        a whole Huffman code (plus its magnitude field) in one probe,
        instead of pulling bits one at a time.  The array is shared by
        every plane/frame parsed from the same reader.
        """
        if self._window is None:
            data = np.frombuffer(self._data, dtype=np.uint8)
            ext = np.zeros(data.size + 2, dtype=np.int64)
            ext[:data.size] = data
            # 24-bit neighbourhoods: byte j, j+1, j+2 — any PEEK_WIDTH-bit
            # field starting inside byte j lives in this trio.
            trio = (ext[:-2] << 16) | (ext[1:-1] << 8) | ext[2:]
            window = np.empty(data.size * 8, dtype=np.int32)
            for off in range(8):  # one strided store per intra-byte offset
                window[off::8] = (trio >> (8 - off)) & 0xFFFF
            self._window = window
        return self._window

    def read_bit(self) -> int:
        if self._pos >= len(self._data) * 8:
            raise EOFError("bitstream exhausted")
        byte = self._data[self._pos >> 3]
        bit = (byte >> (7 - (self._pos & 7))) & 1
        self._pos += 1
        return bit

    def read_bits(self, width: int) -> int:
        """Read ``width`` bits as an unsigned integer.

        Reads byte-at-a-time off the underlying buffer (same bit order as
        ``width`` successive :meth:`read_bit` calls, just without the
        per-bit Python loop).
        """
        if width < 0:
            raise ValueError(f"width must be non-negative, got {width}")
        pos = self._pos
        end = pos + width
        if end > len(self._data) * 8:
            raise EOFError("bitstream exhausted")
        data = self._data
        value = 0
        remaining = width
        while remaining:
            byte = data[pos >> 3]
            offset = pos & 7
            take = min(8 - offset, remaining)
            chunk = (byte >> (8 - offset - take)) & ((1 << take) - 1)
            value = (value << take) | chunk
            pos += take
            remaining -= take
        self._pos = pos
        return value

    def read_many(self, widths) -> np.ndarray:
        """Read a sequence of unsigned fields with the given bit widths.

        The bulk counterpart of :meth:`BitWriter.write_many`: the whole
        run is unpacked vectorized (``np.unpackbits`` + one integer
        ``reduceat`` per field) instead of looping per field, and the
        values are identical to ``width`` successive :meth:`read_bits`
        calls.  Fields are limited to 63 bits (int64 assembly); a
        zero-width field reads as 0, like ``read_bits(0)``.
        """
        ws = np.asarray(widths, dtype=np.int64)
        if ws.ndim != 1:
            raise ValueError("widths must be a 1-D sequence")
        if np.any((ws < 0) | (ws > 63)):
            raise ValueError("field widths must be in 0..63")
        total = int(ws.sum())
        pos = self._pos
        if pos + total > len(self._data) * 8:
            raise EOFError("bitstream exhausted")
        values = np.zeros(ws.size, dtype=np.int64)
        if total == 0:
            return values
        first = pos >> 3
        last = (pos + total + 7) >> 3
        chunk = np.frombuffer(self._data, dtype=np.uint8, count=last - first,
                              offset=first)
        skip = pos - first * 8
        bits = np.unpackbits(chunk)[skip:skip + total].astype(np.int64)
        nonzero = ws > 0
        nz_ws = ws[nonzero]
        starts = np.cumsum(nz_ws) - nz_ws
        offsets = np.arange(total, dtype=np.int64) - np.repeat(starts, nz_ws)
        weighted = bits << (np.repeat(nz_ws, nz_ws) - 1 - offsets)
        values[nonzero] = np.add.reduceat(weighted, starts)
        self._pos = pos + total
        return values

    def read_signed(self, width: int) -> int:
        """Read a ``width``-bit two's-complement signed integer."""
        raw = self.read_bits(width)
        if raw >= 1 << (width - 1):
            raw -= 1 << width
        return raw

    def read_unary(self) -> int:
        count = 0
        while self.read_bit():
            count += 1
        return count

    def read_ue(self) -> int:
        """Read an unsigned Exp-Golomb code."""
        zeros = 0
        while self.read_bit() == 0:
            zeros += 1
            if zeros > 64:
                raise ValueError("malformed Exp-Golomb code")
        value = 1
        for _ in range(zeros):
            value = (value << 1) | self.read_bit()
        return value - 1

    def read_se(self) -> int:
        """Read a signed Exp-Golomb code."""
        ue = self.read_ue()
        magnitude = (ue + 1) // 2
        return magnitude if ue % 2 else -magnitude

    def read_se_many(self, count: int) -> np.ndarray:
        """Read ``count`` signed Exp-Golomb codes in bulk.

        The decoder-side twin of the encoder's fused field assembly: one
        :meth:`bit_window` probe resolves a whole ``z`` zeros + ``1`` +
        ``z`` suffix-bits code (motion vectors are short, so nearly every
        code fits a single peek).  Codes too long for the window — or
        crossing the end of the buffer — fall back to :meth:`read_se`
        for that element, so values *and* error behaviour are identical
        to ``count`` successive scalar reads
        (:meth:`read_se_many_reference`).
        """
        if count < 0:
            raise ValueError(f"cannot read {count} codes")
        window = memoryview(self.bit_window())
        nbits = len(self._data) * 8
        pos = self._pos
        out: list[int] = []
        append = out.append
        for _ in range(count):
            w = window[pos] if pos < nbits else 0
            # Leading-zero count of the peek gives the code length 2z+1.
            z = PEEK_WIDTH - w.bit_length()
            total = 2 * z + 1
            if total > PEEK_WIDTH or pos + total > nbits:
                # >= PEEK_WIDTH leading zeros, a long suffix, or EOF:
                # replay the scalar parse for exact semantics.
                self._pos = pos
                append(self.read_se())
                pos = self._pos
                continue
            ue = (w >> (PEEK_WIDTH - total)) - 1
            append((ue + 1) >> 1 if ue & 1 else -(ue >> 1))
            pos += total
        self._pos = pos
        return np.array(out, dtype=np.int64)

    def read_se_many_reference(self, count: int) -> np.ndarray:
        """Scalar one-code-at-a-time loop: the :meth:`read_se_many` oracle."""
        if count < 0:
            raise ValueError(f"cannot read {count} codes")
        return np.array(
            [self.read_se() for _ in range(count)], dtype=np.int64
        ).reshape(count)

    def align(self) -> None:
        """Skip to the next byte boundary."""
        self._pos = (self._pos + 7) & ~7
