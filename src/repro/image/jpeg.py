"""Baseline DCT still-image codec (JPEG-style, paper Section 3).

Reuses the video substrate's stages — 8x8 DCT, quality-scaled quantization
matrix, zig-zag, run-length, canonical Huffman — in an intra-only image
pipeline.  This is the "DCT-based encoding" whose block-edge artifacts the
paper contrasts with wavelets.  Like the video codec, it runs the whole
image through the frame-batched block pipeline by default
(:mod:`repro.video.blockpipe`, experiment R6) with the scalar loop kept as
the bit-identical reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..video import codec_tables as tables
from ..video.bitstream import BitReader, BitWriter
from ..video.blockpipe import (
    plane_to_vectors,
    read_plane_vectors,
    vectors_to_plane,
    write_plane_vectors,
)
from ..video.dct import dct_2d, idct_2d
from ..video.frames import pad_to_multiple
from ..video.quant import INTRA_BASE, dequantize, quantize, scaled_matrix
from ..video.rle import EOB, encode_block
from ..video.zigzag import inverse_zigzag, zigzag

MAGIC = 0x4A49  # "JI"
BLOCK = 8
MAX_DIMENSION = 0xFFFF  # 16-bit width/height header fields


@dataclass
class EncodedImage:
    data: bytes
    width: int
    height: int
    quality: int

    @property
    def total_bits(self) -> int:
        return len(self.data) * 8

    @property
    def bits_per_pixel(self) -> float:
        return self.total_bits / (self.width * self.height)


class JpegLikeCodec:
    """Intra-only 8x8 DCT codec for greyscale images in [0, 255].

    ``batched`` picks the block pipeline (frame-granularity batched chain
    vs the scalar reference loop); both produce bit-identical streams.
    """

    def __init__(self, batched: bool = True) -> None:
        self.batched = batched

    def encode(self, image: np.ndarray, quality: int = 75) -> EncodedImage:
        image = np.asarray(image, dtype=np.float64)
        if image.ndim != 2:
            raise ValueError("codec expects a greyscale (2-D) image")
        if not 1 <= quality <= 100:
            raise ValueError("quality must be in 1..100")
        height, width = image.shape
        if width > MAX_DIMENSION or height > MAX_DIMENSION:
            raise ValueError(
                f"image {width}x{height} exceeds the 16-bit header "
                f"dimension fields (max {MAX_DIMENSION})"
            )
        padded = pad_to_multiple(image, BLOCK)
        matrix = scaled_matrix(INTRA_BASE, quality)

        writer = BitWriter()
        writer.write_bits(MAGIC, 16)
        writer.write_bits(width, 16)
        writer.write_bits(height, 16)
        writer.write_bits(quality, 7)

        if self.batched:
            _, vectors = plane_to_vectors(padded - 128.0, matrix, BLOCK)
            write_plane_vectors(writer, vectors, BLOCK, 0)
        else:
            self._encode_blocks_reference(writer, padded, matrix)
        writer.align()
        return EncodedImage(
            data=writer.getvalue(), width=width, height=height, quality=quality
        )

    def _encode_blocks_reference(
        self, writer: BitWriter, padded: np.ndarray, matrix: np.ndarray
    ) -> None:
        """Scalar block-at-a-time coder: the equivalence oracle."""
        ac_codec = tables.default_ac_codec(BLOCK)
        dc_codec = tables.default_dc_codec(BLOCK)
        eob = tables.eob_symbol(BLOCK)
        prev_dc = 0
        for y in range(0, padded.shape[0], BLOCK):
            for x in range(0, padded.shape[1], BLOCK):
                block = padded[y:y + BLOCK, x:x + BLOCK] - 128.0
                levels = quantize(dct_2d(block), matrix)
                vec = zigzag(levels)
                dc = int(vec[0])
                diff = dc - prev_dc
                prev_dc = dc
                cat = tables.magnitude_category(diff)
                dc_codec.encode_symbol(cat, writer)
                tables.encode_magnitude(diff, writer)
                for event in encode_block(vec[1:]):
                    if event == EOB:
                        ac_codec.encode_symbol(eob, writer)
                        continue
                    cat = tables.magnitude_category(event.level)
                    ac_codec.encode_symbol(
                        tables.pack_ac(event.run, cat), writer
                    )
                    tables.encode_magnitude(event.level, writer)

    def decode(self, encoded: EncodedImage | bytes) -> np.ndarray:
        data = encoded.data if isinstance(encoded, EncodedImage) else encoded
        reader = BitReader(data)
        magic = reader.read_bits(16)
        if magic != MAGIC:
            raise ValueError(f"bad image magic 0x{magic:04x}")
        width = reader.read_bits(16)
        height = reader.read_bits(16)
        quality = reader.read_bits(7)
        matrix = scaled_matrix(INTRA_BASE, quality)

        pad_h = -(-height // BLOCK) * BLOCK
        pad_w = -(-width // BLOCK) * BLOCK
        ac_codec = tables.default_ac_codec(BLOCK)
        dc_codec = tables.default_dc_codec(BLOCK)
        eob = tables.eob_symbol(BLOCK)
        if self.batched:
            blocks = (pad_h // BLOCK) * (pad_w // BLOCK)
            vectors, _ = read_plane_vectors(
                reader, blocks, BLOCK, 0, ac_codec, dc_codec, eob
            )
            out = vectors_to_plane(vectors, matrix, BLOCK, (pad_h, pad_w))
            out += 128.0
            return np.clip(out[:height, :width], 0.0, 255.0)
        return self._decode_blocks_reference(
            reader, height, width, pad_h, pad_w, matrix,
            ac_codec, dc_codec, eob,
        )

    def _decode_blocks_reference(
        self,
        reader: BitReader,
        height: int,
        width: int,
        pad_h: int,
        pad_w: int,
        matrix: np.ndarray,
        ac_codec,
        dc_codec,
        eob: int,
    ) -> np.ndarray:
        """Scalar block-at-a-time decode: the equivalence oracle."""
        out = np.empty((pad_h, pad_w))
        prev_dc = 0
        for y in range(0, pad_h, BLOCK):
            for x in range(0, pad_w, BLOCK):
                vec = np.zeros(BLOCK * BLOCK, dtype=np.int32)
                cat = dc_codec.decode_symbol(reader)
                prev_dc += tables.decode_magnitude(cat, reader)
                vec[0] = prev_dc
                pos = 1
                while True:
                    symbol = ac_codec.decode_symbol(reader)
                    if symbol == eob:
                        break
                    run, cat = tables.unpack_ac(symbol)
                    pos += run
                    if pos >= BLOCK * BLOCK:
                        raise ValueError("corrupt image stream")
                    vec[pos] = tables.decode_magnitude(cat, reader)
                    pos += 1
                coeffs = dequantize(
                    inverse_zigzag(vec, BLOCK).astype(np.float64), matrix
                )
                out[y:y + BLOCK, x:x + BLOCK] = idct_2d(coeffs) + 128.0
        return np.clip(out[:height, :width], 0.0, 255.0)
