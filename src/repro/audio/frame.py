"""Subband quantization and frame packing — QUANTIZER/CODER + FRAME PACKER.

Layer-1-style framing: each frame carries 12 samples for each of the M
subbands, a 4-bit allocation per band, and a 6-bit scalefactor per active
band.  Quantization is uniform midrise on [-scf, +scf].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..video.bitstream import BitReader, BitWriter

#: Samples per band per frame (Layer 1 uses 12).
SAMPLES_PER_BAND = 12

#: Bits used to signal one band's allocation / scalefactor index.
ALLOC_FIELD_BITS = 4
SCF_FIELD_BITS = 6


@lru_cache(maxsize=1)
def scalefactor_table() -> np.ndarray:
    """Geometric scalefactor ladder: 2.0 down by 2^(1/4) steps, 64 entries."""
    i = np.arange(64)
    return 2.0 * 2.0 ** (-i / 4.0)


def choose_scalefactor(max_abs: float) -> int:
    """Smallest table entry that still covers ``max_abs`` (clamped)."""
    table = scalefactor_table()
    candidates = np.nonzero(table >= max_abs)[0]
    if candidates.size == 0:
        return 0  # signal exceeds the largest scalefactor; it will clip
    return int(candidates[-1])


def quantize_band(samples: np.ndarray, bits: int, scf: float) -> np.ndarray:
    """Uniform midrise quantization of ``samples`` to ``bits`` bits."""
    if bits <= 0:
        raise ValueError("cannot quantize with zero bits")
    levels = 1 << bits
    normalized = np.clip(samples / scf, -1.0, 1.0 - 1e-12)
    return np.floor((normalized + 1.0) * 0.5 * levels).astype(np.int64)


def dequantize_band(codes: np.ndarray, bits: int, scf: float) -> np.ndarray:
    """Midrise reconstruction at bin centres."""
    levels = 1 << bits
    return ((codes.astype(np.float64) + 0.5) / levels * 2.0 - 1.0) * scf


@dataclass
class PackedFrame:
    """One frame's side info + codes prior to serialization."""

    allocation: np.ndarray  # bits per band
    scf_indices: np.ndarray  # scalefactor index per band (valid if bits>0)
    codes: list[np.ndarray]  # per band, quantized sample codes (or empty)


def pack_frame(
    writer: BitWriter, subband_block: np.ndarray, allocation: np.ndarray
) -> PackedFrame:
    """Quantize and serialize one (SAMPLES_PER_BAND, M) subband block."""
    samples_per_band, num_bands = subband_block.shape
    if allocation.size != num_bands:
        raise ValueError("allocation length must equal the number of bands")
    scf_indices = np.zeros(num_bands, dtype=np.int64)
    codes: list[np.ndarray] = []
    for b in range(num_bands):
        writer.write_bits(int(allocation[b]), ALLOC_FIELD_BITS)
    for b in range(num_bands):
        bits = int(allocation[b])
        if bits == 0:
            codes.append(np.array([], dtype=np.int64))
            continue
        scf_idx = choose_scalefactor(float(np.max(np.abs(subband_block[:, b]))))
        scf_indices[b] = scf_idx
        writer.write_bits(scf_idx, SCF_FIELD_BITS)
        band_codes = quantize_band(
            subband_block[:, b], bits, float(scalefactor_table()[scf_idx])
        )
        codes.append(band_codes)
    for b in range(num_bands):
        bits = int(allocation[b])
        for code in codes[b]:
            writer.write_bits(int(code), bits)
    return PackedFrame(
        allocation=allocation.astype(np.int64),
        scf_indices=scf_indices,
        codes=codes,
    )


def unpack_frame(
    reader: BitReader, num_bands: int, samples_per_band: int = SAMPLES_PER_BAND
) -> np.ndarray:
    """Deserialize and dequantize one frame into (samples_per_band, M)."""
    allocation = np.array(
        [reader.read_bits(ALLOC_FIELD_BITS) for _ in range(num_bands)],
        dtype=np.int64,
    )
    scf = np.zeros(num_bands)
    for b in range(num_bands):
        if allocation[b] > 0:
            scf[b] = scalefactor_table()[reader.read_bits(SCF_FIELD_BITS)]
    block = np.zeros((samples_per_band, num_bands))
    for b in range(num_bands):
        bits = int(allocation[b])
        if bits == 0:
            continue
        codes = np.array(
            [reader.read_bits(bits) for _ in range(samples_per_band)],
            dtype=np.int64,
        )
        block[:, b] = dequantize_band(codes, bits, float(scf[b]))
    return block


def read_frames(
    reader: BitReader,
    frames: int,
    num_bands: int,
    ancillary_bytes_per_frame: int,
    samples_per_band: int = SAMPLES_PER_BAND,
):
    """Yield each frame's ``(block, ancillary bytes)``, field by field.

    The scalar stream read: :func:`unpack_frame`, then the frame's
    ancillary bytes, one ``read_bits`` per field.  A frame that runs off
    the end of the buffer raises from the field it ran out in, after
    every complete frame before it was yielded.
    """
    for _ in range(frames):
        block = unpack_frame(reader, num_bands, samples_per_band)
        yield block, bytes(
            reader.read_bits(8) for _ in range(ancillary_bytes_per_frame)
        )


def frame_side_bits(num_bands: int, allocation: np.ndarray) -> int:
    """Bits spent on side information for a frame with this allocation."""
    active = int(np.count_nonzero(allocation))
    return num_bands * ALLOC_FIELD_BITS + active * SCF_FIELD_BITS
