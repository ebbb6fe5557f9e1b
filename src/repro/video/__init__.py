"""Video compression substrate (paper Section 3, Figure 1).

Public surface: the Figure-1 hybrid encoder/decoder, the transform and
entropy-coding stages it is built from, and rate/quality metrics.
"""

from .bitstream import BitReader, BitWriter
from .dct import (
    blocked_dct_2d,
    blocked_idct_2d,
    dct_1d,
    dct_2d,
    dct_2d_direct,
    idct_1d,
    idct_2d,
    tile_blocks,
    untile_blocks,
)
from .decoder import DecodedVideo, VideoDecoder
from .encoder import EncodedVideo, EncoderConfig, FrameStats, VideoEncoder
from .frames import Frame, rgb_to_ycbcr, ycbcr_to_rgb
from .huffman import HuffmanCodec
from .metrics import bitrate_bps, bits_per_pixel, blockiness, mse, psnr, sequence_psnr
from .motion import (
    SEARCH_ALGORITHMS,
    MotionField,
    diamond_search,
    full_search,
    motion_compensate,
    three_step_search,
)
from .quant import INTRA_BASE, INTER_BASE, dequantize, quantize, scaled_matrix
from .ratecontrol import RateController
from .rle import batch_run_levels
from .zigzag import inverse_zigzag, inverse_zigzag_blocks, zigzag, zigzag_blocks

__all__ = [
    "BitReader",
    "BitWriter",
    "DecodedVideo",
    "EncodedVideo",
    "EncoderConfig",
    "Frame",
    "FrameStats",
    "HuffmanCodec",
    "INTER_BASE",
    "INTRA_BASE",
    "MotionField",
    "RateController",
    "SEARCH_ALGORITHMS",
    "VideoDecoder",
    "VideoEncoder",
    "batch_run_levels",
    "bitrate_bps",
    "bits_per_pixel",
    "blocked_dct_2d",
    "blocked_idct_2d",
    "blockiness",
    "dct_1d",
    "dct_2d",
    "dct_2d_direct",
    "dequantize",
    "diamond_search",
    "full_search",
    "idct_1d",
    "idct_2d",
    "inverse_zigzag",
    "inverse_zigzag_blocks",
    "motion_compensate",
    "mse",
    "psnr",
    "quantize",
    "rgb_to_ycbcr",
    "scaled_matrix",
    "sequence_psnr",
    "three_step_search",
    "tile_blocks",
    "untile_blocks",
    "ycbcr_to_rgb",
    "zigzag",
    "zigzag_blocks",
]
