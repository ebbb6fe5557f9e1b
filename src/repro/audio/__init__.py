"""Audio compression substrate (paper Section 4, Figure 2).

Public surface: the Figure-2 subband encoder/decoder with psychoacoustic
bit allocation, the RPE-LTP speech codec, and quality metrics.
"""

from .bitalloc import (
    Allocation,
    allocate_bits,
    allocate_bits_batch,
    allocate_bits_reference,
    flat_allocation,
    quantizer_snr_db,
)
from .encoder import (
    AudioDecoder,
    AudioEncoder,
    AudioEncoderConfig,
    AudioFrameStats,
    DecodedAudio,
    EncodedAudio,
)
from .filterbank import FilterbankResult, PolyphaseFilterbank, band_energies
from .metrics import segmental_snr_db, snr_db, spectral_distortion_db
from .psychoacoustic import (
    BatchedMaskingAnalysis,
    MaskingAnalysis,
    Masker,
    PsychoacousticModel,
    bark,
    spreading_db,
    threshold_in_quiet,
)
from .rpeltp import EncodedSpeech, RpeLtpDecoder, RpeLtpEncoder

__all__ = [
    "Allocation",
    "AudioDecoder",
    "AudioEncoder",
    "AudioEncoderConfig",
    "AudioFrameStats",
    "DecodedAudio",
    "EncodedAudio",
    "EncodedSpeech",
    "FilterbankResult",
    "Masker",
    "MaskingAnalysis",
    "PolyphaseFilterbank",
    "PsychoacousticModel",
    "RpeLtpDecoder",
    "RpeLtpEncoder",
    "BatchedMaskingAnalysis",
    "allocate_bits",
    "allocate_bits_batch",
    "allocate_bits_reference",
    "band_energies",
    "bark",
    "flat_allocation",
    "quantizer_snr_db",
    "segmental_snr_db",
    "snr_db",
    "spectral_distortion_db",
    "spreading_db",
    "threshold_in_quiet",
]
