"""The MPEG-1-style audio encoder of the paper's Figure 2.

Pipeline, exactly as drawn::

    audio samples --> MAPPER (polyphase filterbank) --> QUANTIZER/CODER
                          |                                   ^
                          +--> PSYCHOACOUSTIC MODEL ----------+
                                                              v
    ancillary data ---------------------------------> FRAME PACKER --> bits

The mapper splits PCM into 32 subbands; the psychoacoustic model computes
per-band signal-to-mask ratios on the same window; the bit allocator turns
SMRs plus the bitrate budget into per-band quantizer resolutions; and the
frame packer serializes side info + codes (plus optional ancillary bytes).

The chain runs in one of two bit-identical pipelines (experiment R7 in
DESIGN.md): the segment-granularity batched path of
:mod:`repro.audio.subbandpipe` (default) — one filterbank matmul, one
batched FFT analysis, a lockstep bit allocator, one ``write_many`` flush —
or the scalar frame-at-a-time reference this module grew up with, kept as
the pinned oracle.  ``batched=`` picks the pipeline per instance.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from ..video.bitstream import BitReader, BitWriter
from .bitalloc import Allocation, allocate_bits, allocate_bits_batch, flat_allocation
from .filterbank import PolyphaseFilterbank
from .frame import SAMPLES_PER_BAND, frame_side_bits, pack_frame, unpack_frame
from .psychoacoustic import PsychoacousticModel
from .subbandpipe import pack_frames_batch, unpack_frames_batch

MAGIC = 0x4D41  # "MA"

#: Stream format version, written right after the magic like the video
#: bitstream's.  Version 2 widened the sample-rate field from a 32-bit
#: int to the exact float64 bit pattern; the versionless seed format
#: happens to put the zero high nibble of its old rate field here, so
#: old streams fail the version check cleanly instead of misparsing.
VERSION = 2

MAX_FRAMES = 0xFFFF  # 16-bit frame count
MAX_SAMPLES = 0xFFFFFFFF  # 32-bit PCM length
MAX_BANDS = 0xFF  # 8-bit band-count field
MAX_ANCILLARY = 0xFF  # 8-bit ancillary-bytes-per-frame field


@dataclass
class AudioEncoderConfig:
    """Knobs of the Figure-2 encoder."""

    sample_rate: float = 44100.0
    num_bands: int = 32
    bitrate: float = 192_000.0  # bits per second
    use_psychoacoustics: bool = True
    fft_size: int = 512
    ancillary_bytes_per_frame: int = 0

    def __post_init__(self) -> None:
        if not math.isfinite(self.sample_rate) or self.sample_rate <= 0:
            raise ValueError("sample rate must be positive and finite")
        if not math.isfinite(self.bitrate) or self.bitrate <= 0:
            raise ValueError("bitrate must be positive and finite")
        if self.num_bands < 2:
            raise ValueError("need at least 2 subbands")
        if self.ancillary_bytes_per_frame < 0:
            raise ValueError("ancillary payload cannot be negative")

    @property
    def samples_per_frame(self) -> int:
        return self.num_bands * SAMPLES_PER_BAND

    @property
    def bits_per_frame(self) -> int:
        return int(self.bitrate * self.samples_per_frame / self.sample_rate)


@dataclass
class AudioFrameStats:
    """Per-frame accounting for benchmarks and tests."""

    index: int
    allocation: np.ndarray
    smr_db: np.ndarray
    bits: int
    masked_fraction: float
    stage_ops: dict[str, float] = field(default_factory=dict)


@dataclass
class EncodedAudio:
    data: bytes
    config: AudioEncoderConfig
    num_samples: int
    frame_stats: list[AudioFrameStats]

    @property
    def total_bits(self) -> int:
        return len(self.data) * 8

    def achieved_bitrate(self) -> float:
        duration = self.num_samples / self.config.sample_rate
        return self.total_bits / duration if duration else 0.0


def write_stream_header(
    writer: BitWriter,
    config: AudioEncoderConfig,
    frames: int,
    num_samples: int,
) -> None:
    """Validate and serialize the stream header.

    The frame count must fit its 16-bit field and the PCM length its
    32-bit field — the seed implementation masked both
    (``pcm.size & 0xFFFFFFFF``) and truncated fractional sample rates to
    ``int``, so long or oddly-rated streams silently round-tripped to
    wrong lengths.  Now the counts are range-checked (clear errors instead
    of corruption) and the sample rate travels as its exact float64 bit
    pattern, under a version field that rejects seed-format streams.
    """
    if frames > MAX_FRAMES:
        raise ValueError(
            f"stream needs {frames} frames but the 16-bit frame-count "
            f"field holds at most {MAX_FRAMES}; split the input "
            f"(~{MAX_FRAMES * config.samples_per_frame} samples per stream)"
        )
    if num_samples > MAX_SAMPLES:
        raise ValueError(
            f"{num_samples} samples exceed the 32-bit PCM-length field "
            f"(max {MAX_SAMPLES})"
        )
    if not 0 < config.num_bands <= MAX_BANDS:
        raise ValueError(
            f"{config.num_bands} bands do not fit the 8-bit band-count "
            f"field (max {MAX_BANDS})"
        )
    if not 0 <= config.ancillary_bytes_per_frame <= MAX_ANCILLARY:
        raise ValueError(
            f"{config.ancillary_bytes_per_frame} ancillary bytes/frame do "
            f"not fit the 8-bit field (max {MAX_ANCILLARY})"
        )
    writer.write_bits(MAGIC, 16)
    writer.write_bits(VERSION, 4)
    rate_bits = struct.pack(">d", float(config.sample_rate))
    writer.write_bits(int.from_bytes(rate_bits, "big"), 64)
    writer.write_bits(config.num_bands, 8)
    writer.write_bits(frames, 16)
    writer.write_bits(num_samples, 32)
    writer.write_bits(config.ancillary_bytes_per_frame, 8)


def read_stream_header(reader: BitReader) -> tuple[float, int, int, int, int]:
    """Parse + sanity-check the header; returns
    ``(sample_rate, num_bands, frames, num_samples, anc_per_frame)``."""
    magic = reader.read_bits(16)
    if magic != MAGIC:
        raise ValueError(f"bad audio stream magic 0x{magic:04x}")
    version = reader.read_bits(4)
    if version != VERSION:
        raise ValueError(
            f"unsupported audio stream version {version} "
            f"(this decoder reads version {VERSION})"
        )
    rate_bits = reader.read_bits(64)
    sample_rate = struct.unpack(">d", rate_bits.to_bytes(8, "big"))[0]
    if not math.isfinite(sample_rate) or sample_rate <= 0:
        raise ValueError(
            f"corrupt audio stream header: sample rate {sample_rate!r}"
        )
    num_bands = reader.read_bits(8)
    if num_bands < 2:
        raise ValueError(
            f"corrupt audio stream header: {num_bands} subbands"
        )
    frames = reader.read_bits(16)
    num_samples = reader.read_bits(32)
    anc_per_frame = reader.read_bits(8)
    return sample_rate, num_bands, frames, num_samples, anc_per_frame


class AudioEncoder:
    """Subband audio encoder with psychoacoustic bit allocation."""

    def __init__(
        self,
        config: AudioEncoderConfig | None = None,
        batched: bool = True,
    ) -> None:
        self.config = config or AudioEncoderConfig()
        self.batched = batched
        self._bank = PolyphaseFilterbank(
            self.config.num_bands, batched=self.batched
        )
        self._model = PsychoacousticModel(
            sample_rate=self.config.sample_rate,
            fft_size=self.config.fft_size,
            num_bands=self.config.num_bands,
        )

    def encode(
        self, pcm: np.ndarray, ancillary: bytes = b""
    ) -> EncodedAudio:
        """Encode mono PCM in [-1, 1].  ``ancillary`` rides along per frame."""
        cfg = self.config
        pcm = np.asarray(pcm, dtype=np.float64)
        if pcm.ndim != 1:
            raise ValueError("encoder expects mono PCM")
        if pcm.size == 0:
            raise ValueError("cannot encode an empty signal")

        # Flush the filterbank with `delay` trailing zeros so the decoder can
        # drop the group delay and still reconstruct every input sample.
        flushed = np.concatenate([pcm, np.zeros(self._bank.delay)])
        analysis = self._bank.analyze(flushed)
        subbands = analysis.subbands
        frames = subbands.shape[0] // SAMPLES_PER_BAND
        if subbands.shape[0] % SAMPLES_PER_BAND:
            pad = SAMPLES_PER_BAND - subbands.shape[0] % SAMPLES_PER_BAND
            subbands = np.vstack(
                [subbands, np.zeros((pad, cfg.num_bands))]
            )
            frames += 1

        writer = BitWriter()
        write_stream_header(writer, cfg, frames, pcm.size)
        if self.batched:
            stats = self._encode_frames_batched(
                writer, flushed, subbands, frames, ancillary
            )
        else:
            stats = self._encode_frames_reference(
                writer, flushed, subbands, frames, ancillary
            )
        writer.align()
        return EncodedAudio(
            data=writer.getvalue(),
            config=cfg,
            num_samples=pcm.size,
            frame_stats=stats,
        )

    # -- shared helpers ----------------------------------------------------

    def _pool_bits(self) -> int:
        cfg = self.config
        pool = cfg.bits_per_frame - frame_side_bits(
            cfg.num_bands, np.zeros(cfg.num_bands)
        ) - 8 * cfg.ancillary_bytes_per_frame
        return max(pool, 0)

    def _stage_ops(self) -> dict[str, float]:
        """Analytic per-frame operation profile (pipeline-independent)."""
        cfg = self.config
        return {
            "filterbank": float(
                SAMPLES_PER_BAND * cfg.num_bands * self._bank.filter_length
            ),
            "psychoacoustic": float(
                cfg.fft_size * np.log2(cfg.fft_size) * 5
            ),
            "quantize": float(SAMPLES_PER_BAND * cfg.num_bands),
            "frame_pack": float(cfg.num_bands),
        }

    # -- scalar reference path ---------------------------------------------

    def _encode_frames_reference(
        self,
        writer: BitWriter,
        flushed: np.ndarray,
        subbands: np.ndarray,
        frames: int,
        ancillary: bytes,
    ) -> list[AudioFrameStats]:
        """Frame-at-a-time loop, the pinned oracle of the batched path."""
        cfg = self.config
        stats: list[AudioFrameStats] = []
        anc_per_frame = cfg.ancillary_bytes_per_frame
        for f in range(frames):
            start_bits = len(writer)
            block = subbands[
                f * SAMPLES_PER_BAND:(f + 1) * SAMPLES_PER_BAND
            ]
            # Psychoacoustic window: the fft_size samples ENDING at the last
            # input sample that feeds this frame's subband rows.  Anchoring
            # at the end keeps the tail frames (whose content is still
            # draining through the filterbank delay) from looking silent.
            window_end = (f + 1) * cfg.samples_per_frame
            window = flushed[
                max(0, window_end - cfg.fft_size):window_end
            ]
            allocation, smr, masked = self._allocate(window, block)
            pack_frame(writer, block, allocation.bits)
            if anc_per_frame:
                chunk = ancillary[f * anc_per_frame:(f + 1) * anc_per_frame]
                chunk = chunk.ljust(anc_per_frame, b"\x00")
                for byte in chunk:
                    writer.write_bits(byte, 8)
            stats.append(
                AudioFrameStats(
                    index=f,
                    allocation=allocation.bits.copy(),
                    smr_db=smr,
                    bits=len(writer) - start_bits,
                    masked_fraction=masked,
                    stage_ops=self._stage_ops(),
                )
            )
        return stats

    def _allocate(
        self, window: np.ndarray, block: np.ndarray
    ) -> tuple[Allocation, np.ndarray, float]:
        cfg = self.config
        pool = self._pool_bits()
        if cfg.use_psychoacoustics:
            result = self._model.analyze(window)
            smr = result.band_smr_db
            allocation = allocate_bits(
                smr,
                pool_bits=pool,
                samples_per_band=SAMPLES_PER_BAND,
                side_bits_per_band=6,
            )
            return allocation, smr, result.masked_fraction()
        allocation = flat_allocation(
            cfg.num_bands,
            pool_bits=pool,
            samples_per_band=SAMPLES_PER_BAND,
            side_bits_per_band=6,
        )
        return allocation, np.full(cfg.num_bands, np.nan), 0.0

    # -- batched path (experiment R7) --------------------------------------

    def _frame_windows(self, flushed: np.ndarray, frames: int) -> np.ndarray:
        """Every frame's psychoacoustic window as one (frames, fft) array.

        Row ``f`` equals the reference slice-and-right-pad exactly: the
        signal is extended with zeros to the last frame boundary, full
        windows come from one strided view, and the few leading frames
        whose window is still shorter than the FFT keep their zeros on
        the right.
        """
        cfg = self.config
        fft = cfg.fft_size
        ends = (np.arange(frames) + 1) * cfg.samples_per_frame
        padded = np.concatenate([
            flushed, np.zeros(max(0, int(ends[-1]) - flushed.size))
        ])
        windows = np.zeros((frames, fft))
        full = ends >= fft
        if np.any(full):
            view = np.lib.stride_tricks.sliding_window_view(padded, fft)
            windows[full] = view[ends[full] - fft]
        for f in np.nonzero(~full)[0]:
            end = int(ends[f])
            windows[f, :end] = padded[:end]
        return windows

    def _encode_frames_batched(
        self,
        writer: BitWriter,
        flushed: np.ndarray,
        subbands: np.ndarray,
        frames: int,
        ancillary: bytes,
    ) -> list[AudioFrameStats]:
        """Whole-segment pipeline: batched FFT analysis, lockstep
        allocation, one fused ``write_many`` flush — bit-identical to the
        reference loop."""
        cfg = self.config
        pool = self._pool_bits()
        blocks = subbands.reshape(frames, SAMPLES_PER_BAND, cfg.num_bands)
        if cfg.use_psychoacoustics:
            analysis = self._model.analyze_batch(
                self._frame_windows(flushed, frames)
            )
            smr = analysis.band_smr_db
            allocations = allocate_bits_batch(
                smr,
                pool_bits=pool,
                samples_per_band=SAMPLES_PER_BAND,
                side_bits_per_band=6,
            )
            masked = analysis.masked_fraction()
        else:
            # Flat allocation depends only on the config: one call covers
            # every frame (the reference recomputes the same result).
            flat = flat_allocation(
                cfg.num_bands,
                pool_bits=pool,
                samples_per_band=SAMPLES_PER_BAND,
                side_bits_per_band=6,
            )
            allocations = [flat] * frames
            smr = np.full((frames, cfg.num_bands), np.nan)
            masked = np.zeros(frames)
        alloc_matrix = np.stack(
            [a.bits for a in allocations]
        ) if frames else np.zeros((0, cfg.num_bands), dtype=np.int64)
        frame_bits = pack_frames_batch(
            writer,
            blocks,
            alloc_matrix,
            ancillary,
            cfg.ancillary_bytes_per_frame,
        )
        return [
            AudioFrameStats(
                index=f,
                allocation=allocations[f].bits.copy(),
                smr_db=smr[f],
                bits=int(frame_bits[f]),
                masked_fraction=float(masked[f]),
                stage_ops=self._stage_ops(),
            )
            for f in range(frames)
        ]


@dataclass
class DecodedAudio:
    pcm: np.ndarray
    sample_rate: float
    ancillary: bytes
    delay: int
    #: Frames synthesized by error concealment (0 on intact streams).
    concealed: int = 0


class AudioDecoder:
    """Unpacks frames and runs the synthesis filterbank.

    ``batched`` mirrors the encoder: the default drains each frame's
    fixed-width fields through the chunked ``read_many`` bulk path and
    dequantizes/synthesizes the whole stream at once; the scalar
    reference walks fields one ``read_bits`` at a time.  Both emit
    bit-identical PCM.
    """

    def __init__(self, batched: bool = True) -> None:
        self.batched = batched

    def decode(self, data: bytes, conceal: bool = False) -> DecodedAudio:
        """Decode a stream; ``conceal`` survives truncated input.

        A lossy transport delivers a clean *prefix* of the coded bytes
        (see :mod:`repro.net.packetizer`), so with ``conceal`` enabled
        the first frame whose fields run off the end of the buffer —
        and every frame after it — is concealed: the last good frame's
        subband block is repeated once (the short-gap repair), further
        missing frames are muted (zero subbands), and the stream still
        synthesizes to its full PCM length.  The header must be
        readable; total segment loss is concealed at session level.
        """
        reader = BitReader(data)
        sample_rate, num_bands, frames, num_samples, anc_per_frame = (
            read_stream_header(reader)
        )
        bank = PolyphaseFilterbank(num_bands, batched=self.batched)
        if num_samples + bank.delay > frames * num_bands * SAMPLES_PER_BAND:
            raise ValueError(
                "corrupt audio stream header: sample count exceeds the "
                "coded frames"
            )
        concealed = 0
        if conceal:
            subbands, ancillary, concealed = self._unpack_concealing(
                reader, frames, num_bands, anc_per_frame
            )
        elif self.batched:
            blocks, ancillary = unpack_frames_batch(
                reader, frames, num_bands, SAMPLES_PER_BAND, anc_per_frame
            )
            subbands = blocks.reshape(frames * SAMPLES_PER_BAND, num_bands)
        else:
            subbands, ancillary = self._decode_frames_reference(
                reader, frames, num_bands, anc_per_frame
            )
        pcm = bank.synthesize(subbands)
        # Compensate the analysis+synthesis delay so output aligns to input.
        pcm = pcm[bank.delay:]
        if pcm.size > num_samples:
            pcm = pcm[:num_samples]
        return DecodedAudio(
            pcm=pcm,
            sample_rate=sample_rate,
            ancillary=ancillary,
            delay=bank.delay,
            concealed=concealed,
        )

    def _decode_frames_reference(
        self, reader: BitReader, frames: int, num_bands: int, anc_per_frame: int
    ) -> tuple[np.ndarray, bytes]:
        """Scalar frame-at-a-time unpack: the batched decode oracle.

        One :func:`repro.audio.frame.unpack_frame` (field-by-field
        ``read_bits``) per frame — the formulation the decoder shipped
        with, kept per the ``_reference`` convention and pinned against
        the window-gather :func:`unpack_frames_batch` path by the
        equivalence harness.
        """
        block_list = []
        anc = bytearray()
        for _ in range(frames):
            block_list.append(unpack_frame(reader, num_bands))
            for _ in range(anc_per_frame):
                anc.append(reader.read_bits(8))
        subbands = (
            np.vstack(block_list) if block_list
            else np.zeros((0, num_bands))
        )
        return subbands, bytes(anc)

    @staticmethod
    def _unpack_concealing(
        reader: BitReader, frames: int, num_bands: int, anc_per_frame: int
    ) -> tuple[np.ndarray, bytes, int]:
        """Frame-at-a-time unpack that degrades instead of raising.

        The first unreadable frame triggers concealment for the rest:
        one repeat of the last good block bridges short gaps without a
        click, then silence — the frame-repeat/mute policy the Figure-2
        receiver applies when the bit reservoir runs dry.
        """
        blocks: list[np.ndarray] = []
        anc = bytearray()
        good = 0
        for f in range(frames):
            try:
                block = unpack_frame(reader, num_bands)
                chunk = bytes(
                    reader.read_bits(8) for _ in range(anc_per_frame)
                )
            except (EOFError, ValueError):
                break
            blocks.append(block)
            anc.extend(chunk)
            good = f + 1
        concealed = frames - good
        if concealed:
            mute = np.zeros((SAMPLES_PER_BAND, num_bands))
            blocks.append(blocks[-1] if blocks else mute)
            blocks.extend([mute] * (concealed - 1))
        subbands = (
            np.vstack(blocks) if blocks else np.zeros((0, num_bands))
        )
        return subbands, bytes(anc), concealed
