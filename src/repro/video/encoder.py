"""The video encoder of the paper's Figure 1.

Dataflow per frame (arrows as drawn in the paper)::

                 +-------+   +-----------+   +----------------+   +--------+
    frame ----->(-)-> DCT --> QUANTIZER --> VARIABLE LENGTH   --> BUFFER -->
                 ^    |          |              ENCODE                 |
                 |    |     INVERSE DCT                        step feedback
                 |    |          |
                 |  MOTION-COMPENSATED PREDICTOR <- reconstructed frame
                 |          ^
                 +--- MOTION ESTIMATOR <------- reference frame store

I-frames code the shifted pixels directly; P-frames code the motion-
compensated residual.  The encoder contains the decoder loop (inverse
quantize + inverse DCT + predictor) so that encoder and decoder predict
from *identical* reconstructed references — the property that keeps lossy
inter coding from drifting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bitstream import BitWriter
from .blockpipe import (
    levels_to_plane,
    plane_to_vectors,
    write_plane_vectors,
    write_plane_vectors_reference,
)
from .dct import dct_2d, idct_2d
from .frames import Frame, pad_to_multiple
from .motion import SEARCH_ALGORITHMS, MotionField, motion_compensate
from .quant import INTRA_BASE, dequantize, quantize, uniform_matrix
from .ratecontrol import RateController
from .zigzag import inverse_zigzag, zigzag

MAGIC = 0x5657  # "VW"
VERSION = 1

#: Header field capacity (16-bit frame count).
MAX_HEADER_FRAMES = 0xFFFF
#: The one block size the codec supports: the intra quantization matrix
#: ``INTRA_BASE`` (and with it every intra frame) is 8x8.
BLOCK_SIZE = 8


@dataclass
class EncoderConfig:
    """Knobs of the Figure-1 encoder."""

    block_size: int = 8
    gop_size: int = 8
    search_algorithm: str = "full"
    search_range: int = 7
    quality: int = 75
    target_bitrate: float | None = None  # bits per second
    frame_rate: float = 30.0
    code_chroma: bool = True
    motion_enabled: bool = True

    def __post_init__(self) -> None:
        if self.block_size != BLOCK_SIZE:
            raise ValueError(
                f"unsupported block size {self.block_size}: the intra "
                f"quantization matrix is {BLOCK_SIZE}x{BLOCK_SIZE}"
            )
        if self.gop_size < 1:
            raise ValueError("GOP size must be at least 1")
        if self.search_algorithm not in SEARCH_ALGORITHMS:
            raise ValueError(
                f"unknown search algorithm {self.search_algorithm!r}; "
                f"choose from {sorted(SEARCH_ALGORITHMS)}"
            )
        if not 1 <= self.quality <= 100:
            raise ValueError("quality must be in 1..100")
        if self.search_range < 0:
            raise ValueError(
                f"search range must be non-negative, got {self.search_range}"
            )

    def base_step(self) -> float:
        """Quantizer step implied by ``quality`` (used without rate control).

        Clamped to the rate controller's admissible step range.
        """
        from .quant import quality_scale

        return min(112.0, max(2.0, 16.0 * quality_scale(self.quality)))


@dataclass
class FrameStats:
    """Per-frame accounting the benchmarks aggregate."""

    index: int
    frame_type: str  # "I" or "P"
    bits: int
    quant_step: float
    me_evaluations: int
    mv_bits: int
    coeff_bits: int
    buffer_occupancy: float
    stage_ops: dict[str, float] = field(default_factory=dict)


@dataclass
class EncodedVideo:
    """Encoder output: the packed stream plus per-frame statistics."""

    data: bytes
    config: EncoderConfig
    width: int
    height: int
    frame_stats: list[FrameStats]

    @property
    def total_bits(self) -> int:
        return len(self.data) * 8

    def mean_bits_per_frame(self) -> float:
        if not self.frame_stats:
            return 0.0
        return sum(s.bits for s in self.frame_stats) / len(self.frame_stats)


def _as_frames(sequence) -> list[Frame]:
    frames = []
    for item in sequence:
        if isinstance(item, Frame):
            frames.append(item)
        else:
            frames.append(Frame(y=np.asarray(item, dtype=np.float64)))
    if not frames:
        raise ValueError("cannot encode an empty sequence")
    first = frames[0]
    for f in frames[1:]:
        if (f.height, f.width) != (first.height, first.width):
            raise ValueError("all frames must share the same dimensions")
    return frames


class VideoEncoder:
    """Block-transform hybrid encoder (Figure 1 of the paper).

    ``batched`` selects the block-transform pipeline: the frame-granularity
    batched chain from :mod:`repro.video.blockpipe` (default) or the scalar
    block-at-a-time reference loop (``_code_plane_reference``).  Both emit
    bit-identical streams.
    """

    def __init__(
        self,
        config: EncoderConfig | None = None,
        batched: bool = True,
    ) -> None:
        self.config = config or EncoderConfig()
        self.batched = batched

    # ----------------------------------------------------------------- API

    def encode(self, sequence) -> EncodedVideo:
        """Encode a sequence of :class:`Frame` (or 2-D luma arrays)."""
        cfg = self.config
        frames = _as_frames(sequence)
        writer = BitWriter()
        self._write_header(writer, frames)

        rate = RateController(
            bits_per_frame=(
                cfg.target_bitrate / cfg.frame_rate
                if cfg.target_bitrate
                else None
            ),
            base_step=cfg.base_step(),
        )

        reference: dict[str, np.ndarray] | None = None
        stats: list[FrameStats] = []
        for index, frame in enumerate(frames):
            is_intra = (index % cfg.gop_size == 0) or reference is None
            step = rate.quant_step()
            bits_before = len(writer)
            frame_stat, reference = self._encode_frame(
                writer, frame, reference, is_intra, step, index
            )
            frame_stat.bits = len(writer) - bits_before
            state = rate.frame_coded(frame_stat.bits)
            frame_stat.buffer_occupancy = state.occupancy
            stats.append(frame_stat)

        writer.align()
        return EncodedVideo(
            data=writer.getvalue(),
            config=cfg,
            width=frames[0].width,
            height=frames[0].height,
            frame_stats=stats,
        )

    # ------------------------------------------------------------- plumbing

    def _write_header(self, writer: BitWriter, frames: list[Frame]) -> None:
        cfg = self.config
        if len(frames) > MAX_HEADER_FRAMES:
            raise ValueError(
                f"{len(frames)} frames exceed the 16-bit frame-count "
                f"field (max {MAX_HEADER_FRAMES}); split the sequence"
            )
        writer.write_bits(MAGIC, 16)
        writer.write_bits(VERSION, 4)
        writer.write_bits(frames[0].width, 16)
        writer.write_bits(frames[0].height, 16)
        writer.write_bits(BLOCK_SIZE, 8)
        writer.write_bits(len(frames), 16)
        writer.write_bits(1 if cfg.code_chroma else 0, 1)

    def _encode_frame(
        self,
        writer: BitWriter,
        frame: Frame,
        reference: dict[str, np.ndarray] | None,
        is_intra: bool,
        step: float,
        index: int,
    ) -> tuple[FrameStats, dict[str, np.ndarray]]:
        cfg = self.config
        n = cfg.block_size
        writer.write_bits(0 if is_intra else 1, 1)
        # Step is carried as 12-bit fixed point (1/16 resolution).
        step_q = max(16, min(4095, int(round(step * 16))))
        writer.write_bits(step_q, 12)
        step = step_q / 16.0

        intra_matrix = np.clip(INTRA_BASE * (step / 16.0), 1.0, 255.0)
        inter_matrix = uniform_matrix(step, (n, n))

        me_evals = 0
        mv_bits = 0
        stage_ops: dict[str, float] = {}
        luma = pad_to_multiple(frame.y, n)
        motion: MotionField | None = None

        if not is_intra:
            assert reference is not None
            search = SEARCH_ALGORITHMS[cfg.search_algorithm]
            if cfg.motion_enabled:
                motion, me_evals = search(
                    luma, reference["y"], block_size=n,
                    search_range=cfg.search_range,
                )
            else:
                by, bx = luma.shape[0] // n, luma.shape[1] // n
                motion = MotionField(
                    dy=np.zeros((by, bx), dtype=np.int32),
                    dx=np.zeros((by, bx), dtype=np.int32),
                    block_size=n,
                )
            before = len(writer)
            self._write_motion(writer, motion)
            mv_bits = len(writer) - before
            stage_ops["motion_estimation"] = float(me_evals * n * n)

        coeff_before = len(writer)
        recon: dict[str, np.ndarray] = {}
        planes = frame.planes() if cfg.code_chroma else frame.planes()[:1]
        for name, plane in planes:
            padded = pad_to_multiple(plane, n)
            if is_intra or motion is None:
                prediction = np.full_like(padded, 128.0)
            elif name == "y":
                prediction = motion_compensate(reference["y"], motion)
            else:
                chroma_field = _halve_motion(motion, padded.shape, n)
                prediction = motion_compensate(reference[name], chroma_field)
            matrix = intra_matrix if is_intra else inter_matrix
            recon_plane, plane_ops = self._code_plane(
                writer, padded, prediction, matrix
            )
            recon[name] = recon_plane
            for key, val in plane_ops.items():
                stage_ops[key] = stage_ops.get(key, 0.0) + val
        if not cfg.code_chroma:
            recon["cb"] = pad_to_multiple(frame.cb, n)
            recon["cr"] = pad_to_multiple(frame.cr, n)
        coeff_bits = len(writer) - coeff_before

        stat = FrameStats(
            index=index,
            frame_type="I" if is_intra else "P",
            bits=0,  # caller fills in (includes headers)
            quant_step=step,
            me_evaluations=me_evals,
            mv_bits=mv_bits,
            coeff_bits=coeff_bits,
            buffer_occupancy=0.0,
            stage_ops=stage_ops,
        )
        return stat, recon

    def _write_motion(self, writer: BitWriter, motion: MotionField) -> None:
        """Signed Exp-Golomb ``dy, dx`` per block in raster order, one flush.

        Each code is two fields, ``z`` zero bits then ``ue + 1`` in
        ``z + 1`` bits, exactly what :meth:`BitWriter.write_se` emits per
        value; the decoder reads them back with ``read_se_many``.
        """
        values = np.stack((motion.dy, motion.dx), axis=-1).ravel()
        values = values.astype(np.int64)
        codes = np.where(values > 0, 2 * values - 1, -2 * values) + 1
        nbits = np.frexp(codes)[1]  # bit length, exact below 2**53
        fields = np.stack((np.zeros_like(codes), codes), axis=-1).ravel()
        widths = np.stack((nbits - 1, nbits), axis=-1).ravel()
        writer.write_many(fields, widths)

    def _code_plane(
        self,
        writer: BitWriter,
        plane: np.ndarray,
        prediction: np.ndarray,
        matrix: np.ndarray,
    ) -> tuple[np.ndarray, dict[str, float]]:
        """Transform-code one plane; return its reconstruction and op counts.

        The batched path runs the whole plane through the frame-granularity
        pipeline; op counts are the same analytic per-block totals as the
        reference loop (they model the work's size, not the implementation),
        so runtime stage profiles are unchanged while wall-clock falls.
        """
        if not self.batched:
            return self._code_plane_reference(writer, plane, prediction, matrix)
        n = self.config.block_size
        residual = plane - prediction
        levels, vectors = plane_to_vectors(residual, matrix, n)
        write_plane_vectors(writer, vectors, n, 0)
        recon = levels_to_plane(levels, matrix, plane.shape) + prediction
        np.clip(recon, 0.0, 255.0, out=recon)
        return recon, self._plane_ops(levels.shape[0])

    def _code_plane_reference(
        self,
        writer: BitWriter,
        plane: np.ndarray,
        prediction: np.ndarray,
        matrix: np.ndarray,
    ) -> tuple[np.ndarray, dict[str, float]]:
        """Scalar block-at-a-time plane coder: the equivalence oracle.

        Kept as the honest "pure software" baseline the batched pipeline is
        benchmarked against (experiment R6); outputs are bit-identical.
        """
        n = self.config.block_size
        residual = plane - prediction
        h, w = plane.shape
        recon = np.empty_like(plane)
        vectors = []
        for y in range(0, h, n):
            for x in range(0, w, n):
                block = residual[y:y + n, x:x + n]
                vec = zigzag(quantize(dct_2d(block), matrix))
                vectors.append(vec)
                dequant = dequantize(
                    inverse_zigzag(vec, n).astype(np.float64), matrix
                )
                rec_block = idct_2d(dequant) + prediction[y:y + n, x:x + n]
                recon[y:y + n, x:x + n] = rec_block
        write_plane_vectors_reference(writer, vectors, n, 0)
        np.clip(recon, 0.0, 255.0, out=recon)
        return recon, self._plane_ops(len(vectors))

    def _plane_ops(self, blocks: int) -> dict[str, float]:
        """Analytic per-plane op profile (identical for both pipelines)."""
        n = self.config.block_size
        return {
            "dct": float(blocks * 2 * n ** 3),
            "quantize": float(blocks * n * n),
            "inverse_dct": float(blocks * 2 * n ** 3),
            "vlc": float(blocks * n * n),
        }


def _halve_motion(
    motion: MotionField, chroma_shape: tuple[int, int], n: int
) -> MotionField:
    """Derive a chroma-plane motion field from the luma field (4:2:0).

    Chroma block ``(i, j)`` takes luma block ``(2i, 2j)``, clamped to the
    luma grid, and halves its vector with floor division.
    """
    return MotionField(
        dy=_halve_vectors(motion.dy, chroma_shape, n),
        dx=_halve_vectors(motion.dx, chroma_shape, n),
        block_size=n,
    )


def _halve_vectors(
    vectors: np.ndarray, chroma_shape: tuple[int, int], n: int
) -> np.ndarray:
    """:func:`_halve_motion` on the last two axes of a vector array, so
    the decoder derives every P frame's chroma field in one pass."""
    ly, lx = vectors.shape[-2:]
    rows = np.minimum(2 * np.arange(chroma_shape[0] // n), ly - 1)
    cols = np.minimum(2 * np.arange(chroma_shape[1] // n), lx - 1)
    return vectors[..., rows[:, None], cols] // 2
