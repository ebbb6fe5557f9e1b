"""Video decoder: the receiver half of the paper's Figure 1 loop.

The decoder is deliberately much simpler than the encoder — no motion
*estimation*, only compensation — which is exactly the encode/decode
asymmetry the paper's Section 2 builds its broadcast argument on
(experiment C1 in DESIGN.md measures it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import codec_tables as tables
from .bitstream import BitReader
from .blockpipe import (
    read_plane_vectors,
    read_plane_vectors_reference,
    vectors_to_plane,
)
from .dct import idct_2d
from .encoder import (
    BLOCK_SIZE,
    _halve_motion,
    _halve_vectors,
    read_stream_header,
)
from .frames import Frame
from .motion import MotionField, motion_compensate, motion_compensate_reference
from .quant import INTRA_BASE, dequantize, uniform_matrix
from .zigzag import inverse_zigzag


@dataclass
class DecodedVideo:
    """Decoder output: frames plus per-frame op accounting.

    ``concealed`` counts frames that were *not* parsed from the
    bitstream but synthesized by error concealment (frame type ``"C"``)
    — zero on any intact stream.
    """

    frames: list[Frame]
    frame_types: list[str]
    stage_ops: list[dict[str, float]]
    concealed: int = 0


class VideoDecoder:
    """Parses and reconstructs streams produced by :class:`VideoEncoder`.

    ``batched`` picks the pipeline (see
    :class:`~repro.video.encoder.VideoEncoder`).  The batched path works
    at segment granularity: one chunked
    :func:`~repro.video.blockpipe.read_plane_vectors` call parses every
    frame of the stream — reading each frame's header and motion vectors
    at its boundary — before anything the header sizes is allocated;
    then one dequantize and inverse transform per plane type covers all
    frames, and only motion compensation, the add and the clip run frame
    by frame.  The reference path walks frame by frame and block by
    block.  Outputs and errors are bit-identical, and so is the frame a
    concealing decode first gives up on.
    """

    def __init__(self, batched: bool = True) -> None:
        self.batched = batched

    def decode(self, data: bytes, conceal: bool = False) -> DecodedVideo:
        """Decode a stream; ``conceal`` survives truncated input.

        A lossy transport hands the decoder a clean *prefix* of the
        coded bytes (fragments after a lost packet cannot be spliced
        back in — see :mod:`repro.net.packetizer`).  With ``conceal``
        enabled, the first frame whose parse runs off the end of the
        buffer — and every frame after it — is replaced by a copy of
        the last good frame (mid-grey if the stream broke before any
        frame), the classic previous-frame-copy concealment.  The
        header must still be readable: it rides in fragment 0, so a
        session that lost even that conceals at segment level instead
        (:meth:`repro.runtime.session.VideoDecodeSession`).
        """
        reader = BitReader(data)
        width, height, block_size, num_frames, code_chroma = (
            read_stream_header(reader)
        )
        if block_size != BLOCK_SIZE:
            # Checked before any table is built for it: a corrupt size
            # would otherwise cost tables (and time) that grow with it.
            raise ValueError(
                f"corrupt stream header: unsupported block size {block_size}"
            )

        codecs = (
            tables.default_ac_codec(block_size),
            tables.default_dc_codec(block_size),
            tables.eob_symbol(block_size),
        )
        n = block_size
        chroma_h, chroma_w = height // 2, width // 2
        planes = [("y", -(-height // n) * n, -(-width // n) * n)]
        grey = ("cb", "cr")
        if code_chroma:
            planes += [(name, -(-chroma_h // n) * n, -(-chroma_w // n) * n)
                       for name in grey]
            grey = ()

        decode = self._decode_segment if self.batched else self._decode_frames
        recons, frame_types, ops = decode(
            reader, num_frames, n, planes, codecs, conceal
        )
        for recon in recons:
            for name in grey:
                recon[name] = np.full((chroma_h, chroma_w), 128.0)
        frames = [
            Frame(
                y=recon["y"][:height, :width],
                cb=recon["cb"][:chroma_h, :chroma_w],
                cr=recon["cr"][:chroma_h, :chroma_w],
            )
            for recon in recons
        ]
        # The stream is sequential: once one frame is unreadable so is
        # everything after it.  Repeat the last good frame for the
        # remainder (mid-grey if nothing decoded yet).
        concealed = num_frames - len(frames)
        last = frames[-1] if frames else Frame(
            y=np.full((height, width), 128.0),
            cb=np.full((chroma_h, chroma_w), 128.0),
            cr=np.full((chroma_h, chroma_w), 128.0),
        )
        frames += [last] * concealed
        frame_types += ["C"] * concealed
        ops += [{} for _ in range(concealed)]
        return DecodedVideo(
            frames=frames,
            frame_types=frame_types,
            stage_ops=ops,
            concealed=concealed,
        )

    def _decode_segment(self, reader, num_frames, n, planes, codecs, conceal):
        """Parse every frame in one call, then reconstruct them all.

        Returns the padded planes, types and ops of the frames before the
        first one that fails to parse (all of them on an intact stream).
        """
        luma_h, luma_w = planes[0][1:]
        mv_count = 2 * (luma_h // n) * (luma_w // n)
        plane_blocks = [(ph // n) * (pw // n) for _, ph, pw in planes]
        headers: list[tuple[np.ndarray, np.ndarray | None]] = []

        def frame_planes():
            for _ in range(num_frames):
                is_inter, matrix = _read_frame_header(reader, n, not headers)
                vectors = reader.read_se_many(mv_count) if is_inter else None
                headers.append((matrix, vectors))
                yield from plane_blocks

        try:
            vectors = read_plane_vectors(reader, frame_planes(), n, *codecs)
        except (EOFError, ValueError) as exc:
            if not conceal:
                raise
            vectors = exc.planes
        stride = len(planes)
        count = len(vectors) // stride
        headers = headers[:count]
        if not headers:
            return [], [], []

        # Every P frame's vectors as (dy/dx, by, bx), then each plane's.
        inter = [f for f, (_, mv) in enumerate(headers) if mv is not None]
        motion: list[dict[int, np.ndarray]] = [{} for _ in planes]
        if inter:
            luma = np.stack([headers[f][1] for f in inter]).astype(np.int32)
            luma = luma.reshape(len(inter), luma_h // n, luma_w // n, 2)
            luma = luma.transpose(0, 3, 1, 2)
            for index, (_, ph, pw) in enumerate(planes):
                field = _halve_vectors(luma, (ph, pw), n) if index else luma
                motion[index] = dict(zip(inter, field))

        # One dequantize + inverse transform per plane type: its frames
        # stacked top to bottom, each under its own matrix.
        matrices = np.stack([matrix for matrix, _ in headers])
        residuals = [
            vectors_to_plane(
                np.concatenate(vectors[index:count * stride:stride]),
                matrices, n, (count * ph, pw),
            )
            for index, (_, ph, pw) in enumerate(planes)
        ]

        frames: list[dict[str, np.ndarray]] = []
        for f, (_, mv) in enumerate(headers):
            recon = {}
            for (name, ph, _), residual, fields in zip(
                planes, residuals, motion
            ):
                plane = residual[f * ph:(f + 1) * ph]
                if mv is None:
                    plane += 128.0
                else:
                    dy, dx = fields[f]
                    plane += motion_compensate(
                        frames[-1][name], MotionField(dy, dx, n)
                    )
                np.clip(plane, 0.0, 255.0, out=plane)
                recon[name] = plane
            frames.append(recon)

        blocks = sum(plane_blocks)
        intra_ops = {
            "inverse_dct": float(blocks * 2 * n ** 3),
            "dequantize": float(blocks * n * n),
        }
        inter_ops = {"motion_compensation": float(luma_h * luma_w), **intra_ops}
        frame_types = ["I" if mv is None else "P" for _, mv in headers]
        ops = [dict(intra_ops if mv is None else inter_ops) for _, mv in headers]
        return frames, frame_types, ops

    def _decode_frames(self, reader, num_frames, n, planes, codecs, conceal):
        """The scalar path: :meth:`_parse_frame` once per frame."""
        frames: list[dict[str, np.ndarray]] = []
        frame_types: list[str] = []
        ops: list[dict[str, float]] = []
        for _ in range(num_frames):
            try:
                recon, frame_type, frame_ops = self._parse_frame(
                    reader, frames[-1] if frames else None, n, planes, codecs
                )
            except (EOFError, ValueError):
                if not conceal:
                    raise
                break
            frames.append(recon)
            frame_types.append(frame_type)
            ops.append(frame_ops)
        return frames, frame_types, ops

    def _parse_frame(self, reader, reference, n, planes, codecs):
        """Parse one frame; returns (padded planes, type, ops)."""
        is_inter, matrix = _read_frame_header(reader, n, reference is None)
        frame_ops: dict[str, float] = {}
        motion: MotionField | None = None
        if is_inter:
            by, bx = planes[0][1] // n, planes[0][2] // n
            pairs = reader.read_se_many_reference(by * bx * 2)
            pairs = pairs.astype(np.int32).reshape(by, bx, 2)
            motion = MotionField(
                dy=pairs[:, :, 0].copy(),
                dx=pairs[:, :, 1].copy(),
                block_size=n,
            )

        recon: dict[str, np.ndarray] = {}
        for name, ph, pw in planes:
            if motion is None:
                prediction = np.full((ph, pw), 128.0)
            elif name == "y":
                prediction = motion_compensate_reference(reference["y"], motion)
                frame_ops["motion_compensation"] = (
                    frame_ops.get("motion_compensation", 0.0) + ph * pw
                )
            else:
                chroma_field = _halve_motion(motion, (ph, pw), n)
                prediction = motion_compensate_reference(
                    reference[name], chroma_field
                )
            recon[name] = self._decode_plane_reference(
                reader, ph, pw, n, matrix, prediction, *codecs
            )
            blocks = (ph // n) * (pw // n)
            frame_ops["inverse_dct"] = (
                frame_ops.get("inverse_dct", 0.0) + blocks * 2 * n ** 3
            )
            frame_ops["dequantize"] = (
                frame_ops.get("dequantize", 0.0) + blocks * n * n
            )
        return recon, ("P" if is_inter else "I"), frame_ops

    def _decode_plane_reference(
        self,
        reader: BitReader,
        height: int,
        width: int,
        n: int,
        matrix: np.ndarray,
        prediction: np.ndarray,
        ac_codec,
        dc_codec,
        eob: int,
    ) -> np.ndarray:
        """Scalar block-at-a-time plane decode: the equivalence oracle.

        The plane's entropy stream is parsed by
        :func:`~repro.video.blockpipe.read_plane_vectors_reference`, then
        each block is un-scanned, dequantized and inverse-transformed.
        """
        vectors, _ = read_plane_vectors_reference(
            reader, (height // n) * (width // n), n, 0,
            ac_codec, dc_codec, eob,
        )
        plane = np.empty((height, width), dtype=np.float64)
        blocks = iter(vectors)
        for y in range(0, height, n):
            for x in range(0, width, n):
                levels = inverse_zigzag(next(blocks), n)
                coeffs = dequantize(levels.astype(np.float64), matrix)
                plane[y:y + n, x:x + n] = (
                    idct_2d(coeffs) + prediction[y:y + n, x:x + n]
                )
        np.clip(plane, 0.0, 255.0, out=plane)
        return plane


def _read_frame_header(reader: BitReader, n: int, first: bool):
    """A frame's type bit and quantizer step: ``(is_inter, matrix)``.

    Raises on a zero step (of any frame type) and on a P frame with no
    frame before it to predict from.
    """
    is_inter = bool(reader.read_bits(1))
    step = reader.read_bits(12) / 16.0
    inter_matrix = uniform_matrix(step, (n, n))
    if not is_inter:
        return False, np.clip(INTRA_BASE * (step / 16.0), 1.0, 255.0)
    if first:
        raise ValueError("corrupt stream: P frame before any I frame")
    return True, inter_matrix
