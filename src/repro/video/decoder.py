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
from .blockpipe import read_plane_vectors, vectors_to_plane
from .dct import idct_2d
from .encoder import MAGIC, VERSION, _halve_motion
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

    ``batched`` picks the reconstruction pipeline (see
    :class:`~repro.video.encoder.VideoEncoder`): entropy parsing is serial
    either way, but the batched path dequantizes, un-scans, and inverse-
    transforms a whole plane of blocks at once.  Outputs are bit-identical.
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
        magic = reader.read_bits(16)
        if magic != MAGIC:
            raise ValueError(f"bad stream magic 0x{magic:04x}")
        version = reader.read_bits(4)
        if version != VERSION:
            raise ValueError(f"unsupported stream version {version}")
        width = reader.read_bits(16)
        height = reader.read_bits(16)
        block_size = reader.read_bits(8)
        num_frames = reader.read_bits(16)
        code_chroma = bool(reader.read_bits(1))
        if block_size == 0:
            # A corrupted header field must fail like any other parse
            # error, not as a ZeroDivisionError in the padding math.
            raise ValueError("corrupt stream header: block size 0")

        ac_codec = tables.default_ac_codec(block_size)
        dc_codec = tables.default_dc_codec(block_size)
        eob = tables.eob_symbol(block_size)

        n = block_size
        pad_h = -(-height // n) * n
        pad_w = -(-width // n) * n
        chroma_h, chroma_w = height // 2, width // 2
        cpad_h = -(-chroma_h // n) * n
        cpad_w = -(-chroma_w // n) * n

        reference: dict[str, np.ndarray] = {}
        frames: list[Frame] = []
        frame_types: list[str] = []
        ops: list[dict[str, float]] = []

        concealed = 0
        for index in range(num_frames):
            try:
                frame, frame_type, frame_ops, reference = self._parse_frame(
                    reader, reference, n, pad_h, pad_w, cpad_h, cpad_w,
                    width, height, chroma_h, chroma_w, code_chroma,
                    ac_codec, dc_codec, eob,
                )
            except (EOFError, ValueError):
                if not conceal:
                    raise
                # The stream is sequential: once one frame is unreadable
                # so is everything after it.  Repeat the last good frame
                # for the remainder (mid-grey if nothing decoded yet).
                concealed = num_frames - index
                last = frames[-1] if frames else Frame(
                    y=np.full((height, width), 128.0),
                    cb=np.full((chroma_h, chroma_w), 128.0),
                    cr=np.full((chroma_h, chroma_w), 128.0),
                )
                for _ in range(concealed):
                    frames.append(last)
                    frame_types.append("C")
                    ops.append({})
                break
            frames.append(frame)
            frame_types.append(frame_type)
            ops.append(frame_ops)

        return DecodedVideo(
            frames=frames,
            frame_types=frame_types,
            stage_ops=ops,
            concealed=concealed,
        )

    def _parse_frame(
        self,
        reader: BitReader,
        reference: dict,
        n: int,
        pad_h: int,
        pad_w: int,
        cpad_h: int,
        cpad_w: int,
        width: int,
        height: int,
        chroma_h: int,
        chroma_w: int,
        code_chroma: bool,
        ac_codec,
        dc_codec,
        eob: int,
    ):
        """Parse one frame; returns (frame, type, ops, new reference)."""
        is_inter = bool(reader.read_bits(1))
        step = reader.read_bits(12) / 16.0
        intra_matrix = np.clip(INTRA_BASE * (step / 16.0), 1.0, 255.0)
        inter_matrix = uniform_matrix(step, (n, n))
        frame_ops: dict[str, float] = {}

        motion: MotionField | None = None
        if is_inter:
            by, bx = pad_h // n, pad_w // n
            if self.batched:
                pairs = reader.read_se_many(by * bx * 2)
            else:
                pairs = reader.read_se_many_reference(by * bx * 2)
            pairs = pairs.astype(np.int32).reshape(by, bx, 2)
            motion = MotionField(
                dy=pairs[:, :, 0].copy(),
                dx=pairs[:, :, 1].copy(),
                block_size=n,
            )

        recon: dict[str, np.ndarray] = {}
        plane_specs = [("y", pad_h, pad_w)]
        if code_chroma:
            plane_specs += [("cb", cpad_h, cpad_w), ("cr", cpad_h, cpad_w)]
        compensate = (
            motion_compensate if self.batched else motion_compensate_reference
        )
        for name, ph, pw in plane_specs:
            if not is_inter or motion is None:
                prediction = np.full((ph, pw), 128.0)
            elif name == "y":
                prediction = compensate(reference["y"], motion)
                frame_ops["motion_compensation"] = (
                    frame_ops.get("motion_compensation", 0.0) + ph * pw
                )
            else:
                chroma_field = _halve_motion(motion, (ph, pw), n)
                prediction = compensate(reference[name], chroma_field)
            matrix = inter_matrix if is_inter else intra_matrix
            plane, blocks = self._decode_plane(
                reader, ph, pw, n, matrix, prediction,
                ac_codec, dc_codec, eob,
            )
            recon[name] = plane
            frame_ops["inverse_dct"] = (
                frame_ops.get("inverse_dct", 0.0) + blocks * 2 * n ** 3
            )
            frame_ops["dequantize"] = (
                frame_ops.get("dequantize", 0.0) + blocks * n * n
            )
        if not code_chroma:
            recon["cb"] = np.full((cpad_h, cpad_w), 128.0)
            recon["cr"] = np.full((cpad_h, cpad_w), 128.0)

        frame = Frame(
            y=recon["y"][:height, :width],
            cb=recon["cb"][:chroma_h, :chroma_w],
            cr=recon["cr"][:chroma_h, :chroma_w],
        )
        return frame, ("P" if is_inter else "I"), frame_ops, recon

    def _decode_plane(
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
    ) -> tuple[np.ndarray, int]:
        if not self.batched:
            return self._decode_plane_reference(
                reader, height, width, n, matrix, prediction,
                ac_codec, dc_codec, eob,
            )
        blocks = (height // n) * (width // n)
        vectors, _ = read_plane_vectors(
            reader, blocks, n, 0, ac_codec, dc_codec, eob
        )
        plane = vectors_to_plane(vectors, matrix, n, (height, width))
        plane += prediction
        np.clip(plane, 0.0, 255.0, out=plane)
        return plane, blocks

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
    ) -> tuple[np.ndarray, int]:
        """Scalar block-at-a-time plane decode: the equivalence oracle."""
        plane = np.empty((height, width), dtype=np.float64)
        prev_dc = 0
        blocks = 0
        for y in range(0, height, n):
            for x in range(0, width, n):
                vec, prev_dc = self._decode_block(
                    reader, n, ac_codec, dc_codec, eob, prev_dc
                )
                levels = inverse_zigzag(vec, n)
                coeffs = dequantize(levels.astype(np.float64), matrix)
                plane[y:y + n, x:x + n] = (
                    idct_2d(coeffs) + prediction[y:y + n, x:x + n]
                )
                blocks += 1
        np.clip(plane, 0.0, 255.0, out=plane)
        return plane, blocks

    def _decode_block(
        self, reader: BitReader, n: int, ac_codec, dc_codec, eob: int,
        prev_dc: int,
    ) -> tuple[np.ndarray, int]:
        vec = np.zeros(n * n, dtype=np.int32)
        cat = dc_codec.decode_symbol(reader)
        dc = prev_dc + tables.decode_magnitude(cat, reader)
        vec[0] = dc
        pos = 1
        while True:
            symbol = ac_codec.decode_symbol(reader)
            if symbol == eob:
                break
            run, cat = tables.unpack_ac(symbol)
            pos += run
            if pos >= n * n:
                raise ValueError("corrupt stream: AC coefficients overrun block")
            vec[pos] = tables.decode_magnitude(cat, reader)
            pos += 1
        return vec, dc
