"""Media sessions: frame-batched pipelines over the existing codecs.

A session is one live stream inside a device — a camera being encoded, a
tuner feed being decoded, a clip being transcoded, an analysis pass over a
recording.  Wolf's framing (Section 2) is that the *device* is the unit of
design and it runs many of these concurrently; the
:class:`~repro.runtime.engine.StreamEngine` interleaves sessions
segment-by-segment the way an RTOS interleaves their task graphs.

Every session advances in *segments*: GOP-aligned frame batches whose coded
output depends only on the segment's own input and the codec configuration.
Segment granularity is what makes the runtime compose:

* interleaving is free — any schedule of ``step()`` calls over any number
  of sessions yields bit-identical per-session output (pinned by
  ``tests/test_runtime.py``);
* identical work is shareable — segments are pure functions, so the
  engine-wide :class:`~repro.runtime.cache.SegmentCache` can serve repeat
  (config, content) pairs without re-encoding;
* cost is observable — each segment carries the measured ``stage_ops``
  profile that the task-graph/DSE models consume (see
  :func:`~repro.runtime.engine.measured_application`).

:class:`MediaSession` owns the input model — the segment cursor,
``finished``, the next-input draw and the frame estimate — so a session
kind supplies only its input and its per-segment work.
:class:`TranscodeSession` is a :class:`VideoDecodeSession` that
re-encodes what it decoded: the two share one coded-input path.

The codecs the sessions wrap default to the frame-batched pipelines —
video through :mod:`repro.video.blockpipe`, audio through
:mod:`repro.audio.subbandpipe`; ``stage_ops`` profiles are analytic
per-block totals, so they are identical whichever pipeline runs — the
batched paths change wall-clock, never the accounted work (pinned across
every registered scenario in ``tests/test_video_blockpipe.py`` and
``tests/test_audio_subbandpipe.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from ..analysis.detectors import BlackFrameDetector, ShotBoundaryDetector
from ..audio.encoder import AudioDecoder, AudioEncoder, AudioEncoderConfig
from ..video.bitstream import BitReader
from ..video.decoder import DecodedVideo, VideoDecoder
from ..video.encoder import EncoderConfig, VideoEncoder, read_stream_header
from ..video.frames import Frame
from ..video.metrics import psnr
from .cache import SegmentCache, segment_key

#: PSNR ceiling for delivery-quality reports: identical reconstructions
#: would be infinite dB, which JSON consumers dislike.
_PSNR_CAP_DB = 99.0


def _capped_psnr(clean: np.ndarray, received: np.ndarray, peak: float) -> float:
    return min(psnr(clean, received, peak=peak), _PSNR_CAP_DB)


def _grey_video(geometry: tuple[int, int, int]) -> DecodedVideo:
    """A whole-segment concealment: mid-grey frames at stream geometry."""
    width, height, frames = geometry
    grey = Frame(
        y=np.full((height, width), 128.0),
        cb=np.full((height // 2, width // 2), 128.0),
        cr=np.full((height // 2, width // 2), 128.0),
    )
    return DecodedVideo(
        frames=[grey] * frames,
        frame_types=["C"] * frames,
        stage_ops=[{} for _ in range(frames)],
        concealed=frames,
    )


def score_video_delivery(delivered, clean_bytes: bytes) -> None:
    """Fill a damaged delivery record's quality fields for a video stream.

    Decodes the clean bytes as the reference and the delivered bytes
    with concealment, then records the concealed-frame count and the
    luma PSNR on the record.  Shared by every session whose coded video
    crosses a channel (encode uplinks and transcode inputs alike).
    """
    reference = VideoDecoder().decode(clean_bytes)
    received = decode_with_concealment(delivered.data, clean_bytes)
    delivered.concealed_frames = received.concealed
    delivered.psnr_db = _capped_psnr(
        np.stack([f.y for f in reference.frames]),
        np.stack([f.y for f in received.frames]),
        peak=255.0,
    )


def decode_with_concealment(
    data: bytes, clean_reference: bytes | None
) -> DecodedVideo:
    """Decode possibly-damaged coded video, degrading instead of raising.

    Truncated streams conceal inside the decoder (previous-frame copy);
    a segment whose very header was lost is replaced by mid-grey frames
    at the geometry peeked from ``clean_reference`` (the receiver knows
    its service's format even when a segment vanishes).
    """
    try:
        return VideoDecoder().decode(data, conceal=True)
    except (EOFError, ValueError):
        geometry = coded_segment_geometry(clean_reference or b"")
        if geometry is None:
            return DecodedVideo(
                frames=[], frame_types=[], stage_ops=[], concealed=0
            )
        return _grey_video(geometry)


@dataclass
class SegmentResult:
    """One finished unit of session work (also the cache value type)."""

    data: bytes
    frames: int
    bits: int
    stage_ops: dict[str, float] = field(default_factory=dict)
    me_evaluations: int = 0
    #: Side products (decoded luma planes, detector verdicts, ...).
    extras: dict = field(default_factory=dict)


def config_fingerprint(config) -> str:
    """Canonical string for a dataclass config: every field, in order."""
    pairs = [
        f"{f.name}={getattr(config, f.name)!r}" for f in fields(config)
    ]
    return type(config).__name__ + "(" + ", ".join(pairs) + ")"


def merge_ops(into: dict[str, float], extra: dict[str, float]) -> dict[str, float]:
    """Accumulate one stage-ops profile into another, in place."""
    for cls, count in extra.items():
        into[cls] = into.get(cls, 0.0) + count
    return into


def coded_segment_geometry(data: bytes) -> tuple[int, int, int] | None:
    """``(width, height, frames)`` from a coded segment's header.

    Reading the Figure-1 stream header is what lets a decode/transcode
    session derive exact arrival times and deadlines for coded inputs (a
    real decoder learns the same from its container) — and what lets a
    lossy session conceal a *wholly* lost segment at the right
    dimensions (it peeks the clean header it never received, the way a
    real receiver knows the service's format out of band).  Returns
    ``None`` for anything that is not a valid stream.
    """
    try:
        width, height, _, frames, _ = read_stream_header(BitReader(data))
    except (EOFError, ValueError):
        return None
    return width, height, max(1, frames)


def coded_segment_frames(data: bytes) -> int | None:
    """Frame count from a coded segment's header, without decoding."""
    geometry = coded_segment_geometry(data)
    return None if geometry is None else geometry[2]


@dataclass
class SegmentTiming:
    """Virtual-time record of one segment's trip through the engine.

    ``arrival`` is when the segment's input finished arriving at the
    session's contracted rate (0 for unrated sessions); ``deadline``
    grants one segment-period of latency budget past the arrival
    (``inf`` for unrated sessions, which can never miss).
    """

    index: int
    frames: int
    start: float
    finish: float
    arrival: float
    deadline: float
    from_cache: bool = False

    @property
    def missed(self) -> bool:
        return self.finish > self.deadline + 1e-9

    @property
    def latency(self) -> float:
        """Completion latency past input arrival (service time if unrated)."""
        if math.isinf(self.deadline):
            return self.finish - self.start
        return max(0.0, self.finish - self.arrival)


def frames_payload(frames) -> bytes:
    """Raw bytes identifying a frame batch (shape-prefixed, row-major)."""
    parts = []
    for f in frames:
        a = np.ascontiguousarray(f, dtype=np.float64)
        parts.append(np.asarray(a.shape, dtype=np.int64).tobytes())
        parts.append(a.tobytes())
    return b"".join(parts)


class MediaSession:
    """Base session: the input cursor, caching, delivery and accounting.

    The base class walks a session's input one segment at a time.  A
    session kind says only what its input is and how one segment is
    processed:

    * :meth:`_input_count` — how many segments the input holds;
    * :meth:`_input` — the ``k``-th segment's input;
    * :meth:`_input_frames` — how many frames that input yields, or
      ``None`` when it cannot tell before the work is done;
    * :meth:`_fingerprint`, :meth:`_payload` and :meth:`_process` — the
      configuration and content halves of the cache key, and the work.
    """

    kind = "media"

    #: Fallback segment length (frames) when a session cannot know its next
    #: batch size up front (coded inputs reveal frames only after decode).
    nominal_segment_frames = 8

    #: Where a :class:`repro.net.DeliveryPipe` plugs in: ``"input"`` for
    #: sessions consuming coded bytes (the segments cross the channel
    #: *before* decode), ``"output"`` for encoders (the coded stream
    #: ships out afterwards), ``None`` for sessions with no coded side
    #: (analysis) — those cannot carry a pipe.
    delivery_point: str | None = None

    def __init__(self, name: str, rate_hz: float | None = None) -> None:
        self.name = name
        self.segments: list[SegmentResult] = []
        self.segments_computed = 0
        self.segments_from_cache = 0
        #: Contracted output rate in frames/s; ``None`` means best-effort
        #: (no release gating, no deadlines).  A scenario's ``rates_hz``
        #: (:class:`repro.runtime.scenarios.Scenario`) fills this in.
        self.rate_hz = rate_hz
        #: Virtual-time log, one :class:`SegmentTiming` per finished segment.
        self.timings: list[SegmentTiming] = []
        #: Optional lossy transport (:meth:`attach_delivery`).
        self.delivery = None
        #: One :class:`repro.net.DeliveredSegment` per transported segment.
        self.delivery_log: list = []
        #: Index of the next input segment :meth:`step` draws.
        self._cursor = 0
        # Running totals behind ``frames_done``, ``total_bits`` and
        # ``deadline_misses``: the schedulers read them every step, so
        # they must not re-sum the logs.  ``step()`` and
        # ``record_timing()`` are their only writers.
        self._frames_done = 0
        self._total_bits = 0
        self._deadline_misses = 0

    # -- subclass surface --------------------------------------------------

    def _input_count(self) -> int:
        """How many segments the input holds."""
        raise NotImplementedError

    def _input(self, k: int):
        """The ``k``-th segment's input (``0 <= k < _input_count()``)."""
        raise NotImplementedError

    def _input_frames(self, k: int) -> int | None:
        """Frames the ``k``-th input yields; ``None`` when unknown until
        it is processed."""
        return None

    def _payload(self, batch) -> bytes:
        """Bytes identifying ``batch`` for the cache key."""
        raise NotImplementedError

    def _fingerprint(self) -> str:
        """Configuration half of the cache key."""
        raise NotImplementedError

    def _process(self, batch, clean) -> SegmentResult:
        """Do the real work for one segment.

        ``clean`` is the segment's input as the session holds it;
        ``batch`` is what arrived, which differs only when the input
        crossed a lossy channel (:attr:`delivery_point` ``"input"``).
        """
        raise NotImplementedError

    def _assess_delivery(
        self, delivered, sent: bytes, result: SegmentResult
    ) -> None:
        """Fill a damaged delivery record's quality fields (concealed
        frames, PSNR); ``sent`` is the clean coded bytes that crossed the
        channel.  Subclasses with decodable streams override."""

    # -- driver surface ----------------------------------------------------

    @property
    def finished(self) -> bool:
        return self._cursor >= self._input_count()

    def attach_delivery(self, pipe) -> "MediaSession":
        """Route this session's coded segments through a lossy transport.

        ``pipe`` is a :class:`repro.net.DeliveryPipe`; segments cross it
        at the session's :attr:`delivery_point`.  Raises for sessions
        with no coded side.
        """
        if self.delivery_point is None:
            raise ValueError(
                f"session kind {self.kind!r} has no coded stream to "
                f"deliver (delivery_point is None)"
            )
        self.delivery = pipe
        return self

    def step(self, cache: SegmentCache | None = None) -> SegmentResult | None:
        """Advance by one segment; returns ``None`` once drained."""
        release = self.next_release() if self.delivery is not None else 0.0
        index = self._cursor
        if index >= self._input_count():
            return None
        clean = self._input(index)
        self._cursor = index + 1
        batch = clean
        delivered = None
        if self.delivery is not None and self.delivery_point == "input":
            delivered = self.delivery.transport(clean, release)
            batch = delivered.data
        result = None
        key = None
        # A damaged input segment is concealed with session-local context
        # (stream geometry peeked from the clean header), so its result is
        # not a pure function of the damaged bytes — bypass the shared
        # cache for it.  Intact segments stay cacheable as ever.
        cacheable = cache is not None and (
            delivered is None or delivered.intact
        )
        if cacheable:
            key = segment_key(self.kind, self._fingerprint(), self._payload(batch))
            result = cache.get(key)
        if result is None:
            result = self._process(batch, clean)
            self.segments_computed += 1
            if cacheable:
                cache.put(key, result)
        else:
            self.segments_from_cache += 1
            cache.credit(result.stage_ops)
        self.segments.append(result)
        self._frames_done += result.frames
        self._total_bits += result.bits
        sent = clean
        if self.delivery is not None and self.delivery_point == "output":
            sent = result.data
            delivered = self.delivery.transport(sent, release)
        if delivered is not None:
            if not delivered.intact:
                self._assess_delivery(delivered, sent, result)
            self.delivery_log.append(delivered)
        return result

    def delivery_summary(self) -> dict | None:
        """Aggregate transport scorecard, or ``None`` without a pipe."""
        if self.delivery is None:
            return None
        log = self.delivery_log
        sent = sum(d.packets_sent for d in log)
        lost = sum(d.packets_lost for d in log)
        psnrs = [d.psnr_db for d in log if d.psnr_db is not None]
        return {
            "channel": self.delivery.describe(),
            "point": self.delivery_point,
            "segments": len(log),
            "segments_intact": sum(1 for d in log if d.intact),
            "packets_sent": sent,
            "packets_lost": lost,
            "packets_late": sum(d.packets_late for d in log),
            "packets_duplicate": sum(d.packets_duplicate for d in log),
            "packets_recovered": sum(d.packets_recovered for d in log),
            "loss_pct": 100.0 * lost / sent if sent else 0.0,
            "bytes_on_wire": sum(d.bytes_on_wire for d in log),
            "concealed_frames": sum(d.concealed_frames for d in log),
            "psnr_under_loss_db": (
                sum(psnrs) / len(psnrs) if psnrs else None
            ),
            "virtual_cost_s": sum(d.virtual_cost_s for d in log),
        }

    def run_to_completion(self, cache: SegmentCache | None = None) -> "MediaSession":
        while self.step(cache) is not None:
            pass
        return self

    # -- virtual-time hooks ------------------------------------------------

    def expected_segment_frames(self) -> int:
        """Best estimate of the next segment's frame count (for release and
        deadline derivation before the segment has actually run): the
        next input's own count, else the last segment's, else nominal."""
        index = self._cursor
        if index < self._input_count():
            frames = self._input_frames(index)
            if frames is not None:
                return frames
        if self.segments:
            return max(1, self.segments[-1].frames)
        return self.nominal_segment_frames

    def next_release(self) -> float:
        """When the next segment's input finishes arriving (0 if unrated)."""
        if not self.rate_hz or self.rate_hz <= 0:
            return 0.0
        return (self.frames_done + self.expected_segment_frames()) / self.rate_hz

    def next_deadline(self) -> float:
        """Deadline of the next segment: arrival plus one segment-period."""
        if not self.rate_hz or self.rate_hz <= 0:
            return math.inf
        step = self.expected_segment_frames()
        return (self.frames_done + 2 * step) / self.rate_hz

    def record_timing(
        self, start: float, finish: float, from_cache: bool = False
    ) -> SegmentTiming:
        """Log the just-appended segment's virtual-time window."""
        if not self.segments:
            raise ValueError("no segment to time; call step() first")
        seg = self.segments[-1]
        if self.rate_hz and self.rate_hz > 0:
            arrival = self.frames_done / self.rate_hz
            deadline = arrival + seg.frames / self.rate_hz
        else:
            arrival, deadline = start, math.inf
        timing = SegmentTiming(
            index=len(self.segments) - 1,
            frames=seg.frames,
            start=start,
            finish=finish,
            arrival=arrival,
            deadline=deadline,
            from_cache=from_cache,
        )
        self.timings.append(timing)
        self._deadline_misses += timing.missed
        return timing

    def estimated_stage_ops(self) -> dict[str, float] | None:
        """Declared per-segment operation estimate for admission control.

        Coarse, analytic, and available *before* the session has run —
        subclasses return a stage-keyed profile (same keys as the
        measured ``stage_ops``) whose total lands within roughly 2x of
        the measured numbers, so platform-aware admission can map the
        estimate onto accelerators.  ``None`` exempts the session from
        admission.
        """
        return None

    def estimated_segment_ops(self) -> float | None:
        """Scalar form of :meth:`estimated_stage_ops` (total ops)."""
        profile = self.estimated_stage_ops()
        if not profile:
            return None
        return sum(profile.values())

    @property
    def deadline_misses(self) -> int:
        return self._deadline_misses

    # -- accounting --------------------------------------------------------

    @property
    def frames_done(self) -> int:
        return self._frames_done

    @property
    def total_bits(self) -> int:
        return self._total_bits

    def output_bytes(self) -> bytes:
        """Concatenated segment bitstreams (self-delimiting per segment)."""
        return b"".join(s.data for s in self.segments)

    def stage_totals(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for s in self.segments:
            merge_ops(totals, s.stage_ops)
        return totals

    def ops_per_frame(self) -> dict[str, float]:
        n = self.frames_done
        if not n:
            return {}
        return {cls: v / n for cls, v in self.stage_totals().items()}


class _FrameFedSession(MediaSession):
    """Shared plumbing for sessions that consume a list of luma frames."""

    def __init__(self, name: str, frames, segment_frames: int) -> None:
        super().__init__(name)
        if segment_frames < 1:
            raise ValueError("segment must cover at least one frame")
        self.frames = list(frames)
        self.segment_frames = segment_frames
        self.nominal_segment_frames = segment_frames

    def _input_count(self) -> int:
        return -(-len(self.frames) // self.segment_frames)

    def _input(self, k: int) -> list:
        start = k * self.segment_frames
        return self.frames[start:start + self.segment_frames]

    def _input_frames(self, k: int) -> int:
        step = self.segment_frames
        return min(step, len(self.frames) - k * step)

    def _payload(self, batch) -> bytes:
        return frames_payload(batch)

    def _pixels_per_frame(self) -> float:
        return float(np.asarray(self.frames[0]).size) if self.frames else 0.0


class VideoEncodeSession(_FrameFedSession):
    """Encode a frame feed GOP-by-GOP through the Figure-1 encoder.

    Each segment is a standalone bitstream opening with an I-frame, so the
    concatenation equals a sequential encode with per-GOP headers, and two
    sessions fed identical frames + config produce identical segments —
    the property the shared :class:`SegmentCache` exploits.  Closed-loop
    rate control (``target_bitrate``) carries quantizer state *within* a
    segment only, preserving segment purity.
    """

    kind = "video_encode"
    delivery_point = "output"

    def __init__(
        self,
        name: str,
        frames,
        config: EncoderConfig | None = None,
        segment_frames: int | None = None,
    ) -> None:
        self.config = config or EncoderConfig()
        if segment_frames is None:
            segment_frames = self.config.gop_size
        super().__init__(name, frames, segment_frames)

    #: Declared encode cost per pixel by motion-search algorithm, within
    #: ~2x of the measured stage_ops totals (full search scales with the
    #: window; the fast searches visit a near-constant candidate count).
    _OPS_PER_PIXEL = {"three_step": 70.0, "diamond": 50.0, "none": 30.0}

    def estimated_stage_ops(self) -> dict[str, float] | None:
        px = self._pixels_per_frame() * self.expected_segment_frames()
        if self.config.search_algorithm == "full":
            window = (2 * self.config.search_range + 1) ** 2
            per_px = 0.9 * window + 12.0
        else:
            per_px = self._OPS_PER_PIXEL.get(self.config.search_algorithm, 70.0)
        # The non-ME tail (~12 ops/px) splits across transform, quantize
        # and entropy stages; everything above it is motion search.
        return {
            "motion_estimation": max(per_px - 12.0, 0.0) * px,
            "dct": 8.0 * px,
            "quantize": 2.0 * px,
            "vlc": 2.0 * px,
        }

    def _fingerprint(self) -> str:
        return config_fingerprint(self.config)

    def _process(self, batch, clean) -> SegmentResult:
        encoded = VideoEncoder(self.config).encode(batch)
        ops: dict[str, float] = {}
        me = 0
        for fs in encoded.frame_stats:
            me += fs.me_evaluations
            merge_ops(ops, fs.stage_ops)
        return SegmentResult(
            data=encoded.data,
            frames=len(batch),
            bits=encoded.total_bits,
            stage_ops=ops,
            me_evaluations=me,
        )

    def _assess_delivery(
        self, delivered, sent: bytes, result: SegmentResult
    ) -> None:
        """Score what a receiver of the uplink would reconstruct."""
        score_video_delivery(delivered, sent)


class VideoDecodeSession(MediaSession):
    """Decode a list of standalone segments (tuner/playback workload).

    With a delivery pipe attached the coded segments cross the lossy
    channel *before* decode; damaged arrivals are decoded with
    concealment (previous-frame copy, grey for total loss), so the
    session degrades instead of raising — the R8 behaviour the lossy
    scenarios exercise.  :class:`TranscodeSession` shares this whole
    coded-input path.
    """

    kind = "video_decode"
    delivery_point = "input"

    #: Declared ops per coded input bit, by stage: ~25 across the decode
    #: chain.  Key order is the admission report's summation order.
    _OPS_PER_CODED_BIT = {
        "vld": 6.0,
        "inverse_dct": 10.0,
        "motion_compensation": 9.0,
    }

    def __init__(self, name: str, coded_segments: list[bytes]) -> None:
        super().__init__(name)
        self.coded_segments = list(coded_segments)

    def _input_count(self) -> int:
        return len(self.coded_segments)

    def _input(self, k: int) -> bytes:
        return self.coded_segments[k]

    def _input_frames(self, k: int) -> int | None:
        return coded_segment_frames(self.coded_segments[k])

    def _payload(self, batch) -> bytes:
        return batch

    def estimated_stage_ops(self) -> dict[str, float] | None:
        if not self.coded_segments:
            return None
        mean_bits = 8.0 * sum(
            len(s) for s in self.coded_segments
        ) / len(self.coded_segments)
        return {
            stage: per_bit * mean_bits
            for stage, per_bit in self._OPS_PER_CODED_BIT.items()
        }

    def _fingerprint(self) -> str:
        return "VideoDecoder()"

    def _decode(self, batch: bytes, clean: bytes):
        """Decode one arrived segment — concealing damage when it crossed
        a channel — and its summed per-frame stage ops."""
        if self.delivery is None:
            decoded = VideoDecoder().decode(batch)
        else:
            decoded = decode_with_concealment(batch, clean)
        ops: dict[str, float] = {}
        for frame_ops in decoded.stage_ops:
            merge_ops(ops, frame_ops)
        return decoded, ops

    def _process(self, batch, clean) -> SegmentResult:
        decoded, ops = self._decode(batch, clean)
        return SegmentResult(
            data=b"",
            frames=len(decoded.frames),
            bits=len(batch) * 8,
            stage_ops=ops,
            extras={"luma": [f.y for f in decoded.frames]},
        )

    def _assess_delivery(
        self, delivered, sent: bytes, result: SegmentResult
    ) -> None:
        # Damaged segments are rare and never cached, so re-deriving the
        # concealed planes here is cheap, and works for transcode results,
        # which carry no planes.
        score_video_delivery(delivered, sent)


class AudioEncodeSession(MediaSession):
    """Encode PCM through the Figure-2 subband encoder, a batch at a time."""

    kind = "audio_encode"
    delivery_point = "output"

    def __init__(
        self,
        name: str,
        pcm: np.ndarray,
        config: AudioEncoderConfig | None = None,
        segment_audio_frames: int = 8,
    ) -> None:
        super().__init__(name)
        if segment_audio_frames < 1:
            raise ValueError("segment must cover at least one audio frame")
        self.config = config or AudioEncoderConfig()
        self.pcm = np.asarray(pcm, dtype=np.float64)
        self.segment_samples = (
            segment_audio_frames * self.config.samples_per_frame
        )
        self.nominal_segment_frames = segment_audio_frames

    def _input_count(self) -> int:
        return -(-self.pcm.size // self.segment_samples)

    def _input(self, k: int) -> np.ndarray:
        # Sliced on demand: a view kept per segment would be copied on
        # its own by every deepcopy of the session.
        start = k * self.segment_samples
        return self.pcm[start:start + self.segment_samples]

    def _input_frames(self, k: int) -> int:
        # PCM frames only; the encoder also codes the filterbank flush.
        samples = min(
            self.segment_samples, self.pcm.size - k * self.segment_samples
        )
        return max(1, math.ceil(samples / self.config.samples_per_frame))

    def estimated_stage_ops(self) -> dict[str, float] | None:
        samples = self._input(self._cursor).size or self.segment_samples
        # ~200 ops per sample: polyphase filterbank plus masking model.
        return {
            "filterbank": 120.0 * samples,
            "psychoacoustic": 80.0 * samples,
        }

    def _payload(self, batch) -> bytes:
        return np.ascontiguousarray(batch).tobytes()

    def _fingerprint(self) -> str:
        return config_fingerprint(self.config)

    def _process(self, batch, clean) -> SegmentResult:
        encoded = AudioEncoder(self.config).encode(batch)
        ops: dict[str, float] = {}
        for fs in encoded.frame_stats:
            merge_ops(ops, fs.stage_ops)
        return SegmentResult(
            data=encoded.data,
            frames=len(encoded.frame_stats),
            bits=encoded.total_bits,
            stage_ops=ops,
        )

    def _assess_delivery(
        self, delivered, sent: bytes, result: SegmentResult
    ) -> None:
        """Score the received audio: frame repeat/mute, then PCM PSNR."""
        reference = AudioDecoder().decode(sent)
        try:
            received = AudioDecoder().decode(delivered.data, conceal=True)
            pcm = received.pcm
            delivered.concealed_frames = received.concealed
        except (EOFError, ValueError):
            # Even the stream header was lost: the whole segment mutes.
            pcm = np.zeros_like(reference.pcm)
            delivered.concealed_frames = result.frames
        if pcm.size < reference.pcm.size:
            pcm = np.concatenate(
                [pcm, np.zeros(reference.pcm.size - pcm.size)]
            )
        delivered.psnr_db = _capped_psnr(
            reference.pcm, pcm[:reference.pcm.size], peak=2.0
        )


class TranscodeSession(VideoDecodeSession):
    """Decode coded segments and re-encode them at a different operating
    point — the farm workload of the paper's Section 3 transcoding
    discussion (each generation is lossy; see experiment C6 in DESIGN.md).
    """

    kind = "transcode"

    #: The decode chain plus a fast-search re-encode of the recovered
    #: frames: ~60 ops per coded bit.
    _OPS_PER_CODED_BIT = {
        **VideoDecodeSession._OPS_PER_CODED_BIT,
        "motion_estimation": 20.0,
        "dct": 10.0,
        "quantize": 2.5,
        "vlc": 2.5,
    }

    def __init__(
        self,
        name: str,
        coded_segments: list[bytes],
        out_config: EncoderConfig | None = None,
    ) -> None:
        super().__init__(name, coded_segments)
        self.out_config = out_config or EncoderConfig(quality=50)

    def _fingerprint(self) -> str:
        return config_fingerprint(self.out_config)

    def _process(self, batch, clean) -> SegmentResult:
        decoded, ops = self._decode(batch, clean)
        luma = [f.y for f in decoded.frames]
        encoded = VideoEncoder(self.out_config).encode(luma)
        me = 0
        for fs in encoded.frame_stats:
            me += fs.me_evaluations
            merge_ops(ops, fs.stage_ops)
        return SegmentResult(
            data=encoded.data,
            frames=len(luma),
            bits=encoded.total_bits,
            stage_ops=ops,
            me_evaluations=me,
        )


class AnalysisSession(_FrameFedSession):
    """Content analysis over a frame feed (Section 5: commercial cues).

    Runs the black-frame and shot-boundary detectors per segment and
    reports per-pixel feature cost, the live-analysis duty a DVR carries
    alongside its codecs.
    """

    kind = "analysis"

    def __init__(
        self,
        name: str,
        frames,
        segment_frames: int = 8,
        black_threshold: float = 35.0,
    ) -> None:
        super().__init__(name, frames, segment_frames)
        self.black = BlackFrameDetector(luma_threshold=black_threshold)
        self.shots = ShotBoundaryDetector()

    def estimated_stage_ops(self) -> dict[str, float] | None:
        frames = self.expected_segment_frames()
        px = self._pixels_per_frame() * frames
        return {"alu": 4.2 * px + 64.0 * frames, "mem": 2.0 * px}

    def _fingerprint(self) -> str:
        return f"analysis(black={self.black.luma_threshold!r})"

    def _process(self, batch, clean) -> SegmentResult:
        verdicts = self.black.detect(batch)
        cuts = self.shots.boundaries(batch)
        px = float(sum(np.asarray(f).size for f in batch))
        # Feature extraction is a few passes over every pixel (means,
        # histogram, frame differencing) — alu-dominated, memory-heavy.
        ops = {"alu": 4.0 * px, "mem": 2.0 * px, "control": 64.0 * len(batch)}
        return SegmentResult(
            data=b"",
            frames=len(batch),
            bits=0,
            stage_ops=ops,
            extras={"black": verdicts, "cuts": cuts},
        )
