"""Per-layer wrappers and metrics for the traced benchmark run.

Each layer is a module of ``repro``; each wrapper replaces one public
callable at the name its caller binds (a module global the caller reads
at call time, a class attribute, or a registry entry), so nothing under
``src/`` changes.  Wrappers are installed only for the traced run and
removed afterwards.

Shares are self time (span time minus the time child spans cover) over
the wall time of the traced ``StreamEngine.run()`` calls.  Every span
inside a run belongs to exactly one layer, so the self-time shares
partition the run: ``runtime.engine.overhead_share`` (run time outside
``MediaSession.step``, scheduler calls included) plus every other share
except ``runtime.schedulers.busy_share`` sums to 1.  Counts are per
engine run.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager

from repro.audio import encoder as audio_encoder
from repro.audio.filterbank import PolyphaseFilterbank
from repro.audio.psychoacoustic import PsychoacousticModel
from repro.net import delivery
from repro.net.channel import Channel
from repro.runtime import scenarios, session
from repro.runtime.cache import SegmentCache
from repro.runtime.engine import StreamEngine
from repro.video import decoder as video_decoder
from repro.video import encoder as video_encoder
from repro.video import motion

from tracing import SpanRecorder

ENGINE = "runtime.engine"
SETUP = "setup"

#: Feed generators as ``runtime.scenarios`` binds them.
GENERATORS = (
    "qcif_like", "moving_blocks_sequence", "gradient_pan_sequence",
    "static_sequence", "music_like", "speech_like",
)

#: (metric, unit, better) for every per-layer metric, in print order.
PER_LAYER = (
    ("video.motion.calls", "count", "lower"),
    ("video.motion.sad_evals", "count", "lower"),
    ("video.motion.busy_share", "share", "lower"),
    ("video.motion.ns_per_sad", "ns", "lower"),
    ("video.motion.compensate_share", "share", "lower"),
    ("video.blockpipe.encode_share", "share", "lower"),
    ("video.blockpipe.decode_share", "share", "lower"),
    ("video.blockpipe.decode_calls", "count", "lower"),
    ("video.encoder.self_share", "share", "lower"),
    ("video.decoder.self_share", "share", "lower"),
    ("audio.filterbank.busy_share", "share", "lower"),
    ("audio.psychoacoustic.busy_share", "share", "lower"),
    ("audio.bitalloc.busy_share", "share", "lower"),
    ("audio.subbandpipe.pack_share", "share", "lower"),
    ("audio.encoder.self_share", "share", "lower"),
    ("net.delivery.busy_share", "share", "lower"),
    ("net.packetizer.busy_share", "share", "lower"),
    ("net.fec.busy_share", "share", "lower"),
    ("net.channel.busy_share", "share", "lower"),
    ("net.delivery.packets_sent", "count", "lower"),
    ("net.delivery.loss_share", "share", "lower"),
    ("net.delivery.fec_recovery_ratio", "ratio", "higher"),
    ("net.delivery.intact_share", "share", "higher"),
    ("runtime.engine.steps", "count", "higher"),
    ("runtime.engine.overhead_share", "share", "lower"),
    ("runtime.engine.overhead_us_per_step", "us", "lower"),
    ("runtime.schedulers.select_calls", "count", "lower"),
    ("runtime.schedulers.busy_share", "share", "lower"),
    ("runtime.schedulers.virtual_wait_ms_p90", "ms", "lower"),
    ("runtime.cache.lookups", "count", "lower"),
    ("runtime.cache.hit_rate", "share", "higher"),
    ("runtime.cache.busy_share", "share", "lower"),
    ("runtime.cache.hit_step_us_p50", "us", "lower"),
    ("runtime.session.self_share", "share", "lower"),
    ("setup.generate_s", "s", "lower"),
    ("setup.precode_s", "s", "lower"),
    ("setup.attach_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

#: Self-time shares that together cover a traced run exactly once
#: (``runtime.schedulers.busy_share`` is part of the engine overhead).
PARTITION = (
    "video.motion.busy_share", "video.motion.compensate_share",
    "video.blockpipe.encode_share", "video.blockpipe.decode_share",
    "video.encoder.self_share", "video.decoder.self_share",
    "audio.filterbank.busy_share", "audio.psychoacoustic.busy_share",
    "audio.bitalloc.busy_share", "audio.subbandpipe.pack_share",
    "audio.encoder.self_share", "net.delivery.busy_share",
    "net.packetizer.busy_share", "net.fec.busy_share",
    "net.channel.busy_share", "runtime.engine.overhead_share",
    "runtime.cache.busy_share", "runtime.session.self_share",
)

_PACKET_FIELDS = ("packets_sent", "packets_lost", "packets_recovered")


class LayerTrace:
    """Wrappers, counters and engine-side expectations of a traced run."""

    def __init__(self) -> None:
        self.recorder = SpanRecorder()
        # Counted by the wrappers.
        self.sad_evals = 0
        self.steps = 0
        self.lookups = 0
        self.hit_segments: set[int] = set()
        self.packets = Counter()
        self.segments_delivered = 0
        self.segments_intact = 0
        # Reported by the engine, for the cross-check.
        self.expected = Counter()
        self.virtual_waits_s: list[float] = []

    # -- wrappers ---------------------------------------------------------

    @contextmanager
    def installed(self):
        patch = self.recorder.patch
        try:
            for name in list(motion.SEARCH_ALGORITHMS):
                patch(motion.SEARCH_ALGORITHMS, name, "video.motion",
                      after=self._count_search)
            for module in (video_encoder, video_decoder):
                patch(module, "motion_compensate", "video.motion.compensate")
            for name in ("plane_to_vectors", "write_plane_vectors",
                         "levels_to_plane"):
                patch(video_encoder, name, "video.blockpipe.encode")
            for name in ("read_plane_vectors", "vectors_to_plane"):
                patch(video_decoder, name, "video.blockpipe.decode")
            patch(video_encoder.VideoEncoder, "encode", "video.encoder")
            patch(video_decoder.VideoDecoder, "decode", "video.decoder")
            patch(audio_encoder.AudioEncoder, "encode", "audio.encoder")
            patch(PolyphaseFilterbank, "analyze", "audio.filterbank")
            patch(PsychoacousticModel, "analyze_batch",
                  "audio.psychoacoustic")
            patch(audio_encoder, "allocate_bits_batch", "audio.bitalloc")
            patch(audio_encoder, "pack_frames_batch",
                  "audio.subbandpipe.pack")
            patch(delivery.DeliveryPipe, "transport", "net.delivery",
                  after=self._count_delivery)
            for name in ("packetize", "packets_to_wire", "reassemble"):
                patch(delivery, name, "net.packetizer")
            for name in ("add_parity", "recover_packets"):
                patch(delivery, name, "net.fec")
            patch(Channel, "transmit", "net.channel")
            patch(StreamEngine, "run", ENGINE)
            patch(session.MediaSession, "step", "runtime.session",
                  after=self._count_step, opens_segment=True)
            patch(SegmentCache, "get", "runtime.cache",
                  after=self._count_lookup)
            patch(SegmentCache, "put", "runtime.cache")
            for name in ("segment_key", "frames_payload"):
                patch(session, name, "runtime.cache")
            patch(scenarios.Scenario, "sessions", SETUP)
            for name in GENERATORS:
                patch(scenarios, name, "setup.generate")
            patch(scenarios, "precoded_segments", "setup.precode")
            patch(scenarios, "attach_delivery", "setup.attach")
            yield self
        finally:
            self.recorder.restore()

    def wrap_scheduler(self, scheduler) -> None:
        """Wrap one engine's scheduler instance (it is built per run)."""
        cls = type(scheduler).__name__
        for name in ("select", "segment_cost"):
            setattr(scheduler, name, self.recorder.wrap(
                "runtime.schedulers", f"{cls}.{name}", getattr(scheduler, name)
            ))

    def _count_search(self, span, args, result) -> None:
        if span.segment >= 0:  # in a step, not in setup's pre-coding
            self.sad_evals += result[1]

    def _count_step(self, span, args, result) -> None:
        if result is not None:
            self.steps += 1

    def _count_lookup(self, span, args, result) -> None:
        self.lookups += 1
        if result is not None:
            self.hit_segments.add(span.segment)

    def _count_delivery(self, span, args, result) -> None:
        for name in _PACKET_FIELDS:
            self.packets[name] += getattr(result, name)
        self.segments_delivered += 1
        self.segments_intact += result.intact

    # -- engine side --------------------------------------------------------

    def expect(self, report, sessions) -> None:
        """Accumulate what the engine itself reports for one traced run."""
        exp = self.expected
        exp["steps"] += report.steps
        exp["cache_hits"] += report.cache.hits
        exp["cache_lookups"] += report.cache.lookups
        for name in _PACKET_FIELDS:
            exp[name] += (report.delivery or {}).get(name, 0)
        for s in sessions:
            for seg, timing in zip(s.segments, s.timings):
                if not timing.from_cache:
                    exp["me_evaluations"] += seg.me_evaluations
                if s.rate_hz:
                    self.virtual_waits_s.append(
                        max(0.0, timing.start - timing.arrival)
                    )

    def cross_check(self) -> list[str]:
        """Disagreements between the wrappers and the engine's counters.

        A refactor that rebinds a wrapped name makes the wrapper count
        zero; this is where that shows."""
        exp = self.expected
        pairs = [
            ("MediaSession.step calls", self.steps, exp["steps"]),
            ("SegmentCache.get hits", len(self.hit_segments),
             exp["cache_hits"]),
            ("SegmentCache.get lookups", self.lookups, exp["cache_lookups"]),
            ("motion-search SAD evaluations", self.sad_evals,
             exp["me_evaluations"]),
        ] + [
            (f"DeliveryPipe.transport {name}", self.packets[name], exp[name])
            for name in _PACKET_FIELDS
        ]
        return [
            f"{what}: wrappers counted {got}, engine reports {want}"
            for what, got, want in pairs
            if got != want
        ]

    # -- metrics ------------------------------------------------------------

    def metrics(self, untraced_run_s: list[float]) -> tuple[dict, list]:
        """Per-layer metrics ``{name: (value, unit)}`` and a per-callable
        table ``[(name, calls per run, self share)]`` of the traced runs."""
        spans = self.recorder.spans
        roots: list[int] = []
        layer_self = defaultdict(float)
        name_self = defaultdict(float)
        name_calls = Counter()
        name_layer: dict[str, str] = {}
        setup_busy = defaultdict(float)
        run_walls: list[float] = []
        setups = 0
        step_wall = 0.0
        for i, s in enumerate(spans):
            roots.append(i if s.parent < 0 else roots[s.parent])
            top = spans[roots[i]].layer
            if top == ENGINE:
                layer_self[s.layer] += s.self_s
                name_self[s.name] += s.self_s
                name_calls[s.name] += 1
                name_layer[s.name] = s.layer
                if s.parent < 0:
                    run_walls.append(s.duration)
                elif s.layer == "runtime.session":
                    step_wall += s.duration
            elif top == SETUP:
                if s.parent < 0:
                    setups += 1
                elif spans[s.parent].layer != s.layer:
                    setup_busy[s.layer] += s.duration
        runs = len(run_walls)
        wall = sum(run_walls)
        if not runs or wall <= 0:
            raise RuntimeError("the traced run recorded no StreamEngine.run")

        def share(*layers):
            return sum(layer_self[x] for x in layers) / wall

        def per_run(count):
            return count / runs

        def calls(layer):
            return sum(
                n for name, n in name_calls.items()
                if name_layer[name] == layer
            )

        motion_calls = calls("video.motion")
        select_calls = sum(
            n for name, n in name_calls.items() if name.endswith(".select")
        )
        overhead = wall - step_wall
        hit_steps_us = [
            spans[i].duration * 1e6 for i in self.hit_segments
        ]
        sent = self.packets["packets_sent"]
        lost = self.packets["packets_lost"]
        values = {
            "video.motion.calls": per_run(motion_calls),
            "video.motion.sad_evals": per_run(self.sad_evals),
            "video.motion.busy_share": share("video.motion"),
            "video.motion.ns_per_sad": (
                layer_self["video.motion"] * 1e9 / self.sad_evals
                if self.sad_evals else 0.0
            ),
            "video.motion.compensate_share": share("video.motion.compensate"),
            "video.blockpipe.encode_share": share("video.blockpipe.encode"),
            "video.blockpipe.decode_share": share("video.blockpipe.decode"),
            "video.blockpipe.decode_calls": per_run(
                calls("video.blockpipe.decode")
            ),
            "video.encoder.self_share": share("video.encoder"),
            "video.decoder.self_share": share("video.decoder"),
            "audio.filterbank.busy_share": share("audio.filterbank"),
            "audio.psychoacoustic.busy_share": share("audio.psychoacoustic"),
            "audio.bitalloc.busy_share": share("audio.bitalloc"),
            "audio.subbandpipe.pack_share": share("audio.subbandpipe.pack"),
            "audio.encoder.self_share": share("audio.encoder"),
            "net.delivery.busy_share": share("net.delivery"),
            "net.packetizer.busy_share": share("net.packetizer"),
            "net.fec.busy_share": share("net.fec"),
            "net.channel.busy_share": share("net.channel"),
            "net.delivery.packets_sent": per_run(sent),
            "net.delivery.loss_share": lost / sent if sent else 0.0,
            "net.delivery.fec_recovery_ratio": (
                self.packets["packets_recovered"] / lost if lost else 0.0
            ),
            "net.delivery.intact_share": (
                self.segments_intact / self.segments_delivered
                if self.segments_delivered else 0.0
            ),
            "runtime.engine.steps": per_run(self.steps),
            "runtime.engine.overhead_share": overhead / wall,
            "runtime.engine.overhead_us_per_step": (
                overhead * 1e6 / self.steps if self.steps else 0.0
            ),
            "runtime.schedulers.select_calls": per_run(select_calls),
            "runtime.schedulers.busy_share": share("runtime.schedulers"),
            "runtime.schedulers.virtual_wait_ms_p90": (
                _p90(self.virtual_waits_s) * 1e3
            ),
            "runtime.cache.lookups": per_run(self.lookups),
            "runtime.cache.hit_rate": (
                len(self.hit_segments) / self.lookups if self.lookups else 0.0
            ),
            "runtime.cache.busy_share": share("runtime.cache"),
            "runtime.cache.hit_step_us_p50": (
                statistics.median(hit_steps_us) if hit_steps_us else 0.0
            ),
            "runtime.session.self_share": share("runtime.session"),
            "setup.generate_s": setup_busy["setup.generate"] / max(setups, 1),
            "setup.precode_s": setup_busy["setup.precode"] / max(setups, 1),
            "setup.attach_s": setup_busy["setup.attach"] / max(setups, 1),
            "trace.overhead_ratio": (
                statistics.median(run_walls) / statistics.median(untraced_run_s)
            ),
        }
        table = sorted(
            (
                (name, name_calls[name] / runs, name_self[name] / wall)
                for name in name_calls
            ),
            key=lambda row: -row[2],
        )
        units = {name: unit for name, unit, _ in PER_LAYER}
        return {k: (values[k], units[k]) for k, _, _ in PER_LAYER}, table


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[-1]
