"""ScenarioRegistry: the device examples as registered streaming workloads.

Each registered scenario is a parameterized factory that builds the list
of :mod:`~repro.runtime.session` objects one device runs concurrently —
the ``examples/*.py`` scripts' workloads (quickstart, videoconferencing,
portable player, set-top box, DVR) plus three streaming-era devices
(surveillance hub, video wall, live transcoding farm).  All of them run
from one entry point::

    python -m repro.runtime.run --list
    python -m repro.runtime.run surveillance --set cameras=8

Adding a scenario is one decorated function returning sessions — see
``docs/scenarios.md`` for the 21-line recipe.  Scenarios that correspond
to a mappable device name their :class:`~repro.core.DeviceScenario` via
``device=...`` so the CLI's ``--map`` flag can bind the device's task
graphs onto its SoC preset and report sustainable stream counts, and
declare their runtime contract at registration: the default
``scheduler=`` and the per-kind output rates ``rates_hz=``.

Everything is seeded and synthetic (no media files), so two builds with
the same parameters produce bit-identical workloads — the property the
determinism tests lean on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..audio.encoder import AudioEncoderConfig
from ..net.delivery import attach_delivery
from ..video.encoder import EncoderConfig, VideoEncoder
from ..workloads.audio_gen import music_like, speech_like
from ..workloads.video_gen import (
    gradient_pan_sequence,
    moving_blocks_sequence,
    static_sequence,
)
from .session import (
    AnalysisSession,
    AudioEncodeSession,
    MediaSession,
    TranscodeSession,
    VideoDecodeSession,
    VideoEncodeSession,
)


@dataclass(frozen=True)
class Scenario:
    """A registered, parameterized streaming workload."""

    name: str
    description: str
    build: Callable[..., list[MediaSession]]
    defaults: dict = field(default_factory=dict)
    #: Key into ``ALL_SCENARIOS``/``EXTENDED_SCENARIOS`` for ``--map``.
    device: str | None = None
    #: The :mod:`~repro.runtime.schedulers` policy the device ships with.
    default_scheduler: str = "roundrobin"
    #: Output rate (frames/s) each session *kind* must sustain: the
    #: deadlines the virtual-time engine enforces and the admission test
    #: checks.  Kinds absent from the map run best-effort (no deadlines),
    #: the paper's Section 8 split between real-time and background
    #: computations.  Rates follow each device's product spec in
    #: :mod:`repro.core.scenarios` (15 Hz conferencing video, 30 Hz
    #: broadcast, ~40 Hz audio frame rates); live-analysis duties run at
    #: preview rate (30 Hz) even where recording runs slower, which is
    #: what makes deadline behaviour under mixed rates interesting
    #: (experiment R4 in DESIGN.md).
    rates_hz: dict = field(default_factory=dict)

    def sessions(self, **overrides) -> list[MediaSession]:
        params = dict(self.defaults)
        unknown = set(overrides) - set(params)
        if unknown:
            raise ValueError(
                f"scenario {self.name!r} has no parameters {sorted(unknown)}; "
                f"available: {sorted(params)}"
            )
        params.update(overrides)
        sessions = self.build(**params)
        for session in sessions:
            if session.rate_hz is None:
                session.rate_hz = self.rates_hz.get(session.kind)
        return sessions


class ScenarioRegistry:
    """Name -> :class:`Scenario`; the runtime CLI's catalogue."""

    def __init__(self) -> None:
        self._scenarios: dict[str, Scenario] = {}

    def add(self, scenario: Scenario) -> None:
        if scenario.name in self._scenarios:
            raise ValueError(f"scenario {scenario.name!r} already registered")
        self._scenarios[scenario.name] = scenario

    def register(
        self,
        name: str,
        description: str,
        device: str | None = None,
        scheduler: str = "roundrobin",
        rates_hz: dict | None = None,
        **defaults,
    ):
        """Decorator form: the function's kwargs become the parameters;
        ``scheduler`` and ``rates_hz`` are the runtime contract."""

        def wrap(fn: Callable[..., list[MediaSession]]):
            self.add(
                Scenario(
                    name=name,
                    description=description,
                    build=fn,
                    defaults=defaults,
                    device=device,
                    default_scheduler=scheduler,
                    rates_hz=dict(rates_hz or {}),
                )
            )
            return fn

        return wrap

    def get(self, name: str) -> Scenario:
        try:
            return self._scenarios[name]
        except KeyError:
            raise KeyError(
                f"unknown scenario {name!r}; registered: {self.names()}"
            ) from None

    def names(self) -> list[str]:
        return sorted(self._scenarios)

    def __iter__(self):
        return iter(self._scenarios.values())

    def __len__(self) -> int:
        return len(self._scenarios)


#: The process-wide registry the CLI and tests use.
REGISTRY = ScenarioRegistry()


def qcif_like(frames: int, seed: int, width: int = 64, height: int = 48):
    """Small integer-valued test feed (dimensions are block multiples)."""
    seq = moving_blocks_sequence(
        num_frames=frames, height=height, width=width, seed=seed
    )
    return [np.floor(f) for f in seq]


def precoded_segments(
    frames: list[np.ndarray], config: EncoderConfig, gop: int
) -> list[bytes]:
    """Encode a feed into standalone GOP segments (a 'broadcast' source)."""
    return [
        VideoEncoder(config).encode(frames[i:i + gop]).data
        for i in range(0, len(frames), gop)
    ]


@REGISTRY.register(
    "quickstart",
    "one video encode + one audio encode (examples/quickstart.py)",
    frames=16,
    seed=0,
)
def _quickstart(frames: int, seed: int) -> list[MediaSession]:
    video = qcif_like(frames, seed)
    pcm = music_like(duration=0.5, seed=seed)
    return [
        VideoEncodeSession(
            "video", video, EncoderConfig(search_algorithm="full", gop_size=8)
        ),
        AudioEncodeSession("audio", pcm, AudioEncoderConfig(bitrate=128_000)),
    ]


@REGISTRY.register(
    "videoconferencing",
    "two-party call: encode own feed, decode the peer's, code speech "
    "(examples/videoconferencing.py)",
    device="cell_phone",
    scheduler="edf",
    rates_hz={"video_encode": 15.0, "video_decode": 15.0,
              "audio_encode": 40.0},
    frames=16,
    seed=0,
)
def _videoconferencing(frames: int, seed: int) -> list[MediaSession]:
    cfg = EncoderConfig(search_algorithm="three_step", gop_size=8, quality=60)
    own = qcif_like(frames, seed)
    peer = qcif_like(frames, seed + 1)
    peer_coded = precoded_segments(peer, cfg, cfg.gop_size)
    speech = speech_like(duration=0.4, seed=seed)
    return [
        VideoEncodeSession("uplink", own, cfg),
        VideoDecodeSession("downlink", peer_coded),
        AudioEncodeSession(
            "speech", speech, AudioEncoderConfig(bitrate=64_000)
        ),
    ]


@REGISTRY.register(
    "portable_player",
    "rip two tracks into the player library (examples/portable_player.py)",
    device="audio_player",
    rates_hz={"audio_encode": 40.0},
    seed=0,
)
def _portable_player(seed: int) -> list[MediaSession]:
    cfg = AudioEncoderConfig(bitrate=96_000)
    return [
        AudioEncodeSession(
            "track_a", music_like(duration=0.5, seed=seed + 11), cfg
        ),
        AudioEncodeSession(
            "track_b", music_like(duration=0.5, seed=seed + 12), cfg
        ),
    ]


@REGISTRY.register(
    "set_top_box",
    "broadcast receiver: main picture + picture-in-picture decode "
    "(examples/set_top_box.py)",
    device="set_top_box",
    scheduler="weighted_fair",
    rates_hz={"video_decode": 30.0},
    frames=16,
    seed=0,
)
def _set_top_box(frames: int, seed: int) -> list[MediaSession]:
    cfg = EncoderConfig(gop_size=8, quality=70)
    main = precoded_segments(
        gradient_pan_sequence(num_frames=frames, height=48, width=64, seed=seed),
        cfg,
        cfg.gop_size,
    )
    pip = precoded_segments(qcif_like(frames, seed + 1), cfg, cfg.gop_size)
    return [
        VideoDecodeSession("main_picture", main),
        VideoDecodeSession("pip", pip),
    ]


@REGISTRY.register(
    "dvr",
    "record the broadcast while analysing it for commercials "
    "(examples/dvr_commercial_skip.py)",
    device="dvr",
    scheduler="edf",
    rates_hz={"video_encode": 30.0, "analysis": 30.0},
    frames=24,
    seed=0,
)
def _dvr(frames: int, seed: int) -> list[MediaSession]:
    feed = qcif_like(frames, seed)
    return [
        VideoEncodeSession(
            "record",
            feed,
            EncoderConfig(search_algorithm="three_step", gop_size=8, quality=60),
        ),
        # Analysis watches the same frames object — no copies, the way a
        # DVR taps its own capture buffer.
        AnalysisSession("commercials", feed, segment_frames=8),
    ]


@REGISTRY.register(
    "surveillance",
    "N cameras into one hub; co-located cameras repeat scenes, so the "
    "segment cache collapses duplicate encodes",
    device="surveillance",
    scheduler="edf",
    rates_hz={"video_encode": 15.0, "analysis": 30.0},
    cameras=6,
    unique_feeds=2,
    frames=16,
    seed=0,
)
def _surveillance(
    cameras: int, unique_feeds: int, frames: int, seed: int
) -> list[MediaSession]:
    if cameras < 1 or unique_feeds < 1:
        raise ValueError("need at least one camera and one feed")
    unique_feeds = min(unique_feeds, cameras)
    cfg = EncoderConfig(search_algorithm="full", gop_size=8, quality=55)
    # A quiet site: most cameras stare at one of a few static-ish scenes.
    feeds = [
        [np.floor(f) for f in static_sequence(
            num_frames=frames, height=48, width=64, seed=seed + i
        )]
        for i in range(unique_feeds)
    ]
    sessions: list[MediaSession] = [
        VideoEncodeSession(f"cam{i}", feeds[i % unique_feeds], cfg)
        for i in range(cameras)
    ]
    sessions.append(AnalysisSession("watch", feeds[0], segment_frames=8))
    return sessions


@REGISTRY.register(
    "video_wall",
    "one broadcast decoded onto N tiles; every tile after the first is a "
    "cache hit",
    device="video_wall",
    scheduler="weighted_fair",
    rates_hz={"video_decode": 30.0},
    tiles=6,
    frames=16,
    seed=0,
)
def _video_wall(tiles: int, frames: int, seed: int) -> list[MediaSession]:
    if tiles < 1:
        raise ValueError("need at least one tile")
    cfg = EncoderConfig(gop_size=8, quality=70)
    coded = precoded_segments(qcif_like(frames, seed), cfg, cfg.gop_size)
    return [
        VideoDecodeSession(f"tile{i}", coded) for i in range(tiles)
    ]


@REGISTRY.register(
    "podcast_farm",
    "a farm encoding podcast episodes into the library format; workers "
    "pulling the same episode are served from cache",
    device="podcast_farm",
    scheduler="weighted_fair",
    # The farm's 16 kHz episodes frame at ~41.7 Hz, contracted at the
    # round spec-sheet 40 (experiment R7).
    rates_hz={"audio_encode": 40.0},
    workers=4,
    episodes=2,
    seed=0,
)
def _podcast_farm(workers: int, episodes: int, seed: int) -> list[MediaSession]:
    if workers < 1 or episodes < 1:
        raise ValueError("need at least one worker and one episode")
    cfg = AudioEncoderConfig(
        sample_rate=16000.0, bitrate=96_000.0, fft_size=128
    )
    library = [
        speech_like(duration=0.5, sample_rate=16000.0, seed=seed + e)
        for e in range(episodes)
    ]
    # Popularity is skewed, like the video transcode farm: workers
    # round-robin over a small episode catalogue, so duplicate
    # (episode, config) jobs collapse in the segment cache.
    return [
        AudioEncodeSession(f"worker{i}", library[i % episodes], cfg)
        for i in range(workers)
    ]


@REGISTRY.register(
    "conference_bridge",
    "voice bridge mixing narrowband and wideband rooms, each encoded at "
    "its native audio frame rate",
    device="conference_bridge",
    scheduler="edf",
    # The builder sets each room's exact native rate itself; this is the
    # narrowband (8 kHz, ~20.8 Hz) floor for sessions added without one.
    rates_hz={"audio_encode": 20.0},
    narrowband=3,
    wideband=2,
    seed=0,
)
def _conference_bridge(
    narrowband: int, wideband: int, seed: int
) -> list[MediaSession]:
    if narrowband < 0 or wideband < 0 or narrowband + wideband < 1:
        raise ValueError("need at least one room")
    nb_cfg = AudioEncoderConfig(
        sample_rate=8000.0, bitrate=24_000.0, fft_size=64
    )
    wb_cfg = AudioEncoderConfig(
        sample_rate=16000.0, bitrate=48_000.0, fft_size=128
    )
    sessions: list[MediaSession] = []
    # Rooms run at their *native* Figure-2 frame cadence (sample rate /
    # 384), so the bridge mixes ~20.8 Hz and ~41.7 Hz deadline streams —
    # the mixed-rate audio workload the scheduler layer prices.
    for i in range(narrowband):
        session = AudioEncodeSession(
            f"room{i}_nb",
            speech_like(duration=0.5, sample_rate=8000.0, seed=seed + i),
            nb_cfg,
        )
        session.rate_hz = nb_cfg.sample_rate / nb_cfg.samples_per_frame
        sessions.append(session)
    for i in range(wideband):
        session = AudioEncodeSession(
            f"room{i}_wb",
            speech_like(
                duration=0.5, sample_rate=16000.0, seed=seed + 100 + i
            ),
            wb_cfg,
        )
        session.rate_hz = wb_cfg.sample_rate / wb_cfg.samples_per_frame
        sessions.append(session)
    return sessions


@REGISTRY.register(
    "wireless_surveillance",
    "N cameras whose coded uplinks cross a bursty radio channel: "
    "Gilbert-Elliott loss, XOR parity FEC, interleaving, PSNR under loss",
    device="wireless_surveillance",
    # The lossy-delivery devices (experiment R8) keep their wired twins'
    # media rates -- the channel changes what arrives, never what the
    # contract owes -- under EDF, since delivery cost eats slack and
    # deadline-blind sweeps start missing first.
    scheduler="edf",
    rates_hz={"video_encode": 15.0, "analysis": 30.0},
    cameras=3,
    unique_feeds=2,
    frames=16,
    seed=0,
    loss=0.05,
    fec=2,
    interleave=4,
)
def _wireless_surveillance(
    cameras: int, unique_feeds: int, frames: int, seed: int,
    loss: float, fec: int, interleave: int,
) -> list[MediaSession]:
    if cameras < 1 or unique_feeds < 1:
        raise ValueError("need at least one camera and one feed")
    if not 0.0 <= loss < 1.0:
        raise ValueError("loss must be in [0, 1)")
    unique_feeds = min(unique_feeds, cameras)
    cfg = EncoderConfig(search_algorithm="three_step", gop_size=8, quality=55)
    feeds = [
        [np.floor(f) for f in static_sequence(
            num_frames=frames, height=48, width=64, seed=seed + i
        )]
        for i in range(unique_feeds)
    ]
    sessions: list[MediaSession] = [
        VideoEncodeSession(f"cam{i}", feeds[i % unique_feeds], cfg)
        for i in range(cameras)
    ]
    sessions.append(AnalysisSession("watch", feeds[0], segment_frames=8))
    # Radio-sized packets, burst loss, parity + interleaving: the R8
    # defaults, priced by the device's own SoC interconnect (same cost
    # model the CLI --channel path uses).  CLI transport flags override
    # these pipes.
    from ..mpsoc.presets import wireless_surveillance_soc

    attach_delivery(
        sessions,
        kind="gilbert",
        loss_rate=loss,
        fec_group=fec,
        interleave_depth=interleave,
        mtu=192,
        seed=seed,
        platform=wireless_surveillance_soc(),
    )
    return sessions


@REGISTRY.register(
    "lossy_wan_transcode",
    "a transcode farm pulling source clips over a congested WAN: i.i.d. "
    "loss on the inbound leg, concealment before re-encode",
    device="lossy_wan_transcode",
    scheduler="edf",
    rates_hz={"transcode": 30.0},
    workers=3,
    clips=2,
    frames=16,
    seed=0,
    loss=0.05,
    fec=2,
)
def _lossy_wan_transcode(
    workers: int, clips: int, frames: int, seed: int, loss: float, fec: int
) -> list[MediaSession]:
    if workers < 1 or clips < 1:
        raise ValueError("need at least one worker and one clip")
    if not 0.0 <= loss < 1.0:
        raise ValueError("loss must be in [0, 1)")
    in_cfg = EncoderConfig(gop_size=8, quality=80)
    out_cfg = EncoderConfig(
        search_algorithm="diamond", gop_size=8, quality=45
    )
    library = [
        precoded_segments(qcif_like(frames, seed + c), in_cfg, in_cfg.gop_size)
        for c in range(clips)
    ]
    sessions: list[MediaSession] = [
        TranscodeSession(f"worker{i}", library[i % clips], out_cfg)
        for i in range(workers)
    ]
    # Every worker pulls its clip over its own WAN path (independent
    # seeded loss traces), so identical clips no longer collapse in the
    # cache once the channel damages them differently.  Costs come from
    # the blade's own SoC interconnect, like the CLI --channel path.
    from ..mpsoc.presets import lossy_wan_transcode_soc

    attach_delivery(
        sessions, kind="iid", loss_rate=loss, fec_group=fec, seed=seed,
        platform=lossy_wan_transcode_soc(),
    )
    return sessions


@REGISTRY.register(
    "transcode_farm",
    "a farm re-encoding popular clips; identical (clip, quality) jobs are "
    "served from cache",
    device="transcode_farm",
    scheduler="platform",
    rates_hz={"transcode": 30.0},
    workers=4,
    clips=2,
    frames=16,
    seed=0,
)
def _transcode_farm(
    workers: int, clips: int, frames: int, seed: int
) -> list[MediaSession]:
    if workers < 1 or clips < 1:
        raise ValueError("need at least one worker and one clip")
    in_cfg = EncoderConfig(gop_size=8, quality=80)
    out_cfg = EncoderConfig(
        search_algorithm="diamond", gop_size=8, quality=45
    )
    library = [
        precoded_segments(qcif_like(frames, seed + c), in_cfg, in_cfg.gop_size)
        for c in range(clips)
    ]
    # Popularity is skewed: workers round-robin over a small catalogue, so
    # several workers pull the same clip at the same output point.
    return [
        TranscodeSession(f"worker{i}", library[i % clips], out_cfg)
        for i in range(workers)
    ]
