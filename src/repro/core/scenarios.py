"""The five consumer devices of the paper's Section 2, as mapping scenarios.

*"consumer multimedia devices cover a broad range of cost/performance/power
points: multimedia-enabled cell phones; digital audio players; digital
set-top boxes; digital video recorders; digital video cameras."*

Each scenario pairs the device's application mix (built from the codec
task graphs plus the support functions of Section 7) with its platform
preset.  Experiment C2 in DESIGN.md maps all five and tabulates the
resulting points.

Beyond the paper's five, :data:`EXTENDED_SCENARIOS` adds three
streaming-era devices (surveillance hub, video wall, transcoding-farm
blade) that the streaming runtime (:mod:`repro.runtime`) exercises as
multi-session workloads; they are kept out of :data:`ALL_SCENARIOS` so the
C2 experiment keeps reproducing exactly the paper's device list.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..audio.taskgraph import AudioWorkload
from ..audio.taskgraph import decoder_taskgraph as audio_decoder_graph
from ..audio.taskgraph import encoder_taskgraph as audio_encoder_graph
from ..audio.taskgraph import speech_taskgraph
from ..dataflow.graph import SDFGraph
from ..mpsoc.platform import Platform
from ..mpsoc.presets import (
    audio_player_soc,
    camera_soc,
    cell_phone_soc,
    conference_bridge_soc,
    dvr_soc,
    lossy_wan_transcode_soc,
    podcast_farm_soc,
    set_top_box_soc,
    surveillance_hub_soc,
    transcode_farm_soc,
    video_wall_soc,
    wireless_surveillance_soc,
)
from ..video.taskgraph import VideoWorkload
from ..video.taskgraph import decoder_taskgraph as video_decoder_graph
from ..video.taskgraph import encoder_taskgraph as video_encoder_graph
from .application import ApplicationModel, merge_applications


def _support_graph(
    name: str,
    tasks: list[tuple[str, str, dict]],
) -> SDFGraph:
    """A chain of support-function actors (file system, DRM, UI, ...)."""
    g = SDFGraph(name)
    previous = None
    for actor_name, kind, ops in tasks:
        g.add_actor(actor_name, kind=kind, ops=ops)
        if previous is not None:
            g.add_channel(previous, actor_name, token_size=256.0)
        previous = actor_name
    return g


def drm_application(rate_hz: float = 1.0) -> ApplicationModel:
    """Licence verification + stream decryption (Section 6)."""
    g = _support_graph(
        "drm",
        [
            ("license_check", "control", {"control": 5_000.0, "alu": 2_000.0}),
            ("decrypt", "cipher", {"bit": 64_000.0, "alu": 16_000.0}),
            ("rights_update", "control", {"control": 1_000.0, "mem": 500.0}),
        ],
    )
    return ApplicationModel("drm", g, required_rate_hz=rate_hz)


def filesystem_application(rate_hz: float = 4.0) -> ApplicationModel:
    """Block allocation + directory maintenance (Section 7)."""
    g = _support_graph(
        "filesystem",
        [
            ("fat_lookup", "control", {"control": 3_000.0, "mem": 4_000.0}),
            ("block_io", "io", {"mem": 32_000.0}),
            ("dir_update", "control", {"control": 1_500.0, "mem": 1_000.0}),
        ],
    )
    return ApplicationModel("filesystem", g, required_rate_hz=rate_hz)


def network_application(rate_hz: float = 10.0) -> ApplicationModel:
    """Small IP stack servicing packets (Section 7)."""
    g = _support_graph(
        "network",
        [
            ("nic_rx", "io", {"mem": 3_000.0}),
            ("ip_udp", "control", {"control": 4_000.0, "alu": 2_000.0, "bit": 1_500.0}),
            ("app_layer", "control", {"control": 2_000.0}),
        ],
    )
    return ApplicationModel("network", g, required_rate_hz=rate_hz)


def ui_application(rate_hz: float = 5.0) -> ApplicationModel:
    """Program guide / menus (the set-top-box duties of Section 7)."""
    g = _support_graph(
        "ui",
        [
            ("input_events", "control", {"control": 1_000.0}),
            ("guide_logic", "control", {"control": 8_000.0, "mem": 6_000.0}),
            ("render", "display", {"alu": 20_000.0, "mem": 20_000.0}),
        ],
    )
    return ApplicationModel("ui", g, required_rate_hz=rate_hz)


def servo_application(rate_hz: float = 100.0) -> ApplicationModel:
    """DVD drive servo filters (Section 7: high-rate real-time control)."""
    g = _support_graph(
        "servo",
        [
            ("position_sense", "io", {"mem": 200.0}),
            ("control_filter", "dsp_filter", {"mac": 2_000.0}),
            ("actuator_out", "io", {"mem": 100.0}),
        ],
    )
    return ApplicationModel("servo", g, required_rate_hz=rate_hz)


def analysis_application(rate_hz: float = 30.0) -> ApplicationModel:
    """Commercial detection on the live stream (Section 5)."""
    g = _support_graph(
        "analysis",
        [
            ("frame_features", "analysis", {"alu": 30_000.0, "mem": 20_000.0}),
            ("black_frame", "analysis", {"alu": 2_000.0}),
            ("segment_logic", "control", {"control": 3_000.0}),
        ],
    )
    return ApplicationModel("analysis", g, required_rate_hz=rate_hz)


@dataclass
class DeviceScenario:
    """One of the paper's five consumer devices, ready to map."""

    name: str
    application: ApplicationModel
    platform: Platform
    description: str

    def problem(self):
        return self.application.problem(self.platform)


def cell_phone_scenario() -> DeviceScenario:
    """Videoconferencing phone: symmetric encode+decode + speech + stack."""
    video_cfg = VideoWorkload(
        width=176, height=144, frame_rate=15.0, search_algorithm="three_step"
    )
    apps = [
        ApplicationModel("venc", video_encoder_graph(video_cfg), 15.0),
        ApplicationModel("vdec", video_decoder_graph(video_cfg), 15.0),
        ApplicationModel("speech", speech_taskgraph(), 50.0),
        network_application(rate_hz=15.0),
    ]
    return DeviceScenario(
        name="cell_phone",
        application=merge_applications(apps, "cell_phone_app"),
        platform=cell_phone_soc(),
        description="symmetric videoconferencing terminal (Section 2)",
    )


def audio_player_scenario() -> DeviceScenario:
    """Portable player: audio decode + file system + DRM."""
    audio_cfg = AudioWorkload(bitrate=128_000.0)
    apps = [
        ApplicationModel(
            "adec", audio_decoder_graph(audio_cfg), audio_cfg.frame_rate
        ),
        filesystem_application(rate_hz=8.0),
        drm_application(rate_hz=2.0),
    ]
    return DeviceScenario(
        name="audio_player",
        application=merge_applications(apps, "audio_player_app"),
        platform=audio_player_soc(),
        description="digital audio player with local library (Sections 6-7)",
    )


def set_top_box_scenario() -> DeviceScenario:
    """Broadcast receiver: asymmetric decode-only + guide + DRM."""
    video_cfg = VideoWorkload(width=704, height=480, frame_rate=30.0)
    audio_cfg = AudioWorkload(bitrate=192_000.0)
    apps = [
        ApplicationModel("vdec", video_decoder_graph(video_cfg), 30.0),
        ApplicationModel(
            "adec", audio_decoder_graph(audio_cfg), audio_cfg.frame_rate
        ),
        ui_application(rate_hz=10.0),
        drm_application(rate_hz=1.0),
    ]
    return DeviceScenario(
        name="set_top_box",
        application=merge_applications(apps, "set_top_box_app"),
        platform=set_top_box_soc(),
        description="asymmetric broadcast receiver (Section 2)",
    )


def dvr_scenario() -> DeviceScenario:
    """Digital video recorder: encode + decode + content analysis + FS."""
    enc_cfg = VideoWorkload(
        width=352, height=240, frame_rate=30.0, search_algorithm="three_step"
    )
    apps = [
        ApplicationModel("venc", video_encoder_graph(enc_cfg), 30.0),
        ApplicationModel("vdec", video_decoder_graph(enc_cfg), 30.0),
        analysis_application(rate_hz=30.0),
        filesystem_application(rate_hz=15.0),
    ]
    return DeviceScenario(
        name="dvr",
        application=merge_applications(apps, "dvr_app"),
        platform=dvr_soc(),
        description="record + playback + commercial analysis (Section 5)",
    )


def camera_scenario() -> DeviceScenario:
    """Camcorder: real-time full-search encode + servo + file system."""
    enc_cfg = VideoWorkload(
        width=352, height=288, frame_rate=30.0, search_algorithm="full",
        search_range=7,
    )
    apps = [
        ApplicationModel("venc", video_encoder_graph(enc_cfg), 30.0),
        servo_application(rate_hz=100.0),
        filesystem_application(rate_hz=30.0),
    ]
    return DeviceScenario(
        name="camera",
        application=merge_applications(apps, "camera_app"),
        platform=camera_soc(),
        description="digital video camera, encode-dominated (Section 2)",
    )


def surveillance_scenario(num_cameras: int = 4) -> DeviceScenario:
    """Surveillance hub: N concurrent camera encodes + live analysis.

    The streaming-era version of the camcorder: every camera is its own
    encode pipeline, analysis watches the live feeds, and the recorder's
    file system takes the aggregate.  This is the device the runtime's
    segment cache helps most — co-located cameras often stare at the same
    unchanging scene.
    """
    if num_cameras < 1:
        raise ValueError("a surveillance hub needs at least one camera")
    cam_cfg = VideoWorkload(
        width=176, height=144, frame_rate=15.0, search_algorithm="three_step"
    )
    apps = [
        ApplicationModel(
            f"cam{i}_enc", video_encoder_graph(cam_cfg), cam_cfg.frame_rate
        )
        for i in range(num_cameras)
    ]
    apps.append(analysis_application(rate_hz=15.0))
    apps.append(filesystem_application(rate_hz=15.0))
    return DeviceScenario(
        name="surveillance",
        application=merge_applications(apps, "surveillance_app"),
        platform=surveillance_hub_soc(),
        description=f"{num_cameras}-camera surveillance hub with analysis",
    )


def video_wall_scenario(num_tiles: int = 4) -> DeviceScenario:
    """Video wall: many synchronized decode tiles plus UI overlay."""
    if num_tiles < 1:
        raise ValueError("a video wall needs at least one tile")
    tile_cfg = VideoWorkload(width=352, height=288, frame_rate=30.0)
    apps = [
        ApplicationModel(
            f"tile{i}_dec", video_decoder_graph(tile_cfg), tile_cfg.frame_rate
        )
        for i in range(num_tiles)
    ]
    apps.append(ui_application(rate_hz=10.0))
    apps.append(network_application(rate_hz=30.0))
    return DeviceScenario(
        name="video_wall",
        application=merge_applications(apps, "video_wall_app"),
        platform=video_wall_soc(),
        description=f"{num_tiles}-tile video wall, decode-dominated",
    )


def transcode_farm_scenario(num_channels: int = 2) -> DeviceScenario:
    """Transcoding-farm blade: decode + re-encode several channels at once.

    The cross-standard recoding duty of Section 3 run as a service: each
    channel is a decode pipeline chained to an encode pipeline at a
    different operating point.
    """
    if num_channels < 1:
        raise ValueError("a transcode blade needs at least one channel")
    in_cfg = VideoWorkload(width=352, height=288, frame_rate=30.0)
    out_cfg = VideoWorkload(
        width=352, height=288, frame_rate=30.0, search_algorithm="diamond"
    )
    apps = []
    for i in range(num_channels):
        apps.append(
            ApplicationModel(
                f"ch{i}_dec", video_decoder_graph(in_cfg), in_cfg.frame_rate
            )
        )
        apps.append(
            ApplicationModel(
                f"ch{i}_enc", video_encoder_graph(out_cfg), out_cfg.frame_rate
            )
        )
    apps.append(network_application(rate_hz=30.0))
    return DeviceScenario(
        name="transcode_farm",
        application=merge_applications(apps, "transcode_farm_app"),
        platform=transcode_farm_soc(),
        description=f"{num_channels}-channel live transcoding blade",
    )


def podcast_farm_scenario(num_workers: int = 4) -> DeviceScenario:
    """Podcast transcoding blade: N concurrent Figure-2 encode chains.

    The audio analogue of the video transcode farm — every worker is a
    full subband encode pipeline (filterbank + psychoacoustics + packer),
    plus the file system that feeds the episode library and the network
    stack that ships it.  This is the device the batched audio pipeline
    (experiment R7) and the segment cache help most: popular episodes
    recur across workers.
    """
    if num_workers < 1:
        raise ValueError("a podcast farm needs at least one worker")
    audio_cfg = AudioWorkload(sample_rate=16000.0, bitrate=96_000.0,
                              fft_size=128)
    apps = [
        ApplicationModel(
            f"worker{i}_enc", audio_encoder_graph(audio_cfg),
            audio_cfg.frame_rate,
        )
        for i in range(num_workers)
    ]
    apps.append(filesystem_application(rate_hz=8.0))
    apps.append(network_application(rate_hz=20.0))
    return DeviceScenario(
        name="podcast_farm",
        application=merge_applications(apps, "podcast_farm_app"),
        platform=podcast_farm_soc(),
        description=f"{num_workers}-worker podcast transcoding blade",
    )


def conference_bridge_scenario(num_rooms: int = 4) -> DeviceScenario:
    """Voice-conference bridge: narrowband speech legs + the IP stack.

    Each room is a Figure-2 encode chain at telephone rate; the bridge
    mixes rooms running at different audio frame rates, which is what
    makes its deadline behaviour under EDF interesting (the runtime's
    conference_bridge scenario).
    """
    if num_rooms < 1:
        raise ValueError("a conference bridge needs at least one room")
    speech_cfg = AudioWorkload(sample_rate=8000.0, bitrate=24_000.0,
                               fft_size=64)
    apps = [
        ApplicationModel(
            f"room{i}_enc", audio_encoder_graph(speech_cfg),
            speech_cfg.frame_rate,
        )
        for i in range(num_rooms)
    ]
    apps.append(network_application(rate_hz=50.0))
    return DeviceScenario(
        name="conference_bridge",
        application=merge_applications(apps, "conference_bridge_app"),
        platform=conference_bridge_soc(),
        description=f"{num_rooms}-room voice-conference bridge",
    )


def wireless_surveillance_scenario(num_cameras: int = 4) -> DeviceScenario:
    """Wireless surveillance hub: camera encodes whose uplinks are radio.

    The surveillance hub of Section 2 moved off the wire (Section 7's
    "network devices"): every camera's coded stream is packetized,
    parity-protected, and shipped over a bursty channel, so a network
    application joins the mix at packet rate — the device the runtime's
    ``wireless_surveillance`` scenario drives end to end over
    :mod:`repro.net`.
    """
    if num_cameras < 1:
        raise ValueError("a surveillance hub needs at least one camera")
    cam_cfg = VideoWorkload(
        width=176, height=144, frame_rate=15.0, search_algorithm="three_step"
    )
    apps = [
        ApplicationModel(
            f"cam{i}_enc", video_encoder_graph(cam_cfg), cam_cfg.frame_rate
        )
        for i in range(num_cameras)
    ]
    apps.append(analysis_application(rate_hz=15.0))
    # Per-packet work scales with the uplinks: checksums, parity, retries.
    apps.append(network_application(rate_hz=50.0))
    return DeviceScenario(
        name="wireless_surveillance",
        application=merge_applications(apps, "wireless_surveillance_app"),
        platform=wireless_surveillance_soc(),
        description=f"{num_cameras}-camera hub with lossy radio uplinks",
    )


def lossy_wan_transcode_scenario(num_channels: int = 2) -> DeviceScenario:
    """Transcode blade whose source clips arrive over a congested WAN.

    The Section 3 recoding farm as a true network device: decode +
    re-encode per channel, plus an IP stack sized for the inbound
    packet rate (reassembly, FEC recovery, concealment bookkeeping) —
    the runtime's ``lossy_wan_transcode`` scenario feeds it damaged
    inputs through :mod:`repro.net`.
    """
    if num_channels < 1:
        raise ValueError("a transcode blade needs at least one channel")
    in_cfg = VideoWorkload(width=352, height=288, frame_rate=30.0)
    out_cfg = VideoWorkload(
        width=352, height=288, frame_rate=30.0, search_algorithm="diamond"
    )
    apps = []
    for i in range(num_channels):
        apps.append(
            ApplicationModel(
                f"ch{i}_dec", video_decoder_graph(in_cfg), in_cfg.frame_rate
            )
        )
        apps.append(
            ApplicationModel(
                f"ch{i}_enc", video_encoder_graph(out_cfg), out_cfg.frame_rate
            )
        )
    apps.append(network_application(rate_hz=100.0))
    return DeviceScenario(
        name="lossy_wan_transcode",
        application=merge_applications(apps, "lossy_wan_transcode_app"),
        platform=lossy_wan_transcode_soc(),
        description=f"{num_channels}-channel WAN-fed transcoding blade",
    )


#: The paper's five consumer devices (Section 2) — experiment C2 maps
#: exactly these, so this dict must stay the paper's list.
ALL_SCENARIOS = {
    "cell_phone": cell_phone_scenario,
    "audio_player": audio_player_scenario,
    "set_top_box": set_top_box_scenario,
    "dvr": dvr_scenario,
    "camera": camera_scenario,
}

#: Streaming-era devices added by the runtime subsystem; mapped by the
#: runtime CLI (``python -m repro.runtime.run``) and its tests.
EXTENDED_SCENARIOS = {
    "surveillance": surveillance_scenario,
    "video_wall": video_wall_scenario,
    "transcode_farm": transcode_farm_scenario,
    "podcast_farm": podcast_farm_scenario,
    "conference_bridge": conference_bridge_scenario,
    "wireless_surveillance": wireless_surveillance_scenario,
    "lossy_wan_transcode": lossy_wan_transcode_scenario,
}
