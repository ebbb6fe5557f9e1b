"""Core framework: the paper's contribution made operational.

Multimedia applications (Figure 1/2 codecs, content analysis, DRM, support
functions) become annotated SDF graphs; consumer devices become scenarios
(application mix + platform); the mapper binds graphs to silicon and
reports the cost/performance/power point.
"""

from .application import ApplicationModel, merge_applications
from .metrics import CostPerfPowerPoint, render_table
from .scenarios import (
    ALL_SCENARIOS,
    EXTENDED_SCENARIOS,
    DeviceScenario,
    analysis_application,
    audio_player_scenario,
    camera_scenario,
    cell_phone_scenario,
    conference_bridge_scenario,
    drm_application,
    dvr_scenario,
    filesystem_application,
    network_application,
    podcast_farm_scenario,
    servo_application,
    set_top_box_scenario,
    surveillance_scenario,
    transcode_farm_scenario,
    ui_application,
    video_wall_scenario,
)
from .rng import coerce_rng
from .system import ApplicationReport, MultimediaSystem, SystemReport

__all__ = [
    "ALL_SCENARIOS",
    "EXTENDED_SCENARIOS",
    "ApplicationModel",
    "ApplicationReport",
    "CostPerfPowerPoint",
    "DeviceScenario",
    "MultimediaSystem",
    "SystemReport",
    "analysis_application",
    "audio_player_scenario",
    "camera_scenario",
    "cell_phone_scenario",
    "coerce_rng",
    "conference_bridge_scenario",
    "drm_application",
    "dvr_scenario",
    "filesystem_application",
    "merge_applications",
    "network_application",
    "podcast_farm_scenario",
    "render_table",
    "servo_application",
    "set_top_box_scenario",
    "surveillance_scenario",
    "transcode_farm_scenario",
    "ui_application",
    "video_wall_scenario",
]
