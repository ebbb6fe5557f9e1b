"""The scenario pin: one size table, one digest, one platform rule.

Every test that runs the registered scenarios end to end takes its sizes
(:data:`SMALL`), its per-session digest (:func:`session_digest`) and its
scheduler platform (:func:`platform_for`) from here, so the sweeps and
the committed golden file ``tests/golden/scenarios.json`` agree on what
"the same scenario" means.

The golden file records, for every registered scenario under every
scheduler, what one traced ``StreamEngine`` run at :data:`SMALL` sizes
produced: each session's output digest, the sha256 of the Chrome trace
dump, and the sha256 of ``EngineReport.to_dict()`` with ``metrics``
reduced to its histograms.  ``tests/test_scenario_pin.py`` compares a
fresh run against it and never writes it.  A change that means to move
bits regenerates it by running this module as a script::

    PYTHONPATH=src python tests/strategies/scenario_pin.py

and says so in its change notes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.mpsoc import symmetric_multicore
from repro.obs import ManualClock, TraceRecorder, dumps_chrome_trace
from repro.runtime import (
    SCHEDULERS,
    SegmentCache,
    StreamEngine,
    make_scheduler,
)
from repro.runtime.run import _device_platform
from repro.runtime.scenarios import REGISTRY

#: Smallest parameterisation per registered scenario that still runs
#: every session kind; an empty entry runs the scenario's defaults.
SMALL = {
    "quickstart": {"frames": 8},
    "videoconferencing": {"frames": 8},
    "set_top_box": {"frames": 8},
    "dvr": {"frames": 8},
    "surveillance": {"cameras": 2, "frames": 8},
    "video_wall": {"tiles": 2, "frames": 8},
    "transcode_farm": {"workers": 2, "clips": 1, "frames": 16},
    "portable_player": {},
    "podcast_farm": {"workers": 2, "episodes": 1},
    "conference_bridge": {"narrowband": 1, "wideband": 1},
    "wireless_surveillance": {},
    "lossy_wan_transcode": {},
}

#: Every scheduler the pin runs each scenario under.
SCHEDULER_NAMES = sorted(SCHEDULERS)

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "golden" / "scenarios.json"


def platform_for(scenario):
    """The scenario's device SoC, or a 4-core symmetric platform for the
    deviceless ``quickstart`` (the ``platform`` scheduler needs one)."""
    platform = _device_platform(scenario)
    return platform if platform is not None else symmetric_multicore(4)


def small_sessions(name: str):
    """The sessions of scenario ``name`` at its :data:`SMALL` sizes."""
    return REGISTRY.get(name).sessions(**SMALL[name])


def session_digest(session) -> str:
    """sha256 of a finished session's output bytes plus every segment's
    decoded luma planes (decode sessions carry pictures, not bytes)."""
    h = hashlib.sha256(session.output_bytes())
    for seg in session.segments:
        for luma in seg.extras.get("luma", []):
            h.update(np.ascontiguousarray(luma).tobytes())
    return h.hexdigest()


def scenario_digests(name: str) -> dict[str, str]:
    """Run each session of scenario ``name`` alone to completion, uncached,
    and digest it."""
    digests = {}
    for session in small_sessions(name):
        session.run_to_completion(None)
        digests[session.name] = session_digest(session)
    return digests


def _sha256_json(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def pin_run(name: str, scheduler: str) -> dict:
    """One traced, cached engine run of scenario ``name`` under
    ``scheduler``, reduced to the digests the golden file records."""
    scenario = REGISTRY.get(name)
    sessions = small_sessions(name)
    recorder = TraceRecorder()
    engine = StreamEngine(
        sessions,
        cache=SegmentCache(64),
        scheduler=make_scheduler(scheduler, platform=platform_for(scenario)),
        trace=recorder,
        clock=ManualClock(),
    )
    report = engine.run().to_dict()
    report["metrics"] = {"histograms": report["metrics"]["histograms"]}
    return {
        "sessions": {s.name: session_digest(s) for s in sessions},
        "trace_sha256": hashlib.sha256(
            dumps_chrome_trace(recorder).encode()
        ).hexdigest(),
        "report_sha256": _sha256_json(report),
    }


def pin_scenario(name: str) -> dict:
    return {
        "default_scheduler": REGISTRY.get(name).default_scheduler,
        "runs": {sched: pin_run(name, sched) for sched in SCHEDULER_NAMES},
    }


def main() -> None:
    golden = {
        "sizes": SMALL,
        "scenarios": {name: pin_scenario(name) for name in REGISTRY.names()},
    }
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    text = json.dumps(golden, indent=1, sort_keys=True)
    GOLDEN_PATH.write_text(text + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(golden['scenarios'])} scenarios)")


if __name__ == "__main__":
    main()
