"""Every registered scenario, under every scheduler, against the golden pin.

``tests/golden/scenarios.json`` records what each scenario produced at
the :data:`strategies.scenario_pin.SMALL` sizes when the file was last
regenerated: per-session output digests, the Chrome trace dump's
sha256, and the sha256 of the engine report (metrics reduced to their
histograms), plus each scenario's default scheduler.  Any change to
codec bits, schedules, session rates, virtual costs, cache behaviour or
trace content fails here.  This test only reads the file; regenerating
it is a deliberate act (``python tests/strategies/scenario_pin.py``).
"""

from __future__ import annotations

import json

import pytest

from repro.runtime.scenarios import REGISTRY
from strategies.scenario_pin import (
    GOLDEN_PATH,
    SCHEDULER_NAMES,
    SMALL,
    pin_run,
)

GOLDEN = json.loads(GOLDEN_PATH.read_text())


def test_pin_covers_every_scenario_and_scheduler():
    assert sorted(GOLDEN["scenarios"]) == REGISTRY.names() == sorted(SMALL)
    assert GOLDEN["sizes"] == SMALL
    for entry in GOLDEN["scenarios"].values():
        assert sorted(entry["runs"]) == SCHEDULER_NAMES


@pytest.mark.parametrize("name", REGISTRY.names())
def test_default_scheduler_is_pinned(name):
    pinned = GOLDEN["scenarios"][name]["default_scheduler"]
    assert REGISTRY.get(name).default_scheduler == pinned


@pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
@pytest.mark.parametrize("name", REGISTRY.names())
def test_run_matches_pin(name, scheduler):
    pinned = GOLDEN["scenarios"][name]["runs"][scheduler]
    got = pin_run(name, scheduler)
    assert got["sessions"] == pinned["sessions"]
    assert got["report_sha256"] == pinned["report_sha256"]
    assert got["trace_sha256"] == pinned["trace_sha256"]
