"""The engine's ready queue against the linear-scan schedule it replaced.

``StreamEngine.run`` keeps unreleased clocks in a heap by release time
and released ones in a heap by ``Scheduler.key``, re-keying only the
clock that just ran.  The oracle here is the loop it replaced, kept in
this file: rebuild the unfinished and ready lists over every session at
every step, then pick with the policy's old scan (``min`` over
``(deadline, name)`` or ``(virtual_finish, name)``, or the round-robin
cursor sweep).  Both must produce the same step order and the same
virtual-time windows under all four policies, on stub sessions with
random rates, segment sizes and lengths, ties in release, deadline and
virtual finish included.

The second half pins the running totals behind ``frames_done``,
``total_bits`` and ``deadline_misses`` against sums over the logs, and
the psychoacoustic tables every model of one geometry shares.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.audio import PsychoacousticModel
from repro.mpsoc import symmetric_multicore
from repro.runtime import (
    SCHEDULERS,
    MediaSession,
    SegmentCache,
    SegmentResult,
    SessionClock,
    StreamEngine,
    WeightedFair,
    make_scheduler,
)
from repro.runtime.scenarios import REGISTRY

from strategies.scenario_pin import platform_for, small_sessions

_EPS = 1e-12

PLATFORM = symmetric_multicore(4)


class StubSession(MediaSession):
    """No-codec session; each step logs its name to a shared ``order``.

    With ``stall_at`` set, the step that would produce segment
    ``stall_at`` first returns ``None`` once without advancing, the way
    a session that misreports ``finished`` would.
    """

    kind = "stub"

    def __init__(
        self, name, order, segments, frames, ops, rate_hz, stall_at=None
    ):
        super().__init__(name, rate_hz=rate_hz)
        self.order = order
        self._n = segments
        self.nominal_segment_frames = frames
        self._ops = ops
        self._stall_at = stall_at

    def step(self, cache=None):
        if self._stall_at == self._cursor:
            self._stall_at = None
            return None
        return super().step(cache)

    def _input_count(self):
        return self._n

    def _input(self, k):
        return k + 1

    def _payload(self, batch):
        return str(batch).encode()

    def _fingerprint(self):
        return f"stub({self.name})"

    def _process(self, batch, clean):
        self.order.append(self.name)
        return SegmentResult(
            data=f"{self.name}:{batch};".encode(),
            frames=self.nominal_segment_frames,
            bits=8 * batch,
            stage_ops={"alu": self._ops} if self._ops else {},
        )


def oracle_run(sessions, scheduler) -> int:
    """The pre-heap engine loop: O(sessions) list rebuilds and a scan
    per step.  Drives ``sessions`` to completion; returns the steps."""
    clocks = [SessionClock(session=s, index=i) for i, s in enumerate(sessions)]
    scheduler.bind(clocks)
    cursor = 0
    now = 0.0
    steps = 0
    while True:
        unfinished = [c for c in clocks if not c.finished]
        if not unfinished:
            return steps
        ready = [c for c in unfinished if c.release() <= now + _EPS]
        if not ready:
            now = min(c.release() for c in unfinished)
            ready = [c for c in unfinished if c.release() <= now + _EPS]
        if scheduler.name == "roundrobin":
            eligible = {id(c) for c in ready}
            while True:
                clock = clocks[cursor % len(clocks)]
                cursor += 1
                if id(clock) in eligible:
                    break
        elif scheduler.name == "weighted_fair":
            clock = min(ready, key=lambda c: (c.virtual_finish, c.name))
        else:
            clock = min(ready, key=lambda c: (c.deadline(), c.name))
        result = clock.session.step(None)
        if result is None:
            continue
        steps += 1
        cost = scheduler.segment_cost(clock, result, False)
        clock.session.record_timing(now, now + cost)
        scheduler.charge(clock, cost)
        now += cost


def fresh_scheduler(name, weights):
    if name == "weighted_fair":
        return WeightedFair(weights=weights)
    return make_scheduler(name, platform=PLATFORM)


#: One stub: (segments, frames per segment, ops per segment, rate_hz,
#: weight, stall).  Small value sets so releases, deadlines and virtual
#: finish tags tie often; zero ops makes zero-cost segments.
stub_specs = st.lists(
    st.tuples(
        st.integers(1, 6),
        st.sampled_from([1, 2, 4]),
        st.sampled_from([0.0, 1e5, 1e6, 4e6]),
        st.sampled_from([None, 10.0, 25.0, 30.0, 100.0]),
        st.sampled_from([0.5, 1.0, 2.0]),
        st.booleans(),
    ),
    min_size=1,
    max_size=6,
)


def build(specs, order):
    sessions = [
        StubSession(
            f"s{i}", order, segments, frames, ops, rate,
            stall_at=segments // 2 if stall else None,
        )
        for i, (segments, frames, ops, rate, _, stall) in enumerate(specs)
    ]
    weights = {f"s{i}": spec[4] for i, spec in enumerate(specs)}
    return sessions, weights


def windows(sessions):
    return {
        s.name: [(t.start, t.finish, t.deadline) for t in s.timings]
        for s in sessions
    }


@pytest.mark.parametrize("name", sorted(SCHEDULERS))
@given(specs=stub_specs)
def test_engine_schedule_matches_scan_oracle(name, specs):
    want_order: list[str] = []
    want, weights = build(specs, want_order)
    want_steps = oracle_run(want, fresh_scheduler(name, weights))

    got_order: list[str] = []
    got, _ = build(specs, got_order)
    report = StreamEngine(
        got, use_cache=False, scheduler=fresh_scheduler(name, weights)
    ).run()

    assert got_order == want_order
    assert report.steps == want_steps == len(want_order)
    assert windows(got) == windows(want)
    for session in got:
        assert_counters_match_logs(session)


def test_session_stalling_once_still_finishes_with_exact_totals():
    order: list[str] = []
    sessions = [
        StubSession("a", order, 4, 2, 1e6, 30.0, stall_at=2),
        StubSession("b", order, 3, 1, 1e6, None, stall_at=0),
    ]
    report = StreamEngine(sessions, scheduler="edf").run()
    assert report.steps == 7
    assert [(s.name, s.segments, s.frames, s.bits) for s in report.sessions] \
        == [("a", 4, 8, 80), ("b", 3, 3, 48)]
    assert sorted(order) == ["a"] * 4 + ["b"] * 3


def test_session_that_never_steps_raises_instead_of_spinning():
    class Stuck(StubSession):
        def step(self, cache=None):
            return None

    sessions = [Stuck("stuck", [], 2, 1, 1e6, None)]
    with pytest.raises(RuntimeError, match="stuck"):
        StreamEngine(sessions).run()


# -- running totals and shared tables -----------------------------------------


def assert_counters_match_logs(session):
    assert session.frames_done == sum(seg.frames for seg in session.segments)
    assert session.total_bits == sum(seg.bits for seg in session.segments)
    assert session.deadline_misses == sum(t.missed for t in session.timings)


def test_counters_track_missed_deadlines():
    # Two 100 Hz feeds whose 40 ms segments each outlast their 10 ms
    # budget: every segment after the first misses.
    sessions = [
        StubSession(name, [], 5, 1, 4e6, 100.0) for name in ("a", "b")
    ]
    report = StreamEngine(sessions, scheduler="edf").run()
    assert report.total_deadline_misses >= 8
    for session in sessions:
        assert_counters_match_logs(session)


@pytest.mark.parametrize("name", REGISTRY.names())
def test_session_counters_equal_sums_over_logs(name):
    scenario = REGISTRY.get(name)
    sessions = small_sessions(name)
    scheduler = make_scheduler(
        scenario.default_scheduler, platform=platform_for(scenario)
    )
    StreamEngine(sessions, cache=SegmentCache(64), scheduler=scheduler).run()
    for session in sessions:
        assert session.timings
        assert_counters_match_logs(session)


def test_models_of_one_geometry_share_read_only_tables():
    a = PsychoacousticModel(sample_rate=16000.0, fft_size=256, num_bands=32)
    b = PsychoacousticModel(sample_rate=16000.0, fft_size=256, num_bands=32)
    other = PsychoacousticModel(sample_rate=8000.0, fft_size=256, num_bands=32)
    names = (
        "_window", "_freqs", "_bark", "_quiet", "_bark_starts",
        "_noise_floor", "_quiet_power", "_band_starts",
    )
    for attr in names:
        table = getattr(a, attr)
        assert table is getattr(b, attr)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0
    assert other._freqs is not a._freqs
