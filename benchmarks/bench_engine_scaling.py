"""Engine scaling benchmark: per-step cost flat in run length and sessions.

``StreamEngine.run`` decides what runs next from two heaps (unreleased
clocks by release time, released ones by the scheduler's key) and the
sessions keep running totals, so one step costs O(log sessions) and
nothing grows with the number of segments already done.  The workload
here is no-op rated sessions, so the engine's own bookkeeping is all
there is to time.  *Engine overhead* is the run's wall time minus the
time spent inside ``MediaSession.step``, per step.

Two ratios are gated, both <= 2 (before the heaps and counters they
were about 11 and 10 on a 2-vCPU host):

* run length: 16,384 steps against 1,024 steps, 8 sessions;
* session count: 1,024 sessions against 8, 16,384 steps each.

The measurements land in ``BENCH_engine_scaling.json``.
"""

import json
import os
from time import perf_counter

from repro.core import render_table
from repro.runtime import MediaSession, SegmentResult, StreamEngine

#: Where the JSON artifact lands (CI uploads ``BENCH_*.json`` from the
#: working directory; point BENCH_JSON_DIR elsewhere to redirect).
JSON_PATH = os.path.join(
    os.environ.get("BENCH_JSON_DIR", "."), "BENCH_engine_scaling.json"
)

#: (sessions, segments per session) of each measured run.
SHORT = (8, 128)
LONG = (8, 2048)
WIDE = (1024, 16)

MAX_RATIO = 2.0


class NoopSession(MediaSession):
    """A 30 Hz session whose segments do no work; it times its steps."""

    kind = "noop"
    nominal_segment_frames = 1

    def __init__(self, name, segments):
        super().__init__(name, rate_hz=30.0)
        self._n = segments
        self.step_s = 0.0

    def step(self, cache=None):
        start = perf_counter()
        result = super().step(cache)
        self.step_s += perf_counter() - start
        return result

    def _input_count(self):
        return self._n

    def _input(self, k):
        return k

    def _process(self, batch, clean):
        return SegmentResult(
            data=b"", frames=1, bits=8, stage_ops={"alu": 1e3}
        )


def overhead_us_per_step(sessions: int, segments: int, rounds: int = 3):
    """Best-of-``rounds`` engine overhead per step (µs), and the steps."""
    best = float("inf")
    for _ in range(rounds):
        feeds = [NoopSession(f"s{i}", segments) for i in range(sessions)]
        engine = StreamEngine(feeds, use_cache=False, scheduler="edf")
        start = perf_counter()
        report = engine.run()
        wall = perf_counter() - start
        overhead = wall - sum(s.step_s for s in feeds)
        best = min(best, overhead * 1e6 / report.steps)
    return best, report.steps


def measure():
    return {shape: overhead_us_per_step(*shape) for shape in (SHORT, LONG, WIDE)}


def test_engine_overhead_is_flat(show):
    overhead_us_per_step(*SHORT)  # warm up
    # A steal burst inflates one window; re-measure once before failing.
    for _ in range(2):
        runs = measure()
        by_length = runs[LONG][0] / runs[SHORT][0]
        by_sessions = runs[WIDE][0] / runs[LONG][0]
        if max(by_length, by_sessions) <= MAX_RATIO:
            break

    show(render_table(
        ["sessions", "segments each", "steps", "overhead (us/step)"],
        [
            [sessions, segments, runs[sessions, segments][1],
             runs[sessions, segments][0]]
            for sessions, segments in (SHORT, LONG, WIDE)
        ],
        title=(
            f"EDF engine overhead: x{by_length:.2f} for 16x the run length, "
            f"x{by_sessions:.2f} for 128x the sessions"
        ),
    ))
    payload = {
        "benchmark": "engine_scaling",
        "workload": "no-op 30 Hz sessions under EDF",
        "overhead_us_per_step": {
            f"{sessions}x{segments}": runs[sessions, segments][0]
            for sessions, segments in (SHORT, LONG, WIDE)
        },
        "ratios": {"run_length": by_length, "sessions": by_sessions},
    }
    with open(JSON_PATH, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")

    assert by_length <= MAX_RATIO, (
        f"per-step overhead grew x{by_length:.2f} from "
        f"{runs[SHORT][1]} to {runs[LONG][1]} steps"
    )
    assert by_sessions <= MAX_RATIO, (
        f"per-step overhead grew x{by_sessions:.2f} from "
        f"{LONG[0]} to {WIDE[0]} sessions"
    )
