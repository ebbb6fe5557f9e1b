"""Streaming runtime benchmarks: vectorized motion search and the
multi-stream segment cache.

Two claims the runtime subsystem makes measurable:

1. the NumPy ``full_search`` produces the *identical* motion field to the
   scalar reference loop at >= 5x the speed on a CIF (352x288) frame, and
   the lockstep three-step and diamond searches do the same against the
   block-at-a-time pattern walk at >= 3x (R1, R10);
2. the shared segment cache makes N duplicate streams cost roughly one
   stream's encode work instead of N.

The motion-search timings land in ``BENCH_motion_search.json`` (CI
uploads it and ``perf_trend.py`` compares it against the committed
baseline).
"""

import json
import os
import time

import numpy as np

from repro.core import render_table
from repro.runtime import SegmentCache, StreamEngine, VideoEncodeSession
from repro.video.encoder import EncoderConfig
from repro.video.motion import (
    _diamond_schedule,
    _pattern_search,
    _pattern_search_reference,
    _three_step_schedule,
    full_search,
    full_search_reference,
)
from repro.workloads.video_gen import moving_blocks_sequence

#: Where the JSON artifact lands (CI uploads ``BENCH_*.json`` from the
#: working directory; point BENCH_JSON_DIR elsewhere to redirect).
JSON_PATH = os.path.join(
    os.environ.get("BENCH_JSON_DIR", "."), "BENCH_motion_search.json"
)


def cif_pair(seed=0):
    """An integer-valued CIF frame pair with global + local motion."""
    rng = np.random.default_rng(seed)
    reference = np.floor(rng.uniform(0, 256, size=(288, 352)))
    # Blur lightly so SAD surfaces resemble natural content.
    reference = np.floor(
        (reference + np.roll(reference, 1, 0) + np.roll(reference, 1, 1)) / 3
    )
    current = np.roll(reference, (2, -3), axis=(0, 1))
    return current, reference


def best_of(fn, rounds):
    """(fastest wall seconds, last result) over ``rounds`` calls."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


#: (path, reference, fast, best-of rounds per side, asserted speedup).
#: The pattern walks are cheap enough to time best-of-5; one scalar full
#: search takes seconds, so it is timed once.
SEARCHES = (
    ("full", full_search_reference, full_search, 1, 5.0),
    ("diamond",
     lambda c, r: _pattern_search_reference(c, r, 8, 7, _diamond_schedule),
     lambda c, r: _pattern_search(c, r, 8, 7, _diamond_schedule), 5, 3.0),
    ("three_step",
     lambda c, r: _pattern_search_reference(c, r, 8, 7, _three_step_schedule),
     lambda c, r: _pattern_search(c, r, 8, 7, _three_step_schedule), 5, 3.0),
)


def test_motion_searches_on_cif(benchmark, show):
    current, reference = cif_pair()
    benchmark.pedantic(
        lambda: full_search(current, reference, 8, 7), rounds=3, iterations=1
    )

    rows, paths, failures = [], {}, []
    for name, reference_fn, fast_fn, rounds, floor in SEARCHES:
        fast_s, (fast_field, fast_evals) = best_of(
            lambda: fast_fn(current, reference), rounds
        )
        ref_s, (ref_field, ref_evals) = best_of(
            lambda: reference_fn(current, reference), rounds
        )
        speedup = ref_s / fast_s
        rows.append([name, ref_s * 1e3, fast_s * 1e3, fast_evals, speedup])
        paths[name] = {
            "reference_ms": ref_s * 1e3,
            "batched_ms": fast_s * 1e3,
            "speedup": speedup,
        }
        # Identical results...
        assert fast_evals == ref_evals, name
        assert np.array_equal(fast_field.dy, ref_field.dy), name
        assert np.array_equal(fast_field.dx, ref_field.dx), name
        # ...at (at least) the promised speedup.
        if speedup < floor:
            failures.append(f"{name}: only {speedup:.1f}x (< {floor}x)")

    show(render_table(
        ["search", "reference (ms)", "vectorized (ms)", "SAD evals",
         "speedup"],
        rows,
        title="motion search on one CIF frame (352x288, R=7)",
    ))
    with open(JSON_PATH, "w") as fh:
        json.dump({
            "benchmark": "motion_search",
            "workload": "one integer-valued CIF frame pair, 8x8 blocks, R=7",
            "paths": paths,
        }, fh, indent=2)
        fh.write("\n")
    assert not failures, "; ".join(failures)


def duplicate_streams(num_streams, frames, use_cache):
    cfg = EncoderConfig(search_algorithm="full", gop_size=8, quality=60)
    sessions = [
        VideoEncodeSession(f"cam{i}", frames, cfg)
        for i in range(num_streams)
    ]
    engine = StreamEngine(
        sessions, cache=SegmentCache(64), use_cache=use_cache
    )
    return engine, engine.run()


def test_segment_cache_collapses_duplicate_streams(benchmark, show):
    frames = [
        np.floor(f)
        for f in moving_blocks_sequence(
            num_frames=16, height=48, width=64, seed=5
        )
    ]
    n = 6

    _, cold = duplicate_streams(n, frames, use_cache=False)
    engine, warm = benchmark.pedantic(
        lambda: duplicate_streams(n, frames, use_cache=True),
        rounds=1,
        iterations=1,
    )

    show(render_table(
        ["configuration", "segments encoded", "cache hits", "time (ms)"],
        [
            ["no cache", sum(s.computed for s in cold.sessions),
             cold.cache.hits, cold.elapsed_s * 1e3],
            ["shared cache", sum(s.computed for s in warm.sessions),
             warm.cache.hits, warm.elapsed_s * 1e3],
        ],
        title=f"{n} duplicate camera streams, 16 frames each",
    ))

    segments_per_stream = warm.sessions[0].segments
    # Cached run computes one stream's worth of segments; the rest hit.
    assert sum(s.computed for s in warm.sessions) == segments_per_stream
    assert warm.cache.hits == (n - 1) * segments_per_stream
    # Outputs are bit-identical either way (determinism, not just speed).
    cold_engine, _ = duplicate_streams(n, frames, use_cache=False)
    for a, b in zip(engine.sessions, cold_engine.sessions):
        assert a.output_bytes() == b.output_bytes()
    # The cache must also translate into real time saved.
    assert warm.elapsed_s < cold.elapsed_s


def test_mixed_scenario_throughput(benchmark, show):
    """Throughput scorecard for the registered scenarios (small params)."""
    from repro.runtime.run import run_scenario
    import io

    rows = []

    def run_all():
        rows.clear()
        for name, overrides in (
            ("surveillance", {"cameras": 4, "frames": 16}),
            ("video_wall", {"tiles": 4, "frames": 16}),
            ("transcode_farm", {"workers": 2, "clips": 1, "frames": 16}),
        ):
            report = run_scenario(name, overrides=overrides, out=io.StringIO())
            rows.append([
                name,
                len(report.sessions),
                report.total_frames,
                f"{report.frames_per_second:.0f}",
                f"{100.0 * report.cache.hit_rate:.0f}%",
            ])
        return rows

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    show(render_table(
        ["scenario", "sessions", "frames", "frames/s", "cache hit rate"],
        rows,
        title="multi-stream scenarios, shared cache on",
    ))
    # Every one of these scenarios carries duplicate work; all must hit.
    assert all(r[4] != "0%" for r in rows)
