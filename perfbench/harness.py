"""Timed scenario runs, the reference check, and the end-to-end metrics.

A workload is one registered scenario at fixed sizes.  Its sessions are
built with ``Scenario.sessions(seed=...)`` a few times (timed:
``setup_s``, the median); then each *rep* runs a fresh copy of the built
sessions through ``StreamEngine.run()`` under the scenario's own
scheduler (timed: ``frames_per_s``), until the measuring time is used
up.  The run is a closed batch: every session exists before the engine
starts, and inputs arrive in virtual time at the device contract's
rates.  The reps repeat identical work (same inputs, same schedule), and
noise from other tenants of the machine can only slow a rep down, so run
and segment times take the fastest rep.

Outputs are checked against a reference run of the same sessions with
the cache off, one session at a time — the engine promises bit-identical
output under any interleaving.  A segment that differs from its
reference, or that a crashed engine run never produced, counts as
failed.
"""

from __future__ import annotations

import copy
import hashlib
import resource
import statistics
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import numpy as np

from repro.audio.encoder import AudioDecoder
from repro.runtime import scenarios
from repro.runtime.engine import StreamEngine
from repro.runtime.session import MediaSession, decode_with_concealment
from repro.video.decoder import VideoDecoder
from repro.video.metrics import psnr

#: Same cap the runtime uses for its delivery PSNR: identical signals
#: would read as infinite dB.
PSNR_CAP_DB = 99.0

#: Reps measured even when the time runs out first.
MIN_REPS = 3

#: Builds timed for ``setup_s``; the reps run copies of the last one, so
#: the measuring time goes to engine runs.
SETUPS = 3


@dataclass(frozen=True)
class Workload:
    scenario: str
    #: Scenario parameters for the measured run and for the smoke test.
    sizes: dict
    tiny: dict
    #: For decode-only workloads: regenerates the feed the broadcast was
    #: coded from, so the picture on screen can be scored.
    source: Callable[..., list] | None = None


WORKLOADS = {
    # Every worker pulls its own clip over its own lossy path: motion
    # search, decode + re-encode, transport and FEC, no cache hits.
    # Many short clips average out the content each seed draws.
    "transcode": Workload(
        "lossy_wan_transcode",
        sizes={"workers": 13, "clips": 13, "frames": 64},
        tiny={"workers": 2, "clips": 2, "frames": 16},
    ),
    # One broadcast on eight tiles: entropy decode for the first tile,
    # cache reads for the rest, so engine and cache-key cost show.
    "playback": Workload(
        "video_wall",
        sizes={"tiles": 8, "frames": 800},
        tiny={"tiles": 2, "frames": 16},
        source=lambda seed, frames, **_: scenarios.qcif_like(frames, seed),
    ),
    # Two hundred distinct voice rooms on an over-subscribed EDF bridge:
    # audio encode and per-step scheduling cost, no video.
    "bridge": Workload(
        "conference_bridge",
        sizes={"narrowband": 120, "wideband": 80},
        tiny={"narrowband": 2, "wideband": 1},
    ),
}

#: (metric, unit) of every end-to-end metric, in print order.
END_TO_END = (
    ("frames_per_s", "frames/s"),
    ("segment_ms_p50", "ms"),
    ("segment_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("deadline_miss_rate", "share"),
    ("virtual_makespan_s", "s"),
    ("bits_per_frame", "bits"),
    ("psnr_db", "dB"),
    ("error_rate", "share"),
)


@dataclass
class Rep:
    run_s: float
    report: object | None
    sessions: list[MediaSession]
    #: (session, segment index) -> wall seconds of each step that
    #: computed its segment (untraced reps only; cache hits excluded).
    computed_step_s: dict[tuple[str, int], float] = field(default_factory=dict)


@dataclass
class Measurement:
    """Everything one benchmark invocation measured."""

    reps: list[Rep] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    psnr_db: float = 0.0


@contextmanager
def timed_steps():
    """The only hook of the untraced run: two clock reads per step.
    Yields ``{(session, segment index): seconds}`` of computed steps."""
    samples: dict[tuple[str, int], float] = {}
    original = MediaSession.step

    def step(self, cache=None):
        hits = self.segments_from_cache
        start = perf_counter()
        result = original(self, cache)
        elapsed = perf_counter() - start
        if result is not None and self.segments_from_cache == hits:
            samples[self.name, len(self.segments) - 1] = elapsed
        return result

    MediaSession.step = step
    try:
        yield samples
    finally:
        MediaSession.step = original


def build(scenario, params: dict, seed: int) -> tuple[list, float]:
    """The scenario's sessions and the wall time of building them."""
    start = perf_counter()
    sessions = scenario.sessions(seed=seed, **params)
    return sessions, perf_counter() - start


def run_rep(scenario, sessions: list, trace=None) -> Rep:
    engine = StreamEngine(sessions, scheduler=scenario.default_scheduler)
    if trace is not None:
        trace.wrap_scheduler(engine.scheduler)
    start = perf_counter()
    try:
        report = engine.run()
    except Exception:
        # A crashed run still counts: its unfinished segments fail.
        traceback.print_exc()
        report = None
    return Rep(perf_counter() - start, report, sessions)


def segment_digests(session: MediaSession, memo: dict) -> list[bytes]:
    """One digest per segment: the coded bytes, plus the decoded luma for
    decode sessions (whose segments carry pictures, not bytes).  Cache
    hits share their result object, so ``memo`` hashes each once."""
    out = []
    for seg in session.segments:
        digest = memo.get(id(seg))
        if digest is None:
            h = hashlib.blake2b(seg.data, digest_size=16)
            for plane in seg.extras.get("luma", ()):
                h.update(np.ascontiguousarray(plane).tobytes())
            digest = memo[id(seg)] = h.digest()
        out.append(digest)
    return out


def reference_digests(sessions: list) -> dict[str, list[bytes]]:
    """Run ``sessions`` with the cache off, one at a time, and digest
    each one's segments (releasing its results before the next)."""
    digests = {}
    while sessions:
        session = sessions.pop(0)
        session.run_to_completion(cache=None)
        digests[session.name] = segment_digests(session, {})
    return digests


def failed_segments(rep: Rep, reference: dict) -> int:
    memo: dict = {}
    got = {s.name: segment_digests(s, memo) for s in rep.sessions}
    failed = 0
    for name, want in reference.items():
        have = got.get(name, [])
        failed += sum(
            1 for i, d in enumerate(want) if i >= len(have) or have[i] != d
        )
    return failed


# -- output quality ----------------------------------------------------------

def _capped_psnr(a, b, peak: float) -> float:
    return min(psnr(np.asarray(a), np.asarray(b), peak=peak), PSNR_CAP_DB)


def _decoded_luma(segments: list[bytes]) -> list[np.ndarray]:
    return [f.y for data in segments for f in VideoDecoder().decode(data).frames]


def _transcode_input(session) -> list[np.ndarray]:
    """The luma the session re-encoded: its (concealed) decode of what
    the channel delivered."""
    if session.delivery is None:
        return _decoded_luma(session.coded_segments)
    return [
        f.y
        for d, clean in zip(session.delivery_log, session.coded_segments)
        for f in decode_with_concealment(d.data, clean).frames
    ]


def session_psnr(session) -> float | None:
    """PSNR of a session's decoded coded output against the input it
    encoded; ``None`` for sessions without coded output.  Raises if an
    output segment does not decode."""
    coded = [seg.data for seg in session.segments]
    if session.kind == "audio_encode":
        pcm = np.concatenate([AudioDecoder().decode(d).pcm for d in coded])
        return _capped_psnr(session.pcm, pcm, peak=2.0)
    if session.kind == "video_encode":
        source = session.frames
    elif session.kind == "transcode":
        source = _transcode_input(session)
    else:
        return None
    return _capped_psnr(np.stack(source), np.stack(_decoded_luma(coded)), 255.0)


def output_quality(sessions, source_frames) -> tuple[float, int]:
    """Mean per-session PSNR and the number of segments of sessions whose
    output does not decode.  Decode-only sessions are scored against the
    source feed when the workload has one."""
    scores, undecodable = [], 0
    for s in sessions:
        try:
            score = session_psnr(s)
        except (EOFError, ValueError):
            undecodable += len(s.segments)
            continue
        if score is None and source_frames is not None:
            luma = [p for seg in s.segments for p in seg.extras["luma"]]
            score = _capped_psnr(np.stack(source_frames), np.stack(luma), 255.0)
        if score is not None:
            scores.append(score)
    return (statistics.fmean(scores) if scores else 0.0), undecodable


# -- the measurement -----------------------------------------------------------

def measure(
    name: str, seed: int, seconds: float, scale: str = "full", trace=None
) -> Measurement:
    """Run one workload for ``seconds``; with a :class:`layers.LayerTrace`
    every untraced rep is followed by a traced one."""
    workload = WORKLOADS[name]
    scenario = scenarios.REGISTRY.get(workload.scenario)
    params = workload.sizes if scale == "full" else workload.tiny
    # Untimed warm-up: builds the lru-cached code tables and imports the
    # lazily loaded platform models before any clock starts.
    run_rep(scenario, build(scenario, workload.tiny, seed)[0])

    m = Measurement()
    for _ in range(SETUPS):
        built, setup_s = build(scenario, params, seed)
        m.setup_s.append(setup_s)
    # The reference runs before any rep, so each rep is checked (and its
    # sessions released) as soon as it ends.
    reference = reference_digests(copy.deepcopy(built))
    per_rep = sum(len(d) for d in reference.values())

    def check(rep: Rep) -> None:
        m.attempted += per_rep
        m.failed += failed_segments(rep, reference)

    deadline = perf_counter() + seconds
    while True:
        started = perf_counter()
        sessions = copy.deepcopy(built)
        with timed_steps() as samples:
            rep = run_rep(scenario, sessions)
        rep.computed_step_s = samples
        check(rep)
        if m.reps:
            m.reps[-1].sessions = []  # only the last rep's are scored
        m.reps.append(rep)
        if trace is not None:
            with trace.installed():
                traced = run_rep(scenario, build(scenario, params, seed)[0], trace)
            if traced.report is not None:
                trace.expect(traced.report, traced.sessions)
            check(traced)
        loop_s = perf_counter() - started
        if len(m.reps) >= MIN_REPS and perf_counter() + loop_s > deadline:
            break

    source = (
        workload.source(seed=seed, **params) if workload.source else None
    )
    m.psnr_db, undecodable = output_quality(m.reps[-1].sessions, source)
    m.failed += undecodable
    return m


def end_to_end(m: Measurement) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics ``{name: (value, unit)}`` of an untraced
    measurement."""
    completed = [r for r in m.reps if r.report is not None]
    if not completed:
        raise RuntimeError("every engine run raised; nothing to report")
    last = completed[-1].report
    # Each computed segment's cost is its fastest time over the reps; the
    # percentiles describe how that cost varies across segments.
    segment_ms = [
        min(r.computed_step_s[key] for r in completed) * 1e3
        for key in completed[0].computed_step_s
    ]
    if len(segment_ms) < 2:
        raise RuntimeError("too few computed segments for percentiles")
    values = {
        "frames_per_s": max(
            r.report.total_frames / r.run_s for r in completed
        ),
        "segment_ms_p50": statistics.median(segment_ms),
        "segment_ms_p90": statistics.quantiles(segment_ms, n=10)[-1],
        "setup_s": statistics.median(m.setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "deadline_miss_rate": (
            last.total_deadline_misses / last.total_deadlines
            if last.total_deadlines else 0.0
        ),
        "virtual_makespan_s": last.virtual_makespan_s,
        "bits_per_frame": last.total_bits / last.total_frames,
        "psnr_db": m.psnr_db,
        "error_rate": m.failed / m.attempted,
    }
    return {k: (values[k], unit) for k, unit in END_TO_END}
