"""Tests for :mod:`repro.obs` — tracing, metrics, clocks, exporters.

The load-bearing contracts:

* traces live on the engine's *virtual* timeline, so the same scenario
  and seeds produce byte-identical Chrome trace JSON under every
  scheduler;
* spans nest: each session track is a laminar family (session ->
  segment -> stage), PE and network tracks never self-overlap;
* the trace reconciles with the report — per-session segment-span time
  equals ``virtual_busy_s``, per-PE span time equals
  ``pe_utilization * makespan``;
* the metrics registry the engine fills agrees with the report's own
  numbers;
* the CLI flags (``--trace-out``, ``--trace-jsonl``, ``--metrics-json``,
  ``--quiet``) produce the files and nothing else.
"""

import itertools
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.channel import make_channel
from repro.net.delivery import DeliveryPipe, attach_delivery
from repro.obs import (
    NULL_TRACER,
    Counter,
    Gauge,
    Histogram,
    ManualClock,
    MetricsRegistry,
    TraceRecorder,
    Tracer,
    WallClock,
    chrome_trace_events,
    dumps_chrome_trace,
    iter_jsonl_events,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.runtime import (
    SCHEDULERS,
    MediaSession,
    SegmentCache,
    SegmentResult,
    StreamEngine,
    make_scheduler,
)
from repro.runtime.run import main as cli_main
from repro.runtime.scenarios import REGISTRY

from strategies.scenario_pin import platform_for

#: Absolute slack for float comparisons on virtual timestamps (spans
#: are built from cumulative float sums; boundaries can wobble an ulp).
TOL = 1e-9


class StubSession(MediaSession):
    """Deterministic no-codec session: fixed ops per segment."""

    kind = "stub"

    def __init__(
        self,
        name,
        segments=4,
        ops=1e6,
        frames_per_segment=1,
        rate_hz=None,
        stages=("alu",),
        fingerprint=None,
    ):
        super().__init__(name, rate_hz=rate_hz)
        self._n = segments
        self._ops = ops
        self.nominal_segment_frames = frames_per_segment
        self._stages = tuple(stages)
        #: Shared fingerprints make identical stubs cache-share.
        self._fp = fingerprint or f"stub({name})"

    def estimated_stage_ops(self):
        return {s: self._ops for s in self._stages}

    def _input_count(self):
        return self._n

    def _input(self, k):
        return k + 1

    def _payload(self, batch):
        return str(batch).encode()

    def _fingerprint(self):
        return self._fp

    def _process(self, batch, clean):
        return SegmentResult(
            data=f"{self._fp}:{batch};".encode(),
            frames=self.nominal_segment_frames,
            bits=8,
            stage_ops={s: self._ops for s in self._stages},
        )


def _overlap(a, b) -> float:
    return min(a.end_s, b.end_s) - max(a.start_s, b.start_s)


def assert_laminar(spans, tol=TOL):
    """Any two spans either (nearly) don't overlap or strictly nest."""
    for a, b in itertools.combinations(spans, 2):
        if _overlap(a, b) <= tol:
            continue
        assert a.contains(b, tol) or b.contains(a, tol), (
            f"spans overlap without nesting: {a} / {b}"
        )


def assert_well_nested(recorder, tol=TOL):
    """The full span-nesting invariant for an engine-produced trace."""
    for track in recorder.tracks():
        spans = recorder.spans_on(track)
        if not spans:
            continue
        assert_laminar(spans, tol)
        parents = [s for s in spans if s.cat == "session"]
        if parents:  # a session track: everything inside the parent
            (parent,) = parents
            for span in spans:
                assert parent.contains(span, tol)
        for cat in ("segment", "pe", "packet"):
            peers = [s for s in spans if s.cat == cat]
            for a, b in itertools.combinations(peers, 2):
                assert _overlap(a, b) <= tol, (
                    f"sibling {cat} spans overlap on {track}: {a} / {b}"
                )


# ------------------------------------------------------------- clocks


class TestClocks:
    def test_wall_clock_is_monotonic(self):
        clock = WallClock()
        a, b = clock.now(), clock.now()
        assert b >= a

    def test_manual_clock_stands_still_by_default(self):
        clock = ManualClock(start=5.0)
        assert clock.now() == 5.0
        assert clock.now() == 5.0

    def test_manual_clock_ticks_per_read(self):
        clock = ManualClock(start=1.0, tick_s=0.25)
        assert clock.now() == 1.0
        assert clock.now() == 1.25
        assert clock.now() == 1.5

    def test_manual_clock_explicit_tick(self):
        clock = ManualClock()
        clock.tick(2.5)
        assert clock.now() == 2.5

    def test_manual_clock_rejects_negative_tick(self):
        with pytest.raises(ValueError):
            ManualClock().tick(-1.0)


# ------------------------------------------------------------ metrics


class TestMetrics:
    def test_counter_accumulates(self):
        c = Counter("c")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_rejects_decrease(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)

    def test_gauge_last_write_wins(self):
        g = Gauge("g")
        g.set(1.0)
        g.set(7.0)
        assert g.value == 7.0

    def test_histogram_exact_quantiles(self):
        h = Histogram("h")
        for v in [5.0, 1.0, 3.0, 2.0, 4.0]:
            h.observe(v)
        assert h.quantile(0.5) == 3.0
        assert h.quantile(0.0) == 1.0
        assert h.quantile(1.0) == 5.0
        summary = h.summary()
        assert summary["count"] == 5
        assert summary["mean"] == 3.0
        assert summary["p50"] == 3.0

    def test_histogram_empty_summary(self):
        h = Histogram("h")
        assert h.summary() == {"count": 0}
        assert h.quantile(0.5) is None

    def test_histogram_rejects_bad_quantile(self):
        h = Histogram("h")
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_registry_reregistration_returns_same_instrument(self):
        m = MetricsRegistry()
        assert m.counter("x") is m.counter("x")

    def test_registry_kind_mismatch_is_an_error(self):
        m = MetricsRegistry()
        m.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            m.gauge("x")

    def test_registry_get_unknown_raises(self):
        with pytest.raises(KeyError, match="no metric named"):
            MetricsRegistry().get("nope")

    def test_registry_to_dict_buckets_by_kind(self):
        m = MetricsRegistry()
        m.counter("a.total").inc(3)
        m.gauge("b.level").set(0.5)
        m.histogram("c.dist").observe(1.0)
        d = m.to_dict()
        assert d["counters"] == {"a.total": 3.0}
        assert d["gauges"] == {"b.level": 0.5}
        assert d["histograms"]["c.dist"]["count"] == 1

    def test_registry_render_lists_every_metric(self):
        m = MetricsRegistry()
        m.counter("a.total", "things").inc(3)
        m.histogram("c.dist").observe(1.0)
        text = m.render()
        assert "a.total" in text and "c.dist" in text


# ------------------------------------------------------------- tracer


class TestTracer:
    def test_null_tracer_is_disabled_and_inert(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.span("t", "n", 0.0, 1.0) is None
        assert NULL_TRACER.instant("t", "n", 0.0) is None
        assert NULL_TRACER.counter("t", "n", 0.0, 1.0) is None

    def test_base_tracer_class_is_the_null_tracer(self):
        assert type(NULL_TRACER) is Tracer

    def test_recorder_rejects_backwards_span(self):
        with pytest.raises(ValueError, match="ends before it starts"):
            TraceRecorder().span("t", "n", 2.0, 1.0)

    def test_tracks_in_first_appearance_order(self):
        r = TraceRecorder()
        r.span("b", "x", 0.0, 1.0)
        r.span("a", "y", 0.0, 1.0)
        r.instant("c", "z", 0.5)
        assert r.tracks() == ["b", "a", "c"]

    def test_busy_s_filters_by_category(self):
        r = TraceRecorder()
        r.span("t", "a", 0.0, 1.0, cat="segment")
        r.span("t", "b", 0.0, 0.25, cat="stage")
        assert r.busy_s("t") == pytest.approx(1.25)
        assert r.busy_s("t", "segment") == pytest.approx(1.0)


# ------------------------------------------------- engine integration


def _run_traced(sessions, scheduler=None, cache=True, clock=None):
    recorder = TraceRecorder()
    engine = StreamEngine(
        sessions,
        cache=SegmentCache(64) if cache else None,
        use_cache=cache,
        scheduler=scheduler,
        trace=recorder,
        clock=clock,
    )
    return recorder, engine.run()


class TestEngineTracing:
    def test_disabled_engine_defaults_to_null_tracer(self):
        engine = StreamEngine([StubSession("s")])
        assert engine.trace is NULL_TRACER

    def test_session_parent_and_segment_spans(self):
        recorder, report = _run_traced(
            [StubSession("a", segments=3), StubSession("b", segments=2)]
        )
        for name, segments in (("a", 3), ("b", 2)):
            spans = recorder.spans_on(name)
            assert len([s for s in spans if s.cat == "session"]) == 1
            assert len([s for s in spans if s.cat == "segment"]) == segments
        assert_well_nested(recorder)

    def test_stage_spans_partition_the_compute_window(self):
        recorder, _ = _run_traced(
            [StubSession("a", segments=2, stages=("dct", "quant", "vlc"))],
            cache=False,
        )
        segments = [
            s for s in recorder.spans_on("a") if s.cat == "segment"
        ]
        for seg in segments:
            stages = [
                s
                for s in recorder.spans_on("a")
                if s.cat == "stage" and seg.contains(s)
            ]
            assert len(stages) == 3
            assert sum(s.dur_s for s in stages) == pytest.approx(seg.dur_s)
            # exact shared boundary at the segment end, not approximate
            assert max(s.end_s for s in stages) == seg.end_s

    def test_cache_hit_segments_carry_no_stage_spans(self):
        # Two identical stubs: the second session's segments come from
        # the cache and must show as bare segment spans (no stage work).
        recorder, report = _run_traced(
            [
                StubSession("a", segments=2, fingerprint="twin"),
                StubSession("b", segments=2, fingerprint="twin"),
            ]
        )
        assert report.cache.hits > 0
        hit_spans = [
            s
            for s in recorder.spans
            if s.cat == "segment" and s.args.get("from_cache")
        ]
        assert len(hit_spans) == report.cache.hits
        for seg in hit_spans:
            stages = [
                s
                for s in recorder.spans_on(seg.track)
                if s.cat == "stage" and seg.contains(s)
            ]
            assert stages == []

    def test_segment_busy_reconciles_with_report(self):
        recorder, report = _run_traced(
            [StubSession("a", segments=3), StubSession("b", segments=2)]
        )
        for summary in report.sessions:
            assert recorder.busy_s(summary.name, "segment") == pytest.approx(
                summary.virtual_busy_s, abs=TOL
            )

    def test_deadline_args_recorded_for_rated_sessions(self):
        recorder, report = _run_traced(
            [StubSession("a", segments=3, rate_hz=1000.0)]
        )
        segs = [s for s in recorder.spans_on("a") if s.cat == "segment"]
        assert all(s.args["deadline_s"] is not None for s in segs)
        assert (
            sum(bool(s.args["missed"]) for s in segs)
            == report.sessions[0].deadline_misses
        )

    def test_counter_series_track_cache_hits(self):
        recorder, report = _run_traced(
            [
                StubSession("a", segments=2, fingerprint="twin"),
                StubSession("b", segments=2, fingerprint="twin"),
            ]
        )
        hits = [c for c in recorder.counters if c.name == "cache_hits"]
        assert len(hits) == report.steps
        assert hits[-1].value == report.cache.hits
        # cumulative series never decreases
        assert all(
            a.value <= b.value for a, b in zip(hits, hits[1:])
        )

    def test_manual_clock_pins_elapsed(self):
        _, report = _run_traced(
            [StubSession("a")], clock=ManualClock(tick_s=0.125)
        )
        assert report.elapsed_s == 0.125  # exactly one start/stop pair

    def test_wall_clock_is_the_default(self):
        engine = StreamEngine([StubSession("a")])
        assert isinstance(engine.clock, WallClock)


class TestPlatformTracing:
    @pytest.fixture(scope="class")
    def traced_farm(self):
        scenario = REGISTRY.get("transcode_farm")
        sessions = scenario.sessions(workers=2, clips=1, frames=8)
        platform = platform_for(scenario)
        recorder = TraceRecorder()
        engine = StreamEngine(
            sessions,
            cache=SegmentCache(64),
            scheduler=make_scheduler("platform", platform=platform),
            trace=recorder,
        )
        return recorder, engine.run()

    def test_pe_tracks_present(self, traced_farm):
        recorder, report = traced_farm
        pe_tracks = [t for t in recorder.tracks() if t.startswith("pe")]
        assert pe_tracks
        assert {int(t[2:]) for t in pe_tracks} <= set(report.pe_utilization)

    def test_pe_busy_reconciles_with_utilization(self, traced_farm):
        """Acceptance: per-PE trace time equals the report's busy time."""
        recorder, report = traced_farm
        for pe, util in report.pe_utilization.items():
            assert recorder.busy_s(f"pe{pe}") == pytest.approx(
                util * report.virtual_makespan_s, abs=1e-9
            )

    def test_session_busy_reconciles(self, traced_farm):
        """Acceptance: per-session trace time equals virtual busy time."""
        recorder, report = traced_farm
        for summary in report.sessions:
            assert recorder.busy_s(summary.name, "segment") == pytest.approx(
                summary.virtual_busy_s, abs=1e-9
            )

    def test_trace_is_well_nested(self, traced_farm):
        recorder, _ = traced_farm
        assert_well_nested(recorder)


# --------------------------------------------------- trace determinism


def _scenario_trace(scenario_name, params, sched_name):
    scenario = REGISTRY.get(scenario_name)
    sessions = scenario.sessions(**params)
    recorder = TraceRecorder()
    engine = StreamEngine(
        sessions,
        cache=SegmentCache(64),
        scheduler=make_scheduler(
            sched_name, platform=platform_for(scenario)
        ),
        trace=recorder,
        clock=ManualClock(),  # elapsed_s pinned too
    )
    report = engine.run()
    return recorder, report


class TestTraceDeterminism:
    @pytest.mark.parametrize("sched_name", sorted(SCHEDULERS))
    def test_trace_bytes_identical_across_runs(self, sched_name):
        """Same seed + scenario => byte-identical trace JSON, for every
        scheduler (the schedule differs *between* policies by design)."""
        args = ("transcode_farm", {"workers": 2, "clips": 1, "frames": 8})
        first, _ = _scenario_trace(*args, sched_name)
        second, _ = _scenario_trace(*args, sched_name)
        assert dumps_chrome_trace(first) == dumps_chrome_trace(second)
        assert list(iter_jsonl_events(first)) == list(
            iter_jsonl_events(second)
        )

    def test_delivery_traces_deterministic(self):
        def run():
            scenario = REGISTRY.get("set_top_box")
            sessions = scenario.sessions(frames=8)
            recorder = TraceRecorder()
            attach_delivery(
                sessions, kind="iid", loss_rate=0.1, fec_group=4, seed=7
            )
            StreamEngine(
                sessions,
                cache=SegmentCache(64),
                trace=recorder,
                clock=ManualClock(),
            ).run()
            return recorder

        assert dumps_chrome_trace(run()) == dumps_chrome_trace(run())

    @given(
        segment_counts=st.lists(
            st.integers(min_value=1, max_value=5), min_size=1, max_size=4
        ),
        ops=st.floats(min_value=1e3, max_value=1e8),
        rated=st.booleans(),
        sched_name=st.sampled_from(["roundrobin", "weighted_fair", "edf"]),
    )
    def test_property_every_trace_is_well_nested(
        self, segment_counts, ops, rated, sched_name
    ):
        sessions = [
            StubSession(
                f"s{i}",
                segments=n,
                ops=ops * (i + 1),
                rate_hz=30.0 if rated else None,
                stages=("front", "back"),
            )
            for i, n in enumerate(segment_counts)
        ]
        recorder = TraceRecorder()
        StreamEngine(
            sessions,
            cache=SegmentCache(16),
            scheduler=make_scheduler(sched_name),
            trace=recorder,
        ).run()
        assert_well_nested(recorder)
        for i, n in enumerate(segment_counts):
            segs = [
                s for s in recorder.spans_on(f"s{i}") if s.cat == "segment"
            ]
            assert len(segs) == n


# --------------------------------------------------- delivery tracing


class TestDeliveryTracing:
    def _pipe(self, recorder, **kwargs):
        channel = make_channel("iid", loss_rate=0.3, seed=11)
        return DeliveryPipe(
            channel,
            mtu=64,
            tracer=recorder,
            trace_track="net/test",
            **kwargs,
        )

    def test_packet_spans_match_packets_sent(self):
        recorder = TraceRecorder()
        pipe = self._pipe(recorder, fec_group=4)
        delivered = pipe.transport(bytes(range(256)) * 4)
        spans = recorder.spans_on("net/test")
        assert len(spans) == delivered.packets_sent
        assert all(s.cat == "packet" for s in spans)

    def test_lost_packets_get_instant_markers(self):
        recorder = TraceRecorder()
        pipe = self._pipe(recorder)
        delivered = pipe.transport(bytes(range(256)) * 8)
        lost_marks = [
            i for i in recorder.instants if i.track == "net/test"
        ]
        assert len(lost_marks) == delivered.packets_lost
        assert delivered.packets_lost > 0  # 30% loss on 30+ packets

    def test_packet_spans_are_serialization_windows(self):
        """FIFO serialization windows never overlap — the net lane reads
        as true link occupancy."""
        recorder = TraceRecorder()
        pipe = self._pipe(recorder)
        pipe.transport(bytes(range(256)) * 8)
        spans = sorted(
            recorder.spans_on("net/test"), key=lambda s: s.start_s
        )
        for a, b in zip(spans, spans[1:]):
            assert b.start_s >= a.end_s - TOL

    def test_engine_binds_its_tracer_to_pipes(self):
        scenario = REGISTRY.get("set_top_box")
        sessions = scenario.sessions(frames=8)
        attach_delivery(sessions, kind="iid", loss_rate=0.05, seed=3)
        recorder = TraceRecorder()
        report = StreamEngine(
            sessions, cache=SegmentCache(64), trace=recorder
        ).run()
        net_tracks = [
            t for t in recorder.tracks() if t.startswith("net/")
        ]
        with_pipes = [
            s for s in report.sessions if s.delivery is not None
        ]
        assert len(net_tracks) == len(with_pipes)
        sent = sum(s.delivery["packets_sent"] for s in with_pipes)
        assert (
            len([s for s in recorder.spans if s.cat == "packet"]) == sent
        )


# ----------------------------------------------------- metrics filling


class TestEngineMetrics:
    HISTOGRAMS = ["deadline.slack_s", "session.latency_s",
                  "session.segment_cost_s"]

    def test_registry_holds_the_three_histograms(self):
        _, report = _run_traced(
            [
                StubSession("a", segments=3, rate_hz=1000.0),
                StubSession("b", segments=3),
            ]
        )
        m = report.metrics
        assert m.names() == self.HISTOGRAMS
        assert m.get("deadline.slack_s").count == report.total_deadlines
        for name in ("session.latency_s", "session.segment_cost_s"):
            assert m.get(name).count == report.steps == sum(
                s.segments for s in report.sessions
            )

    def test_registry_holds_no_totals_with_pipes(self):
        scenario = REGISTRY.get("set_top_box")
        sessions = scenario.sessions(frames=8)
        attach_delivery(
            sessions, kind="iid", loss_rate=0.1, fec_group=4, seed=7
        )
        report = StreamEngine(sessions, cache=SegmentCache(64)).run()
        assert report.delivery["packets_sent"] > 0
        assert report.metrics.names() == self.HISTOGRAMS

    def test_report_dict_emits_each_number_once(self):
        _, report = _run_traced([StubSession("a")])
        payload = report.to_dict()
        assert payload["metrics"]["counters"] == {}
        assert payload["metrics"]["gauges"] == {}
        assert sorted(payload["metrics"]["histograms"]) == self.HISTOGRAMS
        assert payload["steps"] == report.steps
        assert payload["cache"]["lookups"] == report.cache.lookups
        assert payload["cache"]["ops_saved_total"] == sum(
            report.cache.ops_saved.values()
        )


# ------------------------------------------------------------ export


class TestExport:
    def _recorder(self):
        r = TraceRecorder()
        r.span("alpha", "alpha", 0.0, 2.0, cat="session")
        r.span("alpha", "segment[0]", 0.0, 1.0, cat="segment")
        r.span("pe0", "alpha[0]", 0.0, 0.5, cat="pe")
        r.span("net/alpha", "pkt0", 0.1, 0.2, cat="packet")
        r.instant("net/alpha", "lost", 0.2, cat="packet")
        r.counter("engine", "cache_hits", 1.0, 3.0)
        return r

    def test_document_shape(self):
        doc = to_chrome_trace(self._recorder(), {"scenario": "x"})
        assert sorted(doc) == [
            "displayTimeUnit", "otherData", "traceEvents",
        ]
        assert doc["otherData"] == {"scenario": "x"}

    def test_metadata_names_processes_and_threads(self):
        events = chrome_trace_events(self._recorder())
        meta = [e for e in events if e["ph"] == "M"]
        assert all(
            events.index(m) < min(
                events.index(e) for e in events if e["ph"] != "M"
            )
            for m in meta
        )
        threads = {
            e["args"]["name"]: e["pid"]
            for e in meta
            if e["name"] == "thread_name"
        }
        processes = {
            e["pid"]: e["args"]["name"]
            for e in meta
            if e["name"] == "process_name"
        }
        assert processes[threads["alpha"]] == "sessions"
        assert processes[threads["pe0"]] == "platform"
        assert processes[threads["net/alpha"]] == "network"
        assert processes[threads["engine"]] == "engine"

    def test_span_event_fields(self):
        events = chrome_trace_events(self._recorder())
        seg = next(e for e in events if e.get("name") == "segment[0]")
        assert seg["ph"] == "X"
        assert seg["ts"] == 0.0
        assert seg["dur"] == pytest.approx(1e6)  # virtual s -> trace us

    def test_counter_and_instant_phases(self):
        events = chrome_trace_events(self._recorder())
        assert any(
            e["ph"] == "C" and e["args"] == {"value": 3.0} for e in events
        )
        assert any(
            e["ph"] == "i" and e["name"] == "lost" for e in events
        )

    def test_write_chrome_trace_round_trips(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(path, self._recorder(), {"k": "v"})
        doc = json.loads(path.read_text())
        assert doc["otherData"] == {"k": "v"}
        assert len(doc["traceEvents"]) > 0

    def test_write_jsonl_round_trips(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        recorder = self._recorder()
        write_jsonl(path, recorder)
        lines = [
            json.loads(line)
            for line in path.read_text().splitlines()
        ]
        assert len(lines) == (
            len(recorder.spans)
            + len(recorder.instants)
            + len(recorder.counters)
        )
        kinds = {line["type"] for line in lines}
        assert kinds == {"span", "instant", "counter"}

    def test_dumps_is_canonical(self):
        text = dumps_chrome_trace(self._recorder())
        assert text == json.dumps(
            json.loads(text), sort_keys=True, separators=(",", ":")
        )


# --------------------------------------------------------------- CLI


class TestCLI:
    def test_trace_out_writes_loadable_chrome_trace(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert cli_main([
            "transcode_farm", "--set", "clips=1", "--set", "frames=8",
            "--trace-out", str(path), "--quiet",
        ]) == 0
        assert capsys.readouterr().out == ""
        doc = json.loads(path.read_text())
        assert doc["otherData"]["scenario"] == "transcode_farm"
        tracks = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert any(t.startswith("pe") for t in tracks)  # platform lanes
        assert any(e["ph"] == "X" for e in doc["traceEvents"])

    def test_trace_jsonl_and_metrics_json(self, tmp_path, capsys):
        jsonl = tmp_path / "events.jsonl"
        metrics = tmp_path / "metrics.json"
        assert cli_main([
            "quickstart", "--set", "frames=8",
            "--trace-jsonl", str(jsonl),
            "--metrics-json", str(metrics), "--quiet",
        ]) == 0
        capsys.readouterr()
        events = [
            json.loads(line) for line in jsonl.read_text().splitlines()
        ]
        assert any(e["type"] == "span" for e in events)
        doc = json.loads(metrics.read_text())
        assert doc["counters"] == {} and doc["gauges"] == {}
        assert sorted(doc["histograms"]) == TestEngineMetrics.HISTOGRAMS

    def test_quiet_without_files_prints_nothing(self, capsys):
        assert cli_main([
            "quickstart", "--set", "frames=8", "--quiet",
        ]) == 0
        assert capsys.readouterr().out == ""

    def test_json_includes_metrics_and_cache_breakdown(self, capsys):
        assert cli_main([
            "quickstart", "--set", "frames=8", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        cache = payload["cache"]
        assert {"lookups", "ops_saved", "ops_saved_total"} <= set(cache)
        assert cache["ops_saved_total"] == pytest.approx(
            sum(cache["ops_saved"].values())
        )
        assert "session.latency_s" in payload["metrics"]["histograms"]

    def test_json_delivery_totals_include_duplicates(self, capsys):
        assert cli_main([
            "set_top_box", "--set", "frames=8",
            "--channel", "iid", "--loss", "0.1", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "packets_duplicate" in payload["delivery"]
        session_delivery = [
            s["delivery"] for s in payload["sessions"] if s["delivery"]
        ]
        assert all("packets_duplicate" in d for d in session_delivery)

    def test_trace_determinism_through_the_cli(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert cli_main([
                "set_top_box", "--set", "frames=8",
                "--channel", "iid", "--fec", "4",
                "--trace-out", str(path), "--quiet",
            ]) == 0
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()
