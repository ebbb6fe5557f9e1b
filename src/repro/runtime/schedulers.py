"""Pluggable virtual-time schedulers for the streaming engine.

The engine advances sessions segment-by-segment on a single *virtual*
timeline: input frames arrive at each session's contracted ``rate_hz``,
a scheduler picks which ready session runs next, and the segment's
measured ``stage_ops`` are converted into virtual seconds of service.
Scheduling therefore affects only *when* segments run — never what they
produce (``tests/test_runtime_schedulers.py`` pins bit-identical
bitstreams across every policy here).

Four policies ship:

* :class:`RoundRobin` — the legacy sweep, one segment per session per
  cycle in construction order;
* :class:`WeightedFair` — weighted fair queueing via virtual finish tags
  (stride scheduling), so service shares follow the weights;
* :class:`EDF` — earliest-deadline-first over the sessions' rate-derived
  segment deadlines, with misses counted;
* :class:`PlatformMapped` — segment cost comes from binding the measured
  stage chain onto an :class:`repro.mpsoc.Platform` through the
  discrete-event evaluator (:func:`repro.mapping.evaluate.segment_cost`),
  so accelerator affinity and interconnect contention shape the schedule
  and per-PE busy time is accounted.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from ..mapping.evaluate import SegmentCostTrace, segment_cost
from ..mpsoc.platform import Platform
from .profiles import stage_application
from .session import MediaSession, SegmentResult


@dataclass
class SessionClock:
    """Per-session ledger the engine keeps while a run is in flight."""

    session: MediaSession
    #: Position in the engine's session list (round-robin order and the
    #: tie-break of the engine's release heap).
    index: int = 0
    weight: float = 1.0
    #: WFQ service tag: virtual finish time of the last charged segment.
    virtual_finish: float = 0.0
    #: Total virtual service time consumed by this session.
    busy_s: float = 0.0

    @property
    def name(self) -> str:
        return self.session.name

    @property
    def finished(self) -> bool:
        return self.session.finished

    def release(self) -> float:
        return self.session.next_release()

    def deadline(self) -> float:
        return self.session.next_deadline()


class Scheduler:
    """Policy choosing which ready session runs its next segment.

    A policy is a priority over ready clocks.  :meth:`key` gives a
    clock's priority (smaller runs first; keys are unique, as session
    names and sweep positions are), and the engine keeps its released clocks in one
    heap of ``(key, index, clock)`` entries.  :meth:`select` pops the
    entry to run; the engine calls it exactly once per step.  A key is
    computed when a clock enters the ready heap and never recomputed
    while it waits there, so it may depend only on state that changes
    when *that* clock steps or is charged (its release, deadline or
    virtual-finish tag) — plus, for :class:`RoundRobin`, the rotation
    cursor, which never passes a waiting clock.  Per step the engine
    pays O(log sessions), whatever the run length.

    Also owns the *cost model*: :meth:`segment_cost` converts a finished
    segment's measured profile into virtual seconds.  The default charges
    ``total ops / ops_per_second``, with cache hits costing a small
    fraction (a hit is a hash lookup, not an encode).
    """

    name = "scheduler"
    #: RTOS test the engine's admission gate runs for this policy:
    #: deadline-driven policies earn the exact EDF utilization test;
    #: deadline-blind ones get the more conservative fixed-priority RM
    #: analysis.  Either way admission checks declared *estimates* — a
    #: necessary condition, not a per-schedule guarantee.
    admission_policy = "rm"

    def __init__(
        self,
        ops_per_second: float = 100e6,
        cache_hit_factor: float = 0.05,
    ) -> None:
        if ops_per_second <= 0:
            raise ValueError("virtual service rate must be positive")
        if cache_hit_factor < 0:
            raise ValueError("cache hit factor cannot be negative")
        self.ops_per_second = ops_per_second
        self.cache_hit_factor = cache_hit_factor

    def bind(self, clocks: list[SessionClock]) -> None:
        """Called once before the run with every session's clock."""

    def key(self, clock: SessionClock):
        """Ready-heap priority of ``clock``; the smallest runs next."""
        raise NotImplementedError

    def select(self, ready: list) -> SessionClock:
        """Pop the ready heap's smallest ``(key, index, clock)`` entry."""
        return heapq.heappop(ready)[2]

    def segment_cost(
        self, clock: SessionClock, result: SegmentResult, from_cache: bool
    ) -> float:
        cost = sum(result.stage_ops.values()) / self.ops_per_second
        return cost * self.cache_hit_factor if from_cache else cost

    def charge(self, clock: SessionClock, cost: float) -> None:
        """Account ``cost`` virtual seconds of service to ``clock``."""
        clock.busy_s += cost
        clock.virtual_finish += cost / clock.weight

    def estimate_cost_s(self, session: MediaSession) -> float | None:
        """Pre-run WCET estimate of one segment, priced like this
        scheduler will price the real segments (the admission gate must
        test the cost model the run actually uses)."""
        ops = session.estimated_segment_ops()
        return None if ops is None else ops / self.ops_per_second


class RoundRobin(Scheduler):
    """The legacy schedule: one segment per session per sweep, in
    construction order, skipping finished sessions.  With unrated
    sessions (no release gating) this reproduces the original engine's
    step order exactly."""

    name = "roundrobin"

    def bind(self, clocks: list[SessionClock]) -> None:
        self._sessions = len(clocks)
        self._cursor = 0

    def key(self, clock: SessionClock) -> int:
        # The cursor value at which a sweep from the cursor reaches this
        # clock.  It stays exact while the clock waits: every select
        # leaves the cursor just past the smallest ready key.
        cursor = self._cursor
        return cursor + (clock.index - cursor) % self._sessions

    def select(self, ready: list) -> SessionClock:
        position, _, clock = heapq.heappop(ready)
        self._cursor = position + 1
        return clock


class WeightedFair(Scheduler):
    """Weighted fair queueing: serve the smallest virtual finish tag.

    Each charged segment advances its session's tag by ``cost / weight``,
    so long-run service shares are proportional to the weights — the
    software analogue of a weighted TDMA wheel on a shared accelerator.
    """

    name = "weighted_fair"

    def __init__(
        self,
        weights: dict[str, float] | None = None,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        self.weights = dict(weights or {})
        for name, w in self.weights.items():
            if w <= 0:
                raise ValueError(f"weight for {name!r} must be positive")

    def bind(self, clocks: list[SessionClock]) -> None:
        for clock in clocks:
            clock.weight = self.weights.get(clock.name, clock.weight)

    def key(self, clock: SessionClock) -> tuple[float, str]:
        return clock.virtual_finish, clock.name


class EDF(Scheduler):
    """Earliest-deadline-first over rate-derived segment deadlines.

    Non-preemptive at segment granularity: among ready sessions the one
    whose next segment is due soonest runs; unrated sessions (deadline
    ``inf``) soak up the slack like background work (Section 8 of the
    paper: real-time and background computations share the machine).
    """

    name = "edf"
    admission_policy = "edf"

    def key(self, clock: SessionClock) -> tuple[float, str]:
        return clock.deadline(), clock.name


class PlatformMapped(EDF):
    """EDF dispatch with platform-derived segment costs.

    Every *computed* segment's measured stage chain is bound onto the
    given platform (mapper + discrete-event simulation via
    :func:`repro.mapping.evaluate.segment_cost`), so a segment costs what
    the silicon would take — accelerators shorten it, bus contention
    stretches it — and per-PE busy time accumulates into the engine
    report's utilization figures.  Cache hits never touch the PEs: they
    cost the usual hit fraction of the mapped latency and add no busy
    time.  Identical profiles are memoized, so N duplicate streams pay
    for one mapping simulation.
    """

    name = "platform"

    def __init__(
        self,
        platform: Platform,
        algorithm: str = "greedy",
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        self.platform = platform
        self.algorithm = algorithm
        self.pe_busy: dict[int, float] = {pe: 0.0 for pe in platform.pe_ids()}
        #: Per-PE busy seconds of the most recently priced segment
        #: (empty for cache hits, which never touch the PEs) — the
        #: engine's tracer turns this into per-PE trace spans.
        self.last_segment_busy: dict[int, float] = {}
        self._memo: dict[tuple, SegmentCostTrace] = {}

    def bind(self, clocks: list[SessionClock]) -> None:
        # Per-run accounting restarts (the memoized costs are pure and
        # survive), so one instance can be reused across engine runs
        # without the previous run's busy time inflating utilization.
        super().bind(clocks)
        self.pe_busy = {pe: 0.0 for pe in self.platform.pe_ids()}

    def _mapped_cost(
        self, kind: str, stage_ops: dict[str, float]
    ) -> SegmentCostTrace:
        key = (kind, tuple(sorted(
            (stage, round(ops, 6)) for stage, ops in stage_ops.items()
        )))
        trace = self._memo.get(key)
        if trace is None:
            app = stage_application(f"{kind}_segment", stage_ops)
            trace = segment_cost(app, self.platform, algorithm=self.algorithm)
            self._memo[key] = trace
        return trace

    def segment_cost(
        self, clock: SessionClock, result: SegmentResult, from_cache: bool
    ) -> float:
        self.last_segment_busy = {}
        if not result.stage_ops:
            return 0.0
        trace = self._mapped_cost(clock.session.kind, result.stage_ops)
        if from_cache:
            return trace.latency_s * self.cache_hit_factor
        for pe, busy in trace.busy_time.items():
            self.pe_busy[pe] = self.pe_busy.get(pe, 0.0) + busy
        self.last_segment_busy = dict(trace.busy_time)
        return trace.latency_s

    def estimate_cost_s(self, session: MediaSession) -> float | None:
        profile = session.estimated_stage_ops()
        if not profile:
            return None
        return self._mapped_cost(
            f"{session.kind}_admission", profile
        ).latency_s


#: Scheduler registry for the CLI and scenario contracts.
SCHEDULERS = {
    "roundrobin": RoundRobin,
    "weighted_fair": WeightedFair,
    "edf": EDF,
    "platform": PlatformMapped,
}


def make_scheduler(
    spec: "str | Scheduler | None",
    platform: Platform | None = None,
    **kwargs,
) -> Scheduler:
    """Resolve a scheduler name (or pass an instance through).

    ``platform`` is required for (and only consumed by) ``"platform"``.
    """
    if spec is None:
        return RoundRobin(**kwargs)
    if isinstance(spec, Scheduler):
        return spec
    try:
        cls = SCHEDULERS[spec]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {spec!r}; choose from {sorted(SCHEDULERS)}"
        ) from None
    if cls is PlatformMapped:
        if platform is None:
            raise ValueError(
                "the 'platform' scheduler needs a Platform "
                "(pass --platform or pick a scenario with a device)"
            )
        return PlatformMapped(platform, **kwargs)
    return cls(**kwargs)
