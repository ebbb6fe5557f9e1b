"""In-memory span recorder for the traced benchmark run.

A span is one call of a wrapped callable: its layer, its name, its wall
start and end in ``time.perf_counter`` seconds, the span that was open
when it started (its parent) and the engine segment it belongs to.  The
recorder is single-threaded by design: the runtime runs one session step
at a time on one thread, so an explicit stack of open spans gives every
span its parent.

Spans stay in memory while the run is measured; :meth:`SpanRecorder.
write_chrome_trace` writes them out afterwards, so the file I/O never
lands inside a timed region.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter


@dataclass(slots=True)
class Span:
    layer: str
    name: str
    start: float = 0.0
    end: float = 0.0
    #: Index of the enclosing span in :attr:`SpanRecorder.spans`, -1 at
    #: the root.
    parent: int = -1
    #: Index of the ``MediaSession.step`` span this call ran under, -1
    #: outside any step.  All spans of one segment share it.
    segment: int = -1
    #: Wall time covered by direct child spans.
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """Span time minus the time its child spans cover."""
        return self.duration - self.child_s


class SpanRecorder:
    """Wraps callables so that each call records one :class:`Span`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._segment = -1
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, layer, name, fn, after=None, opens_segment=False):
        """Return ``fn`` wrapped to record a span per call.

        ``after(span, args, result)`` runs once the span is closed, for
        counters taken from the arguments or the result.  A wrapper with
        ``opens_segment`` starts a new segment id (its own span index)
        that every nested span inherits.
        """
        spans = self.spans
        open_spans = self._open

        def wrapped(*args, **kwargs):
            index = len(spans)
            parent = open_spans[-1] if open_spans else -1
            outer = self._segment
            if opens_segment:
                self._segment = index
            span = Span(layer, name, parent=parent, segment=self._segment)
            spans.append(span)
            open_spans.append(index)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                open_spans.pop()
                self._segment = outer
                if parent >= 0:
                    spans[parent].child_s += span.end - span.start
            if after is not None:
                after(span, args, result)
            return result

        return wrapped

    def patch(self, owner, attr, layer, after=None, opens_segment=False):
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) by a
        recording wrapper until :meth:`restore`."""
        is_dict = isinstance(owner, dict)
        original = owner[attr] if is_dict else getattr(owner, attr)
        label = attr if is_dict else f"{getattr(owner, '__name__', owner)}.{attr}"
        wrapped = self.wrap(layer, label, original, after, opens_segment)
        if is_dict:
            owner[attr] = wrapped
        else:
            setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def write_chrome_trace(self, path: Path, metadata: dict) -> None:
        """Write the spans as Chrome trace-event JSON (Perfetto opens it)."""
        origin = self.spans[0].start if self.spans else 0.0
        events = [
            {
                "name": s.name,
                "cat": s.layer,
                "ph": "X",
                "ts": (s.start - origin) * 1e6,
                "dur": s.duration * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {
                    "parent": s.parent,
                    "segment": s.segment,
                    "self_us": s.self_s * 1e6,
                },
            }
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"traceEvents": events, "otherData": metadata})
        )
