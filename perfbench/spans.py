"""In-memory span recorder for the benchmark's traced runs.

A span is (name, start, end, parent, job): the layer it times, its
interval on ``time.perf_counter``, the index of the span that was open
when it began, and the job it belongs to.  Counts are recorded on the
span that is open when the work is done, so a ratio such as candidates
per second is formed from one boundary.  Spans are opened only in the
benchmark's own files, around calls into ``cosetqec``; the package runs
unmodified.  Everything stays in memory until the run writes it out.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "counts", "_tracer")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self.name = name
        self.start = self.end = 0.0
        self.parent: int | None = None
        self.job = tracer.job
        self.counts: dict[str, float] = {}

    def __enter__(self) -> "Span":
        tr = self._tracer
        self.parent = tr._stack[-1] if tr._stack else None
        tr._stack.append(len(tr.spans))
        tr.spans.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.end = time.perf_counter()
        self._tracer._stack.pop()
        return False

    def count(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value


class Tracer:
    """Records every span; ``job`` tags the spans opened after it is set."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.job = -1

    def span(self, name: str) -> Span:
        return Span(self, name)


class _NullSpan:
    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def count(self, key: str, value: float) -> None:
        pass


class NullTracer:
    """Tracing off: one shared no-op span, so a job pays a method call."""

    _span = _NullSpan()
    job = -1

    def span(self, name: str) -> _NullSpan:
        return self._span


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover
    (overlapping children are merged, and clipped to the parent)."""
    children: dict[int, list[int]] = defaultdict(list)
    for idx, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(idx)
    out = []
    for idx, s in enumerate(spans):
        pieces = sorted(
            (max(spans[c].start, s.start), min(spans[c].end, s.end))
            for c in children[idx]
        )
        covered = 0.0
        run_start = run_end = None
        for a, b in pieces:
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out.append(s.end - s.start - covered)
    return out


class JobLayers:
    """One job's layer totals: self time and calls per span name, and
    the sum of each count.  A name never seen reads 0."""

    def __init__(self) -> None:
        self.time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)


def per_job(spans: list[Span]) -> dict[int, JobLayers]:
    jobs: dict[int, JobLayers] = defaultdict(JobLayers)
    for s, own in zip(spans, self_times(spans)):
        layers = jobs[s.job]
        layers.time[s.name] += own
        layers.calls[s.name] += 1
        for key, value in s.counts.items():
            layers.counts[key] += value
    return dict(jobs)


def to_records(spans: list[Span]) -> list[dict]:
    return [
        {
            "name": s.name,
            "start": s.start,
            "end": s.end,
            "self": own,
            "parent": s.parent,
            "job": s.job,
            "counts": s.counts,
        }
        for s, own in zip(spans, self_times(spans))
    ]
