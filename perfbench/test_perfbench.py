"""Tests of the benchmark's own arithmetic and bookkeeping.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

import run
import spans
from workloads import WORKLOADS, Workload


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tail_percentile_leaves_ten_jobs_beyond(name):
    wl = WORKLOADS[name]
    for n in range(wl.min_jobs, 20 * wl.min_jobs):
        assert run.beyond_tail(n, wl.tail_pct) >= 10, n
        rng = random.Random(n)
        samples = sorted(rng.random() for _ in range(n))
        tail = samples[run.tail_rank(n, wl.tail_pct)]
        assert sum(s > tail for s in samples) >= 10, n
    # and it is the highest whole percentile that does so at min_jobs
    assert run.beyond_tail(wl.min_jobs, wl.tail_pct + 1) < 10


def test_tail_rank_is_nearest_rank():
    assert run.tail_rank(40, 75) == 29
    assert run.tail_rank(100, 95) == 94
    assert run.tail_rank(1, 75) == 0


def test_host_factor_is_the_reference_over_the_bracketing_probes():
    ref = run.PROBE_REF_S
    # the host halves its speed after the second probe
    probes = [ref, ref, 2 * ref, 2 * ref]
    assert run.host_factors(probes) == pytest.approx([1.0, 2 / 3, 0.5])
    # so a job twice as long on the slow host reads the same
    assert 0.2 * run.host_factors(probes)[0] == pytest.approx(
        0.4 * run.host_factors(probes)[2]
    )


def test_finish_scales_each_job_by_its_host_factor():
    ref = run.PROBE_REF_S
    r = run.Run()
    r.times = [0.1, 0.3]
    r.probes = [2 * ref, 2 * ref]
    scaled = r.finish()
    assert len(r.probes) == 3
    factors = run.host_factors(r.probes)
    assert scaled == pytest.approx([0.1 * factors[0], 0.3 * factors[1]])


def _span(tracer, name, start, end, parent=None, job=0):
    s = spans.Span(tracer, name)
    s.start, s.end, s.parent, s.job = start, end, parent, job
    tracer.spans.append(s)
    return len(tracer.spans) - 1


def test_self_time_on_nested_spans():
    tr = spans.Tracer()
    root = _span(tr, "job", 0.0, 10.0)
    a = _span(tr, "a", 1.0, 4.0, root)
    _span(tr, "b", 3.0, 6.0, root)  # overlaps a: the pair covers 1..6
    _span(tr, "a.inner", 2.0, 3.0, a)
    _span(tr, "c", 9.0, 12.0, root)  # runs past its parent: clipped to 9..10
    assert spans.self_times(tr.spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_self_time_of_recorded_spans_adds_up():
    tr = spans.Tracer()
    tr.job = 7
    with tr.span("job"):
        with tr.span("outer") as s:
            s.count("outer.items", 2)
            with tr.span("inner"):
                sum(range(10_000))
            s.count("outer.items", 3)
        with tr.span("inner"):
            pass
    own = spans.self_times(tr.spans)
    assert [s.name for s in tr.spans] == ["job", "outer", "inner", "inner"]
    assert [s.parent for s in tr.spans] == [None, 0, 1, 0]
    assert all(t >= 0 for t in own)
    assert sum(own) == pytest.approx(tr.spans[0].end - tr.spans[0].start)
    layers = spans.per_job(tr.spans)[7]
    assert layers.calls["inner"] == 2
    assert layers.counts["outer.items"] == 5
    assert layers.time["inner"] == pytest.approx(own[2] + own[3])
    assert layers.time["absent"] == 0.0


class _Fake(Workload):
    name, min_jobs = "fake", 3

    def job(self, cq, inp, tr):
        if inp == "raise":
            raise RuntimeError("job blew up")
        return {"value": inp}

    def check(self, cq, inp, out):
        return out["value"] == 1

    def units(self, inp, out):
        return 1.0


def test_wrong_output_and_exception_count_as_failed():
    wl, r = _Fake(), run.Run()
    for inp in (1, 2, "raise", 1):
        r.job(wl, None, inp, spans.NullTracer())
    assert len(r.times) == 4
    assert r.failed == 2
    assert "job blew up" in r.first_error


def _tamper_construct(out):
    out["correctable"] = not out["correctable"]


def _tamper_decode(out):
    k = next(k for k, hit in enumerate(out["found"]) if hit is not None)
    out["found"][k] = None


def _tamper_search(out):
    out["scan_tried"] -= 1


def _tamper_referee(out):
    out["cases"]["orthogonality"] += 1


TAMPER = {
    "construct": _tamper_construct,
    "decode": _tamper_decode,
    "search": _tamper_search,
    "referee": _tamper_referee,
}


class _Tampered(Workload):
    def __init__(self, inner: Workload, tamper) -> None:
        self.inner, self.tamper = inner, tamper
        self.name, self.min_jobs = inner.name, inner.min_jobs

    def job(self, cq, inp, tr):
        out = self.inner.job(cq, inp, tr)
        self.tamper(out)
        return out

    def check(self, cq, inp, out):
        return self.inner.check(cq, inp, out)

    def units(self, inp, out):
        return self.inner.units(inp, out)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_deliberately_wrong_output_is_counted_as_failed(name):
    cq = run.fresh_package()
    wl = WORKLOADS[name]
    inputs = wl.setup(cq, random.Random(3))
    r = run.Run()
    r.job(wl, cq, inputs[0], spans.NullTracer())
    assert (r.failed, r.first_error) == (0, "")
    r.job(_Tampered(wl, TAMPER[name]), cq, inputs[0], spans.NullTracer())
    assert (len(r.times), r.failed) == (2, 1)


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == [
        *run.PER_LAYER, "bench.trace_overhead_share"
    ]
    units = {name: unit for name, (unit, _) in run.PER_LAYER.items()}
    for m in spec["per_layer"][:-1]:
        assert m["unit"] == units[m["name"]]
    assert [m["name"] for m in spec["end_to_end"]] == [
        "job_p50_s", "job_tail_s", "work_per_s", "setup_s", "peak_rss_mb"
    ]
    assert Path(spec["command"][1]).parent.name == spec["paths"][0]
