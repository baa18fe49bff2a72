#!/usr/bin/env python3
"""Benchmark of the cosetqec pipeline: four closed-loop workloads, each
driven by one client in one thread of one process.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the package from
``src/`` and builds nothing.  With ``--trace 0`` the last line of
standard output holds the end-to-end metrics; with ``--trace 1`` it
holds the per-layer metrics of a traced run.  The line before it
describes the run (backend, commit, Python, CPUs, job count, tail
percentile, host-speed probe, wall-clock medians, output digest), and
the whole record, with every job time and, when traced, every span, is
written to ``perfbench/out/``.  See ``perfbench/README.md``.

Every timing metric is host-normalised: a short pure-Python loop that
uses nothing of cosetqec (the host probe) runs before each job and
after the last one, and a job's time is scaled by PROBE_REF_S over the
mean of the two probes around it.  A shared host has slow episodes that
the guest cannot see otherwise and that stretch the probe and the jobs
alike; on a 2-core box they moved raw job times by up to 2.2x and the
scaled times by under 10%.  A slower or faster program moves the job
time and not the probe, so it shows in full.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import spans
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_REPS = 5
SETUP_PROBES = 5
HARD_LIMIT_S = 120.0
# The host probe takes about PROBE_REF_S on a quiet host of the 2-core
# x86-64 box the benchmark was tuned on.  Host-normalised times read as
# seconds on a host where the probe takes exactly PROBE_REF_S.
PROBE_REF_S = 0.004

_ORACLE = ("oracle.dichotomy", "oracle.orthogonality", "oracle.knill_laflamme",
           "oracle.eigenvectors")


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def _time(name):
    return lambda j: j.time[name]


def _count(name):
    return lambda j: j.counts[name]


# Per-layer metrics, as medians over traced jobs.  A layer a workload
# never calls reads 0.  bench.trace_overhead_share comes from job times.
PER_LAYER = {
    "stabilizer.from_dict_s": ("s", _time("stabilizer.from_dict")),
    "stabilizer.closure_s": ("s", _time("stabilizer.closure")),
    "stabilizer.closure_elems": ("count", _count("stabilizer.closure_elems")),
    "codes.seed_state_s": ("s", _time("codes.seed_state")),
    "codes.seed_terms": ("count", _count("codes.seed_terms")),
    "codes.coset_representative_s": (
        "s",
        lambda j: _share(j.time["codes.coset_representative"],
                         j.calls["codes.coset_representative"]),
    ),
    "codes.build_code_s": ("s", _time("codes.build_code")),
    "classify.classify_s": ("s", _time("classify.classify")),
    "classify.seed_pairs": ("count", _count("classify.seed_pairs")),
    "cli.code_json_s": ("s", _time("cli.code_json")),
    "cli.code_load_s": ("s", _time("cli.code_load")),
    "pauli.error_parse_s": ("s", _time("pauli.error_parse")),
    "verify.check_correctable_s": ("s", _time("verify.check_correctable")),
    "verify.build_table_s": ("s", _time("verify.build_table")),
    "verify.table_entries": ("count", _count("verify.table_entries")),
    "verify.diagnose_s": ("s", _time("verify.diagnose")),
    "verify.diagnoses": ("count", _count("verify.diagnoses")),
    "verify.unknown_share": (
        "share",
        lambda j: _share(j.counts["verify.unknown"], j.counts["verify.diagnoses"]),
    ),
    "search.scan_s": ("s", _time("search.scan")),
    "search.scan_candidates": ("count", _count("search.scan_candidates")),
    "search.candidates_per_s": (
        "1/s",
        lambda j: _share(j.counts["search.scan_candidates"], j.time["search.scan"]),
    ),
    "search.hit_s": ("s", _time("search.hit")),
    "search.hit_index": ("count", _count("search.hit_index")),
    "search.hit_ratio": (
        "share",
        lambda j: _share(j.counts["search.hits"], j.counts["search.hit_candidates"]),
    ),
    "oracle.dichotomy_s": ("s", _time("oracle.dichotomy")),
    "oracle.dichotomy_cases": ("count", _count("oracle.dichotomy_cases")),
    "oracle.orthogonality_s": ("s", _time("oracle.orthogonality")),
    "oracle.orthogonality_cases": ("count", _count("oracle.orthogonality_cases")),
    "oracle.knill_laflamme_s": ("s", _time("oracle.knill_laflamme")),
    "oracle.knill_laflamme_cases": ("count", _count("oracle.knill_laflamme_cases")),
    "oracle.eigenvectors_s": ("s", _time("oracle.eigenvectors")),
    "oracle.eigenvectors_cases": ("count", _count("oracle.eigenvectors_cases")),
    "oracle.cases_per_s": (
        "1/s",
        lambda j: _share(sum(j.counts[o + "_cases"] for o in _ORACLE),
                         sum(j.time[o] for o in _ORACLE)),
    ),
    "selftest.run_selftest_s": ("s", _time("selftest.run_selftest")),
    "selftest.checks": ("count", _count("selftest.checks")),
}


def tail_rank(n: int, pct: int) -> int:
    """0-based index of the ``pct``-th percentile (nearest rank) of n
    sorted samples."""
    return max((pct * n + 99) // 100 - 1, 0)


def beyond_tail(n: int, pct: int) -> int:
    """Samples above the nearest-rank ``pct``-th percentile."""
    return n - 1 - tail_rank(n, pct)


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop that touches nothing of
    cosetqec: a slow host shows here, a slow program does not.  It fills
    and walks a dict and makes small objects, the kind of work the
    package's layers do, because the host's slow episodes stretch that
    work more than plain integer arithmetic.  The collector is off, so
    the program's heap cannot change what the probe costs."""
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        for i in range(8000):
            table[(i * 2654435761) & 0xFFFFFF] = (i, i + 1)
        acc = 0
        for key in table:
            acc += table[key][0]
        items = []
        for i in range(12000):
            pair = _Pair(i, i ^ 5)
            items.append(pair)
            acc += pair.a & pair.b
        for pair in items[::3]:
            acc ^= pair.b
        return time.perf_counter() - start
    finally:
        gc.enable()


def host_factors(probes: list[float]) -> list[float]:
    """Scale factor of each interval between consecutive probes:
    PROBE_REF_S over the mean of the two probes that bracket it.  Slow
    episodes can be shorter than a job, so a probe that reads slow is
    taken at its word, not smoothed away."""
    return [2 * PROBE_REF_S / (a + b) for a, b in zip(probes, probes[1:])]


def probe_burst() -> float:
    """Median of SETUP_PROBES host probes in a row."""
    return statistics.median(host_probe() for _ in range(SETUP_PROBES))


def fresh_package():
    """Import cosetqec from the checkout's src/, dropping any copy
    imported earlier, so that each set-up pays for the import."""
    for name in [m for m in sys.modules if m == "cosetqec" or m.startswith("cosetqec.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cq = importlib.import_module("cosetqec")
    importlib.import_module("cosetqec.selftest")
    return cq


def commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Run:
    """Job times, failures and outputs of one measured run.  ``probes``
    holds the host probe taken before each job, and after the last one
    once ``finish`` has run."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.traced: list[bool] = []
        self.units: list[float] = []
        self.failed = 0
        self.first_error = ""
        self.digest = hashlib.sha256()
        self.probes: list[float] = []

    def job(self, wl: Workload, cq, inp, tracer, traced: bool = False) -> None:
        """Run one timed job and check its output; a job that raises or
        whose output is wrong counts as failed."""
        gc.collect()
        self.probes.append(host_probe())
        start = time.perf_counter()
        try:
            with tracer.span("bench.job"):
                out = wl.job(cq, inp, tracer)
            elapsed = time.perf_counter() - start
            ok = wl.check(cq, inp, out)
            units = wl.units(inp, out)
        except Exception:  # noqa: BLE001 - a failed job is counted, not fatal
            elapsed = time.perf_counter() - start
            ok, out, units = False, None, 0.0
            if not self.first_error:
                self.first_error = traceback.format_exc()
        if traced:
            wl.probe(cq, inp, tracer)
        if len(self.times) < wl.min_jobs:
            self.digest.update(json.dumps(out, sort_keys=True).encode())
        self.times.append(elapsed)
        self.units.append(units)
        self.traced.append(traced)
        self.failed += not ok

    def finish(self) -> list[float]:
        """Take the closing probe; return each job's host-normalised time."""
        self.probes.append(host_probe())
        return [t * f for t, f in zip(self.times, host_factors(self.probes))]


def set_up(wl: Workload, seed: int):
    """Import, generate inputs and run one warm-up job, SETUP_REPS times;
    return the last package, its inputs, each repetition's wall time and
    each one's host-normalised time."""
    reps, probes = [], [probe_burst()]
    for _ in range(SETUP_REPS):
        gc.collect()
        start = time.perf_counter()
        cq = fresh_package()
        inputs = wl.setup(cq, random.Random(seed))
        wl.job(cq, inputs[0], spans.NullTracer())
        reps.append(time.perf_counter() - start)
        probes.append(probe_burst())
    scaled = [t * f for t, f in zip(reps, host_factors(probes))]
    return cq, inputs, reps, scaled


def measure(wl: Workload, cq, inputs, seconds: float, traced: bool):
    """Closed loop: the next job starts when the previous one is done.
    Runs for ``seconds`` and at least ``wl.min_jobs`` jobs.  A traced run
    traces every other job, so traced and untraced job times come from
    the same stretch of host time.  Returns the run, its spans and each
    job's host-normalised time."""
    run = Run()
    tracer = spans.Tracer()
    off = spans.NullTracer()
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        now = time.perf_counter()
        if (i >= wl.min_jobs and now >= deadline) or now - start > HARD_LIMIT_S:
            break
        on = traced and i % 2 == 0
        tracer.job = i
        run.job(wl, cq, inputs[i % len(inputs)], tracer if on else off, traced=on)
        i += 1
    return run, tracer.spans, run.finish()


def end_to_end(wl: Workload, run: Run, scaled: list[float], setup_s: float) -> dict:
    times = sorted(scaled)
    rates = [u / t for u, t in zip(run.units, scaled) if t > 0]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "job_p50_s": {"value": statistics.median(times), "unit": "s"},
        "job_tail_s": {"value": times[tail_rank(len(times), wl.tail_pct)], "unit": "s"},
        "work_per_s": {"value": statistics.median(rates), "unit": "1/s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
    }


def per_layer(run: Run, span_list: list, scaled: list[float]) -> dict:
    """Medians over traced jobs; each job's layer times are scaled by
    the same host factor as its job time."""
    jobs = spans.per_job(span_list)
    traced = []
    for i, on in enumerate(run.traced):
        if on and i in jobs:
            layers = jobs[i]
            factor = scaled[i] / run.times[i]
            for name in layers.time:
                layers.time[name] *= factor
            traced.append(layers)
    out = {
        name: {"value": statistics.median(fn(j) for j in traced), "unit": unit}
        for name, (unit, fn) in PER_LAYER.items()
    }
    on = [t for t, flag in zip(scaled, run.traced) if flag]
    off = [t for t, flag in zip(scaled, run.traced) if not flag]
    out["bench.trace_overhead_share"] = {
        "value": statistics.median(on) / statistics.median(off) - 1,
        "unit": "share",
    }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cosetqec" / "__init__.py").is_file():
        print(f"error: no cosetqec package under {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    cq, inputs, setup_reps, setup_scaled = set_up(wl, args.seed)
    gc.collect()
    gc.freeze()
    run, span_list, scaled = measure(wl, cq, inputs, args.seconds, bool(args.trace))

    if args.trace:
        metrics = per_layer(run, span_list, scaled)
    else:
        metrics = end_to_end(wl, run, scaled, statistics.median(setup_scaled))
    wall = sorted(run.times)
    info = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "backend": cq.BACKEND,
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "jobs": len(run.times),
        "tail_percentile": wl.tail_pct,
        "jobs_beyond_tail": beyond_tail(len(run.times), wl.tail_pct),
        "setup_reps_s": setup_reps,
        "wall_setup_s": statistics.median(setup_reps),
        "wall_job_p50_s": statistics.median(wall),
        "wall_job_tail_s": wall[tail_rank(len(wall), wl.tail_pct)],
        "host_probe_deciles_s": statistics.quantiles(run.probes, n=10, method="inclusive"),
        "digest": run.digest.hexdigest(),
        "digest_jobs": min(len(run.times), wl.min_jobs),
        "first_error": run.first_error,
    }
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({
        "run": info,
        "metrics": metrics,
        "job_times_s": run.times,
        "job_scaled_s": scaled,
        "host_probe_s": run.probes,
        "job_traced": run.traced,
        "spans": spans.to_records(span_list),
    }))
    info["record"] = str(record.relative_to(ROOT))
    print(json.dumps({"run": info}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": len(run.times),
        "failed": run.failed,
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
