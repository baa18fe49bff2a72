#!/usr/bin/env python3
"""Compare the compiled kernel lane against the pure-Python fallback.

Times the kernels that have both lanes: the syndrome map, which is hot
on decode (its build once per group, and its calls), and the two loops
that dominate search: group sampling and the candidate scan.  The last
two rows time those loops at the shapes of perfbench's search workload:
p=8 groups, and the p=6, K=3 scan over ``single_qubit_errors(6)``.  Each
factory takes a lane module and a size ``n`` and returns the timed
callable and the operations it performs.  Run from a checkout:

    PYTHONPATH=src python3 benchmarks/bench_kernels.py [--repeat N]
"""

from __future__ import annotations

import argparse
import random
import time
from functools import partial

from cosetqec._kernels import _fallback

try:
    from cosetqec._kernels import _speedups
except ImportError:
    _speedups = None


def _time(fn, *args, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def _group_masks(p=12, seed=3):
    from cosetqec.stabilizer import random_group

    group = random_group(p, seed)
    return [g.x for g in group.generators], [g.z for g in group.generators]


def bench_map_build(impl, n=2_000):
    xs, zs = _group_masks()
    build = impl.syndrome_map

    def run():
        for _ in range(n):
            build(xs, zs)

    return run, n


def bench_map_calls(impl, n=200_000):
    label = impl.syndrome_map(*_group_masks())
    rng = random.Random(0)
    ops = [(rng.getrandbits(12), rng.getrandbits(12)) for _ in range(1000)]
    rounds = max(1, n // 1000)

    def run():
        for _ in range(rounds):
            for a, b in ops:
                label(a, b)

    return run, rounds * 1000


def bench_sample_groups(impl, n=20_000, p=5):
    sample = impl.random_group_packed

    def run():
        for seed in range(n):
            sample(p, seed)

    return run, n


def bench_search(impl, n=50_000, p=5):
    from cosetqec.golden import single_qubit_errors

    errs = single_qubit_errors(p)
    ea = [e.x for e in errs]
    eb = [e.z for e in errs]
    search = impl.search_range

    def run():
        # no code meets the target: scans the whole range without early exit
        search(p, ea, eb, 3, 12345, 0, n)

    return run, n


BENCHES = [
    ("syndrome_map build p=12", bench_map_build),
    ("syndrome_map calls p=12", bench_map_calls),
    ("random_group p=5", bench_sample_groups),
    ("search candidates p=5", bench_search),
    # perfbench's search workload: its full-budget scan and its p=8 groups
    ("random_group p=8", partial(bench_sample_groups, n=2_000, p=8)),
    ("search candidates p=6", partial(bench_search, n=2_000, p=6)),
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    lanes = [("python", _fallback)]
    if _speedups is not None:
        lanes.append(("compiled", _speedups))
    else:
        print("compiled kernels not built; timing the fallback only\n")

    header = f"{'kernel':<24}" + "".join(f"{name + ' ops/s':>18}" for name, _ in lanes)
    if len(lanes) == 2:
        header += f"{'speedup':>10}"
    print(header)
    print("-" * len(header))
    for name, factory in BENCHES:
        rates = []
        for _, impl in lanes:
            run, ops = factory(impl)
            best = _time(run, repeat=args.repeat)
            rates.append(ops / best)
        row = f"{name:<24}" + "".join(f"{rate:>18,.0f}" for rate in rates)
        if len(rates) == 2:
            row += f"{rates[1] / rates[0]:>9.1f}x"
        print(row)


if __name__ == "__main__":
    main()
