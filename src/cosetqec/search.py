"""Constructive code search: find a group whose syndrome sumset is
collision-free for a given error set.

The randomized strategy derives an independent splitmix64 stream per
candidate index, so results are a pure function of (seed, index); worker
processes scan disjoint index blocks and the smallest hit index wins,
making parallel runs bit-identical to sequential ones.  Only a search
that still has more than one worker once the count is clamped to the
blocks loads the process-pool modules (``concurrent.futures.process``
and ``multiprocessing``); no other code path of the package imports them.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import Sequence

from ._kernels import search_range
# Both kernel lanes refuse larger error sets, with one message.
from ._kernels._fallback import MAX_ERRORS as MAX_SEARCH_ERRORS, greedy
from .codes import QuantumCode, build_code
from .pauli import ErrorSet, PauliOperator
from .stabilizer import StabilizerGroup, enumerate_groups

DEFAULT_BUDGET = 100_000
_BLOCK = 2048


def sumset_distinct(
    error_labels: Sequence[int], codeword_labels: Sequence[int]
) -> bool:
    """True iff all pairwise XOR sums e_i ^ c_j are distinct."""
    seen: set[int] = set()
    for e in error_labels:
        for c in codeword_labels:
            s = e ^ c
            if s in seen:
                return False
            seen.add(s)
    return True


@dataclass(frozen=True)
class MaxDimension:
    """Greedy label scan result; ``degenerate_pair`` names the first two
    error indices sharing a coset when the error labels collide (the scan
    then runs over the distinct labels only)."""

    labels: tuple[int, ...]
    degenerate_pair: tuple[int, int] | None = None

    @property
    def dimension(self) -> int:
        return len(self.labels)


def max_dimension(group: StabilizerGroup, errors: ErrorSet) -> MaxDimension:
    """Largest greedy codeword-label set for this group: scan labels in
    ascending order from zero, keeping each one that preserves sumset
    distinctness.  Deterministic, not guaranteed globally optimal."""
    p = group.width
    err_labels = [group.syndrome(e) for e in errors]
    degenerate = None
    seen: dict[int, int] = {}
    for i, lab in enumerate(err_labels):
        if lab in seen and degenerate is None:
            degenerate = (seen[lab], i)
        seen.setdefault(lab, i)
    # syndromes of width-p operators: in range by construction
    kept = greedy(p, sorted(seen), -1)
    assert len(kept) * len(seen) <= (1 << p)
    return MaxDimension(labels=tuple(kept), degenerate_pair=degenerate)


@dataclass(frozen=True)
class SearchResult:
    code: QuantumCode | None
    reason: str
    candidates_tried: int
    hit_index: int | None = None

    @property
    def found(self) -> bool:
        return self.code is not None


def _packed_errors(errors: ErrorSet) -> tuple[list[int], list[int]]:
    return [e.x for e in errors], [e.z for e in errors]


def _scan_block(args) -> tuple | None:
    p, ea, eb, k, seed, start, count = args
    return search_range(p, ea, eb, k, seed, start, count)


def _random_search(
    errors: ErrorSet, k_target: int, budget: int, seed: int, workers: int
) -> SearchResult:
    p = errors.width
    ea, eb = _packed_errors(errors)
    hit = None
    # a fork pool starts all its workers at once, so ask for no more than
    # there are blocks to scan
    workers = min(workers, -(-budget // _BLOCK))
    if workers <= 1:
        hit = search_range(p, ea, eb, k_target, seed, 0, budget)
    else:
        from concurrent.futures import ProcessPoolExecutor

        starts = range(0, budget, _BLOCK)
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for w in range(0, len(starts), workers):
                    # built per wave: all blocks at once grow with the budget
                    blocks = [
                        (p, ea, eb, k_target, seed, start, min(_BLOCK, budget - start))
                        for start in starts[w : w + workers]
                    ]
                    wave = list(pool.map(_scan_block, blocks))
                    hits = [h for h in wave if h is not None]
                    if hits:
                        hit = min(hits, key=lambda h: h[0])
                        break
        except OSError:
            # process pools can be unavailable in constrained sandboxes
            hit = search_range(p, ea, eb, k_target, seed, 0, budget)
    if hit is None:
        return SearchResult(
            code=None,
            reason=(
                f"no hit within budget {budget} (not a proof of nonexistence; "
                "retry with a larger budget or another seed)"
            ),
            candidates_tried=budget,
        )
    index, xs, zs, labels = hit
    group = StabilizerGroup(
        tuple(PauliOperator.from_symplectic(x, z, p) for x, z in zip(xs, zs))
    )
    code = build_code(group, list(labels[:k_target]))
    return SearchResult(
        code=code,
        reason=f"hit at candidate index {index}",
        candidates_tried=index + 1,
        hit_index=index,
    )


def _exhaustive_search(errors: ErrorSet, k_target: int) -> SearchResult:
    p = errors.width
    tried = 0
    for group in enumerate_groups(p):
        tried += 1
        result = max_dimension(group, errors)
        if result.degenerate_pair is not None:
            continue
        if result.dimension >= k_target:
            code = build_code(group, list(result.labels[:k_target]))
            return SearchResult(
                code=code,
                reason=f"hit at enumeration index {tried - 1}",
                candidates_tried=tried,
                hit_index=tried - 1,
            )
    return SearchResult(
        code=None,
        reason=f"exhausted all {tried} groups at width {p}; no such code exists "
        "under this construction",
        candidates_tried=tried,
    )


def search_code(
    errors: ErrorSet,
    k_target: int,
    strategy: str = "random",
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    workers: int = 1,
) -> SearchResult:
    """Find a group and K distinct codeword cosets whose syndrome sumset
    with the error labels is collision-free, then build the code.

    ``strategy`` is "exhaustive" (width <= 3 only) or "random".  Results
    are deterministic in (strategy, budget, seed); any returned code
    passes the distinct-label verdict by construction, whatever the
    worker count; a count below 1 is refused.  The count arguments are
    read with ``operator.index``, so a float is refused with a TypeError
    before any work.
    """
    k_target, budget, seed, workers = map(index, (k_target, budget, seed, workers))
    if k_target < 1:
        raise ValueError("dimension target must be at least 1")
    if budget < 0:
        raise ValueError(f"budget must be at least 0, got {budget}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if strategy not in ("exhaustive", "random"):
        raise ValueError(f"unknown strategy {strategy!r}")
    p = errors.width
    if len(errors) * k_target > (1 << p):
        return SearchResult(
            code=None,
            reason=(
                f"impossible by counting: {len(errors)} errors x {k_target} "
                f"codewords exceeds the {1 << p} available cosets"
            ),
            candidates_tried=0,
        )
    if strategy == "exhaustive":
        return _exhaustive_search(errors, k_target)
    return _random_search(errors, k_target, budget, seed, workers)
