"""Sumset distinctness, greedy dimension, and the code search."""

import concurrent.futures
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetqec import (
    ErrorSet,
    PauliOperator,
    check_correctable,
    check_syndrome_orthogonality,
    max_dimension,
    parse_pauli,
    search_code,
    sumset_distinct,
)
import cosetqec.search as search
from cosetqec.golden import (
    diagonal_group,
    single_qubit_errors,
    x_flips,
)
from cosetqec.search import MAX_SEARCH_ERRORS

labels_strategy = st.lists(
    st.integers(0, 31), min_size=1, max_size=6, unique=True
)


class TestSumset:
    def test_examples(self):
        assert sumset_distinct([0b000, 0b001, 0b010, 0b100], [0b000, 0b111])
        assert not sumset_distinct([0, 1], [0, 1])
        assert sumset_distinct([0, 1, 5], [0])

    @settings(max_examples=150, deadline=None)
    @given(labels_strategy, labels_strategy)
    def test_symmetric(self, e, c):
        assert sumset_distinct(e, c) == sumset_distinct(c, e)

    @settings(max_examples=150, deadline=None)
    @given(labels_strategy, labels_strategy, st.integers(0, 31))
    def test_translation_invariant(self, e, c, t):
        assert sumset_distinct(e, c) == sumset_distinct([x ^ t for x in e], c)


class TestMaxDimension:
    def test_diagonal_x_flips(self):
        """Greedy scan over the diagonal group: 001..110 all collide with
        the error-label differences, 111 is the first survivor after 000."""
        result = max_dimension(diagonal_group(3), x_flips(3))
        assert result.dimension == 2
        assert result.labels == (0b000, 0b111)
        assert result.degenerate_pair is None

    def test_identity_only_keeps_everything(self):
        errs = ErrorSet((PauliOperator.identity(3),))
        result = max_dimension(diagonal_group(3), errs)
        assert result.dimension == 8
        assert result.labels == tuple(range(8))

    def test_degenerate_pair_reported(self):
        errs = ErrorSet(
            (PauliOperator.identity(3), parse_pauli("ZII"), parse_pauli("ZZZ"))
        )
        # both ZII and ZZZ are in the diagonal group: labels 000 collide
        # with the identity's
        result = max_dimension(diagonal_group(3), errs)
        assert result.degenerate_pair == (0, 1)

    def test_pigeonhole_bound(self):
        for k in range(5):
            from cosetqec import random_group

            g = random_group(4, seed=k)
            errs = single_qubit_errors(4)
            result = max_dimension(g, errs)
            if result.degenerate_pair is None:
                assert result.dimension * len(errs) <= 16 * 16


class TestSearch:
    def test_exhaustive_p3_x_flips(self):
        errs = x_flips(3)
        result = search_code(errs, 2, strategy="exhaustive")
        assert result.found
        verdict = check_correctable(result.code, errs)
        assert verdict.correctable
        assert check_syndrome_orthogonality(result.code, errs).ok

    def test_random_p5_single_qubit_errors(self):
        errs = single_qubit_errors(5)
        result = search_code(errs, 2, strategy="random", budget=100_000, seed=7)
        assert result.found
        assert check_correctable(result.code, errs).correctable
        assert check_syndrome_orthogonality(result.code, errs).ok

    def test_impossible_by_counting(self):
        errs = ErrorSet(
            (
                PauliOperator.identity(1),
                parse_pauli("X"),
                parse_pauli("Y"),
                parse_pauli("Z"),
            )
        )
        result = search_code(errs, 2, strategy="random", budget=10)
        assert not result.found
        assert "counting" in result.reason

    def test_exhaustive_negative_is_a_proof(self):
        errs = ErrorSet(tuple(parse_pauli(s) for s in ("II", "ZI", "XI", "YZ")))
        result = search_code(errs, 1, strategy="exhaustive")
        assert result.code is None and result.candidates_tried == 15
        assert result.reason == (
            "exhausted all 15 groups at width 2; no such code exists under this "
            "construction"
        )

    @pytest.mark.parametrize("strategy", ["exhaustive", "random"])
    def test_dimension_target_below_one_refused(self, strategy):
        with pytest.raises(ValueError) as info:
            search_code(single_qubit_errors(3), 0, strategy=strategy)
        assert str(info.value) == "dimension target must be at least 1"

    def test_error_set_cap(self):
        # 1026 distinct errors at p=16, K=1 pass the counting bound
        errs = ErrorSet(
            tuple(PauliOperator(0, 0, z, 16) for z in range(MAX_SEARCH_ERRORS + 2))
        )
        with pytest.raises(ValueError, match="at most 1024"):
            search_code(errs, 1, strategy="random", budget=1)

    def test_not_found_message_hedges(self):
        # zero budget scans nothing; the message must say not-found is not
        # a nonexistence proof
        errs = single_qubit_errors(5)
        result = search_code(errs, 2, strategy="random", budget=0, seed=1)
        assert not result.found
        assert "not a proof" in result.reason

    @pytest.mark.parametrize("workers", [1, 2])
    def test_negative_budget_refused(self, workers):
        # it used to report candidates_tried=-5
        errs = single_qubit_errors(5)
        with pytest.raises(ValueError, match="budget must be at least 0, got -5"):
            search_code(errs, 2, strategy="random", budget=-5, workers=workers)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_worker_count_below_one_refused(self, workers):
        # workers=-3 used to run one sequential scan and return a hit
        errs = single_qubit_errors(5)
        message = f"workers must be at least 1, got {workers}"
        with pytest.raises(ValueError, match=message):
            search_code(errs, 2, strategy="random", budget=200, workers=workers)

    def test_deterministic_in_seed(self):
        errs = single_qubit_errors(5)
        a = search_code(errs, 2, strategy="random", budget=50_000, seed=3)
        b = search_code(errs, 2, strategy="random", budget=50_000, seed=3)
        assert a.found
        assert a.hit_index == b.hit_index
        assert a.code.group.generators == b.code.group.generators

    def test_exhaustive_refused_beyond_width_3(self):
        errs = x_flips(4)  # 5 errors x K=2 fits in 2^4, so counting passes
        with pytest.raises(ValueError, match="width <= 3"):
            search_code(errs, 2, strategy="exhaustive")

    def test_workers_match_sequential(self):
        errs = single_qubit_errors(5)
        seq = search_code(errs, 2, strategy="random", budget=6000, seed=11, workers=1)
        par = search_code(errs, 2, strategy="random", budget=6000, seed=11, workers=2)
        assert seq.found and par.found
        assert seq.hit_index == par.hit_index
        assert seq.code.group.generators == par.code.group.generators
        assert seq.code.labels == par.code.labels

    def test_float_target_refused_before_the_counting_bound(self):
        # it used to report "16 errors x 2.5 codewords" as impossible
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            search_code(single_qubit_errors(5), 2.5)

    def test_float_target_refused_before_exhaustive_search(self):
        # it used to fail inside a slice of the kept labels
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            search_code(x_flips(3), 2.0, strategy="exhaustive")

    def test_float_worker_count_refused_before_the_pool(self, monkeypatch):
        # it used to start a pool of 1.5 workers and fail in it
        pools = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pools.append)
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            search_code(single_qubit_errors(5), 2, budget=5000, workers=1.5)
        assert pools == []

    def test_unknown_strategy_refused_before_the_counting_bound(self):
        # it used to report the pigeonhole bound for K=100
        with pytest.raises(ValueError, match="unknown strategy 'bogus'"):
            search_code(single_qubit_errors(5), 100, strategy="bogus")


class _InlinePool:
    """An in-process stand-in for ProcessPoolExecutor."""

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


class TestParallelWaves:
    @pytest.mark.parametrize("budget, seed", [(40, 3), (40, 11), (12, 3), (7, 0)])
    def test_waves_match_sequential(self, monkeypatch, budget, seed):
        # blocks of two candidates: hits land in later waves, in any slot
        # of a wave, or not at all
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
        monkeypatch.setattr(search, "_BLOCK", 2)
        errs = single_qubit_errors(5)
        seq = search_code(errs, 2, budget=budget, seed=seed, workers=1)
        for workers in (2, 3):
            par = search_code(errs, 2, budget=budget, seed=seed, workers=workers)
            assert par == seq

    @pytest.mark.parametrize(
        "budget, workers, pool_size",
        [(0, 64, None), (10, 64, None), (2048, 64, None), (2049, 64, 2),
         (5000, 64, 3), (5000, 2, 2)],
    )
    def test_pool_is_sized_by_the_blocks(self, monkeypatch, budget, workers, pool_size):
        # a budget of at most one block scans in-process
        sizes = []

        class SizedPool(_InlinePool):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SizedPool)
        errs = single_qubit_errors(5)
        got = search_code(errs, 2, budget=budget, seed=5, workers=workers)
        assert sizes == ([] if pool_size is None else [pool_size])
        assert got == search_code(errs, 2, budget=budget, seed=5, workers=1)

    def test_a_pool_that_cannot_start_falls_back_to_one_scan(self, monkeypatch):
        def no_pool(max_workers):
            raise OSError(38, "Function not implemented")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        errs = single_qubit_errors(5)
        seq = search_code(errs, 2, budget=6000, seed=11, workers=1)
        par = search_code(errs, 2, budget=6000, seed=11, workers=2)
        assert par.found and par.hit_index == seq.hit_index
        assert par.candidates_tried == seq.candidates_tried
        assert par.code.to_dict() == seq.code.to_dict()

    def test_blocks_are_built_per_wave(self, monkeypatch):
        # 48,829 blocks of 2048 candidates; the hit comes in the first wave
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
        errs = single_qubit_errors(5)
        tracemalloc.start()
        try:
            result = search_code(errs, 2, budget=100_000_000, seed=3, workers=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.hit_index == 13
        assert peak < 1_000_000


class TestPoolImport:
    def test_pool_modules_load_only_for_a_pool(self):
        # in a fresh interpreter the package, the CLI and a one-worker
        # search load no pool module, nor does a search that names no
        # worker count, whatever the environment holds; a two-worker
        # search of 3 blocks then starts a real pool and finds the same code
        script = """
import sys
import cosetqec, cosetqec.cli
from cosetqec import search_code
from cosetqec.golden import single_qubit_errors
errs = single_qubit_errors(5)
one = search_code(errs, 2, budget=6000, seed=11, workers=1)
assert search_code(errs, 2, budget=6000, seed=11) == one
loaded = [m for m in ("multiprocessing", "concurrent.futures.process") if m in sys.modules]
assert not loaded, loaded
two = search_code(errs, 2, budget=6000, seed=11, workers=2)
assert two == one, (two, one)
print(one.reason)
"""
        src = str(Path(search.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": path, "COSETQEC_WORKERS": "8"},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "hit at candidate index 2\n"
