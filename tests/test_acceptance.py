"""Acceptance suite: one test per exit criterion, each timed against its
budget and printing a pass/fail line (run with -s to see them live).

Every comparison is exact; there are no numeric tolerances anywhere in
the package, so the only stated tolerances are the runtime budgets.
"""

import random
import time
from contextlib import contextmanager
from math import comb

import numpy as np

from cosetqec import (
    PauliOperator,
    build_code,
    build_table,
    check_correctable,
    check_eigenvectors,
    check_knill_laflamme,
    check_overlap_dichotomy,
    check_syndrome_orthogonality,
    classify,
    max_dimension,
    punctured_seed,
    random_group,
    search_code,
    seed_state,
    symplectic_product,
)
from cosetqec.golden import (
    cat_code,
    diagonal_group,
    five_qubit_code,
    golden_codes,
    golden_error_sets,
    repetition_code,
    single_qubit_errors,
    x_flips,
    z_flips,
)
from cosetqec.oracle import syndrome_states
from cosetqec.stabilizer import StabilizerGroup

from conftest import pauli_matrix


@contextmanager
def criterion(number, name, limit_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {number:02d} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"[acceptance] {number:02d} {name}: PASS in {elapsed:.2f}s (limit {limit_s:g}s)")
    assert elapsed < limit_s, f"criterion {number} exceeded its {limit_s}s budget"


def all_signed_ops(p):
    for d in range(4):
        for x in range(1 << p):
            for z in range(1 << p):
                yield PauliOperator(d, x, z, p)


def test_criterion_01_group_law():
    """Exhaustive products and commutators vs dense matrices, p in {1,2}."""
    with criterion(1, "group-law", 5.0):
        for p in (1, 2):
            ops = list(all_signed_ops(p))
            mats = {op: pauli_matrix(op) for op in ops}
            for s1 in ops:
                m1 = mats[s1]
                for s2 in ops:
                    assert np.array_equal(m1 @ mats[s2], mats[s1 * s2])
            classes = [
                PauliOperator.from_symplectic(x, z, p)
                for x in range(1 << p)
                for z in range(1 << p)
            ]
            for s1 in classes:
                m1 = pauli_matrix(s1)
                for s2 in classes:
                    m2 = pauli_matrix(s2)
                    commuting = np.array_equal(m1 @ m2, m2 @ m1)
                    assert (symplectic_product(s1, s2) == 0) == commuting


def test_criterion_02_partition_isomorphism():
    """104 random groups across p in 2..5: additivity, kernel, preimages."""
    with criterion(2, "partition-isomorphism", 30.0):
        checked = 0
        for p in (2, 3, 4, 5):
            for k in range(26):
                g = random_group(p, seed=1000 * p + k)
                counts = [0] * (1 << p)
                kernel = set()
                for x in range(1 << p):
                    for z in range(1 << p):
                        lab = g.syndrome(PauliOperator.from_symplectic(x, z, p))
                        counts[lab] += 1
                        if lab == 0:
                            kernel.add((x, z))
                assert counts == [1 << p] * (1 << p)
                assert kernel == g.closure_classes
                rng = random.Random(k)
                for _ in range(60):
                    s1 = PauliOperator.from_symplectic(
                        rng.randrange(1 << p), rng.randrange(1 << p), p
                    )
                    s2 = PauliOperator.from_symplectic(
                        rng.randrange(1 << p), rng.randrange(1 << p), p
                    )
                    assert g.syndrome(s1 * s2) == g.syndrome(s1) ^ g.syndrome(s2)
                checked += 1
        assert checked >= 100


def test_criterion_03_overlap_dichotomy():
    """20 random groups at each p in {2,3,4}: zero violations, exact."""
    with criterion(3, "overlap-dichotomy", 60.0):
        for p in (2, 3, 4):
            for k in range(20):
                report = check_overlap_dichotomy(random_group(p, seed=500 * p + k))
                assert report.ok, report.violations[:3]
                assert report.cases == 1 << (2 * p)


def test_criterion_04_eigenvector_checks():
    """Codewords and syndrome states are exact +/-1 eigenvectors."""
    with criterion(4, "eigenvectors", 30.0):
        codes = golden_codes()
        errs = golden_error_sets()
        for name, code in codes.items():
            report = check_eigenvectors(code, errs[name])
            assert report.ok, (name, report.violations[:3])


def test_criterion_05_orthogonality_equivalence():
    """Orthogonal iff distinct labels, both directions, zero exceptions."""
    with criterion(5, "orthogonality-equivalence", 60.0):
        codes = golden_codes()
        errs = golden_error_sets()
        for name, code in codes.items():
            report = check_syndrome_orthogonality(code, errs[name])
            assert report.ok, (name, report.violations[:3])


def test_criterion_06_repetition_positive():
    """[[3,2]] corrects bit flips: labels, KL, and class all agree."""
    with criterion(6, "repetition-positive", 5.0):
        code = repetition_code()
        flips = x_flips(3)
        verdict = check_correctable(code, flips)
        assert verdict.correctable
        table = build_table(code, flips)
        labels = {lab for _, _, lab in table.iter_entries()}
        assert len(labels) == 8
        assert check_knill_laflamme(code, flips).passed
        cls = classify(code)
        assert cls.type_tag == "I" and cls.additive


def test_criterion_07_five_qubit_positive():
    """[[5,2]] corrects every single-qubit error with perfect packing."""
    with criterion(7, "five-qubit-positive", 30.0):
        code = five_qubit_code()
        errs = single_qubit_errors(5)
        verdict = check_correctable(code, errs)
        assert verdict.correctable
        table = build_table(code, errs)
        labels = {lab for _, _, lab in table.iter_entries()}
        assert len(labels) == 32
        report = check_syndrome_orthogonality(code, errs)
        assert report.ok and report.cases == 32 * 31 // 2
        assert check_knill_laflamme(code, errs).passed
        assert classify(code).type_tag == "I"


def test_criterion_08_cat_negative():
    """The GHZ construction fails phase flips; the dense engine agrees."""
    with criterion(8, "cat-negative", 5.0):
        code = cat_code()
        errs = z_flips(3)
        verdict = check_correctable(code, errs)
        assert not verdict.correctable
        i1, j1, i2, j2 = verdict.collision
        states = {(i, j): s for i, j, s in syndrome_states(code, errs)}
        assert not states[(i1, j1)].is_orthogonal(states[(i2, j2)])


def test_criterion_09_search():
    """Exhaustive width-3 and randomized width-5 searches find codes that
    re-verify."""
    with criterion(9, "search", 300.0):
        flips = x_flips(3)
        r3 = search_code(flips, 2, strategy="exhaustive")
        assert r3.found
        assert check_correctable(r3.code, flips).correctable
        assert check_syndrome_orthogonality(r3.code, flips).ok

        errs = single_qubit_errors(5)
        r5 = search_code(errs, 2, strategy="random", budget=100_000, seed=7)
        assert r5.found
        assert check_correctable(r5.code, errs).correctable
        assert check_syndrome_orthogonality(r5.code, errs).ok


def test_criterion_10_classification():
    """One fixture per type; the additive flag only on type I."""
    with criterion(10, "classification", 5.0):
        x3 = StabilizerGroup(
            tuple(PauliOperator(0, 1 << j, 0, 3) for j in range(3))
        )
        cut = punctured_seed(seed_state(x3.normalized(0)), ["011", "101"])
        fixtures = [
            build_code(diagonal_group(3), [0, 0b111]),
            build_code(diagonal_group(3), [0, 0b001, 0b010]),
            build_code(x3, [0, 1], seed=cut),
            build_code(x3, [0, 1, 2], seed=cut),
        ]
        classes = [classify(c) for c in fixtures]
        assert [c.type_tag for c in classes] == ["I", "II", "III", "IV"]
        assert [c.additive for c in classes] == [True, False, False, False]


def test_criterion_11_eigenvectors_at_cap():
    """The eigenvector check runs at its documented width cap, p=12."""
    with criterion(11, "eigenvectors-at-cap", 30.0):
        group = random_group(12, seed=1)
        errs = single_qubit_errors(12)
        labels = max_dimension(group, errs).labels[:4]
        code = build_code(group, list(labels))
        report = check_eigenvectors(code, errs)
        assert report.ok, report.violations[:3]
        assert report.cases == 152 * 4096  # (4 codewords + 37 x 4 syndromes) x 2^12


def test_criterion_12_orthogonality_and_kl_at_cap():
    """Syndrome orthogonality and Knill-Laflamme run at their documented
    width cap, p=12, each within its budget."""
    group = random_group(12, seed=1)
    errs = single_qubit_errors(12)
    labels = max_dimension(group, errs).labels[:4]
    code = build_code(group, list(labels))
    with criterion(12, "orthogonality-at-cap", 30.0):
        report = check_syndrome_orthogonality(code, errs)
        assert report.ok, report.violations[:3]
        assert report.cases == comb(148, 2)  # 37 errors x 4 codewords
    with criterion(12, "knill-laflamme-at-cap", 30.0):
        assert check_knill_laflamme(code, errs).passed
