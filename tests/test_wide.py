"""Wider-width behaviour: the algebraic path runs far past the dense
engine's reach, and the caps fire where they should."""

import pytest

from cosetqec import (
    DenseState,
    ErrorSet,
    OracleLimitError,
    PauliOperator,
    build_code,
    build_table,
    check_correctable,
    check_overlap_dichotomy,
    check_syndrome_orthogonality,
    coset_representative,
    diagnose,
    format_pauli,
    random_group,
    seed_state,
)
from cosetqec.golden import diagonal_group, x_flips
from cosetqec.oracle import codeword_states


class TestWideAlgebra:
    def test_width_12_code_verifies_algebraically(self):
        g = random_group(12, seed=2024)
        errs = x_flips(12)
        code = build_code(g, [0])
        verdict = check_correctable(code, errs)
        # whatever the verdict, the machinery must run and stay consistent
        table = None
        if not verdict.pigeonhole:
            table = build_table(code, errs)
        if verdict.correctable:
            assert table is not None
            d = diagnose(code, errs, table.entry(3, 0), table=table)
            assert d.error_index == 3

    def test_width_16_syndromes(self):
        g = random_group(16, seed=5)
        op = PauliOperator.from_symplectic(0b1, 0b10, 16)
        lab = g.syndrome(op)
        assert 0 <= lab < (1 << 16)

    def test_width_20_diagonal_seed_is_single_term(self):
        seed = seed_state(diagonal_group(20).normalized(0))
        assert seed.term_tokens() == [["+", "0" * 20]]

    def test_width_24_representatives_of_the_diagonal_group(self):
        # every member of the all-ones coset weighs 24, so the weight
        # counter's top plane and all 48 tie-break planes are read
        g = diagonal_group(24)
        assert format_pauli(coset_representative(g, (1 << 24) - 1)) == "X" * 24
        assert format_pauli(coset_representative(g, 1 << 23)) == "I" * 23 + "X"

    def test_width_25_refused(self):
        with pytest.raises(ValueError, match="width"):
            PauliOperator.identity(25)


class TestOracleCaps:
    def test_materialize_width_14_works(self):
        state = DenseState.from_basis(0, 14)
        assert state.norm2 == 1
        moved = state.apply(PauliOperator.from_symplectic(1, 0, 14))
        assert moved.re[1] == 1

    def test_materialize_width_15_refused(self):
        with pytest.raises(OracleLimitError):
            DenseState.from_basis(0, 15)

    def test_dichotomy_width_cap(self):
        with pytest.raises(OracleLimitError):
            check_overlap_dichotomy(random_group(11, seed=1))

    def test_dichotomy_at_the_cap(self):
        report = check_overlap_dichotomy(random_group(10, seed=1))
        assert report.ok and report.cases == 4**10

    def test_orthogonality_width_cap(self):
        code = build_code(diagonal_group(13), [0, 1])
        errs = ErrorSet((PauliOperator.identity(13),))
        with pytest.raises(OracleLimitError):
            check_syndrome_orthogonality(code, errs)

    def test_width_10_dense_round_trip(self):
        # the dense engine still hums at width 10
        code = build_code(random_group(10, seed=77), [0, 1])
        words = codeword_states(code)
        assert words[0].is_orthogonal(words[1])
