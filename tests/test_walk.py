"""The packed closure walk and what is derived from it: closure order and
phases, seed terms, coset representatives, the rank-based subgroup
predicates, and the code JSON of the golden constructions."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetqec import (
    GroupError,
    PauliOperator,
    StabilizerGroup,
    coset_representative,
    is_closed_mod_phase,
    is_xor_subgroup,
    random_group,
    seed_state,
)
from cosetqec.golden import golden_codes

FIXTURE = Path(__file__).parent / "data" / "golden_codes.json"

_UNITS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def signed_group(p, seed, twist):
    """random_group with generator 0 replaced by its product with
    generator 1 when ``twist`` is set, which gives non-canonical phases."""
    gens = list(random_group(p, seed).generators)
    if twist and p > 1:
        gens[0] = gens[0] * gens[1]
    return StabilizerGroup(tuple(gens))


def recursive_closure(group):
    """Element lam is generator[low bit of lam] times element[lam ^ low bit]."""
    elems = [PauliOperator.identity(group.width)]
    for lam in range(1, 1 << group.width):
        lo = lam & -lam
        elems.append(group.generators[lo.bit_length() - 1] * elems[lam ^ lo])
    return tuple(elems)


def pairwise_xor_subgroup(values):
    values = set(values)
    return 0 in values and all(a ^ b in values for a in values for b in values)


class TestWalk:
    @pytest.mark.parametrize("p", range(1, 7))
    def test_closure_matches_low_bit_recursion(self, p):
        for seed in range(6):
            for twist in (False, True):
                g = signed_group(p, seed, twist)
                assert g.closure() == recursive_closure(g)

    def test_packed_lists_match_closure(self):
        g = signed_group(5, 3, True)
        phases, xs, zs = g.closure_packed
        assert [(e.phase, e.x, e.z) for e in g.closure()] == list(
            zip(phases, xs, zs)
        )
        assert g.closure_classes == frozenset(zip(xs, zs))

    @pytest.mark.parametrize("p", range(1, 9))
    def test_seed_terms_are_sum_of_walked_closure(self, p):
        for seed in range(4):
            g = random_group(p, 7 * seed + p)
            for base in (0, (1 << p) - 1, seed % (1 << p)):
                norm = g.normalized(base)
                amps = {}
                for e in norm.closure():
                    re, im = _UNITS[
                        (e.phase + 2 * ((e.z & base).bit_count() & 1)) % 4
                    ]
                    r0, i0 = amps.get(base ^ e.x, (0, 0))
                    amps[base ^ e.x] = (r0 + re, i0 + im)
                nonzero = {s: a for s, a in amps.items() if a != (0, 0)}
                size = max(abs(c) for a in nonzero.values() for c in a)
                want = tuple(
                    (_UNITS.index((a[0] // size, a[1] // size)), s)
                    for s, a in sorted(nonzero.items())
                )
                assert seed_state(norm, base).terms == want

    def test_diagonal_sign_refusal(self):
        g = StabilizerGroup(
            (PauliOperator(2, 0, 1, 2), PauliOperator(0, 0, 2, 2))
        )
        with pytest.raises(GroupError, match="element -ZI acts as -1"):
            seed_state(g, 0)


class TestRepresentative:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_brute_force_minimum(self, data):
        p = data.draw(st.integers(1, 5))
        g = signed_group(p, data.draw(st.integers(0, 10_000)), data.draw(st.booleans()))
        label = data.draw(st.integers(0, (1 << p) - 1))
        best = min(
            (
                PauliOperator.from_symplectic(x, z, p)
                for x in range(1 << p)
                for z in range(1 << p)
                if g.syndrome(PauliOperator(0, x, z, p)) == label
            ),
            key=lambda op: (op.weight, op.body()),
        )
        assert coset_representative(g, label) == best


class TestSubgroupPredicates:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_xor_subgroup_matches_pairwise(self, data):
        bits = data.draw(st.integers(1, 6))
        gens = data.draw(st.lists(st.integers(0, (1 << bits) - 1), max_size=4))
        span = {0}
        for v in gens:
            span |= {s ^ v for s in span}
        # a span, or a span with a few members added or removed
        drop = data.draw(st.sets(st.sampled_from(sorted(span)), max_size=2))
        add = data.draw(st.sets(st.integers(0, (1 << bits) - 1), max_size=2))
        values = (span - drop) | add
        assert is_xor_subgroup(values) == pairwise_xor_subgroup(values)
        assert is_xor_subgroup(iter(values)) == pairwise_xor_subgroup(values)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_closed_mod_phase_matches_pairwise(self, data):
        p = data.draw(st.integers(1, 3))
        pairs = data.draw(
            st.lists(
                st.tuples(st.integers(0, (1 << p) - 1), st.integers(0, (1 << p) - 1)),
                max_size=8,
            )
        )
        if data.draw(st.booleans()):
            closed = {(0, 0)}
            for x, z in pairs[:3]:
                closed |= {(a ^ x, b ^ z) for a, b in closed}
            pairs = sorted(closed)
        ops = [
            PauliOperator(data.draw(st.integers(0, 3)), x, z, p) for x, z in pairs
        ]
        classes = set(pairs)
        want = (0, 0) in classes and all(
            (x1 ^ x2, z1 ^ z2) in classes
            for (x1, z1) in classes
            for (x2, z2) in classes
        )
        assert is_closed_mod_phase(ops) == want

    def test_empty_sets_fail(self):
        assert not is_xor_subgroup([])
        assert not is_closed_mod_phase([])


def test_golden_code_json_is_unchanged():
    text = json.dumps(
        {name: code.to_dict() for name, code in golden_codes().items()}, indent=2
    )
    assert text + "\n" == FIXTURE.read_text()
