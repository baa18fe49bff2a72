"""The packed closure walk and what is derived from it: closure order and
phases, seed terms, coset representatives, the rank-based subgroup
predicates, and the code JSON of the golden constructions.  The lane
walk, seed and coset minima are checked against the one-int-per-element
versions they replaced, kept here as references with their own copy of
the letter-key packing."""

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
    format_bits,
    format_pauli,
    is_closed_mod_phase,
    is_xor_subgroup,
    random_group,
    seed_state,
)
from cosetqec import codes
from cosetqec._kernels import pack_lanes, unpack_lanes
from cosetqec.golden import diagonal_group, golden_codes

from conftest import signed_group

FIXTURE = Path(__file__).parent / "data" / "golden_codes.json"

_UNITS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def recursive_closure(group):
    """Element lam is generator[low bit of lam] times element[lam ^ low bit]."""
    elems = [PauliOperator.identity(group.width)]
    for lam in range(1, 1 << group.width):
        lo = lam & -lam
        elems.append(group.generators[lo.bit_length() - 1] * elems[lam ^ lo])
    return tuple(elems)


# References: the closure walk, the seed and the coset minimum as they
# ran one Python int per closure element, before they moved to the 64-bit
# lanes of one int.


def reference_closure_packed(group):
    """Three parallel lists (phases, xs, zs), doubled once per generator."""
    phases, xs, zs = [0], [0], [0]
    for g in group.generators:
        gp, gx, gz = g.phase, g.x, g.z
        phases += [
            (ph + gp + 2 * ((z & gx).bit_count() & 1)) & 3
            for ph, z in zip(phases, zs)
        ]
        xs += [x ^ gx for x in xs]
        zs += [z ^ gz for z in zs]
    return phases, xs, zs


def lane_values(packed, p):
    """The lanes of ``codes._lanes`` for packed lists (phases, xs, zs)."""
    return [x | z << p | ph << 2 * p for ph, x, z in zip(*packed)]


def reference_seed_state(group, base=0, packed=None):
    """The seed terms from one element at a time of the packed closure
    (by default :func:`reference_closure_packed`), with the refusals and
    messages of the package's ``seed_state``."""
    p = group.width
    phases, xs, zs = packed or reference_closure_packed(group)
    for ph, x, z in zip(phases, xs, zs):
        # diagonal Hermitian elements have an even phase exponent
        if x == 0 and ((ph >> 1) + (z & base).bit_count()) & 1:
            raise GroupError(
                f"group is not sign-normalized for base "
                f"{format_bits(base, p)}: element "
                f"{format_pauli(PauliOperator(ph, x, z, p))} acts as -1 "
                "(the seed would cancel to zero); call normalized() first"
            )
    coeffs = {}
    for ph, x, z in zip(phases, xs, zs):
        unit = (ph + 2 * ((z & base).bit_count() & 1)) & 3
        if coeffs.setdefault(base ^ x, unit) != unit:
            raise GroupError("inconsistent seed coefficients; group signs are broken")
    return tuple((unit, string) for string, unit in sorted(coeffs.items()))


def letter_key(x, z, p):
    """(x, z) packed so that integer order is the order of the letter
    string: qubit j fills bits 2(p-1-j)+1 (z_j) and 2(p-1-j) (x_j ^ z_j),
    which codes I, X, Y, Z as 0, 1, 2, 3 with qubit 0 most significant.
    The map is linear over GF(2)."""
    key = 0
    for j in range(p):
        key = (key << 2) | ((z >> j) & 1) << 1 | ((x ^ z) >> j) & 1
    return key


def from_letter_key(key, p):
    x = z = 0
    for j in range(p):
        pair = key >> (2 * (p - 1 - j))
        zj = (pair >> 1) & 1
        x |= ((pair ^ zj) & 1) << j
        z |= zj << j
    return x, z


def reference_representative(group, label):
    """The least (weight, letter key) over a list of the coset's keys."""
    p = group.width
    keys = [0]
    for g in group.generators:
        kg = letter_key(g.x, g.z, p)
        keys += [k ^ kg for k in keys]
    rkey = letter_key(*group._solve_member(label), p)
    pairs = int("01" * p, 2)
    best = min([
        (((v := k ^ rkey) | v >> 1) & pairs).bit_count() << 2 * p | v
        for k in keys
    ])
    x, z = from_letter_key(best & ((1 << 2 * p) - 1), p)
    return PauliOperator.from_symplectic(x, z, p)


def outcome(call, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return call(*args)
    except ValueError as exc:
        return type(exc), str(exc)


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

    def test_lanes_match_closure(self):
        p = 5
        g = signed_group(p, 3, True)
        assert unpack_lanes(codes._lanes(g), 1 << p).tolist() == [
            e.x | e.z << p | e.phase << 2 * p for e in g.closure()
        ]

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


class TestLanes:
    @pytest.mark.parametrize("p", range(1, 11))
    def test_lanes_match_the_list_walk(self, p):
        for seed in range(3):
            for twist in (False, True):
                g = signed_group(p, seed, twist)
                want = reference_closure_packed(g)
                assert [(e.phase, e.x, e.z) for e in g.closure()] == list(zip(*want))
                assert unpack_lanes(codes._lanes(g), 1 << p).tolist() == lane_values(
                    want, p
                )

    def test_lanes_and_seed_past_width_16(self):
        # z & gx reaches bit 2p - 1 >= 32 here, so the parity fold needs
        # its 32-bit step
        p = 17
        g = signed_group(p, 5, True)
        assert unpack_lanes(codes._lanes(g), 1 << p).tolist() == lane_values(
            reference_closure_packed(g), p
        )
        base = (1 << p) - 1 - 6
        norm = g.normalized(base)
        assert seed_state(norm, base).terms == reference_seed_state(norm, base)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_seed_matches_the_reference(self, data):
        # a group normalized for the base gives terms; a signed group, or
        # one normalized for another base, mostly gives the diagonal-sign
        # refusal, which must name the same element
        p = data.draw(st.integers(1, 10))
        g = signed_group(p, data.draw(st.integers(0, 10_000)), data.draw(st.booleans()))
        base = data.draw(st.integers(0, (1 << p) - 1))
        frame = data.draw(st.sampled_from(["none", "base", "other"]))
        if frame == "base":
            g = g.normalized(base)
        elif frame == "other":
            g = g.normalized(data.draw(st.integers(0, (1 << p) - 1)))
        got = outcome(lambda: seed_state(g, base).terms)
        assert got == outcome(reference_seed_state, g, base)

    @pytest.mark.parametrize("seed", range(8))
    def test_broken_signs_refused_as_the_reference(self, seed, monkeypatch):
        # flip the sign of one non-diagonal element of the walk; where
        # another element shares its X part, the coefficients disagree
        p = 6
        g = random_group(p, seed).normalized(0)
        phases, xs, zs = reference_closure_packed(g)
        lam = next(i for i, x in enumerate(xs) if x)
        phases[lam] ^= 2
        lanes = pack_lanes(lane_values((phases, xs, zs), p))
        monkeypatch.setattr(codes, "_lanes", lambda group: lanes)
        got = outcome(lambda: seed_state(g, 0).terms)
        assert got == outcome(reference_seed_state, g, 0, (phases, xs, zs))
        if xs.count(xs[lam]) > 1:
            assert got == (
                GroupError,
                "inconsistent seed coefficients; group signs are broken",
            )

    @pytest.mark.parametrize("p", range(6, 13))
    def test_representatives_match_the_list_minimum(self, p):
        for seed in range(2):
            g = signed_group(p, seed, bool(seed))
            for label in range(0, 1 << p, (1 << p) // 5 + 1):
                assert coset_representative(g, label) == reference_representative(
                    g, label
                )

    @pytest.mark.parametrize("p", range(6, 10))
    def test_every_label_matches_the_list_minimum(self, p):
        groups = [diagonal_group(p), signed_group(p, p, False), signed_group(p, p, True)]
        for g in groups:
            for label in range(1 << p):
                assert coset_representative(g, label) == reference_representative(
                    g, label
                )


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
