"""Four-type classification and the two subgroup predicates."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from cosetqec import (
    QuantumCode,
    build_code,
    classify,
    is_closed_mod_phase,
    is_xor_subgroup,
    parse_pauli,
    punctured_seed,
    random_group,
    seed_state,
)
from cosetqec.golden import diagonal_group
from cosetqec.stabilizer import StabilizerGroup


def group_of(*strings):
    width = len(strings[0])
    return StabilizerGroup(tuple(parse_pauli(s, width) for s in strings))


def x_group(p):
    return StabilizerGroup(
        tuple(parse_pauli("I" * j + "X" + "I" * (p - j - 1)) for j in range(p))
    )


class TestPredicates:
    def test_xor_subgroup(self):
        assert is_xor_subgroup({0b000, 0b111})
        assert not is_xor_subgroup({0b000, 0b011, 0b101})  # missing 110
        assert not is_xor_subgroup({0b111})  # no zero
        assert is_xor_subgroup({0})

    def test_closure_x_image_is_subgroup(self):
        # the x-part image of any group closure is XOR-closed
        for seed in range(6):
            g = random_group(5, seed=seed)
            image = {e.x for e in g.closure()}
            assert is_xor_subgroup(image)

    def test_mod_phase_closure(self):
        assert is_closed_mod_phase([parse_pauli("I"), parse_pauli("X")])
        ops = [parse_pauli(s) for s in ("III", "XII", "IXI")]
        assert not is_closed_mod_phase(ops)  # XXI missing
        # any {identity, s} pair closes: s*s = +/-identity
        assert is_closed_mod_phase([parse_pauli("II"), parse_pauli("XY")])

    def test_identity_required(self):
        assert not is_closed_mod_phase([parse_pauli("X")])


class TestClassify:
    def test_type_i_repetition(self, rep3):
        cls = classify(rep3)
        assert cls.type_tag == "I"
        assert cls.additive
        assert cls.bcw_is_group and cls.csb_is_group
        assert cls.bcw_is_group_strict

    def test_type_ii_open_label_set(self):
        # labels {000, 100, 010} are not XOR-closed over a subgroup seed
        code = build_code(diagonal_group(3), [0b000, 0b001, 0b010])
        cls = classify(code)
        assert cls.type_tag == "II"
        assert not cls.bcw_is_group and cls.csb_is_group
        assert not cls.additive

    def test_type_iii_punctured_subgroup_labels(self):
        g = x_group(3)
        cut = punctured_seed(seed_state(g.normalized(0)), ["011", "101"])
        code = build_code(g, [0, 1], seed=cut)
        cls = classify(code)
        assert cls.type_tag == "III"
        assert cls.bcw_is_group and not cls.csb_is_group
        assert not cls.additive

    def test_type_iv_punctured_open_labels(self):
        g = x_group(3)
        cut = punctured_seed(seed_state(g.normalized(0)), ["011", "101"])
        code = build_code(g, [0, 1, 2], seed=cut)
        cls = classify(code)
        assert cls.type_tag == "IV"
        assert not cls.bcw_is_group and not cls.csb_is_group
        assert not cls.additive

    def test_additive_only_for_type_i(self):
        fixtures = [
            build_code(diagonal_group(3), [0, 7]),
            build_code(diagonal_group(3), [0, 1, 2]),
        ]
        g = x_group(3)
        cut = punctured_seed(seed_state(g.normalized(0)), ["011", "101"])
        fixtures.append(build_code(g, [0, 1], seed=cut))
        fixtures.append(build_code(g, [0, 1, 2], seed=cut))
        tags = [classify(c).type_tag for c in fixtures]
        assert tags == ["I", "II", "III", "IV"]
        assert [classify(c).additive for c in fixtures] == [
            True, False, False, False,
        ]

    def test_full_closure_seeds_always_have_subgroup_strings(self):
        for seed in range(8):
            for p in (2, 3, 4, 5):
                g = random_group(p, seed=10 * seed + p).normalized(0)
                code = build_code(g, [0])
                assert classify(code).csb_is_group

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_seed_predicate_matches_the_strings(self, data):
        # a stabilizer seed is read as a coset of a subgroup without its
        # strings being checked; built or reloaded, the reading must be
        # what the check gives, and so must a punctured seed's
        p = data.draw(st.integers(1, 10))
        g = random_group(p, data.draw(st.integers(0, 10_000)))
        base = data.draw(st.integers(0, (1 << p) - 1))
        seed = seed_state(g.normalized(base), base)
        if len(seed.terms) > 2 and data.draw(st.booleans()):
            strings = sorted(seed.strings)
            cut = data.draw(
                st.sets(st.sampled_from(strings), min_size=2, max_size=len(strings) - 1)
            )
            seed = punctured_seed(seed, cut)
        built = build_code(g, [0], seed=seed)
        loaded = QuantumCode.from_dict(json.loads(json.dumps(built.to_dict())))
        for code in (built, loaded):
            want = is_xor_subgroup(s ^ code.seed.base for s in code.seed.strings)
            assert classify(code).csb_is_group == want

    def test_label_flavor_is_representative_independent(self, rep3):
        """Multiplying a codeword operator by a group element changes the
        strict mod-phase predicate but never the label-level one."""
        from cosetqec import QuantumCode

        stab = rep3.group.closure()[3]  # some nontrivial element
        twisted = QuantumCode(
            group=rep3.group,
            seed=rep3.seed,
            codeword_ops=(rep3.codeword_ops[0], rep3.codeword_ops[1] * stab),
            labels=rep3.labels,
        )
        assert classify(twisted).bcw_is_group == classify(rep3).bcw_is_group

    def test_type_i_always_linear(self, golden_suite):
        for name, code, _ in golden_suite:
            cls = classify(code)
            if cls.type_tag == "I":
                assert cls.bcw_is_group, name
