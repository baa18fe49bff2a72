"""Seed states, coset representatives, code assembly, and puncturing."""

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetqec import (
    GroupError,
    ParseError,
    QuantumCode,
    SeedState,
    StabilizerGroup,
    build_code,
    classify,
    coset_representative,
    format_bits,
    format_pauli,
    parse_bits,
    parse_pauli,
    punctured_seed,
    random_group,
    seed_state,
)
from cosetqec.codes import SEED_EXPLICIT, SEED_PUNCTURED, SEED_STABILIZER
from cosetqec.golden import diagonal_group, five_qubit_code

from conftest import pauli_matrix, signed_group


def group_of(*strings):
    width = len(strings[0])
    return StabilizerGroup(tuple(parse_pauli(s, width) for s in strings))


def seed_vector(seed: SeedState) -> np.ndarray:
    v = np.zeros(1 << seed.width, dtype=complex)
    for unit, string in seed.terms:
        v[string] = 1j ** unit
    return v


class TestSeedState:
    def test_diagonal_group_fixes_base(self):
        seed = seed_state(diagonal_group(3))
        assert seed.term_tokens() == [["+", "000"]]

    def test_bell_group(self):
        seed = seed_state(group_of("XX", "ZZ"))
        assert seed.term_tokens() == [["+", "00"], ["+", "11"]]

    def test_ghz_group(self):
        seed = seed_state(group_of("XXX", "ZZI", "IZZ"))
        assert seed.term_tokens() == [["+", "000"], ["+", "111"]]

    def test_y_group_has_imaginary_unit(self):
        # the closure {I, Y} seeds |0> + i|1>; no sign choice removes the i
        seed = seed_state(group_of("Y"))
        assert seed.term_tokens() == [["+", "0"], ["+i", "1"]]

    def test_unnormalized_signs_refused(self):
        g = group_of("XX", "YY")  # diagonal subgroup {II, -ZZ} kills the sum
        with pytest.raises(GroupError, match="not sign-normalized"):
            seed_state(g)
        seed = seed_state(g.normalized(0))
        assert seed.term_tokens() == [["+", "00"], ["+", "11"]]

    def test_string_count_is_power_of_two(self):
        for s in range(10):
            g = random_group(4, seed=s).normalized(0)
            n = len(seed_state(g).terms)
            assert n & (n - 1) == 0

    def test_strings_form_xor_subgroup(self):
        for s in range(10):
            g = random_group(4, seed=s).normalized(0)
            strings = seed_state(g).strings
            assert 0 in strings
            assert all(a ^ b in strings for a in strings for b in strings)

    def test_strings_are_x_image_of_closure(self):
        for s in range(10):
            g = random_group(4, seed=100 + s).normalized(0)
            assert seed_state(g).strings == {e.x for e in g.closure()}

    @pytest.mark.parametrize("seed_idx", range(6))
    def test_matches_dense_sum_of_closure(self, seed_idx):
        """The symbolic seed equals sum_S S|0> / |diagonal subgroup|,
        computed with the independent matrix oracle."""
        g = random_group(3, seed=seed_idx).normalized(0)
        total = np.zeros(8, dtype=complex)
        e0 = np.zeros(8, dtype=complex)
        e0[0] = 1
        for elem in g.closure():
            total += pauli_matrix(elem) @ e0
        sym = seed_vector(seed_state(g))
        d = len(g.closure()) // np.count_nonzero(sym)
        assert np.array_equal(total, d * sym)

    def test_nonzero_base(self):
        g = diagonal_group(2)
        base = parse_bits("10")
        seed = seed_state(g.normalized(base), base)
        assert seed.term_tokens() == [["+", "10"]]
        assert seed.base == base

    def test_derived_seeds_skip_a_check_they_would_pass(self, monkeypatch):
        # seed_state and punctured_seed build their seeds without
        # __post_init__, and rebuilt through it each is the same seed
        def refuse(seed):
            raise AssertionError("a derived seed was validated again")

        derived = []
        with monkeypatch.context() as mp:
            mp.setattr(SeedState, "__post_init__", refuse)
            for s in range(12):
                p = 1 + s % 6
                base = random.Random(s).randrange(1 << p)
                seed = seed_state(random_group(p, seed=s).normalized(base), base)
                derived.append(seed)
                if len(seed.terms) > 2:
                    derived.append(punctured_seed(seed, sorted(seed.strings)[1:3]))
        assert {seed.origin for seed in derived} == {SEED_STABILIZER, SEED_PUNCTURED}
        for seed in derived:
            again = SeedState(seed.terms, seed.width, seed.base, seed.origin)
            assert again == seed
            assert hash(again) == hash(seed)

    @pytest.mark.parametrize("base", [-1, 8])
    def test_base_outside_the_width_refused(self, base):
        with pytest.raises(ValueError, match="seed base"):
            SeedState(((0, 0),), 3, base=base)

    @pytest.mark.parametrize("base", [-1, 1 << 5, 1 << 70])
    def test_seed_state_refuses_a_base_outside_the_width(self, base):
        # refused before the walk, with the message SeedState gives
        g = random_group(5, 1)
        with pytest.raises(ValueError) as info:
            seed_state(g, base)
        assert str(info.value) == f"seed base {base:#x} exceeds width 5"
        assert not isinstance(info.value, GroupError)

    def test_seed_state_refuses_a_non_int_base(self):
        with pytest.raises(TypeError):
            seed_state(random_group(3, 1), 1.0)

    @pytest.mark.parametrize(
        "args, error, message",
        [
            ((((0, 0),), 2, 1.0), TypeError,
             "'float' object cannot be interpreted as an integer"),
            ((((0, 0),), 30), ValueError, "seed width must be in 0..24, got 30"),
            ((((0, 0),), -1), ValueError, "seed width must be in 0..24, got -1"),
            ((((0, 0),), 2.0), TypeError,
             "'float' object cannot be interpreted as an integer"),
        ],
        ids=["float-base", "width-30", "width-minus-1", "float-width"],
    )
    def test_non_int_base_and_bad_widths_are_refused(self, args, error, message):
        with pytest.raises(error) as info:
            SeedState(*args)
        assert str(info.value) == message

    def test_origin_defaults_to_explicit(self):
        assert SeedState(((0, 0),), 2).origin == SEED_EXPLICIT

    @pytest.mark.parametrize(
        "terms,error,message",
        [
            (((0, 0), (0, 0)), ValueError, "duplicate basis string 000"),
            (((0, 0), (4, 1)), ValueError, "coefficient exponent 4 out of range"),
            (((-1, 0),), ValueError, "coefficient exponent -1 out of range"),
            (((0, 0), (0, 8)), ValueError, "basis string 0x8 exceeds width 3"),
            (((0, -1),), ValueError, "basis string -0x1 exceeds width 3"),
            # the first failing term in term order is named
            (((0, 1), (0, 1), (5, 2)), ValueError, "duplicate basis string 100"),
            (((0, 9), (0, 1), (0, 1)), ValueError, "basis string 0x9 exceeds width 3"),
            (((0, 0), (0, "1")), TypeError,
             "'<=' not supported between instances of 'int' and 'str'"),
            (((0, 0), ([1], 1)), TypeError,
             "'<=' not supported between instances of 'int' and 'list'"),
            (((0, 0, 1),), ValueError, "too many values to unpack (expected 2)"),
            (((0, 0), (0,)), ValueError, "not enough values to unpack (expected 2, got 1)"),
            (((0, 0), 5), TypeError, "cannot unpack non-iterable int object"),
            # floats pass the range checks; a float unit equal to an
            # earlier int one included
            (((2.5, 0),), TypeError, "seed term (2.5, 0) is not two ints"),
            (((0, 0.5),), TypeError, "seed term (0, 0.5) is not two ints"),
            (((2, 0), (2.0, 1)), TypeError, "seed term (2.0, 1) is not two ints"),
        ],
    )
    def test_bad_terms_name_the_first_failing_term(self, terms, error, message):
        with pytest.raises(error) as info:
            SeedState(terms, 3)
        assert str(info.value) == message


def reference_from_tokens(tokens, width, base=None, origin=SEED_EXPLICIT):
    """The per-term parse from_tokens ran before its whole-list codec."""
    units = {"+": 0, "+i": 1, "i": 1, "-": 2, "-i": 3}
    terms = []
    for sign, bits in tokens:
        unit = units.get(sign)
        if unit is None:
            raise ParseError(f"unknown seed coefficient {sign!r}")
        terms.append((unit, parse_bits(bits, width)))
    parsed_base = 0 if base is None else parse_bits(base, width)
    return SeedState(tuple(terms), width, parsed_base, origin)


def _seed_outcome(parse, *args):
    """The seed, or the type and message of what the parse raised."""
    try:
        return parse(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _malformed(bits, width):
    """Tokens that the whole-list parse must hand to the per-term one;
    some of them (the padded strings) parse there."""
    other = "1" if bits[0] == "0" else "0"
    return [
        ["+", f" {bits}"],
        ["-", f"{bits}\n"],
        ["+", f"\t{bits} "],
        ["+", bits[:-1]],
        ["+", bits + "0"],
        ["+", bits[:-1] + "_"],
        ["+", "0_1" + "0" * (width - 3)],
        ["+", "+01" + "0" * (width - 3)],
        ["+", "0b1" + "0" * (width - 3)],
        ["+", bits[:-1] + "2"],
        ["+", bits[:-1] + "\u0661"],
        ["+", bits[:-1] + "\ud800"],
        ["+", bits.encode()],
        ["+", bytearray(bits.encode())],
        ["+", int(bits, 2)],
        ["+", None],
        ["+", [bits]],
        ["*", bits],
        ["", bits],
        ["+-", bits],
        [None, bits],
        [["+"], bits],
        ["+", bits, other],
        ["+"],
        "+" + bits,
        7,
        ("-i", bits),
    ]


class TestSeedCodec:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_whole_list_parse_matches_the_per_term_parse(self, data):
        width = data.draw(st.integers(1, 24), label="width")
        strings = data.draw(
            st.lists(st.integers(0, (1 << width) - 1), min_size=1, max_size=40, unique=True)
        )
        if data.draw(st.booleans()):
            strings.sort()
        signs = data.draw(
            st.lists(st.sampled_from(["+", "-", "+i", "-i", "i"]),
                     min_size=len(strings), max_size=len(strings))
        )
        tokens = [[sign, format_bits(s, width)] for sign, s in zip(signs, strings)]
        if data.draw(st.booleans()):  # a repeated string
            tokens.append(["+", tokens[0][1]])
        if data.draw(st.booleans()):  # one malformed token, anywhere
            at = data.draw(st.integers(0, len(tokens) - 1))
            tokens[at] = data.draw(st.sampled_from(_malformed(tokens[at][1], width)))
        base = data.draw(st.sampled_from([None, "1" * width, "2" * width, " " + "0" * width]))
        got = _seed_outcome(SeedState.from_tokens, tokens, width, base)
        assert got == _seed_outcome(reference_from_tokens, tokens, width, base)
        assert _seed_outcome(SeedState.from_tokens, iter(tokens), width, base) == got
        if isinstance(got, SeedState):
            assert got.term_tokens() == [
                [{0: "+", 1: "+i", 2: "-", 3: "-i"}[u], format_bits(s, width)]
                for u, s in got.terms
            ]
            assert SeedState.from_tokens(got.term_tokens(), width, base) == got

    @pytest.mark.parametrize("which", range(len(_malformed("01", 2))))
    def test_each_malformed_token_matches_the_per_term_parse(self, which):
        for width in (1, 3, 12, 24):
            for at in (0, 1):
                tokens = [["+", "0" * width], ["-", "1" * width]]
                tokens[at] = _malformed(tokens[at][1], width)[which]
                assert _seed_outcome(SeedState.from_tokens, tokens, width) == _seed_outcome(
                    reference_from_tokens, tokens, width
                )

    @pytest.mark.parametrize("width", [0, 25, 30, 3.0, True, "3"])
    def test_widths_outside_the_codec_match_the_per_term_parse(self, width):
        n = width if type(width) is int else 3
        tokens = [["+", "0" * n], ["-", "1" * n]]
        assert _seed_outcome(SeedState.from_tokens, tokens, width) == _seed_outcome(
            reference_from_tokens, tokens, width
        )

    @pytest.mark.parametrize("width", [13, 16, 17, 24])
    def test_many_chunks(self, width):
        # more terms than one chunk parses, a bad token last of all
        rng = random.Random(width)
        count = min(1 << width, 9000)
        strings = rng.sample(range(1 << width), count)
        tokens = [[rng.choice("+-"), format_bits(s, width)] for s in strings]
        seed = SeedState.from_tokens(tokens, width)
        assert seed == reference_from_tokens(tokens, width)
        sign, bits = tokens[-1]
        tokens[-1] = [sign, bits + " "]
        assert SeedState.from_tokens(tokens, width) == seed
        tokens[-1] = [sign, "_" + bits[1:]]
        assert _seed_outcome(SeedState.from_tokens, tokens, width) == _seed_outcome(
            reference_from_tokens, tokens, width
        )

    def test_terms_in_any_order_are_accepted(self):
        # only ascending strings pass the whole-list check; the term loop
        # takes the rest
        seed = SeedState(((2, 0b11), (0, 0b00), (1, 0b10)), 2)
        assert seed.term_tokens() == [["-", "11"], ["+", "00"], ["+i", "01"]]


class TestCosetRepresentative:
    def test_diagonal_all_ones(self):
        rep = coset_representative(diagonal_group(3), parse_bits("111"))
        assert format_pauli(rep) == "XXX"

    def test_zero_label_is_identity(self):
        rep = coset_representative(diagonal_group(3), 0)
        assert rep.is_identity

    def test_weight_tie_broken_by_letters(self):
        rep = coset_representative(group_of("Z"), 1)
        assert format_pauli(rep) == "X"  # X beats Y on the letter order

    def test_five_qubit_logical(self):
        # independently derived by enumerating all 32 coset members of
        # label 00001 and minimizing (weight, letters)
        g = group_of("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ", "ZZZZZ")
        rep = coset_representative(g, parse_bits("00001"))
        assert format_pauli(rep) == "IIXYX"
        assert rep.weight == 3

    @pytest.mark.parametrize("label", [1.0, "1", None])
    def test_non_int_label_refused(self, label):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            coset_representative(diagonal_group(3), label)

    def test_bool_label_read_as_int(self):
        assert coset_representative(diagonal_group(3), True) == (
            coset_representative(diagonal_group(3), 1)
        )


class TestBuildCode:
    def test_repetition(self):
        code = build_code(diagonal_group(3), [0, 0b111])
        assert [format_pauli(op) for op in code.codeword_ops] == ["III", "XXX"]
        assert code.dimension == 2

    def test_five_qubit(self, five2):
        assert five2.dimension == 2
        assert len(five2.seed.terms) == 16

    def test_k1(self):
        code = build_code(diagonal_group(3), [0])
        assert code.dimension == 1

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_code(diagonal_group(3), [0, 7, 7])

    def test_duplicate_message_names_the_first_label_that_repeats(self):
        # 2 repeats first, but 1 comes first in list order
        with pytest.raises(ValueError) as info:
            build_code(diagonal_group(3), [0, 1, 2, 2, 1])
        assert str(info.value) == "duplicate coset label 100"

    def test_float_label_refused(self):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            build_code(diagonal_group(3), [0, 1.0])

    def test_labels_stored_as_ints(self):
        code = build_code(diagonal_group(3), [False, True])
        assert code.labels == (0, 1)
        assert [type(lab) for lab in code.labels] == [int, int]
        assert code.to_dict()["labels"] == ["000", "100"]

    def test_first_label_must_be_zero(self):
        with pytest.raises(ValueError, match="zero coset"):
            build_code(diagonal_group(3), [7, 0])

    def test_labels_checked_against_operators(self):
        good = build_code(diagonal_group(2), [0, 3])
        with pytest.raises(ValueError, match="not in coset"):
            QuantumCode(
                group=good.group,
                seed=good.seed,
                codeword_ops=good.codeword_ops,
                labels=(0, 1),
            )

    def test_labels_checked_on_load(self):
        # the seed spells its group's, so the load skips only the seed check
        data = build_code(diagonal_group(2), [0, 3]).to_dict()
        data["labels"] = ["00", "01"]
        with pytest.raises(ValueError, match="not in coset"):
            QuantumCode.from_dict(data)

    def test_json_round_trip(self, five2):
        again = QuantumCode.from_dict(five2.to_dict())
        assert again.codeword_ops == five2.codeword_ops
        assert again.labels == five2.labels
        assert again.seed.terms == five2.seed.terms
        assert again.seed.origin == SEED_STABILIZER
        assert "seed_base" not in five2.to_dict()

    def test_json_round_trip_keeps_a_nonzero_base(self):
        g = group_of("XXX", "ZZI", "IZZ")
        base = parse_bits("001")
        code = build_code(g, [0], seed=seed_state(g.normalized(base), base))
        data = code.to_dict()
        assert data["seed_base"] == "001"
        again = QuantumCode.from_dict(data)
        assert again.seed == code.seed
        assert classify(again) == classify(code)
        assert classify(again).type_tag == "I"

    def test_loading_validates_the_seed_once(self, monkeypatch):
        # a parsed seed is validated once; a stabilizer seed whose tokens
        # spell its group's derived closure seed keeps the derived terms,
        # valid by construction, and is not validated again
        g = group_of("XXX", "ZZI", "IZZ")
        base = parse_bits("101")
        data = build_code(g, [0], seed=seed_state(g.normalized(base), base)).to_dict()
        runs = []
        validate = SeedState.__post_init__
        monkeypatch.setattr(
            SeedState, "__post_init__", lambda seed: runs.append(validate(seed))
        )
        for origin, validations in ((SEED_STABILIZER, 0), (SEED_EXPLICIT, 1)):
            runs.clear()
            assert QuantumCode.from_dict({**data, "seed_origin": origin}).seed.base == base
            assert len(runs) == validations

    @pytest.mark.parametrize("width", [5.9, 5.0, "5", True, None])
    def test_width_that_is_not_an_integer_refused(self, five2, width):
        message = f"width must be an integer, got {width!r}"
        data = five2.to_dict()
        data["width"] = width
        with pytest.raises(ValueError, match=message):
            QuantumCode.from_dict(data)
        data = five2.to_dict()
        data["cartanion"]["width"] = width
        with pytest.raises(ValueError, match=message):
            QuantumCode.from_dict(data)

    def test_a_seed_that_cannot_be_the_closure_seed_is_refused(self):
        # every derived seed passes; with a term cut or the base term's
        # unit turned, a stabilizer seed is refused and an explicit one
        # still loads
        rng = random.Random(3)
        for p in range(1, 13):
            for s in range(4):
                g = random_group(p, seed=s)
                base = 0 if s % 2 else rng.randrange(1 << p)
                seed = seed_state(g.normalized(base), base)
                build_code(g, [0], seed=seed)
                terms, n = seed.terms, len(seed.terms)
                i = [string for _, string in terms].index(base)
                turned = (*terms[:i], (2, base), *terms[i + 1 :])
                edits = [
                    (
                        turned,
                        rf"^stabilizer seed term {i} \({format_bits(base, p)}\) is -, \+ "
                        "in the closure seed of its group$",
                    )
                ]
                if n > 1:
                    edits.append(
                        (terms[1:], f"{n - 1} terms, but the closure seed of its group has {n}$")
                    )
                for bad, message in edits:
                    with pytest.raises(ValueError, match=message):
                        build_code(g, [0], seed=SeedState(bad, p, base, SEED_STABILIZER))
                    build_code(g, [0], seed=SeedState(bad, p, base))

    @pytest.mark.parametrize(
        "field, text",
        [("seed", "abc"), ("codeword_spinors", "IIIII"), ("labels", "00000")],
    )
    def test_a_string_in_place_of_a_list_is_refused(self, five2, field, text):
        # "IIIII" used to be read as five one-letter spinors, and "abc"
        # as a seed of three one-character tokens
        data = {**five2.to_dict(), field: text}
        with pytest.raises(ValueError) as info:
            QuantumCode.from_dict(data)
        assert str(info.value) == f"{field} must be a list, got str"

    def test_seed_terms_are_parsed_before_the_base(self):
        # a wrong top-level width is reported on the first seed term
        data = build_code(group_of("XXX", "ZZI", "IZZ"), [0]).to_dict()
        data.update(width=4, seed_base="1000")
        with pytest.raises(ValueError, match="expected 4 bits, got 3 in '000'"):
            QuantumCode.from_dict(data)


class TestSavedStabilizerSeed:
    """A ``stabilizer`` seed is checked in full wherever a code is made,
    against the closure seed derived from its group: on load, by
    ``QuantumCode(...)`` and by ``build_code(seed=...)``."""

    def test_a_seed_of_another_closure_is_refused(self):
        # another group's seed, with the same 16 terms and + at the base
        foreign = seed_state(random_group(5, 1).normalized(0))
        with pytest.raises(ValueError) as info:
            build_code(five_qubit_code().group, [0, 16], seed=foreign)
        assert str(info.value) == (
            "stabilizer seed term 1 is 10000, 11000 in the closure seed of its group"
        )
        # the seed of {-XX, ZZ} itself, not of its normalized group
        signed = StabilizerGroup((parse_pauli("-XX"), parse_pauli("ZZ")))
        with pytest.raises(ValueError) as info:
            build_code(signed, [0], seed=seed_state(signed, 0))
        assert str(info.value) == (
            "stabilizer seed term 1 (11) is -, + in the closure seed of its group"
        )

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_every_single_term_edit_is_refused(self, data):
        p = data.draw(st.integers(1, 10), label="p")
        g = signed_group(p, data.draw(st.integers(0, 10_000)), data.draw(st.booleans()))
        base = data.draw(st.integers(0, (1 << p) - 1), label="base")
        labels = data.draw(st.sets(st.integers(1, (1 << p) - 1), max_size=3))
        code = build_code(g, [0, *sorted(labels)], seed=seed_state(g.normalized(base), base))
        text = json.dumps(code.to_dict(), indent=2)
        again = QuantumCode.from_dict(json.loads(text))
        assert again == code
        assert json.dumps(again.to_dict(), indent=2) == text
        seed = code.to_dict()["seed"]
        i = data.draw(st.integers(0, len(seed) - 1), label="term")
        sign, bits = seed[i]
        if data.draw(st.booleans(), label="flip the unit"):
            other = data.draw(st.sampled_from([t for t in ("+", "+i", "-", "-i") if t != sign]))
            edit = [other, bits]
        else:
            j = data.draw(st.integers(0, p - 1), label="bit")
            edit = [sign, bits[:j] + "10"[int(bits[j])] + bits[j + 1 :]]
        edited = json.loads(text)
        edited["seed"][i] = edit
        with pytest.raises(ValueError) as info:
            QuantumCode.from_dict(edited)
        if edit[1] != bits and edit[1] in {t[1] for t in seed}:
            return  # a string that another term holds: a duplicate
        if edit[1] == bits:
            message = f"stabilizer seed term {i} ({bits}) is {edit[0]}, {sign}"
        else:
            message = f"stabilizer seed term {i} is {edit[1]}, {bits}"
        message += " in the closure seed of its group"
        assert str(info.value) == message
        # the API refuses the same seed with the same message
        bad = SeedState.from_tokens(
            edited["seed"], p, edited.get("seed_base"), SEED_STABILIZER
        )
        with pytest.raises(ValueError) as info:
            QuantumCode(g, bad, code.codeword_ops, code.labels)
        assert str(info.value) == message
        with pytest.raises(ValueError) as info:
            build_code(g, code.labels, seed=bad)
        assert str(info.value) == message
        # marked explicit, the edited seed loads as written
        edited["seed_origin"] = SEED_EXPLICIT
        QuantumCode.from_dict(edited)


class TestPuncture:
    def make_full_seed(self):
        # all-X group: seed is the uniform superposition over all 8 strings
        return seed_state(group_of("XII", "IXI", "IIX").normalized(0))

    def test_removes_terms(self):
        seed = self.make_full_seed()
        cut = punctured_seed(seed, ["011", "101"])
        assert cut.origin == SEED_PUNCTURED
        assert len(cut.terms) == 6
        assert parse_bits("011") not in cut.strings

    def test_single_removal_rejected(self):
        with pytest.raises(ValueError, match="more than one"):
            punctured_seed(self.make_full_seed(), ["011"])

    def test_removing_everything_rejected(self):
        seed = seed_state(group_of("XXX", "ZZI", "IZZ").normalized(0))
        with pytest.raises(ValueError, match="every term"):
            punctured_seed(seed, ["000", "111"])

    def test_absent_string_rejected(self):
        seed = seed_state(group_of("XXX", "ZZI", "IZZ").normalized(0))
        with pytest.raises(ValueError, match="absent"):
            punctured_seed(seed, ["000", "010"])

    @pytest.mark.parametrize("string", [41, 32, -1])
    def test_string_outside_the_width_rejected(self, five2, string):
        # 41 must not be read as its low five bits, string 9, which the
        # seed holds
        message = rf"basis string {string} outside \[0, 2\^5\)"
        with pytest.raises(ValueError, match=message):
            punctured_seed(five2.seed, [string, 0])

    @pytest.mark.parametrize("item", [9.0, "9", None])
    def test_non_int_item_rejected(self, five2, item):
        # 9.0 must not be read as the string 9, which the seed holds; a
        # str is a bit string, and "9" is not one
        error = ParseError if isinstance(item, str) else TypeError
        with pytest.raises(error):
            punctured_seed(five2.seed, [item, 0])

    def test_code_with_punctured_seed(self):
        g = group_of("XII", "IXI", "IIX")
        cut = punctured_seed(seed_state(g.normalized(0)), ["011", "101"])
        code = build_code(g, [0, 1], seed=cut)
        assert code.seed.origin == SEED_PUNCTURED
        assert code.dimension == 2
