"""Seed states, coset representatives, code assembly, and puncturing."""

import json
import pickle
import random
from dataclasses import replace

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
from cosetqec import codes
from cosetqec.codes import SEED_EXPLICIT, SEED_PUNCTURED, SEED_STABILIZER
from cosetqec.golden import diagonal_group, five_qubit_code, golden_codes

from conftest import pauli_matrix, signed_group


def ops_of(*strings):
    return tuple(parse_pauli(s) for s in strings)


def group_of(*strings):
    width = len(strings[0])
    return StabilizerGroup(tuple(parse_pauli(s, width) for s in strings))


def count_derivations(monkeypatch) -> list:
    """Spy on ``codes._seed_form``: the list returned gets each closure
    seed form derived from then on."""
    forms, derive = [], codes._seed_form

    def spy(*args):
        forms.append(derive(*args))
        return forms[-1]

    monkeypatch.setattr(codes, "_seed_form", spy)
    return forms


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
            (((0, 0), (0, "1")), TypeError, "seed term (0, '1') is not two ints"),
            (((0, 0), ([1], 1)), TypeError, "seed term ([1], 1) is not two ints"),
            (((0, 0, 1),), ValueError, "too many values to unpack (expected 2)"),
            (((0, 0), (0,)), ValueError, "not enough values to unpack (expected 2, got 1)"),
            (((0, 0), 5), TypeError, "cannot unpack non-iterable int object"),
            # floats pass the range checks; a float unit equal to an
            # earlier int one included
            (((2.5, 0),), TypeError, "seed term (2.5, 0) is not two ints"),
            (((0, 0.5),), TypeError, "seed term (0, 0.5) is not two ints"),
            (((2, 0), (2.0, 1)), TypeError, "seed term (2.0, 1) is not two ints"),
            # a non-int is refused as such before any range check
            (((0, 9.5),), TypeError, "seed term (0, 9.5) is not two ints"),
            ((("+", 0),), TypeError, "seed term ('+', 0) is not two ints"),
            (((None, 0),), TypeError, "seed term (None, 0) is not two ints"),
        ],
    )
    def test_bad_terms_name_the_first_failing_term(self, terms, error, message):
        with pytest.raises(error) as info:
            SeedState(terms, 3)
        assert str(info.value) == message

    def test_a_float_string_past_the_width_is_named(self):
        with pytest.raises(TypeError) as info:
            SeedState(((0, 1.5),), 1)
        assert str(info.value) == "seed term (0, 1.5) is not two ints"

    @pytest.mark.parametrize(
        "args, message",
        [
            (((), 3), "seed state has no terms"),
            ((((0, 0),), 3, 0, "closure"), "unknown seed origin 'closure'"),
        ],
        ids=["no-terms", "unknown-origin"],
    )
    def test_no_terms_and_an_unknown_origin_are_refused(self, args, message):
        with pytest.raises(ValueError) as info:
            SeedState(*args)
        assert str(info.value) == message


# the seed's sign tokens, spelled apart from the parser's table
_SIGNS = {"+": 0, "+i": 1, "i": 1, "-": 2, "-i": 3}


def _spelled_seed(pairs, width, base=0):
    """The seed of (sign, bit string) pairs, each string read
    independently of parse_bits: character j is bit j."""
    terms = tuple((_SIGNS[sign], int(bits[::-1], 2)) for sign, bits in pairs)
    return _seed_outcome(SeedState, terms, width, base)


def _seed_outcome(parse, *args):
    """The seed, or the type and message of what the parse raised."""
    try:
        return parse(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _malformed(bits, width, at=0):
    """Tokens that are not a plain [sign, bits] pair, each with what it
    parses to as term ``at``: the (sign, bit string) pair it reads as, or
    the type and message of the error that names it."""
    other = "1" if bits[0] == "0" else "0"
    head = "0" * (width - 3)

    def length(s):
        return ParseError, f"expected {width} bits, got {len(s)} in {s!r}"

    def invalid(s, j):
        return ParseError, f"invalid bit {s[j]!r} at position {j} in {s!r}"

    def short_or_invalid(s, j):  # the three-character heads at widths 1 and 2
        return length(s) if len(s) != width else invalid(s, j)

    def not_bits(value):
        return ParseError, f"expected a bit string, got {value!r}"

    def unknown(sign):
        return ParseError, f"unknown seed coefficient {sign!r}"

    def not_pair(token):  # a list or tuple of two items, nothing else
        return ParseError, f"seed term {at} is not a [sign, bits] pair: {token!r}"

    return [
        (["+", f" {bits}"], ("+", bits)),
        (["-", f"{bits}\n"], ("-", bits)),
        (["+", f"\t{bits} "], ("+", bits)),
        (["+", bits[:-1]], length(bits[:-1])),
        (["+", bits + "0"], length(bits + "0")),
        (["+", bits[:-1] + "_"], invalid(bits[:-1] + "_", width - 1)),
        (["+", "0_1" + head], short_or_invalid("0_1" + head, 1)),
        (["+", "+01" + head], short_or_invalid("+01" + head, 0)),
        (["+", "0b1" + head], short_or_invalid("0b1" + head, 1)),
        (["+", bits[:-1] + "2"], invalid(bits[:-1] + "2", width - 1)),
        (["+", bits[:-1] + "\u0661"], invalid(bits[:-1] + "\u0661", width - 1)),
        (["+", bits[:-1] + "\ud800"], invalid(bits[:-1] + "\ud800", width - 1)),
        (["+", bits.encode()], not_bits(bits.encode())),
        (["+", bytearray(bits.encode())], not_bits(bytearray(bits.encode()))),
        (["+", int(bits, 2)], not_bits(int(bits, 2))),
        (["+", None], not_bits(None)),
        (["+", [bits]], not_bits([bits])),
        (["*", bits], unknown("*")),
        (["", bits], unknown("")),
        (["+-", bits], unknown("+-")),
        ([None, bits], unknown(None)),
        ([["+"], bits], (TypeError, "unhashable type: 'list'")),
        (["+", bits, other], not_pair(["+", bits, other])),
        (["+"], not_pair(["+"])),
        # a string is no pair, not even one of two characters at width 1
        ("+" + bits, not_pair("+" + bits)),
        (7, not_pair(7)),
        ({"+": 0, bits: 0}, not_pair({"+": 0, bits: 0})),
        (("-i", bits), ("-i", bits)),
    ]


class TestSeedCodec:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_tokens_parse_to_their_spelled_terms(self, data):
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
        pairs = [tuple(t) for t in tokens]
        want = None
        if data.draw(st.booleans()):  # one malformed token, anywhere
            at = data.draw(st.integers(0, len(tokens) - 1))
            tokens[at], pairs[at] = data.draw(
                st.sampled_from(_malformed(tokens[at][1], width, at))
            )
            if isinstance(pairs[at][0], type):
                want = pairs[at]
        base = data.draw(st.sampled_from([None, "1" * width, "2" * width, " " + "0" * width]))
        if want is None and base == "2" * width:
            want = ParseError, f"invalid bit '2' at position 0 in {base!r}"
        if want is None:
            want = _spelled_seed(pairs, width, (1 << width) - 1 if base == "1" * width else 0)
        got = _seed_outcome(SeedState.from_tokens, tokens, width, base)
        assert got == want
        assert _seed_outcome(SeedState.from_tokens, iter(tokens), width, base) == got
        if isinstance(got, SeedState):
            assert got.term_tokens() == [
                [{0: "+", 1: "+i", 2: "-", 3: "-i"}[u], format_bits(s, width)]
                for u, s in got.terms
            ]
            assert SeedState.from_tokens(got.term_tokens(), width, base) == got

    @pytest.mark.parametrize("which", range(len(_malformed("01", 2))))
    def test_each_malformed_token_matches_the_per_term_parse(self, which):
        # from_tokens parses token by token; each malformed token parses
        # to its pair or raises the error that names it
        for width in (1, 3, 12, 24):
            for at in (0, 1):
                tokens = [["+", "0" * width], ["-", "1" * width]]
                pairs = [tuple(t) for t in tokens]
                tokens[at], pairs[at] = _malformed(tokens[at][1], width, at)[which]
                want = pairs[at] if isinstance(pairs[at][0], type) else _spelled_seed(pairs, width)
                assert _seed_outcome(SeedState.from_tokens, tokens, width) == want

    @pytest.mark.parametrize("width", [0, 25, 30, 3.0, True, "3"])
    def test_widths_outside_the_codec_match_the_per_term_parse(self, width):
        # the codec's widths are 0..24; each other width is refused, by the
        # token parse or by the seed (at width 0 both strings are empty)
        want = {
            "0": (ValueError, "duplicate basis string "),
            "25": (ValueError, "seed width must be in 0..24, got 25"),
            "30": (ValueError, "seed width must be in 0..24, got 30"),
            "3.0": (TypeError, "'float' object cannot be interpreted as an integer"),
            "True": (ParseError, "expected True bits, got 3 in '000'"),
            "'3'": (ParseError, "expected 3 bits, got 3 in '000'"),
        }[repr(width)]
        n = width if type(width) is int else 3
        tokens = [["+", "0" * n], ["-", "1" * n]]
        assert _seed_outcome(SeedState.from_tokens, tokens, width) == want

    @pytest.mark.parametrize("width", [13, 16, 17, 24])
    def test_many_chunks(self, width):
        # up to 9000 terms, a bad token last of all
        rng = random.Random(width)
        count = min(1 << width, 9000)
        strings = rng.sample(range(1 << width), count)
        tokens = [[rng.choice("+-"), format_bits(s, width)] for s in strings]
        seed = SeedState.from_tokens(tokens, width)
        assert seed == _spelled_seed(tokens, width)
        sign, bits = tokens[-1]
        tokens[-1] = [sign, bits + " "]
        assert SeedState.from_tokens(tokens, width) == seed
        bad = "_" + bits[1:]
        tokens[-1] = [sign, bad]
        assert _seed_outcome(SeedState.from_tokens, tokens, width) == (
            ParseError, f"invalid bit '_' at position 0 in {bad!r}"
        )

    def test_terms_in_any_order_are_accepted(self):
        # the tokens keep the terms' order, and parse back to the seed
        seed = SeedState(((2, 0b11), (0, 0b00), (1, 0b10)), 2)
        assert seed.term_tokens() == [["-", "11"], ["+", "00"], ["+i", "01"]]
        assert SeedState.from_tokens(seed.term_tokens(), 2) == seed


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

    @pytest.mark.parametrize("label", [8, -1])
    def test_label_out_of_range_refused(self, label):
        with pytest.raises(ValueError) as info:
            coset_representative(diagonal_group(3), label)
        assert str(info.value) == f"label {label} out of range for width 3"


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

    def test_no_labels_refused(self):
        with pytest.raises(ValueError) as info:
            build_code(diagonal_group(3), [])
        assert str(info.value) == "no coset labels given"

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"seed": SeedState(((0, 0),), 2, 0, SEED_STABILIZER)},
             "seed width does not match the group"),
            ({"labels": (0,)}, "codeword/label count mismatch"),
            ({"codeword_ops": (), "labels": ()}, "no coset labels given"),
            # ZII lies in the group, so its coset is the zero label's
            ({"codeword_ops": ops_of("ZII", "XXX")},
             "the first codeword operator must be the identity"),
            ({"codeword_ops": ops_of("III", "XXX", "XXX"), "labels": (0, 7, 7)},
             "duplicate coset label 111"),
        ],
        ids=["seed-width", "count-mismatch", "dimension-0", "first-not-identity",
             "repeated-label"],
    )
    def test_inconsistent_fields_refused(self, rep3, fields, message):
        with pytest.raises(ValueError) as info:
            replace(rep3, **fields)
        assert str(info.value) == message

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
        # spell its group's derived closure seed keeps the derived form,
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

    @pytest.mark.parametrize("cartanion", [[], "abc", 5])
    def test_a_cartanion_that_is_no_object_is_refused(self, five2, cartanion):
        data = {**five2.to_dict(), "cartanion": cartanion}
        with pytest.raises(ValueError) as info:
            QuantumCode.from_dict(data)
        assert str(info.value) == (
            f"cartanion must be a JSON object, got {type(cartanion).__name__}"
        )

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

    def test_a_seed_of_many_chunks_is_compared_chunk_by_chunk(self):
        # 2^13 terms, two chunks of the comparison: the file loads as the
        # derived seed, its terms not built (a broken chunk would fall
        # back to the parse and load an equal code), and an edit at
        # either end of the second chunk is refused by the full comparison
        g = random_group(13, seed=4)
        code = build_code(g, [0, 5])
        data = code.to_dict()
        n = len(data["seed"])
        assert n == 1 << 13
        again = QuantumCode.from_dict(data)
        assert again == code and again.to_dict() == data
        assert "_form" in vars(again.seed) and "terms" not in vars(again.seed)
        for i in (4096, n - 1):
            sign, bits = data["seed"][i]
            other = "-" if sign == "+" else "+"
            edited = {**data, "seed": [*data["seed"][:i], [other, bits], *data["seed"][i + 1 :]]}
            with pytest.raises(ValueError) as info:
                QuantumCode.from_dict(edited)
            assert str(info.value) == (
                f"stabilizer seed term {i} ({bits}) is {other}, {sign} "
                "in the closure seed of its group"
            )

    @pytest.mark.parametrize(
        "respell, derived",
        [
            (lambda sign, bits: [sign, f" {bits}\n"], False),
            # the units are read through the token map, which reads i as +i
            (lambda sign, bits: ["i", bits], True),
        ],
        ids=["padded-string", "bare-i"],
    )
    def test_a_seed_spelled_otherwise_loads_as_the_derived_seed(
        self, respell, derived, monkeypatch
    ):
        # the derived seed with one token spelled another way: one that is
        # not the derived text is parsed term by term and passes the full
        # comparison with the derived terms; either way the code's
        # construction checks the seed once, the closure seed is derived
        # once per load, the code is the one saved, and it saves as the
        # canonical file
        code = build_code(random_group(6, seed=2), [0, 5, 9])
        data = code.to_dict()
        i = next(i for i, (sign, _) in enumerate(data["seed"]) if sign == "+i")
        respelled = json.loads(json.dumps(data))
        respelled["seed"][i] = respell(*data["seed"][i])
        assert respelled["seed"] != data["seed"]
        checks = []
        check = QuantumCode._check_closure_seed
        monkeypatch.setattr(
            QuantumCode, "_check_closure_seed", lambda code: checks.append(check(code))
        )
        forms = count_derivations(monkeypatch)
        again = QuantumCode.from_dict(respelled)
        assert len(checks) == 1 and len(forms) == 1
        assert ("_form" in vars(again.seed)) == derived
        assert ("terms" in vars(again.seed)) != derived
        assert again == code
        assert json.dumps(again.to_dict()) == json.dumps(data)

    def test_a_group_derives_its_closure_seed_once(self, monkeypatch):
        # the form is kept on the group: a second code built on it, and a
        # code made from a built one's fields, derive none and share it
        forms = count_derivations(monkeypatch)
        g = random_group(6, seed=2)
        first = build_code(g, [0, 5])
        assert len(forms) == 1
        second = build_code(g, [0, 9])
        again = QuantumCode(g, first.seed, first.codeword_ops, first.labels)
        assert len(forms) == 1 and again == first
        assert vars(second.seed)["_form"] is vars(first.seed)["_form"] is forms[0]
        # an unpickled group holds no kept form, pickles as the group did
        # before any code was built on it, and derives its own
        fresh = random_group(6, seed=2)
        copy = pickle.loads(pickle.dumps(g))
        assert "_closure_forms" not in vars(copy)
        assert pickle.dumps(g) == pickle.dumps(copy) == pickle.dumps(fresh)
        assert build_code(copy, [0, 5]) == first
        assert len(forms) == 2 and forms[1] == forms[0]

    @pytest.mark.parametrize(
        "name, at, token",
        [
            # the string and the object, iterated, spell the term they replace
            ("y1", 0, "+0"),
            ("five2", 5, {"+": 0, "01010": 0}),
            ("five2", 5, ["+"]),
            ("five2", 5, ["+", "01010", "0"]),
        ],
        ids=["string", "object", "one-item", "three-items"],
    )
    def test_a_token_that_is_no_pair_is_refused(self, name, at, token):
        # on both load paths: a stabilizer file is compared with the
        # derived seed first, an explicit one is only parsed
        data = golden_codes()[name].to_dict()
        data["seed"][at] = token
        for origin in (SEED_STABILIZER, SEED_EXPLICIT):
            with pytest.raises(ParseError) as info:
                QuantumCode.from_dict({**data, "seed_origin": origin})
            assert str(info.value) == (
                f"seed term {at} is not a [sign, bits] pair: {token!r}"
            )

    def test_tuple_tokens_load_on_both_paths(self):
        code = golden_codes()["five2"]
        data = code.to_dict()
        data["seed"] = [tuple(token) for token in data["seed"]]
        again = QuantumCode.from_dict(data)
        assert "_form" in vars(again.seed)
        assert again == code
        explicit = QuantumCode.from_dict({**data, "seed_origin": SEED_EXPLICIT})
        assert explicit.seed.terms == code.seed.terms

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


class TestListInputs:
    """A list given for a field declared as a tuple is stored as a tuple,
    so the value equals and hashes as the one built from tuples."""

    def test_a_seed_given_as_lists_passes_the_code_check(self, five2):
        terms = five2.seed.terms
        for given in (list(terms), tuple(map(list, terms)), [*map(list, terms)]):
            seed = SeedState(given, 5, 0, SEED_STABILIZER)
            assert type(seed.terms) is tuple
            assert all(type(term) is tuple for term in seed.terms)
            assert seed == five2.seed and hash(seed) == hash(five2.seed)
            code = QuantumCode(
                five2.group, seed, list(five2.codeword_ops), list(five2.labels)
            )
            assert code == five2 and hash(code) == hash(five2)
            assert type(code.codeword_ops) is tuple and type(code.labels) is tuple

    def test_a_seed_term_is_stored_as_two_ints(self):
        seed = SeedState(((True, np.int64(3)), (0, 0)), 2)
        assert seed.terms == ((1, 3), (0, 0))
        assert {type(v) for term in seed.terms for v in term} == {int}
        assert seed == SeedState(((1, 3), (0, 0)), 2)

    def test_tuple_fields_are_kept_as_given(self, five2):
        code = QuantumCode(five2.group, five2.seed, five2.codeword_ops, five2.labels)
        assert code.codeword_ops is five2.codeword_ops and code.labels is five2.labels

    def test_seed_width_and_base_are_stored_as_ints(self):
        seed = SeedState(((0, 0), (0, 1)), True, False)
        assert (seed.width, seed.base) == (1, 0)
        assert type(seed.width) is int and type(seed.base) is int
        assert seed == SeedState(((0, 0), (0, 1)), 1, 0)


# Each label fault, and what every entry point that can express it gives:
# the type and message of its refusal, or the labels it stores.
LABEL_FAULTS = {
    "empty": ([], (ValueError, "no coset labels given")),
    "nonzero-first": ([7, 0], (ValueError, "labels[0] must be the zero coset")),
    "repeated-last": ([0, 7, 7], (ValueError, "duplicate coset label 111")),
    # 2 repeats first, but 1 comes first in list order
    "repeated": ([0, 1, 2, 2, 1], (ValueError, "duplicate coset label 100")),
    # refused as out of range, not by the coset check, whose message
    # would name them by their low bits, 000 and 111
    "out-of-range-high": ([0, 8], (ValueError, "label 8 out of range for width 3")),
    "out-of-range-low": ([0, -1], (ValueError, "label -1 out of range for width 3")),
    "float": ([0, 7.0], (TypeError, "'float' object cannot be interpreted as an integer")),
    "bool": ([False, True], ((0, 1), {int}, ["000", "100"])),
}
# a code file's labels are bit strings, which cannot spell these
NOT_IN_A_FILE = {"out-of-range-high", "out-of-range-low", "float", "bool"}


def _label_outcome(make):
    """The type and message of what ``make()`` raised, or the labels of
    the code it made, their types and their JSON form."""
    try:
        code = make()
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return code.labels, {*map(type, code.labels)}, code.to_dict()["labels"]


class TestLabelFaults:
    """``QuantumCode.__post_init__`` owns every label check, so a fault
    gets one outcome from ``build_code``, ``QuantumCode(...)``,
    ``dataclasses.replace``, ``QuantumCode.from_dict`` and the CLI."""

    @pytest.mark.parametrize("fault", sorted(LABEL_FAULTS))
    def test_every_entry_point_gives_one_outcome(self, rep3, tmp_path, capsys, fault):
        from cosetqec.cli import main

        labels, want = LABEL_FAULTS[fault]
        group = rep3.group
        # a label outside the width gets the operator of its low bits
        ops = [coset_representative(group, int(lab) & 7) for lab in labels]
        assert _label_outcome(lambda: build_code(group, labels)) == want
        assert _label_outcome(lambda: QuantumCode(group, rep3.seed, ops, labels)) == want
        assert _label_outcome(
            lambda: replace(rep3, codeword_ops=tuple(ops), labels=tuple(labels))
        ) == want
        if fault in NOT_IN_A_FILE:
            return
        data = {
            **rep3.to_dict(),
            "codeword_spinors": [format_pauli(op) for op in ops],
            "labels": [format_bits(lab, 3) for lab in labels],
        }
        assert _label_outcome(lambda: QuantumCode.from_dict(data)) == want
        path = tmp_path / "code.json"
        path.write_text(json.dumps(data))
        assert main(["classify", "--code", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: bad code file: {want[1]}\n"


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

    def test_a_bare_string_is_refused(self, five2):
        # not read as the list of its characters
        with pytest.raises(TypeError) as info:
            punctured_seed(five2.seed, "00000,00110")
        assert str(info.value) == (
            "removed must be an iterable of basis strings, got a str"
        )

    def test_code_with_punctured_seed(self):
        g = group_of("XII", "IXI", "IIX")
        cut = punctured_seed(seed_state(g.normalized(0)), ["011", "101"])
        code = build_code(g, [0, 1], seed=cut)
        assert code.seed.origin == SEED_PUNCTURED
        assert code.dimension == 2
