"""Operator algebra against the dense-matrix oracle."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetqec import (
    ErrorSet,
    ParseError,
    PauliOperator,
    WidthMismatchError,
    format_bits,
    format_label,
    format_pauli,
    parse_bits,
    parse_pauli,
    symplectic_product,
)
from cosetqec.pauli import rank_f2

from conftest import pauli_matrix


def all_ops(p, phases=False):
    for x in range(1 << p):
        for z in range(1 << p):
            if phases:
                for d in range(4):
                    yield PauliOperator(d, x, z, p)
            else:
                yield PauliOperator.from_symplectic(x, z, p)


class TestParseFormat:
    def test_plain_string(self):
        s = parse_pauli("XIZ")
        assert (s.phase, s.x, s.z, s.width) == (0, 0b001, 0b100, 3)

    def test_y_carries_i(self):
        # i * XZ equals Y as a 2x2 matrix, so "Y" parses with phase 1
        y = parse_pauli("Y")
        assert (y.phase, y.x, y.z) == (1, 1, 1)
        xz = np.array([[0, 1], [1, 0]]) @ np.array([[1, 0], [0, -1]])
        assert np.array_equal(1j * xz, pauli_matrix(y))

    def test_sign_prefix(self):
        s = parse_pauli("-ZZ")
        assert (s.phase, s.x, s.z) == (2, 0b00, 0b11)

    @pytest.mark.parametrize(
        "text,phase", [("+X", 0), ("iX", 1), ("+iX", 1), ("-X", 2), ("-iX", 3)]
    )
    def test_prefixes(self, text, phase):
        assert parse_pauli(text).phase == phase

    def test_format_examples(self):
        assert format_pauli(PauliOperator(0, 0b001, 0b100, 3)) == "XIZ"
        assert format_pauli(PauliOperator(1, 1, 1, 1)) == "Y"
        assert format_pauli(PauliOperator(2, 0, 0b11, 2)) == "-ZZ"
        assert format_pauli(PauliOperator(0, 1, 1, 1)) == "-iY"

    def test_round_trip_all_canonical_up_to_width_3(self):
        for p in (1, 2, 3):
            for body in itertools.product("IXYZ", repeat=p):
                for prefix in ("", "+", "-", "i", "+i", "-i"):
                    text = prefix + "".join(body)
                    op = parse_pauli(text)
                    assert parse_pauli(format_pauli(op)) == op

    def test_bad_character_names_position(self):
        with pytest.raises(ParseError, match="position 1"):
            parse_pauli("XWZ")

    def test_wrong_length(self):
        with pytest.raises(ParseError, match="expected 3"):
            parse_pauli("XX", width=3)

    def test_bits_round_trip(self):
        assert parse_bits("100") == 1
        assert parse_bits("011") == 6
        assert format_bits(6, 3) == "011"
        with pytest.raises(ParseError):
            parse_bits("10a")

    @pytest.mark.parametrize("parse", [parse_bits, parse_pauli])
    @pytest.mark.parametrize(
        "bad", [5, None, 1.0, ["0"], {"x": 1}, b"01", bytearray(b"01")]
    )
    def test_non_string_refused(self, parse, bad):
        with pytest.raises(ParseError, match=r"expected a (bit|Pauli) string, got"):
            parse(bad)
        with pytest.raises(ParseError, match=r"expected a (bit|Pauli) string, got"):
            parse(bad, 3)


def reference_parse_bits(text, width=None):
    """The character loop parse_bits used before its C-level codec."""
    s = text.strip()
    if width is not None and len(s) != width:
        raise ParseError(f"expected {width} bits, got {len(s)} in {text!r}")
    value = 0
    for j, ch in enumerate(s):
        if ch == "1":
            value |= 1 << j
        elif ch != "0":
            raise ParseError(f"invalid bit {ch!r} at position {j} in {text!r}")
    return value


def reference_format_bits(value, width):
    return "".join("1" if (value >> j) & 1 else "0" for j in range(width))


def _parse_outcome(parse, *args):
    try:
        return parse(*args)
    except ParseError as exc:
        return str(exc)


# characters int(..., 2) would accept or that look like bits, and others
BAD_BITS = ["2", "a", "b", "_", "+", "-", " ", "\t", "x", "\u0661", "\uff11", "é", "\x00"]


class TestBitStrings:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_round_trip_up_to_width_24(self, data):
        p = data.draw(st.integers(1, 24))
        value = data.draw(st.integers(0, (1 << p) - 1))
        text = format_bits(value, p)
        assert text == reference_format_bits(value, p)
        assert parse_bits(text, p) == value
        assert parse_bits(f"  {text}\n") == value

    @pytest.mark.parametrize("value", [-1, -6, 8, 13, 1 << 70, -(1 << 70)])
    @pytest.mark.parametrize("width", [0, 1, 3, 24])
    def test_format_keeps_the_low_bits(self, value, width):
        assert format_bits(value, width) == reference_format_bits(value, width)

    @pytest.mark.parametrize("value, width", [(1.5, 3), (5, 2.0)], ids=["value", "width"])
    @pytest.mark.parametrize("fmt", [format_bits, format_label], ids=["bits", "label"])
    def test_format_refuses_a_float(self, fmt, value, width):
        # both used to fail inside & and <<
        with pytest.raises(TypeError) as info:
            fmt(value, width)
        assert str(info.value) == "'float' object cannot be interpreted as an integer"

    @pytest.mark.parametrize("bad", BAD_BITS)
    def test_every_bad_position_names_the_first_bad_character(self, bad):
        for p in (1, 2, 5, 12, 24):
            for j in range(p):
                for tail in ("0", "1", "z"):
                    text = ("10" * p)[:j] + bad + (tail * p)[: p - j - 1]
                    # a blank at either end is stripped, so not every text fails
                    want = _parse_outcome(reference_parse_bits, text, len(text.strip()))
                    assert _parse_outcome(parse_bits, text, len(text.strip())) == want
                    assert _parse_outcome(parse_bits, text) == want

    @pytest.mark.parametrize(
        "text,width",
        [("", None), ("", 0), ("  ", None), ("101", 4), ("101 ", 2), ("1 0", 3),
         ("0b1", None), ("1_0", None), ("+1", None), ("-1", None)],
    )
    def test_edge_inputs_match_the_loop(self, text, width):
        assert _parse_outcome(parse_bits, text, width) == _parse_outcome(
            reference_parse_bits, text, width
        )


def reference_parse_pauli(text, width=None):
    """The letter loop parse_pauli once ran on every string it could not
    read whole, each operator going through PauliOperator's checks;
    parse_pauli keeps only its refusals, which this loop must match."""
    try:
        s = str.strip(text)
    except TypeError:
        raise ParseError(f"expected a Pauli string, got {text!r}") from None
    prefix = next((c for c in ("-i", "+i", "i", "-", "+") if s.startswith(c)), "")
    s = s[len(prefix):]
    if not s:
        raise ParseError(f"empty Pauli body in {text!r}")
    if width is not None and len(s) != width:
        raise ParseError(f"expected {width} Pauli characters, got {len(s)} in {text!r}")
    if not 1 <= len(s) <= 24:
        raise ValueError(f"width must be in 1..24, got {len(s)}")
    phase = {"": 0, "+": 0, "i": 1, "+i": 1, "-": 2, "-i": 3}[prefix]
    x = z = 0
    for j, ch in enumerate(s):
        if ch not in "IXYZ":
            raise ParseError(f"invalid character {ch!r} at position {j} in {text!r}")
        x |= (ch in "XY") << j
        z |= (ch in "YZ") << j
        phase += ch == "Y"
    return PauliOperator(phase, x, z, len(s))


def _pauli_outcome(*args):
    """An operator's fields, or the type and message of what was raised."""
    try:
        op = parse_pauli(*args)
    except ValueError as exc:
        got = (type(exc), str(exc))
    else:
        got = (op.phase, op.x, op.z, op.width)
        assert op == PauliOperator(*got)
        assert all(type(v) is int for v in got)
    try:
        want = reference_parse_pauli(*args)
    except ValueError as exc:
        return got, (type(exc), str(exc))
    return got, (want.phase, want.x, want.z, want.width)


# blanks, lowercase, digits, a bit, non-ASCII letters and a stray prefix
JUNK = [" ", "\t", "\n", "x", "y", "z", "i", "0", "1", "7", "+", "-", "_", "é", "Ι", "Ｘ"]


class TestPauliStrings:
    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_parse_matches_the_letter_loop(self, data):
        n = data.draw(st.sampled_from([1, 2, 3, 5, 12, 23, 24, 25]), label="n")
        letters = st.sampled_from("IXYZ")
        if data.draw(st.booleans(), label="junk"):
            letters = st.one_of(letters, st.sampled_from("+-i" + "".join(JUNK)))
        body = "".join(data.draw(st.lists(letters, min_size=n, max_size=n)))
        prefix = data.draw(st.sampled_from(["", "+", "-", "i", "+i", "-i", "--", "i-", "+ "]))
        pad = data.draw(st.sampled_from(["", " ", "\t\n"]))
        text = pad + prefix + body + pad
        width = data.draw(st.sampled_from([None, n, n - 1, n + 1]), label="width")
        got, want = _pauli_outcome(text, width)
        assert got == want

    @pytest.mark.parametrize(
        "text",
        ["", "+", "-i", "i", "ii", "iiX", "+-X", "-+X", "X-", "X i", "x", "XYZ ",
         "I" * 24, "-i" + "Y" * 24, "I" * 25, "Q" * 25, "IXYZ" * 6 + "q"],
    )
    @pytest.mark.parametrize("width", [None, 1, 3, 24, 25])
    def test_edge_inputs_match_the_loop(self, text, width):
        got, want = _pauli_outcome(text, width)
        assert got == want


class TestMultiply:
    def test_xz_order_convention(self):
        x, z = parse_pauli("X"), parse_pauli("Z")
        assert (x * z) == PauliOperator(0, 1, 1, 1)  # XZ = -iY
        assert (z * x) == PauliOperator(2, 1, 1, 1)  # ZX = iY

    def test_two_qubit_example(self):
        a, b = parse_pauli("XX"), parse_pauli("ZZ")
        assert (a * b) == PauliOperator(0, 0b11, 0b11, 2)

    @pytest.mark.parametrize("p", [1, 2])
    def test_exhaustive_against_matrices(self, p):
        ops = list(all_ops(p, phases=True))
        mats = {op: pauli_matrix(op) for op in ops}
        for s1 in ops:
            for s2 in ops:
                assert np.array_equal(mats[s1] @ mats[s2], pauli_matrix(s1 * s2))

    def test_width_mismatch(self):
        with pytest.raises(WidthMismatchError):
            parse_pauli("X") * parse_pauli("XX")

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_associative(self, data):
        p = data.draw(st.integers(1, 4))
        ops = [
            PauliOperator(
                data.draw(st.integers(0, 3)),
                data.draw(st.integers(0, (1 << p) - 1)),
                data.draw(st.integers(0, (1 << p) - 1)),
                p,
            )
            for _ in range(3)
        ]
        a, b, c = ops
        assert (a * b) * c == a * (b * c)


class TestCommutation:
    def test_examples(self):
        assert symplectic_product(parse_pauli("X"), parse_pauli("Z")) == 1
        assert symplectic_product(parse_pauli("XX"), parse_pauli("ZZ")) == 0
        s = parse_pauli("-iYXZ")
        assert symplectic_product(s, s) == 0

    @pytest.mark.parametrize("p", [1, 2])
    def test_exhaustive_against_commutators(self, p):
        for s1 in all_ops(p):
            m1 = pauli_matrix(s1)
            for s2 in all_ops(p):
                m2 = pauli_matrix(s2)
                vanishes = np.array_equal(m1 @ m2, m2 @ m1)
                assert (symplectic_product(s1, s2) == 0) == vanishes

    def test_phases_ignored(self):
        a, b = parse_pauli("X"), parse_pauli("Z")
        am, bm = parse_pauli("-X"), parse_pauli("-iZ")
        assert symplectic_product(a, b) == symplectic_product(am, bm)

    def test_widths_must_match(self):
        with pytest.raises(WidthMismatchError) as info:
            symplectic_product(parse_pauli("XX"), parse_pauli("X"))
        assert str(info.value) == "cannot compare width 2 with width 1"


class TestStructure:
    @pytest.mark.parametrize("x, z", [(4, 0), (0, 4), (-1, 0)])
    def test_masks_wider_than_the_width_refused(self, x, z):
        with pytest.raises(ValueError) as info:
            PauliOperator(0, x, z, 2)
        assert str(info.value) == "x/z masks exceed the operator width"

    def test_weight(self):
        assert parse_pauli("XIZ").weight == 2
        assert PauliOperator.identity(4).weight == 0
        assert parse_pauli("YYY").weight == 3

    def test_adjoint_matches_conjugate_transpose(self):
        for op in all_ops(2, phases=True):
            assert np.array_equal(
                pauli_matrix(op).conj().T, pauli_matrix(op.adjoint())
            )

    def test_hermitian_iff_self_adjoint(self):
        for op in all_ops(2, phases=True):
            assert op.is_hermitian == (op.adjoint() == op)

    def test_square_is_plus_or_minus_identity(self):
        for op in all_ops(2, phases=True):
            sq = op * op
            assert (sq.x, sq.z) == (0, 0)
            assert sq.phase in (0, 2)
            # Hermitian operators square to +identity
            if op.is_hermitian:
                assert sq.phase == 0

    @pytest.mark.parametrize(
        "fields, message",
        [
            ((0, 1.0, 0, 1), "'float' object cannot be interpreted as an integer"),
            ((1.5, 0, 0, 1), "'float' object cannot be interpreted as an integer"),
            ((0, 0, 1, "1"), "'str' object cannot be interpreted as an integer"),
        ],
        ids=["float-x", "float-phase", "str-width"],
    )
    def test_a_non_int_field_is_refused(self, fields, message):
        with pytest.raises(TypeError) as info:
            PauliOperator(*fields)
        assert str(info.value) == message

    def test_fields_are_stored_as_ints(self):
        op = PauliOperator(True, True, 0, True)
        assert [type(v) for v in (op.phase, op.x, op.z, op.width)] == [int] * 4
        assert op == PauliOperator(1, 1, 0, 1)

    def test_rank_examples(self):
        # GF(2) rank of the packed rows x | z << width, phases dropped
        def rank(*texts):
            ops = [parse_pauli(s) for s in texts]
            return rank_f2([op.x | op.z << op.width for op in ops])

        assert rank("ZII", "IZI", "IIZ") == 3
        # third row is the product of the first two
        assert rank("ZZI", "IZZ", "ZIZ") == 2
        assert rank("X", "Y", "Z") == 2
        assert rank() == 0


class TestGroupLaw:
    """Closure, identity, and inverses over the full signed group."""

    @pytest.mark.parametrize("p", [1, 2])
    def test_closure_and_identity(self, p):
        ident = PauliOperator.identity(p)
        ops = list(all_ops(p, phases=True))
        universe = set(ops)
        for s in ops:
            assert s * ident == s
            assert ident * s == s
            sq = s * s
            assert sq in universe and (sq.x, sq.z) == (0, 0)

    @pytest.mark.parametrize("p", [1, 2])
    def test_products_stay_in_group(self, p):
        ops = list(all_ops(p, phases=True))
        universe = set(ops)
        for s1 in ops:
            for s2 in ops:
                assert s1 * s2 in universe


class TestErrorSet:
    def test_identity_first_enforced(self):
        with pytest.raises(ValueError, match="identity"):
            ErrorSet((parse_pauli("X"),))

    def test_distinct_mod_phase(self):
        ops = (PauliOperator.identity(1), parse_pauli("X"), parse_pauli("-X"))
        with pytest.raises(ValueError, match="duplicates"):
            ErrorSet(ops)

    def test_from_text_skips_comments(self):
        es = ErrorSet.from_text("# flips\nIII\nXII\n\nIXI\n")
        assert len(es) == 3
        assert format_pauli(es[2]) == "IXI"

    def test_from_text_rejects_bad_first_line(self):
        with pytest.raises(ValueError, match="identity"):
            ErrorSet.from_text("XII\nIII\n")

    def test_empty_set_refused(self):
        with pytest.raises(ValueError) as info:
            ErrorSet(())
        assert str(info.value) == "error set is empty"

    def test_mixed_widths_refused(self):
        with pytest.raises(WidthMismatchError) as info:
            ErrorSet((PauliOperator.identity(1), parse_pauli("XI")))
        assert str(info.value) == "mixed widths in error set"

    def test_from_strings_refuses_a_bare_string(self):
        # not read as the list of its characters
        with pytest.raises(TypeError) as info:
            ErrorSet.from_strings("XYZ")
        assert str(info.value) == "lines must be an iterable of Pauli strings, got a str"
        assert len(ErrorSet.from_strings(["III", "XYZ"])) == 2

    def test_a_list_is_stored_as_a_tuple(self):
        ops = [PauliOperator.identity(2), parse_pauli("XI")]
        listed = ErrorSet(ops)
        assert type(listed.errors) is tuple
        assert listed == ErrorSet(tuple(ops)) and hash(listed) == hash(ErrorSet(tuple(ops)))

    def test_from_text_of_comments_only_refused(self):
        with pytest.raises(ParseError) as info:
            ErrorSet.from_text("# flips\n\n  # none\n")
        assert str(info.value) == "error file contains no Pauli strings"
