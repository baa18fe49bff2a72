"""Syndrome tables, correctability verdicts, and diagnosis."""

import gc
import pickle
import weakref
from dataclasses import FrozenInstanceError, fields, replace
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cosetqec.verify as verify
from cosetqec import (
    CodeClass,
    Diagnosis,
    ErrorSet,
    KLReport,
    MaxDimension,
    PauliOperator,
    QuantumCode,
    SearchResult,
    UnknownSyndromeError,
    Verdict,
    WidthMismatchError,
    build_code,
    build_table,
    check_correctable,
    diagnose,
    format_label,
    format_pauli,
    max_dimension,
    parse_bits,
    parse_pauli,
    random_group,
)
from cosetqec.golden import (
    cat_code,
    diagonal_group,
    repetition_code,
    single_qubit_errors,
    x_flips,
    z_flips,
)
from cosetqec.verify import InternalCheckError, SyndromeTable, pigeonhole


def draw_errors(data, p):
    """The identity and up to six other distinct classes at width p."""
    size = 1 << p
    classes = data.draw(
        st.lists(
            st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)).filter(any),
            max_size=6,
            unique=True,
        ),
        label="errors",
    )
    return ErrorSet(
        tuple(PauliOperator.from_symplectic(x, z, p) for x, z in [(0, 0), *classes])
    )


class TestTable:
    def test_repetition_row_major_labels(self, rep3):
        table = build_table(rep3, x_flips(3))
        got = [
            format_label(lab, 3) for _, _, lab in table.iter_entries()
        ]
        # XOR of error labels {000,100,010,001} with codeword labels {000,111}
        assert got == ["000", "111", "100", "011", "010", "101", "001", "110"]

    def test_identity_entry_is_zero(self, five2):
        table = build_table(five2, single_qubit_errors(5))
        assert table.entry(0, 0) == 0

    def test_ghz_z_errors_share_a_coset(self, cat3):
        errs = ErrorSet(
            (PauliOperator.identity(3), parse_pauli("ZII"), parse_pauli("IZI"))
        )
        table = build_table(cat3, errs)
        assert table.entry(1, 0) == table.entry(2, 0) == parse_bits("100")

    def test_additivity_always_consistent(self, five2):
        # build_table cross-checks product syndromes against XOR additivity
        build_table(five2, single_qubit_errors(5))


def first_repeat(table):
    """The first row-major entry whose label came earlier, as (i1, j1, i2,
    j2), by comparing it with every entry before it."""
    entries = list(table.iter_entries())
    for t, (i, j, lab) in enumerate(entries):
        for i1, j1, earlier in entries[:t]:
            if earlier == lab:
                return i1, j1, i, j
    return None


def assert_scan_matches_brute_force(table):
    assert table.collision == first_repeat(table)
    assert (table.inverse is None) == (table.collision is not None)
    if table.inverse is not None:
        assert table.inverse == {lab: (i, j) for i, j, lab in table.iter_entries()}


class TestCollision:
    def test_golden_suite(self, golden_suite):
        for _, code, errs in golden_suite:
            assert_scan_matches_brute_force(build_table(code, errs))

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_random_codes(self, data):
        p = data.draw(st.integers(1, 6), label="p")
        group = random_group(p, seed=data.draw(st.integers(0, 10**6), label="seed"))
        size = 1 << p
        labels = data.draw(
            st.lists(st.integers(1, size - 1), max_size=min(4, size - 1), unique=True),
            label="labels",
        )
        code = build_code(group, [0, *labels])
        errs = draw_errors(data, p)
        table = build_table(code, errs)
        assert_scan_matches_brute_force(table)
        if not verify.pigeonhole(code, errs):
            assert check_correctable(code, errs, table).collision == table.collision


# each result type with the fields it stored before its restated ones
# became properties
RESTATED = [
    (Verdict, {"correctable": True, "pigeonhole": True}),
    (KLReport, {"passed": True, "witness": None}),
    (
        CodeClass,
        {
            "type_tag": "I",
            "bcw_is_group": True,
            "csb_is_group": True,
            "additive": True,
            "bcw_is_group_strict": True,
        },
    ),
    (MaxDimension, {"dimension": 1, "labels": (0,)}),
    (
        SearchResult,
        {"found": False, "code": None, "reason": "", "candidates_tried": 0},
    ),
]


class TestDerivedFields:
    @pytest.mark.parametrize("cls, kwargs", RESTATED, ids=[c.__name__ for c, _ in RESTATED])
    def test_restated_fields_are_not_arguments(self, cls, kwargs):
        with pytest.raises(TypeError):
            cls(**kwargs)

    def test_stored_field_count(self):
        assert sum(len(fields(cls)) for cls, _ in RESTATED) == 13

    def test_verdict(self):
        assert Verdict().correctable
        assert not Verdict(collision=(1, 0, 2, 0)).correctable
        assert not Verdict(pigeonhole=True).correctable

    def test_kl_report(self):
        assert KLReport().passed
        assert not KLReport(witness=(0, 1, 0, 0)).passed

    @pytest.mark.parametrize(
        "bcw, csb, tag",
        [(True, True, "I"), (False, True, "II"), (True, False, "III"), (False, False, "IV")],
    )
    def test_code_class(self, bcw, csb, tag):
        cls = CodeClass(bcw_is_group=bcw, csb_is_group=csb, bcw_is_group_strict=False)
        assert cls.type_tag == tag
        assert cls.additive == (tag == "I")

    def test_max_dimension_and_search_result(self, rep3):
        assert MaxDimension(labels=(0, 3, 5)).dimension == 3
        assert SearchResult(rep3, "hit", 1, 0).found
        assert not SearchResult(None, "miss", 5).found


class TestCorrectable:
    def test_repetition_corrects_x_flips(self, rep3):
        verdict = check_correctable(rep3, x_flips(3))
        assert verdict.correctable
        table = build_table(rep3, x_flips(3))
        labels = [lab for _, _, lab in table.iter_entries()]
        assert sorted(labels) == list(range(8))  # all of the label space

    def test_cat_fails_z_flips_with_first_collision(self, cat3):
        verdict = check_correctable(cat3, z_flips(3))
        assert not verdict.correctable
        # row-major scan: (0,1) [codeword coset 100] collides with (1,0)
        # [ZII, also coset 100] before the (1,0)/(2,0) pair does
        assert verdict.collision == (0, 1, 1, 0)

    def test_five_qubit_perfect_packing(self, five2):
        errs = single_qubit_errors(5)
        verdict = check_correctable(five2, errs)
        assert verdict.correctable
        table = build_table(five2, errs)
        labels = {lab for _, _, lab in table.iter_entries()}
        assert len(labels) == 32  # fills the whole label space

    def test_pigeonhole_refusal(self):
        code = build_code(diagonal_group(1), [0, 1])
        errs = ErrorSet(
            (
                PauliOperator.identity(1),
                parse_pauli("X"),
                parse_pauli("Y"),
                parse_pauli("Z"),
            )
        )
        verdict = check_correctable(code, errs)
        assert not verdict.correctable
        assert verdict.pigeonhole

    def test_width_mismatch_refused_before_pigeonhole(self):
        # 16 errors x 2 codewords > 2^3 would hit the pigeonhole shortcut
        with pytest.raises(WidthMismatchError, match="error width 5 != code width 3"):
            check_correctable(repetition_code(), single_qubit_errors(5))

    def test_prebuilt_table_gives_the_same_verdicts(self, golden_suite):
        for name, code, errs in golden_suite:
            if pigeonhole(code, errs):
                continue
            table = build_table(code, errs)
            assert check_correctable(code, errs, table) == check_correctable(
                code, errs
            ), name

    def test_prebuilt_table_is_not_rebuilt(self, rep3, monkeypatch):
        table = build_table(rep3, x_flips(3))
        monkeypatch.setattr(verify, "_rows", None)  # any build fails
        assert check_correctable(rep3, x_flips(3), table).correctable

    def test_equal_code_and_errors_accept_the_table(self):
        table = build_table(repetition_code(), x_flips(3))
        assert check_correctable(repetition_code(), x_flips(3), table).correctable

    def test_table_of_another_code_refused(self, rep3, cat3):
        table = build_table(cat3, x_flips(3))
        with pytest.raises(ValueError, match="another code or error set"):
            check_correctable(rep3, x_flips(3), table)

    def test_table_of_another_error_set_refused(self, rep3):
        table = build_table(rep3, z_flips(3))
        with pytest.raises(ValueError, match="another code or error set"):
            check_correctable(rep3, x_flips(3), table)

    def test_width_and_pigeonhole_come_before_the_table(self, rep3, cat3):
        alien = build_table(cat3, z_flips(3))
        with pytest.raises(WidthMismatchError):
            check_correctable(rep3, single_qubit_errors(5), alien)
        crowd = ErrorSet(
            tuple(parse_pauli(s) for s in ("III", "XII", "IXI", "IIX", "XXI"))
        )
        verdict = check_correctable(rep3, crowd, alien)
        assert verdict.pigeonhole and not verdict.correctable

    def test_punctured_seed_is_algebraic_only(self):
        from cosetqec import punctured_seed, seed_state
        from cosetqec.stabilizer import StabilizerGroup

        g = StabilizerGroup(tuple(parse_pauli(s, 3) for s in ("XII", "IXI", "IIX")))
        cut = punctured_seed(seed_state(g.normalized(0)), ["011", "101"])
        code = build_code(g, [0, 1], seed=cut)
        verdict = check_correctable(code, ErrorSet((PauliOperator.identity(3),)))
        assert verdict.algebraic_only


class TestDiagnose:
    def test_repetition_examples(self, rep3):
        errs = x_flips(3)
        d = diagnose(rep3, errs, parse_bits("010"))
        assert (d.error_index, d.codeword_index) == (2, 0)
        assert format_pauli(d.correction) == "IXI"

        d = diagnose(rep3, errs, 0)
        assert (d.error_index, d.codeword_index) == (0, 0)

        d = diagnose(rep3, errs, parse_bits("110"))
        assert (d.error_index, d.codeword_index) == (3, 1)
        assert format_pauli(d.correction) == "IIX"

    def test_round_trip_identity(self, five2):
        errs = single_qubit_errors(5)
        table = build_table(five2, errs)
        for i, j, lab in table.iter_entries():
            d = diagnose(five2, errs, lab, table=table)
            assert (d.error_index, d.codeword_index) == (i, j)

    def test_an_error_list_uses_the_table_of_its_tuple(self, five2):
        errs = single_qubit_errors(5)
        table = build_table(five2, errs)
        listed = ErrorSet(list(errs.errors))
        i, j, lab = next(table.iter_entries())
        d = diagnose(five2, listed, lab, table)
        assert (d.error_index, d.codeword_index) == (i, j)

    def test_unknown_label(self, rep3):
        errs = ErrorSet((PauliOperator.identity(3), parse_pauli("XII")))
        with pytest.raises(UnknownSyndromeError):
            diagnose(rep3, errs, parse_bits("010"))

    def test_table_of_another_error_set_refused(self, rep3):
        table = build_table(rep3, ErrorSet((PauliOperator.identity(3),)))
        with pytest.raises(ValueError, match="another code or error set"):
            diagnose(rep3, x_flips(3), 0, table)

    @pytest.mark.parametrize("observed", [8, 9, 1 << 70, -1, -8])
    def test_label_outside_the_width_refused(self, rep3, observed):
        # it used to name a truncated label ("000" for 8, "111" for -1)
        short = ErrorSet((PauliOperator.identity(3), parse_pauli("XII")))
        for errs in (x_flips(3), short):
            with pytest.raises(ValueError) as info:
                diagnose(rep3, errs, observed)
            assert str(info.value) == f"label {observed} out of range for width 3"
        with pytest.raises(UnknownSyndromeError, match="label 010 matches no"):
            diagnose(rep3, short, 2)

    def test_equal_but_distinct_table_accepted(self, rep3):
        table = build_table(rep3, x_flips(3))
        code = QuantumCode.from_dict(rep3.to_dict())
        assert code is not rep3 and code == rep3
        d = diagnose(code, x_flips(3), parse_bits("110"), table)
        assert (d.error_index, d.codeword_index) == (3, 1)

    def test_table_of_another_code_refused(self, rep3):
        other = build_code(diagonal_group(3), [0, parse_bits("011")])
        table = build_table(other, x_flips(3))
        with pytest.raises(ValueError, match="another code or error set"):
            diagnose(rep3, x_flips(3), 0, table)

    @pytest.mark.parametrize("observed", [2.0, 2.5])
    def test_label_that_is_not_an_integer_refused(self, rep3, observed):
        # 2.0 used to diagnose label 2, and 2.5 to fail inside the formatter
        errs = x_flips(3)
        table = build_table(rep3, errs)
        for tab in (None, table):
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                diagnose(rep3, errs, observed, tab)

    def test_unknown_syndrome_error_keeps_its_message_and_pickles(self, rep3):
        short = ErrorSet((PauliOperator.identity(3), parse_pauli("XII")))
        with pytest.raises(UnknownSyndromeError) as info:
            diagnose(rep3, short, 2)
        exc = info.value
        assert str(exc) == "label 010 matches no error/codeword product"
        assert exc.args == (2, 3)
        assert repr(exc) == "UnknownSyndromeError(2, 3)"
        copy = pickle.loads(pickle.dumps(exc))
        assert type(copy) is UnknownSyndromeError
        assert copy.args == exc.args and str(copy) == str(exc)

    def test_requires_injective_table(self, cat3):
        with pytest.raises(ValueError, match="not injective"):
            diagnose(cat3, z_flips(3), 0)

    def test_diagnosis_matches_one_built_by_init(self, five2):
        # diagnose builds its result without the dataclass __init__
        errs = single_qubit_errors(5)
        table = build_table(five2, errs)
        for i, j, lab in table.iter_entries():
            d = diagnose(five2, errs, lab, table)
            built = Diagnosis(i, j, errs[i])
            assert type(d) is Diagnosis
            assert d == built and built == d
            assert hash(d) == hash(built)
            assert repr(d) == repr(built)
            assert vars(d) == vars(built)
        assert d != Diagnosis(i, j + 1, errs[i])
        assert len({d, built, Diagnosis(i, j + 1, errs[i])}) == 2

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_every_label_of_random_codes(self, data):
        # each label from -1 to 2^p is diagnosed as the table's rows say,
        # refused as unknown, or refused as out of range
        p = data.draw(st.integers(1, 6), label="p")
        group = random_group(p, seed=data.draw(st.integers(0, 10**6), label="seed"))
        size = 1 << p
        errs = draw_errors(data, p)
        greedy = max_dimension(group, errs)
        assume(greedy.degenerate_pair is None)
        k = data.draw(st.integers(1, len(greedy.labels)), label="k")
        code = build_code(group, list(greedy.labels[:k]))
        table = build_table(code, errs)
        assert check_correctable(code, errs, table).correctable
        where = {lab: (i, j) for i, row in enumerate(table.rows) for j, lab in enumerate(row)}
        for label in range(-1, size + 1):
            for tab in (None, table):
                hit = where.get(label)
                if hit is not None:
                    d = diagnose(code, errs, label, tab)
                    built = Diagnosis(*hit, errs[hit[0]])
                    assert type(d) is Diagnosis and d == built
                    assert hash(d) == hash(built) and repr(d) == repr(built)
                elif 0 <= label < size:
                    with pytest.raises(UnknownSyndromeError) as info:
                        diagnose(code, errs, label, tab)
                    assert info.value.args == (label, p)
                else:
                    with pytest.raises(ValueError) as info:
                        diagnose(code, errs, label, tab)
                    assert str(info.value) == f"label {label} out of range for width {p}"

    def test_diagnosis_is_frozen(self, rep3):
        d = diagnose(rep3, x_flips(3), parse_bits("010"))
        for name in ("error_index", "codeword_index", "correction", "other"):
            with pytest.raises(FrozenInstanceError):
                setattr(d, name, 0)
        with pytest.raises(FrozenInstanceError):
            del d.error_index
        assert (d.error_index, d.codeword_index) == (2, 0)


def outcome(call, *args):
    """What ``call(*args)`` returned, or the type and message it raised."""
    try:
        return call(*args)
    except (LookupError, ValueError) as exc:
        return type(exc), str(exc)


def fresh_outcomes(code, errors, labels):
    """The verdict, rows, collision and the diagnosis of each label, all
    from a table built afresh for them."""
    table = SyndromeTable(code, errors, verify._rows(code, errors))
    return (
        check_correctable(code, errors, table),
        table.rows,
        table.collision,
        [outcome(diagnose, code, errors, lab, table) for lab in labels],
    )


class TestSharedTable:
    """check_correctable, build_table and diagnose share the rows and the
    row-major pass of the last (code, error set) pair, matched by
    identity."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_shared_outcomes_match_fresh_ones(self, data):
        p = data.draw(st.integers(1, 5), label="p")
        group = random_group(p, seed=data.draw(st.integers(0, 10**6), label="seed"))
        size = 1 << p
        labels = data.draw(
            st.lists(st.integers(1, size - 1), max_size=min(3, size - 1), unique=True),
            label="labels",
        )
        code = build_code(group, [0, *labels])
        errs = draw_errors(data, p)
        queries = range(-1, size + 1)
        verdict, rows, collision, diagnoses = fresh_outcomes(code, errs, queries)
        # the pair itself and equal but distinct copies of either side
        pairs = [(c, e) for c in (code, replace(code)) for e in (errs, replace(errs))]
        steps = data.draw(
            st.lists(
                st.tuples(st.integers(0, 2), st.integers(0, 3), st.sampled_from(queries)),
                min_size=1,
                max_size=8,
            ),
            label="steps",
        )
        for call, pair, lab in steps:
            c, e = pairs[pair]
            if call == 0:
                assert check_correctable(c, e) == verdict
            elif call == 1:
                table = build_table(c, e)
                assert table.code is c and table.errors is e
                assert table.rows == rows and table.collision == collision
            else:
                assert outcome(diagnose, c, e, lab) == diagnoses[lab + 1]

    @pytest.mark.parametrize("copied", ["code", "errors", "both"])
    def test_the_table_is_built_once_per_pair(self, rep3, monkeypatch, copied):
        rows, calls = verify._rows, []

        def counting(code, errors):
            calls.append(len(errors))
            return rows(code, errors)

        monkeypatch.setattr(verify, "_rows", counting)
        errs = x_flips(3)
        for _ in range(2):
            assert check_correctable(rep3, errs).correctable
            table = build_table(rep3, errs)
            d = diagnose(rep3, errs, parse_bits("110"))
            assert (d.error_index, d.codeword_index) == (3, 1)
        assert calls == [4]
        assert table.rows == ((0, 7), (1, 6), (2, 5), (4, 3))
        code = replace(rep3) if copied != "errors" else rep3
        other = replace(errs) if copied != "code" else errs
        assert code == rep3 and other == errs
        diagnose(code, other, 0)
        build_table(code, other)
        check_correctable(code, other)
        assert calls == [4, 4]

    def test_no_kept_entry_outlives_its_code(self):
        code, errs = cat_code(), single_qubit_errors(3)
        ref = weakref.ref(code)
        assert build_table(code, errs).rows
        assert verify._rows_and_pass._entry[0]() is code
        assert build_table(code, errs).code is code  # a hit keeps no table
        del code
        gc.collect()
        assert ref() is None
        assert verify._rows_and_pass._entry is None

    def test_a_code_that_takes_no_weak_reference_is_answered_not_kept(self, rep3):
        errs = x_flips(3)
        build_table(rep3, errs)
        assert verify._rows_and_pass._entry is not None
        stand_in = SimpleNamespace(
            width=rep3.width,
            group=rep3.group,
            codeword_ops=rep3.codeword_ops,
            labels=rep3.labels,
        )
        with pytest.raises(TypeError):
            weakref.ref(stand_in)
        table = build_table(stand_in, errs)
        assert table.code is stand_in and table.errors is errs
        assert table.rows == ((0, 7), (1, 6), (2, 5), (4, 3))
        assert table.collision is None and table.inverse[parse_bits("110")] == (3, 1)
        assert verify._rows_and_pass._entry is None

    def test_diagnose_without_a_table_builds_none(self, rep3, monkeypatch):
        errs = x_flips(3)
        assert check_correctable(rep3, errs).correctable

        def refused(code, errors):
            raise AssertionError("diagnose built a table")

        monkeypatch.setattr(verify, "build_table", refused)
        d = diagnose(rep3, errs, parse_bits("110"))
        assert (d.error_index, d.codeword_index) == (3, 1)

    def test_a_new_pair_with_a_broken_entry_still_raises(self, rep3):
        # one entry of the new code's syndrome map is broken: product
        # (1, 1), XII times XXX, gets a wrong label that XOR additivity
        # catches, while the kept table of rep3 is left alone
        errs = x_flips(3)
        assert check_correctable(rep3, errs).correctable
        code = QuantumCode.from_dict(rep3.to_dict())
        label = code.group.syndrome_map
        err, word = errs[1], code.codeword_ops[1]
        bad = (err.x ^ word.x, err.z ^ word.z)
        code.group.__dict__["syndrome_map"] = lambda x, z: label(x, z) ^ ((x, z) == bad)
        for call in (check_correctable, build_table):
            with pytest.raises(InternalCheckError) as info:
                call(code, errs)
            assert str(info.value) == "syndrome additivity failed at entry (1, 1)"
            # the kept pair was dropped before the build
            assert verify._rows_and_pass._entry is None
        with pytest.raises(InternalCheckError):
            diagnose(code, errs, 0)
