"""Dense-state engine: exact arithmetic and the structural sweeps.

The per-operator sweeps the oracle used before the flip-mask dichotomy
sweep, the Hermitian Gram and the generator-first eigenvector check,
and the per-amplitude inner product it used before bit slicing, are kept
here as slow references, and the oracle must return the same reports as
they do."""

import ast
import gc
import random
import weakref
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cosetqec.oracle as oracle
import cosetqec.selftest as selftest

from cosetqec import (
    DenseState,
    ErrorSet,
    OracleLimitError,
    PauliOperator,
    SeedState,
    WidthMismatchError,
    build_code,
    check_correctable,
    check_eigenvectors,
    check_knill_laflamme,
    check_overlap_dichotomy,
    check_syndrome_orthogonality,
    codeword_states,
    parse_pauli,
    punctured_seed,
    random_group,
    seed_state,
    syndrome_states,
)
from cosetqec.golden import (
    cat_code,
    diagonal_group,
    single_qubit_errors,
    x_flips,
)
from cosetqec.oracle import KLReport, OracleReport
from cosetqec.pauli import format_pauli
from cosetqec.selftest import run_selftest
from cosetqec.stabilizer import StabilizerGroup, format_label

from conftest import closure_classes, pauli_matrix, signed_group, state_vector


def group_of(*strings):
    width = len(strings[0])
    return StabilizerGroup(tuple(parse_pauli(s, width) for s in strings))


def reference_inner(u, v):
    """<u|v> one amplitude pair at a time."""
    if v.width != u.width:
        raise WidthMismatchError("inner product of mismatched widths")
    re = im = 0
    for ur, ui, vr, vi in zip(u.re, u.im, v.re, v.im):
        re += ur * vr + ui * vi
        im += ur * vi - ui * vr
    return re, im


def reference_apply(state, op):
    """One amplitude at a time: |a> -> i^d (-1)^(z.a) |a^x>."""
    size = 1 << state.width
    re = [0] * size
    im = [0] * size
    for a in range(size):
        r, i = state.re[a], state.im[a]
        k = (op.phase + 2 * ((op.z & a).bit_count() & 1)) & 3
        for _ in range(k):  # times i, k times
            r, i = -i, r
        re[a ^ op.x], im[a ^ op.x] = r, i
    return DenseState(tuple(re), tuple(im), state.width)


def reference_from_seed(seed):
    """The seed's amplitudes laid out term by term, through the
    validating constructor."""
    re = [0] * (1 << seed.width)
    im = [0] * (1 << seed.width)
    for unit, string in seed.terms:
        r, i = 1, 0
        for _ in range(unit):  # times i, unit times
            r, i = -i, r
        re[string], im[string] = r, i
    return DenseState(tuple(re), tuple(im), seed.width)


@st.composite
def seeds(draw, p):
    """A stabilizer seed on a random base, a punctured one, or (from
    width 2) an explicit seed that uses all four units."""
    kinds = ["stabilizer", "punctured", "explicit"][: 3 if p > 1 else 2]
    kind = draw(st.sampled_from(kinds), label="kind")
    if kind == "explicit":
        strings = draw(
            st.lists(
                st.integers(0, (1 << p) - 1), min_size=4, max_size=1 << p, unique=True
            ),
            label="strings",
        )
        units = [0, 1, 2, 3]
        units += draw(
            st.lists(st.integers(0, 3), min_size=len(strings) - 4,
                     max_size=len(strings) - 4),
            label="units",
        )
        return SeedState(tuple(zip(units, strings)), p, origin="explicit")
    group = random_group(p, seed=draw(st.integers(0, 10**6), label="group"))
    base = draw(st.integers(0, (1 << p) - 1), label="base")
    seed = seed_state(group.normalized(base), base)
    if kind == "punctured" and len(seed.terms) > 2:
        strings = sorted(seed.strings)
        removed = draw(
            st.lists(st.sampled_from(strings), min_size=2,
                     max_size=len(strings) - 1, unique=True),
            label="removed",
        )
        seed = punctured_seed(seed, removed)
    return seed


def reference_eigencheck(state, op):
    """+1 or -1 when op scales every amplitude by it, None otherwise."""
    moved = reference_apply(state, op)
    for value in (1, -1):
        if moved.re == tuple(value * r for r in state.re) and moved.im == tuple(
            value * i for i in state.im
        ):
            return value
    return None


def dense_states(p):
    """States with re and im in {-1, 0, 1}: 1 +/- i lanes and the zero
    state included."""
    amps = st.lists(st.integers(-1, 1), min_size=1 << p, max_size=1 << p)
    return st.builds(lambda re, im: DenseState(tuple(re), tuple(im), p), amps, amps)


def paulis(p):
    bits = st.integers(0, (1 << p) - 1)
    return st.builds(PauliOperator, st.integers(0, 3), bits, bits, st.just(p))


def reference_dichotomy(group, members=None):
    """Apply each of the 4^p Hermitian representatives to the seed and
    take the inner product: 8^p operations.  ``members`` replaces the
    closure classes as the set of operators judged inside."""
    p = group.width
    norm = group.normalized(0)
    seed = DenseState.from_seed(seed_state(norm, 0))
    n2 = seed.norm2
    if members is None:
        members = closure_classes(norm)
    violations = []
    cases = 0
    for x in range(1 << p):
        for z in range(1 << p):
            cases += 1
            op = PauliOperator.from_symplectic(x, z, p)
            val = seed.inner(reference_apply(seed, op))
            if (x, z) in members:
                if val not in ((n2, 0), (-n2, 0)):
                    violations.append(
                        f"{format_pauli(op)}: inside but expectation {val} != +/-{n2}"
                    )
            elif val != (0, 0):
                violations.append(
                    f"{format_pauli(op)}: outside but expectation {val} != 0"
                )
    return OracleReport("overlap-dichotomy", cases, tuple(violations))


def reference_eigenvectors(code, errors=None):
    """Every state against all 2^p closure elements, in closure order."""
    states = [(f"codeword {j}", s) for j, s in enumerate(codeword_states(code))]
    if errors is not None:
        states += [
            (f"syndrome ({i},{j})", s) for i, j, s in syndrome_states(code, errors)
        ]
    violations = []
    cases = 0
    for name, state in states:
        for elem in code.group.closure():
            cases += 1
            if state.eigencheck(elem) is None:
                violations.append(
                    f"{name} is not an eigenvector of {format_pauli(elem)}"
                )
    return OracleReport("eigenvectors", cases, tuple(violations))


def full_matrix_witness(gram, n, k):
    """The Knill-Laflamme rule over the whole Gram matrix of n errors on
    k codewords: the codeword norms must agree, and the first (a, b, i, j)
    in witness order whose entry is not c_ab = gram[a*k][b*k] when i == j,
    or (0, 0) when not, is the witness."""
    if len({gram[i][i] for i in range(k)}) != 1:
        raise oracle.InternalOracleError("codeword norms diverged")
    for a in range(n):
        for b in range(n):
            for i in range(k):
                for j in range(k):
                    want = gram[a * k][b * k] if i == j else (0, 0)
                    if gram[a * k + i][b * k + j] != want:
                        return a, b, i, j
    return None


def reference_knill_laflamme(code, errors):
    """Every inner product of syndrome states computed afresh, in both
    orders, and judged by :func:`full_matrix_witness`."""
    words = [
        reference_apply(DenseState.from_seed(code.seed), op)
        for op in code.codeword_ops
    ]
    states = [reference_apply(w, e) for e in errors for w in words]
    gram = [[u.inner(v) for v in states] for u in states]
    return KLReport(witness=full_matrix_witness(gram, len(errors), len(words)))


def reference_orthogonality(code, errors):
    """Every syndrome-state pair through reference_inner, row-major."""
    words = [
        reference_apply(DenseState.from_seed(code.seed), op)
        for op in code.codeword_ops
    ]
    labeled = [
        (i, j, code.group.syndrome(e) ^ code.labels[j], reference_apply(w, e))
        for i, e in enumerate(errors)
        for j, w in enumerate(words)
    ]
    violations = []
    cases = 0
    for a, (i1, j1, l1, s1) in enumerate(labeled):
        for i2, j2, l2, s2 in labeled[a + 1 :]:
            cases += 1
            ortho = reference_inner(s1, s2) == (0, 0)
            if ortho != (l1 != l2):
                violations.append(
                    f"states ({i1},{j1}) and ({i2},{j2}): orthogonal={ortho} "
                    f"but labels {format_label(l1, code.width)} vs "
                    f"{format_label(l2, code.width)}"
                )
    return OracleReport("syndrome-orthogonality", cases, tuple(violations))


def unit_state(units, p):
    """The state whose amplitude a is i^units[a], or 0 where it is None."""
    parts = [(0, 0) if k is None else ((1, 0), (0, 1), (-1, 0), (0, -1))[k]
             for k in units]
    return DenseState(tuple(r for r, _ in parts), tuple(i for _, i in parts), p)


def unit_lists(p):
    return st.lists(
        st.sampled_from([None, 0, 1, 2, 3]), min_size=1 << p, max_size=1 << p
    )


def one_plane_states(p):
    """States whose amplitudes are each 0 or a unit i^k, as every seed
    and Pauli image is: odd units and partial supports included."""
    return unit_lists(p).map(lambda units: unit_state(units, p))


class TestDenseState:
    def test_materialize_single_term(self):
        s = DenseState.from_seed(SeedState(((0, 0),), 3))
        assert s.re[0] == 1 and s.norm2 == 1

    def test_materialize_bell(self):
        s = DenseState.from_seed(SeedState(((0, 0), (0, 3)), 2))
        assert s.re == (1, 0, 0, 1)

    def test_materialize_signed(self):
        s = DenseState.from_seed(SeedState(((0, 0), (2, 7)), 3))
        assert s.re[0] == 1 and s.re[7] == -1

    def test_apply_examples(self):
        zero = DenseState.from_basis(0, 1)
        one = DenseState.from_basis(1, 1)
        assert zero.apply(parse_pauli("X")).re == (0, 1)
        flipped = one.apply(parse_pauli("Z"))
        assert flipped.re == (0, -1)
        y = zero.apply(parse_pauli("Y"))
        assert y.re == (0, 0) and y.im == (0, 1)  # Y|0> = i|1>

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_apply_matches_matrix_action(self, p):
        rng = random.Random(7 * p)
        for _ in range(25):
            amps = [
                complex(rng.randint(-1, 1), rng.randint(-1, 1))
                for _ in range(1 << p)
            ]
            state = DenseState(
                tuple(int(a.real) for a in amps),
                tuple(int(a.imag) for a in amps),
                p,
            )
            op = PauliOperator(
                rng.randrange(4), rng.randrange(1 << p), rng.randrange(1 << p), p
            )
            expect = pauli_matrix(op) @ np.array(amps)
            assert np.array_equal(state_vector(state.apply(op)), expect)

    def test_apply_preserves_norm2(self):
        state = DenseState((1, -1, 0, 1), (1, 0, -1, 0), 2)
        op = parse_pauli("iXY")
        assert state.apply(op).norm2 == state.norm2

    def test_double_apply_matches_square(self):
        # s^2 = +I for Hermitian s, -I otherwise
        state = DenseState((1, -1, 0, 1), (0, -1, 1, 1), 2)
        for s in (parse_pauli("XY"), PauliOperator(0, 1, 1, 2)):
            twice = state.apply(s).apply(s)
            sq = s * s
            sign = 1 if sq.phase == 0 else -1
            assert twice.re == tuple(sign * r for r in state.re)
            assert twice.im == tuple(sign * i for i in state.im)

    @pytest.mark.parametrize("p", [2, 4, 6])
    def test_composition_matches_multiply(self, p):
        rng = random.Random(p)
        state = DenseState(
            tuple(rng.randint(-1, 1) for _ in range(1 << p)),
            tuple(rng.randint(-1, 1) for _ in range(1 << p)),
            p,
        )
        for _ in range(20):
            s1 = PauliOperator(
                rng.randrange(4), rng.randrange(1 << p), rng.randrange(1 << p), p
            )
            s2 = PauliOperator(
                rng.randrange(4), rng.randrange(1 << p), rng.randrange(1 << p), p
            )
            via_ops = state.apply(s2).apply(s1)
            via_product = state.apply(s1 * s2)
            assert via_ops == via_product

    def test_inner_product_examples(self):
        a = DenseState.from_basis(0, 3)
        b = DenseState.from_basis(7, 3)
        assert a.inner(b) == (0, 0)
        cat = DenseState.from_seed(SeedState(((0, 0), (0, 7)), 3))
        assert cat.inner(cat) == (2, 0)
        assert cat.norm2 == 2
        assert cat.inner(cat.apply(parse_pauli("ZII"))) == (0, 0)

    def test_inner_conjugates_left(self):
        u = DenseState((0, 0), (1, 0), 1)  # i|0>
        v = DenseState((1, 0), (0, 0), 1)  # |0>
        assert u.inner(v) == (0, -1)
        assert v.inner(u) == (0, 1)

    @pytest.mark.parametrize(
        "bad, kind", [(0.0, "float"), (1.5, "float"), (1j, "complex"), ("1", "str")]
    )
    def test_non_integer_amplitude_refused(self, bad, kind):
        with pytest.raises(TypeError, match=kind):
            DenseState((1, bad), (0, 0), 1)
        with pytest.raises(TypeError, match=kind):
            DenseState((1, 0), (bad, 0), 1)

    @pytest.mark.parametrize("part", ["re", "im"])
    @pytest.mark.parametrize("bad", [2, -2, 127, 128, 300, 1 << 70])
    def test_amplitude_outside_the_domain_refused(self, bad, part):
        good, worse = (1, 0), (0, bad)
        re, im = (worse, good) if part == "re" else (good, worse)
        with pytest.raises(ValueError, match=r"in \{-1, 0, 1\}"):
            DenseState(re, im, 1)

    def test_inner_mismatched_widths(self):
        with pytest.raises(WidthMismatchError):
            DenseState.from_basis(0, 2).inner(DenseState.from_basis(0, 3))

    def test_eigencheck(self):
        zero = DenseState.from_basis(0, 3)
        seven = DenseState.from_basis(7, 3)
        assert zero.eigencheck(parse_pauli("ZII")) == 1
        assert seven.eigencheck(parse_pauli("ZII")) == -1
        assert zero.eigencheck(parse_pauli("XII")) is None
        with pytest.raises(ValueError, match="zero vector"):
            DenseState((0,) * 8, (0,) * 8, 3).eigencheck(parse_pauli("ZII"))

    def test_width_cap(self):
        with pytest.raises(OracleLimitError):
            DenseState.from_basis(0, 15)

    @pytest.mark.parametrize(
        "string, width, message",
        [
            (-1, 2, "basis string -1 outside"),
            (4, 2, "basis string 4 outside"),
            (0, -1, "got -1"),
        ],
    )
    def test_from_basis_out_of_range_refused(self, string, width, message):
        with pytest.raises(ValueError, match=message):
            DenseState.from_basis(string, width)

    @pytest.mark.parametrize("string, width", [(1.5, 2), (1, 2.0)], ids=["string", "width"])
    def test_from_basis_float_refused(self, string, width):
        with pytest.raises(TypeError) as info:
            DenseState.from_basis(string, width)
        assert str(info.value) == "'float' object cannot be interpreted as an integer"

    def test_float_width_refused(self):
        # it used to fail inside 1 << width
        with pytest.raises(TypeError) as info:
            DenseState((1, 0), (0, 0), 1.0)
        assert str(info.value) == "'float' object cannot be interpreted as an integer"

    def test_bool_width_is_stored_as_its_int(self):
        state = DenseState((1, 0), (0, 0), True)
        assert type(state.width) is int and state.width == 1
        assert repr(state) == "DenseState(re=(1, 0), im=(0, 0), width=1)"
        assert state == DenseState.from_basis(0, 1)

    @pytest.mark.parametrize("re, im", [((1, 0, 0), (0, 0)), ((1, 0), (0,))])
    def test_wrong_amplitude_length_refused(self, re, im):
        with pytest.raises(ValueError) as info:
            DenseState(re, im, 1)
        assert str(info.value) == "amplitude arrays must have length 2^width"

    def test_apply_at_another_width_refused(self):
        with pytest.raises(WidthMismatchError) as info:
            DenseState.from_basis(0, 2).apply(parse_pauli("X"))
        assert str(info.value) == "operator width 1 != state width 2"

    def test_from_basis_edges(self):
        assert DenseState.from_basis(3, 2).re == (0, 0, 0, 1)
        assert DenseState.from_basis(0, 0) == DenseState((1,), (0,), 0)

    def test_repr(self):
        assert repr(DenseState.from_basis(1, 1)) == (
            "DenseState(re=(0, 1), im=(0, 0), width=1)"
        )


class TestBitPlanes:
    """The state is held as a support and a sign mask: every view of it,
    and every operation on it, matches the amplitude-wise references."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_apply_round_trips_and_compares_by_amplitude(self, data):
        p = data.draw(st.integers(1, 7), label="p")
        state = data.draw(dense_states(p), label="state")
        op = data.draw(paulis(p), label="op")
        moved, expect = state.apply(op), reference_apply(state, op)
        assert moved == expect and hash(moved) == hash(expect)
        assert (moved.re, moved.im) == (expect.re, expect.im)
        assert DenseState(moved.re, moved.im, p) == moved
        assert moved.norm2 == state.norm2 == sum(
            v * v for v in moved.re + moved.im
        )
        same = (moved.re, moved.im) == (state.re, state.im)
        assert (moved == state) == same
        assert (moved != state) == (not same)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_eigencheck_matches_reference(self, data):
        # a seed and its Pauli images are +/-1 eigenvectors of every
        # closure element; random operators give the other outcomes
        p = data.draw(st.integers(1, 7), label="p")
        group = random_group(p, seed=data.draw(st.integers(0, 10**6), label="seed"))
        state = DenseState.from_seed(seed_state(group.normalized(0)))
        state = state.apply(data.draw(paulis(p), label="image"))
        op = data.draw(
            st.one_of(st.sampled_from(group.closure()), paulis(p)), label="op"
        )
        assert state.eigencheck(op) == reference_eigencheck(state, op)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_from_seed_matches_the_amplitude_layout(self, data):
        p = data.draw(st.integers(1, 7), label="p")
        seed = data.draw(seeds(p), label="seed")
        state, expect = DenseState.from_seed(seed), reference_from_seed(seed)
        assert state == expect and hash(state) == hash(expect)
        assert (state.re, state.im) == (expect.re, expect.im)
        assert state.norm2 == len(seed.terms)

    def test_from_seed_width_zero(self):
        seed = SeedState(((3, 0),), 0, origin="explicit")
        assert DenseState.from_seed(seed) == DenseState((0,), (-1,), 0)

    def test_is_a_frozen_dataclass_of_the_masks(self):
        assert [f.name for f in fields(DenseState)] == ["width", "_support", "_sign"]
        assert DenseState.__dataclass_params__.frozen

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_state_is_immutable(self, data):
        p = data.draw(st.integers(1, 7), label="p")
        state = data.draw(dense_states(p), label="state")
        state = state.apply(data.draw(paulis(p), label="op"))
        before = (state.re, state.im, state.width, state.norm2, hash(state))
        for name in ("re", "im", "width", "norm2", "_support", "_sign", "other"):
            with pytest.raises(FrozenInstanceError):
                setattr(state, name, 0)
            with pytest.raises(FrozenInstanceError):
                delattr(state, name)
        assert (state.re, state.im, state.width, state.norm2, hash(state)) == before

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_inner_one_plane_states(self, data):
        # amplitudes in {0, +/-1, +/-i, +/-1 +/- i}, against a Pauli image
        p = data.draw(st.integers(1, 7), label="p")
        u = data.draw(dense_states(p).filter(lambda s: not s.is_zero), label="u")
        v = data.draw(dense_states(p).filter(lambda s: not s.is_zero), label="v")
        v = v.apply(data.draw(paulis(p), label="op"))
        zero = DenseState((0,) * (1 << p), (0,) * (1 << p), p)
        assert u.inner(v) == reference_inner(u, v)
        assert v.inner(u) == reference_inner(v, u)
        assert u.inner(u) == (u.norm2, 0)
        assert u.inner(zero) == zero.inner(u) == (0, 0)


class TestOverlapDichotomy:
    """<seed|S|seed> = 0 exactly when S is outside the group."""

    def test_diagonal_p2(self):
        report = check_overlap_dichotomy(diagonal_group(2))
        assert report.ok and report.cases == 16

    def test_bell_explicit_values(self):
        g = group_of("XX", "ZZ")
        seed = DenseState.from_seed(seed_state(g.normalized(0)))
        assert seed.inner(seed.apply(parse_pauli("XX"))) == (2, 0)  # +norm2
        assert seed.inner(seed.apply(parse_pauli("XI"))) == (0, 0)

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_random_groups(self, p):
        for k in range(5):
            assert check_overlap_dichotomy(random_group(p, seed=31 * p + k)).ok

    def test_y_group(self):
        assert check_overlap_dichotomy(group_of("Y")).ok


class TestEigenvectors:
    def test_golden_codes(self, golden_suite):
        for name, code, errs in golden_suite:
            report = check_eigenvectors(code, errs)
            assert report.ok, f"{name}: {report.violations[:2]}"

    def test_punctured_seed_can_fail(self):
        # a punctured seed is generally not stabilized by the full group
        g = group_of("XII", "IXI", "IIX")
        from cosetqec import punctured_seed

        cut = punctured_seed(seed_state(g.normalized(0)), ["011", "101"])
        code = build_code(g, [0], seed=cut)
        assert not check_eigenvectors(code).ok

    def test_only_states_failing_a_generator_are_swept(self, monkeypatch):
        # every state of one code is a Pauli image of its seed, so they all
        # pass or all fail; mixing the codewords of a full and a punctured
        # seed over one group shows the sweep following each state
        g = group_of("XII", "IXI", "IIX")
        cut = punctured_seed(seed_state(g.normalized(0)), ["011", "101"])
        code = build_code(g, [0, 1], seed=cut)
        good, bad = codeword_states(build_code(g, [0, 1])), codeword_states(code)
        mixed = [good[0], bad[0], good[1], bad[1]]
        want = [
            f"codeword {j} is not an eigenvector of {format_pauli(elem)}"
            for j, state in enumerate(mixed)
            for elem in g.closure()
            if state.eigencheck(elem) is None
        ]
        applied = {}
        real = DenseState.eigencheck

        def counting(state, op):
            applied[id(state)] = applied.get(id(state), 0) + 1
            return real(state, op)

        monkeypatch.setattr(oracle, "codeword_states", lambda _: mixed)
        monkeypatch.setattr(DenseState, "eigencheck", counting)
        report = check_eigenvectors(code)
        # a passing state sees the p generators only
        assert [applied[id(s)] > g.width for s in mixed] == [False, True, False, True]
        assert report == OracleReport("eigenvectors", len(mixed) << g.width, tuple(want))
        assert want


class TestSyndromeOrthogonality:
    """Orthogonal exactly when the coset labels differ, both directions."""

    def test_repetition(self, rep3):
        report = check_syndrome_orthogonality(rep3, x_flips(3))
        assert report.ok and report.cases == 8 * 7 // 2

    def test_cat_negative_control(self, cat3):
        errs = ErrorSet(
            (PauliOperator.identity(3), parse_pauli("ZII"), parse_pauli("IZI"))
        )
        # same-coset errors give equal (hence non-orthogonal) states and
        # the biconditional still holds
        report = check_syndrome_orthogonality(cat3, errs)
        assert report.ok
        states = {(i, j): s for i, j, s in syndrome_states(cat3, errs)}
        assert not states[(1, 0)].is_orthogonal(states[(2, 0)])
        assert states[(1, 0)].inner(states[(2, 0)]) == (2, 0)

    def test_k1_identity_only(self):
        code = build_code(diagonal_group(2), [0])
        errs = ErrorSet((PauliOperator.identity(2),))
        report = check_syndrome_orthogonality(code, errs)
        assert report.ok and report.cases == 0

    def test_golden_suite(self, golden_suite):
        for name, code, errs in golden_suite:
            assert check_syndrome_orthogonality(code, errs).ok, name


class TestKnillLaflamme:
    def test_repetition_passes(self, rep3):
        assert check_knill_laflamme(rep3, x_flips(3)).passed

    def test_z_error_witness(self, rep3):
        # ZII acts as +1 on |000> but -1 on |111>: c_01 picked up from
        # codeword 0 is contradicted at codeword 1
        errs = ErrorSet((PauliOperator.identity(3), parse_pauli("ZII")))
        report = check_knill_laflamme(rep3, errs)
        assert not report.passed
        assert report.witness == (0, 1, 1, 1)

    def test_diverging_codeword_norm_is_an_internal_error(self, rep3, monkeypatch):
        # the norms are read off the Gram, so swapping in (1 + i) times one
        # codeword, with twice its support, must still trip the structural
        # check
        def widened(code):
            words = codeword_states(code)
            w = words[1]
            words[1] = DenseState(w.re, w.re, w.width)
            return words

        monkeypatch.setattr(oracle, "codeword_states", widened)
        with pytest.raises(oracle.InternalOracleError, match="norms diverged"):
            check_knill_laflamme(rep3, x_flips(3))

    def test_identity_only_passes(self, golden_suite):
        for name, code, errs in golden_suite:
            only_i = ErrorSet((PauliOperator.identity(code.width),))
            assert check_knill_laflamme(code, only_i).passed, name

    def test_five_qubit_passes(self, five2):
        assert check_knill_laflamme(five2, single_qubit_errors(5)).passed

    def test_degenerate_set_passes_kl_but_fails_labels(self, cat3):
        """An error that is itself a group element shares the identity's
        coset, so the label criterion rejects it as degenerate, yet it
        acts as +1 on the whole code space and the KL conditions hold.
        The discrepancy is a degeneracy instance, not a contradiction."""
        errs = ErrorSet((PauliOperator.identity(3), parse_pauli("ZZI")))
        verdict = check_correctable(cat3, errs)
        assert not verdict.correctable
        assert verdict.collision == (0, 0, 1, 0)
        assert check_knill_laflamme(cat3, errs).passed

    def test_correctable_implies_kl(self):
        # algebraic verdict => KL, for full-closure seeds
        from cosetqec import max_dimension

        for trial in range(8):
            p = 2 + (trial % 2)
            g = random_group(p, seed=100 + trial)
            # errors: representatives of the first three cosets reached
            errs = [PauliOperator.identity(p)]
            seen = {0}
            for x in range(1 << p):
                for z in range(1 << p):
                    op = PauliOperator.from_symplectic(x, z, p)
                    lab = g.syndrome(op)
                    if lab not in seen and len(errs) < 3:
                        seen.add(lab)
                        errs.append(op)
            errset = ErrorSet(tuple(errs))
            md = max_dimension(g, errset)
            code = build_code(g, list(md.labels[: min(md.dimension, 2)]))
            assert check_correctable(code, errset).correctable
            assert check_knill_laflamme(code, errset).passed


def fresh_pair_reports(code, errors):
    """Both reports, each check reading syndrome states and an upper Gram
    built afresh for it."""

    def fresh_gram(code, errors):
        states = syndrome_states(code, errors)
        return states, oracle._upper_gram([s for _, _, s in states])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_syndrome_gram", fresh_gram)
        return (
            check_syndrome_orthogonality(code, errors),
            check_knill_laflamme(code, errors),
        )


class TestSharedGram:
    """Orthogonality and Knill-Laflamme share the syndrome states and the
    upper Gram of the last (code, error set) pair, matched by identity."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_shared_reports_match_fresh_ones(self, data):
        p = data.draw(st.integers(1, 6), label="p")
        group = random_group(p, seed=data.draw(st.integers(0, 10**6), label="seed"))
        size = 1 << p
        labels = data.draw(
            st.lists(st.integers(1, size - 1), max_size=min(3, size - 1), unique=True),
            label="labels",
        )
        seed = seed_state(group.normalized(0))
        strings = sorted(seed.strings)
        if len(strings) > 2 and data.draw(st.booleans(), label="puncture"):
            removed = data.draw(
                st.lists(
                    st.sampled_from(strings),
                    min_size=2,
                    max_size=len(strings) - 1,
                    unique=True,
                ),
                label="removed",
            )
            seed = punctured_seed(seed, removed)
        code = build_code(group, [0, *labels], seed=seed)
        non_identity = st.tuples(
            st.integers(0, size - 1), st.integers(0, size - 1)
        ).filter(any)
        classes = data.draw(
            st.lists(non_identity, max_size=4, unique=True), label="errors"
        )
        if data.draw(st.booleans(), label="degenerate"):
            # a group element shares the identity's coset
            elem = data.draw(st.sampled_from(group.closure()[1:]), label="element")
            if (elem.x, elem.z) not in classes:
                classes.append((elem.x, elem.z))
        errs = ErrorSet(
            tuple(PauliOperator.from_symplectic(x, z, p) for x, z in [(0, 0), *classes])
        )
        want = fresh_pair_reports(code, errs)
        # the pair itself and equal but distinct copies of either side
        pairs = [(c, e) for c in (code, replace(code)) for e in (errs, replace(errs))]
        checks = (check_syndrome_orthogonality, check_knill_laflamme)
        steps = data.draw(
            st.lists(
                st.tuples(st.integers(0, 1), st.integers(0, 3)), min_size=1, max_size=6
            ),
            label="steps",
        )
        for check, pair in steps:
            assert checks[check](*pairs[pair]) == want[check]

    @pytest.mark.parametrize("copied", ["code", "errors", "both"])
    def test_the_gram_is_built_once_per_pair(self, rep3, monkeypatch, copied):
        upper_gram, calls = oracle._upper_gram, []

        def counting(states):
            calls.append(len(states))
            return upper_gram(states)

        monkeypatch.setattr(oracle, "_upper_gram", counting)
        errs = x_flips(3)
        for _ in range(2):
            check_syndrome_orthogonality(rep3, errs)
            check_knill_laflamme(rep3, errs)
        assert calls == [8]
        code = replace(rep3) if copied != "errors" else rep3
        other = replace(errs) if copied != "code" else errs
        assert code == rep3 and other == errs
        check_knill_laflamme(code, other)
        check_syndrome_orthogonality(code, other)
        assert calls == [8, 8]

    def test_no_state_outlives_its_code(self, monkeypatch):
        made = []

        def recording(code, errors):
            states = syndrome_states(code, errors)
            made.extend(weakref.ref(s) for _, _, s in states)
            return states

        monkeypatch.setattr(oracle, "syndrome_states", recording)
        code, errs = cat_code(), single_qubit_errors(3)
        check_syndrome_orthogonality(code, errs)
        assert made and all(ref() for ref in made)
        del code
        gc.collect()
        assert oracle._last_gram is None
        assert not any(ref() for ref in made)


class TestCodewordStates:
    def test_repetition_materializes_basis(self, rep3):
        words = codeword_states(rep3)
        assert state_vector(words[0])[0] == 1
        assert state_vector(words[1])[7] == 1
        assert words[0].is_orthogonal(words[1])

    def test_codewords_orthogonal_across_golden(self, golden_suite):
        for name, code, _ in golden_suite:
            words = codeword_states(code)
            for a in range(len(words)):
                for b in range(a + 1, len(words)):
                    assert words[a].is_orthogonal(words[b]), name


class TestAgainstReference:
    """The flip-mask sweep, the Gram, the bit-plane apply and the
    generator-first eigenvector check give the reports the per-operator
    sweeps give, field by field and violation by violation."""

    @pytest.mark.parametrize("p", range(1, 7))
    def test_apply_matches_reference(self, p):
        rng = random.Random(11 * p)
        for _ in range(20):
            state = DenseState(
                tuple(rng.randint(-1, 1) for _ in range(1 << p)),
                tuple(rng.randint(-1, 1) for _ in range(1 << p)),
                p,
            )
            op = PauliOperator(
                rng.randrange(4), rng.randrange(1 << p), rng.randrange(1 << p), p
            )
            assert state.apply(op) == reference_apply(state, op)

    @pytest.mark.parametrize("p", range(1, 7))
    def test_dichotomy_random_groups(self, p):
        for k in range(3 if p < 6 else 1):
            g = random_group(p, seed=53 * p + k)
            assert check_overlap_dichotomy(g) == reference_dichotomy(g)

    @pytest.mark.parametrize(
        "strings",
        [
            ("Y",),
            ("XX", "ZZ"),
            ("YY", "XX"),
            ("-Z",),
            ("-XX", "-ZZ"),
            ("-YY", "XX"),
            ("XZZXI", "-IXZZX", "XIXZZ", "-ZXIXZ", "-ZZZZZ"),
        ],
    )
    def test_dichotomy_y_and_bell(self, strings):
        # parse_pauli takes each width from the body, not the sign prefix
        g = StabilizerGroup(tuple(map(parse_pauli, strings)))
        assert check_overlap_dichotomy(g) == reference_dichotomy(g)

    @pytest.mark.parametrize(
        "group", [group_of("Y"), group_of("YY", "XX"), random_group(4, seed=3)]
    )
    def test_dichotomy_violations_match(self, group, monkeypatch):
        # drop the class with the most Y letters and add the outside class
        # with the most, so the messages carry nontrivial phases
        def y_count(xz):
            return (xz[0] & xz[1]).bit_count(), xz

        classes = closure_classes(group.normalized(0))
        size = 1 << group.width
        outside = {(x, z) for x in range(size) for z in range(size)} - classes
        dropped, extra = max(classes, key=y_count), max(outside, key=y_count)
        members = (classes - {dropped}) | {extra}
        # the seed comes from the same walk as the membership, so only the
        # membership is patched
        closure_seed = oracle._closure_seed

        def patched(norm):
            seed, _ = closure_seed(norm)
            inside = {}
            for x, z in members:
                inside.setdefault(x, set()).add(z)
            return seed, inside

        monkeypatch.setattr(oracle, "_closure_seed", patched)
        report = check_overlap_dichotomy(group)
        assert report == reference_dichotomy(group, members)
        assert len(report.violations) == 2
        assert any(": outside but" in v for v in report.violations)
        assert any(": inside but expectation (0, 0)" in v for v in report.violations)

    def test_kl_golden(self, golden_suite):
        for name, code, errs in golden_suite:
            assert check_knill_laflamme(code, errs) == reference_knill_laflamme(
                code, errs
            ), name

    def test_kl_z_error_witness(self, rep3):
        errs = ErrorSet((PauliOperator.identity(3), parse_pauli("ZII")))
        report = check_knill_laflamme(rep3, errs)
        assert report == reference_knill_laflamme(rep3, errs)
        assert report.witness == (0, 1, 1, 1)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_kl_random_codes(self, data):
        p = data.draw(st.integers(1, 5), label="p")
        group = random_group(p, seed=data.draw(st.integers(0, 10**6), label="seed"))
        size = 1 << p
        labels = data.draw(
            st.lists(st.integers(1, size - 1), max_size=min(3, size - 1), unique=True),
            label="labels",
        )
        non_identity = st.tuples(
            st.integers(0, size - 1), st.integers(0, size - 1)
        ).filter(any)
        classes = data.draw(
            st.lists(non_identity, max_size=4, unique=True), label="errors"
        )
        # an error set starts with the identity
        errs = ErrorSet(
            tuple(PauliOperator.from_symplectic(x, z, p) for x, z in [(0, 0), *classes])
        )
        code = build_code(group, [0, *labels])  # a code starts at the zero coset
        assert check_knill_laflamme(code, errs) == reference_knill_laflamme(
            code, errs
        )

    def test_eigenvectors_golden(self, golden_suite):
        for name, code, errs in golden_suite:
            for errors in (None, errs):
                report = check_eigenvectors(code, errors)
                assert report == reference_eigenvectors(code, errors), name
                assert report.ok, name

    @pytest.mark.parametrize(
        "group, removed",
        [
            (group_of("XII", "IXI", "IIX"), ["011", "101"]),
            (group_of("XXI", "IXX", "ZZZ"), ["000", "011"]),
            (random_group(4, seed=3), None),
            (random_group(5, seed=8), None),
            # |+++> with qubit t cut down to |0> fails generator t alone
            *(
                (group_of("XII", "IXI", "IIX"), [s for s in range(8) if s >> t & 1])
                for t in range(3)
            ),
        ],
    )
    def test_eigenvectors_punctured_violations(self, group, removed):
        seed = seed_state(group.normalized(0))
        if removed is None:  # drop the two highest strings
            removed = sorted(seed.strings)[-2:]
        code = build_code(group, [0, 1], seed=punctured_seed(seed, removed))
        for errors in (None, single_qubit_errors(group.width)):
            report = check_eigenvectors(code, errors)
            assert report == reference_eigenvectors(code, errors)
            assert not report.ok

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_eigenvectors_random_codes(self, data):
        p = data.draw(st.integers(1, 6), label="p")
        group = random_group(p, seed=data.draw(st.integers(0, 10**6), label="seed"))
        size = 1 << p
        labels = data.draw(
            st.lists(st.integers(1, size - 1), max_size=min(3, size - 1), unique=True),
            label="labels",
        )
        seed = seed_state(group.normalized(0))
        strings = sorted(seed.strings)
        if len(strings) > 2 and data.draw(st.booleans(), label="puncture"):
            removed = data.draw(
                st.lists(
                    st.sampled_from(strings),
                    min_size=2,
                    max_size=len(strings) - 1,
                    unique=True,
                ),
                label="removed",
            )
            seed = punctured_seed(seed, removed)
        code = build_code(group, [0, *labels], seed=seed)
        non_identity = st.tuples(
            st.integers(0, size - 1), st.integers(0, size - 1)
        ).filter(any)
        classes = data.draw(
            st.lists(non_identity, max_size=4, unique=True), label="errors"
        )
        errs = None
        if data.draw(st.booleans(), label="with errors"):
            errs = ErrorSet(
                tuple(
                    PauliOperator.from_symplectic(x, z, p)
                    for x, z in [(0, 0), *classes]
                )
            )
        assert check_eigenvectors(code, errs) == reference_eigenvectors(code, errs)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_inner_random_vectors(self, data):
        p = data.draw(st.integers(0, 6), label="p")

        def state(label):
            # a bound of 0 gives the zero state
            bound = data.draw(st.sampled_from([0, 1]), label=label)
            amps = st.lists(
                st.integers(-bound, bound), min_size=1 << p, max_size=1 << p
            )
            re = data.draw(amps, label=f"{label} re")
            im = data.draw(amps, label=f"{label} im")
            return DenseState(tuple(re), tuple(im), p)

        u, v = state("u"), state("v")
        assert u.inner(v) == reference_inner(u, v)
        assert v.inner(u) == reference_inner(v, u)
        assert u.inner(u) == reference_inner(u, u) == (u.norm2, 0)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_inner_mixed_signs(self, data):
        # every amplitude is +/-1 +/- i, so the sign masks alone decide
        # the sums
        p = data.draw(st.integers(0, 6), label="p")
        signs = st.lists(st.sampled_from([-1, 1]), min_size=1 << p, max_size=1 << p)
        states = []
        for label in "uv":
            re = data.draw(signs, label=f"{label} re")
            im = data.draw(signs, label=f"{label} im")
            states.append(DenseState(tuple(re), tuple(im), p))
        u, v = states
        assert u.inner(v) == reference_inner(u, v)

    @pytest.mark.parametrize("p", range(7))
    def test_inner_zero_vector(self, p):
        rng = random.Random(p)
        zero = DenseState((0,) * (1 << p), (0,) * (1 << p), p)
        v = DenseState(
            tuple(rng.randint(-1, 1) for _ in range(1 << p)),
            tuple(rng.randint(-1, 1) for _ in range(1 << p)),
            p,
        )
        assert zero.inner(v) == v.inner(zero) == zero.inner(zero) == (0, 0)

    @staticmethod
    def pair_reports(code, errs):
        return (
            check_syndrome_orthogonality(code, errs),
            check_knill_laflamme(code, errs),
        )

    @staticmethod
    def reference_pair_reports(code, errs):
        # run with DenseState.inner patched to reference_inner, so the
        # reference KL takes every inner product one amplitude at a time
        return (
            reference_orthogonality(code, errs),
            reference_knill_laflamme(code, errs),
        )

    def test_pair_checks_golden_with_reference_inner(self, golden_suite, monkeypatch):
        fast = [self.pair_reports(code, errs) for _, code, errs in golden_suite]
        results = run_selftest(max_width=5, seed=3)
        monkeypatch.setattr(DenseState, "inner", reference_inner)
        assert fast == [self.pair_reports(code, errs) for _, code, errs in golden_suite]
        assert fast == [
            self.reference_pair_reports(code, errs) for _, code, errs in golden_suite
        ]
        assert results == run_selftest(max_width=5, seed=3)

    @pytest.mark.parametrize(
        "group, removed",
        [
            (group_of("XII", "IXI", "IIX"), ["011", "101"]),
            (group_of("XXI", "IXX", "ZZZ"), ["000", "011"]),
            (random_group(4, seed=3), None),
            (random_group(5, seed=8), None),
        ],
    )
    def test_pair_checks_punctured_with_reference_inner(
        self, group, removed, monkeypatch
    ):
        seed = seed_state(group.normalized(0))
        if removed is None:  # drop the two highest strings
            removed = sorted(seed.strings)[-2:]
        code = build_code(group, [0, 1], seed=punctured_seed(seed, removed))
        errs = single_qubit_errors(group.width)
        fast = self.pair_reports(code, errs)
        assert not fast[0].ok  # the biconditional fails on these cuts
        monkeypatch.setattr(DenseState, "inner", reference_inner)
        assert fast == self.pair_reports(code, errs)
        assert fast == self.reference_pair_reports(code, errs)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_pair_checks_random_codes_with_reference_inner(self, data):
        p = data.draw(st.integers(1, 6), label="p")
        group = random_group(p, seed=data.draw(st.integers(0, 10**6), label="seed"))
        size = 1 << p
        labels = data.draw(
            st.lists(st.integers(1, size - 1), max_size=min(3, size - 1), unique=True),
            label="labels",
        )
        seed = seed_state(group.normalized(0))
        strings = sorted(seed.strings)
        if len(strings) > 2 and data.draw(st.booleans(), label="puncture"):
            removed = data.draw(
                st.lists(
                    st.sampled_from(strings),
                    min_size=2,
                    max_size=len(strings) - 1,
                    unique=True,
                ),
                label="removed",
            )
            seed = punctured_seed(seed, removed)
        code = build_code(group, [0, *labels], seed=seed)
        non_identity = st.tuples(
            st.integers(0, size - 1), st.integers(0, size - 1)
        ).filter(any)
        classes = data.draw(
            st.lists(non_identity, max_size=4, unique=True), label="errors"
        )
        errs = ErrorSet(
            tuple(PauliOperator.from_symplectic(x, z, p) for x, z in [(0, 0), *classes])
        )
        fast = self.pair_reports(code, errs)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(DenseState, "inner", reference_inner)
            assert fast == self.pair_reports(code, errs)
            assert fast == self.reference_pair_reports(code, errs)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_gram_matches_reference_inner(self, data):
        p = data.draw(st.integers(0, 6), label="p")
        states = data.draw(st.lists(one_plane_states(p), max_size=6), label="states")
        want = [[reference_inner(u, v) for v in states] for u in states]
        assert oracle._upper_gram(states) == [
            row[u:] for u, row in enumerate(want)
        ]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_kl_upper_triangle_matches_full_matrix_on_any_states(self, data):
        # the mirror argument needs only a Hermitian Gram, so any states
        # stand in for the syndrome states of n errors on k codewords
        p = data.draw(st.integers(1, 5), label="p")
        k = data.draw(st.integers(1, min(4, 1 << p)), label="k")
        n = data.draw(st.integers(1, 4), label="n")
        rows = data.draw(
            st.lists(unit_lists(p), min_size=n * k, max_size=n * k), label="amplitudes"
        )
        if data.draw(st.booleans(), label="clean states"):
            # state j of block b reads i^(u_j + c_b) at s_j and 0 at the
            # other s_i, with c_0 = 0.  Block 0, and each later state not
            # drawn as free, is 0 everywhere else, so it meets the
            # conditions against every state, with c_ab = i^(c_b - c_a)
            # (0 when either is None).  A witness then lies among the free
            # states, in any row of a later block, where entries left of
            # the diagonal need not vanish.
            strings = data.draw(
                st.lists(
                    st.integers(0, (1 << p) - 1), min_size=k, max_size=k, unique=True
                ),
                label="strings",
            )
            units = data.draw(
                st.lists(st.integers(0, 3), min_size=k, max_size=k), label="units"
            )
            phases = [0] + data.draw(
                st.lists(
                    st.sampled_from([None, 0, 1, 2, 3]), min_size=n - 1, max_size=n - 1
                ),
                label="phases",
            )
            free = [False] * k + data.draw(
                st.lists(st.booleans(), min_size=n * k - k, max_size=n * k - k),
                label="free",
            )
            for u, row in enumerate(rows):
                if not free[u]:
                    row[:] = [None] * (1 << p)
                for s in strings:
                    row[s] = None
                b, j = divmod(u, k)
                if phases[b] is not None:
                    row[strings[j]] = (units[j] + phases[b]) % 4
        states = [unit_state(row, p) for row in rows]
        gram = [[reference_inner(u, v) for v in states] for u in states]
        try:
            want = full_matrix_witness(gram, n, k)
        except oracle.InternalOracleError:
            want = "norms diverged"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                oracle, "syndrome_states", lambda *_: [(0, 0, s) for s in states]
            )
            code = SimpleNamespace(width=p, dimension=k)
            try:
                got = check_knill_laflamme(code, [None] * n).witness
            except oracle.InternalOracleError:
                got = "norms diverged"
        assert got == want

    def test_eigenvectors_and_orthogonality_golden(self, golden_suite, monkeypatch):
        # both sweeps act through apply: swapping in the reference apply
        # must leave every report as it is
        def reports():
            return [
                (check_eigenvectors(code, errs), check_syndrome_orthogonality(code, errs))
                for _, code, errs in golden_suite
            ]

        fast = reports()
        monkeypatch.setattr(DenseState, "apply", reference_apply)
        assert fast == reports()


class TestSelftest:
    @pytest.mark.parametrize("width", [0, -3])
    def test_max_width_below_one_refused(self, width):
        with pytest.raises(ValueError) as info:
            run_selftest(max_width=width)
        assert str(info.value) == f"max width must be at least 1, got {width}"

    @pytest.mark.parametrize(
        "kwargs", [{"max_width": 5.0}, {"max_width": 3.0}, {"seed": 1.5}],
        ids=["max_width=5.0", "max_width=3.0", "seed=1.5"],
    )
    def test_non_int_arguments_refused_before_any_check(self, kwargs, monkeypatch):
        # 5.0 used to run all 21 checks; 3.0 and 1.5 failed inside range()
        # and the sampler
        def untouched(*args):
            raise AssertionError("the suite started")

        for name in ("random_group", "check_overlap_dichotomy", "check_eigenvectors"):
            monkeypatch.setattr(selftest, name, untouched)
        with pytest.raises(TypeError) as info:
            run_selftest(**kwargs)
        assert str(info.value) == "'float' object cannot be interpreted as an integer"

    def test_max_width_one_runs_the_width_three_checks(self):
        results = run_selftest(max_width=1)
        assert results and all(r.ok for r in results)
        assert not [r for r in results if r.name.startswith("overlap-dichotomy")]


class TestIndependence:
    FORBIDDEN = ("cosetqec._kernels", "cosetqec.verify")
    # the engine promises exact integer arithmetic only
    NON_INTEGER = ("math", "cmath", "fractions", "decimal", "numpy")
    CLOSURE_VIEWS = (
        "closure_lanes", "closure_packed", "closure_classes", "_lanes", "_planes",
        "_seed_form", "_x_rows",
    )

    def tree(self):
        return ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))

    def imported_modules(self):
        for node in ast.walk(self.tree()):
            if isinstance(node, ast.Import):
                yield from (alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                base = node.module
                if node.level:  # oracle.py sits directly in the package
                    base = ".".join(filter(None, ["cosetqec", node.module]))
                yield base
                yield from (f"{base}.{alias.name}" for alias in node.names)

    def test_oracle_imports_neither_kernels_nor_verify(self):
        seen = list(self.imported_modules())
        assert "cosetqec.codes" in seen  # the scan does see relative imports
        for name in seen:
            for banned in self.FORBIDDEN:
                assert name != banned and not name.startswith(banned + "."), name

    def referenced_names(self):
        """Every attribute and bare name the module reads, and every
        module and name it imports."""
        names = set(self.imported_modules())
        for node in ast.walk(self.tree()):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Name):
                names.add(node.id)
        return names

    def test_oracle_imports_no_seed_builder(self):
        seen = list(self.imported_modules())
        assert "cosetqec.codes.SeedState" in seen  # names are seen too
        assert "cosetqec.codes.seed_state" not in seen
        assert "seed_state" not in self.referenced_names()

    def test_oracle_reads_no_closure_view(self):
        # the oracle walks closure() itself, and shares neither the
        # echelon form of the seed nor the bit-planes of the coset minima
        names = self.referenced_names()
        assert "closure" in names  # the scan does see attributes
        for banned in self.CLOSURE_VIEWS:
            assert banned not in names
            assert not [n for n in names if n.endswith("." + banned)]

    @pytest.mark.parametrize("p", range(1, 9))
    def test_dichotomy_seed_matches_the_package_seed(self, p):
        for seed in range(3):
            for twist in (False, True):
                norm = signed_group(p, seed, twist).normalized(0)
                dense, _ = oracle._closure_seed(norm)
                assert dense == DenseState.from_seed(seed_state(norm, 0))

    def test_oracle_imports_no_non_integer_arithmetic(self):
        for name in self.imported_modules():
            for banned in self.NON_INTEGER:
                assert name != banned and not name.startswith(banned + "."), name

    def test_oracle_has_no_float_or_complex_constant(self):
        constants = [
            node.value
            for node in ast.walk(self.tree())
            if isinstance(node, ast.Constant)
        ]
        assert 1 in constants  # the scan does see numeric constants
        assert not [c for c in constants if isinstance(c, (float, complex))]

    def test_oracle_has_no_true_division(self):
        assert not [n for n in ast.walk(self.tree()) if isinstance(n, ast.Div)]
