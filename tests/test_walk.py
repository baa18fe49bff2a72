"""The closure walk and what is derived from it: closure order and
phases, seed terms, coset representatives, the rank-based subgroup
predicates, and the code JSON of the golden constructions.  The seed's
echelon form and the coset minima are checked against the
one-int-per-element versions they replaced, kept here as references
with their own copy of the letter-key packing."""

import json
import pickle
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetqec import (
    DenseState,
    GroupError,
    PauliOperator,
    QuantumCode,
    SeedState,
    StabilizerGroup,
    build_code,
    build_table,
    check_correctable,
    classify,
    coset_representative,
    diagnose,
    format_bits,
    format_pauli,
    is_closed_mod_phase,
    is_xor_subgroup,
    max_dimension,
    punctured_seed,
    random_group,
    seed_state,
)
from cosetqec import codes
from cosetqec.codes import SEED_PUNCTURED, SEED_STABILIZER
from cosetqec.golden import diagonal_group, golden_codes, single_qubit_errors

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
# ran one Python int per closure element, before they moved to bit-planes
# and the seed to its echelon form.


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


def reference_seed_state(group, base=0):
    """The seed terms from one element at a time of the packed closure
    :func:`reference_closure_packed`, with the refusals and messages of
    the package's ``seed_state``."""
    p = group.width
    phases, xs, zs = reference_closure_packed(group)
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
        # the closure walk, and the seed form's units and doubled string
        # lanes and text, against the list walk
        for seed in range(3):
            for twist in (False, True):
                g = signed_group(p, seed, twist)
                want = reference_closure_packed(g)
                assert [(e.phase, e.x, e.z) for e in g.closure()] == list(zip(*want))
                base = (7 * seed + 3) % (1 << p)
                norm = g.normalized(base)
                terms = reference_seed_state(norm, base)
                form = codes._seed_form(norm._x_rows(), p, base)
                assert [*form.units] == [unit for unit, _ in terms]
                lanes = codes._double(form.low, form.xs, 16)
                assert [lanes >> 16 * k & 0xFFFF for k in range(len(terms))] == [
                    string for _, string in terms
                ]
                assert "".join(codes._texts(form, p)) == "".join(
                    format_bits(string, p) + "," for _, string in terms
                )
                assert codes._seed_form(g._x_rows(base), p, base) == form

    def test_lanes_and_seed_past_width_16(self):
        # the strings take 32-bit lanes here
        p = 17
        g = signed_group(p, 5, True)
        base = (1 << p) - 1 - 6
        norm = g.normalized(base)
        want = reference_seed_state(norm, base)
        assert seed_state(norm, base).terms == want
        form = codes._seed_form(norm._x_rows(), p, base)
        text = "".join(codes._texts(form, p))
        assert text == "".join(format_bits(s, p) + "," for _, s in want)

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

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_refusal_names_the_element_the_walk_names(self, data):
        # a random group on the low m qubits and Z on the rest, mixed by
        # products of generators, with random signs, order and base: most
        # such groups have several diagonal rows and many refuse
        p = data.draw(st.integers(1, 8))
        m = data.draw(st.integers(0, p))
        gens = [PauliOperator(0, 0, 1 << j, p) for j in range(m, p)]
        if m:
            small = random_group(m, data.draw(st.integers(0, 10_000)))
            gens += [PauliOperator(g.phase, g.x, g.z, p) for g in small.generators]
        for _ in range(data.draw(st.integers(0, 3 * p))):
            i, j = data.draw(st.integers(0, p - 1)), data.draw(st.integers(0, p - 1))
            if i != j:
                gens[i] = gens[i] * gens[j]
        flips = data.draw(st.lists(st.booleans(), min_size=p, max_size=p))
        gens = [PauliOperator(g.phase + 2 * f, g.x, g.z, p) for g, f in zip(gens, flips)]
        g = StabilizerGroup(tuple(data.draw(st.permutations(gens))))
        base = data.draw(st.integers(0, (1 << p) - 1))
        got = outcome(lambda: seed_state(g, base).terms)
        assert got == outcome(reference_seed_state, g, base)

    def test_wide_refusal_needs_no_walk(self, monkeypatch):
        # X_0 ... X_22, -Z_23: the one diagonal element -Z_23 is named
        # from the rows, where the walk would build 2^24 operators
        p = 24
        monkeypatch.setattr(StabilizerGroup, "closure", None)
        g = StabilizerGroup(
            (*(PauliOperator(0, 1 << j, 0, p) for j in range(p - 1)),
             PauliOperator(2, 0, 1 << p - 1, p))
        )
        start = time.perf_counter()
        with pytest.raises(GroupError) as info:
            seed_state(g, 0)
        assert time.perf_counter() - start < 1
        assert str(info.value) == (
            f"group is not sign-normalized for base {'0' * p}: element "
            f"-{'I' * (p - 1)}Z acts as -1 (the seed would cancel to zero); "
            "call normalized() first"
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_broken_signs_refused_as_the_reference(self, seed):
        # flip the sign of one generator of a normalized group at a time:
        # a diagonal one breaks the seed, which must be refused naming the
        # element the reference names; a non-diagonal one gives another
        # seed, which must be the reference's
        p = 6
        g = random_group(p, seed).normalized(0)
        for t, gen in enumerate(g.generators):
            flipped = PauliOperator(gen.phase + 2, gen.x, gen.z, p)
            broken = StabilizerGroup((*g.generators[:t], flipped, *g.generators[t + 1 :]))
            got = outcome(lambda: seed_state(broken, 0).terms)
            assert got == outcome(reference_seed_state, broken, 0)
            assert (got[0] is GroupError) == (gen.x == 0)

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


class TestTermsOnDemand:
    """A derived seed holds its form and the indices of the terms cut
    from it, and builds its terms on first read; read any way, it is the
    seed built from the kept terms of the reference walk."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_a_derived_seed_is_the_seed_of_its_terms(self, data):
        p = data.draw(st.integers(1, 8), label="p")
        g = signed_group(p, data.draw(st.integers(0, 10_000)), data.draw(st.booleans()))
        base = data.draw(st.integers(0, (1 << p) - 1), label="base")
        labels = [0, *sorted(data.draw(st.sets(st.integers(1, (1 << p) - 1), max_size=3)))]
        norm = g.normalized(base)
        text = json.dumps(build_code(g, labels, seed=seed_state(norm, base)).to_dict())
        terms = reference_seed_state(norm, base)
        held = SeedState(terms, p, base, SEED_STABILIZER)
        # two cuts of at least two strings each, when enough terms are left
        cuts, left = [], [s for _, s in terms]
        while len(left) > 2 and len(cuts) < 2:
            cut = data.draw(st.lists(st.sampled_from(left), min_size=2,
                                     max_size=len(left) - 1, unique=True), label="cut")
            cuts.append(cut)
            left = [s for s in left if s not in cut]

        def punctured(seed, count):
            for cut in cuts[:count]:
                seed = punctured_seed(seed, cut)
            return seed

        # each call makes a seed of the kept terms, its terms not yet
        # built when it holds its form
        made = {
            "build_code": (lambda: build_code(g, labels).seed, 0, 0, True),
            "seed_state": (lambda: seed_state(norm, base), base, 0, True),
            "from_dict": (lambda: QuantumCode.from_dict(json.loads(text)).seed, base, 0, True),
        }
        for count in range(1, len(cuts) + 1):
            made[f"cut {count}"] = (
                lambda count=count: punctured(seed_state(norm, base), count), base, count, True
            )
        if cuts:
            made["cut terms"] = (lambda: punctured(held, 1), base, 1, False)
        reads = {
            "==": lambda s, e: s == e and e == s,
            "hash": lambda s, e: hash(s) == hash(e),
            "repr": lambda s, e: repr(s) == repr(e),
            "pickle": lambda s, e: pickle.loads(pickle.dumps(s)) == e,
            "term_tokens": lambda s, e: s.term_tokens() == e.term_tokens(),
            "strings": lambda s, e: s.strings == e.strings,
            "len": lambda s, e: len(s) == len(e) == len(e.terms),
            "classify": lambda s, e: classify(build_code(g, labels, seed=s))
            == classify(build_code(g, labels, seed=e)),
            "from_seed": lambda s, e: DenseState.from_seed(s) == DenseState.from_seed(e),
        }
        for how, (make, b, count, lazy) in made.items():
            cut = {s for c in cuts[:count] for s in c}
            kept = tuple(t for t in reference_seed_state(g.normalized(b), b) if t[1] not in cut)
            eager = SeedState(kept, p, b, SEED_PUNCTURED if count else SEED_STABILIZER)
            for name, read in reads.items():
                seed = make()
                assert ("terms" not in vars(seed)) == lazy, how
                assert read(seed, eager), (how, name)
                assert seed.terms == kept, (how, name)
            if lazy:
                # two seeds that hold equal forms compare, and each
                # hashes as the eager seed, with no terms built
                seed, other = make(), make()
                assert seed == other and hash(seed) == hash(other) == hash(eager), how
                assert "terms" not in vars(seed) and "terms" not in vars(other), how
            # each refusal reads as for the seed of the kept terms: one
            # string, every term, a string cut before and one never held
            strings = [s for _, s in kept]
            never = sorted(set(range(1 << p)) - {s for _, s in terms})
            tries = [strings[:1], strings]
            tries += [[s, strings[0]] for s in [*sorted(cut)[:1], *never[:1]]]
            for items in tries:
                got = outcome(punctured_seed, make(), items)
                assert got == outcome(punctured_seed, eager, items), (how, items)
                assert got[0] is ValueError, (how, items)
        if len(cuts) == 2:  # one form with two cuts: unequal, no terms built
            one, two = made["cut 1"][0](), made["cut 2"][0]()
            assert one != two and two != one
            assert "terms" not in vars(one) and "terms" not in vars(two)

    def test_the_pipeline_builds_no_terms(self, monkeypatch):
        # a correctable p=8, K=4 code with greedy labels, built, saved,
        # loaded, classified, verified and diagnosed with no term builder;
        # then the same code on a seed of 2^7 - 3 terms punctured from it,
        # and on the seed of its group passed back in
        def no_terms(form, width):
            raise AssertionError("a seed's terms were built")

        group, errors = random_group(8, 1), single_qubit_errors(8)
        labels = max_dimension(group, errors).labels
        monkeypatch.setattr(codes, "_terms", no_terms)
        code = QuantumCode.from_dict(json.loads(json.dumps(build_code(group, labels).to_dict())))
        assert code.seed.origin == SEED_STABILIZER
        three = [bits for _, bits in code.seed.term_tokens()[:3]]
        cut = build_code(group, labels, seed=punctured_seed(code.seed, three))
        assert len(cut.seed) == len(code.seed) - 3 == (1 << 7) - 3
        assert len(cut.to_dict()["seed"]) == len(cut.seed)
        for code, tag in ((code, "I"), (cut, "III")):
            assert classify(code).type_tag == tag
            verdict = check_correctable(code, errors)
            assert verdict.correctable
            assert verdict.algebraic_only == (code is cut)
            table = build_table(code, errors)
            for i, j, label in table.iter_entries():
                found = diagnose(code, errors, label, table)
                assert (found.error_index, found.codeword_index) == (i, j)
        again = build_code(group, labels, seed=seed_state(group.normalized(0), 0))
        assert again.seed.origin == SEED_STABILIZER
        for seed in (code.seed, cut.seed, again.seed):
            with pytest.raises(AssertionError, match="terms were built"):
                seed.terms

    def test_derived_seeds_compare_and_hash_with_no_terms(self, monkeypatch):
        # seeds that hold equal forms compare by their cut indices, and a
        # hash reads the fields and the term count: no term is built
        def no_terms(form, width):
            raise AssertionError("a seed's terms were built")

        group = random_group(8, 1)
        saved = json.dumps(build_code(group, [0]).to_dict())
        monkeypatch.setattr(codes, "_terms", no_terms)
        seed = seed_state(group.normalized(0), 0)
        loaded = QuantumCode.from_dict(json.loads(saved)).seed
        assert seed == loaded and hash(seed) == hash(loaded)
        a, b, c = [bits for _, bits in seed.term_tokens()[:3]]
        cut, again = punctured_seed(seed, [a, b]), punctured_seed(loaded, [b, a])
        assert cut == again and hash(cut) == hash(again)
        assert cut != punctured_seed(loaded, [a, c]) and cut != seed
        assert len({seed, loaded, cut}) == 2


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
