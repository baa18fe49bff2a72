"""Group validation, closure, syndromes, cosets, and enumeration."""

import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cosetqec.stabilizer as stabilizer
from cosetqec import (
    GroupError,
    PauliOperator,
    StabilizerGroup,
    WidthMismatchError,
    enumerate_groups,
    format_label,
    format_pauli,
    parse_bits,
    parse_pauli,
    random_group,
)
from cosetqec.golden import diagonal_group
from cosetqec.pauli import symplectic_parity

from conftest import closure_classes


def group_of(*strings):
    width = len(strings[0])
    return StabilizerGroup(tuple(parse_pauli(s, width) for s in strings))


def reference_x_rows(group):
    """The generators eliminated on their X parts by operator products,
    as normalized() ran it before it read the group's X-part rows: each
    row is generator t times the earlier rows that hold its leading bits."""
    out, pivots = [], {}
    for g in group.generators:
        cur = g
        while cur.x:
            hb = cur.x.bit_length() - 1
            if hb in pivots:
                cur = out[pivots[hb]] * cur
            else:
                pivots[hb] = len(out)
                break
        out.append(cur)
    return out


def reference_normalized(group, base):
    """The rows of reference_x_rows, each diagonal row signed to act as +1
    on |base> and every other row given a + sign."""
    p, fixed = group.width, []
    for g in reference_x_rows(group):
        if g.x == 0:
            flip = (g.z & base).bit_count() & 1
            fixed.append(PauliOperator(2 * flip, 0, g.z, p))
        else:
            fixed.append(PauliOperator.from_symplectic(g.x, g.z, p))
    return StabilizerGroup(tuple(fixed))


def reference_enumerate_groups(p):
    """The depth-first enumeration that ``enumerate_groups`` replaced: grow
    commuting generator lists in ascending order, keep each new closure
    once, then sort the closures and pick their generators the same way."""
    pmask = (1 << p) - 1
    seen, keys = set(), []

    def span(vectors):
        out = {0}
        for v in vectors:
            out |= {s ^ v for s in out}
        return out

    def commute(v, w):
        return symplectic_parity(v & pmask, v >> p, w & pmask, w >> p) == 0

    def dfs(start, chosen, closed):
        if len(chosen) == p:
            key = tuple(sorted(closed))
            if key not in seen:
                seen.add(key)
                keys.append(key)
            return
        for v in range(start, 1 << (2 * p)):
            if v not in closed and all(commute(v, c) for c in chosen):
                dfs(v + 1, chosen + [v], span(chosen + [v]))

    dfs(1, [], {0})
    for key in sorted(keys):
        gens = []
        for v in key:
            if v and v not in span(gens):
                gens.append(v)
                if len(gens) == p:
                    break
        yield StabilizerGroup(
            tuple(PauliOperator.from_symplectic(v & pmask, v >> p, p) for v in gens)
        )


class TestValidation:
    def test_diagonal_is_valid(self):
        g = group_of("ZII", "IZI", "IIZ")
        assert g.width == 3

    def test_bell_pair_group(self):
        g = group_of("XX", "ZZ")
        assert g.width == 2

    def test_anticommuting_pair_reports_indices(self):
        with pytest.raises(GroupError, match="0 and 1 anticommute"):
            group_of("XI", "ZI")

    def test_dependent_set_reports_certificate(self):
        with pytest.raises(GroupError, match=r"\[0, 1, 2\]"):
            group_of("ZZI", "IZZ", "ZIZ")

    def test_certificate_names_a_proper_subset(self):
        # XIII commutes with the rest and takes no part in the product
        with pytest.raises(GroupError) as info:
            group_of("XIII", "IZZI", "IIZZ", "IZIZ")
        assert str(info.value) == (
            "dependent generators: the product of indices [1, 2, 3] "
            "is +/-identity mod phase"
        )

    def test_non_hermitian_rejected(self):
        bad = (PauliOperator(1, 1, 0, 1),)  # iX
        with pytest.raises(GroupError, match="not Hermitian"):
            StabilizerGroup(bad)

    def test_generator_count_must_equal_width(self):
        with pytest.raises(GroupError, match="exactly 3"):
            StabilizerGroup(tuple(parse_pauli(s, 3) for s in ("ZII", "IZI")))

    def test_no_generators_refused(self):
        with pytest.raises(GroupError) as info:
            StabilizerGroup(())
        assert str(info.value) == "no generators given"

    def test_generator_of_another_width_refused(self):
        with pytest.raises(GroupError) as info:
            StabilizerGroup((parse_pauli("ZI"), parse_pauli("Z")))
        assert str(info.value) == "generator 1 has width 1, expected 2"

    def test_a_generator_list_is_stored_as_a_tuple(self):
        gens = [parse_pauli("XX"), parse_pauli("ZZ")]
        listed = StabilizerGroup(gens)
        assert type(listed.generators) is tuple
        assert listed == group_of("XX", "ZZ") and hash(listed) == hash(group_of("XX", "ZZ"))


class TestClosure:
    def test_diagonal_closure_is_all_z_strings(self):
        g = diagonal_group(3)
        elems = g.closure()
        assert len(elems) == 8
        assert {format_pauli(e) for e in elems} == {
            "III", "ZII", "IZI", "ZZI", "IIZ", "ZIZ", "IZZ", "ZZZ",
        }

    def test_bell_closure(self):
        elems = group_of("XX", "ZZ").closure()
        assert [format_pauli(e) for e in elems] == ["II", "XX", "ZZ", "-YY"]

    def test_single_qubit(self):
        elems = group_of("Z").closure()
        assert [format_pauli(e) for e in elems] == ["I", "Z"]

    def test_elements_hermitian_and_commuting(self):
        g = random_group(4, seed=11)
        elems = g.closure()
        assert len(elems) == 16
        for e in elems:
            assert e.is_hermitian
        for e1, e2 in itertools.combinations(elems, 2):
            assert e1.commutes(e2)

    def test_minus_identity_never_appears(self):
        for seed in range(10):
            g = random_group(3, seed=seed)
            nontrivial = [e for e in g.closure() if (e.x, e.z) == (0, 0)]
            assert len(nontrivial) == 1
            assert nontrivial[0].is_identity


class TestSyndrome:
    def test_diagonal_example(self):
        g = diagonal_group(3)
        assert format_label(g.syndrome(parse_pauli("XII")), 3) == "100"

    def test_ghz_group_example(self):
        g = group_of("XXX", "ZZI", "IZZ")
        assert format_label(g.syndrome(parse_pauli("ZII")), 3) == "100"

    def test_group_with_a_built_map_pickles(self):
        g = random_group(6, 2)
        op = parse_pauli("XYZIZX")
        label = g.syndrome(op)
        copy = pickle.loads(pickle.dumps(g))
        assert copy == g and copy.syndrome(op) == label

    def test_operator_of_another_width_refused(self):
        with pytest.raises(WidthMismatchError) as info:
            diagonal_group(3).syndrome(parse_pauli("XX"))
        assert str(info.value) == "operator width 2 != group width 3"

    def test_kernel_is_closure(self):
        g = group_of("XXX", "ZZI", "IZZ")
        for e in g.closure():
            assert g.syndrome(e) == 0

    @pytest.mark.parametrize("p,seed", [(2, 0), (3, 5), (4, 9), (5, 23)])
    def test_partition_isomorphism(self, p, seed):
        """Every label has exactly 2^p mod-phase preimages; the kernel is
        the closure; the map is additive."""
        g = random_group(p, seed)
        counts = [0] * (1 << p)
        kernel = set()
        for x in range(1 << p):
            for z in range(1 << p):
                lab = g.syndrome(PauliOperator.from_symplectic(x, z, p))
                counts[lab] += 1
                if lab == 0:
                    kernel.add((x, z))
        assert counts == [1 << p] * (1 << p)
        assert kernel == closure_classes(g)
        import random as _r

        rng = _r.Random(seed)
        for _ in range(50):
            s1 = PauliOperator.from_symplectic(
                rng.randrange(1 << p), rng.randrange(1 << p), p
            )
            s2 = PauliOperator.from_symplectic(
                rng.randrange(1 << p), rng.randrange(1 << p), p
            )
            assert g.syndrome(s1 * s2) == g.syndrome(s1) ^ g.syndrome(s2)


class TestNormalize:
    def test_flips_negative_diagonal(self):
        g = StabilizerGroup(
            (parse_pauli("-ZII"), parse_pauli("IZI"), parse_pauli("IIZ"))
        )
        norm = g.normalized(0)
        assert [format_pauli(x) for x in norm.generators] == ["ZII", "IZI", "IIZ"]

    def test_base_dependent_sign(self):
        g = diagonal_group(3)
        norm = g.normalized(parse_bits("100"))
        assert [format_pauli(x) for x in norm.generators] == ["-ZII", "IZI", "IIZ"]

    def test_bell_unchanged(self):
        g = group_of("XX", "ZZ")
        assert g.normalized(0).generators == g.generators

    def test_diagonal_subgroup_from_generator_subset(self):
        # {XX, YY} must renormalize so a generator spans the diagonal
        # subgroup {II, ZZ} with a + sign on |00>
        g = group_of("XX", "YY")
        norm = g.normalized(0)
        diag = [x for x in norm.generators if x.x == 0]
        assert [format_pauli(d) for d in diag] == ["ZZ"]
        assert closure_classes(norm) == closure_classes(g)

    @pytest.mark.parametrize("seed", range(8))
    def test_preserves_closure_mod_phase(self, seed):
        g = random_group(4, seed=seed)
        assert closure_classes(g.normalized(0)) == closure_classes(g)

    @pytest.mark.parametrize("base", [8, 9, -1])
    def test_base_outside_the_width_is_refused(self, base):
        # unchecked, 9 would act as 1 and -1 as the all-ones string
        with pytest.raises(ValueError) as info:
            diagonal_group(3).normalized(base)
        assert str(info.value) == f"seed base {base:#x} exceeds width 3"

    @pytest.mark.parametrize("group", [diagonal_group(4), random_group(4, 1)])
    def test_a_float_base_is_refused(self, group):
        # refused whether or not the group has a diagonal generator
        with pytest.raises(TypeError) as info:
            group.normalized(1.5)
        assert str(info.value) == "'float' object cannot be interpreted as an integer"

    def test_a_bool_base_reads_as_an_int(self):
        g = diagonal_group(3)
        assert g.normalized(True) == g.normalized(1)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_the_operator_product_reference(self, data):
        # a random group on the low m qubits and Z on the rest, mixed by
        # products of generators, with random signs, order and base: the
        # rows, unsigned and signed, and the normalized generators all
        # match the product loop, generator for generator
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
        want = reference_normalized(g, base)
        assert g._x_rows() == [(r.phase, r.x, r.z) for r in reference_x_rows(g)]
        assert g._x_rows(base) == [(r.phase, r.x, r.z) for r in want.generators]
        assert g.normalized(base).generators == want.generators


class TestRandomGroup:
    def test_single_qubit_options(self):
        for seed in range(12):
            g = random_group(1, seed)
            assert format_pauli(g.generators[0]) in {"X", "Y", "Z"}

    def test_deterministic(self):
        assert random_group(3, 42).generators == random_group(3, 42).generators

    def test_validates(self):
        g = random_group(3, seed=42)
        assert StabilizerGroup(g.generators).width == 3

    @pytest.mark.parametrize("p", [0, 25])
    def test_width_refused_before_sampling(self, p, monkeypatch):
        # random_group refuses the width before the sampler core starts
        monkeypatch.setattr(stabilizer, "sample_group", _no_sampling)
        with pytest.raises(ValueError, match="width must be in 1..24"):
            random_group(p, 1)

    @pytest.mark.parametrize("p, seed", [(3, 1.5), (2.0, 1)], ids=["seed", "width"])
    def test_a_float_is_refused_before_sampling(self, p, seed, monkeypatch):
        monkeypatch.setattr(stabilizer, "sample_group", _no_sampling)
        with pytest.raises(TypeError) as info:
            random_group(p, seed)
        assert str(info.value) == "'float' object cannot be interpreted as an integer"


def _no_sampling(*args):
    raise AssertionError("the sampler must not start")


class TestEnumerate:
    def test_width_1_exact(self):
        groups = list(enumerate_groups(1))
        bodies = [{e.body() for e in g.closure()} for g in groups]
        assert len(groups) == 3
        assert {frozenset(b) for b in bodies} == {
            frozenset({"I", "X"}),
            frozenset({"I", "Y"}),
            frozenset({"I", "Z"}),
        }

    def test_width_2_count(self):
        # brute-force confirmed count of maximal abelian subgroups mod phase
        assert sum(1 for _ in enumerate_groups(2)) == 15

    def test_width_3_count(self):
        assert sum(1 for _ in enumerate_groups(3)) == 135

    def test_no_duplicate_closures(self):
        seen = set()
        for g in enumerate_groups(2):
            key = closure_classes(g)
            assert key not in seen
            seen.add(key)

    def test_all_valid(self):
        for g in enumerate_groups(2):
            StabilizerGroup(g.generators)

    def test_large_width_refused(self):
        with pytest.raises(ValueError, match="width <= 3"):
            next(enumerate_groups(4))

    def test_width_zero_refused(self):
        with pytest.raises(ValueError) as info:
            next(enumerate_groups(0))
        assert str(info.value) == "width must be at least 1, got 0"

    def test_a_float_width_refused(self):
        with pytest.raises(TypeError) as info:
            next(enumerate_groups(2.0))
        assert str(info.value) == "'float' object cannot be interpreted as an integer"

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_matches_the_depth_first_reference(self, p):
        assert [g.generators for g in enumerate_groups(p)] == [
            g.generators for g in reference_enumerate_groups(p)
        ]


class TestJson:
    def test_round_trip(self):
        g = group_of("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ", "ZZZZZ")
        again = StabilizerGroup.from_dict(g.to_dict())
        assert again.generators == g.generators

    @pytest.mark.parametrize("generators", ["Z", "ZZ", 7, None, {"Z": 1}])
    def test_generators_that_are_no_list_are_refused(self, generators):
        # a string used to be read as a list of one-letter generators,
        # so {"width": 1, "generators": "Z"} loaded as a valid group
        with pytest.raises(ValueError) as info:
            StabilizerGroup.from_dict({"width": len("Z"), "generators": generators})
        assert str(info.value) == (
            f"generators must be a list, got {type(generators).__name__}"
        )
