"""Cross-lane equality: the compiled kernels must match the pure-Python
fallback bit for bit (same RNG stream, same tie-breaking, same refusals).

When the extension is not installed but a C compiler is, the hand-written
``_speedups.c`` is compiled with ``-O2 -Wall -Werror`` into a temporary
directory and loaded under its package name, so these tests run on a
plain checkout; with neither, they are skipped."""

import importlib
import importlib.util
import json
import os
import random
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cosetqec.search as search
from cosetqec import ErrorSet, PauliOperator
from cosetqec._kernels import _fallback as fb
from cosetqec.golden import single_qubit_errors

NAME = "cosetqec._kernels._speedups"
GOLDEN_SEARCH = Path(__file__).parent / "data" / "golden_search.json"


# Scalar references: the per-generator label, the one-draw-at-a-time
# sampler and the search loop built on them, as the pure lane ran them
# before it batched its draws and labelled errors by column sums.


def syndrome_bits(a, b, gens_a, gens_b):
    """Commutation pattern of (a, b) against each generator, bit t =
    generator t."""
    bits = 0
    for t in range(len(gens_a)):
        if ((a & gens_b[t]).bit_count() + (b & gens_a[t]).bit_count()) & 1:
            bits |= 1 << t
    return bits


def reference_sample_group(p, seed):
    state = seed & fb.MASK64
    vmask = (1 << (2 * p)) - 1
    pmask = (1 << p) - 1
    xs, zs = [], []
    pivots = {}
    while len(xs) < p:
        state = (state + fb._GOLDEN) & fb.MASK64
        v = fb.mix64(state) & vmask
        a = v & pmask
        b = v >> p
        if any(
            ((a & zs[t]).bit_count() + (b & xs[t]).bit_count()) & 1
            for t in range(len(xs))
        ):
            continue
        w = v
        while w:
            hb = w.bit_length() - 1
            if hb in pivots:
                w ^= pivots[hb]
            else:
                pivots[hb] = w
                xs.append(a)
                zs.append(b)
                break
    return xs, zs


def reference_search_range(p, errs_a, errs_b, k_target, seed, start, count):
    for i in range(start, start + count):
        st_i = fb.mix64((seed + (i + 1) * fb._GOLDEN) & fb.MASK64)
        xs, zs = reference_sample_group(p, st_i)
        labels = [syndrome_bits(a, b, xs, zs) for a, b in zip(errs_a, errs_b)]
        if len(set(labels)) < len(labels):
            continue
        kept = fb.greedy(p, labels, k_target)
        if len(kept) >= k_target:
            return i, xs, zs, kept
    return None


def _build(tmp_dir: Path):
    cc = shutil.which("gcc") or shutil.which("cc")
    include = sysconfig.get_paths()["include"]
    if cc is None or not Path(include, "Python.h").exists():
        pytest.skip("compiled kernels not built and no C toolchain to build them")
    source = Path(fb.__file__).with_name("_speedups.c")
    target = tmp_dir / ("_speedups" + sysconfig.get_config_var("EXT_SUFFIX"))
    subprocess.run(
        [cc, "-O2", "-Wall", "-Werror", "-shared", "-fPIC", f"-I{include}",
         str(source), "-o", str(target)],
        check=True,
        capture_output=True,
    )
    spec = importlib.util.spec_from_file_location(NAME, target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def compiled(tmp_path_factory):
    try:
        installed = importlib.import_module(NAME)
    except ImportError:
        installed = None
    if installed is not None:
        yield installed
        return
    sys.modules[NAME] = module = _build(tmp_path_factory.mktemp("speedups"))
    yield module
    del sys.modules[NAME]


def test_pure_env_var_selects_fallback():
    proc = subprocess.run(
        [sys.executable, "-c", "import cosetqec; print(cosetqec.BACKEND)"],
        env={**os.environ, "COSETQEC_PURE": "1"},
        capture_output=True,
        text=True,
    )
    assert proc.stdout.strip() == "python"


def _masks(rng, n, bits):
    return [rng.getrandbits(bits) for _ in range(n)]


class TestMicroKernels:
    def test_syndrome_agrees(self, compiled):
        # widths 1..24: one to six table bytes on the pure lane
        rng = random.Random(4)
        for _ in range(400):
            p = rng.randrange(1, 25)
            ga, gb = _masks(rng, p, p), _masks(rng, p, p)
            a, b = rng.getrandbits(p), rng.getrandbits(p)
            want = syndrome_bits(a, b, ga, gb)
            assert compiled.syndrome_map(ga, gb)(a, b) == want
            assert fb.syndrome_map(ga, gb)(a, b) == want

    def test_syndrome_has_no_generator_cap(self, compiled):
        # past 24 generators and past one 64-bit word both maps still
        # match the reference (the compiled lane hands over to the pure map)
        rng = random.Random(6)
        for n in (0, 25, 64, 65, 130):
            ga, gb = _masks(rng, n, 20), _masks(rng, n, 20)
            a, b = rng.getrandbits(20), rng.getrandbits(20)
            want = syndrome_bits(a, b, ga, gb)
            assert compiled.syndrome_map(ga, gb)(a, b) == want
            assert fb.syndrome_map(ga, gb)(a, b) == want

    def test_map_reads_its_lists_once(self, compiled):
        # later edits to the caller's lists do not reach a built map
        for lane in (fb, compiled):
            ga, gb = [1, 0], [0, 2]
            label = lane.syndrome_map(ga, gb)
            ga[0], gb[1] = 0, 0
            assert label(1, 1) == 1 and label(2, 0) == 2
            assert lane.syndrome_map(iter([1, 0]), iter([0, 2]))(3, 0) == 2


def _map_equals_the_reference(lane, data):
    p = data.draw(st.integers(1, 24), label="p")
    masks = st.lists(st.integers(0, (1 << p) - 1), min_size=p, max_size=p)
    ga, gb = data.draw(masks, label="gens_a"), data.draw(masks, label="gens_b")
    label = lane.syndrome_map(ga, gb)
    args = (
        st.integers(0, (1 << p) - 1)
        | st.integers(-(1 << 70), 1 << 70)
        | st.integers(1 << 64, 1 << 70)
    )
    for _ in range(8):
        a, b = data.draw(args, label="a"), data.draw(args, label="b")
        assert label(a, b) == syndrome_bits(a, b, ga, gb)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_map_equals_the_reference(data):
    """The pure map equals the per-generator loop for p = 1..24, at
    arguments inside the width and beyond it, negative ones and ones past
    2^64 included."""
    _map_equals_the_reference(fb, data)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_compiled_map_equals_the_reference(compiled, data):
    """The same for the compiled map, which reads ints modulo 2^64."""
    _map_equals_the_reference(compiled, data)


SEEDS = st.integers(-(1 << 70), 1 << 70)


@settings(max_examples=100, deadline=None)
@given(p=st.integers(1, 24), seed=SEEDS, batches=st.integers(1, 3))
def test_draws_equal_the_scalar_stream(p, seed, batches):
    """A few lane-parallel batches equal the scalar splitmix64 stream
    masked to 2p bits, at every width: a whole group takes about 2^p
    draws, too many to compare groups above width 16."""
    vmask = (1 << 2 * p) - 1
    lanes = ((seed & fb.MASK64) * fb._LANES + fb._OFFSETS) & fb._LANE_MASK
    got = []
    for _ in range(batches):
        got += fb._draws(lanes, vmask * fb._LANES)
        lanes = (lanes + fb._ADVANCE) & fb._LANE_MASK
    state, want = seed & fb.MASK64, []
    for _ in range(batches * fb._BATCH):
        state = (state + fb._GOLDEN) & fb.MASK64
        want.append(fb.mix64(state) & vmask)
    assert got == want


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 40))
def test_lane_helpers_match_shifts_and_masks(data, n):
    words = data.draw(st.lists(st.integers(0, fb.MASK64), min_size=n, max_size=n))
    v = sum(w << 64 * i for i, w in enumerate(words))
    assert fb.unpack_lanes(v, n).tolist() == [
        (v >> 64 * i) & fb.MASK64 for i in range(n)
    ]
    # the 16- and 32-bit lanes of the seed strings
    for typecode, bits in (("H", 16), ("I", 32)):
        small = [w & (1 << bits) - 1 for w in words]
        packed = sum(w << bits * i for i, w in enumerate(small))
        assert fb.unpack_lanes(packed, n, typecode).tolist() == small


@settings(max_examples=100, deadline=None)
@given(p=st.integers(1, 16), seed=SEEDS)
def test_sampler_equals_the_reference(p, seed):
    assert fb.sample_group(p, seed) == reference_sample_group(p, seed)


def _error_masks(data, p):
    """Two lists of up to 3p+1 error masks: inside the width, negative,
    or wider, duplicates included."""
    n = data.draw(st.integers(0, 3 * p + 1), label="errors")
    masks = st.lists(
        st.integers(0, (1 << p) - 1)
        | st.integers(-(1 << 70), -1)
        | st.integers(1 << p, 1 << 70),
        min_size=n,
        max_size=n,
    )
    return data.draw(masks, label="errs_a"), data.draw(masks, label="errs_b")


@settings(max_examples=200, deadline=None)
@given(data=st.data(), p=st.integers(1, 8), seed=SEEDS)
def test_sampler_stops_exactly_when_a_product_enters_the_span(data, p, seed):
    """Given the pairwise products of the packed errors, the sampler
    returns None exactly when one of them lies in the span of all p
    pairs of the reference group, and the reference group otherwise."""
    ea, eb = _error_masks(data, p)
    pmask = (1 << p) - 1
    packed = [a & pmask | (b & pmask) << p for a, b in zip(ea, eb)]
    collide = {u ^ v for i, u in enumerate(packed) for v in packed[:i]}
    xs, zs = reference_sample_group(p, seed)
    gens = [x | z << p for x, z in zip(xs, zs)]
    span = set()
    for subset in range(1 << len(gens)):
        v = 0
        for t, g in enumerate(gens):
            if subset >> t & 1:
                v ^= g
        span.add(v)
    got = fb.sample_group(p, seed, collide)
    assert got == (None if collide & span else (xs, zs))


@pytest.mark.parametrize("p", [5, 6, 7])
def test_a_group_sampled_against_the_products_has_distinct_labels(monkeypatch, p):
    # once search_range hands the sampler the products, only candidates
    # whose error labels are all distinct come back from it
    errs = single_qubit_errors(p)
    ea, eb = [e.x for e in errs], [e.z for e in errs]
    sample, returned = fb.sample_group, []

    def spy(p, seed, collide=None):
        group = sample(p, seed, collide)
        if collide is not None and group is not None:
            returned.append(group)
        return group

    monkeypatch.setattr(fb, "sample_group", spy)
    assert fb.search_range(p, ea, eb, 1 << p, 0, 0, 300) is None
    assert returned
    for xs, zs in returned:
        labels = {syndrome_bits(a, b, xs, zs) for a, b in zip(ea, eb)}
        assert len(labels) == len(errs)


@pytest.mark.parametrize("seed, hit_index", [(7, 0), (0, 8)])
def test_search_builds_the_products_at_the_first_collision(
    monkeypatch, seed, hit_index
):
    # the sampler gets no product set until a candidate's labels collide;
    # a call whose first candidate hits builds none
    errs = single_qubit_errors(5)
    ea, eb = [e.x for e in errs], [e.z for e in errs]
    packed = [a | b << 5 for a, b in zip(ea, eb)]
    products = {u ^ v for i, u in enumerate(packed) for v in packed[:i]}
    sample, given = fb.sample_group, []

    def spy(p, seed, collide=None):
        given.append(collide)
        return sample(p, seed, collide)

    monkeypatch.setattr(fb, "sample_group", spy)
    assert fb.search_range(5, ea, eb, 1, seed, 0, 100)[0] == hit_index
    assert given == [None] + [products] * hit_index


def _search_equals_the_reference(lane, data):
    p = data.draw(st.integers(1, 10), label="p")
    ea, eb = _error_masks(data, p)
    k_target = data.draw(st.integers(-1, 4), label="k_target")
    seed, start = data.draw(SEEDS, label="seed"), data.draw(SEEDS, label="start")
    count = data.draw(st.integers(0, 12), label="count")
    args = (p, ea, eb, k_target, seed, start, count)
    assert lane.search_range(*args) == reference_search_range(*args)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_search_equals_the_reference(data):
    """The pure search loop equals the scalar one for seeds and starts in
    +-2^70 and error masks inside the width, negative, or wider."""
    _search_equals_the_reference(fb, data)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_compiled_search_equals_the_reference(compiled, data):
    """The same for the compiled loop, which reads ints modulo 2^64."""
    _search_equals_the_reference(compiled, data)


def _golden_record(lane, monkeypatch, p, k, seed, budget):
    """One seeded search for the single-qubit errors of width p, through
    ``search_code`` and through the lane's ``search_range``."""
    errs = single_qubit_errors(p)
    ea, eb = [e.x for e in errs], [e.z for e in errs]
    hit = lane.search_range(p, ea, eb, k, seed, 0, budget)
    monkeypatch.setattr(search, "search_range", lane.search_range)
    result = search.search_code(errs, k, budget=budget, seed=seed, workers=1)
    return {
        "p": p,
        "k": k,
        "seed": seed,
        "budget": budget,
        "hit_index": result.hit_index,
        "candidates_tried": result.candidates_tried,
        "xs": None if hit is None else list(hit[1]),
        "zs": None if hit is None else list(hit[2]),
        "labels": None if hit is None else list(hit[3]),
        "code": None if result.code is None else result.code.to_dict(),
    }


def _golden_search(lane, monkeypatch):
    """Seeded search results are pinned across commits, not only across
    lanes: ``tests/data/golden_search.json`` was written with
    ``_golden_record`` on the pure lane at commit fed56ca, before the
    search loop learned to abandon candidates whose labels must collide.
    Its cases cover widths 5-9, three seeds, and targets that hit and
    targets that exhaust a small budget."""
    want = json.loads(GOLDEN_SEARCH.read_text())
    got = [
        _golden_record(lane, monkeypatch, c["p"], c["k"], c["seed"], c["budget"])
        for c in want
    ]
    assert got == want
    assert {c["p"] for c in want} == {5, 6, 7, 8, 9}
    assert any(c["code"] is None for c in want)
    assert any(c["code"] is not None for c in want)


def test_seeded_search_matches_the_golden_file(monkeypatch):
    _golden_search(fb, monkeypatch)


def test_compiled_seeded_search_matches_the_golden_file(compiled, monkeypatch):
    _golden_search(compiled, monkeypatch)


class TestSamplers:
    """The compiled search loop keeps its own sampler and greedy scan,
    held to the pure cores ``sample_group`` and ``greedy`` through
    ``search_range``."""

    def test_random_group_streams_identical(self, compiled):
        # the identity error always hits, so candidate `start` is returned
        # with the group its stream samples
        for p in range(1, 17):
            for seed, start in [(0, 0), (7, 5), (-(1 << 70), (1 << 64) - 1)]:
                state = fb.mix64((seed + (start + 1) * fb._GOLDEN) & fb.MASK64)
                xs, zs = fb.sample_group(p, state)
                hit = compiled.search_range(p, [0], [0], 1, seed, start, 1)
                assert hit == (start, xs, zs, [0])

    def test_greedy_scan_identical(self, compiled):
        # k_target=-1: the first candidate with distinct labels keeps the
        # full greedy scan of its labels
        rng = random.Random(5)
        hits = 0
        for p in range(1, 13):
            for seed in range(3):
                n = rng.randrange(1, min(1 << p, 2 * p) + 1)
                packed = rng.sample(range(1 << 2 * p), n)
                ea = [v & (1 << p) - 1 for v in packed]
                eb = [v >> p for v in packed]
                hit = compiled.search_range(p, ea, eb, -1, seed, 0, 64)
                assert hit == fb.search_range(p, ea, eb, -1, seed, 0, 64)
                if hit is None:
                    continue
                hits += 1
                _, xs, zs, kept = hit
                labels = [syndrome_bits(a, b, xs, zs) for a, b in zip(ea, eb)]
                assert kept == fb.greedy(p, labels, -1)
        assert hits >= 30

    def test_greedy_scan_below_one_runs_the_full_scan(self):
        # 0 and every negative target keep every label the scan can
        for k_target in (0, -1, -5):
            assert fb.greedy(3, [0, 1], k_target) == [0, 2, 4, 6]
        assert fb.greedy(3, [0, 1], 2) == [0, 2]

    def test_search_streams_identical(self, compiled):
        errs = single_qubit_errors(5)
        ea = [e.x for e in errs]
        eb = [e.z for e in errs]
        for seed in (0, 7, 99):
            a = fb.search_range(5, ea, eb, 2, seed, 0, 500)
            b = compiled.search_range(5, ea, eb, 2, seed, 0, 500)
            if a is None:
                assert b is None
            else:
                assert a[0] == b[0]
                assert a[1] == list(b[1]) and a[2] == list(b[2])
                assert a[3] == list(b[3])

    def test_search_edge_arguments_identical(self, compiled):
        # negative or 64-bit-wrapping seeds and starts, empty ranges
        errs = single_qubit_errors(5)
        ea = [e.x for e in errs]
        eb = [e.z for e in errs]
        hits = 0
        for seed, start, count in [
            (-5, 0, 500),
            ((1 << 64) + 3, -40, 500),
            (2, (1 << 64) - 7, 500),
            (2, 10, 0),
            (2, 10, -3),
        ]:
            want = fb.search_range(5, ea, eb, 2, seed, start, count)
            assert compiled.search_range(5, ea, eb, 2, seed, start, count) == want
            hits += want is not None
        assert hits >= 2

    def test_search_blocks_compose(self, compiled):
        # scanning [0, 200) equals scanning [0, 100) then [100, 200)
        errs = single_qubit_errors(5)
        ea = [e.x for e in errs]
        eb = [e.z for e in errs]
        for lane in (fb, compiled):
            whole = lane.search_range(5, ea, eb, 2, 13, 0, 200)
            first = lane.search_range(5, ea, eb, 2, 13, 0, 100)
            hit = first if first is not None else lane.search_range(
                5, ea, eb, 2, 13, 100, 100
            )
            assert (whole is None) == (hit is None)
            if whole is not None:
                assert whole[0] == hit[0]


def _refusal(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


def _outcome(call):
    """The result, or the exception's type and message."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


class TestRefusals:
    @pytest.mark.parametrize("p", [0, -1, 25, 64, 1 << 70])
    def test_width_is_refused_the_same_on_both_lanes(self, compiled, p):
        want = _refusal(lambda: fb.search_range(p, [0], [0], 1, 1, 0, 1))
        assert want == (ValueError, f"width must be in 1..24, got {p}")
        assert _refusal(lambda: compiled.search_range(p, [0], [0], 1, 1, 0, 1)) == want

    def test_search_error_cap_is_the_same_on_both_lanes(self, compiled):
        ea = list(range(fb.MAX_ERRORS + 1))
        eb = [0] * len(ea)
        want = _refusal(lambda: fb.search_range(16, ea, eb, 1, 0, 0, 1))
        assert want == (
            ValueError,
            "error set has 1025 entries; search handles at most 1024",
        )
        assert _refusal(lambda: compiled.search_range(16, ea, eb, 1, 0, 0, 1)) == want
        # at the cap both lanes scan
        assert compiled.search_range(16, ea[:-1], eb[:-1], 1, 0, 0, 3) == (
            fb.search_range(16, ea[:-1], eb[:-1], 1, 0, 0, 3)
        )

    @pytest.mark.parametrize("ea, eb", [([0, 1, 2], [0]), ([0], [0, 1]), ([], [3])])
    def test_unequal_error_lists_are_refused_the_same_on_both_lanes(
        self, compiled, ea, eb
    ):
        # refused before the scan: an empty range does not hide it
        want = _refusal(lambda: fb.search_range(5, ea, eb, 1, 1, 0, 0))
        assert want == (
            ValueError,
            f"errs_a has {len(ea)} masks, errs_b has {len(eb)}",
        )
        assert _refusal(lambda: compiled.search_range(5, ea, eb, 1, 1, 0, 0)) == want

    @pytest.mark.parametrize(
        "args",
        [
            (-1, 0, [1], [1]),
            (0, -5, [-3, 2], [7, -1]),
            (3, 1, [1, -2], [-8, 4]),
            (1 << 64, 1, [1], [1 << 70]),
            (1, 1, [1, 2], [1]),
            (1, 1, [1.0], [1]),
        ],
    )
    def test_syndrome_out_of_domain_is_the_same_on_both_lanes(self, compiled, args):
        # negative or 65-bit masks and arguments, unequal lists, a float:
        # the compiled lane hands whatever it cannot read to the pure map
        a, b, ga, gb = args
        want = _outcome(lambda: fb.syndrome_map(ga, gb)(a, b))
        assert _outcome(lambda: compiled.syndrome_map(ga, gb)(a, b)) == want

    def test_refused_generators(self, compiled):
        for ga, gb, message in [
            ([1, 2], [1], "gens_a has 2 masks, gens_b has 1"),
            ([-3, 2], [7, 1], "generator mask -3 is not a non-negative int"),
            ([1.0], [1], "generator mask 1.0 is not a non-negative int"),
            ([1], ["1"], "generator mask '1' is not a non-negative int"),
        ]:
            for lane in (fb, compiled):
                assert _refusal(lambda: lane.syndrome_map(ga, gb)) == (
                    ValueError,
                    message,
                )
        want = _refusal(lambda: fb.syndrome_map(5, [1]))
        assert want[0] is TypeError
        assert _refusal(lambda: compiled.syndrome_map(5, [1])) == want

    @pytest.mark.parametrize(
        "call",
        [
            lambda label: label(1.5, 0),
            lambda label: label(1, "0"),
            lambda label: label(None, 1),
            lambda label: label(1),
            lambda label: label(1, 2, 3),
            lambda label: label(1, b=2),
            lambda label: label(-1, 1 << 80),
            lambda label: label(True, 1 << 63),
        ],
    )
    def test_out_of_domain_arguments_are_the_same_on_both_lanes(self, compiled, call):
        ga, gb = [1, 2, 4], [6, 1, 0]
        want = _outcome(lambda: call(fb.syndrome_map(ga, gb)))
        assert _outcome(lambda: call(compiled.syndrome_map(ga, gb))) == want

    def test_constructor_arguments_are_the_same_on_both_lanes(self, compiled):
        for call in [
            lambda lane: lane.syndrome_map([1]),
            lambda lane: lane.syndrome_map([1], [2], [3]),
            lambda lane: lane.syndrome_map(gens_a=[1], gens_b=[2])(1, 1),
        ]:
            assert _outcome(lambda: call(compiled)) == _outcome(lambda: call(fb))

    @pytest.mark.parametrize("k_target", [1 << 63, -(1 << 70)])
    def test_huge_k_target_is_the_same_on_both_lanes(self, compiled, k_target):
        ea, eb = [0, 1, 0], [0, 0, 1]  # I, X and Z on qubit 0
        want = fb.search_range(4, ea, eb, k_target, 9, 0, 40)
        assert want == compiled.search_range(4, ea, eb, k_target, 9, 0, 40)
        # 2^63 labels are never kept; a hugely negative target always is
        assert (want is None) == (k_target > 0)

    def test_huge_count_is_the_same_on_both_lanes(self, compiled):
        # identity-only errors: the first candidate hits, so neither lane
        # walks the 2^64-candidate range
        want = fb.search_range(5, [0], [0], 1, 3, 7, 1 << 64)
        assert want is not None and want[0] == 7
        assert compiled.search_range(5, [0], [0], 1, 3, 7, 1 << 64) == want
        for count in (-(1 << 70), 0):
            assert compiled.search_range(5, [0], [0], 1, 3, 7, count) is None

    def test_error_set_cap_is_the_same_on_both_lanes(self, compiled, monkeypatch):
        errs = ErrorSet(
            tuple(
                PauliOperator(0, 0, z, 16)
                for z in range(search.MAX_SEARCH_ERRORS + 2)
            )
        )
        messages = []
        for lane in (fb, compiled):
            monkeypatch.setattr(search, "search_range", lane.search_range)
            with pytest.raises(ValueError) as info:
                search.search_code(errs, 1, strategy="random", budget=1)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert "at most 1024" in messages[0]


NOT_AN_INT = (TypeError, "'float' object cannot be interpreted as an integer")


class TestOneErrorPath:
    """The compiled lane runs a call in C only inside its domain and hands
    every other call to the pure lane, which owns every refusal."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda lane: lane.search_range(5, [0], [0], 1.5, 1, 0, 1),
            lambda lane: lane.search_range(5, [1.0], [0], 1, 1, 0, 1),
            lambda lane: lane.search_range(5, [0], [0], 1, 1.5, 0, 1),
        ],
    )
    def test_a_float_is_refused_the_same_on_both_lanes(self, compiled, call):
        assert _outcome(lambda: call(fb)) == NOT_AN_INT
        assert _outcome(lambda: call(compiled)) == NOT_AN_INT

    @pytest.mark.parametrize(
        "call",
        [
            lambda lane: lane.search_range(4, (0, 1), (0, 0), 1, 9, 0, 40),
            lambda lane: lane.search_range(4, range(2), [0, 0], 1, 9, 0, 40),
            lambda lane: lane.search_range(4, [0, 1], [0, 0], 1, 9, 0, count=40),
            lambda lane: lane.search_range(4, [0, 1], [0, 0], 1, 9, None, 40),
            lambda lane: lane.search_range(4, [0, 1], [0, 0], 1, 9, 0),
        ],
    )
    def test_other_calls_are_the_same_on_both_lanes(self, compiled, call):
        # keywords, missing arguments, iterators and ranges, non-int scalars
        assert _outcome(lambda: call(compiled)) == _outcome(lambda: call(fb))

    IN_DOMAIN = [
        ("syndrome_map", lambda lane: lane.syndrome_map([1, 2], [2, 0])(3, 1)),
        (
            "search_range",
            lambda lane: lane.search_range(4, [0, 1], (0, 0), 1, 1 << 70, -3, 40),
        ),
    ]

    @pytest.mark.parametrize("name, call", IN_DOMAIN)
    def test_an_in_domain_call_stays_in_c(self, compiled, monkeypatch, name, call):
        want = call(fb)
        monkeypatch.setattr(fb, name, _refuse)
        assert call(compiled) == want

    @pytest.mark.parametrize(
        "name, args, kwargs",
        [
            ("syndrome_map", ([1],), {"gens_b": [2]}),
            ("search_range", (4, [0], [0], 1, 1, 0, 1 << 63), {}),
        ],
    )
    def test_an_out_of_domain_call_goes_to_the_pure_lane(
        self, compiled, monkeypatch, name, args, kwargs
    ):
        # to the function of the same name, with the arguments as passed
        monkeypatch.setattr(fb, name, lambda *a, **kw: (name, a, kw))
        assert getattr(compiled, name)(*args, **kwargs) == (name, args, kwargs)


def _refuse(*args, **kwargs):
    raise AssertionError("an in-domain call reached the pure lane")
