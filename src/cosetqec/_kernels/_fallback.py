"""Pure-Python implementations of the bit-packed batch kernels.

This module is the reference and owns every kernel refusal.  The
compiled lane (``_speedups.c``) is a fast path: it runs a call in C only
when its arguments are in C's domain, with the same RNG (splitmix64),
draw order and tie-breaking, and hands every other call to the function
of the same name here.  ``search_range`` reads its int arguments with
``operator.index``, so a float or a string is refused with a TypeError.
The sampler ``sample_group`` and the scan ``greedy`` trust their callers.
Both lanes must produce bit-identical labels and search results for a
given seed; tests enforce this whenever a C compiler is available.

Packing: a width-p Pauli is a pair of p-bit masks (x, z); a symplectic
vector is the 2p-bit integer x | (z << p).  All widths are <= 24, so
every packed value fits in 64 bits.

The sampler and the search loop carry a search's work:

- Draws come ``_BATCH`` at a time.  The batch's splitmix64 states sit in
  the 128-bit lanes of one int, so the finalizer is a few whole-int
  shifts, multiplies and ANDs with a repeated 64-bit lane mask (a lane's
  product stays below 2^128 and never reaches the next lane), and
  ``to_bytes`` unpacks the lanes.  Draws are consumed in stream order;
  those left in a batch once the group is complete are never read.
- A draw commutes with a kept pair (x, z) when it has even overlap with
  the pair's swapped form z | x << p: one popcount per kept pair.
- A label is the XOR of the check matrix's columns at the set bits of
  the packed operator (column j is the label of 1 << j).
  ``syndrome_map`` and ``search_range`` both build a group's columns
  with ``_columns``: the map tabulates byte-wide XORs of them, and the
  search loop XORs each error's few columns directly.
- The search loop abandons a candidate once its error labels must
  collide.  Two errors share a label exactly when their product lies in
  the candidate's span, so the sampler, given the set of pairwise error
  products, stops drawing as soon as the span of the pairs kept so far
  meets it, and checks the span of all p pairs before it returns (see
  ``search_range``).  At p=6 with single-qubit errors a candidate then
  reads about 37 draws on average instead of about 75, and only
  candidates with distinct labels reach the label loop.
"""

from __future__ import annotations

import sys
from array import array
from operator import index
from typing import Sequence

from ..pauli import MAX_WIDTH, _check_width

MASK64 = (1 << 64) - 1
MAX_ERRORS = 1024
_GOLDEN = 0x9E3779B97F4A7C15

# Draws per lane-parallel batch.  A width-p group takes about 2^p draws.
# Timed at the search benchmark's widths, sizes 24 to 64 were equally
# fast at p=6 and 48 was the fastest at p=8 (README "Performance").
_BATCH = 48
_LANES = sum(1 << 128 * i for i in range(_BATCH))  # a 1 in every lane
_LANE_MASK = MASK64 * _LANES
# lane i holds the (i+1)-th state after the one the batch starts from
_OFFSETS = sum(((i + 1) * _GOLDEN & MASK64) << 128 * i for i in range(_BATCH))
_ADVANCE = (_BATCH * _GOLDEN & MASK64) * _LANES
# a draw keeps 2p bits: the lane-repeated masks, one per width
_VMASKS = [((1 << 2 * p) - 1) * _LANES for p in range(MAX_WIDTH + 1)]
_BIG_ENDIAN = sys.byteorder == "big"


def mix64(z: int) -> int:
    """splitmix64 finalizer (bijective avalanche on 64-bit ints)."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def _columns(xs: Sequence[int], zs: Sequence[int], shift: int, size: int) -> list[int]:
    """The first ``size`` columns of the check matrix of the pairs
    (xs[t], zs[t]) for operators packed as v = a | b << shift: column j
    is the label of v = 1 << j (a meets the z masks, b the x masks)."""
    cols = [0] * size
    for t, (x, z) in enumerate(zip(xs, zs)):
        for mask, offset in ((z, 0), (x, shift)):
            while mask:
                j = mask.bit_length() - 1
                cols[offset + j] |= 1 << t
                mask ^= 1 << j
    return cols


def syndrome_map(gens_a: Sequence[int], gens_b: Sequence[int]):
    """The callable ``label(a, b)``: bit t is set when (a, b) anticommutes
    with (gens_a[t], gens_b[t]), for any ints a, b.

    The label is linear in v = (a & amask) | (b & bmask) << w, where the
    masks keep the bits a generator can meet, so it is the XOR of one
    lookup per byte of v into a table of that byte's 256 column sums (the
    "Four Russians" method).  Refuses generator lists of unequal length
    and masks that are not non-negative ints."""
    ga, gb = list(gens_a), list(gens_b)
    if len(ga) != len(gb):
        raise ValueError(f"gens_a has {len(ga)} masks, gens_b has {len(gb)}")
    for g in ga + gb:
        if not isinstance(g, int) or g < 0:
            raise ValueError(f"generator mask {g!r} is not a non-negative int")
    amask = bmask = 0
    for x, z in zip(ga, gb):
        amask |= z
        bmask |= x
    w = amask.bit_length()
    cols = _columns(ga, gb, w, w + bmask.bit_length())
    tables = []
    for i in range(0, len(cols), 8):
        table = [0]
        for col in cols[i : i + 8]:
            table += [s ^ col for s in table]
        tables.append(table)
    if len(tables) <= 3:
        # every width up to 12: three unrolled lookups, about 0.1 us a
        # call faster than the byte loop, which wider groups need
        t0, t1, t2 = tables + [[0]] * (3 - len(tables))

        def label(a, b):
            v = a & amask | (b & bmask) << w
            return t0[v & 255] ^ t1[v >> 8 & 255] ^ t2[v >> 16]

    else:

        def label(a, b):
            v = a & amask | (b & bmask) << w
            bits = 0
            for table in tables:
                bits ^= table[v & 255]
                v >>= 8
            return bits

    return label


def unpack_lanes(v: int, n: int, typecode: str = "Q") -> array:
    """The n lanes of the non-negative int ``v`` as an ``array(typecode)``,
    in lane order on hosts of either byte order.  A lane is one item
    wide: 64 bits for the default "Q", so lane i is ``v >> 64*i &
    MASK64``."""
    words = array(typecode)
    words.frombytes(v.to_bytes(words.itemsize * n, "little"))
    if _BIG_ENDIAN:
        words.byteswap()
    return words


def _draws(lanes: int, vmask: int) -> array:
    """splitmix64 outputs of the states in the 128-bit lanes of ``lanes``,
    ANDed with the lane-repeated ``vmask``, as u64 values in lane order."""
    z = lanes ^ lanes >> 30 & _LANE_MASK
    z = z * 0xBF58476D1CE4E5B9 & _LANE_MASK
    z ^= z >> 27 & _LANE_MASK
    z = z * 0x94D049BB133111EB & _LANE_MASK
    # each 128-bit lane is two words, and its high word is zero
    return unpack_lanes((z ^ z >> 31) & vmask, 2 * _BATCH)[::2]


def sample_group(p: int, seed: int, collide=None):
    """Greedily sample p independent pairwise-commuting (x, z) pairs from
    the splitmix64 stream seeded at ``seed``: keep each draw that commutes
    with everything kept and raises the GF(2) rank.  Returns (xs, zs), or
    None once the span of the pairs kept so far meets the set ``collide``
    of packed vectors (0 is in every span), so with ``collide`` given it
    returns a group only when the span of all p pairs misses the set.
    The span is built only when ``collide`` is given; the p-th pair's
    half of it is checked but not kept."""
    if collide is not None and 0 in collide:
        return None
    pmask = (1 << p) - 1
    vmask = _VMASKS[p]
    lanes = ((seed & MASK64) * _LANES + _OFFSETS) & _LANE_MASK
    xs: list[int] = []
    zs: list[int] = []
    swapped: list[int] = []
    pivots: dict[int, int] = {}
    span = [0]
    while True:
        for v in _draws(lanes, vmask):
            for s in swapped:
                if (v & s).bit_count() & 1:
                    break
            else:
                w = v
                while w:
                    hb = w.bit_length() - 1
                    if hb in pivots:
                        w ^= pivots[hb]
                        continue
                    pivots[hb] = w
                    a, b = v & pmask, v >> p
                    xs.append(a)
                    zs.append(b)
                    if collide is not None:
                        half = [u ^ v for u in span]
                        if not collide.isdisjoint(half):
                            return None
                    if len(xs) == p:
                        return xs, zs
                    if collide is not None:
                        span += half
                    swapped.append(b | a << p)
                    break
        lanes = (lanes + _ADVANCE) & _LANE_MASK


def greedy(p: int, err_labels: Sequence[int], k_target: int) -> list[int]:
    """Greedy coset-label selection: scan labels 0..2^p-1 ascending, keep a
    label when every XOR with the error labels ``err_labels``, ints in
    0..2^p-1, is still unused.  ``k_target >= 1`` stops as soon as that
    many labels are kept; any ``k_target < 1`` runs the full scan."""
    used = bytearray(1 << p)
    kept: list[int] = []
    for lam in range(1 << p):
        for e in err_labels:
            if used[e ^ lam]:
                break
        else:
            for e in err_labels:
                used[e ^ lam] = 1
            kept.append(lam)
            if len(kept) == k_target:
                break
    return kept


def search_range(
    p: int,
    errs_a: Sequence[int],
    errs_b: Sequence[int],
    k_target: int,
    seed: int,
    start: int,
    count: int,
):
    """Scan candidate indices [start, start+count) of the seeded stream.

    Candidate i gets its own decorrelated splitmix64 stream derived from
    (seed, i), samples a group, and is accepted when all error labels are
    distinct and the greedy scan keeps k_target labels.  Returns
    (index, xs, zs, labels) for the first hit, or None.  Error sets over
    MAX_ERRORS entries and error lists of unequal length are refused
    before the scan.

    A candidate is abandoned as soon as a label collision is certain,
    which leaves every result unchanged.  Its p independent commuting
    pairs on p qubits span a Lagrangian S, which is its own symplectic
    complement, so errors e and f share a label iff e ^ f commutes with
    every pair, that is iff e ^ f is in S.  The span of the pairs kept
    so far lies in S, so once it holds a pairwise product the labels
    collide whatever the stream draws next; and no candidate's stream
    depends on another's.  The sampler checks the last pair's half of S
    too, so once it has the products every group it returns has
    distinct labels, and the label loop catches collisions only before
    that.  Building the span costs up to 2^p XORs and lookups, so
    the sampler gets the products only when they number at least half
    of 2^p; with fewer, a collision is rare and the check costs more
    than it saves.  The products are built at the first candidate whose
    labels collide, so a call whose candidates hit before that builds
    none.
    """
    p = index(p)
    _check_width(p)
    k_target, seed, start, count = map(index, (k_target, seed, start, count))
    errs_a, errs_b = [index(a) for a in errs_a], [index(b) for b in errs_b]
    n = len(errs_a)
    if n > MAX_ERRORS:
        raise ValueError(
            f"error set has {n} entries; search handles at most {MAX_ERRORS}"
        )
    if len(errs_b) != n:
        raise ValueError(f"errs_a has {n} masks, errs_b has {len(errs_b)}")
    pmask = (1 << p) - 1
    packed = [a & pmask | (b & pmask) << p for a, b in zip(errs_a, errs_b)]
    # an error's label is the XOR of the columns at its packed set bits
    err_bits = [[j for j in range(2 * p) if v >> j & 1] for v in packed]
    collide = None
    pending = n * (n - 1) >= 1 << p  # the products might fill half of 2^p
    for i in range(start, start + count):
        group = sample_group(p, mix64((seed + (i + 1) * _GOLDEN) & MASK64), collide)
        if group is None:
            continue
        xs, zs = group
        cols = _columns(xs, zs, p, 2 * p)
        seen = 0
        labels: list[int] = []
        for bits in err_bits:
            lab = 0
            for j in bits:
                lab ^= cols[j]
            if seen >> lab & 1:
                break
            seen |= 1 << lab
            labels.append(lab)
        else:
            kept = greedy(p, labels, k_target)
            if len(kept) >= k_target:
                return i, xs, zs, kept
            continue
        if pending:  # the first label collision
            pending = False
            products = {u ^ v for k, u in enumerate(packed) for v in packed[:k]}
            if 2 * len(products) >= 1 << p:
                collide = products
    return None
