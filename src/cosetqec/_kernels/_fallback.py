"""Pure-Python implementations of the bit-packed batch kernels.

The compiled lane (``_speedups.c``) mirrors this module exactly: same RNG
(splitmix64), same draw order, same tie-breaking, same refusals.  Both
lanes must produce bit-identical groups, labels, and search results for a
given seed; tests enforce this whenever a C compiler is available.

Packing: a width-p Pauli is a pair of p-bit masks (x, z); a symplectic
vector is the 2p-bit integer x | (z << p).  All widths are <= 24, so
every packed value fits in 64 bits.
"""

from __future__ import annotations

from typing import Sequence

MASK64 = (1 << 64) - 1
MAX_WIDTH = 24
MAX_ERRORS = 1024
_GOLDEN = 0x9E3779B97F4A7C15


def _check_width(p: int) -> None:
    if not 1 <= p <= MAX_WIDTH:
        raise ValueError(f"width must be in 1..{MAX_WIDTH}, got {p}")


def mix64(z: int) -> int:
    """splitmix64 finalizer (bijective avalanche on 64-bit ints)."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def syndrome_bits(a: int, b: int, gens_a: Sequence[int], gens_b: Sequence[int]) -> int:
    """Commutation pattern of (a, b) against each generator, bit t = generator t.

    The per-generator reference: ``search_range`` uses it for groups it
    meets once, and the tests compare both lanes' maps against it."""
    bits = 0
    for t in range(len(gens_a)):
        if ((a & gens_b[t]).bit_count() + (b & gens_a[t]).bit_count()) & 1:
            bits |= 1 << t
    return bits


def syndrome_map(gens_a: Sequence[int], gens_b: Sequence[int]):
    """The callable ``label(a, b) == syndrome_bits(a, b, gens_a, gens_b)``
    for any ints a, b.

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
    # column j of the check matrix: the label of v = 1 << j
    cols = [0] * (w + bmask.bit_length())
    for t, (x, z) in enumerate(zip(ga, gb)):
        for mask, shift in ((z, 0), (x, w)):
            while mask:
                j = mask.bit_length() - 1
                cols[shift + j] |= 1 << t
                mask ^= 1 << j
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


def random_group_packed(p: int, seed: int):
    """Greedily sample p independent pairwise-commuting (x, z) pairs.

    Draws uniform 2p-bit candidates from splitmix64 seeded at ``seed``,
    keeping each draw that commutes with everything kept so far and
    raises the GF(2) rank.  Returns (xs, zs) lists of length p.
    """
    _check_width(p)
    return _sample_group(p, seed)


def _sample_group(p: int, seed: int):
    state = seed & MASK64
    vmask = (1 << (2 * p)) - 1
    pmask = (1 << p) - 1
    xs: list[int] = []
    zs: list[int] = []
    pivots: dict[int, int] = {}
    while len(xs) < p:
        state = (state + _GOLDEN) & MASK64
        v = mix64(state) & vmask
        a = v & pmask
        b = v >> p
        ok = True
        for t in range(len(xs)):
            if ((a & zs[t]).bit_count() + (b & xs[t]).bit_count()) & 1:
                ok = False
                break
        if not ok:
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


def greedy_label_scan(p: int, err_labels: Sequence[int], k_target: int = -1):
    """Greedy coset-label selection: scan labels 0..2^p-1 ascending, keep a
    label when every XOR with the error labels is still unused.

    ``k_target >= 0`` stops as soon as that many labels are kept; -1 runs
    the full scan (maximum greedy dimension).  Labels outside 0..2^p-1
    are refused.
    """
    _check_width(p)
    for e in err_labels:
        if not 0 <= e < 1 << p:
            raise ValueError(f"label {e} out of range for width {p}")
    return _greedy(p, err_labels, k_target)


def _greedy(p: int, err_labels: Sequence[int], k_target: int) -> list[int]:
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
    MAX_ERRORS entries are refused.
    """
    _check_width(p)
    n = len(errs_a)
    if n > MAX_ERRORS:
        raise ValueError(
            f"error set has {n} entries; search handles at most {MAX_ERRORS}"
        )
    for i in range(start, start + count):
        st = mix64((seed + (i + 1) * _GOLDEN) & MASK64)
        xs, zs = _sample_group(p, st)
        seen = 0
        labels: list[int] = []
        ok = True
        for k in range(n):
            lab = syndrome_bits(errs_a[k], errs_b[k], xs, zs)
            if (seen >> lab) & 1:
                ok = False
                break
            seen |= 1 << lab
            labels.append(lab)
        if not ok:
            continue
        kept = _greedy(p, labels, k_target)
        if len(kept) >= k_target:
            return i, xs, zs, kept
    return None
