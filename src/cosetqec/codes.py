"""Seed states, codeword operators, and assembled quantum codes.

The seed of a group is the unnormalized state obtained by summing every
closure element applied to a computational-basis state.  After sign
normalization the surviving coefficients share one magnitude (the size
of the diagonal subgroup), so a seed stores only the unit coefficient
i^k per basis string; the magnitude and the 1/sqrt(#terms) factor are
left to the dense-state module.

Coefficients are units in {1, i, -1, -i} rather than bare signs: a
closure element whose Y count is odd contributes an imaginary unit (for
example the group generated by Y alone seeds |0> + i|1>), and that unit
is a coset invariant of the diagonal subgroup, so no sign convention can
remove it.

Neither the seed nor the codeword operators walk the closure one
element at a time:

- The seed reads the closure in the 64-bit lanes of one Python int
  (:func:`_lanes`), one lane per element, which each generator doubles
  by a few whole-int operations.  Operations on the whole int give
  every element's unit and its key ``(x ^ base) << 2 | unit``; the keys
  are unpacked once, deduplicated and sorted, and the sorted keys give
  the terms.
- A coset is one solved member XOR the closure classes, and its
  representative is the member of least weight, ties broken by the
  letter string.  The classes are held as 2p bit-planes of 2^p bits,
  one x-plane and one z-plane per qubit, with bit i for class i; a
  coset's planes are these, complemented where the solved member has a
  bit.  A bit-sliced counter of at most 5 planes sums the p occupancy
  planes (x | z) into every member's weight at once, and a candidate
  set is cut down to the least weight, then by the z- and x ^ z-planes
  qubit by qubit, until one member is left.  Each label costs O(p) whole
  plane operations, and only the winner is built as an operator object.

A saved seed is read back as whole lists, not term by term: a chunk of
bit strings is checked on its joined text and parsed by one
``int(..., 2)`` into fixed-width lanes, and a seed's terms are proved
valid by one pass when their strings ascend, as every saved seed's do.
Only input that fails those checks takes the per-term path, which names
the first bad term.  The seeds that :func:`seed_state` and
:func:`punctured_seed` build are valid by construction and skip the
check.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from operator import index, itemgetter, lt
from typing import Iterable, Sequence

from ._kernels import lane_ones, pack_lanes, unpack_lanes
from .pauli import (
    MAX_WIDTH,
    PauliOperator,
    ParseError,
    format_bits,
    format_pauli,
    parse_bits,
    parse_pauli,
    rank_f2,
)
from .stabilizer import GroupError, StabilizerGroup, format_label, read_width

SEED_STABILIZER = "stabilizer"
SEED_PUNCTURED = "punctured"
SEED_EXPLICIT = "explicit"

_UNIT_TO_TOKEN = {0: "+", 1: "+i", 2: "-", 3: "-i"}
_TOKEN_TO_UNIT = {"+": 0, "+i": 1, "i": 1, "-": 2, "-i": 3}
# tokens per whole-list parse, so that its texts stay small at any seed size
_CHUNK = 4096


@dataclass(frozen=True)
class SeedState:
    """A sparse signed superposition of basis strings.

    ``terms`` holds (unit, string) pairs of ints where the coefficient of
    the basis string is i**unit; strings are distinct and at least one
    term is present.  ``width`` is in 0..24.  ``base`` is the basis string
    the closure was applied to, a width-bit string like the terms.
    ``origin`` records how the seed was made: derived from a group
    closure, punctured from such a seed, or supplied explicitly (the
    default).
    """

    terms: tuple[tuple[int, int], ...]
    width: int
    base: int = 0
    origin: str = SEED_EXPLICIT

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("seed state has no terms")
        if self.origin not in (SEED_STABILIZER, SEED_PUNCTURED, SEED_EXPLICIT):
            raise ValueError(f"unknown seed origin {self.origin!r}")
        if not 0 <= index(self.width) <= MAX_WIDTH:
            raise ValueError(f"seed width must be in 0..{MAX_WIDTH}, got {self.width}")
        mask = (1 << self.width) - 1
        if not 0 <= index(self.base) <= mask:
            raise ValueError(f"seed base {self.base:#x} exceeds width {self.width}")
        if self._valid_in_order(mask):
            return
        seen = set()
        for unit, string in self.terms:
            if not 0 <= unit <= 3:
                raise ValueError(f"coefficient exponent {unit} out of range")
            if not 0 <= string <= mask:
                raise ValueError(f"basis string {string:#x} exceeds width {self.width}")
            try:
                index(unit), index(string)
            except TypeError:
                raise TypeError(f"seed term {(unit, string)!r} is not two ints") from None
            if string in seen:
                raise ValueError(f"duplicate basis string {format_bits(string, self.width)}")
            seen.add(string)

    def _valid_in_order(self, mask: int) -> bool:
        """One pass over the whole list that proves the terms valid when
        they are pairs of ints with units in 0..3 and strictly ascending
        strings in [0, mask], as every derived or saved seed is; False
        sends the terms to the loop that names the first bad one."""
        try:  # bytes() and an int sum refuse a float or a str, with no loop
            units, strings = zip(*self.terms, strict=True)
            return (
                not bytes(units).translate(None, b"\0\1\2\3")
                and type(sum(strings)) is int
                and 0 <= strings[0]
                and strings[-1] <= mask
                and all(map(lt, strings, strings[1:]))
            )
        except (TypeError, ValueError):
            return False

    @classmethod
    def _make(
        cls, terms: tuple[tuple[int, int], ...], width: int, base: int, origin: str
    ) -> "SeedState":
        """A seed whose fields the caller has proven valid, written
        straight into the instance dict without ``__post_init__``'s
        checks: :func:`seed_state` and :func:`punctured_seed` build only
        such seeds."""
        seed = object.__new__(cls)
        seed.__dict__.update(terms=terms, width=width, base=base, origin=origin)
        return seed

    @property
    def strings(self) -> frozenset[int]:
        return frozenset(s for _, s in self.terms)

    def term_tokens(self) -> list[list[str]]:
        """JSON form: [[sign, bitstring], ...] with sign in + - +i -i."""
        # format_bits inline: a sentinel bit above the top one keeps the
        # leading zeros, and the strings are in range already
        top = 1 << self.width
        return [
            [_UNIT_TO_TOKEN[unit], format(string | top, "b")[:0:-1]]
            for unit, string in self.terms
        ]

    @classmethod
    def from_tokens(
        cls,
        tokens: Iterable[Sequence[str]],
        width: int,
        base: str | None = None,
        origin: str = SEED_EXPLICIT,
    ) -> "SeedState":
        """Parse the JSON form: the term tokens, then ``base`` as a bit
        string (None for the all-zero string).  Well-formed tokens are
        parsed as whole lists; any others go through :func:`parse_bits`
        one by one, which names the first bad token."""
        if not isinstance(tokens, (list, tuple)):
            tokens = list(tokens)
        terms = _parse_terms(tokens, width)
        if terms is None:
            terms = []
            for sign, bits in tokens:
                unit = _TOKEN_TO_UNIT.get(sign)
                if unit is None:
                    raise ParseError(f"unknown seed coefficient {sign!r}")
                terms.append((unit, parse_bits(bits, width)))
        parsed_base = 0 if base is None else parse_bits(base, width)
        return cls(tuple(terms), width, parsed_base, origin)


def _parse_terms(tokens: Sequence, width: int) -> list[tuple[int, int]] | None:
    """The terms of (sign, bit string) tokens, parsed _CHUNK at a time,
    or None when a check fails and the per-term parse must run.

    A chunk's strings must be exactly ``width`` bits each, checked on
    their joined text: ``int`` would also read whitespace, underscores,
    a sign and a "0b" prefix.  Joined with zeros between them up to a
    lane of 16 or 32 bits, the reversed text is one ``int(..., 2)`` that
    holds string i in lane i."""
    if type(width) is not int or not 1 <= width <= MAX_WIDTH:
        return None
    lane, typecode = (16, "H") if width <= 16 else (32, "I")
    pad = "0" * (lane - width)
    terms: list[tuple[int, int]] = []
    for lo in range(0, len(tokens), _CHUNK):
        # raises for a token that is no pair, an unhashable sign, and a
        # string that is no str or holds a lone surrogate
        try:
            signs, strings = zip(*tokens[lo : lo + _CHUNK], strict=True)
            units = list(map(_TOKEN_TO_UNIT.get, signs))
            text = "".join(strings).encode()
        except (TypeError, ValueError):
            return None
        if (
            None in units
            or set(map(len, strings)) != {width}
            or text.translate(None, b"01")
        ):
            return None
        values = int(pad.join(strings)[::-1], 2)
        terms += zip(units, unpack_lanes(values, len(strings), typecode))
    return terms


def _lanes(group: StabilizerGroup) -> int:
    """The closure in the 64-bit lanes of one int, in the order of
    :meth:`StabilizerGroup.closure`: lane lam holds element lam,
    ``i**phase * X^x * Z^z``, as ``x | z << p | phase << 2p``, at most 50
    bits at p = 24.  Generator t doubles the lanes, lane i + 2^t being
    lane i times it, with the phase rule of the Aaronson-Gottesman
    tableau: i^a X^x Z^z times i^b X^x' Z^z' is i^(a+b) (-1)^(z.x')
    X^(x^x') Z^(z^z')."""
    p = group.width
    field = (1 << 2 * p + 2) - 1
    lanes, ones, n = 0, 1, 1
    for g in group.generators:
        # parity of z & gx per lane: the fold leaves it in bit 0, and
        # no bit of a higher lane reaches bit 0 of a lower one
        t = lanes & (g.x << p) * ones
        for shift in (32, 16, 8, 4, 2, 1):
            t ^= t >> shift
        # the phase sum carries past the 2-bit field but not out of
        # the lane, and the mask drops the carry
        new = (lanes ^ (g.x | g.z << p) * ones) + (
            (g.phase * ones + ((t & ones) << 1)) << 2 * p
        )
        lanes |= (new & field * ones) << 64 * n
        ones |= ones << 64 * n
        n *= 2
    return lanes


def seed_state(group: StabilizerGroup, base: int = 0) -> SeedState:
    """Sum the group closure applied to |base>, symbolically.

    Element i^d X^x Z^z sends |base> to i^d (-1)^(z.base) |base^x|, so all
    elements sharing an X part land on one string; after sign
    normalization they agree, every coefficient has magnitude equal to
    the diagonal subgroup size, and only the unit i^k is kept.  The terms
    come from whole-int operations on the closure's 64-bit lanes
    (:func:`_lanes`); no Python loop runs per closure element and no
    operator object is built.  Refuses a base
    outside [0, 2^p), and groups whose diagonal subgroup does not fix
    |base> with +1, since the character sum then cancels every
    coefficient to zero; that check runs over the whole walk before any
    coefficient is formed.
    """
    p = group.width
    base = index(base)
    if not 0 <= base < 1 << p:
        raise ValueError(f"seed base {base:#x} exceeds width {p}")
    n, pmask = 1 << p, (1 << p) - 1
    ones = lane_ones(n)
    lanes = _lanes(group)
    xs = lanes & pmask * ones
    # unit = phase + 2 parity(z & base), with the parity folded onto bit 0
    t = lanes & (base << p) * ones
    for shift in (32, 16, 8, 4, 2, 1):
        t ^= t >> shift
    units = ((lanes >> 2 * p) + ((t & ones) << 1)) & 3 * ones
    # A diagonal element (x == 0: no carry out of x + 2^p - 1) is
    # Hermitian, so its unit is +1 or -1, and bit 1 marks -1.
    diagonal = ones ^ (xs + pmask * ones >> p & ones)
    minus = diagonal & units >> 1
    if minus:
        # the lowest such lane is the first such element in walk order
        lam = (minus & -minus).bit_length() // 64
        v = lanes >> 64 * lam & (1 << 64) - 1
        elem = PauliOperator(v >> 2 * p, v & pmask, v >> p & pmask, p)
        raise GroupError(
            f"group is not sign-normalized for base "
            f"{format_bits(base, p)}: element "
            f"{format_pauli(elem)} acts as -1 "
            "(the seed would cancel to zero); call normalized() first"
        )
    # each distinct (string, unit) once, in string order
    keys = sorted(set(unpack_lanes((xs ^ base * ones) << 2 | units, n)))
    m, packed = len(keys), pack_lanes(keys)
    key_ones = lane_ones(m)
    strings = unpack_lanes(packed >> 2 & ((1 << 62) - 1) * key_ones, m).tolist()
    if len(set(strings)) < m:
        raise GroupError("inconsistent seed coefficients; group signs are broken")
    term_units = unpack_lanes(packed & 3 * key_ones, m).tolist()
    # a list first: tuple() of an iterator resizes as it grows, which
    # took 2-3 times as long at 2^20 terms
    terms = tuple([*zip(term_units, strings)])
    # units in 0..3 and distinct strings in ascending key order, and a
    # base in range: already a valid seed
    return SeedState._make(terms, p, base, SEED_STABILIZER)


def punctured_seed(seed: SeedState, removed: Iterable[int | str]) -> SeedState:
    """Drop the given basis strings from a seed (to build the nonadditive
    code families); at least two strings must go and at least one term
    must survive."""
    remove: set[int] = set()
    for item in removed:
        if isinstance(item, str):
            item = parse_bits(item, seed.width)
        elif not 0 <= (item := index(item)) < 1 << seed.width:
            raise ValueError(f"basis string {item} outside [0, 2^{seed.width})")
        remove.add(item)
    present = seed.strings
    missing = remove - present
    if missing:
        shown = ", ".join(format_bits(s, seed.width) for s in sorted(missing))
        raise ValueError(f"cannot remove absent strings: {shown}")
    if len(remove) < 2:
        raise ValueError("puncturing must remove more than one string")
    kept = tuple(t for t in seed.terms if t[1] not in remove)
    if not kept:
        raise ValueError("puncturing removed every term")
    # a nonempty subsequence of a valid seed's terms, still in order
    return SeedState._make(kept, seed.width, seed.base, SEED_PUNCTURED)


def _planes(group: StabilizerGroup) -> tuple[list[int], list[int], int]:
    """The closure classes as bit-planes of 2^p bits: bit i of ``xs[j]``
    (``zs[j]``) is the x (z) bit of qubit j in class i, the XOR of the
    generators selected by the bits of i; and the int with all 2^p bits
    set.  Each generator doubles every plane by one shift-XOR, as in the
    closure's doubling walk."""
    p = group.width
    xs, zs, n = [0] * p, [0] * p, 1
    for g in group.generators:
        fill = ((1 << n) - 1) << n
        for j in range(p):
            x, z = xs[j], zs[j]
            xs[j] = x | x << n ^ (fill if g.x >> j & 1 else 0)
            zs[j] = z | z << n ^ (fill if g.z >> j & 1 else 0)
        n *= 2
    return xs, zs, (1 << n) - 1


def _lightest(group: StabilizerGroup, labels: Sequence[int]) -> list[PauliOperator]:
    # Bit i of a coset's planes, and of the candidate set, stands for
    # member i: the solved member XOR closure class i.
    p = group.width
    xs, zs, full = _planes(group)
    out = []
    for label in labels:
        mx, mz = group._solve_member(label)
        # each member's weight, bit-sliced: count[k] holds bit k of it
        count: list[int] = []
        for j in range(p):
            x = xs[j] ^ full if mx >> j & 1 else xs[j]
            z = zs[j] ^ full if mz >> j & 1 else zs[j]
            carry = x | z
            for k, c in enumerate(count):
                count[k], carry = c ^ carry, c & carry
                if not carry:
                    break
            else:
                count.append(carry)
        # the least weight, read from the top bit down
        cand = full
        for c in reversed(count):
            if t := cand & ~c:
                cand = t
        # ties: the least letter string, qubit 0 first; I, X, Y, Z have
        # z bit 0, 0, 1, 1 and x ^ z bit 0, 1, 0, 1
        my = mx ^ mz
        for j in range(p):
            if not cand & cand - 1:
                break
            for plane, flip in ((zs[j], mz), (xs[j] ^ zs[j], my)):
                if t := cand & plane if flip >> j & 1 else cand & ~plane:
                    cand = t
        i = cand.bit_length() - 1
        for g in group.generators:
            if i & 1:
                mx ^= g.x
                mz ^= g.z
            i >>= 1
        out.append(PauliOperator.from_symplectic(mx, mz, p))
    return out


def coset_representative(group: StabilizerGroup, label: int) -> PauliOperator:
    """The minimum-weight member of the coset, ties broken by the
    lexicographically smallest letter string (I<X<Y<Z, qubit 0 first);
    label 0 gives the identity.  Only the winner is built as an
    operator."""
    return _lightest(group, [index(label)])[0]


@dataclass(frozen=True)
class QuantumCode:
    """A dimension-K code: a seed plus K codeword operators, one per
    chosen coset of the group, the first being the identity."""

    group: StabilizerGroup
    seed: SeedState
    codeword_ops: tuple[PauliOperator, ...]
    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        p = self.group.width
        if self.seed.width != p:
            raise ValueError("seed width does not match the group")
        if self.seed.origin == SEED_STABILIZER:
            self._check_closure_seed()
        k = len(self.codeword_ops)
        if k != len(self.labels):
            raise ValueError("codeword/label count mismatch")
        if not 1 <= k <= (1 << p):
            raise ValueError(f"dimension {k} out of range for width {p}")
        if self.labels[0] != 0 or not self.codeword_ops[0].is_identity:
            raise ValueError("the first codeword operator must be the identity")
        if len(set(self.labels)) != k:
            raise ValueError("codeword coset labels must be distinct")
        for op, lab in zip(self.codeword_ops, self.labels):
            if self.group.syndrome(op) != lab:
                raise ValueError(
                    f"operator {format_pauli(op)} is not in coset "
                    f"{format_label(lab, p)}"
                )

    def _check_closure_seed(self) -> None:
        """Refuse a ``stabilizer`` seed that fails one of two invariants
        of its group's closure seed: 2^rank(X parts) terms, and unit + at
        the base string.  O(p^2) plus a bisect of the ascending terms; a
        seed that passes may still hold other wrong terms or units."""
        seed, p = self.seed, self.group.width
        n = 1 << rank_f2(g.x for g in self.group.generators)
        if len(seed.terms) != n:
            raise ValueError(
                f"stabilizer seed: {len(seed.terms)} terms, but the "
                f"closure seed of its group has {n}"
            )
        i = bisect_left(seed.terms, seed.base, key=itemgetter(1))
        if i == n or seed.terms[i] != (0, seed.base):
            raise ValueError(
                "stabilizer seed has no + term at its base "
                f"{format_bits(seed.base, p)}, or its terms do not ascend"
            )

    @property
    def width(self) -> int:
        return self.group.width

    @property
    def dimension(self) -> int:
        return len(self.codeword_ops)

    def to_dict(self) -> dict:
        out = {
            "width": self.width,
            "cartanion": self.group.to_dict(),
            "seed": self.seed.term_tokens(),
            "codeword_spinors": [format_pauli(op) for op in self.codeword_ops],
            "labels": [format_label(lab, self.width) for lab in self.labels],
            "seed_origin": self.seed.origin,
        }
        if self.seed.base:  # only a nonzero base, so base-0 files stay as they were
            out["seed_base"] = format_bits(self.seed.base, self.width)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "QuantumCode":
        width = read_width(data)
        group = StabilizerGroup.from_dict(data["cartanion"])
        origin = data.get("seed_origin", SEED_EXPLICIT)
        seed = SeedState.from_tokens(data["seed"], width, data.get("seed_base"), origin)
        ops = tuple(parse_pauli(s, width) for s in data["codeword_spinors"])
        labels = tuple(parse_bits(s, width) for s in data["labels"])
        return cls(group=group, seed=seed, codeword_ops=ops, labels=labels)


def build_code(
    group: StabilizerGroup,
    labels: Sequence[int],
    seed: SeedState | None = None,
) -> QuantumCode:
    """Assemble a code from a group and K distinct coset labels (the first
    must be zero).

    The stored group keeps the caller's generators, so the given labels
    keep their meaning; sign normalization happens only on the internal
    copy that derives the seed state, which is a frame-independent
    object, and whose closure is walked once for the seed terms.  The
    bit-planes of the closure classes are built once; each requested
    coset is one solved member XOR those classes, and its min-weight/lex
    representative is picked on the planes, so only the K winners become
    operator objects.  An explicit ``seed`` (e.g. punctured) replaces the
    derived one.  Labels are read as ints (``operator.index``); the first
    label that occurs twice is refused.
    """
    labels = [*map(index, labels)]
    if not labels:
        raise ValueError("no coset labels given")
    if labels[0] != 0:
        raise ValueError("labels[0] must be the zero coset")
    counts = Counter(labels)
    if len(counts) != len(labels):
        dup = next(l for l in labels if counts[l] > 1)
        raise ValueError(
            f"duplicate coset label {format_label(dup, group.width)}"
        )
    if seed is None:
        seed = seed_state(group.normalized(0), 0)
    ops = tuple(_lightest(group, labels))
    return QuantumCode(group=group, seed=seed, codeword_ops=ops, labels=tuple(labels))
