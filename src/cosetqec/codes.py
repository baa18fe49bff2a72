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

Both the seed and the codeword operators come from the group's packed
closure walk (see :mod:`cosetqec.stabilizer`).  A coset is one solved
member XOR the closure classes, and its representative is the member of
least weight, ties broken by the letter string; both are compared on one
packed integer key per member, so only the chosen representatives are
ever built as operator objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .pauli import (
    PauliOperator,
    ParseError,
    format_bits,
    format_pauli,
    parse_bits,
    parse_pauli,
)
from .stabilizer import GroupError, StabilizerGroup, format_label, read_width

SEED_STABILIZER = "stabilizer"
SEED_PUNCTURED = "punctured"
SEED_EXPLICIT = "explicit"

_UNIT_TO_TOKEN = {0: "+", 1: "+i", 2: "-", 3: "-i"}
_TOKEN_TO_UNIT = {"+": 0, "+i": 1, "i": 1, "-": 2, "-i": 3}


@dataclass(frozen=True)
class SeedState:
    """A sparse signed superposition of basis strings.

    ``terms`` holds (unit, string) pairs where the coefficient of the
    basis string is i**unit; strings are distinct and at least one term
    is present.  ``base`` is the basis string the closure was applied to,
    a width-bit string like the terms.  ``origin`` records how the seed
    was made: derived from a group closure, punctured from such a seed,
    or supplied explicitly.
    """

    terms: tuple[tuple[int, int], ...]
    width: int
    base: int = 0
    origin: str = SEED_STABILIZER

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("seed state has no terms")
        if self.origin not in (SEED_STABILIZER, SEED_PUNCTURED, SEED_EXPLICIT):
            raise ValueError(f"unknown seed origin {self.origin!r}")
        mask = (1 << self.width) - 1
        if not 0 <= self.base <= mask:
            raise ValueError(f"seed base {self.base:#x} exceeds width {self.width}")
        seen = set()
        for unit, string in self.terms:
            if not 0 <= unit <= 3:
                raise ValueError(f"coefficient exponent {unit} out of range")
            if not 0 <= string <= mask:
                raise ValueError(f"basis string {string:#x} exceeds width {self.width}")
            if string in seen:
                raise ValueError(f"duplicate basis string {format_bits(string, self.width)}")
            seen.add(string)

    @property
    def strings(self) -> frozenset[int]:
        return frozenset(s for _, s in self.terms)

    def term_tokens(self) -> list[list[str]]:
        """JSON form: [[sign, bitstring], ...] with sign in + - +i -i."""
        return [
            [_UNIT_TO_TOKEN[unit], format_bits(string, self.width)]
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
        string (None for the all-zero string)."""
        terms = []
        for sign, bits in tokens:
            unit = _TOKEN_TO_UNIT.get(sign)
            if unit is None:
                raise ParseError(f"unknown seed coefficient {sign!r}")
            terms.append((unit, parse_bits(bits, width)))
        parsed_base = 0 if base is None else parse_bits(base, width)
        return cls(tuple(terms), width, parsed_base, origin)


def seed_state(group: StabilizerGroup, base: int = 0) -> SeedState:
    """Sum the group closure applied to |base>, symbolically.

    Element i^d X^x Z^z sends |base> to i^d (-1)^(z.base) |base^x|, so all
    elements sharing an X part land on one string; after sign
    normalization they agree, every coefficient has magnitude equal to
    the diagonal subgroup size, and only the unit i^k is kept.  The terms
    come from one pass over the packed closure walk
    (:attr:`StabilizerGroup.closure_packed`); no operator objects are
    built.  Refuses groups whose diagonal subgroup does not fix |base>
    with +1, since the character sum then cancels every coefficient to
    zero; that check runs over the whole walk before any coefficient is
    formed.
    """
    p = group.width
    phases, xs, zs = group.closure_packed
    for ph, x, z in zip(phases, xs, zs):
        # diagonal Hermitian elements have an even phase exponent
        if x == 0 and ((ph >> 1) + (z & base).bit_count()) & 1:
            raise GroupError(
                f"group is not sign-normalized for base "
                f"{format_bits(base, p)}: element "
                f"{format_pauli(PauliOperator(ph, x, z, p))} acts as -1 "
                "(the seed would cancel to zero); call normalized() first"
            )
    coeffs: dict[int, int] = {}
    for ph, x, z in zip(phases, xs, zs):
        unit = (ph + 2 * ((z & base).bit_count() & 1)) & 3
        if coeffs.setdefault(base ^ x, unit) != unit:
            raise GroupError("inconsistent seed coefficients; group signs are broken")
    terms = tuple(
        (unit, string) for string, unit in sorted(coeffs.items())
    )
    return SeedState(terms, p, base=base, origin=SEED_STABILIZER)


def punctured_seed(seed: SeedState, removed: Iterable[int | str]) -> SeedState:
    """Drop the given basis strings from a seed (to build the nonadditive
    code families); at least two strings must go and at least one term
    must survive."""
    remove: set[int] = set()
    for item in removed:
        if isinstance(item, str):
            item = parse_bits(item, seed.width)
        elif not 0 <= item < 1 << seed.width:
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
    return SeedState(kept, seed.width, base=seed.base, origin=SEED_PUNCTURED)


def _letter_key(x: int, z: int, p: int) -> int:
    # Packs (x, z) so that integer order is the order of the letter
    # string: qubit j fills bits 2(p-1-j)+1 (z_j) and 2(p-1-j) (x_j ^ z_j),
    # which codes I, X, Y, Z as 0, 1, 2, 3 with qubit 0 most significant.
    # The map is linear over GF(2).
    key = 0
    for j in range(p):
        key = (key << 2) | ((z >> j) & 1) << 1 | ((x ^ z) >> j) & 1
    return key


def _from_letter_key(key: int, p: int) -> tuple[int, int]:
    x = z = 0
    for j in range(p):
        pair = key >> (2 * (p - 1 - j))
        zj = (pair >> 1) & 1
        x |= ((pair ^ zj) & 1) << j
        z |= zj << j
    return x, z


def _class_keys(group: StabilizerGroup) -> list[int]:
    """Letter keys of the closure classes, by the closure's doubling walk
    (the key map is linear, so key(element i times generator t) is
    key(element i) XOR key(generator t))."""
    p = group.width
    keys = [0]
    for g in group.generators:
        kg = _letter_key(g.x, g.z, p)
        keys += [k ^ kg for k in keys]
    return keys


def _lightest(group: StabilizerGroup, keys: list[int], label: int) -> PauliOperator:
    # The coset is one solved member XOR the closure classes.  Each
    # member's weight counts its nonzero key pairs and sits above the
    # key, so one integer minimum orders by (weight, letter string).
    p = group.width
    rkey = _letter_key(*group._solve_member(label), p)
    shift = 2 * p
    pairs = int("01" * p, 2)
    best = min([
        (((v := k ^ rkey) | v >> 1) & pairs).bit_count() << shift | v
        for k in keys
    ])
    x, z = _from_letter_key(best & ((1 << shift) - 1), p)
    return PauliOperator.from_symplectic(x, z, p)


def coset_representative(group: StabilizerGroup, label: int) -> PauliOperator:
    """The minimum-weight member of the coset, ties broken by the
    lexicographically smallest letter string (I<X<Y<Z, qubit 0 first);
    label 0 gives the identity.  Only the winner is built as an
    operator."""
    return _lightest(group, _class_keys(group), label)


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
    letter keys of the closure classes are computed once; each requested
    coset is one solved member XOR those classes, and its min-weight/lex
    representative is picked on the packed keys, so only the K winners
    become operator objects.  An explicit ``seed`` (e.g. punctured)
    replaces the derived one.
    """
    if not labels:
        raise ValueError("no coset labels given")
    if labels[0] != 0:
        raise ValueError("labels[0] must be the zero coset")
    if len(set(labels)) != len(labels):
        dup = [l for l in labels if labels.count(l) > 1][0]
        raise ValueError(
            f"duplicate coset label {format_label(dup, group.width)}"
        )
    if seed is None:
        seed = seed_state(group.normalized(0), 0)
    keys = _class_keys(group)
    ops = tuple(_lightest(group, keys, lab) for lab in labels)
    return QuantumCode(group=group, seed=seed, codeword_ops=ops, labels=tuple(labels))
