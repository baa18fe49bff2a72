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

- The seed comes from the group's reduced echelon rows
  (:func:`_seed_form`), the quadratic form of Dehaene and De Moor
  (quant-ph/0304125) with the product rule of Aaronson and Gottesman
  (quant-ph/0406196).  Its 2^r strings are base XOR the span of the r
  non-diagonal rows' X parts, and with each row's pivot bit in that row
  only, doubling once per row in ascending pivot order lists them in
  ascending order.  Each doubling also adds the row's phase and a cross
  term, an XOR of index-bit planes, to the units, held as two 2^r-bit
  planes.  No sort runs and no Python loop runs per term.
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

Every :class:`QuantumCode` checks a ``stabilizer`` seed in full
against the closure seed of its group, derived again from the form, and
refuses it by its term count or at its first differing term, however
the code was made.  Only a seed derived from the code's own group skips
that comparison: the one :func:`build_code` derives when given none,
and a saved one whose strings joined by commas are the derived text
and whose signs are the derived units, which keeps the derived terms.
A saved seed is read back as whole lists, not term by term.  Any seed
that is not spelled exactly so is parsed: a chunk of bit strings is
checked on its joined text and parsed by one ``int(..., 2)`` into
fixed-width lanes, and a seed's terms are proved valid by one pass when
their strings ascend, as every saved seed's do.  Only input that fails
those checks takes the per-term path, which names the first bad term.
The seeds that :func:`seed_state` and :func:`punctured_seed` build are
valid by construction and skip :class:`SeedState`'s checks.  The JSON
form is written as whole lists too: the strings are packed into lanes
and formatted as one text.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from operator import index, itemgetter, lt
from typing import Iterable, NamedTuple, Sequence

from ._kernels import unpack_lanes
from .pauli import (
    MAX_WIDTH,
    PauliOperator,
    ParseError,
    format_bits,
    format_pauli,
    parse_bits,
    parse_pauli,
)
from .stabilizer import (
    GroupError,
    StabilizerGroup,
    format_label,
    read_key,
    read_list,
    read_width,
)

SEED_STABILIZER = "stabilizer"
SEED_PUNCTURED = "punctured"
SEED_EXPLICIT = "explicit"

_UNIT_TOKENS = ("+", "+i", "-", "-i")
_TOKEN_TO_UNIT = {"+": 0, "+i": 1, "i": 1, "-": 2, "-i": 3}
# tokens per whole-list parse, so that its texts stay small at any seed size
_CHUNK = 4096
# the bytes "0"/"1" of a low unit plane plus twice those of a high one
_SUM_TO_UNIT = bytes.maketrans(bytes(range(0x90, 0x94)), bytes(range(4)))


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
        """JSON form: [[sign, bitstring], ...] with sign in + - +i -i.
        The strings are packed into lanes and formatted as one text, which
        is cut into the tokens' bit strings."""
        units, strings = zip(*self.terms)
        p, n = self.width, len(strings)
        lane, typecode = _lanes_of(p)
        words = array(typecode, strings)
        if sys.byteorder == "big":
            words.byteswap()
        # bit j of lane i is character i * lane + j; a sentinel bit above
        # the top lane keeps the leading zeros
        text = format(int.from_bytes(words, "little") | 1 << lane * n, "b")[:0:-1]
        return [
            [_UNIT_TOKENS[unit], text[at : at + p]]
            for unit, at in zip(units, range(0, lane * n, lane))
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
    lane, typecode = _lanes_of(width)
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


def _lanes_of(width: int) -> tuple[int, str]:
    """The lane (16 or 32 bits) and ``array`` typecode that hold one
    width-bit string."""
    return (16, "H") if width <= 16 else (32, "I")


def _spread(plane: int, n: int) -> int:
    """The int whose byte i is the character "0" or "1" of bit i of the
    n-bit ``plane``, with a "1" above them at byte n."""
    return int.from_bytes(format(plane | 1 << n, "b").encode(), "big")


def _acts_as_minus(phase: int, z: int, base: int) -> int:
    """1 when the diagonal operator i^phase Z^z acts as -1 on |base>."""
    return (phase >> 1 ^ (z & base).bit_count()) & 1


class _Form(NamedTuple):
    """A closure seed from :func:`_seed_form`: term k has unit
    ``units[k]`` and string ``low`` XOR the ``xs`` at the bits of k, and
    the strings ascend with k."""

    units: bytes
    low: int
    xs: list[int]


def _seed_form(group: StabilizerGroup, base: int, normalize: bool) -> _Form:
    """The closure seed of ``group`` at ``base``, its terms ascending by
    string.  With ``normalize`` the seed is that of
    ``group.normalized(base)``, without building that group.

    The generators are eliminated to rows i^a X^x Z^z with distinct
    leading bits of x, keeping each product's true phase.  The diagonal
    rows must act as +1 on |base>; only when one does not is the closure
    walked, to name the first element that acts as -1.  The r
    non-diagonal rows, reduced so that each pivot bit lies in its own row
    only, give the strings low ^ x_k in ascending order of k, where x_k
    is the XOR of the rows at the bits of k and low is base with its
    pivot bits cleared.  The element e_k, the product of those rows,
    sends |low> to i^u(k) |low ^ x_k>, and each row doubles u by the
    product rule: u(k + 2^j) = u(k) + a_j + 2 (z_j . low) + 2 (z_k . x_j),
    whose last term is an XOR of index-bit planes.  The units are held as
    two 2^r-bit planes, and all are shifted so that the term at ``base``
    has unit 0, as the walked sum gives it.
    """
    p = group.width
    # leading-bit elimination on the X parts, as normalized() runs it
    rows: list[tuple[int, int, int]] = []
    pivots: dict[int, int] = {}
    for g in group.generators:
        a, x, z = g.phase, g.x, g.z
        while x:
            hb = x.bit_length() - 1
            if hb not in pivots:
                pivots[hb] = len(rows)
                break
            b, rx, rz = rows[pivots[hb]]
            a, x, z = (a + b + 2 * (rz & x).bit_count()) & 3, x ^ rx, z ^ rz
        rows.append((a, x, z))
    if normalize:  # the generators of normalized(base)
        rows = [
            ((x & z).bit_count() & 3 if x else 2 * ((z & base).bit_count() & 1), x, z)
            for _, x, z in rows
        ]
    if any(_acts_as_minus(a, z, base) for a, x, z in rows if not x):
        elem = next(
            e for e in group.closure() if not e.x and _acts_as_minus(e.phase, e.z, base)
        )
        raise GroupError(
            f"group is not sign-normalized for base "
            f"{format_bits(base, p)}: element "
            f"{format_pauli(elem)} acts as -1 "
            "(the seed would cancel to zero); call normalized() first"
        )
    # reduced echelon: each pivot bit in its own row only
    echelon = sorted((row for row in rows if row[1]), key=itemgetter(1))
    for j, (a, x, z) in enumerate(echelon):
        top = 1 << x.bit_length() - 1
        for k in range(j + 1, len(echelon)):
            b, kx, kz = echelon[k]
            if kx & top:
                echelon[k] = ((b + a + 2 * (kz & x).bit_count()) & 3, kx ^ x, kz ^ z)
    # low = base ^ x_c0; e_c0 sends |low> to i^u |base>, so units shift by -u
    low, phase, zc = base, 0, 0
    for a, x, z in echelon:
        if low >> x.bit_length() - 1 & 1:
            low ^= x
            phase += a + 2 * (zc & x).bit_count()
            zc ^= z
    shift = -(phase + 2 * (zc & low).bit_count()) & 3
    lo, hi, n = shift & 1, shift >> 1, 1
    index: list[int] = []  # index[l]: bit l of k, over k < n
    for j, (a, x, z) in enumerate(echelon):
        full = (1 << n) - 1
        c = a + 2 * (z & low).bit_count()
        cross = 0
        for l, (_, _, lz) in enumerate(echelon[:j]):
            if (lz & x).bit_count() & 1:
                cross ^= index[l]
        # add c + 2 cross: the low plane's carry goes to the high plane
        hi |= (hi ^ cross ^ (lo if c & 1 else 0) ^ (full if c & 2 else 0)) << n
        lo |= (lo ^ full if c & 1 else lo) << n
        index = [v | v << n for v in index] + [full << n]
        n *= 2
    # "0"/"1" bytes summed as lo + 2 hi are 0x90 + unit; the top byte is a sentinel
    units = (_spread(lo, n) + 2 * _spread(hi, n)).to_bytes(n + 1, "little")
    return _Form(units[:n].translate(_SUM_TO_UNIT), low, [x for _, x, _ in echelon])


def _double(value: int, xs: Sequence[int], lane: int) -> int:
    """``value`` in lane 0 of an int of ``lane``-bit lanes, doubled once
    per x: lane k + 2^j is lane k XOR x_j, for every k < 2^j."""
    ones, span = 1, lane
    for x in xs:
        value |= (value ^ x * ones) << span
        ones |= ones << span
        span *= 2
    return value


def _terms(form: _Form, width: int) -> tuple[tuple[int, int], ...]:
    """The (unit, string) pairs of a form's terms, the strings doubled in
    16- or 32-bit lanes."""
    lane, typecode = _lanes_of(width)
    lanes = _double(form.low, form.xs, lane)
    strings = unpack_lanes(lanes, len(form.units), typecode).tolist()
    # a list first: tuple() of an iterator resizes as it grows
    return tuple([*zip(form.units, strings)])


def _text(form: _Form, width: int) -> str:
    """The bit strings of a form's terms as one text, each followed by a
    comma: doubled as characters, one byte lane of width + 1 per term,
    where XOR with a 1 byte turns "0" into "1" and back."""
    def chars(s: int) -> int:
        return int.from_bytes(format_bits(s, width).encode(), "little")

    digits = int.from_bytes(b"\1" * width, "little")
    lanes = _double(
        chars(form.low) | ord(",") << 8 * width,
        [chars(x) & digits for x in form.xs],
        8 * (width + 1),
    )
    return lanes.to_bytes(len(form.units) * (width + 1), "little").decode()


def _closure_seed(group: StabilizerGroup, base: int, normalize: bool) -> SeedState:
    terms = _terms(_seed_form(group, base, normalize), group.width)
    return SeedState._make(terms, group.width, base, SEED_STABILIZER)


def _spelled(tokens: Sequence, width: int, form: _Form) -> bool:
    """True when the (sign, bit string) tokens spell a form's terms
    exactly, checked as whole lists: the strings joined by commas must be
    :func:`_text`, and the signs' units must be the form's.  Any token
    that is no such pair gives False."""
    try:
        signs, strings = zip(*tokens, strict=True)
        return (
            len(strings) == len(form.units)
            and ",".join(strings) + "," == _text(form, width)
            and bytes(map(_TOKEN_TO_UNIT.get, signs)) == form.units
        )
    except (TypeError, ValueError):
        return False


def seed_state(group: StabilizerGroup, base: int = 0) -> SeedState:
    """Sum the group closure applied to |base>, symbolically.

    Element i^d X^x Z^z sends |base> to i^d (-1)^(z.base) |base^x|, so all
    elements sharing an X part land on one string; after sign
    normalization they agree, every coefficient has magnitude equal to
    the diagonal subgroup size, and only the unit i^k is kept.  The terms
    come from the group's reduced echelon rows (:func:`_seed_form`): no
    Python loop runs per term and no operator object is built.  Refuses
    a base outside [0, 2^p), and groups whose diagonal subgroup does not
    fix |base> with +1, since the character sum then cancels every
    coefficient to zero; the refusal names the first closure element, in
    the order of :meth:`StabilizerGroup.closure`, that acts as -1.
    """
    p = group.width
    base = index(base)
    if not 0 <= base < 1 << p:
        raise ValueError(f"seed base {base:#x} exceeds width {p}")
    return _closure_seed(group, base, normalize=False)


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
        self._check_fields()
        if self.seed.origin == SEED_STABILIZER:
            self._check_closure_seed()

    @classmethod
    def _make(
        cls,
        group: StabilizerGroup,
        seed: SeedState,
        codeword_ops: tuple[PauliOperator, ...],
        labels: tuple[int, ...],
    ) -> "QuantumCode":
        """A code whose seed the caller derived from ``group`` itself,
        written straight into the instance dict: every check of
        ``__post_init__`` runs but the seed's.  :func:`build_code` without
        a seed, and :meth:`from_dict` on tokens that spell the derived
        seed, build only such codes."""
        code = object.__new__(cls)
        code.__dict__.update(
            group=group, seed=seed, codeword_ops=codeword_ops, labels=labels
        )
        code._check_fields()
        return code

    def _check_fields(self) -> None:
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

    def _check_closure_seed(self) -> None:
        """Refuse a ``stabilizer`` seed that is not the closure seed of
        ``group.normalized(seed.base)``, derived again from the group's
        echelon rows (:func:`_seed_form`), by its term count or at the
        first term that differs."""
        seed, p = self.seed, self.group.width
        form = _seed_form(self.group, seed.base, normalize=True)
        if len(seed.terms) != len(form.units):
            raise ValueError(
                f"stabilizer seed: {len(seed.terms)} terms, but the "
                f"closure seed of its group has {len(form.units)}"
            )
        derived = _terms(form, p)
        if seed.terms == derived:
            return
        i = next(i for i, (t, d) in enumerate(zip(seed.terms, derived)) if t != d)
        (unit, string), (want_unit, want_string) = seed.terms[i], derived[i]
        if string == want_string:
            term = f"term {i} ({format_bits(string, p)})"
            seen, want = _UNIT_TOKENS[unit], _UNIT_TOKENS[want_unit]
        else:
            term = f"term {i}"
            seen, want = format_bits(string, p), format_bits(want_string, p)
        raise ValueError(
            f"stabilizer seed {term} is {seen}, {want} in the closure seed of its group"
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
        """A code from its JSON form.  Tokens of a ``stabilizer`` seed that
        spell the closure seed of its group exactly, derived from the
        group's echelon rows (:func:`_seed_form`) for the file's base, are
        not parsed, and the derived terms are kept.  Other tokens, and any
        file whose width is not its group's, take the parse of
        :meth:`SeedState.from_tokens` and every check of the code's
        construction, which compares a ``stabilizer`` seed with the
        derived one in full."""
        width = read_width(data)
        group = StabilizerGroup.from_dict(read_key(data, "cartanion"))
        origin = data.get("seed_origin", SEED_EXPLICIT)
        tokens = read_list(data, "seed")
        base_text = data.get("seed_base")
        seed = None
        if origin == SEED_STABILIZER and width == group.width:
            try:
                base = 0 if base_text is None else parse_bits(base_text, width)
            except ParseError:
                pass  # the parse below names the bad base, after the terms
            else:
                form = _seed_form(group, base, normalize=True)
                if _spelled(tokens, width, form):
                    seed = SeedState._make(_terms(form, width), width, base, origin)
        make = cls._make
        if seed is None:
            make, seed = cls, SeedState.from_tokens(tokens, width, base_text, origin)
        ops = tuple(parse_pauli(s, width) for s in read_list(data, "codeword_spinors"))
        labels = tuple(parse_bits(s, width) for s in read_list(data, "labels"))
        return make(group, seed, ops, labels)


def build_code(
    group: StabilizerGroup,
    labels: Sequence[int],
    seed: SeedState | None = None,
) -> QuantumCode:
    """Assemble a code from a group and K distinct coset labels (the first
    must be zero).

    The stored group keeps the caller's generators, so the given labels
    keep their meaning; the seed is that of ``group.normalized(0)``,
    derived once from the echelon form, which signs the rows as
    normalization would without building the normalized group.  The
    bit-planes of the closure classes are built once; each requested
    coset is one solved member XOR those classes, and its min-weight/lex
    representative is picked on the planes, so only the K winners become
    operator objects.  An explicit ``seed`` (e.g. punctured) replaces the
    derived one; a ``stabilizer`` one must be the closure seed of
    ``group.normalized(seed.base)``, as in every code.  Labels are read
    as ints (``operator.index``); the first label that occurs twice is
    refused.
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
    ops = tuple(_lightest(group, labels))
    if seed is None:
        seed = _closure_seed(group, 0, normalize=True)
        return QuantumCode._make(group, seed, ops, tuple(labels))
    return QuantumCode(group, seed, ops, tuple(labels))
