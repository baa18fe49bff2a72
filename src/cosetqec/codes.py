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

- The seed comes from the group's X-part rows
  (:meth:`StabilizerGroup._x_rows`), the rows that
  :meth:`StabilizerGroup.normalized` builds its generators from, reduced
  to echelon form (:func:`_seed_form`): the quadratic form of Dehaene
  and De Moor (quant-ph/0304125) with the product rule of Aaronson and
  Gottesman (quant-ph/0406196).  Its 2^r strings are base XOR the span
  of the r non-diagonal rows' X parts, and with each row's pivot bit in
  that row only, doubling once per row in ascending pivot order lists
  them in ascending order.  Each doubling also adds the row's phase and a cross
  term, an XOR of index-bit planes, to the units, held as two 2^r-bit
  planes.  No sort runs and no Python loop runs per term.
- A coset is one solved member XOR the closure classes, and its
  representative is the member of least weight, ties broken by the
  letter string.  The classes are held as 2p bit-planes of 2^p bits
  (:meth:`StabilizerGroup._planes`), one x-plane and one z-plane per
  qubit, with bit i for class i; a coset's planes are these,
  complemented where the solved member has a bit.  A bit-sliced counter
  of at most 5 planes sums the p occupancy planes (x | z) into every
  member's weight at once, and a candidate set is cut down to the least
  weight, then by the z- and x ^ z-planes qubit by qubit, until one
  member is left.  Each label costs O(p) whole plane operations, and
  only the winner is built as an operator object.

Every seed that :func:`seed_state`, :func:`build_code`,
:meth:`QuantumCode.from_dict` or :func:`punctured_seed` derives holds
its echelon form, its base and a frozenset of the term indices cut from
it, empty for a ``stabilizer`` seed.  Its ``(unit, string)`` terms are
built only when repr, pickling, :attr:`SeedState.strings`, the dense
oracle or equality with a seed that holds another form or none read
them; no step of building, puncturing, saving, loading, classifying,
the verdict, the syndrome table or diagnosis does.  The pivot bits of a
string name the only term that can hold it (:func:`_index`).  The JSON
form is read from the form one text of _CHUNK strings at a time, and
:meth:`QuantumCode.dump` writes each chunk's rows as it goes.

Every :class:`QuantumCode` checks a ``stabilizer`` seed against the
closure seed of its group, however the code was made.  That seed is
derived in one place, :func:`_closure_form`, which keeps each base's
form on the group, as the group keeps its syndrome map, so a code built
or loaded derives it once and its check reads the kept form.  The
reduced echelon form is unique, so a held form equal to the derived one
passes at once; any other seed is refused by its term count or at its
first differing term.  A saved seed has two load paths: a
``stabilizer`` seed whose strings joined by commas are the derived text
and whose signs are the derived units keeps the derived form, and any
other seed is parsed and checked term by term, naming the first bad
term.
"""

from __future__ import annotations

import json
import weakref
from dataclasses import dataclass
from functools import update_wrapper
from itertools import chain, compress, islice
from operator import index, itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TextIO

from ._kernels import unpack_lanes
from .pauli import (
    MAX_WIDTH,
    ErrorSet,
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
    _read_base,
    format_label,
    read_list,
    read_object,
    read_width,
)

SEED_STABILIZER = "stabilizer"
SEED_PUNCTURED = "punctured"
SEED_EXPLICIT = "explicit"

_UNIT_TOKENS = ("+", "+i", "-", "-i")
_TOKEN_TO_UNIT = {"+": 0, "+i": 1, "i": 1, "-": 2, "-i": 3}
_PAIRS = {list, tuple}  # a seed token's types: JSON's list, an API caller's tuple
# terms per text of a derived seed and per chunk of written rows, kept small
_CHUNK = 4096
# the bytes "0"/"1" of a low unit plane plus twice those of a high one
_SUM_TO_UNIT = bytes.maketrans(bytes(range(0x90, 0x94)), bytes(range(4)))


@dataclass(frozen=True)
class SeedState:
    """A sparse signed superposition of basis strings.

    ``terms`` holds (unit, string) pairs of ints where the coefficient of
    the basis string is i**unit; strings are distinct and at least one
    term is present.  The terms are stored as a tuple of int pairs,
    whether given as a list, as pairs that are lists or as other integer
    types, and ``width`` (0..24) and ``base``, the basis string the closure
    was applied to, a width-bit string like the terms, as ints.
    ``origin`` records how the seed was made: derived from a group
    closure, punctured from such a seed, or supplied explicitly (the
    default).

    A seed that :func:`seed_state`, :func:`build_code`,
    :meth:`QuantumCode.from_dict` or :func:`punctured_seed` derives
    holds its echelon form (:func:`_seed_form`) and the indices of its
    cut terms, and builds ``terms`` on first read: repr, pickling,
    :attr:`strings`, the dense oracle and equality with a seed that holds
    no form read them, and ``len`` and the rest of the pipeline read the
    form.  Two seeds that hold equal forms are equal when their cut
    indices and fields are, with no terms built.  The hash reads the
    fields and the term count only.  Such a seed equals, hashes and
    pickles as the seed built from its terms.
    """

    terms: tuple[tuple[int, int], ...]
    width: int
    base: int = 0
    origin: str = SEED_EXPLICIT

    def __post_init__(self) -> None:
        terms = tuple(self.terms)
        if not terms:
            raise ValueError("seed state has no terms")
        if self.origin not in (SEED_STABILIZER, SEED_PUNCTURED, SEED_EXPLICIT):
            raise ValueError(f"unknown seed origin {self.origin!r}")
        if not 0 <= (width := index(self.width)) <= MAX_WIDTH:
            raise ValueError(f"seed width must be in 0..{MAX_WIDTH}, got {width}")
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "base", _read_base(self.base, width))
        mask = (1 << width) - 1
        seen = set()
        pairs = []
        for unit, string in terms:
            try:
                u, s = index(unit), index(string)
            except TypeError:
                raise TypeError(f"seed term {(unit, string)!r} is not two ints") from None
            if not 0 <= u <= 3:
                raise ValueError(f"coefficient exponent {u} out of range")
            if not 0 <= s <= mask:
                raise ValueError(f"basis string {s:#x} exceeds width {width}")
            if s in seen:
                raise ValueError(f"duplicate basis string {format_bits(s, width)}")
            seen.add(s)
            pairs.append((u, s))
        object.__setattr__(self, "terms", tuple(pairs))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        # with equal forms the cut indices name the kept terms
        form = self.__dict__.get("_form")
        held = form is not None and form == other.__dict__.get("_form")
        fields = ("width", "base", "origin", "_removed" if held else "terms")
        return all(getattr(self, f) == getattr(other, f) for f in fields)

    def __hash__(self) -> int:
        return hash((self.width, self.base, self.origin, len(self)))

    @classmethod
    def _from_form(
        cls, form: "_Form", width: int, base: int, removed: frozenset[int] = frozenset()
    ) -> "SeedState":
        """The seed of a form with the terms at the indices ``removed``
        cut, written into the instance dict without ``__post_init__``'s
        checks and with its terms not yet built: every seed the package
        derives from a form is such a seed."""
        seed = object.__new__(cls)
        seed.__dict__.update(_form=form, _removed=removed, width=width, base=base)
        seed.__dict__["origin"] = SEED_PUNCTURED if removed else SEED_STABILIZER
        return seed

    def __getattr__(self, name: str):
        # runs only for a name missing from the instance: the terms of a
        # seed made by _from_form, built once on first read
        form = self.__dict__.get("_form") if name == "terms" else None
        if form is None:
            raise AttributeError(f"'SeedState' object has no attribute {name!r}")
        terms = _terms(form, self.width)
        if removed := self._removed:
            terms = tuple([t for k, t in enumerate(terms) if k not in removed])
        self.__dict__["terms"] = terms
        return terms

    def __len__(self) -> int:
        form = self.__dict__.get("_form")
        return len(self.terms) if form is None else len(form.units) - len(self._removed)

    def __getstate__(self) -> dict:
        # the fields alone, terms built, so a pickle holds no form
        return {f: getattr(self, f) for f in ("terms", "width", "base", "origin")}

    @property
    def strings(self) -> frozenset[int]:
        return frozenset(s for _, s in self.terms)

    def _term_texts(self) -> Iterator[tuple[int, str]]:
        """The unit and bit string of each term in order, from the form's
        units and :func:`_texts` when the seed holds one, cut terms skipped."""
        form = self.__dict__.get("_form")
        if form is None:
            return ((u, format_bits(s, self.width)) for u, s in self.terms)
        # each text ends in a comma, cut before the split
        strings = chain.from_iterable(t[:-1].split(",") for t in _texts(form, self.width))
        pairs = zip(form.units, strings)
        if removed := self._removed:
            kept = bytearray(b"\1") * len(form.units)
            for k in removed:
                kept[k] = 0
            pairs = compress(pairs, kept)
        return pairs

    def term_tokens(self) -> list[list[str]]:
        """JSON form: [[sign, bitstring], ...] with sign in + - +i -i."""
        return [[_UNIT_TOKENS[u], s] for u, s in self._term_texts()]

    @classmethod
    def from_tokens(
        cls,
        tokens: Iterable[Sequence[str]],
        width: int,
        base: str | None = None,
        origin: str = SEED_EXPLICIT,
    ) -> "SeedState":
        """Parse the JSON form: the term tokens, each a two-item list or
        tuple read with :func:`parse_bits` in turn, naming the first bad
        one; then ``base`` as a bit string (None for all zeros)."""
        terms = []
        for k, token in enumerate(tokens):
            if type(token) not in _PAIRS or len(token) != 2:
                raise ParseError(f"seed term {k} is not a [sign, bits] pair: {token!r}")
            sign, bits = token
            unit = _TOKEN_TO_UNIT.get(sign)
            if unit is None:
                raise ParseError(f"unknown seed coefficient {sign!r}")
            terms.append((unit, parse_bits(bits, width)))
        parsed_base = 0 if base is None else parse_bits(base, width)
        return cls(tuple(terms), width, parsed_base, origin)


def _spread(plane: int, n: int) -> int:
    """The int whose byte i is the character "0" or "1" of bit i of the
    n-bit ``plane``, with a "1" above them at byte n."""
    return int.from_bytes(format(plane | 1 << n, "b").encode(), "big")


class _Form(NamedTuple):
    """A closure seed from :func:`_seed_form`: term k has unit
    ``units[k]`` and string ``low`` XOR the ``xs`` at the bits of k, and
    the strings ascend with k."""

    units: bytes
    low: int
    xs: list[int]


def _seed_form(rows: list[tuple[int, int, int]], width: int, base: int) -> _Form:
    """The closure seed at ``base`` of the group whose X-part rows
    (:meth:`StabilizerGroup._x_rows`) are ``rows``, its terms ascending by
    string.  The rows of ``group._x_rows(base)`` give the seed of
    ``group.normalized(base)`` without building that group.

    The rows are i^a X^x Z^z with distinct leading bits of x, each with
    its product's true phase.  The diagonal rows must act as +1 on
    |base>; the first that does not is the first closure element that
    acts as -1, and the refusal names it.  (Row t is generator t times
    non-diagonal generators before it.  So a diagonal element is a
    product of diagonal rows, its top generator index that of its last
    row; the sign on |base> is linear, so an element that acts as -1 has
    a row that does, and the least such element is the first such row
    alone: any earlier diagonal row it took would set that row's own
    index bit.)  The r non-diagonal rows, reduced so that each pivot bit
    lies in its own row only, give the strings low ^ x_k in ascending
    order of k, where x_k is the XOR of the rows at the bits of k and low
    is base with its pivot bits cleared.  The element e_k, the product of
    those rows, sends |low> to i^u(k) |low ^ x_k>, and each row doubles u
    by the product rule:
    u(k + 2^j) = u(k) + a_j + 2 (z_j . low) + 2 (z_k . x_j), whose last term is an XOR of index-bit planes.  The units are held as
    two 2^r-bit planes, and all are shifted so that the term at ``base``
    has unit 0, as the walked sum gives it.
    """
    for a, x, z in rows:
        if not x and (a >> 1 ^ (z & base).bit_count()) & 1:  # i^a Z^z is -1 on |base>
            raise GroupError(
                f"group is not sign-normalized for base "
                f"{format_bits(base, width)}: element "
                f"{format_pauli(PauliOperator(a, 0, z, width))} acts as -1 "
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
    lane, typecode = (16, "H") if width <= 16 else (32, "I")
    lanes = _double(form.low, form.xs, lane)
    strings = unpack_lanes(lanes, len(form.units), typecode).tolist()
    # a list first: tuple() of an iterator resizes as it grows
    return tuple([*zip(form.units, strings)])


def _texts(form: _Form, width: int) -> Iterator[str]:
    """The bit strings of a form's terms, each followed by a comma, as
    one text per _CHUNK terms: doubled as characters, one byte lane of
    width + 1 per term, where XOR with a 1 byte turns "0" into "1" and
    back.  The rows past a chunk's own doublings move its low string."""
    def chars(s: int) -> int:
        return int.from_bytes(format_bits(s, width).encode(), "little")

    digits = int.from_bytes(b"\1" * width, "little")
    rows = _CHUNK.bit_length() - 1
    head = [chars(x) & digits for x in form.xs[:rows]]
    outer = form.xs[rows:]
    size = (1 << len(head)) * (width + 1)
    for c in range(1 << len(outer)):
        low = form.low
        for j, x in enumerate(outer):
            if c >> j & 1:
                low ^= x
        lanes = _double(chars(low) | ord(",") << 8 * width, head, 8 * (width + 1))
        yield lanes.to_bytes(size, "little").decode()


def _spelled(tokens: Sequence, width: int, form: _Form) -> bool:
    """True when the (sign, bit string) tokens spell a form's terms
    exactly, checked as whole lists _CHUNK tokens at a time: a chunk's
    strings joined by commas must be its text from :func:`_texts`, and
    its signs' units must be the form's.  Any token that is no such pair
    gives False."""
    if len(tokens) != len(form.units):
        return False
    try:
        for lo, text in zip(range(0, len(tokens), _CHUNK), _texts(form, width)):
            chunk = tokens[lo : lo + _CHUNK]
            signs, strings = zip(*chunk, strict=True)
            if (
                not {*map(type, chunk)} <= _PAIRS
                or ",".join(strings) + "," != text
                or bytes(map(_TOKEN_TO_UNIT.get, signs)) != form.units[lo : lo + _CHUNK]
            ):
                return False
    except (TypeError, ValueError):
        return False
    return True


def _closure_form(group: StabilizerGroup, base: int) -> _Form:
    """The closure seed at ``base`` of ``group.normalized(base)``
    (:func:`_seed_form`), derived from the group's rows signed for that
    base on first use and then kept on the group, one form per base; a
    pickled group holds none (:meth:`StabilizerGroup.__getstate__`)."""
    forms = group.__dict__.setdefault("_closure_forms", {})
    form = forms.get(base)
    if form is None:
        form = forms[base] = _seed_form(group._x_rows(base), group.width, base)
    return form


def seed_state(group: StabilizerGroup, base: int = 0) -> SeedState:
    """Sum the group closure applied to |base>, symbolically.

    Element i^d X^x Z^z sends |base> to i^d (-1)^(z.base) |base^x|, so all
    elements sharing an X part land on one string; after sign
    normalization they agree, every coefficient has magnitude equal to
    the diagonal subgroup size, and only the unit i^k is kept.  The terms
    come from the group's reduced echelon rows (:func:`_seed_form`): no
    Python loop runs per term and no operator object is built.  Refuses
    a base outside [0, 2^p) (:func:`cosetqec.stabilizer._read_base`), and
    groups whose diagonal subgroup does not fix |base> with +1, since the
    character sum then cancels every coefficient to zero; the refusal
    names the first closure element, in the order of
    :meth:`StabilizerGroup.closure`, that acts as -1.
    """
    p = group.width
    base = _read_base(base, p)
    return SeedState._from_form(_seed_form(group._x_rows(), p, base), p, base)


def _index(form: _Form, string: int) -> int | None:
    """The index k of the form's term at ``string``, or None when no term
    is there: low has no pivot bit and each pivot bit lies in its own
    row only, so bit j of k is the pivot bit of row j in the string."""
    k, x = 0, form.low
    for j, row in enumerate(form.xs):
        if string >> row.bit_length() - 1 & 1:
            k |= 1 << j
            x ^= row
    return k if x == string else None


def punctured_seed(seed: SeedState, removed: Iterable[int | str]) -> SeedState:
    """Drop the given basis strings from a seed (to build the nonadditive
    code families); at least two strings must go and at least one term
    must survive.  A seed that holds its form gives that form with more
    terms cut, each found by :func:`_index`.  A bare str is refused: it
    would otherwise be read as a list of its characters."""
    if isinstance(removed, str):
        raise TypeError("removed must be an iterable of basis strings, got a str")
    remove: set[int] = set()
    for item in removed:
        if isinstance(item, str):
            item = parse_bits(item, seed.width)
        elif not 0 <= (item := index(item)) < 1 << seed.width:
            raise ValueError(f"basis string {item} outside [0, 2^{seed.width})")
        remove.add(item)
    form = seed.__dict__.get("_form")
    if form is None:
        missing = remove - seed.strings
    else:
        at = {s: _index(form, s) for s in remove}
        missing = {s for s, k in at.items() if k is None or k in seed._removed}
    if missing:
        shown = ", ".join(format_bits(s, seed.width) for s in sorted(missing))
        raise ValueError(f"cannot remove absent strings: {shown}")
    if len(remove) < 2:
        raise ValueError("puncturing must remove more than one string")
    if len(remove) == len(seed):
        raise ValueError("puncturing removed every term")
    if form is None:
        kept = tuple(t for t in seed.terms if t[1] not in remove)
        return SeedState(kept, seed.width, seed.base, SEED_PUNCTURED)
    cut = seed._removed.union(at.values())
    return SeedState._from_form(form, seed.width, seed.base, cut)


def _lightest(group: StabilizerGroup, labels: Sequence[int]) -> list[PauliOperator]:
    # Bit i of a coset's planes, and of the candidate set, stands for
    # member i: the solved member XOR closure class i.
    p = group.width
    xs, zs, full = group._planes()
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
    chosen coset of the group, the first being the identity.  Operators
    and labels given as lists are stored as tuples, labels as ints
    (``operator.index``).  ``__post_init__`` owns every check of a code,
    the labels' and a ``stabilizer`` seed's comparison with its group's
    closure seed included, however the code is made; a label outside
    [0, 2^p) is refused before any is compared with its operator."""

    group: StabilizerGroup
    seed: SeedState
    codeword_ops: tuple[PauliOperator, ...]
    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        labels = self.labels
        if type(labels) is not tuple or {*map(type, labels)} - {int}:
            labels = tuple(map(index, labels))
            object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "codeword_ops", tuple(self.codeword_ops))
        p = self.group.width
        if not labels:
            raise ValueError("no coset labels given")
        if min(labels) < 0 or max(labels) >= 1 << p:
            bad = next(lab for lab in labels if not 0 <= lab < 1 << p)
            raise ValueError(f"label {bad} out of range for width {p}")
        if labels[0] != 0:
            raise ValueError("labels[0] must be the zero coset")
        if len(set(labels)) != len(labels):
            last = {lab: i for i, lab in enumerate(labels)}
            dup = next(lab for i, lab in enumerate(labels) if last[lab] != i)
            raise ValueError(f"duplicate coset label {format_label(dup, p)}")
        if self.seed.width != p:
            raise ValueError("seed width does not match the group")
        if len(self.codeword_ops) != len(labels):
            raise ValueError("codeword/label count mismatch")
        if not self.codeword_ops[0].is_identity:
            raise ValueError("the first codeword operator must be the identity")
        for op, lab in zip(self.codeword_ops, labels):
            if self.group.syndrome(op) != lab:
                raise ValueError(
                    f"operator {format_pauli(op)} is not in coset "
                    f"{format_label(lab, p)}"
                )
        if self.seed.origin == SEED_STABILIZER:
            self._check_closure_seed()

    def _check_closure_seed(self) -> None:
        """Refuse a ``stabilizer`` seed that is not the closure seed of
        ``group.normalized(seed.base)``, the form that
        :func:`_closure_form` keeps on the group: first by its term count,
        with no terms built, then by equality with the derived seed, which
        compares two held forms without terms, at once when the seed holds
        the kept form itself.  The refusal names the first differing
        term."""
        seed, p = self.seed, self.group.width
        form = _closure_form(self.group, seed.base)
        if len(seed) != len(form.units):
            raise ValueError(
                f"stabilizer seed: {len(seed)} terms, but the "
                f"closure seed of its group has {len(form.units)}"
            )
        derived = SeedState._from_form(form, p, seed.base)
        if seed == derived:
            return
        terms, wanted = seed.terms, derived.terms
        i = next(i for i, (t, d) in enumerate(zip(terms, wanted)) if t != d)
        (unit, string), (want_unit, want_string) = terms[i], wanted[i]
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
        return self._dict(self.seed.term_tokens())

    def _dict(self, seed: list) -> dict:
        out = {
            "width": self.width,
            "cartanion": self.group.to_dict(),
            "seed": seed,
            "codeword_spinors": [format_pauli(op) for op in self.codeword_ops],
            "labels": [format_label(lab, self.width) for lab in self.labels],
            "seed_origin": self.seed.origin,
        }
        if self.seed.base:  # only a nonzero base, so base-0 files stay as they were
            out["seed_base"] = format_bits(self.seed.base, self.width)
        return out

    def dump(self, fh: TextIO) -> None:
        """Write the JSON form to the text file ``fh``: byte for byte
        ``json.dumps(self.to_dict(), indent=2) + "\\n"``.  json lays out
        all but the seed rows; those, whose tokens need no escaping, are
        laid out here _CHUNK at a time from :meth:`SeedState._term_texts`,
        so neither the rows nor the file are ever held whole."""
        head, _, tail = json.dumps(self._dict([]), indent=2).partition('"seed": []')
        fh.write(head + '"seed": [')
        terms, sep, row = self.seed._term_texts(), "", '\n    [\n      "'
        while chunk := [*islice(terms, _CHUNK)]:
            rows = [f'{_UNIT_TOKENS[u]}",\n      "{s}' for u, s in chunk]
            fh.write(sep + row + f'"\n    ],{row}'.join(rows) + '"\n    ]')
            sep = ","
        fh.write("\n  ]" + tail + "\n")

    @classmethod
    def from_dict(cls, data: dict) -> "QuantumCode":
        """A code from its JSON form.  Tokens of a ``stabilizer`` seed that
        spell the closure seed of its group exactly
        (:func:`_closure_form`, for the file's base) are not parsed, and
        the seed keeps the derived form, its terms not built.  Other
        tokens, and any file whose width is not its group's, take the
        parse of :meth:`SeedState.from_tokens`.  Either way the code's
        construction runs every check, and its seed check reads the form
        derived here, so a load derives it at most once."""
        width = read_width(data)
        group = StabilizerGroup.from_dict(read_object(data, "cartanion"))
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
                form = _closure_form(group, base)
                if _spelled(tokens, width, form):
                    seed = SeedState._from_form(form, width, base)
        if seed is None:
            seed = SeedState.from_tokens(tokens, width, base_text, origin)
        ops = tuple(parse_pauli(s, width) for s in read_list(data, "codeword_spinors"))
        labels = tuple(parse_bits(s, width) for s in read_list(data, "labels"))
        return cls(group, seed, ops, labels)


def build_code(
    group: StabilizerGroup,
    labels: Sequence[int],
    seed: SeedState | None = None,
) -> QuantumCode:
    """Assemble a code from a group and K distinct coset labels (the first
    must be zero).

    The stored group keeps the caller's generators, so the given labels
    keep their meaning; the seed is that of ``group.normalized(0)``,
    derived from the group's X-part rows signed for base 0 without
    building the normalized group, once per group
    (:func:`_closure_form`).  The bit-planes of the closure classes are
    built once; each requested coset is one solved member XOR those
    classes, and its min-weight/lex representative is picked on the
    planes, so only the K winners become operator objects.  An explicit
    ``seed`` (e.g. punctured) replaces the derived one.  Labels are read
    as ints (``operator.index``) for the representatives, and a label
    outside [0, 2^p) is refused there, with the message
    :class:`QuantumCode` gives it; every other check, of the labels and
    of a ``stabilizer`` seed alike, is :class:`QuantumCode`'s.
    """
    labels = [*map(index, labels)]
    ops = _lightest(group, labels)
    if seed is None:
        seed = SeedState._from_form(_closure_form(group, 0), group.width, 0)
    return QuantumCode(group, seed, ops, labels)


class _PairMemo:
    """A ``build(code, errors)`` function that keeps the value it built
    for the last (code, error set) pair: decorated by ``_PairMemo``, the
    function returns the kept value when ``code`` and ``errors`` are the
    kept ones, and otherwise builds and keeps a new one.

    The match is ``is``, not ``==``: an equal copy builds its own, and
    comparing two codes can compare every seed term.  The entry is
    dropped before a miss builds, so a lone call holds one value at its
    peak, and when its code is collected; a code that takes no weak
    reference is answered but not kept.  A value must not refer to its
    code, or the code would live as long as the entry.  Each call reads
    one snapshot of the entry, so calls from several threads can cost a
    rebuild but never mix pairs."""

    def __init__(self, build: Callable[[QuantumCode, ErrorSet], tuple]) -> None:
        update_wrapper(self, build)
        self._build = build
        # (weak reference to the code, error set, value), or None
        self._entry = None

    def __call__(self, code: QuantumCode, errors: ErrorSet) -> tuple:
        entry = self._entry
        if entry is not None and entry[0]() is code and entry[1] is errors:
            return entry[2]
        self._entry = None
        value = self._build(code, errors)
        try:
            ref = weakref.ref(code, self._forget)
        except TypeError:
            return value
        self._entry = (ref, errors, value)
        return value

    def _forget(self, ref: weakref.ref) -> None:
        """Drop the entry once the code it came from is collected."""
        entry = self._entry
        if entry is not None and entry[0] is ref:
            self._entry = None
