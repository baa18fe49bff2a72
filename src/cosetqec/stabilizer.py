"""Maximal abelian subgroups of the Pauli group and their coset partition.

A group here is given by exactly p independent, pairwise commuting,
Hermitian generators on p qubits, so its closure under multiplication
has 2^p elements mod phase and is maximal abelian.  The syndrome of an
operator is the length-p bit vector of commutation values against the
generators.  Because the symplectic form is bilinear, the syndrome map
is a group homomorphism onto Z_2^p whose kernel is the closure mod
phase: it indexes the partition of all 4^p Pauli classes into 2^p
cosets, and that label map is the only representation of the partition
this module ever stores.

The closure itself is stored nowhere.  :meth:`StabilizerGroup.closure`
walks it by Pauli products on request, with the phase carried as in the
Aaronson-Gottesman tableau (quant-ph/0406196).  The coset minima of
:mod:`cosetqec.codes` read the closure classes as bit-planes,
:meth:`StabilizerGroup._planes`, and the seed walks its own echelon form.

The group owns the one elimination of its generators' X parts,
:meth:`StabilizerGroup._x_rows`, with the true phase of each product:
:meth:`StabilizerGroup.normalized` builds its generators from those
rows, and the seed's echelon form (:func:`cosetqec.codes._seed_form`)
reduces them further.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import index
from typing import Iterator

from ._kernels import syndrome_map
from ._kernels._fallback import sample_group
from .pauli import (
    PauliOperator,
    WidthMismatchError,
    _check_width,
    format_bits,
    format_pauli,
    parse_pauli,
    rank_f2,
    symplectic_parity,
)

ENUMERATION_MAX_WIDTH = 3


class GroupError(ValueError):
    """A generating set fails validation (commutation, independence,
    Hermiticity) or a group is used before sign normalization."""


@dataclass(frozen=True)
class StabilizerGroup:
    """A maximal abelian subgroup, fixed by its ordered generator tuple."""

    generators: tuple[PauliOperator, ...]

    def __post_init__(self) -> None:
        gens = tuple(self.generators)  # a list is stored as a tuple
        object.__setattr__(self, "generators", gens)
        if not gens:
            raise GroupError("no generators given")
        p = gens[0].width
        if len(gens) != p:
            raise GroupError(
                f"need exactly {p} generators for width {p}, got {len(gens)}"
            )
        for i, g in enumerate(gens):
            if g.width != p:
                raise GroupError(f"generator {i} has width {g.width}, expected {p}")
            if not g.is_hermitian:
                raise GroupError(
                    f"generator {i} ({format_pauli(g)}) is not Hermitian"
                )
        for i, j in itertools.combinations(range(p), 2):
            if symplectic_parity(gens[i].x, gens[i].z, gens[j].x, gens[j].z):
                raise GroupError(f"generators {i} and {j} anticommute")
        # Leading-bit elimination with combination tracking on the check
        # vectors z | x << p (syndrome bit t of v = x | z << p is row t . v):
        # a row that reduces to zero names the dependent subset, and the
        # pivots later solve for a member of any coset.
        pivots: dict[int, tuple[int, int]] = {}
        for idx, g in enumerate(gens):
            w = g.z | (g.x << p)
            comb = 1 << idx
            while w:
                hb = w.bit_length() - 1
                if hb in pivots:
                    pw, pc = pivots[hb]
                    w ^= pw
                    comb ^= pc
                else:
                    pivots[hb] = (w, comb)
                    break
            else:
                subset = [i for i in range(p) if (comb >> i) & 1]
                raise GroupError(
                    "dependent generators: the product of indices "
                    f"{subset} is +/-identity mod phase"
                )
        object.__setattr__(self, "_pivots", pivots)

    @property
    def width(self) -> int:
        return self.generators[0].width

    @cached_property
    def syndrome_map(self):
        """The label callable ``(x, z) -> syndrome`` of the masks of one
        width-p operator, built once per group; it checks no width."""
        gens = self.generators
        return syndrome_map([g.x for g in gens], [g.z for g in gens])

    def __getstate__(self) -> dict:
        # the fields alone: the cached map (a closure or a builtin bound to
        # packed masks, neither of which unpickles) and the closure seeds
        # that cosetqec.codes keeps here are rebuilt on first use
        return {"generators": self.generators, "_pivots": self._pivots}

    def syndrome(self, op: PauliOperator) -> int:
        """Coset label of ``op``: bit t is its commutation value against
        generator t.  Zero exactly on the closure mod phase."""
        if op.width != self.width:
            raise WidthMismatchError(
                f"operator width {op.width} != group width {self.width}"
            )
        return self.syndrome_map(op.x, op.z)

    def closure(self) -> tuple[PauliOperator, ...]:
        """All 2^p elements; index lam is the ordered product of the
        generators selected by the bits of lam (ascending index).  Walked
        by doubling on each call, not cached: element i + 2^t is element
        i times generator t, for every i < 2^t."""
        elems = [PauliOperator.identity(self.width)]
        for g in self.generators:
            elems += [e * g for e in elems]
        return tuple(elems)

    def _solve_member(self, label: int) -> tuple[int, int]:
        """The (x, z) of one class with the requested syndrome, via a
        GF(2) solve of the p x 2p symplectic system (always solvable:
        generators are independent).  Its coset is this class XOR the
        closure classes."""
        p = self.width
        if not 0 <= label < (1 << p):
            raise ValueError(f"label {label} out of range for width {p}")
        v = 0
        for bit in sorted(self._pivots):
            w, comb = self._pivots[bit]
            r = (label & comb).bit_count() & 1
            if r ^ (((w ^ (1 << bit)) & v).bit_count() & 1):
                v |= 1 << bit
        x, z = v & ((1 << p) - 1), v >> p
        assert self.syndrome_map(x, z) == label, f"solved member of {label} is off its coset"
        return x, z

    def _planes(self) -> tuple[list[int], list[int], int]:
        """The closure classes as bit-planes of 2^p bits: bit i of ``xs[j]``
        (``zs[j]``) is the x (z) bit of qubit j in class i, the XOR of the
        generators selected by the bits of i; and the int with all 2^p bits
        set.  Each generator doubles every plane by one shift-XOR, as
        :meth:`closure` doubles its elements."""
        p = self.width
        xs, zs, n = [0] * p, [0] * p, 1
        for g in self.generators:
            fill = ((1 << n) - 1) << n
            for j in range(p):
                x, z = xs[j], zs[j]
                xs[j] = x | x << n ^ (fill if g.x >> j & 1 else 0)
                zs[j] = z | z << n ^ (fill if g.z >> j & 1 else 0)
            n *= 2
        return xs, zs, (1 << n) - 1

    def _x_rows(self, base: int | None = None) -> list[tuple[int, int, int]]:
        """The generators eliminated on their X parts: rows (a, x, z) for
        i^a X^x Z^z, each non-diagonal row's leading bit of x distinct,
        row t being generator t times rows before it with its true phase.
        Given ``base``, the rows are signed as :meth:`normalized` signs
        them: a diagonal row acts as +1 on |base>, any other row gets a +
        sign.  No operator object is built."""
        rows: list[tuple[int, int, int]] = []
        pivots: dict[int, int] = {}
        for g in self.generators:
            a, x, z = g.phase, g.x, g.z
            while x:
                hb = x.bit_length() - 1
                if hb not in pivots:
                    pivots[hb] = len(rows)
                    break
                b, rx, rz = rows[pivots[hb]]
                a, x, z = (a + b + 2 * (rz & x).bit_count()) & 3, x ^ rx, z ^ rz
            rows.append((a, x, z))
        if base is None:
            return rows
        return [
            ((x & z).bit_count() & 3 if x else 2 * ((z & base).bit_count() & 1), x, z)
            for _, x, z in rows
        ]

    def normalized(self, base: int = 0) -> "StabilizerGroup":
        """Re-choose generators so the diagonal subgroup (elements with no
        X part) is generated by a subset of them, each signed to act as +1
        on the computational-basis state ``base``; non-diagonal generators
        get a + sign.  They are the rows of :meth:`_x_rows` for ``base``.
        The closure mod phase is unchanged.  Refuses a ``base`` that is no
        int or lies outside [0, 2^p) (:func:`_read_base`)."""
        p = self.width
        rows = self._x_rows(_read_base(base, p))
        return StabilizerGroup(tuple(PauliOperator(a, x, z, p) for a, x, z in rows))

    def to_dict(self) -> dict:
        return {
            "width": self.width,
            "generators": [format_pauli(g) for g in self.generators],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StabilizerGroup":
        width = read_width(data)
        gens = tuple(parse_pauli(s, width) for s in read_list(data, "generators"))
        return cls(gens)


def read_key(data: dict, key: str):
    """``data[key]`` of a group or code file; a missing key is refused
    naming it."""
    try:
        return data[key]
    except KeyError:
        raise ValueError(f"missing key {key!r}") from None


def read_width(data: dict) -> int:
    """The "width" of a group or code file, which must be a JSON integer:
    a float, a string or a bool is refused, not rounded or converted."""
    width = read_key(data, "width")
    if type(width) is not int:
        raise ValueError(f"width must be an integer, got {width!r}")
    return width


def read_list(data: dict, key: str) -> list | tuple:
    """The list at ``data[key]`` of a group or code file.  Anything else
    is refused naming the key: a string would otherwise be read as a list
    of its characters."""
    value = read_key(data, key)
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{key} must be a list, got {type(value).__name__}")
    return value


def read_object(data: dict, key: str) -> dict:
    """The JSON object at ``data[key]`` of a code file, refused naming
    the key when it is anything else."""
    value = read_key(data, key)
    if not isinstance(value, dict):
        raise ValueError(f"{key} must be a JSON object, got {type(value).__name__}")
    return value


def _read_base(base: int, width: int) -> int:
    """``base`` as an int, refused outside [0, 2^width): every seed's base check."""
    if not 0 <= (base := index(base)) < 1 << width:
        raise ValueError(f"seed base {base:#x} exceeds width {width}")
    return base


# A coset label as a bit string: character t is the bit for generator t.
format_label = format_bits


def random_group(p: int, seed: int) -> StabilizerGroup:
    """Deterministic greedy sampler: draw random operators, keep those
    that commute with everything kept and raise the mod-phase rank, until
    p generators are held.  Generators come out in canonical + form.
    The sampler is pure Python on both kernel lanes.  Refuses a non-int
    ``p`` or ``seed`` and widths outside 1..24 before sampling."""
    p = index(p)
    _check_width(p)
    xs, zs = sample_group(p, index(seed))
    gens = tuple(
        PauliOperator.from_symplectic(x, z, p) for x, z in zip(xs, zs)
    )
    return StabilizerGroup(gens)


def enumerate_groups(p: int) -> Iterator[StabilizerGroup]:
    """Every maximal abelian subgroup exactly once (up to closure mod
    phase), in lexicographic order of the sorted packed closure.

    Limited to p <= 3: the count is 3, 15, 135 and grows roughly like
    2^(p(p+1)/2) beyond that.  Refuses a non-int ``p``.
    """
    p = index(p)
    if p < 1:
        raise ValueError(f"width must be at least 1, got {p}")
    if p > ENUMERATION_MAX_WIDTH:
        raise ValueError(
            f"group enumeration is limited to width <= {ENUMERATION_MAX_WIDTH}; "
            f"the count at width {p} is impractical to stream exhaustively"
        )
    pmask = (1 << p) - 1
    # isotropic spans, grown one dimension at a time; a set drops repeats
    spans = {frozenset({0})}
    for _ in range(p):
        spans = {
            span | {s ^ v for s in span}
            for span in spans
            for v in range(1, 1 << (2 * p))
            if v not in span
            and not any(
                symplectic_parity(v & pmask, v >> p, s & pmask, s >> p)
                for s in span
            )
        }
    for key in sorted(tuple(sorted(span)) for span in spans):
        gens: list[int] = []
        for v in key:
            if rank_f2([*gens, v]) > len(gens):
                gens.append(v)
                if len(gens) == p:
                    break
        ops = tuple(
            PauliOperator.from_symplectic(v & pmask, v >> p, p) for v in gens
        )
        yield StabilizerGroup(ops)
