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
Aaronson-Gottesman tableau (quant-ph/0406196); the seed and the coset
minima walk their own bit-parallel forms (:mod:`cosetqec.codes`).
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
        gens = self.generators
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
        for idx, g in enumerate(self.generators):
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
        # the cached map is a closure or a builtin bound to packed masks,
        # and neither unpickles; an unpickled group builds its own on first use
        state = dict(self.__dict__)
        state.pop("syndrome_map", None)
        return state

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
        assert self.syndrome_map(x, z) == label
        return x, z

    def normalized(self, base: int = 0) -> "StabilizerGroup":
        """Re-choose generators so the diagonal subgroup (elements with no
        X part) is generated by a subset of them, each signed to act as +1
        on the computational-basis state ``base``; non-diagonal generators
        get a + sign.  The closure mod phase is unchanged.  Refuses a
        ``base`` that is no int or lies outside [0, 2^p)."""
        p = self.width
        base = index(base)
        if not 0 <= base < 1 << p:
            raise ValueError(f"seed base {base:#x} exceeds width {p}")
        out: list[PauliOperator] = []
        pivots: dict[int, int] = {}
        for g in self.generators:
            cur = g
            while cur.x:
                hb = cur.x.bit_length() - 1
                if hb in pivots:
                    cur = out[pivots[hb]] * cur
                else:
                    pivots[hb] = len(out)
                    break
            out.append(cur)
        fixed = []
        for g in out:
            if g.x == 0:
                flip = (g.z & base).bit_count() & 1
                fixed.append(PauliOperator(2 * flip, 0, g.z, p))
            else:
                fixed.append(PauliOperator.from_symplectic(g.x, g.z, p))
        return StabilizerGroup(tuple(fixed))

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
    2^(p(p+1)/2) beyond that.
    """
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
