"""Exact arithmetic for signed p-qubit Pauli operators.

An operator is stored in phase + binary-symplectic form as
``i**phase * X^x * Z^z`` with X applied after (to the left of) Z on
every qubit.  Bit j of the ``x`` and ``z`` masks belongs to qubit j,
which is the j-th character of the string form, so ``"XIZ"`` has
``x = 0b001`` and ``z = 0b100``.

A Y factor is X*Z with an explicit i folded into the global phase
(``Y = i * X * Z``), which keeps every unprefixed Pauli string
Hermitian.  The string form carries an optional prefix from
``{"+", "-", "+i", "-i"}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import Iterable, Iterator

MAX_WIDTH = 24

_PREFIX_TO_EXP = {"": 0, "+": 0, "i": 1, "+i": 1, "-": 2, "-i": 3}
_EXP_TO_PREFIX = {0: "", 1: "i", 2: "-", 3: "-i"}
_BITS_TO_LETTER = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
# the x and the z bit of each letter, as a digit
_X_BITS = str.maketrans("IXYZ", "0110")
_Z_BITS = str.maketrans("IXYZ", "0011")


class ParseError(ValueError):
    """Malformed Pauli string, bit string, or input file."""


class WidthMismatchError(ValueError):
    """Operands act on different numbers of qubits."""


def _check_width(width: int) -> None:
    if not 1 <= width <= MAX_WIDTH:
        raise ValueError(f"width must be in 1..{MAX_WIDTH}, got {width}")


@dataclass(frozen=True, slots=True)
class PauliOperator:
    """A signed Pauli operator ``i**phase * X^x * Z^z`` on ``width`` qubits."""

    phase: int
    x: int
    z: int
    width: int

    def __post_init__(self) -> None:
        # operator.index refuses a float or a str; the fields keep its ints
        width, x, z = index(self.width), index(self.x), index(self.z)
        _check_width(width)
        mask = (1 << width) - 1
        if not 0 <= x <= mask or not 0 <= z <= mask:
            raise ValueError("x/z masks exceed the operator width")
        set_field = object.__setattr__
        set_field(self, "phase", index(self.phase) % 4)
        set_field(self, "x", x)
        set_field(self, "z", z)
        set_field(self, "width", width)

    @classmethod
    def identity(cls, width: int) -> "PauliOperator":
        return cls(0, 0, 0, width)

    @classmethod
    def from_symplectic(cls, x: int, z: int, width: int) -> "PauliOperator":
        """Canonical Hermitian representative of (x, z) with a + sign."""
        return cls((x & z).bit_count() % 4, x, z, width)

    def __mul__(self, other: "PauliOperator") -> "PauliOperator":
        if self.width != other.width:
            raise WidthMismatchError(
                f"cannot multiply width {self.width} by width {other.width}"
            )
        # Moving other's X past self's Z gives (-1)^(z1.x2).
        phase = self.phase + other.phase + 2 * (self.z & other.x).bit_count()
        return PauliOperator(phase, self.x ^ other.x, self.z ^ other.z, self.width)

    def adjoint(self) -> "PauliOperator":
        """Conjugate transpose; equals self exactly when Hermitian."""
        return PauliOperator(
            (-self.phase + 2 * (self.x & self.z).bit_count()) % 4,
            self.x,
            self.z,
            self.width,
        )

    def commutes(self, other: "PauliOperator") -> bool:
        return symplectic_product(self, other) == 0

    @property
    def weight(self) -> int:
        """Number of qubits on which the operator is not the identity."""
        return (self.x | self.z).bit_count()

    @property
    def is_hermitian(self) -> bool:
        return (self.phase - (self.x & self.z).bit_count()) % 2 == 0

    @property
    def sign_exp(self) -> int:
        """Exponent of the i prefix once each Y has absorbed its own i."""
        return (self.phase - (self.x & self.z).bit_count()) % 4

    @property
    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0 and self.phase == 0

    def body(self) -> str:
        """Unsigned letter string, e.g. ``"XIZ"``."""
        letters = []
        for j in range(self.width):
            letters.append(_BITS_TO_LETTER[(self.x >> j) & 1, (self.z >> j) & 1])
        return "".join(letters)

    def __str__(self) -> str:
        return format_pauli(self)


def parse_pauli(text: str, width: int | None = None) -> PauliOperator:
    """Parse a Pauli string with an optional ``+ - +i -i`` prefix.

    Each character of the body must be one of I, X, Y, Z; a Y at position
    j sets both masks there and adds one to the phase exponent, so any
    unprefixed string parses to a Hermitian operator.  A well-formed
    string is read whole: each mask is one ``int(..., 2)`` of the
    reversed body mapped to bits, and the operator, valid by those
    checks, skips ``__post_init__``.  Every other string is refused: its
    prefix, its length and then its letters are checked in turn, and the
    first check that fails names what is wrong.
    """
    try:  # str.strip refuses every non-str, bytes included
        s = str.strip(text)
    except TypeError:
        raise ParseError(f"expected a Pauli string, got {text!r}") from None
    body = s.lstrip("+-i")
    phase = _PREFIX_TO_EXP.get(s[: len(s) - len(body)])
    n = len(body)
    if (
        phase is not None
        and 0 < n <= MAX_WIDTH
        and (width is None or n == width)
        and not body.strip("IXYZ")
    ):
        body = body[::-1]
        op = object.__new__(PauliOperator)
        set_field = object.__setattr__
        set_field(op, "phase", (phase + body.count("Y")) % 4)
        set_field(op, "x", int(body.translate(_X_BITS), 2))
        set_field(op, "z", int(body.translate(_Z_BITS), 2))
        set_field(op, "width", n)
        return op
    # the string is malformed: the first check that fails names why
    for cand in ("-i", "+i", "i", "-", "+"):
        if s.startswith(cand):
            s = s[len(cand):]
            break
    if not s:
        raise ParseError(f"empty Pauli body in {text!r}")
    if width is not None and len(s) != width:
        raise ParseError(
            f"expected {width} Pauli characters, got {len(s)} in {text!r}"
        )
    _check_width(len(s))
    # a body of letters alone would have been read whole above
    j, ch = next((j, ch) for j, ch in enumerate(s) if ch not in "IXYZ")
    raise ParseError(f"invalid character {ch!r} at position {j} in {text!r}")


def format_pauli(op: PauliOperator) -> str:
    """Inverse of :func:`parse_pauli` on canonical forms."""
    return _EXP_TO_PREFIX[op.sign_exp] + op.body()


def symplectic_parity(a1: int, b1: int, a2: int, b2: int) -> int:
    """Return (a1.b2 + b1.a2) mod 2: 0 if the operators commute, 1 if not."""
    return ((a1 & b2).bit_count() + (b1 & a2).bit_count()) & 1


def rank_f2(rows: Iterable[int]) -> int:
    """Rank over GF(2) of integer bitmask rows (leading-bit elimination)."""
    pivots: dict[int, int] = {}
    for w in rows:
        while w:
            hb = w.bit_length() - 1
            if hb not in pivots:
                pivots[hb] = w
                break
            w ^= pivots[hb]
    return len(pivots)


def symplectic_product(s1: PauliOperator, s2: PauliOperator) -> int:
    """0 if the operators commute, 1 if they anticommute (phases ignored)."""
    if s1.width != s2.width:
        raise WidthMismatchError(
            f"cannot compare width {s1.width} with width {s2.width}"
        )
    return symplectic_parity(s1.x, s1.z, s2.x, s2.z)


def parse_bits(text: str, width: int | None = None) -> int:
    """Parse a bit string; character j is bit j of the result."""
    try:  # str.strip refuses every non-str, bytes included
        s = str.strip(text)
    except TypeError:
        raise ParseError(f"expected a bit string, got {text!r}") from None
    if width is not None and len(s) != width:
        raise ParseError(f"expected {width} bits, got {len(s)} in {text!r}")
    if s.strip("01"):  # some character is not a bit; name the first one
        j, ch = next((j, ch) for j, ch in enumerate(s) if ch not in "01")
        raise ParseError(f"invalid bit {ch!r} at position {j} in {text!r}")
    return int(s[::-1], 2) if s else 0


def format_bits(value: int, width: int) -> str:
    """The low ``width`` bits of the int ``value``; character j is bit j."""
    # a sentinel bit above the top one keeps the leading zeros
    top = 1 << index(width)
    return format(index(value) & (top - 1) | top, "b")[:0:-1]


@dataclass(frozen=True, slots=True)
class ErrorSet:
    """An ordered error collection; entry 0 is the identity and no two
    entries are equal mod phase."""

    errors: tuple[PauliOperator, ...]

    def __post_init__(self) -> None:
        # a list is stored as a tuple
        object.__setattr__(self, "errors", tuple(self.errors))
        if not self.errors:
            raise ValueError("error set is empty")
        width = self.errors[0].width
        for op in self.errors:
            if op.width != width:
                raise WidthMismatchError("mixed widths in error set")
        first = self.errors[0]
        if not first.is_identity:
            raise ValueError(
                f"the first error must be the identity, got {format_pauli(first)!r}"
            )
        seen: set[tuple[int, int]] = set()
        for i, op in enumerate(self.errors):
            key = (op.x, op.z)
            if key in seen:
                raise ValueError(f"error {i} duplicates an earlier entry mod phase")
            seen.add(key)

    @classmethod
    def from_strings(
        cls, lines: Iterable[str], width: int | None = None
    ) -> "ErrorSet":
        """One Pauli string per item of ``lines``, which must not be a bare
        str: that would be read as a list of its characters."""
        if isinstance(lines, str):
            raise TypeError("lines must be an iterable of Pauli strings, got a str")
        ops = [parse_pauli(line, width) for line in lines]
        return cls(tuple(ops))

    @classmethod
    def from_text(cls, text: str, width: int | None = None) -> "ErrorSet":
        """Parse an error file: one Pauli string per line, '#' comments and
        blank lines ignored, first entry must be the identity."""
        lines = []
        for raw in text.splitlines():
            line = raw.strip()
            if line and not line.startswith("#"):
                lines.append(line)
        if not lines:
            raise ParseError("error file contains no Pauli strings")
        return cls.from_strings(lines, width)

    @property
    def width(self) -> int:
        return self.errors[0].width

    def __len__(self) -> int:
        return len(self.errors)

    def __iter__(self) -> Iterator[PauliOperator]:
        return iter(self.errors)

    def __getitem__(self, i: int) -> PauliOperator:
        return self.errors[i]
