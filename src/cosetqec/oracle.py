"""Exact dense state-vector engine over Gaussian integers.

This is the independent referee for every orthogonality and eigenvector
claim the algebraic modules make.  It deliberately avoids the packed
kernels and the syndrome machinery: states hold all 2^p amplitudes
as exact Gaussian integers, and every comparison is an exact equality.
There are no tolerances anywhere because every amplitude in this
framework is an integer times a fourth root of unity.

Normalization is never applied: a state is a (vector, norm2) pair, and
normalized quantities are formed as exact ratios on demand.

Every state the pipeline builds is a seed, whose amplitudes are units
i^k, or a Pauli image of one, so each amplitude is re + i*im with re and
im in {-1, 0, 1}.  That is the whole domain of a state here, and the
constructor refuses anything outside it.  For A = re || im, one lane per
amplitude part, a state keeps two Python ints of 2^(p+1) bits: the
support, marking the nonzero lanes, and the sign mask, marking the
negative ones; lane q of either half holds basis index ~q.  Operators
act on the masks without a per-amplitude loop, in the bit-packed style
of the Aaronson-Gottesman tableau (quant-ph/0406196).  For i^d X^x Z^z:
Z^z XORs the sign mask, on the support, with one cached lane mask per
set bit of z; X^x sends lane q to lane q^x by one masked-shift butterfly
per set bit of x; i^2 negates the support; and i swaps the halves, as
for B below.  An operator costs O(p) big-int operations.  The
eigencheck compares the image's support and sign mask with the state's,
and norm2 is the popcount of the support.

Inner products come from the masks too.  With B = im || -re, also
cached, <u|v> = A_u . A_v + i (A_u . B_v), and each dot product of
vectors over {-1, 0, 1} with supports X, Y and sign masks s is
popcount(X & Y) - 2 * popcount(X & Y & (s_u ^ s_v)): two big-int ANDs
and popcounts of 2^(p+1) bits.

The overlap-dichotomy sweep does not apply each of the 4^p operators in
turn.  For a fixed X part x, the expectations <seed|X^x Z^z|seed> over
all z are the Walsh-Hadamard transform of the integer sequence
conj(c[a^x]) * c[a] over the seed amplitudes c, which is the
quadratic-form structure of stabilizer states (Dehaene & De Moor,
quant-ph/0304125).  One butterfly pass per qubit gives all 2^p values for
that x, so the sweep costs 4^p * p integer operations instead of 8^p.
The Knill-Laflamme check reads a Hermitian Gram matrix of the syndrome
states: each unordered pair's inner product is taken once and the mirror
entry is its conjugate.

The eigenvector check makes one pass over the states and applies only
the p generators to each.  The generators are Hermitian and pairwise
commuting and every closure element is their product, so a state that is
a +/-1 eigenvector of each generator is one of all 2^p elements.  The
verdict therefore comes from the p generators applied densely.  Only a
state that fails a generator is swept against all 2^p elements of
:meth:`StabilizerGroup.closure`, and that sweep only names the failing
elements, in closure order, for the report; a failing state therefore
still costs the full 2^p sweep, and a passing one costs p applications.
The report counts every (state, closure element) pair as a case.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from functools import cache, cached_property
from itertools import compress, repeat
from operator import add, itemgetter, mul, or_, sub

from .codes import QuantumCode, SeedState, seed_state
from .pauli import ErrorSet, PauliOperator, WidthMismatchError, format_pauli
from .stabilizer import StabilizerGroup, format_label

MAX_WIDTH = 14
DICHOTOMY_MAX_WIDTH = 10
ORTHOGONALITY_MAX_WIDTH = 12


class OracleLimitError(ValueError):
    """Requested width exceeds the dense engine's cap."""


class InternalOracleError(AssertionError):
    """A structural property of the dense engine failed; indicates a bug."""


def _check_dense_width(width: int, cap: int = MAX_WIDTH) -> None:
    if width < 0:
        raise ValueError(f"width must be non-negative, got {width}")
    if width > cap:
        raise OracleLimitError(
            f"width {width} exceeds the dense-state cap of {cap}"
        )


# bytes.translate tables for the slicing.  An amplitude part v in
# {-1, 0, 1} is read as the byte v + 1: _SUPPORT turns such a byte into
# "1" when v != 0 and _NEGATIVE into "1" when v < 0, so that int(..., 2)
# packs one lane per bit.
_SUPPORT = bytes(b"01"[v != 1] for v in range(256))
_NEGATIVE = bytes(b"01"[v == 0] for v in range(256))


def _plane_dot(both: int, neg: int) -> int:
    """sum_t x[t] * y[t] for vectors x, y over {-1, 0, 1} whose nonzero
    lanes meet in both, where neg marks the lanes of opposite signs."""
    return both.bit_count() - 2 * (both & neg).bit_count()


# Multiplication of a Gaussian integer (re, im) by i^k.
def _unit_mul(re: int, im: int, k: int) -> tuple[int, int]:
    k &= 3
    if k == 0:
        return re, im
    if k == 1:
        return -im, re
    if k == 2:
        return -re, -im
    return im, -re


@cache
def _lane_masks(width: int) -> tuple[int, ...]:
    """masks[k] marks the lanes of re || im whose basis index has bit k
    set.  Lane q of either half holds index ~q (mod 2^width), so these
    are the lanes with bit k of q clear: alternating runs of 2^k ones and
    2^k zeros over all 2^(width+1) lanes, ones lowest."""
    lanes = 2 << width
    masks = []
    for k in range(width):
        mask, span = (1 << (1 << k)) - 1, 2 << k
        while span < lanes:
            mask |= mask << span
            span <<= 1
        masks.append(mask)
    return tuple(masks)


def _times_minus_i(support: int, sign: int, half: int) -> tuple[int, int]:
    """(support, sign) of -i * v = im || -re from those of v = re || im,
    with half = 2^width lanes per part."""
    low = (1 << half) - 1
    # re fills the top half of the lanes and im the bottom, so swapping
    # the halves of the support lays it out as im || re; and im || -re is
    # negative where im is negative and where re is positive
    return (
        (support & low) << half | support >> half,
        (sign & low) << half | (support & ~sign) >> half,
    )


class DenseState:
    """An unnormalized state: 2^width amplitudes re + i*im with re and
    im in {-1, 0, 1}.

    The state is held as two masks over the lanes of re || im: the
    support marks the nonzero lanes and the sign mask the negative ones,
    lane t being bit 2^(width+1)-1-t of each.  The masks of equal
    amplitudes are equal, so equality and hashing compare them.  ``re``
    and ``im`` are read-only tuples decoded from the masks when first
    read.  A state is immutable."""

    width: int
    _support: int
    _sign: int

    def __init__(self, re: tuple[int, ...], im: tuple[int, ...], width: int) -> None:
        _check_dense_width(width)
        re, im = tuple(re), tuple(im)
        if len(re) != (1 << width) or len(im) != (1 << width):
            raise ValueError("amplitude arrays must have length 2^width")
        # one C-level pass per part: a sum of ints is an int, a float or
        # complex amplitude makes the sum a float or complex, and a str
        # makes sum raise TypeError itself
        for part in (re, im):
            kind = type(sum(part))
            if kind is not int:
                raise TypeError(f"amplitudes must be int, got {kind.__name__}")
        try:  # bytes refuses a value outside [0, 255]
            biased = bytes(map(add, re + im, repeat(1)))
            if max(biased) > 2:
                raise ValueError
        except ValueError:
            raise ValueError("amplitude parts must be in {-1, 0, 1}") from None
        support = int(biased.translate(_SUPPORT), 2)
        sign = int(biased.translate(_NEGATIVE), 2)
        # the given amplitudes are the views the masks decode to
        self.__dict__.update(
            width=width, _support=support, _sign=sign, re=re, im=im
        )

    @classmethod
    def _from_masks(cls, support: int, sign: int, width: int) -> "DenseState":
        state = object.__new__(cls)
        state.__dict__.update(width=width, _support=support, _sign=sign)
        return state

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.width, self._support, self._sign) == (
            other.width,
            other._support,
            other._sign,
        )

    def __hash__(self) -> int:
        return hash((self.width, self._support, self._sign))

    def __repr__(self) -> str:
        return f"DenseState(re={self.re!r}, im={self.im!r}, width={self.width!r})"

    @cached_property
    def _amplitudes(self) -> tuple[int, ...]:
        """re + im decoded from the masks."""
        lanes = 2 << self.width
        support = format(self._support, f"0{lanes}b")
        sign = format(self._sign, f"0{lanes}b")
        return tuple(-1 if s == "1" else int(d) for d, s in zip(support, sign))

    @cached_property
    def re(self) -> tuple[int, ...]:
        return self._amplitudes[: 1 << self.width]

    @cached_property
    def im(self) -> tuple[int, ...]:
        return self._amplitudes[1 << self.width :]

    @cached_property
    def _minus_i(self) -> tuple[int, int]:
        """(support, sign) of im || -re, the lanes of -i times the state."""
        return _times_minus_i(self._support, self._sign, 1 << self.width)

    @cached_property
    def norm2(self) -> int:
        # every nonzero lane of re || im contributes 1
        return self._support.bit_count()

    @property
    def is_zero(self) -> bool:
        return not self._support

    @classmethod
    def from_basis(cls, string: int, width: int) -> "DenseState":
        _check_dense_width(width)
        if not 0 <= string < 1 << width:
            raise ValueError(f"basis string {string} outside [0, 2^{width})")
        # re[string] = 1 is lane 2^(width+1) - 1 - string
        return cls._from_masks(1 << ((2 << width) - 1 - string), 0, width)

    @classmethod
    def from_seed(cls, seed: SeedState) -> "DenseState":
        _check_dense_width(seed.width)
        re = [0] * (1 << seed.width)
        im = [0] * (1 << seed.width)
        for unit, string in seed.terms:
            re[string], im[string] = _unit_mul(1, 0, unit)
        return cls(tuple(re), tuple(im), seed.width)

    def apply(self, op: PauliOperator) -> "DenseState":
        """Image under i^d X^x Z^z: |a> -> i^d (-1)^(z.a) |a^x>.  It costs
        O(width) big-int operations over 2^(width+1) lanes."""
        if op.width != self.width:
            raise WidthMismatchError(
                f"operator width {op.width} != state width {self.width}"
            )
        masks = _lane_masks(self.width)
        support = self._support
        # Z^z negates the lanes whose index a has z.a odd
        flip = 0
        for k, mask in enumerate(masks):
            if op.z >> k & 1:
                flip ^= mask
        # i^d = (-1)^(d1 ^ d0) * (-i)^d0 for the bits d1 d0 of d
        if (op.phase ^ op.phase >> 1) & 1:
            flip = ~flip
        sign = self._sign ^ (flip & support)
        if op.phase & 1:
            support, sign = _times_minus_i(support, sign, 1 << self.width)
        # X^x moves lane q, which holds index ~q, to lane q^x: one
        # butterfly per set bit of x swaps the lanes that differ in it
        for k, mask in enumerate(masks):
            if op.x >> k & 1:
                shift = 1 << k
                support = (support & mask) << shift | support >> shift & mask
                sign = (sign & mask) << shift | sign >> shift & mask
        return DenseState._from_masks(support, sign, self.width)

    def inner(self, other: "DenseState") -> tuple[int, int]:
        """<self|other> as an exact Gaussian integer (conjugate-linear in
        self); divide by norms only if you must, as an exact ratio.

        With A = re || im and B = im || -re, the real part is A_u . A_v and
        the imaginary part A_u . B_v.  Each is a dot product of vectors
        over {-1, 0, 1}: the lanes where both supports meet, less twice
        those of them where the signs differ, so it costs two big-int ANDs
        and popcounts over 2^(width+1) lanes."""
        if other.width != self.width:
            raise WidthMismatchError("inner product of mismatched widths")
        support_b, sign_b = other._minus_i
        return (
            _plane_dot(self._support & other._support, self._sign ^ other._sign),
            _plane_dot(self._support & support_b, self._sign ^ sign_b),
        )

    def is_orthogonal(self, other: "DenseState") -> bool:
        return self.inner(other) == (0, 0)

    def eigencheck(self, op: PauliOperator) -> int | None:
        """+1 or -1 when the state is an exact eigenvector of op with that
        eigenvalue, None otherwise."""
        if self.is_zero:
            raise ValueError("eigencheck on the zero vector")
        moved = self.apply(op)
        if moved._support != self._support:
            return None
        flipped = moved._sign ^ self._sign
        if not flipped:
            return 1
        if flipped == self._support:
            return -1
        return None


@dataclass(frozen=True)
class OracleReport:
    """Result of one exhaustive dense-state sweep."""

    check: str
    cases: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def codeword_states(code: QuantumCode) -> list[DenseState]:
    base = DenseState.from_seed(code.seed)
    return [base.apply(op) for op in code.codeword_ops]


def syndrome_states(
    code: QuantumCode, errors: ErrorSet
) -> list[tuple[int, int, DenseState]]:
    """(error index, codeword index, state) row-major; the state is the
    error applied to the codeword."""
    words = codeword_states(code)
    out = []
    for i, err in enumerate(errors):
        for j, w in enumerate(words):
            out.append((i, j, w.apply(err)))
    return out


def _walsh_hadamard(values: list[int]) -> list[int]:
    """F(z) = sum_a (-1)^(a.z) values[a], exactly, for len(values) = 2^p.

    Each pass butterflies the lowest index bit and rotates it to the top
    (the constant-geometry form), so after p passes every bit has been
    transformed once and the output is in natural order."""
    n = len(values)
    for _ in range(n.bit_length() - 1):
        evens, odds = values[0::2], values[1::2]
        values = list(map(add, evens, odds))
        values += map(sub, evens, odds)
    return values


def check_overlap_dichotomy(group: StabilizerGroup) -> OracleReport:
    """Sweep all 4^p mod-phase operators against the group's seed: the
    expectation <seed|S|seed> must vanish exactly when S is outside the
    closure, and be exactly +/-norm2 when inside.

    For each X part x the products f_x(a) = conj(c[a^x]) * c[a] of the
    seed amplitudes c go through one integer Walsh-Hadamard transform F_x,
    and <seed|X^x Z^z|seed> for the Hermitian representative
    i^popcount(x&z) X^x Z^z is i^popcount(x&z) * F_x(z).  That gives all
    4^p expectations in 4^p * p integer operations, against 8^p for
    applying each operator to the seed.  Only the operators that are
    inside the closure or have a nonzero expectation are visited one by
    one, in ascending (x, z) order, so violations come out in sweep
    order; a PauliOperator is built only for a violation."""
    p = group.width
    _check_dense_width(p, DICHOTOMY_MAX_WIDTH)
    norm = group.normalized(0)
    seed = DenseState.from_seed(seed_state(norm, 0))
    n2 = seed.norm2
    size = 1 << p
    inside: dict[int, set[int]] = {}
    for x, z in norm.closure_classes:
        inside.setdefault(x, set()).add(z)
    violations = []
    for x in range(size):
        shifted = itemgetter(*[a ^ x for a in range(size)])
        ur, ui = shifted(seed.re), shifted(seed.im)
        # conj(u) * v with u = c[a^x], v = c[a]
        fr = _walsh_hadamard(
            list(map(add, map(mul, ur, seed.re), map(mul, ui, seed.im)))
        )
        fi = _walsh_hadamard(
            list(map(sub, map(mul, ur, seed.im), map(mul, ui, seed.re)))
        )
        members = inside.get(x, set())
        # fr[z] | fi[z] is 0 exactly when both are
        nonzero = compress(range(size), map(or_, fr, fi))
        for z in sorted(members.union(nonzero)):
            val = _unit_mul(fr[z], fi[z], (x & z).bit_count())
            if z in members:
                if val in ((n2, 0), (-n2, 0)):
                    continue
                what = f"inside but expectation {val} != +/-{n2}"
            else:
                what = f"outside but expectation {val} != 0"
            op = PauliOperator.from_symplectic(x, z, p)
            violations.append(f"{format_pauli(op)}: {what}")
    return OracleReport("overlap-dichotomy", size * size, tuple(violations))


def check_eigenvectors(
    code: QuantumCode, errors: ErrorSet | None = None
) -> OracleReport:
    """Every basis codeword (and, with an error set, every syndrome state)
    must be an exact +/-1 eigenvector of every closure element.

    Each state is checked against the p generators, applied densely, and
    that alone decides the verdict.  The generators are Hermitian and
    pairwise commuting, and each closure element is their ordered
    product, so a +/-1 eigenvector of every generator is one of every
    element and needs no more work.  Only a state that fails a generator
    is swept against all 2^p elements; the sweep is a diagnostic that
    names the failing elements in closure order for the report.
    ``cases`` counts the (state, closure element) pairs covered,
    states * 2^p."""
    _check_dense_width(code.width, ORTHOGONALITY_MAX_WIDTH)
    states: list[tuple[str, DenseState]] = [
        (f"codeword {j}", s) for j, s in enumerate(codeword_states(code))
    ]
    if errors is not None:
        states += [
            (f"syndrome ({i},{j})", s)
            for i, j, s in syndrome_states(code, errors)
        ]
    group = code.group
    violations = []
    elems = ()  # the closure, built at the first failing state
    for name, state in states:
        # products of commuting Hermitian operators keep +/-1 eigenvectors
        if all(state.eigencheck(g) is not None for g in group.generators):
            continue
        elems = elems or group.closure()
        violations += (
            f"{name} is not an eigenvector of {format_pauli(elem)}"
            for elem in elems
            if state.eigencheck(elem) is None
        )
    return OracleReport("eigenvectors", len(states) << code.width, tuple(violations))


def check_syndrome_orthogonality(
    code: QuantumCode, errors: ErrorSet
) -> OracleReport:
    """Exact biconditional over all syndrome-state pairs: orthogonal if
    and only if their coset labels differ.

    Proven only for full-closure seeds; on punctured or explicit seeds
    treat the report as informational.
    """
    _check_dense_width(code.width, ORTHOGONALITY_MAX_WIDTH)
    group = code.group
    states = syndrome_states(code, errors)
    err_labels = [group.syndrome(e) for e in errors]
    labeled = [
        (i, j, err_labels[i] ^ code.labels[j], s) for i, j, s in states
    ]
    violations = []
    cases = 0
    for a in range(len(labeled)):
        i1, j1, l1, s1 = labeled[a]
        for b in range(a + 1, len(labeled)):
            i2, j2, l2, s2 = labeled[b]
            cases += 1
            ortho = s1.is_orthogonal(s2)
            if ortho != (l1 != l2):
                violations.append(
                    f"states ({i1},{j1}) and ({i2},{j2}): orthogonal={ortho} "
                    f"but labels {format_label(l1, code.width)} vs "
                    f"{format_label(l2, code.width)}"
                )
    return OracleReport("syndrome-orthogonality", cases, tuple(violations))


@dataclass(frozen=True)
class KLReport:
    """Knill-Laflamme cross-check: <psi_i|Ea' Eb|psi_j> = c_ab delta_ij."""

    witness: tuple[int, int, int, int] | None = None

    @property
    def passed(self) -> bool:
        return self.witness is None


def _gram(states: list[DenseState]) -> list[list[tuple[int, int]]]:
    """gram[u][v] = <states[u]|states[v]>.  The matrix is Hermitian, so
    each unordered pair is computed once and mirrored by conjugation."""
    gram: list[list[tuple[int, int]]] = []
    for u, left in enumerate(states):
        row = [(re, -im) for re, im in (gram[v][u] for v in range(u))]
        row += (left.inner(right) for right in states[u:])
        gram.append(row)
    return gram


def check_knill_laflamme(code: QuantumCode, errors: ErrorSet) -> KLReport:
    """Verify the standard correctability conditions over the dense
    codeword basis.  All codewords share the seed's norm (Pauli images),
    so the constants compare as raw Gaussian integers; the first
    violating (a, b, i, j) is returned as the witness."""
    _check_dense_width(code.width, ORTHOGONALITY_MAX_WIDTH)
    # <psi_i|Ea' Eb|psi_j> = <Ea psi_i | Eb psi_j>, the Gram entry of
    # syndrome states a*k+i and b*k+j
    gram = _gram([s for _, _, s in syndrome_states(code, errors)])
    k = code.dimension
    # errors[0] is the identity, so the first k diagonal entries are the
    # codeword norms
    if len({gram[i][i] for i in range(k)}) != 1:
        raise InternalOracleError("codeword norms diverged; Pauli action is broken")
    for a in range(len(errors)):
        for b in range(len(errors)):
            c_ab = gram[a * k][b * k]
            for i in range(k):
                row = gram[a * k + i]
                for j in range(k):
                    want = c_ab if i == j else (0, 0)
                    if row[b * k + j] != want:
                        return KLReport(witness=(a, b, i, j))
    return KLReport()

