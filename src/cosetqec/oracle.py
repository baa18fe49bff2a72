"""Exact dense state-vector engine over Gaussian integers.

This is the independent referee for every orthogonality and eigenvector
claim the algebraic modules make.  It deliberately avoids the packed
kernels and the syndrome machinery: states hold all 2^p amplitudes
as exact Gaussian integers, and every comparison is an exact equality.
There are no tolerances anywhere because every amplitude in this
framework is an integer times a fourth root of unity.

Normalization is never applied: normalized quantities are formed as
exact ratios on demand.

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
for B below.  Only the set bits of x and z are visited, each peeled off
as the lowest, so an operator costs O(weight) big-int operations.  The
eigencheck compares the image's support and sign mask with the state's,
and norm2 is the popcount of the support.

Inner products come from the masks too.  With B = im || -re, also
cached, <u|v> = A_u . A_v + i (A_u . B_v), and each dot product of
vectors over {-1, 0, 1} with supports X, Y and sign masks s is
popcount(X & Y) - 2 * popcount(X & Y & (s_u ^ s_v)): two big-int ANDs
and popcounts of 2^(p+1) bits.

The overlap-dichotomy sweep sums its own seed densely over the closure
that :meth:`StabilizerGroup.closure` walks by Pauli products, and shares
no seed builder with the code it referees.  It does not apply each of
the 4^p operators in turn.  For a fixed X part x it reads the seed moved
to X^x|seed>; Z^z then only negates the lanes whose basis index a has
z.a odd.  The 2^p flip masks, one per z, and the 2^p moved seeds, one
per x, are built once from the lane masks by doubling: entry x + 2^k is
entry x with lane mask k XORed in, or with butterfly k applied, so each
costs one operation (the flips take 256 KB at p=10, the moves twice
that).  Each <seed|Z^z X^x|seed> is then the two popcount dot products
of the inner product, with the sign masks XORed by the flip mask of z.
The sweep makes at most 4^p such pairs of dot products: an X part whose
image misses the seed's support has only zero expectations and needs
none.

The pair checks read only the upper triangle of the syndrome states'
Gram matrix.  The matrix is Hermitian, so the lower triangle is the
conjugate mirror and holds no condition, and no witness, that the upper
one lacks.  Each row of the triangle is one comprehension over masks
read into lists once, with the two dot products of the inner product
inlined, so a pair costs two ANDs and two popcounts per part, and a part
whose supports do not meet costs no popcount.  Syndrome orthogonality
calls a pair orthogonal when its entry is (0, 0), and only pairs whose
orthogonality disagrees with their labels are visited in Python.  The
Knill-Laflamme check compares the k rows of each error whole with one
row that the conditions want.

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

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import compress, repeat
from operator import add, eq, ne

from .codes import QuantumCode, SeedState
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


@dataclass(frozen=True, init=False, repr=False)
class DenseState:
    """An unnormalized state: 2^width amplitudes re + i*im with re and
    im in {-1, 0, 1}.

    The state is held as two masks over the lanes of re || im: the
    support marks the nonzero lanes and the sign mask the negative ones,
    lane t being bit 2^(width+1)-1-t of each.  The masks of equal
    amplitudes are equal, so equality and hashing compare the fields.
    ``re`` and ``im`` are read-only tuples decoded from the masks when
    first read.  A state is immutable.  The constructor validates
    amplitudes from outside; the package builds its states from masks."""

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
        """The masks written term by term, as little-endian bytes: i^k is
        +/-1 in re for even k and in im for odd k, negative for k >= 2."""
        width = seed.width
        _check_dense_width(width)
        top = (2 << width) - 1
        support, sign = bytearray(top // 8 + 1), bytearray(top // 8 + 1)
        for unit, string in seed.terms:
            bit = top - ((unit & 1) << width | string)
            support[bit >> 3] |= 1 << (bit & 7)
            if unit & 2:
                sign[bit >> 3] |= 1 << (bit & 7)
        return cls._from_masks(
            int.from_bytes(support, "little"), int.from_bytes(sign, "little"), width
        )

    def apply(self, op: PauliOperator) -> "DenseState":
        """Image under i^d X^x Z^z: |a> -> i^d (-1)^(z.a) |a^x>.  It costs
        O(width) big-int operations over 2^(width+1) lanes."""
        if op.width != self.width:
            raise WidthMismatchError(
                f"operator width {op.width} != state width {self.width}"
            )
        masks = _lane_masks(self.width)
        support = self._support
        # Z^z negates the lanes whose index a has z.a odd: one lane mask
        # per set bit of z, found by peeling off the lowest
        flip, z = 0, op.z
        while z:
            low = z & -z
            flip ^= masks[low.bit_length() - 1]
            z ^= low
        # i^d = (-1)^(d1 ^ d0) * (-i)^d0 for the bits d1 d0 of d
        if (op.phase ^ op.phase >> 1) & 1:
            flip = ~flip
        sign = self._sign ^ (flip & support)
        if op.phase & 1:
            support, sign = _times_minus_i(support, sign, 1 << self.width)
        # X^x moves lane q, which holds index ~q, to lane q^x: one
        # butterfly per set bit of x swaps the lanes that differ in it,
        # and the set bit itself is the shift
        x = op.x
        while x:
            shift = x & -x
            mask = masks[shift.bit_length() - 1]
            support = (support & mask) << shift | support >> shift & mask
            sign = (sign & mask) << shift | sign >> shift & mask
            x ^= shift
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


def _closure_seed(norm: StabilizerGroup) -> tuple[DenseState, dict[int, set[int]]]:
    """The seed of a sign-normalized group, summed densely over its
    :meth:`StabilizerGroup.closure` applied to |0>, and the closure
    classes as a map from X part to Z parts.  Element i^d X^x Z^z adds
    i^d to string x, and each string gets the diagonal subgroup's size
    times one unit, since that subgroup fixes |0> with +1."""
    p = norm.width
    re, im = [0] * (1 << p), [0] * (1 << p)
    inside: dict[int, set[int]] = {}
    for e in norm.closure():
        inside.setdefault(e.x, set()).add(e.z)
        unit_re, unit_im = _unit_mul(1, 0, e.phase)
        re[e.x] += unit_re
        im[e.x] += unit_im
    size = len(inside[0])
    seed = DenseState(tuple(v // size for v in re), tuple(v // size for v in im), p)
    return seed, inside


def check_overlap_dichotomy(group: StabilizerGroup) -> OracleReport:
    """Sweep all 4^p mod-phase operators against the group's seed: the
    expectation <seed|S|seed> must vanish exactly when S is outside the
    closure, and be exactly +/-norm2 when inside.

    The seed and the closure classes come from :func:`_closure_seed`,
    not from the seed builder of :mod:`cosetqec.codes`.
    The seed's image under each X^x is built by doubling, one butterfly
    per x, and each z takes the two dot products of
    :meth:`DenseState.inner` with the sign masks XORed by the flip mask
    of z, giving <seed|Z^z X^x|seed>.  The Hermitian
    representative i^d X^x Z^z, d = popcount(x&z), is i^-d Z^z X^x.
    Operators are visited in ascending (x, z) order, and only those
    inside the closure or with a nonzero expectation are judged, so
    violations come out in sweep order; a PauliOperator is built only
    for a violation."""
    p = group.width
    _check_dense_width(p, DICHOTOMY_MAX_WIDTH)
    seed, inside = _closure_seed(group.normalized(0))
    n2 = seed.norm2
    size = 1 << p
    # flips[z] marks the lanes whose index a has z.a odd, and moves[x]
    # holds the masks of X^x|seed>; both are built by doubling, one XOR
    # or one butterfly per entry
    flips = [0]
    moves = [(seed._support, seed._sign)]
    for k, mask in enumerate(_lane_masks(p)):
        shift = 1 << k
        flips += [flip ^ mask for flip in flips]
        moves += [
            (
                (support & mask) << shift | support >> shift & mask,
                (sign & mask) << shift | sign >> shift & mask,
            )
            for support, sign in moves
        ]
    violations = []
    for x, (support, sign) in enumerate(moves):
        support_b, sign_b = _times_minus_i(support, sign, size)
        both, both_b = seed._support & support, seed._support & support_b
        members = inside.get(x, set())
        if both | both_b:
            neg, neg_b = seed._sign ^ sign, seed._sign ^ sign_b
            # _plane_dot of each plane, inlined: this is the hot loop
            count, count_b = both.bit_count(), both_b.bit_count()
            values = [
                (
                    count - 2 * (both & (neg ^ flip)).bit_count(),
                    count_b - 2 * (both_b & (neg_b ^ flip)).bit_count(),
                )
                for flip in flips
            ]
            visit = sorted(members.union(compress(range(size), map(any, values))))
        else:  # the moved seed misses the seed: every expectation is 0
            values, visit = [(0, 0)] * size, sorted(members)
        for z in visit:
            val = _unit_mul(*values[z], -(x & z).bit_count())
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


def _upper_gram(states: list[DenseState]) -> list[list[tuple[int, int]]]:
    """upper[u][v - u] = <states[u]|states[v]> for v >= u, with the two
    dot products of :meth:`DenseState.inner` inlined over masks read
    into lists once; a part whose supports do not meet is 0 without
    popcounts."""
    supports = [s._support for s in states]
    signs = [s._sign for s in states]
    turned = [s._minus_i for s in states]
    return [
        [
            (
                (both := support & other)
                and both.bit_count() - 2 * (both & (sign ^ other_sign)).bit_count(),
                (both_b := support & support_b)
                and both_b.bit_count() - 2 * (both_b & (sign ^ sign_b)).bit_count(),
            )
            for other, other_sign, (support_b, sign_b) in zip(
                supports[u:], signs[u:], turned[u:]
            )
        ]
        for u, (support, sign) in enumerate(zip(supports, signs))
    ]


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
    labels = [err_labels[i] ^ code.labels[j] for i, j, _ in states]
    upper = _upper_gram([s for _, _, s in states])
    n = len(states)
    violations = []
    for a, (i1, j1, _) in enumerate(states):
        l1 = labels[a]
        orthogonal = map(eq, upper[a][1:], repeat((0, 0)))
        distinct = map(ne, labels[a + 1 :], repeat(l1))
        # only the pairs where orthogonality and distinct labels disagree
        for b in compress(range(a + 1, n), map(ne, orthogonal, distinct)):
            i2, j2, _ = states[b]
            violations.append(
                f"states ({i1},{j1}) and ({i2},{j2}): "
                f"orthogonal={upper[a][b - a] == (0, 0)} "
                f"but labels {format_label(l1, code.width)} vs "
                f"{format_label(labels[b], code.width)}"
            )
    return OracleReport("syndrome-orthogonality", n * (n - 1) // 2, tuple(violations))


@dataclass(frozen=True)
class KLReport:
    """Knill-Laflamme cross-check: <psi_i|Ea' Eb|psi_j> = c_ab delta_ij."""

    witness: tuple[int, int, int, int] | None = None

    @property
    def passed(self) -> bool:
        return self.witness is None


def check_knill_laflamme(code: QuantumCode, errors: ErrorSet) -> KLReport:
    """Verify the standard correctability conditions over the dense
    codeword basis.  All codewords share the seed's norm (Pauli images),
    so the constants compare as raw Gaussian integers; the first
    violating (a, b, i, j) is returned as the witness.

    Only the upper triangle of the Gram matrix is read.  The matrix is
    Hermitian and c_ba = conj(c_ab), so a violation at (a, b, i, j) with
    b < a is one at (b, a, j, i), met first, and one at (a, a, i, j)
    with j < i is one at (a, a, j, i), the smaller witness."""
    _check_dense_width(code.width, ORTHOGONALITY_MAX_WIDTH)
    # <psi_i|Ea' Eb|psi_j> = <Ea psi_i | Eb psi_j>, the Gram entry of
    # syndrome states a*k+i and b*k+j
    upper = _upper_gram([s for _, _, s in syndrome_states(code, errors)])
    k = code.dimension
    # errors[0] is the identity, so the first k diagonal entries are the
    # codeword norms
    if len({upper[i][0] for i in range(k)}) != 1:
        raise InternalOracleError("codeword norms diverged; Pauli action is broken")
    # from its diagonal on, row a*k+i must hold c_ab = upper[a*k][(b-a)*k]
    # at every k-th entry and zero elsewhere, the same for every i, so the
    # k rows of error a are compared with one wanted row, and only a
    # mismatch is searched for the first (b, i, j) in witness order
    for a in range(len(errors)):
        rows = upper[a * k : a * k + k]
        want = [(0, 0)] * len(rows[0])
        want[::k] = rows[0][::k]
        if any(row != want[: len(row)] for row in rows):
            b, i, j = min(
                (a + (i + c) // k, i, (i + c) % k)
                for i, row in enumerate(rows)
                for c, (got, wanted) in enumerate(zip(row, want))
                if got != wanted
            )
            return KLReport(witness=(a, b, i, j))
    return KLReport()
