"""Syndrome tables, the algebraic correctability check, and diagnosis.

Correctability of an error set against a code is decided purely on
coset labels: the code corrects the set when the N*K labels of all
error x codeword products are distinct.  That condition is sufficient,
not necessary.  Under a degenerate error set, where two errors share a
label, the check refuses codes that the dense Knill-Laflamme check
passes (ROADMAP item 5 records 16 such codes at p=9).  The check runs
at widths the dense-state engine cannot reach; for seeds that are not
full group closures the verdict is flagged as algebraic-only so callers
know to ask the dense engine for confirmation.  A ``stabilizer`` seed is
exactly its group's closure seed, since every code checks it in full
when it is made, so its verdict needs no such confirmation.

A syndrome table decides distinctness in one cached row-major pass over
its entries: the pass stops at the first repeated label, which is the
verdict's collision, or runs to the end and leaves the label ->
(error, codeword) inverse that diagnosis reads.  The verdict and the
diagnosis of one table share that pass.

Diagnosis is one dict lookup per query.  A table passed with the code
and error set it was built from is recognised by identity, so only a
table paired with other (possibly equal) objects is compared, and a
miss raises an error that formats its message only when shown.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import index

from .codes import QuantumCode, SEED_STABILIZER
from .pauli import ErrorSet, PauliOperator, WidthMismatchError
from .stabilizer import format_label


class UnknownSyndromeError(LookupError):
    """Observed label absent from the table: an uncorrectable event.

    Raised as ``UnknownSyndromeError(label, width)``, which become its
    ``args``; the message is formatted only when the error is shown, so
    a caller that catches a miss pays for none."""

    def __str__(self) -> str:
        label, width = self.args
        return f"label {format_label(label, width)} matches no error/codeword product"


class InternalCheckError(AssertionError):
    """An identity that must hold algebraically failed; indicates a bug."""


@dataclass(frozen=True)
class Verdict:
    """Outcome of the correctability check.

    ``collision`` names the first repeated label in row-major (error,
    codeword) order as (i1, j1, i2, j2).  ``pigeonhole`` marks the
    immediate N*K > 2^p refusal.  ``algebraic_only`` is set when the seed
    is not a full closure, where distinct labels alone do not prove
    orthogonal syndrome states.
    """

    collision: tuple[int, int, int, int] | None = None
    pigeonhole: bool = False
    algebraic_only: bool = False

    @property
    def correctable(self) -> bool:
        return self.collision is None and not self.pigeonhole


@dataclass(frozen=True)
class SyndromeTable:
    """Labels of every error x codeword product, row-major by error."""

    code: QuantumCode
    errors: ErrorSet
    rows: tuple[tuple[int, ...], ...]

    @cached_property
    def _scan(self) -> tuple[tuple[int, ...] | None, dict[int, tuple[int, int]] | None]:
        """(collision, inverse) from one row-major pass, exactly one None."""
        seen: dict[int, tuple[int, int]] = {}
        for i, row in enumerate(self.rows):
            for j, lab in enumerate(row):
                if lab in seen:
                    return (*seen[lab], i, j), None
                seen[lab] = (i, j)
        return None, seen

    @property
    def collision(self) -> tuple[int, int, int, int] | None:
        """The first repeated label in row-major order as (i1, j1, i2, j2),
        or None when every label is distinct."""
        return self._scan[0]

    @property
    def inverse(self) -> dict[int, tuple[int, int]] | None:
        """Label -> (error index, codeword index); None if not injective."""
        return self._scan[1]

    def entry(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def iter_entries(self):
        for i, row in enumerate(self.rows):
            for j, lab in enumerate(row):
                yield i, j, lab


def _check_widths(code: QuantumCode, errors: ErrorSet) -> None:
    if errors.width != code.width:
        raise WidthMismatchError(
            f"error width {errors.width} != code width {code.width}"
        )


def build_table(code: QuantumCode, errors: ErrorSet) -> SyndromeTable:
    """Compute every product label twice, once from the product's X and
    Z masks and once by XOR additivity, and insist the two agree."""
    _check_widths(code, errors)
    label = code.group.syndrome_map
    words = [(op.x, op.z) for op in code.codeword_ops]
    rows = []
    for i, err in enumerate(errors):
        ex, ez = err.x, err.z
        row = tuple([label(ex ^ x, ez ^ z) for x, z in words])
        err_label = label(ex, ez)
        additive = tuple([err_label ^ lab for lab in code.labels])
        if row != additive:
            j = next(j for j, (d, a) in enumerate(zip(row, additive)) if d != a)
            raise InternalCheckError(f"syndrome additivity failed at entry ({i}, {j})")
        rows.append(row)
    return SyndromeTable(code=code, errors=errors, rows=tuple(rows))


def pigeonhole(code: QuantumCode, errors: ErrorSet) -> bool:
    """True when the N*K products outnumber the 2^p cosets, so that no
    table of them can have distinct labels."""
    return len(errors) * code.dimension > (1 << code.width)


def _table_for(
    code: QuantumCode, errors: ErrorSet, table: SyndromeTable | None
) -> SyndromeTable:
    """The prebuilt table, refused with ValueError unless it was built
    for this code and error set, or a fresh one when none is given."""
    if table is None:
        return build_table(code, errors)
    # identity first: an equal but distinct code is compared seed by seed
    if (table.code is not code and table.code != code) or (
        table.errors is not errors and table.errors != errors
    ):
        raise ValueError("syndrome table was built for another code or error set")
    return table


def check_correctable(
    code: QuantumCode, errors: ErrorSet, table: SyndromeTable | None = None
) -> Verdict:
    """Distinct-label criterion; reports the table's first row-major
    collision.  A prebuilt ``table`` for the same code and errors is used
    instead of building one; the pigeonhole refusal never looks at it."""
    _check_widths(code, errors)
    algebraic_only = code.seed.origin != SEED_STABILIZER
    if pigeonhole(code, errors):
        return Verdict(pigeonhole=True, algebraic_only=algebraic_only)
    collision = _table_for(code, errors, table).collision
    return Verdict(collision=collision, algebraic_only=algebraic_only)


@dataclass(frozen=True)
class Diagnosis:
    error_index: int
    codeword_index: int
    correction: PauliOperator

    @classmethod
    def _make(
        cls, error_index: int, codeword_index: int, correction: PauliOperator
    ) -> "Diagnosis":
        """The fields written straight into the instance dict, skipping the
        frozen ``__init__``'s ``object.__setattr__`` per field."""
        diagnosis = object.__new__(cls)
        diagnosis.__dict__.update(
            error_index=error_index,
            codeword_index=codeword_index,
            correction=correction,
        )
        return diagnosis


def diagnose(
    code: QuantumCode,
    errors: ErrorSet,
    observed: int,
    table: SyndromeTable | None = None,
) -> Diagnosis:
    """Invert the syndrome table at an observed label.  The returned
    error operator is the correction to apply (self-inverse up to sign).
    Requires a correctable pairing; raises UnknownSyndromeError when the
    label is not in the table.  A prebuilt ``table`` must belong to the
    same code and errors; it is checked by identity first, so a caller
    that passes the objects it built the table from pays for no
    comparison.  ``observed`` must be an integer (``operator.index``),
    and one outside 0..2^p-1 is refused with ValueError."""
    observed = index(observed)
    if table is None or table.code is not code or table.errors is not errors:
        table = _table_for(code, errors, table)
    inverse = table._scan[1]
    if inverse is None:
        raise ValueError("syndrome table is not injective; code does not correct this set")
    hit = inverse.get(observed)
    if hit is None:
        p = code.width
        # every table label is in range, so only a miss needs the check
        if not 0 <= observed < 1 << p:
            raise ValueError(f"label {observed} out of range for width {p}")
        raise UnknownSyndromeError(observed, p)
    i, j = hit
    return Diagnosis._make(i, j, errors[i])
