"""Four-type code classification from two subgroup predicates.

A code is classified by whether (a) its codeword operators form a group
and (b) its seed's basis strings form an XOR subgroup.  Predicate (a) is
evaluated on coset labels (i.e. mod the abelian group), because codeword
operators are only chosen representatives of their cosets and the class
should not depend on that choice; the strict mod-phase closure of the
chosen operators is also computed and reported for transparency.

Type I is the additive (stabilizer) case: both predicates hold.  Type II
drops (a), type III drops (b), type IV drops both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .codes import QuantumCode
from .pauli import PauliOperator, rank_f2


def is_xor_subgroup(strings: Iterable[int]) -> bool:
    """True iff the set contains zero and is closed under XOR.

    A set spans a subgroup of 2^rank elements, so it is that subgroup
    exactly when it has that many elements: O(S.p) instead of checking
    all S^2 pairs.  The empty set has rank 0 and fails."""
    values = set(strings)
    return len(values) == 1 << rank_f2(values)


def is_closed_mod_phase(ops: Sequence[PauliOperator]) -> bool:
    """True iff the operators contain the identity and are closed under
    multiplication with phases ignored, i.e. their packed classes
    x | z << width form an XOR subgroup."""
    return is_xor_subgroup(op.x | op.z << op.width for op in ops)


_TYPE = {
    (True, True): "I",
    (False, True): "II",
    (True, False): "III",
    (False, False): "IV",
}


@dataclass(frozen=True)
class CodeClass:
    """Classification outcome; ``bcw_is_group`` is the label-level
    (representative-independent) predicate used for the type."""

    bcw_is_group: bool
    csb_is_group: bool
    bcw_is_group_strict: bool

    @property
    def type_tag(self) -> str:
        return _TYPE[(self.bcw_is_group, self.csb_is_group)]

    @property
    def additive(self) -> bool:
        return self.type_tag == "I"


def classify(code: QuantumCode) -> CodeClass:
    return CodeClass(
        bcw_is_group=is_xor_subgroup(code.labels),
        csb_is_group=is_xor_subgroup(s ^ code.seed.base for s in code.seed.strings),
        bcw_is_group_strict=is_closed_mod_phase(code.codeword_ops),
    )
