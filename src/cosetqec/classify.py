"""Four-type code classification from two subgroup predicates.

A code is classified by whether (a) its codeword operators form a group
and (b) its seed's basis strings form an XOR subgroup.  Predicate (a) is
evaluated on coset labels (i.e. mod the abelian group), because codeword
operators are only chosen representatives of their cosets and the class
should not depend on that choice; the strict mod-phase closure of the
chosen operators is also computed and reported for transparency.

Predicate (b) is read without a check for a ``stabilizer`` seed: every
code checks such a seed in full against its group when it is made, so
its strings are the base XOR a span.  Any other seed's strings, shifted
by its base, are checked with :func:`is_xor_subgroup` when their count,
read without them, is a power of two.

Type I is the additive (stabilizer) case: both predicates hold.  Type II
drops (a), type III drops (b), type IV drops both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .codes import SEED_STABILIZER, QuantumCode
from .pauli import PauliOperator


def is_xor_subgroup(strings: Iterable[int]) -> bool:
    """True iff the set contains zero and is closed under XOR.

    The span of the set is grown by doubling, one coset per member it
    does not yet hold, and the set is that subgroup exactly when the
    span never outgrows it: O(S) set work instead of checking all S^2
    pairs.  A size that is not a power of two, or a missing zero, is
    refused before any doubling; the empty set fails."""
    values = set(strings)
    n = len(values)
    if n & (n - 1) or 0 not in values:
        return False
    span = {0}
    for v in values:
        if v not in span:
            span |= {s ^ v for s in span}
            if len(span) > n:
                return False
    # every member is in the span, which is no larger than the set
    return True


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
    # a stabilizer seed's strings are base ^ a span by construction
    seed = code.seed
    return CodeClass(
        bcw_is_group=is_xor_subgroup(code.labels),
        csb_is_group=seed.origin == SEED_STABILIZER
        or not len(seed) & len(seed) - 1
        and is_xor_subgroup(s ^ seed.base for s in seed.strings),
        bcw_is_group_strict=is_closed_mod_phase(code.codeword_ops),
    )
