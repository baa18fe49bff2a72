"""cosetqec: quantum error-correction codes from Pauli-group coset partitions.

Build additive and nonadditive codes by choosing a maximal abelian
subgroup of the p-qubit Pauli group and one codeword coset per basis
state, verify correctability as syndrome-label distinctness, and check
every orthogonality and eigenvector claim against an exact dense
state-vector engine.
"""

from ._kernels import BACKEND
from .classify import CodeClass, classify, is_closed_mod_phase, is_xor_subgroup
from .codes import (
    QuantumCode,
    SeedState,
    build_code,
    coset_representative,
    punctured_seed,
    seed_state,
)
from .oracle import (
    DenseState,
    KLReport,
    OracleLimitError,
    OracleReport,
    check_eigenvectors,
    check_knill_laflamme,
    check_overlap_dichotomy,
    check_syndrome_orthogonality,
    codeword_states,
    syndrome_states,
)
from .pauli import (
    ErrorSet,
    ParseError,
    PauliOperator,
    WidthMismatchError,
    format_bits,
    format_pauli,
    parse_bits,
    parse_pauli,
    symplectic_product,
)
from .search import MaxDimension, SearchResult, max_dimension, search_code, sumset_distinct
from .stabilizer import (
    GroupError,
    StabilizerGroup,
    enumerate_groups,
    format_label,
    random_group,
)
from .verify import (
    Diagnosis,
    SyndromeTable,
    UnknownSyndromeError,
    Verdict,
    build_table,
    check_correctable,
    diagnose,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "CodeClass",
    "DenseState",
    "Diagnosis",
    "ErrorSet",
    "GroupError",
    "KLReport",
    "MaxDimension",
    "OracleLimitError",
    "OracleReport",
    "ParseError",
    "PauliOperator",
    "QuantumCode",
    "SearchResult",
    "SeedState",
    "StabilizerGroup",
    "SyndromeTable",
    "UnknownSyndromeError",
    "Verdict",
    "WidthMismatchError",
    "build_code",
    "build_table",
    "check_correctable",
    "check_eigenvectors",
    "check_knill_laflamme",
    "check_overlap_dichotomy",
    "check_syndrome_orthogonality",
    "classify",
    "codeword_states",
    "coset_representative",
    "diagnose",
    "enumerate_groups",
    "format_bits",
    "format_label",
    "format_pauli",
    "is_closed_mod_phase",
    "is_xor_subgroup",
    "max_dimension",
    "parse_bits",
    "parse_pauli",
    "punctured_seed",
    "random_group",
    "search_code",
    "seed_state",
    "sumset_distinct",
    "symplectic_product",
    "syndrome_states",
]
