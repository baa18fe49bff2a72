"""Reference constructions used by the self-test suite and the tests.

These are small, well-understood codes: the three-qubit bit-flip
repetition code, the five-qubit perfect code extended by its logical Z
to a maximal group, the three-qubit cat (GHZ) construction that fails
against phase flips, the two-qubit Bell construction, and the
single-qubit group generated by Y whose seed has an imaginary
coefficient.
"""

from __future__ import annotations

from .codes import QuantumCode, build_code
from .pauli import ErrorSet, PauliOperator, parse_pauli
from .stabilizer import StabilizerGroup

FIVE_QUBIT_GENERATORS = ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ", "ZZZZZ")


def _group(*strings: str) -> StabilizerGroup:
    width = len(strings[0])
    return StabilizerGroup(tuple(parse_pauli(s, width) for s in strings))


def diagonal_group(p: int) -> StabilizerGroup:
    gens = tuple(PauliOperator(0, 0, 1 << j, p) for j in range(p))
    return StabilizerGroup(gens)


def repetition_code() -> QuantumCode:
    """[[3,2]]: diagonal group, codeword cosets {000, 111}."""
    return build_code(diagonal_group(3), [0b000, 0b111])


def five_qubit_code() -> QuantumCode:
    """[[5,2]]: the perfect-code stabilizers plus ZZZZZ; the second coset
    anticommutes only with ZZZZZ (generator 4), label 00001."""
    return build_code(_group(*FIVE_QUBIT_GENERATORS), [0, 1 << 4])


def cat_code() -> QuantumCode:
    """[[3,2]] on the GHZ group {XXX, ZZI, IZZ}; corrects no Z flips."""
    return build_code(_group("XXX", "ZZI", "IZZ"), [0b000, 0b001])


def bell_code() -> QuantumCode:
    """[[2,2]] on the Bell group {XX, ZZ}."""
    return build_code(_group("XX", "ZZ"), [0b00, 0b11])


def y_code() -> QuantumCode:
    """[[1,2]] on the group generated by Y; its seed is |0> + i|1>."""
    return build_code(_group("Y"), [0, 1])


def golden_codes() -> dict[str, QuantumCode]:
    return {
        "rep3": repetition_code(),
        "five2": five_qubit_code(),
        "cat3": cat_code(),
        "bell2": bell_code(),
        "y1": y_code(),
    }


def x_flips(p: int) -> ErrorSet:
    ops = [PauliOperator.identity(p)]
    ops += [PauliOperator(0, 1 << j, 0, p) for j in range(p)]
    return ErrorSet(tuple(ops))


def z_flips(p: int) -> ErrorSet:
    ops = [PauliOperator.identity(p)]
    ops += [PauliOperator(0, 0, 1 << j, p) for j in range(p)]
    return ErrorSet(tuple(ops))


def single_qubit_errors(p: int) -> ErrorSet:
    """Identity then X, Y, Z on each qubit in order: 3p + 1 errors."""
    ops = [PauliOperator.identity(p)]
    for j in range(p):
        ops.append(PauliOperator(0, 1 << j, 0, p))
        ops.append(PauliOperator(1, 1 << j, 1 << j, p))
        ops.append(PauliOperator(0, 0, 1 << j, p))
    return ErrorSet(tuple(ops))


def golden_error_sets() -> dict[str, ErrorSet]:
    return {
        "rep3": x_flips(3),
        "five2": single_qubit_errors(5),
        "cat3": z_flips(3),
        "bell2": ErrorSet(
            (PauliOperator.identity(2), parse_pauli("XI"), parse_pauli("ZI"))
        ),
        "y1": ErrorSet((PauliOperator.identity(1), parse_pauli("X"))),
    }
