"""Shared fixtures and the independent dense-matrix oracle.

The matrix oracle builds 2^p x 2^p numpy matrices by Kronecker products
of 2x2 Paulis (qubit 0 = least significant index bit, matching the
package's basis-string convention) and never touches the package's
symplectic arithmetic, so it can referee phase conventions.
"""

from __future__ import annotations

import numpy as np
import pytest

from cosetqec import DenseState, PauliOperator, StabilizerGroup, random_group
from cosetqec.golden import (
    bell_code,
    cat_code,
    five_qubit_code,
    golden_codes,
    golden_error_sets,
    repetition_code,
    y_code,
)

_M = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_matrix(op: PauliOperator) -> np.ndarray:
    """Dense matrix of i^phase * prod_j X^{x_j} Z^{z_j}."""
    m = np.array([[1.0 + 0j]])
    for j in reversed(range(op.width)):
        xj = (op.x >> j) & 1
        zj = (op.z >> j) & 1
        factor = np.eye(2, dtype=complex)
        if xj:
            factor = factor @ _M["X"]
        if zj:
            factor = factor @ _M["Z"]
        m = np.kron(m, factor)
    return (1j ** op.phase) * m


def closure_classes(group: StabilizerGroup) -> frozenset[tuple[int, int]]:
    """The closure mod phase, as the set of its (x, z) pairs."""
    return frozenset((e.x, e.z) for e in group.closure())


def signed_group(p: int, seed: int, twist: bool) -> StabilizerGroup:
    """random_group with generator 0 replaced by its product with
    generator 1 when ``twist`` is set, which gives non-canonical phases."""
    gens = list(random_group(p, seed).generators)
    if twist and p > 1:
        gens[0] = gens[0] * gens[1]
    return StabilizerGroup(tuple(gens))


def state_vector(state: DenseState) -> np.ndarray:
    return np.array(
        [r + 1j * i for r, i in zip(state.re, state.im)], dtype=complex
    )


@pytest.fixture
def rep3():
    return repetition_code()


@pytest.fixture
def five2():
    return five_qubit_code()


@pytest.fixture
def cat3():
    return cat_code()


@pytest.fixture
def bell2():
    return bell_code()


@pytest.fixture
def y1():
    return y_code()


@pytest.fixture
def golden_suite():
    codes = golden_codes()
    errs = golden_error_sets()
    return [(name, codes[name], errs[name]) for name in codes]
