"""Codes from the literature, pinned through the API and the CLI.

The ((9,12,3)) code of Yu, Chen, Lai & Oh (arXiv:0704.2122), up to the
choice of labels: on the 9-qubit ring graph group, with generators
K_v = X_v Z_{v-1} Z_{v+1}, the 12 coset labels below (bit t stands for
generator t) were found by an exact branch-and-bound over the labels
that keep the single-qubit errors apart; the greedy scan stops at 8.
"""

import json

from cosetqec import (
    PauliOperator,
    StabilizerGroup,
    build_code,
    check_correctable,
    check_knill_laflamme,
    check_syndrome_orthogonality,
    classify,
    format_pauli,
    max_dimension,
)
from cosetqec.cli import main
from cosetqec.golden import single_qubit_errors
from cosetqec.stabilizer import format_label

RING_LABELS = (0, 43, 73, 98, 166, 239, 280, 337, 404, 439, 477, 510)


def ring_graph_group(p):
    """K_v = X_v Z_{v-1} Z_{v+1}, indices mod p."""
    return StabilizerGroup(tuple(
        PauliOperator(0, 1 << v, 1 << (v - 1) % p | 1 << (v + 1) % p, p)
        for v in range(p)
    ))


def test_nine_qubit_code_through_the_api():
    group, errors = ring_graph_group(9), single_qubit_errors(9)
    code = build_code(group, RING_LABELS)
    verdict = check_correctable(code, errors)
    assert verdict.correctable and not verdict.algebraic_only
    assert check_knill_laflamme(code, errors).witness is None
    report = check_syndrome_orthogonality(code, errors)
    assert (report.cases, report.violations) == (56280, ())
    assert classify(code).type_tag == "II"
    # the gap an exact label search closes
    assert max_dimension(group, errors).dimension == 8


def test_nine_qubit_code_through_the_cli(tmp_path, capsys):
    group, errors = ring_graph_group(9), single_qubit_errors(9)
    (tmp_path / "group.json").write_text(json.dumps(group.to_dict()))
    (tmp_path / "errors.txt").write_text("".join(format_pauli(e) + "\n" for e in errors))
    code = tmp_path / "code.json"
    labels = ",".join(format_label(label, 9) for label in RING_LABELS)
    assert main([
        "build", "--cartanion", str(tmp_path / "group.json"), "--labels", labels,
        "-o", str(code),
    ]) == 0
    capsys.readouterr()
    assert main([
        "verify", "--oracle", "--code", str(code), "--errors", str(tmp_path / "errors.txt"),
    ]) == 0
    out = capsys.readouterr().out
    assert "verdict: correctable" in out
    assert "note: oracle confirmed: orthogonality matches labels" in out
    assert "algebraic-only" not in out
    assert main(["classify", "--code", str(code)]) == 0
    out = capsys.readouterr().out
    assert "type: II\n" in out
    assert "classical correspondence: nonlinear\n" in out
