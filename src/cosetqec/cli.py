"""Command-line frontend.

Exit codes: 0 success/correctable, 1 verified-negative (collision,
not-found, unknown syndrome, or a verify whose dense oracle refutes the
labels), 2 usage, format or path error, 3 internal violation (a
structural self-check or an assert failed, which should never happen:
any AssertionError), 141 stdout
closed early (128 + SIGPIPE, as a shell reports a writer a pipe killed).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import __version__
from ._kernels import BACKEND
from .classify import classify
from .codes import QuantumCode, build_code, punctured_seed, seed_state
from .oracle import OracleLimitError, check_syndrome_orthogonality
from .pauli import ErrorSet, ParseError, format_pauli, parse_bits
from .search import DEFAULT_BUDGET, search_code
from .selftest import format_tap, run_selftest
from .stabilizer import StabilizerGroup, format_label
from .verify import (
    InternalCheckError,
    UnknownSyndromeError,
    build_table,
    check_correctable,
    diagnose,
    pigeonhole,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

_ENTRY_KEYS = ("error_index", "codeword_index", "error", "codeword", "label")


def _load(path: str, kind: type, name: str):
    """A group or code file, a JSON object read by ``kind.from_dict``; any
    refusal of its content names the path once, a JSON syntax error with
    its line and column."""
    try:
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(
                f"the top level must be a JSON object, got {type(data).__name__}"
            )
        return kind.from_dict(data)
    except json.JSONDecodeError as exc:
        where = f"{path}:{exc.lineno}:{exc.colno}"
        raise ParseError(f"{where}: bad {name} file: {exc.msg}")
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        # RecursionError: JSON nested deeper than the decoder recurses
        raise ParseError(f"{path}: bad {name} file: {exc}")


def _load_errors(path: str) -> ErrorSet:
    try:
        with open(path) as fh:
            return ErrorSet.from_text(fh.read())
    except ValueError as exc:  # an undecodable byte too
        raise ParseError(f"{path}: {exc}")


def _emit(payload: str | QuantumCode, out: str | None) -> None:
    """Write a text and a line break, or a code file, to ``out`` or stdout."""
    with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as fh:
        if isinstance(payload, QuantumCode):
            payload.dump(fh)
        else:
            fh.write(payload + "\n")


def _cmd_build(args) -> int:
    group = _load(args.cartanion, StabilizerGroup, "group")
    labels = [parse_bits(tok, group.width) for tok in args.labels.split(",")]
    seed = None
    if args.puncture:
        base_seed = seed_state(group.normalized(0), 0)
        seed = punctured_seed(base_seed, args.puncture.split(","))
    code = build_code(group, labels, seed=seed)
    _emit(code, args.output)
    return EXIT_OK


def _cmd_verify(args) -> int:
    code = _load(args.code, QuantumCode, "code")
    errors = _load_errors(args.errors)
    table = None if pigeonhole(code, errors) else build_table(code, errors)
    verdict = check_correctable(code, errors, table)
    oracle_note = None
    refuted = False
    if (args.oracle or verdict.algebraic_only) and not verdict.pigeonhole:
        try:
            report = check_syndrome_orthogonality(code, errors)
        except OracleLimitError as exc:  # the oracle's width cap
            oracle_note = f"oracle skipped ({exc}); algebraic results only"
        else:
            refuted = not report.ok
            oracle_note = (
                "oracle DISAGREES with labels: " + "; ".join(report.violations[:3])
                if refuted
                else "oracle confirmed: orthogonality matches labels"
            )
    # (i, j, error, codeword, label) per table entry, for either output
    entries = None
    if table is not None:
        err_text = [format_pauli(e) for e in errors]
        word_text = [format_pauli(op) for op in code.codeword_ops]
        entries = [
            (i, j, err_text[i], word_text[j], format_label(lab, code.width))
            for i, j, lab in table.iter_entries()
        ]
    if args.json:
        payload: dict = {
            "correctable": verdict.correctable,
            "pigeonhole": verdict.pigeonhole,
            "algebraic_only": verdict.algebraic_only,
            "collision": list(verdict.collision) if verdict.collision else None,
        }
        if entries is not None:
            payload["entries"] = [dict(zip(_ENTRY_KEYS, entry)) for entry in entries]
        if oracle_note:
            payload["oracle"] = oracle_note
        _emit(json.dumps(payload, indent=2), args.output)
    else:
        lines = []
        if entries is not None:
            lines.append("i\tj\terror\tcodeword\tlabel")
            lines += ("\t".join(map(str, entry)) for entry in entries)
        if verdict.correctable and refuted:
            lines.append(
                "verdict: refuted by the oracle (labels distinct, but syndrome "
                "states are not orthogonal)"
            )
        elif verdict.correctable:
            lines.append("verdict: correctable")
        elif verdict.pigeonhole:
            lines.append(
                f"verdict: collision (pigeonhole: {len(errors)} errors x "
                f"{code.dimension} codewords > {1 << code.width} cosets)"
            )
        else:
            i1, j1, i2, j2 = verdict.collision
            lines.append(
                f"verdict: collision entries ({i1},{j1}) and ({i2},{j2}) share "
                f"label {format_label(table.entry(i1, j1), code.width)}"
            )
        if verdict.algebraic_only:
            lines.append(
                "note: seed is not a full group closure; verdict is "
                "algebraic-only, oracle confirmation required"
            )
        if oracle_note:
            lines.append(f"note: {oracle_note}")
        _emit("\n".join(lines), args.output)
    return EXIT_OK if verdict.correctable and not refuted else EXIT_NEGATIVE


def _cmd_classify(args) -> int:
    code = _load(args.code, QuantumCode, "code")
    cls = classify(code)
    flag = {True: "g.", False: "n.g."}
    print(f"type: {cls.type_tag}")
    print(f"codeword operators (mod group): {flag[cls.bcw_is_group]}")
    print(f"codeword operators (strict mod phase): {flag[cls.bcw_is_group_strict]}")
    print(f"seed strings: {flag[cls.csb_is_group]}")
    print(f"additive: {'yes' if cls.additive else 'no'}")
    linear = "linear" if cls.bcw_is_group else "nonlinear"
    print(f"classical correspondence: {linear}")
    return EXIT_OK


def _cmd_search(args) -> int:
    errors = _load_errors(args.errors)
    result = search_code(
        errors,
        args.k,
        strategy=args.strategy,
        budget=args.budget,
        seed=args.seed,
        workers=args.workers,
    )
    print(f"# strategy={args.strategy} tried={result.candidates_tried}", file=sys.stderr)
    if not result.found:
        print(f"not found: {result.reason}", file=sys.stderr)
        return EXIT_NEGATIVE
    code = result.code
    verdict = check_correctable(code, errors)
    if not verdict.correctable:
        raise InternalCheckError("search returned a code that fails verification")
    print(f"# {result.reason}; re-verified correctable", file=sys.stderr)
    _emit(code, args.output)
    return EXIT_OK


def _cmd_diagnose(args) -> int:
    code = _load(args.code, QuantumCode, "code")
    errors = _load_errors(args.errors)
    observed = parse_bits(args.observed, code.width)
    table = None if pigeonhole(code, errors) else build_table(code, errors)
    verdict = check_correctable(code, errors, table)
    if not verdict.correctable:
        print("code does not correct this error set; diagnosis unavailable")
        return EXIT_NEGATIVE
    try:
        result = diagnose(code, errors, observed, table)
    except UnknownSyndromeError as exc:
        print(f"unknown syndrome: {exc}")
        return EXIT_NEGATIVE
    print(
        f"error index {result.error_index} ({format_pauli(result.correction)}), "
        f"codeword index {result.codeword_index}; apply "
        f"{format_pauli(result.correction)} to correct"
    )
    return EXIT_OK


def _cmd_selftest(args) -> int:
    results = run_selftest(max_width=args.max_width, seed=args.seed)
    print(format_tap(results))
    return EXIT_OK if all(r.ok for r in results) else EXIT_INTERNAL


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosetqec",
        description=(
            "Construct, verify, classify, and search quantum error-correction "
            "codes built from coset partitions of the Pauli group."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__} ({BACKEND})"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for random search (default 1)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="assemble a code from a group and labels")
    p_build.add_argument("--cartanion", required=True, help="group JSON file")
    p_build.add_argument(
        "--labels", required=True, help="comma-separated coset labels, e.g. 000,111"
    )
    p_build.add_argument(
        "--puncture",
        help="comma-separated basis strings to cut from the seed (at least two)",
    )
    p_build.add_argument("-o", "--output", help="write the code JSON here")
    p_build.set_defaults(func=_cmd_build)

    p_verify = sub.add_parser("verify", help="syndrome table and correctability")
    p_verify.add_argument("--code", required=True)
    p_verify.add_argument("--errors", required=True)
    p_verify.add_argument("--json", action="store_true", help="JSON instead of TSV")
    p_verify.add_argument(
        "--oracle",
        action="store_true",
        help="also confirm with the dense engine (automatic for punctured seeds)",
    )
    p_verify.add_argument("-o", "--output")
    p_verify.set_defaults(func=_cmd_verify)

    p_classify = sub.add_parser("classify", help="four-type classification")
    p_classify.add_argument("--code", required=True)
    p_classify.set_defaults(func=_cmd_classify)

    p_search = sub.add_parser("search", help="find a code for an error set")
    p_search.add_argument("--errors", required=True)
    p_search.add_argument("--k", type=int, required=True, help="target dimension")
    p_search.add_argument(
        "--strategy", choices=("exhaustive", "random"), default="random"
    )
    p_search.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("-o", "--output")
    p_search.set_defaults(func=_cmd_search)

    p_diag = sub.add_parser("diagnose", help="look up a correction for a syndrome")
    p_diag.add_argument("--code", required=True)
    p_diag.add_argument("--errors", required=True)
    p_diag.add_argument("--observed", required=True, help="observed label bits")
    p_diag.set_defaults(func=_cmd_diagnose)

    p_self = sub.add_parser("selftest", help="dense-engine structural checks (TAP)")
    p_self.add_argument("--max-width", type=int, default=4)
    p_self.add_argument("--seed", type=int, default=1)
    p_self.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not in the exit flush
        return status
    except BrokenPipeError:
        # the reader is gone; stdout goes to /dev/null so that the
        # interpreter's exit flush of what is still buffered stays silent
        with contextlib.suppress(OSError, ValueError):  # no descriptor
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except OSError as exc:
        if exc.filename is None:  # not a path
            raise
        print(f"error: {exc}", file=sys.stderr)  # names the path
        return EXIT_USAGE
    except ValueError as exc:  # parse, group, width and oracle-cap refusals too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:  # InternalCheckError, InternalOracleError, assert
        print(f"internal violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
