"""The README's "Python API in one minute" block runs and its comments hold.

The block is read out of README.md, run statement by statement, and every
bare expression's value is checked against the comment beside it, so an
edit to the README that breaks the example or its stated values fails here.
"""

import ast
import json
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"

# expression source -> (its README comment, a check of its value)
EXPECTED = {
    "q.check_correctable(code, flips).correctable": ("True", lambda v: v is True),
    'q.diagnose(code, flips, q.parse_bits("010"))': (
        "-> apply IXI",
        lambda v: v.error_index == 2 and v.correction.body() == "IXI",
    ),
    "q.classify(code).type_tag": ('"I" (additive)', lambda v: v == "I"),
    "q.check_knill_laflamme(code, flips).passed": (
        "True, exact arithmetic",
        lambda v: v is True,
    ),
    "hit.code.to_dict()": (
        "JSON-ready",
        lambda v: len(json.loads(json.dumps(v))["labels"]) == 2,
    ),
}


def api_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Python API in one minute", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "no python block under the API heading"
    return match.group(1)


@pytest.fixture(scope="module")
def run():
    """Run the block.  Returns each bare expression's source mapped to its
    (comment, value), and the namespace the block leaves behind."""
    source = api_block()
    lines = source.splitlines()
    namespace: dict = {}
    exprs = {}
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
            comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
            exprs[ast.get_source_segment(source, stmt)] = (comment, value)
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    return exprs, namespace


def test_every_expression_is_checked(run):
    exprs, _ = run
    assert set(exprs) == set(EXPECTED)


@pytest.mark.parametrize("expr", sorted(EXPECTED))
def test_commented_value_holds(run, expr):
    comment, value = run[0][expr]
    want_comment, check = EXPECTED[expr]
    assert comment == want_comment
    assert check(value)


def test_search_finds_a_two_dimensional_code(run):
    hit = run[1]["hit"]
    assert hit.found and hit.code.dimension == 2
