"""End-to-end command-line checks (driving main() in-process)."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cosetqec.cli as cli
import cosetqec.verify as verify
from cosetqec import (
    QuantumCode,
    SeedState,
    build_code,
    check_correctable,
    check_knill_laflamme,
    format_pauli,
    max_dimension,
    punctured_seed,
    random_group,
    seed_state,
)
from cosetqec.cli import main
from cosetqec.golden import (
    cat_code,
    golden_codes,
    golden_error_sets,
    repetition_code,
    single_qubit_errors,
    x_flips,
    z_flips,
)
from cosetqec.stabilizer import StabilizerGroup, format_label

REP3_GROUP = {"width": 3, "generators": ["ZII", "IZI", "IIZ"]}
XFLIPS = "III\nXII\nIXI\nIIX\n"
ZFLIPS = "III\nZII\nIZI\nIIZ\n"


GOLDEN_OUTPUTS = Path(__file__).parent / "data" / "cli_golden_outputs.json"


def golden_cli_runs(tmp_path):
    """{run: [exit code, stdout]} for verify (TSV, and JSON with the
    oracle) and diagnose at every observed label, on each golden code
    against its own error set and the single-qubit, X-flip and Z-flip
    sets of its width."""
    out = {}
    for name, code in golden_codes().items():
        p = code.width
        code_path = tmp_path / f"{name}.json"
        code_path.write_text(json.dumps(code.to_dict()))
        error_sets = {
            "own": golden_error_sets()[name],
            "single": single_qubit_errors(p),
            "x": x_flips(p),
            "z": z_flips(p),
        }
        for set_name, errors in error_sets.items():
            err_path = tmp_path / f"{name}-{set_name}.txt"
            err_path.write_text("".join(format_pauli(e) + "\n" for e in errors))
            files = ["--code", str(code_path), "--errors", str(err_path)]
            runs = [["verify", *files], ["verify", "--json", "--oracle", *files]]
            runs += [
                ["diagnose", *files, "--observed", format_label(o, p)]
                for o in range(1 << p)
            ]
            for argv in runs:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    rc = main(argv)
                key = " ".join([name, set_name, *(a for a in argv if a not in files)])
                out[key] = [rc, buf.getvalue()]
    return out


def _five2_seed_with(i, token):
    """The seed tokens of the five-qubit golden code with term i replaced;
    term 5 is ["+", "01010"]."""
    seed = golden_codes()["five2"].to_dict()["seed"]
    assert seed[5] == ["+", "01010"]
    seed[i] = token
    return seed


def _dumped(code):
    """The text that ``code.dump`` writes."""
    buf = io.StringIO()
    code.dump(buf)
    return buf.getvalue()


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "diag3.json").write_text(json.dumps(REP3_GROUP))
    (tmp_path / "rep3.json").write_text(json.dumps(repetition_code().to_dict()))
    (tmp_path / "cat3.json").write_text(json.dumps(cat_code().to_dict()))
    (tmp_path / "xflips.txt").write_text(XFLIPS)
    (tmp_path / "zflips.txt").write_text(ZFLIPS)
    return tmp_path


class TestBuild:
    def test_build_writes_code(self, workdir, capsys):
        out = workdir / "code.json"
        rc = main([
            "build",
            "--cartanion", str(workdir / "diag3.json"),
            "--labels", "000,111",
            "-o", str(out),
        ])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["codeword_spinors"] == ["III", "XXX"]
        assert data["labels"] == ["000", "111"]
        assert data["seed"] == [["+", "000"]]

    def test_build_writes_what_json_dumps_writes(self, workdir, capsys):
        out = workdir / "code.json"
        argv = ["build", "--cartanion", str(workdir / "diag3.json"), "--labels", "000,111"]
        assert main([*argv, "-o", str(out)]) == 0
        code = QuantumCode.from_dict(json.loads(out.read_text()))
        assert out.read_text() == json.dumps(code.to_dict(), indent=2) + "\n"

    def test_build_prints_what_it_writes(self, tmp_path, capsys):
        # stdout gets the bytes of the -o file: a p=13 seed of two chunks
        (tmp_path / "g.json").write_text(json.dumps(random_group(13, 4).to_dict()))
        argv = ["build", "--cartanion", str(tmp_path / "g.json"), "--labels", "0" * 13]
        assert main([*argv, "-o", str(tmp_path / "c.json")]) == 0
        assert capsys.readouterr().out == ""
        assert main(argv) == 0
        text = (tmp_path / "c.json").read_text()
        assert capsys.readouterr().out == text
        assert text.count('"\n    ],\n    [\n') == (1 << 13) - 1

    @pytest.mark.parametrize("name", sorted(golden_codes()))
    def test_code_text_matches_json_dumps_on_golden_codes(self, name):
        code = golden_codes()[name]
        assert _dumped(code) == json.dumps(code.to_dict(), indent=2) + "\n"

    @pytest.mark.parametrize(
        "cut",
        [slice(0), slice(4100, 4200), slice(0, 4096), slice(4095, 4097)],
        ids=["stabilizer", "cuts-in-chunk-2", "chunk-1-cut", "cuts-across-chunks"],
    )
    def test_code_text_matches_json_dumps_across_chunks(self, cut):
        # 2^13 terms, two chunks of rows, term k at string k; a chunk whose
        # every term is cut writes no row
        group = random_group(13, 4)
        seed = seed_state(group.normalized(0), 0)
        assert len(seed) == 1 << 13
        if cut != slice(0):
            seed = punctured_seed(seed, range(1 << 13)[cut])
        code = build_code(group, [0, 5], seed=seed)
        assert _dumped(code) == json.dumps(code.to_dict(), indent=2) + "\n"

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_code_text_matches_json_dumps(self, data):
        p = data.draw(st.integers(1, 8), label="p")
        group = random_group(p, data.draw(st.integers(0, 10**6), label="group"))
        base = data.draw(st.integers(0, (1 << p) - 1), label="base")
        seed = seed_state(group.normalized(base), base)
        kind = data.draw(st.sampled_from(["stabilizer", "punctured", "explicit"]))
        if kind == "punctured" and len(seed.terms) > 2:
            strings = sorted(seed.strings)
            removed = data.draw(
                st.lists(
                    st.sampled_from(strings),
                    min_size=2,
                    max_size=len(strings) - 1,
                    unique=True,
                ),
                label="removed",
            )
            seed = punctured_seed(seed, removed)
        elif kind == "explicit":
            strings = data.draw(
                st.lists(st.integers(0, (1 << p) - 1), min_size=1, unique=True),
                label="strings",
            )
            units = data.draw(
                st.lists(st.integers(0, 3), min_size=len(strings), max_size=len(strings)),
                label="units",
            )
            seed = SeedState(tuple(zip(units, sorted(strings))), p, base)
        labels = data.draw(
            st.lists(st.integers(1, (1 << p) - 1), max_size=4, unique=True),
            label="labels",
        )
        code = build_code(group, [0, *labels], seed=seed)
        assert _dumped(code) == json.dumps(code.to_dict(), indent=2) + "\n"

    def test_build_bad_label_is_usage_error(self, workdir, capsys):
        rc = main([
            "build",
            "--cartanion", str(workdir / "diag3.json"),
            "--labels", "111,000",
        ])
        assert rc == 2

    def test_build_punctured(self, tmp_path, capsys):
        group = {"width": 3, "generators": ["XII", "IXI", "IIX"]}
        (tmp_path / "g.json").write_text(json.dumps(group))
        rc = main([
            "build",
            "--cartanion", str(tmp_path / "g.json"),
            "--labels", "000,100",
            "--puncture", "011,101",
            "-o", str(tmp_path / "c.json"),
        ])
        assert rc == 0
        data = json.loads((tmp_path / "c.json").read_text())
        assert data["seed_origin"] == "punctured"
        assert len(data["seed"]) == 6


class TestVerify:
    def test_correctable_exit_zero(self, workdir, capsys):
        rc = main([
            "verify",
            "--code", str(workdir / "rep3.json"),
            "--errors", str(workdir / "xflips.txt"),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verdict: correctable" in out
        assert out.count("\n") >= 9  # header + 8 rows + verdict

    def test_collision_exit_one(self, workdir, capsys):
        rc = main([
            "verify",
            "--code", str(workdir / "cat3.json"),
            "--errors", str(workdir / "zflips.txt"),
        ])
        out = capsys.readouterr().out
        assert rc == 1
        assert "collision" in out

    def test_json_output(self, workdir, capsys):
        rc = main([
            "verify", "--json",
            "--code", str(workdir / "rep3.json"),
            "--errors", str(workdir / "xflips.txt"),
        ])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["correctable"] is True
        assert len(payload["entries"]) == 8

    def test_oracle_flag(self, workdir, capsys):
        rc = main([
            "verify", "--oracle",
            "--code", str(workdir / "rep3.json"),
            "--errors", str(workdir / "xflips.txt"),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "oracle confirmed" in out

    def _punctured(self, tmp_path, generators, labels, cut, errors):
        """Build a punctured code through the CLI; return its verify files."""
        group = tmp_path / "group.json"
        group.write_text(json.dumps({"width": len(cut[0]), "generators": generators}))
        code = tmp_path / "code.json"
        assert main([
            "build", "--cartanion", str(group), "--labels", ",".join(labels),
            "--puncture", ",".join(cut), "-o", str(code),
        ]) == 0
        err_path = tmp_path / "errors.txt"
        err_path.write_text("".join(format_pauli(e) + "\n" for e in errors))
        return ["--code", str(code), "--errors", str(err_path)]

    def test_oracle_refuted_punctured_code_exits_one(self, tmp_path, capsys):
        # distinct labels for every single-qubit error, yet the cut seed
        # fails dense Knill-Laflamme, and the oracle sees it
        errors = single_qubit_errors(5)
        files = self._punctured(
            tmp_path,
            ["YZXIX", "ZZZXX", "IZYXY", "IXIXZ", "ZXYYY"],
            ["00000", "01011"],
            ["00000", "10000"],
            errors,
        )
        code = QuantumCode.from_dict(json.loads(Path(files[1]).read_text()))
        assert check_correctable(code, errors).correctable
        assert not check_knill_laflamme(code, errors).passed
        assert main(["verify", *files]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "verdict: correctable" not in lines
        assert lines[-3].startswith("verdict: refuted by the oracle")
        assert lines[-1].startswith("note: oracle DISAGREES with labels")
        assert main(["verify", "--json", *files]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["correctable"] is True
        assert payload["oracle"].startswith("oracle DISAGREES with labels")

    def test_oracle_confirmed_punctured_code_exits_zero(self, tmp_path, capsys):
        errors = x_flips(4)
        files = self._punctured(
            tmp_path,
            ["IIYI", "XYIY", "YYYZ", "XXIZ"],
            ["0000", "1110"],
            ["0000", "1111"],
            errors,
        )
        assert main(["verify", *files]) == 0
        out = capsys.readouterr().out
        assert "verdict: correctable" in out.splitlines()
        assert "oracle confirmed" in out

    def test_malformed_file_exit_two(self, workdir, capsys):
        bad = workdir / "bad.json"
        bad.write_text("{not json")
        rc = main([
            "verify",
            "--code", str(bad),
            "--errors", str(workdir / "xflips.txt"),
        ])
        assert rc == 2

    def test_float_width_exit_two(self, workdir, capsys):
        data = json.loads((workdir / "rep3.json").read_text())
        data["width"] = 3.9
        bad = workdir / "float_width.json"
        bad.write_text(json.dumps(data))
        rc = main([
            "verify",
            "--code", str(bad),
            "--errors", str(workdir / "xflips.txt"),
        ])
        assert rc == 2
        assert "width must be an integer, got 3.9" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, edit, message",
        [
            ("five2", {"seed": [["+", "00000"]]},
             "stabilizer seed: 1 terms, but the closure seed of its group has 16"),
            ("rep3", {"seed_base": "111"},
             "stabilizer seed term 0 is 000, 111 in the closure seed of its group"),
            ("five2", {"seed": _five2_seed_with(5, ["-", "01010"])},
             "stabilizer seed term 5 (01010) is -, + in the closure seed of its group"),
            ("five2", {"seed": _five2_seed_with(5, ["+", "01011"])},
             "stabilizer seed term 5 is 01011, 01010 in the closure seed of its group"),
        ],
        ids=["cut-seed", "edited-base", "flipped-unit", "changed-string"],
    )
    def test_seed_that_cannot_be_the_closure_seed_exit_two(
        self, tmp_path, capsys, name, edit, message
    ):
        # still marked stabilizer, the edited seed is refused; marked
        # explicit, it loads and gets the algebraic-only verdict
        code = golden_codes()[name]
        errors = tmp_path / "errors.txt"
        errors.write_text("".join(format_pauli(e) + "\n" for e in golden_error_sets()[name]))
        path = tmp_path / "edited.json"
        argv = ["verify", "--code", str(path), "--errors", str(errors)]
        data = {**code.to_dict(), **edit}
        path.write_text(json.dumps(data))
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {path}: bad code file: {message}\n"
        path.write_text(json.dumps({**data, "seed_origin": "explicit"}))
        assert main(argv) in (0, 1)
        assert "error" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, at, token",
        [
            # the string and the object, iterated, spell the term they replace
            ("y1", 0, "+0"),
            ("five2", 5, {"+": 0, "01010": 0}),
            ("five2", 5, ["+"]),
            ("five2", 5, ["+", "01010", "0"]),
        ],
        ids=["string", "object", "one-item", "three-items"],
    )
    def test_a_seed_token_that_is_no_pair_exits_two(self, tmp_path, capsys, name, at, token):
        data = golden_codes()[name].to_dict()
        data["seed"][at] = token
        path = tmp_path / "token.json"
        path.write_text(json.dumps(data))
        assert main(["classify", "--code", str(path)]) == 2
        message = f"seed term {at} is not a [sign, bits] pair: {token!r}"
        assert capsys.readouterr().err == f"error: {path}: bad code file: {message}\n"

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"width": 2, "seed": [["+", "00"]], "codeword_spinors": ["II"], "labels": ["00"]},
             "seed width does not match the group"),
            ({"labels": ["000"]}, "codeword/label count mismatch"),
            ({"codeword_spinors": [], "labels": []}, "no coset labels given"),
            # ZII lies in the group, so its coset is the zero label's
            ({"codeword_spinors": ["ZII", "XXX"]},
             "the first codeword operator must be the identity"),
            ({"codeword_spinors": ["III", "XXX", "XXX"], "labels": ["000", "111", "111"]},
             "duplicate coset label 111"),
        ],
        ids=["seed-width", "count-mismatch", "dimension-0", "first-not-identity",
             "repeated-label"],
    )
    def test_inconsistent_code_fields_exit_two(self, workdir, capsys, edit, message):
        data = {**json.loads((workdir / "rep3.json").read_text()), **edit}
        path = workdir / "edited.json"
        path.write_text(json.dumps(data))
        rc = main(["verify", "--code", str(path), "--errors", str(workdir / "xflips.txt")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {path}: bad code file: {message}\n"

    def test_an_error_file_of_comments_only_exits_two(self, workdir, capsys):
        path = workdir / "comments.txt"
        path.write_text("# no errors\n\n  # here either\n")
        rc = main(["verify", "--code", str(workdir / "rep3.json"), "--errors", str(path)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {path}: error file contains no Pauli strings\n"
        )

    def test_an_undecodable_error_file_exits_two_naming_it(self, workdir, capsys):
        path = workdir / "undecodable.txt"
        path.write_bytes(b"III\n\xff\n")
        rc = main(["verify", "--code", str(workdir / "rep3.json"), "--errors", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "can't decode byte 0xff" in err

    @pytest.mark.parametrize("field", ["generators", "seed", "codeword_spinors", "labels"])
    def test_a_string_in_place_of_a_list_exits_two(self, workdir, capsys, field):
        code = json.loads((workdir / "rep3.json").read_text())
        if field == "generators":
            code["cartanion"]["generators"] = "ZII"
        else:
            code[field] = "III"
        path = workdir / "string-field.json"
        path.write_text(json.dumps(code))
        rc = main(["verify", "--code", str(path), "--errors", str(workdir / "xflips.txt")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {path}: bad code file: {field} must be a list, got str\n"
        )

    def test_a_string_of_generators_exits_two(self, workdir, capsys):
        # it used to load as the group generated by Z
        path = workdir / "string-group.json"
        path.write_text(json.dumps({"width": 1, "generators": "Z"}))
        assert main(["build", "--cartanion", str(path), "--labels", "0"]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: bad group file: generators must be a list, got str\n"
        )

    def test_a_file_that_is_no_object_exits_two(self, workdir, capsys):
        path = workdir / "list.json"
        path.write_text("[]")
        rc = main(["verify", "--code", str(path), "--errors", str(workdir / "xflips.txt")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {path}: bad code file: the top level must be a JSON object, got list\n"
        )

    @pytest.mark.parametrize("cartanion", [[], "abc", 5])
    def test_a_cartanion_that_is_no_object_exits_two(self, workdir, capsys, cartanion):
        # it used to exit 2 on json's "list indices must be integers"
        code = json.loads((workdir / "rep3.json").read_text())
        code["cartanion"] = cartanion
        path = workdir / "bad-cartanion.json"
        path.write_text(json.dumps(code))
        rc = main(["verify", "--code", str(path), "--errors", str(workdir / "xflips.txt")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {path}: bad code file: cartanion must be a JSON object, "
            f"got {type(cartanion).__name__}\n"
        )

    def test_a_group_file_without_generators_exits_two(self, workdir, capsys):
        path = workdir / "no-generators.json"
        path.write_text(json.dumps({"width": 1}))
        assert main(["build", "--cartanion", str(path), "--labels", "0"]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: bad group file: missing key 'generators'\n"
        )

    def test_width_mismatch_exit_two(self, workdir, capsys):
        wide = workdir / "wide.txt"
        wide.write_text("IIII\nXIII\n")
        rc = main([
            "verify",
            "--code", str(workdir / "rep3.json"),
            "--errors", str(wide),
        ])
        assert rc == 2

    def test_width_mismatch_past_pigeonhole_exit_two(self, workdir, capsys):
        # 16 five-qubit errors x 2 codewords exceed the 2^3 labels of rep3
        wide = workdir / "single5.txt"
        wide.write_text(
            "".join(format_pauli(e) + "\n" for e in single_qubit_errors(5))
        )
        rc = main([
            "verify",
            "--code", str(workdir / "rep3.json"),
            "--errors", str(wide),
        ])
        assert rc == 2
        assert "error width 5 != code width 3" in capsys.readouterr().err

    def test_oracle_skipped_past_width_cap(self, tmp_path, capsys):
        import json as _json

        from cosetqec import build_code
        from cosetqec.golden import diagonal_group

        code = build_code(diagonal_group(13), [0, 1])
        path = tmp_path / "wide.json"
        path.write_text(_json.dumps(code.to_dict()))
        errfile = tmp_path / "e.txt"
        errfile.write_text("I" * 13 + "\n")
        rc = main([
            "verify", "--oracle",
            "--code", str(path),
            "--errors", str(errfile),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        # the note quotes the oracle's own refusal of the width
        assert out.splitlines()[-1] == (
            "note: oracle skipped (width 13 exceeds the dense-state cap of 12); "
            "algebraic results only"
        )

    def test_pigeonhole_verdict(self, workdir, capsys):
        crowd = workdir / "crowd.txt"
        # 6 errors x 2 codewords = 12 > 8 cosets: refused by counting
        crowd.write_text("III\nXII\nIXI\nIIX\nXXI\nXIX\n")
        rc = main([
            "verify",
            "--code", str(workdir / "rep3.json"),
            "--errors", str(crowd),
        ])
        out = capsys.readouterr().out
        assert rc == 1
        assert "pigeonhole" in out


class TestClassify:
    def test_type_i(self, workdir, capsys):
        rc = main(["classify", "--code", str(workdir / "rep3.json")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "type: I" in out
        assert "additive: yes" in out
        assert "classical correspondence: linear\n" in out

    def test_type_ii_is_nonlinear(self, workdir, capsys):
        code = workdir / "open.json"
        assert main([
            "build",
            "--cartanion", str(workdir / "diag3.json"),
            "--labels", "000,100,010",
            "-o", str(code),
        ]) == 0
        rc = main(["classify", "--code", str(code)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "type: II" in out
        assert "classical correspondence: nonlinear\n" in out


class TestSearch:
    def test_exhaustive(self, workdir, capsys, tmp_path):
        out = tmp_path / "found.json"
        rc = main([
            "search",
            "--errors", str(workdir / "xflips.txt"),
            "--k", "2",
            "--strategy", "exhaustive",
            "-o", str(out),
        ])
        assert rc == 0
        data = json.loads(out.read_text())
        assert len(data["labels"]) == 2

    def test_random_not_found(self, workdir, capsys):
        rc = main([
            "search",
            "--errors", str(workdir / "zflips.txt"),
            "--k", "8",  # 4 errors x 8 > 8 cosets: impossible
            "--strategy", "random",
            "--budget", "10",
        ])
        assert rc == 1

    def test_negative_budget_exits_2(self, workdir, capsys):
        rc = main([
            "search",
            "--errors", str(workdir / "xflips.txt"),
            "--k", "2",
            "--budget", "-5",
        ])
        assert rc == 2
        assert capsys.readouterr().err == "error: budget must be at least 0, got -5\n"

    def test_zero_workers_exits_2(self, workdir, capsys):
        rc = main([
            "--workers", "0",
            "search",
            "--errors", str(workdir / "xflips.txt"),
            "--k", "2",
        ])
        assert rc == 2
        assert capsys.readouterr().err == "error: workers must be at least 1, got 0\n"

    def test_workers_option_reaches_the_scan(self, workdir, monkeypatch):
        import cosetqec.cli as cli
        import cosetqec.search as search

        seen = {}
        real_search, real_random = cli.search_code, search._random_search

        def spy_search(*args, **kwargs):
            seen["cli"] = kwargs["workers"]
            return real_search(*args, **kwargs)

        def spy_random(errors, k_target, budget, seed, workers):
            seen["scan"] = workers
            return real_random(errors, k_target, budget, seed, workers)

        monkeypatch.setattr(cli, "search_code", spy_search)
        monkeypatch.setattr(search, "_random_search", spy_random)
        rc = main([
            "--workers", "2",
            "search",
            "--errors", str(workdir / "xflips.txt"),
            "--k", "2",
            "--budget", "200",
        ])
        assert rc == 0
        assert seen == {"cli": 2, "scan": 2}


class TestDiagnose:
    def test_lookup(self, workdir, capsys):
        rc = main([
            "diagnose",
            "--code", str(workdir / "rep3.json"),
            "--errors", str(workdir / "xflips.txt"),
            "--observed", "010",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "IXI" in out

    def test_unknown_syndrome(self, workdir, capsys):
        short = workdir / "short.txt"
        short.write_text("III\nXII\n")
        rc = main([
            "diagnose",
            "--code", str(workdir / "rep3.json"),
            "--errors", str(short),
            "--observed", "010",
        ])
        assert rc == 1
        assert "unknown syndrome" in capsys.readouterr().out

    def test_uncorrectable_pairing(self, workdir, capsys):
        rc = main([
            "diagnose",
            "--code", str(workdir / "cat3.json"),
            "--errors", str(workdir / "zflips.txt"),
            "--observed", "100",
        ])
        assert rc == 1
        assert "does not correct" in capsys.readouterr().out


class TestGoldenOutputs:
    def test_verify_and_diagnose_output_pinned(self, tmp_path):
        # recorded before the syndrome table was shared between the
        # verdict and the listing or lookup
        want = json.loads(GOLDEN_OUTPUTS.read_text())
        assert golden_cli_runs(tmp_path) == want

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify"],
            ["verify", "--json", "--oracle"],
            ["diagnose", "--observed", "010"],
            ["diagnose", "--observed", "111"],
        ],
    )
    def test_table_built_once(self, workdir, capsys, monkeypatch, argv):
        rows = verify._rows
        calls = []

        def counting(code, errors):
            calls.append(code)
            return rows(code, errors)

        monkeypatch.setattr(verify, "_rows", counting)
        main([
            argv[0],
            "--code", str(workdir / "rep3.json"),
            "--errors", str(workdir / "xflips.txt"),
            *argv[1:],
        ])
        assert len(calls) == 1


class TestSelftest:
    def test_tap_output(self, capsys):
        rc = main(["selftest", "--max-width", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("1..")
        assert all(l.startswith("ok") for l in lines[1:])

    @pytest.mark.parametrize("width", ["0", "-3"])
    def test_max_width_below_one_refused(self, width, capsys):
        # both used to run a reduced suite and exit 0
        rc = main(["selftest", "--max-width", width])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == f"error: max width must be at least 1, got {width}\n"


class TestInternalViolations:
    """Exit status 3: a structural self-check failed, shown on stderr as
    ``internal violation:``, or a self-test check reported ``not ok``."""

    def test_broken_syndrome_additivity_exits_3(self, workdir, capsys, monkeypatch):
        # one entry of the cached syndrome map is broken: product (1, 1),
        # XII times XXX, gets a wrong label that XOR additivity catches
        real = verify._rows

        def broken(code, errors):
            label = code.group.syndrome_map
            err, word = errors[1], code.codeword_ops[1]
            bad = (err.x ^ word.x, err.z ^ word.z)
            code.group.__dict__["syndrome_map"] = lambda x, z: label(x, z) ^ ((x, z) == bad)
            return real(code, errors)

        monkeypatch.setattr(verify, "_rows", broken)
        files = ["--code", str(workdir / "rep3.json"), "--errors", str(workdir / "xflips.txt")]
        rc = main(["verify", *files])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert captured.err == "internal violation: syndrome additivity failed at entry (1, 1)\n"

    def test_a_search_result_that_fails_reverification_exits_3(
        self, workdir, capsys, monkeypatch, tmp_path
    ):
        refuted = verify.Verdict(collision=(0, 0, 1, 1))
        monkeypatch.setattr(cli, "check_correctable", lambda code, errors: refuted)
        out = tmp_path / "found.json"
        rc = main([
            "search",
            "--errors", str(workdir / "xflips.txt"),
            "--k", "2",
            "--strategy", "exhaustive",
            "-o", str(out),
        ])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == "" and not out.exists()
        assert captured.err.splitlines()[1:] == [
            "internal violation: search returned a code that fails verification"
        ]

    def test_a_failed_oracle_norm_check_exits_3(self, capsys, monkeypatch):
        # every Gram matrix gets a second codeword norm, which the
        # Knill-Laflamme check of the self-test refuses as InternalOracleError
        import cosetqec.oracle as oracle

        real = oracle._upper_gram

        def skewed(states):
            upper = real(states)
            upper[1][0] = (upper[1][0][0] + 1, upper[1][0][1])
            return upper

        monkeypatch.setattr(oracle, "_upper_gram", skewed)
        rc = main(["selftest", "--max-width", "2"])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert captured.err == (
            "internal violation: codeword norms diverged; Pauli action is broken\n"
        )

    def test_a_failed_assert_exits_3(self, workdir, capsys, monkeypatch):
        # a syndrome map that sends everything to 0 puts the solved member
        # of label 111 off its coset, which _solve_member's assert catches
        monkeypatch.setattr(StabilizerGroup, "syndrome_map", lambda self, x, z: 0)
        argv = ["build", "--cartanion", str(workdir / "diag3.json"), "--labels", "000,111"]
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert captured.err == "internal violation: solved member of 7 is off its coset\n"

    def test_a_failed_selftest_check_is_not_ok_with_its_detail(self, capsys, monkeypatch):
        import cosetqec.selftest as selftest
        from cosetqec.oracle import OracleReport

        violations = tuple(f"violation {n}" for n in range(4))
        monkeypatch.setattr(
            selftest,
            "check_syndrome_orthogonality",
            lambda code, errors: OracleReport("orthogonality", 1, violations),
        )
        rc = main(["selftest", "--max-width", "2"])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 3
        failed = [line for line in lines if line.startswith("not ok")]
        assert failed == [
            f"not ok {n} - syndrome-orthogonality {name} # violation 0; violation 1; violation 2"
            for n, name in ((5, "rep3"), (7, "cat3"), (9, "bell2"), (11, "y1"))
        ]
        assert len(lines) == 14 and lines[0] == "1..13"


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cosetqec", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "cosetqec" in proc.stdout


def _set_seed_term(data):
    data["seed"][0] = ["+", 5]


def _set_label(data):
    data["labels"][1] = 7


def _set_spinor(data):
    data["codeword_spinors"][1] = None


def _set_generator(data):
    data["cartanion"]["generators"][0] = 3


def _set_seed_base(data):
    data["seed_base"] = 1


NOT_JSON = "{not json"


def _not_json(data):
    return NOT_JSON


class TestMalformedFiles:
    """A group or code file that is not JSON, or whose content has the
    wrong JSON type, is a format error: exit 2 and one error line naming
    the file once, not a traceback; a syntax error keeps its line and
    column."""

    def _assert_format_error(self, capsys, rc, path, text):
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.count(str(path)) == 1
        if text == NOT_JSON:
            assert f"error: {path}:1:2: bad " in err

    @pytest.mark.parametrize(
        "content",
        [
            {"width": 1, "generators": [5]},
            {"width": 3},
            {"width": 3, "generators": 7},
            [{"width": 3, "generators": ["ZII", "IZI", "IIZ"]}],
            NOT_JSON,
        ],
        ids=[
            "int-generator", "no-generators", "int-generators", "top-level-list",
            "not-json",
        ],
    )
    def test_build_group_file(self, tmp_path, capsys, content):
        path = tmp_path / "group.json"
        text = content if content == NOT_JSON else json.dumps(content)
        path.write_text(text)
        rc = main(["build", "--cartanion", str(path), "--labels", "000,111"])
        self._assert_format_error(capsys, rc, path, text)

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["build", "--cartanion", "{path}", "--labels", "000"], "group"),
            (["classify", "--code", "{path}"], "code"),
        ],
        ids=["group", "code"],
    )
    def test_deeply_nested_json(self, tmp_path, capsys, argv, name):
        # deeper than the decoder recurses: it used to end in a traceback
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        rc = main([arg.format(path=path) for arg in argv])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: {path}: bad {name} file: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "edit",
        [
            _set_seed_term, _set_label, _set_spinor, _set_generator, _set_seed_base,
            _not_json,
        ],
    )
    def test_verify_code_file(self, workdir, capsys, edit):
        data = json.loads((workdir / "rep3.json").read_text())
        text = edit(data) or json.dumps(data)  # the edits return None
        path = workdir / "bad-code.json"
        path.write_text(text)
        rc = main(["verify", "--code", str(path), "--errors", str(workdir / "xflips.txt")])
        self._assert_format_error(capsys, rc, path, text)


class TestUnreadablePaths:
    """A path that cannot be read or written is a usage error: exit 2 and
    one error line naming it, not a traceback."""

    @pytest.mark.parametrize(
        "argv, bad",
        [
            (["verify", "--code", "{d}", "--errors", "{d}/xflips.txt"], "{d}"),
            (["verify", "--code", "{d}/rep3.json", "--errors", "{d}"], "{d}"),
            (["build", "--cartanion", "{d}", "--labels", "000,111"], "{d}"),
            (
                ["build", "--cartanion", "{d}/diag3.json", "--labels", "000,111",
                 "-o", "{d}/missing/code.json"],
                "{d}/missing/code.json",
            ),
        ],
    )
    def test_exits_2_naming_the_path(self, workdir, capsys, argv, bad):
        rc = main([arg.format(d=workdir) for arg in argv])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert bad.format(d=workdir) in err

    def test_other_os_errors_are_not_path_errors(self, workdir, monkeypatch, capsys):
        """An OSError that names no path (a closed pipe on stdout) is not
        reported as a usage error: it exits 141, as a shell reports a
        writer that a pipe killed, and prints nothing."""

        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        argv = ["verify", "--code", str(workdir / "rep3.json"),
                "--errors", str(workdir / "xflips.txt")]
        assert main(argv) == 141
        assert capsys.readouterr().err == ""


def _child(argv, stdout, stderr):
    """``python -m cosetqec *argv`` in a child that finds this package,
    its stdout block-buffered as it is by default on a pipe."""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.Popen(
        [sys.executable, "-m", "cosetqec", *argv],
        stdout=stdout,
        stderr=stderr,
        env=env,
    )


class TestClosedStdout:
    """A reader that leaves early ends the command with status 141 and
    nothing on stderr: no traceback, and no error in the exit flush."""

    def test_build_piped_into_a_one_byte_reader(self, tmp_path):
        # the p=16 file is 1.6 MB, far more than a pipe buffer holds
        p = 16
        group = random_group(p, 1)
        labels = max_dimension(group, single_qubit_errors(p)).labels
        (tmp_path / "group.json").write_text(json.dumps(group.to_dict()))
        argv = ["build", "--cartanion", str(tmp_path / "group.json"),
                "--labels", ",".join(format_label(lab, p) for lab in labels)]
        with open(tmp_path / "err.txt", "wb") as err:
            proc = _child(argv, subprocess.PIPE, err)
            assert proc.stdout.read(1) == b"{"
            proc.stdout.close()
            assert proc.wait(timeout=120) == 141
        # no traceback, and no "Exception ignored" from the exit flush
        assert (tmp_path / "err.txt").read_text() == ""

    def test_short_output_into_a_pipe_with_no_reader(self, workdir):
        # all of classify's lines fit in the buffer: the write fails only
        # when main flushes stdout
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = _child(
                ["classify", "--code", str(workdir / "rep3.json")],
                write_end,
                subprocess.PIPE,
            )
        finally:
            os.close(write_end)
        stderr = proc.communicate(timeout=120)[1]
        assert proc.returncode == 141
        assert stderr == b""
