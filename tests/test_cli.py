import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ssweight
import ssweight.cli as cli
from helpers import SIGN_MUTANTS, sign_mutant
from ssweight.cli import main
from ssweight.scenarios import builtin_specs


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExitCodes:
    def test_check_all_ngon(self, capsys):
        code, out, _ = run(capsys, "check", "--all", "--scenario", "ngon:3")
        assert code == 0
        assert "0 failed" in out

    def test_validate_broken_input(self, capsys, tmp_path):
        code, out, _ = run(capsys, "scenario", "ngon:3", "-o", str(tmp_path / "g.json"))
        assert code == 0
        doc = json.loads((tmp_path / "g.json").read_text())
        for face in doc["faces"]:
            if face["indices"] == [1]:
                face["pairing"]["0"] = [["0"]]
                face["pairing"]["2"] = [["0"]]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "validate", "--input", str(broken))
        assert code == 1
        assert "pairing not perfect" in out
        assert "face {1}" in out

    def test_usage_error(self, capsys):
        code, _, err = run(capsys, "check", "--scenario", "ngon:3")
        assert code == 2
        assert "--all" in err

    def test_unknown_scenario(self, capsys):
        # no document was read, so the error lists the known kinds and gives
        # no pointer to the document schema
        code, _, err = run(capsys, "e2", "--scenario", "wat")
        assert code == 2
        assert "known: good_reduction_pn, ngon, ngon_x_p1, tetrahedron" in err
        assert cli.SCHEMA_POINTER not in err

    def test_both_sources_rejected(self, capsys, tmp_path):
        p = tmp_path / "x.json"
        p.write_text("{}")
        code, _, err = run(
            capsys, "e2", "--scenario", "ngon:3", "--input", str(p)
        )
        assert code == 2

    def test_shifted_check_failure_is_exit_one(self, capsys, tmp_path):
        code, out, _ = run(capsys, "scenario", "ngon:3", "-o", str(tmp_path / "g.json"))
        doc = json.loads((tmp_path / "g.json").read_text())
        for face in doc["faces"]:
            if len(face["indices"]) == 1:
                face["lefschetz"] = {"0": [["0"]]}
        flat = tmp_path / "flat.json"
        flat.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "check", "--all", "--input", str(flat))
        assert code == 1
        assert "FAIL" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["e2", "--scenario", "ngon:abc"],
        ["scenario", "cellular:1,x"],
        ["polygons", "--slopes", "abc", "--jumps", "0"],
        ["polygons", "--slopes", "1/0", "--jumps", "0"],
        ["polygons", "--slopes", "0", "--jumps", "1/0"],
        ["validate", "--input", "{directory}"],
        ["scenario", "ngon:"],
    ],
)
def test_input_errors_exit_two(capsys, tmp_path, argv):
    argv = [str(tmp_path) if a == "{directory}" else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "change, expected",
    [
        (lambda doc: doc["faces"].append(dict(doc["faces"][0])), 2),
        (lambda doc: doc["restrictions"].append(dict(doc["restrictions"][0])), 2),
        (lambda doc: doc["restrictions"].append(dict(doc["restrictions"][0], to=[2, 3])), 1),
        (lambda doc: doc["components"].append("Y4"), 1),
    ],
    ids=["face-twice", "restriction-twice", "restriction-off-nerve", "component-without-stratum"],
)
def test_dropped_data_is_not_silent(capsys, tmp_path, change, expected):
    _, text, _ = run(capsys, "scenario", "ngon:3")
    doc = json.loads(text)
    change(doc)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    for argv in (["validate"], ["check", "--all"], ["report"]):
        code, out, err = run(capsys, *argv, "--input", str(path))
        assert code == expected, argv
        if code == 2:
            assert out == "" and err.startswith("error: ")


def _first_face(doc, **changes):
    doc["faces"][0].update(changes)


@pytest.mark.parametrize(
    "change",
    [
        lambda doc: doc.update(dimension=1.7),
        lambda doc: _first_face(doc, indices=[1.9]),
        lambda doc: doc["restrictions"][0].update({"from": [1.5]}),
        lambda doc: _first_face(doc, cohomology={"0": 1.5, "2": 1}),
        lambda doc: doc["faces"][1].update(cohomology={"0": True}),
        lambda doc: _first_face(doc, slope_pure="no"),
        lambda doc: _first_face(doc, slope_pure=1),
        lambda doc: _first_face(doc, pairing={"0": [[True]]}),
        lambda doc: doc.update(components="abc"),
        lambda doc: doc.update(components={"a": 1, "b": 2, "c": 3}),
        lambda doc: doc.update(components=[1, 2, 3]),
        lambda doc: doc.update(name=5),
        lambda doc: doc.update(name=[1]),
        lambda doc: doc.update(schema_version=True),
        lambda doc: _face_at(doc, [1]).update(labels={"0": [1]}),
        lambda doc: _face_at(doc, [1]).update(labels={"0": "ab"}),
    ],
    ids=[
        "float-dimension",
        "float-index",
        "float-restriction-index",
        "float-cohomology-dim",
        "bool-cohomology-dim",
        "string-slope-pure",
        "int-slope-pure",
        "bool-matrix-entry",
        "string-components",
        "object-components",
        "int-components",
        "int-name",
        "list-name",
        "bool-schema-version",
        "int-label",
        "string-labels",
    ],
)
def test_schema_types_are_enforced(capsys, tmp_path, change):
    # a float or a bool where the schema says integer, a non-boolean
    # slope_pure, or a components list, name or labels list that is not made
    # of strings is a schema error rather than a truncated or coerced value
    _assert_schema_error(capsys, tmp_path, change)


def _assert_schema_error(capsys, tmp_path, change):
    """``validate`` of ngon:3 after ``change`` exits 2 with an error only."""
    _, text, _ = run(capsys, "scenario", "ngon:3")
    doc = json.loads(text)
    change(doc)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", "--input", str(path))
    assert code == 2
    assert out == "" and err.startswith("error: ")


def _face_at(doc, indices):
    return next(f for f in doc["faces"] if f["indices"] == indices)


@pytest.mark.parametrize(
    "change",
    [
        *(
            lambda doc, x=x: _face_at(doc, [1])["pairing"].update({"0": [[x]]})
            for x in ("1.0", "1e0", " 1 ", "+1", "1_0")
        ),
        lambda doc: _face_at(doc, [1, 2]).update(cohomology={"0": -1}),
        lambda doc: doc.update(dimension=-1),
        lambda doc: doc.update(components=[]),
        lambda doc: doc.update(schema_version=99),
        lambda doc: doc.update(schema_version=0),
        lambda doc: doc.pop("name"),
    ],
    ids=[
        "decimal-entry",
        "exponent-entry",
        "padded-entry",
        "plus-entry",
        "underscore-entry",
        "negative-cohomology-dim",
        "negative-dimension",
        "empty-components",
        "schema-version-99",
        "schema-version-0",
        "missing-name",
    ],
)
def test_schema_values_are_enforced(capsys, tmp_path, change):
    # a rational string outside the schema's pattern ^-?[0-9]+(/[0-9]+)?$,
    # a negative dimension, no components, no name or a schema_version
    # other than the constant 1 is a schema error, not a value or a verdict
    _assert_schema_error(capsys, tmp_path, change)


def test_schema_version_may_be_omitted(capsys, tmp_path):
    # the schema does not require schema_version; a document without it is
    # read as version 1
    _, text, _ = run(capsys, "scenario", "ngon:3")
    doc = json.loads(text)
    del doc["schema_version"]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, "validate", "--input", str(path)) == (0, "valid: all structural checks passed\n", "")


@pytest.mark.parametrize(
    "target",
    [lambda doc: doc["restrictions"][0]["maps"], lambda doc: _face_at(doc, [1])["pairing"]],
    ids=["restriction-matrix", "face-pairing"],
)
def test_deep_nesting_exits_two(capsys, tmp_path, target):
    # json.loads gives up on nesting past the interpreter's recursion limit;
    # the document is an input error, reported without a traceback
    _, text, _ = run(capsys, "scenario", "ngon:3")
    doc = json.loads(text)
    target(doc)["0"] = "deep"
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc).replace('"deep"', "[" * 5000 + "]" * 5000))
    code, out, err = run(capsys, "validate", "--input", str(path))
    assert code == 2
    assert out == "" and err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("command", ["validate", "e2"])
def test_an_over_long_integer_in_a_document_exits_two(capsys, tmp_path, command):
    # json.loads refuses an integer literal of more than 4,300 digits with a
    # plain ValueError; the document is an input error, reported without a
    # traceback
    _, text, _ = run(capsys, "scenario", "ngon:3")
    doc = json.loads(text)
    doc["dimension"] = "long"
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc).replace('"long"', "9" * 5000))
    code, out, err = run(capsys, command, "--input", str(path))
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.startswith("error: input has a number too long to read: ")


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["polygons", "--slopes", "0", "--jumps", "9" * 5000], "filtration jumps must be integers"),
        (["polygons", "--slopes", "0", "--jumps", "x" * 5000], "filtration jumps must be integers"),
        (["polygons", "--slopes", "9" * 5000, "--jumps", "0"], "comma-separated rationals"),
        (["scenario", "ngon:" + "9" * 5000], "comma-separated integers"),
        (["e2", "--scenario", "ngon:" + ",".join(["3"] * 2500)], "takes one parameter"),
        (["scenario", "n" * 5000], "unknown scenario kind"),
        (["slopes", "--scenario", "ngon:3", "--q", "9" * 5000], "--q must be an integer: "),
        (["polygons", "--slopes", "0", "--jumps", "0", "--q", "9" * 5000], "--q must be an integer: "),
    ],
    ids=[
        "long-jump",
        "long-jumps",
        "long-slope",
        "long-parameter",
        "many-parameters",
        "long-kind",
        "long-degree",
        "long-label",
    ],
)
def test_a_quoted_flag_value_is_bounded(capsys, argv, expected):
    # a flag value of 5,000 characters, an integer too long for int() among
    # them, is an input error that quotes the value shortened, not in full
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "Traceback" not in err
    first = err.splitlines()[0]
    assert first.startswith("error: ") and expected in first and len(first) < 160


def _in_pairing(doc):
    _face_at(doc, [1])["pairing"]["0"] = [["deep"]]


def _as_dimension(doc):
    _face_at(doc, [1])["cohomology"]["0"] = "deep"


def _as_name(doc):
    doc["name"] = "deep"


def _as_degree_key(doc):
    _face_at(doc, [1])["cohomology"]["deep"] = 1


@pytest.mark.parametrize(
    "place, entry, prefix",
    [
        (_in_pairing, "[" * 500 + '"1"' + "]" * 500, "malformed strata document: "),
        (_in_pairing, '"' + "7" * 5000 + '/x"', "malformed strata document: "),
        (_as_dimension, "[" * 500 + "1" + "]" * 500, "the dimension of H^0 must be an integer"),
        (_as_name, '["' + "n" * 3000 + '"]', "name must be a string"),
        (_as_degree_key, '"' + "x" * 3000 + '"', "cohomology key "),
    ],
    ids=["nested", "long", "nested-dimension", "long-name", "long-degree-key"],
)
def test_a_quoted_entry_is_bounded(capsys, tmp_path, place, entry, prefix):
    # a value nested 500 lists deep, or a long string, in a matrix entry, a
    # dimension, the name or a degree key is quoted in the error shortened,
    # not in full
    _, text, _ = run(capsys, "scenario", "ngon:3")
    doc = json.loads(text)
    place(doc)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc).replace('"deep"', entry))
    code, out, err = run(capsys, "validate", "--input", str(path))
    assert code == 2 and out == ""
    first = err.splitlines()[0]
    assert first.startswith("error: " + prefix) and len(first) < 120


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_long_component_name_is_bounded(capsys, tmp_path, fmt):
    # a component without a face is a validation verdict that quotes the
    # component's name shortened, not in full
    _, text, _ = run(capsys, "scenario", "ngon:3")
    doc = json.loads(text)
    doc["components"].append("c" * 3000)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", "--input", str(path), "--format", fmt)
    assert code == 1 and err == ""
    assert "component-without-stratum" in out and "'cccc" in out
    assert max(len(line) for line in out.splitlines()) < 120


def _rekey(obj, key):
    """Move the degree-0 entry of ``obj`` to ``key``."""
    obj[key] = obj.pop("0")


@pytest.mark.parametrize(
    "change",
    [
        *(
            lambda doc, key=key: _rekey(_face_at(doc, [1])["cohomology"], key)
            for key in ("+0", " 0", "0_0", "\u0660", "00", "-1")
        ),
        lambda doc: _face_at(doc, [1])["cohomology"].update({" 0": 5}),
        lambda doc: _rekey(_face_at(doc, [1])["pairing"], "00"),
        lambda doc: _rekey(_face_at(doc, [1])["lefschetz"], "00"),
        lambda doc: _face_at(doc, [1]).update(labels={"00": ["pt"]}),
        lambda doc: _rekey(doc["restrictions"][0]["maps"], "00"),
    ],
    ids=[
        "plus-degree",
        "padded-degree",
        "underscore-degree",
        "arabic-indic-degree",
        "leading-zero-degree",
        "negative-degree",
        "second-key-for-degree",
        "pairing-degree",
        "lefschetz-degree",
        "labels-degree",
        "restriction-degree",
    ],
)
def test_degree_keys_are_canonical(capsys, tmp_path, change):
    # a degree key is 0 or [1-9][0-9]*, so no two keys name one degree and
    # no spelling of a degree loads as another
    _assert_schema_error(capsys, tmp_path, change)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        ["polygons", "--scenario", "tetrahedron", "--q", "1"],
        ["polygons", "--slopes", "", "--jumps", ""],
        ["slopes", "--scenario", "tetrahedron", "--q", "1"],
    ],
    ids=["polygons-empty-degree", "polygons-empty-calculator", "slopes-empty-degree"],
)
def test_empty_slope_multiset(capsys, argv, fmt):
    # H^1 of the tetrahedron configuration is zero: its polygon is the
    # origin alone, drawn as one vertex
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, err) == (0, "")
    if fmt == "text" and argv[0] == "polygons":
        assert out.rstrip("\n").endswith("\n" * 11 + "o")


@pytest.mark.parametrize("flag", ["--slopes", "--jumps", "--q"])
@pytest.mark.parametrize("value", ["1_0", "0.5", "1e0", " 1", "+1"])
def test_polygons_calculator_entries_use_the_schema_form(capsys, flag, value):
    # Python's own parsers accept these spellings; the calculator reads
    # slopes as the schema's rationals and jumps and its label --q as plain
    # integers
    flags = {"--slopes": "0", "--jumps": "0", flag: value}
    code, out, err = run(capsys, "polygons", *(x for item in flags.items() for x in item))
    assert code == 2
    expected = {"--slopes": "rationals", "--jumps": "integers", "--q": "--q must be an integer"}
    assert out == "" and expected[flag] in err


@pytest.mark.parametrize("value", ["1_0", " 1", "+1", "\u0661"])
@pytest.mark.parametrize(
    "argv, expected",
    [
        (["slopes", "--scenario", "ngon:3", "--q", "{}"], "--q must be an integer: "),
        (["polygons", "--scenario", "ngon:3", "--q", "{}"], "--q must be an integer: "),
        (["e2", "--scenario", "ngon:{}"], "scenario parameters must be comma-separated integers"),
        (["scenario", "cellular:1,{}"], "scenario parameters must be comma-separated integers"),
    ],
    ids=["slopes-degree", "polygons-degree", "ngon-parameter", "cellular-parameter"],
)
def test_command_line_integers_are_plain_digits(capsys, argv, expected, value):
    # --q and scenario parameters are read as -?[0-9]+, as --jumps is, not
    # by int(), which reads 1_0 as 10 and also a sign, spaces or other digits
    code, out, err = run(capsys, *(a.replace("{}", value) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: " + expected) and f"{value}'" in err
    assert cli.SCHEMA_POINTER not in err


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("q", ["-1", "-2"])
@pytest.mark.parametrize("command", ["slopes", "polygons"])
def test_negative_degree_exits_two(capsys, command, q, fmt):
    code, out, err = run(capsys, command, "--scenario", "ngon:3", "--q", q, "--format", fmt)
    assert code == 2
    assert out == "" and "nonnegative" in err


@pytest.mark.parametrize("spec", ["ngon:3,4", "good_reduction_pn:2,9", "ngon_x_p1:3,1"])
def test_surplus_scenario_parameters_exit_two(capsys, spec):
    code, out, err = run(capsys, "e2", "--scenario", spec)
    assert code == 2
    assert out == "" and "one parameter" in err


def _written(capsys, tmp_path, change, name="doc.json"):
    """The path of ngon:3's document after ``change``."""
    _, text, _ = run(capsys, "scenario", "ngon:3")
    doc = json.loads(text)
    change(doc)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def _break_pairing(doc):
    _face_at(doc, [1])["pairing"].update({"0": [["0"]], "2": [["0"]]})


def _flatten_lefschetz(doc):
    for face in doc["faces"]:
        if len(face["indices"]) == 1:
            face["lefschetz"] = {"0": [["0"]]}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", ["e2", "check --all", "slopes", "polygons"])
def test_an_invalid_document_gives_the_validate_output(capsys, tmp_path, command, fmt):
    # a command that needs the second page of a document that fails
    # validation writes what validate writes, in the format asked for
    path = str(_written(capsys, tmp_path, _break_pairing))
    want = run(capsys, "validate", "--input", path, "--format", fmt)
    assert want[0] == 1 and want[2] == ""
    assert run(capsys, *command.split(" "), "--input", path, "--format", fmt) == want
    if fmt == "json":
        assert json.loads(want[1])["ok"] is False


@pytest.mark.parametrize(
    "argv",
    [
        ["polygons", "--slopes", "0", "--jumps", "x"],
        ["polygons", "--scenario", "elliptic_stratum"],
        ["check", "--scenario", "ngon:3"],
        ["e2", "--scenario", "ngon:x"],
    ],
    ids=["bad-jumps", "no-slopes", "no-suite", "bad-parameter"],
)
def test_no_schema_pointer_where_no_document_is_malformed(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and cli.SCHEMA_POINTER not in err


@pytest.mark.parametrize(
    "text",
    ["{not json", json.dumps({"schema_version": 1, "dimension": 1, "faces": []})],
    ids=["not-json", "no-name"],
)
def test_a_malformed_document_gets_the_schema_pointer(capsys, tmp_path, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    code, out, err = run(capsys, "e2", "--input", str(path))
    assert (code, out) == (2, "")
    first, pointer = err.splitlines()
    assert first.startswith("error: ") and pointer == cli.SCHEMA_POINTER


_COMMANDS = ["validate", "e2", "check --all", "slopes", "polygons", "report"]


@pytest.mark.parametrize(
    "argv",
    [
        *(
            f"{command} {source} --format {fmt}"
            for command in _COMMANDS
            for source in ("--scenario ngon:3", "--input {flat}", "--input {invalid}")
            for fmt in ("text", "json")
        ),
        *(
            f"polygons --slopes {slopes} --jumps {jumps} --format {fmt}"
            for slopes, jumps in (("0,1/2,1/2,1", "0,0,1,1"), ("1,1", "0,0"))
            for fmt in ("text", "json")
        ),
        "scenario ngon:3",
        "scenario cellular:1,2,1",
    ],
)
def test_the_output_file_gets_what_stdout_gets(capsys, tmp_path, argv):
    # the one writer writes the same bytes to -o as to stdout, with the same
    # exit code: passing and failing checks, an invalid document, the
    # calculator and scenario output
    paths = {
        "{flat}": str(_written(capsys, tmp_path, _flatten_lefschetz, "flat.json")),
        "{invalid}": str(_written(capsys, tmp_path, _break_pairing, "invalid.json")),
    }
    argv = [paths.get(a, a) for a in argv.split(" ")]
    code, out, err = run(capsys, *argv)
    assert err == "" and out
    written = tmp_path / "out.txt"
    assert run(capsys, *argv, "-o", str(written)) == (code, "", "")
    assert written.read_bytes() == out.encode("utf-8")


class TestJsonOutput:
    def test_e2_json(self, capsys):
        code, out, _ = run(capsys, "e2", "--scenario", "tetrahedron", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert doc["abutment"] == {"0": 1, "2": 22, "4": 1}
        cell = next(c for c in doc["cells"] if c["a"] == 0 and c["b"] == 2)
        assert cell["dim"] == 20 and cell["slope"] == "1"

    def test_report_json_has_hodge_vectors(self, capsys):
        code, out, _ = run(
            capsys, "report", "--scenario", "tetrahedron", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        q2 = next(d for d in doc["data"]["degrees"] if d["q"] == 2)
        assert {"i": 1, "j": 1, "dim": 20} in q2["hodge_numbers"]

    def test_check_json_carries_witnesses(self, capsys, tmp_path):
        run(capsys, "scenario", "ngon:3", "-o", str(tmp_path / "g.json"))
        doc = json.loads((tmp_path / "g.json").read_text())
        for face in doc["faces"]:
            if len(face["indices"]) == 1:
                face["lefschetz"] = {"0": [["0"]]}
        flat = tmp_path / "flat.json"
        flat.write_text(json.dumps(doc))
        code, out, _ = run(
            capsys, "check", "--all", "--input", str(flat), "--format", "json"
        )
        assert code == 1
        payload = json.loads(out)
        fails = [c for c in payload["checks"] if c["status"] == "fail"]
        assert fails and all(c["witness"] is not None for c in fails)

    def test_slopes_json(self, capsys):
        code, out, _ = run(
            capsys, "slopes", "--scenario", "ngon:4", "--q", "1", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["degrees"] == [{"q": 1, "slopes": ["0", "1"], "symmetry": "pass"}]

    def test_polygons_calculator(self, capsys):
        code, out, _ = run(
            capsys,
            "polygons",
            "--slopes",
            "1/2,1/2",
            "--jumps",
            "0,1",
            "--format",
            "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["t_N"] == "1" and doc["t_H"] == "1"
        assert doc["admissibility_necessary"]["status"] == "pass"

    @pytest.mark.parametrize("jumps", ["1/2,0", "2.5,0", "0,-3/4"])
    def test_polygons_non_integer_jumps_rejected(self, capsys, jumps):
        code, out, err = run(capsys, "polygons", "--slopes", "0,1", "--jumps", jumps)
        assert code == 2
        assert out == ""
        assert "integers" in err

    def test_scenario_emission_round_trip(self, capsys):
        code, out, _ = run(capsys, "scenario", "elliptic_stratum")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert len(doc["components"]) == 2


@pytest.mark.parametrize("source", [s.label() for s in builtin_specs()] + list(SIGN_MUTANTS))
def test_report_admissibility_is_the_check_witness(capsys, tmp_path, source):
    # each degree's admissibility entry in the report gives the totals and
    # polygons of that degree's weak_admissibility_necessary witness
    if source in SIGN_MUTANTS:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(sign_mutant(source)))
        argv = ["--input", str(path)]
    else:
        argv = ["--scenario", source]
    _, out, _ = run(capsys, "report", "--format", "json", *argv)
    payload = json.loads(out)
    witnesses = {
        r["location"]["q"]: r["witness"]
        for r in payload["results"]
        if r["name"] == "weak_admissibility_necessary"
    }
    entries = {d["q"]: d["admissibility"] for d in payload["data"]["degrees"] if "admissibility" in d}
    assert entries.keys() == witnesses.keys()
    assert entries or not payload["data"]["cycle_generated"]
    for q, adm in entries.items():
        w = witnesses[q]
        assert (adm["t_N"], adm["t_H"]) == (w["t_N"], w["t_H"])
        assert (adm["newton_polygon"], adm["hodge_polygon"]) == (w["newton"], w["hodge"])


class TestDeterminism:
    def test_report_byte_identical(self, capsys):
        _, out1, _ = run(capsys, "report", "--scenario", "tetrahedron", "--format", "json")
        _, out2, _ = run(capsys, "report", "--scenario", "tetrahedron", "--format", "json")
        assert out1 == out2

    def test_check_byte_identical(self, capsys):
        _, out1, _ = run(capsys, "check", "--all", "--scenario", "ngon:3", "--format", "json")
        _, out2, _ = run(capsys, "check", "--all", "--scenario", "ngon:3", "--format", "json")
        assert out1 == out2


class TestSharedPage:
    def test_check_all_builds_each_page_once(self, capsys, monkeypatch):
        import ssweight.checks as checks
        import ssweight.cli as cli
        import ssweight.hodge_lefschetz as hodge_lefschetz
        import ssweight.spectral as spectral

        calls = {"build_e1": 0, "compute_e2": 0}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        for name in calls:
            wrapped = counting(name, getattr(spectral, name))
            for mod in (spectral, cli, checks, hodge_lefschetz):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, wrapped)
        code, out, _ = run(capsys, "check", "--all", "--scenario", "tetrahedron")
        assert code == 0 and "0 failed" in out
        assert "hl_cohomology_fixpoint" in out and "log_hl_h1_ell0" in out
        assert calls == {"build_e1": 1, "compute_e2": 1}


class TestSharedParser:
    def test_parser_is_built_once_per_process(self, capsys, monkeypatch):
        # after the first command of a process, no command builds a parser
        assert run(capsys, "validate", "--scenario", "ngon:3")[0] == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        for argv in (
            ["validate", "--scenario", "ngon:3"],
            ["check", "--all", "--scenario", "ngon:3"],
            ["e2", "--scenario", "ngon:3", "--format", "json"],
            ["check", "--scenario", "ngon:3"],
        ):
            run(capsys, *argv)
        assert built == []
        assert cli.build_parser() is cli.build_parser()

    def test_no_state_leaks_between_commands(self, capsys):
        # usage errors, help and a handler error in the same process leave the
        # next command's output as it is in a process of its own
        assert run(capsys, "frobnicate")[0] == 2
        assert run(capsys, "--help")[0] == 0
        assert run(capsys, "check", "--scenario", "ngon:3")[0] == 2
        code, out, err = run(capsys, "check", "--all", "--scenario", "ngon:3")
        src = str(Path(ssweight.__file__).resolve().parents[1])
        alone = subprocess.run(
            [sys.executable, "-m", "ssweight.cli", "check", "--all", "--scenario", "ngon:3"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=120,
        )
        assert (code, out, err) == (alone.returncode, alone.stdout, alone.stderr)
        assert code == 0 and "0 failed" in out


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["check", "--scenario", "ngon:3"], 2)])
def test_the_package_runs_as_a_module(argv, code):
    # ``python -m ssweight`` is the command line, exit code and all
    src = str(Path(ssweight.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "ssweight", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert done.returncode == code
    assert ("usage: ssweight" in done.stdout) if code == 0 else ("error:" in done.stderr)


def test_running_out_of_memory_exits_two():
    # ``scenario cellular:200000`` builds its stratum in linear memory but
    # writes a dense 200,000 x 200,000 pairing, far past the address space
    # the child allows itself: one error line and exit 2, not a traceback
    # and exit 1, which would read as a failed check
    resource = pytest.importorskip("resource")
    src = str(Path(ssweight.__file__).resolve().parents[1])
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = 512 << 20 if hard == resource.RLIM_INFINITY else min(512 << 20, hard)
    child = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {hard}))\n"
        "from ssweight.cli import main\n"
        "sys.exit(main(['scenario', 'cellular:200000']))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", child],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert (done.returncode, done.stdout, done.stderr) == (2, "", "error: out of memory\n")
