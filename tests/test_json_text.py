"""``json_text`` writes ``json.dumps(value, indent=2, sort_keys=True)`` byte
for byte.  It is checked on every payload the CLI emits for the golden and
failing-output tables, and on drawn JSON values: non-ASCII and escape
characters, empty containers, bools next to ints and big ints.  A value
``json`` rejects raises ``TypeError`` in both, and so do floats and keys
that are not strings, which the program never writes.

``StrataComplex.dumps`` writes each shared stratum and maps dict once and
splices the rest in; it is checked against the same reference, applied to
``helpers.document_model`` (each entry built from its stratum's fields),
on documents that share in every way the program makes them: built, loaded
back, basis-changed (nothing shared), products, a large ``N``-gon and a
complex with one stratum swapped for an equal copy, and one whose name and
a component hold a NUL, the character ``dumps`` cuts its texts at.
``to_json_dict`` is the parse of ``dumps()``, so it is checked against the
model itself.  ``scenario`` writes ``dumps()``, so its stdout is checked
against the reference as well."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_failing_outputs as failing
import test_golden_outputs as golden
from helpers import (
    SIGN_MUTANTS,
    basis_changed,
    bench_inputs,
    document_model,
    sign_mutant,
    swap_face,
)
from ssweight import cli
from ssweight.scenarios import build, builtin_specs, parse_spec
from ssweight.strata import StrataComplex, json_text


def reference(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


@pytest.fixture
def payloads(monkeypatch):
    """Every value the CLI writes as JSON while the test runs."""
    seen = []

    def recording(value):
        seen.append(value)
        return json_text(value)

    monkeypatch.setattr(cli, "json_text", recording)
    return seen


# the golden commands that write JSON; an input error (exit 2) writes none
JSON_COMMANDS = sorted(
    a for a, (_, code) in golden.GOLDEN.items() if code != 2 and ("json" in a or a.startswith("scenario"))
)


@pytest.mark.parametrize("argv", JSON_COMMANDS)
def test_golden_payloads(capsys, payloads, argv):
    cli.main(argv.split(" "))
    out = capsys.readouterr().out
    command, *rest = argv.split(" ")
    if command == "scenario":
        # the document is written by dumps(), not passed as a payload
        assert out == reference(document_model(build(parse_spec(rest[0])))) + "\n"
        return
    assert payloads
    assert all(json_text(p) == reference(p) for p in payloads)


@pytest.mark.parametrize("command", failing.COMMANDS)
@pytest.mark.parametrize("name", SIGN_MUTANTS)
def test_failing_output_payloads(capsys, tmp_path, payloads, name, command):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(sign_mutant(name)), encoding="utf-8")
    cli.main([*command.split(" "), "--input", str(path), "--format", "json"])
    capsys.readouterr()
    assert payloads
    assert all(json_text(p) == reference(p) for p in payloads)


BUILTINS = [s.label() for s in builtin_specs()]
# a bare label is a built document, as the benchmark builds its rungs
DOCUMENTS = [
    *BUILTINS,
    "ngon:640",
    "tetrahedron x P1",
    "ngon:10 x P2",
    *(f"loaded {label}" for label in BUILTINS),
    *(f"basis-changed {label}" for label in BUILTINS),
    "swapped tetrahedron",
    "nul tetrahedron",
]


def _document(source: str) -> StrataComplex:
    kind, _, label = source.partition(" ")
    if kind == "loaded":
        return StrataComplex.loads(build(parse_spec(label)).dumps())
    if kind == "basis-changed":
        return StrataComplex.from_json_dict(basis_changed(label))
    if kind == "swapped":
        # one face's stratum is an equal copy of the stratum it shared
        sc = build(parse_spec(label))
        swap_face(sc, (1, 2))
        return sc
    if kind == "nul":
        sc = build(parse_spec(label))
        sc.name, sc.components[0] = "tetra\0hedron", "S\x001"
        return sc
    return bench_inputs().build_rung(source)


@pytest.mark.parametrize("source", DOCUMENTS)
def test_documents(source):
    sc = _document(source)
    assert sc.dumps() == reference(document_model(sc))
    assert sc.to_json_dict() == document_model(sc)


scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**80), max_value=10**80)
    | st.text()
    | st.text(alphabet=st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é€😀 '))
)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=25,
)


@given(values)
@settings(max_examples=300, deadline=None)
def test_drawn_values(value):
    assert json_text(value) == reference(value)


@pytest.mark.parametrize(
    "value",
    [Fraction(1, 2), {1, 2}, b"bytes", 1j, object(), [1, {"a": {2}}], {(1, 2): 0}, {"a": 1, 2: 0}],
    # a bare object's repr holds its address, which differs on every run
    ids=lambda v: "object()" if type(v) is object else repr(v),
)
def test_rejects_what_json_rejects(value):
    with pytest.raises(TypeError):
        reference(value)
    with pytest.raises(TypeError):
        json_text(value)


@pytest.mark.parametrize("value", [0.5, [1, float("nan")], {1: "a"}, {None: 0}], ids=repr)
def test_rejects_what_the_program_never_writes(value):
    with pytest.raises(TypeError):
        json_text(value)
