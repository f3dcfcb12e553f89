"""Mutated builtin documents never end in a traceback.

Each example takes a small builtin scenario document, applies a few
mutations at random places (a dropped key, a value of the wrong type, a
ragged or wrongly shaped matrix, a zero denominator, a wrong dimension) and
runs ``validate``, ``check --all`` and ``report`` on it through
``cli.main``.  Every command must return an exit code of the contract
(0 pass, 1 a check or validation fails, 2 a usage or input error).  A
second property changes the nerve itself (a dropped face, a face made as
the union of two faces, a duplicate entry, an extra component) and holds
every data-reading command to the same contract.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from ssweight.cli import main
from ssweight.scenarios import build, parse_spec

SOURCES = {
    label: build(parse_spec(label)).to_json_dict()
    for label in ("ngon:3", "ngon_x_p1:3", "tetrahedron", "elliptic_stratum", "cellular:1,2,1")
}
WRONG_VALUES = (None, True, -1, 0, 2, 1.5, "x", "1/0", "0/0", [], {}, [[]], [["1"], ["1", "0"]])
MATRIX_KINDS = ("ragged", "widen", "deepen")
KINDS = ("drop", "replace", "zero_denominator", "dimension") + MATRIX_KINDS


def _paths(node, path=()):
    """Every path into the document tree, the root included."""
    yield path
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _paths(node[key], path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, path + (i,))


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _is_matrix(node) -> bool:
    return isinstance(node, list) and bool(node) and all(isinstance(row, list) for row in node)


def _mutate(doc, path, kind, value):
    value = copy.deepcopy(value)
    if kind == "dimension":
        doc["dimension"] = value
        return
    if not path:
        return
    parent, key = _get(doc, path[:-1]), path[-1]
    node = parent[key]
    if kind == "drop":
        del parent[key]
    elif kind == "replace":
        parent[key] = value
    elif kind == "zero_denominator":
        parent[key] = "1/0" if isinstance(node, (str, int)) and not isinstance(node, bool) else node
    elif _is_matrix(node):
        # drop an entry of one row, add a column, or add a row
        if kind == "ragged" and node[0]:
            node[0].pop()
        elif kind == "widen":
            for row in node:
                row.append("1")
        elif kind == "deepen":
            node.append(["1"] * len(node[0]))


@st.composite
def mutated_documents(draw):
    label = draw(st.sampled_from(sorted(SOURCES)))
    doc = copy.deepcopy(SOURCES[label])
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(KINDS))
        paths = [p for p in _paths(doc) if kind not in MATRIX_KINDS or _is_matrix(_get(doc, p))]
        path = paths[draw(st.integers(0, len(paths) - 1))] if paths else ()
        if kind == "dimension":
            value = draw(st.one_of(st.integers(-1, 4), st.sampled_from(WRONG_VALUES)))
        else:
            value = draw(st.sampled_from(WRONG_VALUES))
        _mutate(doc, path, kind, value)
    return label, doc


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=120, deadline=None)
@given(mutated_documents())
def test_mutated_documents_keep_the_exit_code_contract(case):
    label, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for argv in (["validate"], ["check", "--all"], ["report"]):
            code, _, err = _run(argv + ["--input", path])
            assert code in (0, 1, 2), (label, argv, code)
            if code == 2:
                assert err.startswith("error: "), (label, argv, err)


NERVE_KINDS = (
    "drop_face",
    "drop_face_and_restrictions",
    "union_face",
    "union_face_with_restrictions",
    "duplicate_face",
    "duplicate_restriction",
    "extra_component",
)


@st.composite
def nerve_mutations(draw):
    label = draw(st.sampled_from(sorted(SOURCES)))
    doc = copy.deepcopy(SOURCES[label])
    faces, restrictions = doc["faces"], doc["restrictions"]
    kind = draw(st.sampled_from(NERVE_KINDS))

    def pick(seq):
        return seq[draw(st.integers(0, len(seq) - 1))]

    if kind.startswith("drop_face"):
        dropped = faces.pop(draw(st.integers(0, len(faces) - 1)))["indices"]
        if kind == "drop_face_and_restrictions":
            doc["restrictions"] = [
                r for r in restrictions if dropped not in (r["from"], r["to"])
            ]
    elif kind.startswith("union_face"):
        first, second = pick(faces), pick(faces)
        union = sorted(set(first["indices"]) | set(second["indices"]))
        faces.append(dict(copy.deepcopy(first), indices=union))
        if kind == "union_face_with_restrictions" and restrictions:
            # copied maps, shaped for other faces, into the new face
            for u in union:
                facet = [x for x in union if x != u]
                if facet:
                    maps = copy.deepcopy(pick(restrictions)["maps"])
                    restrictions.append({"from": facet, "to": union, "maps": maps})
    elif kind == "duplicate_face":
        faces.append(copy.deepcopy(pick(faces)))
    elif kind == "duplicate_restriction" and restrictions:
        restrictions.append(copy.deepcopy(pick(restrictions)))
    elif kind == "extra_component":
        doc["components"].append("extra")
    return label, kind, doc


@settings(max_examples=40, deadline=None)
@given(nerve_mutations())
def test_nerve_mutations_keep_the_exit_code_contract(case):
    label, kind, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for argv in (["validate"], ["check", "--all"], ["report"], ["e2"], ["slopes"], ["polygons"]):
            code, _, err = _run(argv + ["--input", path])
            assert code in (0, 1, 2), (label, kind, argv, code)
            if code == 2:
                assert err.startswith("error: "), (label, kind, argv, err)
