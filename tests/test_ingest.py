"""The loader parses each distinct stratum and each distinct set of
restriction maps of a document once, and the validator checks each once.

The oracle is a twin document: the same document with a unique ``labels``
entry on every face.  Labels enter neither validation nor any output below,
but they make every face entry distinct, so the twin shares nothing.  A
document and its twin must give the same violations (code, location,
message, witness, in order) and byte-equal stdout.
"""

import copy
import hashlib
import json

import pytest

from helpers import SIGN_MUTANTS, sign_mutant
from ssweight import scenarios
from ssweight.cli import main
from ssweight.errors import SchemaError
from ssweight.strata import StrataComplex

COMMANDS = ("validate", "e2", "check --all", "report")


def builtin(spec: str) -> dict:
    return scenarios.build(scenarios.parse_spec(spec)).to_json_dict()


def degenerate(components) -> dict:
    """ngon:5 with both pairings of the given components zeroed: each of
    those faces reports two imperfect pairings with a kernel vector."""
    doc = builtin("ngon:5")
    for face in doc["faces"]:
        if face["indices"] in [[c] for c in components]:
            face["pairing"] = {m: [["0"]] for m in face["pairing"]}
    return doc


def emptied(restrictions) -> dict:
    """ngon:5 with no matrix in the given restrictions ``(from, to)``."""
    doc = builtin("ngon:5")
    for r in doc["restrictions"]:
        if (r["from"], r["to"]) in restrictions:
            r["maps"] = {}
    return doc


EDGES = [[i, i % 5 + 1] for i in range(1, 6)]
EVERY_RESTRICTION = [([v], sorted(e)) for e in EDGES for v in e]

DOCUMENTS = {
    **{s.label(): (lambda s=s: builtin(s.label())) for s in scenarios.builtin_specs()},
    **{f"negated {name}": (lambda name=name: sign_mutant(name)) for name in SIGN_MUTANTS},
    "every component degenerate": lambda: degenerate(range(1, 6)),
    "every restriction empty": lambda: emptied(EVERY_RESTRICTION),
}


def twin(doc: dict) -> dict:
    out = copy.deepcopy(doc)
    for face in out["faces"]:
        face["labels"] = {"0": ["twin " + ",".join(map(str, face["indices"]))]}
    return out


def strata_count(sc: StrataComplex) -> int:
    return len({id(coh) for coh in sc.faces.values()})


def outcome(doc: dict):
    """The validation verdicts of ``doc``, or the schema error it raises."""
    try:
        sc = StrataComplex.loads(json.dumps(doc))
    except SchemaError as exc:
        return "schema error", str(exc)
    return [v.to_dict() for v in sc.validate().violations]


@pytest.fixture(params=sorted(DOCUMENTS))
def document(request):
    return DOCUMENTS[request.param]()


def test_one_stratum_per_face_size_and_entry(document):
    entries = set()
    for face in document["faces"]:
        rest = {k: x for k, x in face.items() if k != "indices"}
        entries.add((len(face["indices"]), json.dumps(rest, sort_keys=True)))
    assert strata_count(StrataComplex.from_json_dict(document)) == len(entries)
    alone = StrataComplex.from_json_dict(twin(document))
    assert strata_count(alone) == len(alone.faces)


def test_twin_has_the_same_violations(document):
    found = outcome(document)
    assert found == outcome(twin(document))


# a defect shared by every face is reported at each; one on a single face
# only there, although the other faces have a stratum of the same dimension
@pytest.mark.parametrize("components", [range(1, 6), [3]])
def test_stratum_defects_are_reported_at_their_faces(components):
    report = StrataComplex.from_json_dict(degenerate(components)).validate()
    located = [(v.code, v.location) for v in report.violations]
    assert located == [("pairing-not-perfect", f"face {{{c}}}") for c in components for _ in "01"]
    assert all(v.witness == {"kernel_vector": ["1"]} for v in report.violations)


@pytest.mark.parametrize("restrictions", [EVERY_RESTRICTION, [([3], [3, 4])]])
def test_restriction_defects_are_reported_at_their_restrictions(restrictions):
    report = StrataComplex.from_json_dict(emptied(restrictions)).validate()
    located = sorted((v.code, v.location) for v in report.violations)
    assert located == sorted(
        ("missing-restriction", "restriction {%d} -> {%d,%d}" % (a, *b)) for [a], b in restrictions
    )


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_twin_has_byte_equal_stdout(capsys, tmp_path, document, command, fmt):
    def run(doc, name):
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = main([*command.split(" "), "--input", str(path), "--format", fmt])
        return code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()

    assert run(document, "doc.json") == run(twin(document), "twin.json")


# -- keys: canonical JSON, not Python equality ----------------------------------------

# two entries equal but for one matrix entry; 1 == True == 1.0 in Python, so a
# key built from Python values would merge the entries that JSON tells apart
ENTRIES = [("1", 1), (1, "1"), (1, True), (True, 1), (1, 1.0), (1.0, 1)]


@pytest.mark.parametrize("first, second", ENTRIES)
def test_face_entries_differing_in_one_value_keep_their_outcome(first, second):
    doc = builtin("ngon:3")
    faces = {tuple(face["indices"]): face for face in doc["faces"]}
    # faces {1} and {2} are one entry but for their pairing in degree 0
    faces[(1,)]["pairing"]["0"] = [[first]]
    faces[(2,)]["pairing"]["0"] = [[second]]
    found = outcome(doc)
    assert found == outcome(twin(doc))
    if isinstance(first, (bool, float)) or isinstance(second, (bool, float)):
        assert found[0] == "schema error"
    else:
        assert found == []


@pytest.mark.parametrize("first, second", ENTRIES)
def test_restriction_maps_differing_in_one_value_keep_their_outcome(first, second):
    doc = builtin("ngon:3")
    doc["restrictions"][0]["maps"]["0"] = [[first]]
    doc["restrictions"][1]["maps"]["0"] = [[second]]
    found = outcome(doc)
    if isinstance(first, (bool, float)) or isinstance(second, (bool, float)):
        assert found[0] == "schema error"
    else:
        assert found == []
        sc = StrataComplex.from_json_dict(doc)
        maps = [sc.restrictions[key] for key in sorted(sc.restrictions)[:2]]
        assert maps[0] is not maps[1] and maps[0] == maps[1]


def test_equal_entries_share_one_stratum_and_one_set_of_maps():
    sc = StrataComplex.from_json_dict(builtin("ngon:5"))
    assert strata_count(sc) == 2
    assert len({id(maps) for maps in sc.restrictions.values()}) == 1


def test_a_value_json_cannot_hold_is_a_schema_error():
    doc = builtin("ngon:3")
    doc["faces"][0]["pairing"]["0"] = [[object()]]
    with pytest.raises(SchemaError):
        StrataComplex.from_json_dict(doc)


# -- memoised level maps ----------------------------------------------------------------


@pytest.mark.parametrize("spec", ["ngon:5", "tetrahedron", "ngon_x_p1:3"])
def test_level_maps_are_built_once(spec):
    sc = StrataComplex.from_json_dict(builtin(spec))
    for k in range(1, sc.max_level + 1):
        for m in sc.level(k):
            assert sc.level_pairing(k, m) is sc.level_pairing(k, m)
            assert sc.level_lefschetz(k, m) is sc.level_lefschetz(k, m)
