"""Byte-for-byte pins of the CLI on inputs where a check fails.

Each document is a builtin with every pairing matrix of face ``{1}``
negated.  The pairings stay perfect and graded-symmetric, so the document
still validates, but the primitive forms of the first page are no longer
definite: ``check --all`` and ``check --ito`` exit 1 with ``hl_positivity``
failures.  ``validate``, ``e2`` and ``report`` exit 0 on these documents,
since none of them runs a positivity check.  The table holds the SHA-256 of
stdout and the exit code, in text and JSON, like ``test_golden_outputs``.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from ssweight import scenarios
from ssweight.cli import main

SOURCES = ("ngon:5", "ngon_x_p1:3")
COMMANDS = ("validate", "e2", "check --all", "check --ito", "report")

# (source, command, format) -> (sha256 of stdout, exit code)
GOLDEN = {
    ("ngon:5", "validate", "text"):
        ("b9f2bb9ab1a380a32fe2c88bb01d7771dd46bd8c31845c3c81f98bd69edbdb2f", 0),
    ("ngon:5", "validate", "json"):
        ("a1e3980c06b3ba919feb7088a47a1da00aa53149fd1484758bc921ee6044d1de", 0),
    ("ngon:5", "e2", "text"):
        ("2914da63fbcb64187305a0cae264abec9b76fdcd94be303bc9891d0dad6efa57", 0),
    ("ngon:5", "e2", "json"):
        ("89534e3f37044b1c443f677597a4999f680f5ec9a7e961c32e17073503cf2bdc", 0),
    ("ngon:5", "check --all", "text"):
        ("bf21d8cb3c0908fb1978ea49e6d65f35a3302413e2faf0e0820ef748c00beebc", 1),
    ("ngon:5", "check --all", "json"):
        ("3df3268b86938dbb1be43f7a349742b83aef47818d8e9882c2028783f88086d8", 1),
    ("ngon:5", "check --ito", "text"):
        ("9581c2875198fca045ab4422d6c984e0b3407e9148e84506028b8252ea41a115", 1),
    ("ngon:5", "check --ito", "json"):
        ("579ea57eb9ca2efa821684c0be26f44a5b000a9595f1a927d6159d04b62e3cbd", 1),
    ("ngon:5", "report", "text"):
        ("3d06c246347e11e5905ee9ac85f083832c1126a335b1632fdfd8a35b752d678b", 0),
    ("ngon:5", "report", "json"):
        ("cee975823641c3450ce12d11ead6e0f5f97a1464f8b2a7b115b14e74250ef980", 0),
    ("ngon_x_p1:3", "validate", "text"):
        ("b9f2bb9ab1a380a32fe2c88bb01d7771dd46bd8c31845c3c81f98bd69edbdb2f", 0),
    ("ngon_x_p1:3", "validate", "json"):
        ("19e64309d01d19485ddb1bbeb2da83a788998842d277cc154599bc9095f283ed", 0),
    ("ngon_x_p1:3", "e2", "text"):
        ("b407718eb208e9c5d72523f1334390c42ae9429db9184788620baafc8d0ca91f", 0),
    ("ngon_x_p1:3", "e2", "json"):
        ("847ad455cd4fedaa0d730c818f0cd5949459585e9c6dcb4d13adca2dc7ad1e8c", 0),
    ("ngon_x_p1:3", "check --all", "text"):
        ("9ff90ea89712399bb148f43ddf24fc6f5afd05b4036802a8b7486ac89643406a", 1),
    ("ngon_x_p1:3", "check --all", "json"):
        ("867158cca45c890b3140a58bdad439a3e05c9bc476041aec92e70b805c5b481f", 1),
    ("ngon_x_p1:3", "check --ito", "text"):
        ("db36bf0f935683dccc73dc8c36612ab9b36812404b0fbc27bd70308a227297e1", 1),
    ("ngon_x_p1:3", "check --ito", "json"):
        ("cec1549a88d46e6b710badfa3e78ce7df14833495ae810f383e285231dc540be", 1),
    ("ngon_x_p1:3", "report", "text"):
        ("6cedc055e69cd1c168de6546795e2aa4d87a8b3af6ae4eb301247ca61a663efa", 0),
    ("ngon_x_p1:3", "report", "json"):
        ("a9a824433ae1a1c3c5beb07cc99fa4d092d4700b8f04abb69722b24e640fa80d", 0),
}

FAILURES = {
    "ngon:5": ["hl_positivity[i=0,j=1,stage=V]"],
    "ngon_x_p1:3": ["hl_positivity[i=0,j=0,stage=V]", "hl_positivity[i=0,j=2,stage=V]"],
}


def negated_document(spec: str) -> dict:
    """The builtin ``spec`` with every pairing matrix of face {1} negated."""
    doc = scenarios.build(scenarios.parse_spec(spec)).to_json_dict()
    face = next(f for f in doc["faces"] if f["indices"] == [1])
    face["pairing"] = {
        m: [[str(-Fraction(x)) for x in row] for row in rows]
        for m, rows in face["pairing"].items()
    }
    return doc


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    root = tmp_path_factory.mktemp("negated")
    paths = {}
    for spec in SOURCES:
        path = root / (spec.replace(":", "-") + ".json")
        path.write_text(json.dumps(negated_document(spec)), encoding="utf-8")
        paths[spec] = str(path)
    return paths


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("spec", SOURCES)
def test_output_digest(capsys, documents, spec, command, fmt):
    code = main([*command.split(" "), "--input", documents[spec], "--format", fmt])
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode()).hexdigest(), code) == GOLDEN[spec, command, fmt]


@pytest.mark.parametrize("spec", SOURCES)
def test_only_positivity_fails(capsys, documents, spec):
    code = main(["check", "--all", "--input", documents[spec], "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    failed = [
        f"{c['name']}[{','.join(f'{k}={v}' for k, v in sorted(c['location'].items()))}]"
        for c in payload["checks"]
        if c["status"] == "fail"
    ]
    assert code == 1
    assert failed == FAILURES[spec]
