"""Seeded input documents for the benchmark.

Every document the program sees is built here, from a workload seed, and
written as a strata JSON file.  Three kinds of document exist:

* unmodified builtin documents, exactly as ``ssweight scenario`` emits them;
* basis-changed documents: each stratum's cohomology in each degree gets a
  random invertible rational basis, applied consistently to the pairings,
  the Lefschetz maps and the restrictions.  The configuration is the same
  one in other coordinates, so it stays valid and every basis-invariant
  output (check verdicts, E2 dimensions, abutment, slopes, Hodge numbers)
  is unchanged, but the stratum blocks become dense multi-digit rationals;
* mutated documents: a basis-changed document with one seeded defect.  Four
  semantic mutations must make ``validate`` exit 1 with a named violation;
  four malformed ones must give exit 2, or exit 1 with a verdict.

The arithmetic here uses plain ``Fraction`` lists, not the program's own
linear algebra, so a change to ``ssweight.linalg`` cannot move the set-up
time or the generated inputs.

Run ``python3 bench/inputs.py --seeds 1,2,3`` from the repository root to
check the generator itself: every basis-changed document must validate and
give the same basis-invariant summary as its unmodified source.
"""

from __future__ import annotations

import copy
import json
import random
from fractions import Fraction

# rung label -> how to build it from the program's scenario builders
CHECK_RUNGS = ("ngon:20", "ngon_x_p1:5", "ngon_x_p1:10", "ngon:6 x cellular:1,1,1")
REPORT_RUNGS = (
    "ngon:20",
    "ngon:40",
    "ngon_x_p1:10",
    "ngon_x_p1:20",
    "tetrahedron",
    "tetrahedron x P1",
    "ngon:10 x P2",
)
SEMANTIC = {
    "restriction-entry": "restriction-lefschetz",
    "pairing-entry": "pairing-symmetry",
    "lefschetz-entry": "lefschetz-adjoint",
    "drop-restriction": "missing-restriction",
}
MALFORMED = ("zero-denominator", "wrong-dimension", "cohomology-list", "ragged-row")


def build_rung(label: str):
    """The StrataComplex behind a rung label (builtin spec or product)."""
    from ssweight import scenarios

    if " x " not in label:
        return scenarios.build(scenarios.parse_spec(label))
    base, factor = label.split(" x ")
    sc = scenarios.build(scenarios.parse_spec(base))
    if factor.startswith("cellular:"):
        cells = tuple(int(c) for c in factor.split(":")[1].split(","))
        return sc.product_with_factor(scenarios.cellular_cohomology(cells))
    return sc.product_with_factor(scenarios.projective_space_cohomology(int(factor[1:])))


def builtin_labels() -> list[str]:
    from ssweight import scenarios

    def cli_syntax(spec):
        values = [v for _, v in sorted(spec.params.items())]
        flat = [x for v in values for x in (v if isinstance(v, tuple) else (v,))]
        return spec.kind + (":" + ",".join(str(x) for x in flat) if flat else "")

    return [cli_syntax(spec) for spec in scenarios.builtin_specs()]


# -- exact helpers on nested lists of Fractions --------------------------------


def _load(rows):
    return [[Fraction(x) for x in row] for row in rows]


def _dump(rows):
    return [[str(x) for x in row] for row in rows]


def _mul(a, b):
    inner = len(b)
    cols = len(b[0]) if b else 0
    return [[sum((row[k] * b[k][j] for k in range(inner)), Fraction(0)) for j in range(cols)] for row in a]


def _transpose(a, cols):
    return [[a[i][j] for i in range(len(a))] for j in range(cols)]


def _inverse(a):
    n = len(a)
    m = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for c in range(n):
        p = next(i for i in range(c, n) if m[i][c] != 0)
        m[c], m[p] = m[p], m[c]
        piv = m[c][c]
        m[c] = [x / piv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return [row[n:] for row in m]


def _fixed_basis(d: int):
    """A dense invertible d x d rational matrix that depends on d only: a
    diagonal of small fractions times unit lower and upper triangular
    factors with small integer entries."""
    diag = [[Fraction((i % 5 + 2) * (-1) ** i, i % 3 + 3) if i == j else Fraction(0) for j in range(d)] for i in range(d)]
    lower = [[Fraction(1 if i == j else (1 + (i + j) % 3 if j < i else 0)) for j in range(d)] for i in range(d)]
    upper = [[Fraction(1 if i == j else (-1 - (i * j) % 2 if j > i else 0)) for j in range(d)] for i in range(d)]
    return _mul(_mul(diag, lower), upper)


def _random_basis(rng: random.Random, d: int):
    """The fixed basis of dimension d with rows and columns permuted and
    negated at random.  Every seed gives entries of the same sizes, so the
    seed moves the coordinates but not the amount of arithmetic."""
    m = _fixed_basis(d)
    rows, cols = rng.sample(range(d), d), rng.sample(range(d), d)
    signs = [rng.choice((-1, 1)) for _ in range(d)]
    return [[signs[i] * m[r][c] for c in cols] for i, r in enumerate(rows)]


# -- document transforms --------------------------------------------------------


def basis_change(doc: dict, rng: random.Random) -> dict:
    """The same configuration in seeded random coordinates.

    New coordinates are ``A_m x`` on ``H^m`` of each face, so a map
    ``f: H^m(X) -> H^k(Y)`` becomes ``A_k f A_m^-1`` and a pairing matrix
    ``P`` of ``H^m x H^mc`` becomes ``A_m^-T P A_mc^-1``.
    """
    out = copy.deepcopy(doc)
    change = {}  # (face, degree) -> (A, A^-1)
    for face in out["faces"]:
        key = tuple(face["indices"])
        for m, d in sorted(face["cohomology"].items(), key=lambda kv: int(kv[0])):
            if d:
                a = _random_basis(rng, d)
                change[(key, int(m))] = (a, _inverse(a))

    def conj(rows, src, dst):
        if not rows or not rows[0]:
            return rows
        a_dst, _ = change[dst]
        _, inv_src = change[src]
        return _dump(_mul(_mul(a_dst, _load(rows)), inv_src))

    for face in out["faces"]:
        key = tuple(face["indices"])
        dim = out["dimension"] + 1 - len(key)
        for m, rows in face.get("pairing", {}).items():
            if not rows or not rows[0]:
                continue
            m = int(m)
            inv_m = change[(key, m)][1]
            inv_mc = change[(key, 2 * dim - m)][1]
            face["pairing"][str(m)] = _dump(_mul(_mul(_transpose(inv_m, len(inv_m)), _load(rows)), inv_mc))
        for m, rows in face.get("lefschetz", {}).items():
            m = int(m)
            face["lefschetz"][str(m)] = conj(rows, (key, m), (key, m + 2))
    for r in out.get("restrictions", []):
        src, dst = tuple(r["from"]), tuple(r["to"])
        for m, rows in r["maps"].items():
            m = int(m)
            r["maps"][str(m)] = conj(rows, (src, m), (dst, m))
    return out


def _face_dim(doc, face):
    return doc["dimension"] + 1 - len(face["indices"])


def _nonzero_col(rows, i):
    return any(row[i] != 0 for row in _load(rows))


def _sites(doc: dict, kind: str):
    """Every place where ``kind`` is guaranteed to produce its violation."""
    faces = {tuple(f["indices"]): f for f in doc["faces"]}
    sites = []
    if kind == "restriction-entry":
        # r_m entry (i, j) +1 changes L_dst r_m iff column i of L_dst is nonzero,
        # while r_{m+2} L_src is untouched: restriction-lefschetz
        for idx, r in enumerate(doc.get("restrictions", [])):
            dst = faces[tuple(r["to"])]
            for m, rows in r["maps"].items():
                lef = dst.get("lefschetz", {}).get(str(int(m)))
                if not rows or not rows[0] or not lef or not lef[0]:
                    continue
                for i in range(len(rows)):
                    if _nonzero_col(lef, i):
                        sites.extend(("restrictions", idx, m, i, j) for j in range(len(rows[0])))
    elif kind == "pairing-entry":
        # P_m below the middle degree is stored next to P_mc; changing one
        # side breaks graded symmetry
        for key, f in faces.items():
            for m, rows in f.get("pairing", {}).items():
                if int(m) < _face_dim(doc, f) and rows and rows[0]:
                    sites.extend(
                        ("pairing", key, m, i, j) for i in range(len(rows)) for j in range(len(rows[0]))
                    )
    elif kind == "lefschetz-entry":
        # outside degree dim-1, <Lx, y> and <x, Ly> use different Lefschetz
        # matrices, so one changed entry breaks self-adjointness
        for key, f in faces.items():
            for m, rows in f.get("lefschetz", {}).items():
                if int(m) != _face_dim(doc, f) - 1 and rows and rows[0]:
                    sites.extend(
                        ("lefschetz", key, m, i, j) for i in range(len(rows)) for j in range(len(rows[0]))
                    )
    elif kind == "drop-restriction":
        sites = [("restrictions", idx) for idx in range(len(doc.get("restrictions", [])))]
    elif kind == "zero-denominator":
        sites = [site for k in ("pairing-entry", "lefschetz-entry") for site in _sites(doc, k)]
    elif kind == "wrong-dimension":
        sites = [("dimension",)]
    elif kind == "cohomology-list":
        sites = [("cohomology", key) for key in faces]
    elif kind == "ragged-row":
        for key, f in faces.items():
            for m, rows in f.get("pairing", {}).items():
                if len(rows) >= 2:
                    sites.append(("ragged", key, m))
    return sites


def mutate(doc: dict, kind: str, rng: random.Random):
    """A copy of ``doc`` with one seeded defect of ``kind``, or None when the
    document has no place where that defect is guaranteed to be detectable."""
    sites = _sites(doc, kind)
    if not sites:
        return None
    site = rng.choice(sites)
    out = copy.deepcopy(doc)
    faces = {tuple(f["indices"]): f for f in out["faces"]}
    if kind == "drop-restriction":
        del out["restrictions"][site[1]]
    elif kind == "wrong-dimension":
        out["dimension"] += 1
    elif kind == "cohomology-list":
        coh = faces[site[1]]["cohomology"]
        faces[site[1]]["cohomology"] = [coh[m] for m in sorted(coh, key=int)]
    elif kind == "ragged-row":
        faces[site[1]]["pairing"][site[2]][0].append("0")
    else:
        where, key, m, i, j = site
        table = out["restrictions"][key]["maps"] if where == "restrictions" else faces[key][where]
        rows = table[m]
        rows[i][j] = "1/0" if kind == "zero-denominator" else str(Fraction(rows[i][j]) + 1)
    out["name"] = f"{doc['name']} [{kind}]"
    return out


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


# -- basis-invariant summaries ------------------------------------------------------


def report_summary(payload: dict):
    """Basis-invariant content of a ``report`` JSON output: verdicts, the
    abutment (E2 dimensions summed by degree), slopes (E2 dimensions by
    weight) and Hodge numbers."""
    data = payload["data"]
    return {
        "passed": payload["passed"],
        "checks": [[c["name"], c["location"], c["status"]] for c in payload["results"]],
        "abutment": data.get("abutment"),
        "slopes": [d.get("slopes") for d in data.get("degrees", [])],
        "hodge_numbers": [d.get("hodge_numbers") for d in data.get("degrees", [])],
    }


def library_summary(text: str) -> dict:
    """Validation verdict, E2 cell dimensions and the report summary of a
    document, computed through the library (used by the generator check)."""
    from ssweight.polygons import hodge_symmetry_report
    from ssweight.spectral import build_e1, compute_e2
    from ssweight.strata import StrataComplex

    sc = StrataComplex.loads(text)
    ok = sc.validate().ok
    e2 = compute_e2(build_e1(sc))
    report = hodge_symmetry_report(sc).to_dict()
    report["data"].pop("validation", None)
    return {
        "valid": ok,
        "e2": [[a, b, e2.dim(a, b)] for (a, b) in e2.support()],
        "report": report_summary(report),
    }


def _self_check(seeds) -> int:
    import sys

    bad = 0
    for label in dict.fromkeys(builtin_labels() + list(REPORT_RUNGS) + list(CHECK_RUNGS)):
        source = build_rung(label).to_json_dict()
        want = library_summary(dumps(source))
        for seed in seeds:
            changed = basis_change(source, random.Random(f"{seed}:{label}"))
            got = library_summary(dumps(changed))
            status = "ok" if got == want and got["valid"] else "MISMATCH"
            bad += status != "ok"
            print(f"{status:8s} seed={seed} {label}", flush=True)
            for kind in list(SEMANTIC) + list(MALFORMED):
                if mutate(changed, kind, random.Random(f"{seed}:{label}:{kind}")) is None:
                    print(f"         no site for {kind}")
    print(f"{bad} mismatches", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    import argparse
    import os
    import sys

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1", help="comma-separated seeds to check")
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sys.exit(_self_check([int(s) for s in args.seeds.split(",")]))
