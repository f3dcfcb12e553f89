"""Shared test helpers.

* Independent mini-oracles: a plain Gaussian rank, the cochain cohomology of
  the nerve (built from the face sets alone and ranked without the library's
  elimination), the dimension duality of the second page, and the relations
  ``d1^2 = 0``, ``[N, d1] = [L, d1] = [N, L] = 0`` on the first page.
* ``HodgeLefschetzModule``: a bigraded complex given by tables, for modules
  built by hand.
* A generator of random valid configurations (graph curves, cellular
  components, and products).
* ``SIGN_MUTANTS``: builtins with some matrices of some faces negated, which
  still validate but fail checks.
* ``RELATION_MUTANTS``: documents that pass every structural check of
  ``validate`` and fail its level relations.
* ``complex_of``: the complex of a builtin label, a mutant name or
  ``random:<seed>``.
* ``swap_face``: break one face of a builtin whose faces share strata.
* ``quotient_of``: a ``QuotientSpace`` from any numerator basis, and
  ``GeneralQuotient``, the reference model of a quotient by a second rule.
* ``h1_suite_model``: the degree-one suite with every tau-side subspace
  formed, the reference model of its rank verdicts and witnesses.
* ``document_model``: the document of a complex built entry by entry, the
  reference model of ``StrataComplex.dumps``.
* ``bench_inputs``: the benchmark's input module, loaded read-only, and
  ``basis_changed``, a builtin in its seeded random coordinates.
"""

from __future__ import annotations

import importlib.util
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

from ssweight import checks, scenarios
from ssweight.checks import CheckResult, relation_checks
from ssweight.errors import NotWellDefined
from ssweight.linalg import QuotientSpace, RatMatrix, Subspace, image, induced_map, kernel
from ssweight.scenarios import (
    cellular_cohomology,
    elliptic_curve_cohomology,
    point_cohomology,
    projective_space_cohomology,
)
from ssweight.spectral import power
from ssweight.strata import StrataComplex, StratumCohomology


BENCH_INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"


def bench_inputs():
    """``bench/inputs.py`` as a module of its own, read and never changed."""
    spec = importlib.util.spec_from_file_location("bench_inputs", BENCH_INPUTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def basis_changed(label: str) -> dict:
    """The document of the builtin ``label`` in the benchmark's seeded
    random coordinates, where no two faces share a stratum."""
    doc = scenarios.build(scenarios.parse_spec(label)).to_json_dict()
    return bench_inputs().basis_change(doc, random.Random(f"7:{label}"))


def swap_face(sc, face, **updates):
    """Give ``face`` of ``sc`` a copy of its stratum with each named dict
    field updated, ``{**old, **new}``.  A builtin's faces share strata, so a
    change in place would change every face that shares it."""
    coh = sc.faces[face]
    sc.faces[face] = replace(coh, **{k: {**getattr(coh, k), **v} for k, v in updates.items()})


def independent_rank(rows) -> int:
    """Plain Gaussian elimination over Fraction, written separately from the
    library so rank pins do not depend on the code under test."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for c in range(ncols):
        piv = next((r for r in range(rank, nrows) if m[r][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(nrows):
            if r != rank and m[r][c] != 0:
                f = m[r][c] / m[rank][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def quotient_of(num: RatMatrix, den: RatMatrix) -> QuotientSpace:
    """The span of ``num`` modulo that of ``den``, for independent columns
    with ``den`` inside the span of ``num``, through the one constructor: in
    the coordinates of the first independent rows of ``num``."""
    free = num.transpose().pivots()
    at_free = num.transpose().take_columns(free).transpose()
    return QuotientSpace(num @ at_free.inverse(), free, den)


class GeneralQuotient:
    """``numerator / denominator`` inside Q^ambient_dim by a second rule,
    the reference for ``QuotientSpace``: the lift is the numerator columns
    that extend the denominator basis in one pivoted elimination of
    ``[denominator | numerator]``, and a denominator outside the numerator
    raises ``NotWellDefined``."""

    def __init__(self, ambient_dim: int, numerator: Subspace, denominator: Subspace):
        d = denominator.dim
        pivots = denominator.basis.hstack(numerator.basis).pivots()
        if len(pivots) != numerator.dim:
            raise NotWellDefined("denominator is not contained in numerator")
        self.ambient_dim, self.numerator, self.denominator = ambient_dim, numerator, denominator
        self.lift = numerator.basis.take_columns(p - d for p in pivots[d:])
        self.basis = denominator.basis.hstack(self.lift)
        self.dim = self.lift.cols


def h1_suite_model(e2) -> list[CheckResult]:
    """``checks.check_h1_suite`` as every subspace of its tau side was once
    formed: kernels, images and intersections decide each verdict, and
    ``wm_h1_iso`` maps the whole of the coordinates of a basis of ``ker
    tau(2,0) ∩ ker rho(2,0)`` into the page's cell (1, 0).  The reference
    model of the suite's rank verdicts and of the witnesses they keep; it
    reads ``checks._twisted_gram`` and ``StrataComplex.lefschetz_power``
    through their owners, so a test that patches them patches both."""
    sc = e2.e1.sc
    n = sc.n
    results = []
    for k in range(1, sc.max_level + 1):
        if sc.level_dim(k, 0) == 0:
            continue
        gram = checks._twisted_gram(sc, k, 0)
        h0 = e2.quotient(k - 1, 0)
        spaces = [("h0_pairing_on_im_rho", h0.denominator)] if k >= 2 else []
        spaces.append(("h0_pairing_on_ker_rho", h0.numerator))
        for name, space in spaces:
            results.append(checks.nondegeneracy_check(
                name, {"k": k}, checks._restricted_gram(gram, space.basis)
            ))

    tau20 = sc.tau(2, 0)
    ker_tau20, im_tau = kernel(tau20), image(tau20)
    meet = im_tau.intersection(kernel(sc.lefschetz_power(1, 2, n - 1)))
    complement = im_tau
    if meet.dim:
        gram2 = checks._twisted_gram(sc, 1, 2)
        results.append(checks.nondegeneracy_check(
            "pairing_on_im_tau_primitive", {"k": 1, "q": 2},
            checks._restricted_gram(gram2, meet.basis),
        ))
        complement = im_tau.annihilated_by(meet.basis.transpose() @ gram2)
    else:
        results.append(CheckResult(
            "pairing_on_im_tau_primitive", {"k": 1, "q": 2}, "pass",
            note="vacuous (intersection is zero)",
        ))
    im_tau_rho = image(tau20 @ sc.rho(1, 0))
    results.append(_subspace_equality_model(
        "im_tau_rho_is_orthocomplement", {"k": 1, "q": 2}, im_tau_rho, complement
    ))
    h0_double = e2.quotient(1, 0)
    meet2 = ker_tau20.intersection(h0_double.denominator)
    if meet2.dim == 0:
        results.append(CheckResult("ker_tau_meets_im_rho_trivially", {"k": 2, "q": 0}, "pass"))
    else:
        results.append(CheckResult(
            "ker_tau_meets_im_rho_trivially", {"k": 2, "q": 0}, "fail",
            note="intersection is nonzero",
            witness={"dim": meet2.dim, "vector": meet2.basis.col(0)},
        ))
    meet3 = kernel(sc.rho(1, 2)).intersection(im_tau)
    results.append(_subspace_equality_model(
        "ker_rho_meets_im_tau_in_im_tau_rho", {"k": 1, "q": 2}, meet3, im_tau_rho
    ))
    s = ker_tau20.intersection(h0_double.numerator).basis
    k = s.cols
    whole = QuotientSpace(RatMatrix.identity(k), list(range(k)), RatMatrix.zeros(k, 0))
    results.append(checks.bijectivity_check(
        "wm_h1_iso", {"r": 1, "w": 1}, induced_map(s, whole, h0_double)
    ))
    for name, a, b in (("log_hl_h1_ell0", 1, 0), ("log_hl_h1_ell1", 0, 1), ("log_hl_h1_ell2", -1, 2)):
        matrix = power(e2, "l", a, b, n - 1)
        if name == "log_hl_h1_ell2":
            results.append(checks.injectivity_check("log_hl_h1_ell2_injective", {"a": a, "b": b}, matrix))
        results.append(checks.bijectivity_check(name, {"a": a, "b": b}, matrix))
    dims = {
        "E2(1,0)": e2.dim(1, 0),
        "E2(-1,2)": e2.dim(-1, 2),
        f"E2(1,{2*n-2})": e2.dim(1, 2 * n - 2),
        f"E2(-1,{2*n})": e2.dim(-1, 2 * n),
    }
    results.append(CheckResult(
        "wm_h1_four_corner_dims", {}, "pass" if len(set(dims.values())) == 1 else "fail", witness=dims
    ))
    return results


def _subspace_equality_model(name, location, left: Subspace, right: Subspace) -> CheckResult:
    if left.dim == right.dim and right.contains(left):
        note = "vacuous (both zero)" if left.dim == 0 else ""
        return CheckResult(name, location, "pass", note=note, witness={"dim": left.dim})
    witness = {"left_dim": left.dim, "right_dim": right.dim}
    for key, a, b in (("vector_in_left_only", left, right), ("vector_in_right_only", right, left)):
        lines = (a.basis.take_columns([j]) for j in range(a.dim))
        v = next((c for c in lines if not b.contains(Subspace._trusted(a.ambient_dim, c))), None)
        if v is not None:
            witness[key] = v.col(0)
            break
    return CheckResult(name, location, "fail", note="subspaces differ", witness=witness)


def document_model(sc: StrataComplex) -> dict:
    """The document of ``sc`` as ``json.loads`` returns it, built entry by
    entry from the fields of each face's stratum and each restriction's
    maps, with its own dicts and lists, and matrices as ``Fraction`` strings:
    the reference model of ``StrataComplex.dumps``."""

    def strings(m: RatMatrix):
        return [[str(x) for x in row] for row in m.entries]

    def face_entry(indices, coh: StratumCohomology) -> dict:
        entry = {
            "indices": list(indices),
            "cohomology": {str(m): d for m, d in coh.dims.items()},
            # the pairings the stratum fills by graded symmetry are written too
            "pairing": {str(m): strings(p) for m, p in coh.pairing.items() if coh.dims.get(m)},
            "lefschetz": {str(m): strings(L) for m, L in coh.lefschetz.items()},
            "slope_pure": coh.slope_pure,
        }
        if coh.labels:
            entry["labels"] = {str(m): list(names) for m, names in coh.labels.items()}
        return entry

    return {
        "schema_version": 1,
        "name": sc.name,
        "dimension": sc.n,
        "components": list(sc.components),
        "faces": [face_entry(f, sc.faces[f]) for f in sorted(sc.faces)],
        "restrictions": [
            {"from": list(a), "to": list(b), "maps": {str(m): strings(x) for m, x in maps.items()}}
            for (a, b), maps in sorted(sc.restrictions.items())
        ],
    }


def nerve_cohomology_oracle(sc: StrataComplex, a: int) -> int:
    """dim H^a of the abstract nerve over Q by a direct cochain computation.

    Independent of the page machinery: builds the simplicial coboundary from
    the face sets alone as lists of ints and ranks it with
    ``independent_rank``.  Cross-checks the weight-zero row of the second
    page for cycle-generated scenarios with connected strata.
    """
    if a < 0:
        return 0

    def coboundary(k: int):
        src = sc.faces_at(k + 1)
        src_pos = {f: j for j, f in enumerate(src)}
        rows = []
        for J in sc.faces_at(k + 2):
            row = [0] * len(src)
            for i in range(len(J)):
                sub = J[:i] + J[i + 1 :]
                if sub in src_pos:
                    row[src_pos[sub]] = -1 if i % 2 else 1
            rows.append(row)
        return len(src), rows

    cols, d_a = coboundary(a)
    if cols == 0:
        return 0
    rank_prev = independent_rank(coboundary(a - 1)[1]) if a >= 1 else 0
    return cols - independent_rank(d_a) - rank_prev


def page_relations(e1):
    """d1^2 = 0 and the commutation of N and L with d1 and each other,
    quantified over every cell of the first page; list of results."""
    names = {
        "dd": "d1_squared",
        "nd": "N_commutes_d1",
        "ld": "L_commutes_d1",
        "nl": "N_commutes_L",
    }
    return relation_checks(e1, names, lambda a, b: {"a": a, "b": b}, {})


def duality_check(e2):
    """dim E2^{a,b} = dim E2^{-a, 2n-b} for every cell; list of results."""
    n = e2.n
    seen = set()
    results = []
    for (a, b) in e2.support():
        pair = ((a, b), (-a, 2 * n - b))
        key = tuple(sorted(pair))
        if key in seen:
            continue
        seen.add(key)
        d1 = e2.dim(a, b)
        d2 = e2.dim(-a, 2 * n - b)
        results.append(
            CheckResult(
                name="poincare_duality_dims",
                location={"a": a, "b": b, "dual_a": -a, "dual_b": 2 * n - b},
                status="pass" if d1 == d2 else "fail",
                witness={"dim": d1, "dual_dim": d2},
            )
        )
    return results


@dataclass
class HodgeLefschetzModule:
    """Tables of a module of weight ``weight`` keyed by ``(i, j)``; the
    accessors take page coordinates ``(a, b) = (i, j-i+n)`` and give zero
    matrices for entries the tables leave out."""

    weight: int
    dims: dict[tuple[int, int], int]
    n_ops: dict[tuple[int, int], RatMatrix] = field(default_factory=dict)
    l_ops: dict[tuple[int, int], RatMatrix] = field(default_factory=dict)
    d_ops: dict[tuple[int, int], RatMatrix] = field(default_factory=dict)
    pairing: dict[tuple[int, int], RatMatrix] = field(default_factory=dict)

    def __post_init__(self):
        self.dims = {k: v for k, v in self.dims.items() if v}

    @staticmethod
    def of(cx) -> "HodgeLefschetzModule":
        """The dimensions and nonzero maps of a page or module, as tables."""
        n = cx.n
        cells = {(a, a + b - n): (a, b) for (a, b) in cx.support()}

        def table(op):
            out = {ij: op(*ab) for ij, ab in cells.items()}
            return {ij: m for ij, m in out.items() if not m.is_zero()}

        return HodgeLefschetzModule(
            weight=n,
            dims={ij: cx.dim(*ab) for ij, ab in cells.items()},
            n_ops=table(cx.nmap),
            l_ops=table(cx.lmap),
            d_ops=table(cx.d1),
            pairing=table(cx.pairing_at),
        )

    @property
    def n(self) -> int:
        return self.weight

    def dim(self, a: int, b: int) -> int:
        return self.dims.get((a, a + b - self.weight), 0)

    def support(self):
        return sorted((i, j - i + self.weight) for (i, j) in self.dims)

    def _entry(self, table, a, b, rows, cols) -> RatMatrix:
        m = table.get((a, a + b - self.weight))
        return m if m is not None else RatMatrix.zeros(rows, cols)

    def d1(self, a: int, b: int) -> RatMatrix:
        return self._entry(self.d_ops, a, b, self.dim(a + 1, b), self.dim(a, b))

    def nmap(self, a: int, b: int) -> RatMatrix:
        return self._entry(self.n_ops, a, b, self.dim(a + 2, b - 2), self.dim(a, b))

    def lmap(self, a: int, b: int) -> RatMatrix:
        return self._entry(self.l_ops, a, b, self.dim(a, b + 2), self.dim(a, b))

    def pairing_at(self, a: int, b: int) -> RatMatrix:
        dual = self.dim(-a, 2 * self.weight - b)
        return self._entry(self.pairing, a, b, self.dim(a, b), dual)


def cycle_incidence(N: int):
    """Signed vertex-to-edge incidence of the N-cycle: edge {i, j} with
    i < j reads value at j minus value at i."""
    edges = sorted(tuple(sorted((i, i % N + 1))) for i in range(1, N + 1))
    rows = []
    for (i, j) in edges:
        row = [0] * N
        row[j - 1] = 1
        row[i - 1] = -1
        rows.append(row)
    return rows


def graph_curve(edges, nv, *, degrees=None, elliptic=()):
    """A curve configuration from a connected graph: one rational (or
    elliptic) curve per vertex, one point per edge."""
    degrees = degrees or {}
    faces = {}
    restrictions = {}
    for v in range(1, nv + 1):
        if v in elliptic:
            faces[(v,)] = elliptic_curve_cohomology(degree=degrees.get(v, 1))
        else:
            deg = degrees.get(v, 1)
            faces[(v,)] = StratumCohomology(
                dim=1,
                dims={0: 1, 2: 1},
                pairing={0: RatMatrix.identity(1)},
                lefschetz={0: RatMatrix.from_rows([[deg]])},
                slope_pure=True,
            )
    for (i, j) in edges:
        edge = tuple(sorted((i, j)))
        faces[edge] = point_cohomology(1)
        for v in edge:
            restrictions[((v,), edge)] = {0: RatMatrix.identity(1)}
    return StrataComplex(
        name=f"graph_curve:{nv}v{len(edges)}e",
        n=1,
        components=[f"C{v}" for v in range(1, nv + 1)],
        faces=faces,
        restrictions=restrictions,
    )


def random_graph_curve(rng: random.Random) -> StrataComplex:
    nv = rng.randint(2, 6)
    edges = set()
    order = list(range(2, nv + 1))
    rng.shuffle(order)
    for v in order:  # random spanning tree keeps the fiber connected
        u = rng.randint(1, v - 1)
        edges.add(tuple(sorted((u, v))))
    for _ in range(rng.randint(0, 3)):
        u, v = rng.sample(range(1, nv + 1), 2) if nv >= 2 else (1, 1)
        if u != v:
            edges.add(tuple(sorted((u, v))))
    degrees = {v: rng.randint(1, 3) for v in range(1, nv + 1)}
    elliptic = tuple(v for v in range(1, nv + 1) if rng.random() < 0.2)
    return graph_curve(sorted(edges), nv, degrees=degrees, elliptic=elliptic)


def random_cell_vector(rng: random.Random, n: int):
    half = (n + 2) // 2
    prim = [1] + [rng.randint(0, 2) for _ in range(half - 1)]
    c = []
    total = 0
    for s in range(half):
        total += prim[s]
        c.append(total)
    full = c + c[::-1] if n % 2 else c + c[:-1][::-1]
    return tuple(full)


def random_valid_complex(rng: random.Random) -> StrataComplex:
    """Small valid configuration: a graph curve, a cellular component, or a
    product of one of those with a cellular factor."""
    roll = rng.random()
    if roll < 0.45:
        return random_graph_curve(rng)
    if roll < 0.70:
        n = rng.randint(1, 3)
        coh = cellular_cohomology(random_cell_vector(rng, n))
        return StrataComplex(
            name="random_cellular",
            n=n,
            components=["Z1"],
            faces={(1,): coh},
            restrictions={},
        )
    base = random_graph_curve(rng)
    if rng.random() < 0.5:
        factor = projective_space_cohomology(rng.randint(1, 2))
    else:
        factor = cellular_cohomology(random_cell_vector(rng, rng.randint(1, 2)))
    return base.product_with_factor(factor)


# document -> (builtin, faces, the matrices negated on each of those faces)
SIGN_MUTANTS = {
    "ngon:5": ("ngon:5", [[1]], "pairing"),
    "ngon_x_p1:3": ("ngon_x_p1:3", [[1]], "pairing"),
    "ngon:4/lefschetz-sign": ("ngon:4", [[1], [2]], "lefschetz"),
    "ngon:4/point-sign": ("ngon:4", [[1, 2], [1, 4]], "pairing"),
}


def sign_mutant(name: str) -> dict:
    """The builtin of ``SIGN_MUTANTS[name]`` with the named matrices of the
    named faces negated, as a JSON document."""
    spec, faces, key = SIGN_MUTANTS[name]
    doc = scenarios.build(scenarios.parse_spec(spec)).to_json_dict()
    for face in doc["faces"]:
        if face["indices"] in faces:
            face[key] = {
                m: [[str(-Fraction(x)) for x in row] for row in rows]
                for m, rows in face[key].items()
            }
    return doc


# document -> the (code, location) of each level relation it fails, in the
# order validate reports them
RELATION_MUTANTS = {
    # the restriction {1,2} -> {1,2,3} doubled in degree 0
    "tetrahedron/restriction-double": [
        ("rho-squared", "level 1 degree 0"),
        ("anticommutation", "level 2 degree 0"),
        ("tau-squared", "level 3 degree 0"),
    ],
    # the pairing of the triple point {1,2,3} negated
    "tetrahedron/point-sign": [("anticommutation", "level 2 degree 0")],
    # two P^3 meeting in a stratum with H^2 alone
    "two-p3/h2-only": [
        ("lefschetz-rho", "level 1 degree 0"),
        ("lefschetz-tau", "level 2 degree 2"),
    ],
}


def relation_mutant(name: str) -> dict:
    """The document ``name`` of ``RELATION_MUTANTS``, as JSON.  Each passes
    the structural checks: a changed restriction or pairing keeps its shape
    and perfectness, and ``two-p3/h2-only`` gives its double stratum no
    ``H^0``, a degree in which no restriction is checked."""
    one = [["1"]]
    if name == "two-p3/h2-only":
        p3 = {
            "cohomology": {str(2 * c): 1 for c in range(4)},
            "pairing": {str(2 * c): one for c in range(4)},
            "lefschetz": {str(2 * c): one for c in range(3)},
            "slope_pure": True,
        }
        meet = {"cohomology": {"2": 1}, "pairing": {"2": one}, "lefschetz": {}, "slope_pure": True}
        return {
            "schema_version": 1,
            "name": name,
            "dimension": 3,
            "components": ["P1", "P2"],
            "faces": [{"indices": [1], **p3}, {"indices": [2], **p3}, {"indices": [1, 2], **meet}],
            "restrictions": [
                {"from": [c], "to": [1, 2], "maps": {"2": one}} for c in (1, 2)
            ],
        }
    doc = scenarios.build(scenarios.parse_spec("tetrahedron")).to_json_dict()
    if name == "tetrahedron/restriction-double":
        entry = next(r for r in doc["restrictions"] if (r["from"], r["to"]) == ([1, 2], [1, 2, 3]))
        entry["maps"] = {"0": [["2"]]}
    else:
        next(f for f in doc["faces"] if f["indices"] == [1, 2, 3])["pairing"] = {"0": [["-1"]]}
    return doc


def complex_of(source: str) -> StrataComplex:
    """The complex named by a test source: a ``SIGN_MUTANTS`` or
    ``RELATION_MUTANTS`` name, ``random:<seed>`` for a
    ``random_valid_complex``, or a builtin label."""
    if source in SIGN_MUTANTS:
        return StrataComplex.from_json_dict(sign_mutant(source))
    if source in RELATION_MUTANTS:
        return StrataComplex.from_json_dict(relation_mutant(source))
    if source.startswith("random:"):
        return random_valid_complex(random.Random(int(source[7:])))
    return scenarios.build(scenarios.parse_spec(source))
