"""Second-page cells in kernel coordinates against a general quotient.

Each cell of ``E2Page`` is a ``QuotientSpace``, read in the coordinates of
``ker dout``.  Here every cell is compared with the reference model
``GeneralQuotient(amb, kernel(dout), image(din))``, whose lift is picked by
a second rule, and every induced ``N`` and ``L`` map with the lift block of
one solve in the whole ambient space, as the maps were formed before cells
had coordinates.  The pairings are compared with the lift block of the
product, after checking that the denominators pair to zero.  The same holds
on the second page of each page, the fixpoint check of ``hl_suite``, whose
cells have no boundaries and an identity basis.  The documents are the
builtins, the ``SIGN_MUTANTS`` and the builtins in the seeded random
coordinates of the benchmark's basis-changed documents, whose blocks are
dense multi-digit rationals.  The degree-one suite's ``wm_h1_iso``, a map
out of the whole of the coordinates of its source, is compared with the same
lift block out of the model's source.  What building a page costs is counted
too: forward passes and back-substitutions per cell, and those and the
solves of one ``check --all``; no quotient built by a command whose verdicts
pass on dimensions and ranks alone, only the quotients of H^0 that its
pairings read by a passing ``check --h1``, and only the quotients that a
failing map passes through when one fails; no independence check of a subspace the
engine builds (each such basis is ranked by sympy instead), no block read
for a first-page map into or out of an empty cell, and one product per
operator power ``N^r`` or ``L^r`` with ``r >= 2`` that the suites read.  Last comes the memo that a complex, each
page and a module built by hand keep: one entry per method and arguments,
per object.
"""

import contextlib
import io
import json
import random

import pytest

from helpers import (
    SIGN_MUTANTS,
    GeneralQuotient,
    HodgeLefschetzModule,
    basis_changed,
    bench_inputs,
    quotient_of,
    random_valid_complex,
    sign_mutant,
)
from ssweight import cli, linalg
from ssweight.checks import bijectivity_check, check_h1_suite, check_log_hl_all, check_wm
from ssweight.errors import InducedPairingIllDefined, NotWellDefined
from ssweight.hodge_lefschetz import hl_suite
from ssweight.linalg import QuotientSpace, RatMatrix, Subspace, image, induced_map, kernel
from ssweight.scenarios import build, builtin_specs, parse_spec
from ssweight.spectral import E1Page, E2Page, power
from ssweight.strata import StrataComplex


def _complex(source: str) -> StrataComplex:
    kind, _, name = source.partition(" ")
    if kind == "builtin":
        return build(parse_spec(name))
    if kind == "mutant":
        return StrataComplex.from_json_dict(sign_mutant(name))
    return StrataComplex.from_json_dict(basis_changed(name))


SOURCES = [
    *(f"builtin {s.label()}" for s in builtin_specs()),
    *(f"mutant {name}" for name in SIGN_MUTANTS),
    *(f"basis-changed {s.label()}" for s in builtin_specs()),
]


def _ambient_lift_block(m: RatMatrix, src: GeneralQuotient, dst) -> RatMatrix:
    """The induced map from one solve of ``dst.basis @ X = m @ src.basis``
    in the whole ambient space of ``dst``."""
    x = dst.basis.solve(m @ src.basis)
    if x is None:
        raise NotWellDefined("map does not preserve numerators")
    r0, c0 = dst.denominator.dim, src.denominator.dim
    rows = x.entries[r0:]
    if any(any(row[:c0]) for row in rows):
        raise NotWellDefined("map does not preserve denominators")
    return RatMatrix(x.rows - r0, x.cols - c0, [row[c0:] for row in rows])


def _paired_lift_block(p: RatMatrix, left: GeneralQuotient, right: GeneralQuotient) -> RatMatrix:
    if not (left.denominator.basis.transpose() @ p @ right.numerator.basis).is_zero():
        raise InducedPairingIllDefined("left denominator")
    if not (left.numerator.basis.transpose() @ p @ right.denominator.basis).is_zero():
        raise InducedPairingIllDefined("right denominator")
    return left.lift.transpose() @ p @ right.lift


def _outcome(compute):
    """The matrix ``compute()`` returns, or the class of its error."""
    try:
        return compute()
    except (NotWellDefined, InducedPairingIllDefined) as exc:
        return type(exc)


def _page_of(cx):
    """The page of a complex, and the model quotient of each of its cells."""
    general = {
        (a, b): GeneralQuotient(cx.dim(a, b), kernel(cx.d1(a, b)), image(cx.d1(a - 1, b)))
        for (a, b) in cx.support()
    }
    return cx, E2Page(cx), general


@pytest.fixture(scope="module", params=SOURCES)
def pages(request):
    """The page of a source's first page, and the model quotient of every
    first-page cell."""
    return _page_of(E1Page(_complex(request.param)))


@pytest.fixture(scope="module")
def second_pages(pages):
    """The same for the page of that page."""
    return _page_of(pages[1])


def _cells_equal_the_general_quotient(e1, e2, general):
    for cell, g in general.items():
        q = e2.quotient(*cell)
        assert (q.ambient_dim, q.dim) == (g.ambient_dim, g.dim)
        assert q.lift == g.lift
        assert q.basis == g.basis
        assert q.numerator.basis == g.numerator.basis
        assert q.denominator.basis == g.denominator.basis


def _induced_maps_equal_an_ambient_solve(e1, e2, general):
    for (a, b), src in general.items():
        for op, dst_cell, m in (
            ("n", (a + 2, b - 2), lambda: e1.nmap(a, b)),
            ("l", (a, b + 2), lambda: e1.lmap(a, b)),
        ):
            got = _outcome(lambda: e2.induced_n(a, b) if op == "n" else e2.induced_l(a, b))
            if dst_cell in general:
                expected = _outcome(lambda: _ambient_lift_block(m(), src, general[dst_cell]))
            else:
                expected = RatMatrix.zeros(0, src.dim)
            assert got == expected, (op, a, b)


def _pairings_equal_the_lift_block(e1, e2, general):
    n = e2.n
    for (a, b), here in general.items():
        there = general.get((-a, 2 * n - b))
        got = _outcome(lambda: e2.pairing_at(a, b))
        if there is None:
            expected = RatMatrix.zeros(here.dim, 0)
        else:
            expected = _outcome(lambda: _paired_lift_block(e1.pairing_at(a, b), here, there))
        assert got == expected, (a, b)


def test_cells_equal_the_general_quotient(pages):
    _cells_equal_the_general_quotient(*pages)


def test_induced_maps_equal_an_ambient_solve(pages):
    _induced_maps_equal_an_ambient_solve(*pages)


def test_pairings_equal_the_lift_block(pages):
    _pairings_equal_the_lift_block(*pages)


def test_second_page_cells_are_whole_and_equal_the_general_quotient(second_pages):
    # every vector of a second-page cell is a cycle and none is a boundary
    e2, page, general = second_pages
    for cell in general:
        q = page.quotient(*cell)
        assert q.unit_coords and q.basis == RatMatrix.identity(q.ambient_dim)
    _cells_equal_the_general_quotient(*second_pages)


def test_second_page_induced_maps_equal_an_ambient_solve(second_pages):
    _induced_maps_equal_an_ambient_solve(*second_pages)


def test_second_page_pairings_equal_the_lift_block(second_pages):
    _pairings_equal_the_lift_block(*second_pages)


# -- the two failures of an induced map into a page cell ---------------------------


@pytest.fixture(scope="module")
def cell():
    """The cell (0, 2) of the tetrahedron: numerator 26 of 32 dimensions,
    denominator 6, quotient 20."""
    q = E2Page(E1Page(build(parse_spec("tetrahedron")))).quotient(0, 2)
    assert (q.ambient_dim, q.basis.cols, q.dim) == (32, 26, 20)
    return q


def test_a_map_off_the_numerator_is_not_well_defined(cell):
    amb = cell.ambient_dim
    everything = quotient_of(RatMatrix.identity(amb), RatMatrix.zeros(amb, 0))
    with pytest.raises(NotWellDefined, match="numerators"):
        induced_map(RatMatrix.identity(amb), everything, cell)


def test_a_map_off_the_denominator_is_not_well_defined(cell):
    # a source whose denominator is one lift vector of the target: it lands
    # in the numerator, but with a nonzero quotient coordinate
    amb = cell.ambient_dim
    src = quotient_of(cell.numerator.basis, cell.lift.take_columns([0]))
    with pytest.raises(NotWellDefined, match="denominators"):
        induced_map(RatMatrix.identity(amb), src, cell)


def test_a_map_off_the_numerator_into_a_cell_without_boundaries_is_not_well_defined():
    # the cell (0, 0) of the tetrahedron: numerator 1 of 4 dimensions, no
    # denominator, so its coordinates are read off without a solve
    cell = E2Page(E1Page(build(parse_spec("tetrahedron")))).quotient(0, 0)
    assert cell.unit_coords and (cell.ambient_dim, cell.dim) == (4, 1)
    everything = quotient_of(RatMatrix.identity(4), RatMatrix.zeros(4, 0))
    with pytest.raises(NotWellDefined, match="numerators"):
        induced_map(RatMatrix.identity(4), everything, cell)
    assert induced_map(RatMatrix.identity(4), cell, cell) == RatMatrix.identity(1)


def test_the_page_is_its_own_target(cell):
    # the identity descends from the cell to itself as the identity, with
    # the cell as source and target alike
    f = induced_map(RatMatrix.identity(cell.ambient_dim), cell, cell)
    assert f == RatMatrix.identity(cell.dim)


# -- wm_h1_iso against the model ------------------------------------------------


def test_wm_h1_iso_equals_the_lift_block_out_of_the_model_source():
    # the suite maps the whole of Q^k by a basis s of ker(tau) ∩ ker(rho) in
    # H^0 of the double level; the general form is the identity out of the
    # model quotient with numerator span(s) and no denominator
    complexes = [build(spec) for spec in builtin_specs()]
    complexes += [StrataComplex.from_json_dict(sign_mutant(name)) for name in SIGN_MUTANTS]
    complexes += [random_valid_complex(random.Random(seed)) for seed in range(8)]
    sources = []
    for sc in complexes:
        e2 = E2Page(E1Page(sc))
        h0 = e2.quotient(1, 0)
        amb = h0.ambient_dim
        s = kernel(sc.tau(2, 0)).intersection(h0.numerator).basis
        k = s.cols
        whole = QuotientSpace(RatMatrix.identity(k), list(range(k)), RatMatrix.zeros(k, 0))
        model = GeneralQuotient(amb, Subspace(amb, s), Subspace.zero(amb))
        expected = _outcome(lambda: _ambient_lift_block(RatMatrix.identity(amb), model, h0))
        assert _outcome(lambda: induced_map(s, whole, h0)) == expected
        wm = _outcome(lambda: [r for r in check_h1_suite(e2) if r.name == "wm_h1_iso"])
        if isinstance(expected, RatMatrix):
            expected = [bijectivity_check("wm_h1_iso", {"r": 1, "w": 1}, expected)]
        assert wm == expected
        sources.append(k)
    assert any(sources)


# -- what building a page costs --------------------------------------------------


def _count(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(self, *args, **kwargs):
        calls.append(name)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _count_back_substitutions(monkeypatch):
    """Every back-substitution, whichever elimination it finishes."""
    calls = []
    original = linalg._back_substitute

    def counted(forward):
        calls.append("_back_substitute")
        return original(forward)

    monkeypatch.setattr(linalg, "_back_substitute", counted)
    return calls


def _first_page_maps(spec):
    e1 = E1Page(build(spec))
    for (a, b) in e1.support():  # first-page maps are assembled (and tau solved) first
        e1.d1(a - 1, b), e1.d1(a, b)
    return e1


@pytest.mark.parametrize("spec", builtin_specs(), ids=lambda s: s.label())
def test_at_most_three_eliminations_per_cell(monkeypatch, spec):
    # a page and every quotient of it: the forward pass of each d1, its
    # back-substitution, and one small forward pass per cell with boundaries
    e1 = _first_page_maps(spec)
    passes = _count(monkeypatch, RatMatrix, "_forward")
    backs = _count_back_substitutions(monkeypatch)
    checks = _count(monkeypatch, Subspace, "__post_init__")
    e2 = E2Page(e1)
    for cell in e1.support():
        e2.quotient(*cell)
    assert len(passes) + len(backs) <= 3 * len(e1.support())
    assert checks == []


@pytest.mark.parametrize(
    "label, page, quotients", [("tetrahedron", (6, 0), (12, 6)), ("ngon:20", (2, 0), (4, 2))]
)
def test_eliminations_of_a_page(monkeypatch, label, page, quotients):
    # (forward passes, back-substitutions): the page runs the forward pass of
    # each d1 that is not zero (the kernel of a zero d1 is the identity, read
    # without one) and no back-substitution; its quotients then finish each
    # kept pass, and add one small forward pass per cell with boundaries
    e1 = _first_page_maps(parse_spec(label))
    passes = _count(monkeypatch, RatMatrix, "_forward")
    backs = _count_back_substitutions(monkeypatch)
    e2 = E2Page(e1)
    assert (len(passes), len(backs)) == page
    for cell in e1.support():
        e2.quotient(*cell)
    assert (len(passes), len(backs)) == quotients


@pytest.mark.parametrize(
    "label, passes, backs, solves",
    [
        ("tetrahedron", 66, 26, 9),
        ("ngon:20", 29, 9, 3),
        ("good_reduction_pn:2", 15, 4, 0),
        ("cellular:1,2,1", 17, 6, 0),
    ],
)
def test_eliminations_and_solves_of_check_all(monkeypatch, label, passes, backs, solves):
    # no independence rank of a basis independent by construction, no
    # solve into a cell without boundaries, no elimination of a zero matrix
    # for its pivots, no kernel, image or intersection for a degree-one
    # verdict that passes, none for N^0 or L^0, no solve for a zero
    # operator, which induces the shared zero, and no second forward pass
    # of a page's d1
    counted = {name: _count(monkeypatch, RatMatrix, name) for name in ("_forward", "solve")}
    counted["back"] = _count_back_substitutions(monkeypatch)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["check", "--all", "--scenario", label, "--format", "json"])
    assert json.loads(out.getvalue())["passed"]
    assert [len(counted[k]) for k in ("_forward", "back", "solve")] == [passes, backs, solves]


# every passing builtin and ngon:20, with each command that reads dimensions
# and isomorphism ranks alone; slopes are undefined on elliptic_stratum
RANK_ONLY = [
    (label, command)
    for label in [*(s.label() for s in builtin_specs()), "ngon:20"]
    for command in (["e2"], ["slopes"], ["report"], ["check", "--hl"], ["check", "--wm"])
    if (label, command) != ("elliptic_stratum", ["slopes"])
]


def _run_counted(monkeypatch, argv):
    """The exit code and JSON output of ``argv``, the quotients it builds,
    the page cells it reads, its back-substitutions and its solves."""
    made, read = [], set()
    init, quotient = QuotientSpace.__init__, E2Page.quotient
    monkeypatch.setattr(QuotientSpace, "__init__", lambda q, *args: made.append(q) or init(q, *args))
    monkeypatch.setattr(E2Page, "quotient", lambda page, a, b: read.add((a, b)) or quotient(page, a, b))
    backs = _count_back_substitutions(monkeypatch)
    solves = _count(monkeypatch, RatMatrix, "solve")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([*argv, "--format", "json"])
    return code, json.loads(out.getvalue()), made, read, backs, solves


@pytest.mark.parametrize("label, command", RANK_ONLY, ids=lambda x: " ".join(x) if isinstance(x, list) else x)
def test_a_passing_command_builds_no_quotient(monkeypatch, label, command):
    # every back-substitution is that of a solve for tau, none of a d1
    code, _, made, _, backs, solves = _run_counted(monkeypatch, [*command, "--scenario", label])
    assert code == 0
    assert made == [] and len(backs) == len(solves)


@pytest.mark.parametrize("label", ["tetrahedron", "ngon:20", "ngon_x_p1:3"])
def test_check_all_builds_each_quotient_once(monkeypatch, label):
    # every cell of the page and of its own second page (the fixpoint
    # check), and no other
    code, _, made, _, _, _ = _run_counted(monkeypatch, ["check", "--all", "--scenario", label])
    e2 = E2Page(E1Page(build(parse_spec(label))))
    assert code == 0
    assert len(made) == len(e2.e1.support()) + len(e2.support())


@pytest.mark.parametrize("label, quotients", [("tetrahedron", 3), ("ngon:20", 2), ("ngon_x_p1:5", 2)])
def test_check_h1_builds_only_the_quotients_of_h0(monkeypatch, label, quotients):
    # the cells (k - 1, 0), H^0 of level k, that the H^0 pairing checks
    # read; every other verdict passes on dimensions and ranks
    code, _, made, read, _, _ = _run_counted(monkeypatch, ["check", "--h1", "--scenario", label])
    sc = build(parse_spec(label))
    h0 = {(k - 1, 0) for k in range(1, sc.max_level + 1) if sc.level_dim(k, 0)}
    assert code == 0
    assert read & set(E1Page(sc).support()) == h0
    assert len(made) == len(h0) == quotients


def _cells_through(name: str, location: dict, n: int):
    """The cells the power of a failing isomorphism check passes through."""
    r = location["r"]
    if name == "log_hard_lefschetz":
        a, b = n - r - location["b"], location["b"]
        return {(a, b + 2 * s) for s in range(r + 1)}
    a, b = -r, location["w"] + r
    return {(a + 2 * s, b - 2 * s) for s in range(r + 1)}


@pytest.mark.parametrize("command", [["report"], ["check", "--hl"], ["check", "--wm"]], ids=" ".join)
@pytest.mark.parametrize("name", SIGN_MUTANTS)
def test_a_failing_verdict_builds_the_quotients_its_map_passes_through(monkeypatch, tmp_path, name, command):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(sign_mutant(name)))
    sc = StrataComplex.from_json_dict(sign_mutant(name))
    support = set(E1Page(sc).support())
    code, doc, made, read, _, _ = _run_counted(monkeypatch, [*command, "--input", str(path)])
    results = doc["results"] if command == ["report"] else doc["checks"]
    cells = set()
    for r in results:
        if r["status"] == "fail" and "kernel_vector" in r["witness"]:
            cells |= _cells_through(r["name"], r["location"], sc.n)
    assert code == (1 if cells else 0)
    assert read & support == cells & support
    assert len(made) == len(cells & support)


@pytest.mark.parametrize("label", ["tetrahedron", "ngon:20"])
def test_a_page_and_its_suites_check_no_subspace(monkeypatch, label):
    sc = build(parse_spec(label))
    checks = _count(monkeypatch, Subspace, "__post_init__")
    e2 = E2Page(E1Page(sc))
    check_log_hl_all(e2), check_wm(e2), check_h1_suite(e2), hl_suite(e2)
    assert checks == []


def _documents():
    """The builtins, the product rungs of the benchmark, the sign mutants and
    random valid configurations, as JSON documents."""
    inputs = bench_inputs()
    labels = [s.label() for s in builtin_specs()]
    labels += [r for r in dict.fromkeys(inputs.CHECK_RUNGS + inputs.REPORT_RUNGS) if " x " in r]
    docs = [inputs.build_rung(label).dumps() for label in labels]
    docs += [json.dumps(sign_mutant(name)) for name in SIGN_MUTANTS]
    docs += [random_valid_complex(random.Random(seed)).dumps() for seed in range(12)]
    return docs


def test_every_trusted_basis_has_full_column_rank(monkeypatch, tmp_path):
    # every basis that ``check --all`` hands to the unchecked constructor,
    # ranked by sympy
    sympy = pytest.importorskip("sympy")
    bases = set()
    trusted = Subspace._trusted

    def recording(ambient_dim, basis):
        bases.add((ambient_dim, basis.rows, basis.cols, basis.entries))
        return trusted(ambient_dim, basis)

    monkeypatch.setattr(Subspace, "_trusted", staticmethod(recording))
    path = tmp_path / "doc.json"
    for doc in _documents():
        path.write_text(doc)
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["check", "--all", "--input", str(path)])
    assert any(cols for _, _, cols, _ in bases)
    for ambient_dim, rows, cols, entries in bases:
        assert rows == ambient_dim
        assert sympy.Matrix(rows, cols, [x for row in entries for x in row]).rank() == cols


@pytest.mark.parametrize("label", ["tetrahedron", "ngon:5", "ngon_x_p1:3"])
def test_a_map_into_or_out_of_an_empty_cell_reads_no_block(monkeypatch, label):
    # d1 and L with no summands on one side are the shared zero, formed
    # without reading rho, tau or a Lefschetz block
    e1 = E1Page(build(parse_spec(label)))
    maps = {
        (name, src, dst)
        for (a, b) in e1.support()
        for name, src, dst in (
            ("d1", (a, b), (a + 1, b)),
            ("d1", (a - 1, b), (a, b)),
            ("lmap", (a, b), (a, b + 2)),
            ("lmap", (a, b - 2), (a, b)),
        )
        if not (e1.cell(*src) and e1.cell(*dst))
    }
    assert any(e1.cell(*src) for _, src, _ in maps) and any(e1.cell(*dst) for *_, dst in maps)
    reads = [_count(monkeypatch, StrataComplex, name) for name in ("rho", "tau", "level_lefschetz")]
    for name, src, dst in sorted(maps):
        m = getattr(e1, name)(*src)
        assert m is RatMatrix.zeros(e1.dim(*dst), e1.dim(*src))
    assert reads == [[], [], []]


@pytest.mark.parametrize("label", ["tetrahedron", "ngon_x_p1:3"])
def test_one_product_per_operator_power(monkeypatch, label):
    # every N^r and L^r that the suites read, on the first page or the
    # second, is one product onto the power below it, formed once per page
    sc = build(parse_spec(label))
    e2 = E2Page(E1Page(sc))
    asked = set()

    def recording(cx, *key):
        asked.add(({e2: "e2", e2.e1: "e1"}[cx], *key))
        return power(cx, *key)

    for module in ("ssweight.checks", "ssweight.hodge_lefschetz"):
        monkeypatch.setattr(f"{module}.power", recording)
    check_log_hl_all(e2), check_wm(e2), check_h1_suite(e2), hl_suite(e2)
    monkeypatch.undo()
    assert any(key[-1] >= 2 for key in asked)

    fresh = E2Page(E1Page(sc))
    pages = {"e2": fresh, "e1": fresh.e1}
    for page, op, a, b, r in asked:  # the operators themselves are formed first
        cx = pages[page]
        for s in range(r):
            cx.nmap(a + 2 * s, b - 2 * s) if op == "n" else cx.lmap(a, b + 2 * s)
    products = _count(monkeypatch, RatMatrix, "__matmul__")
    low = {key for key in asked if key[-1] <= 1}
    for page, *key in low:
        power(pages[page], *key)
    assert low and products == []
    formed = {(page, *key): power(pages[page], *key) for page, *key in asked}
    chain = {(page, op, a, b, s) for page, op, a, b, r in asked for s in range(2, r + 1)}
    assert len(products) == len(chain)
    for (page, *key), m in formed.items():
        if key[-1] >= 1:  # the memoised power, or the operator itself
            assert power(pages[page], *key) is m
    assert len(products) == len(chain)


# the memoised methods of a complex and of its two pages; the second page's
# d1 is the shared zero of its shape, so it too returns one object
MEMOISED = {
    "strata": ("level", "rho", "tau", "level_pairing", "level_lefschetz"),
    "e1": ("d1", "nmap", "lmap", "pairing_at"),
    "e2": ("d1", "induced_n", "induced_l", "pairing_at"),
}


def _fresh(label: str, kind: str):
    """A new object of ``kind`` whose own memo is empty."""
    sc = build(parse_spec(label))
    if kind == "strata":
        return sc
    e1 = E1Page(sc)
    return e1 if kind == "e1" else E2Page(e1)


def _arguments(obj, name: str):
    if isinstance(obj, StrataComplex):
        levels = range(1, obj.max_level + 1)
        if name == "level":
            return [(k,) for k in levels]
        return [(k, m) for k in levels for m in range(2 * obj.n + 1)]
    return (obj.e1 if isinstance(obj, E2Page) else obj).support()


@pytest.mark.parametrize("kind, name", [(k, n) for k, names in MEMOISED.items() for n in names])
def test_a_memoised_method_returns_one_object(kind, name):
    obj = _fresh("tetrahedron", kind)
    for args in _arguments(obj, name):
        first = getattr(obj, name)(*args)
        assert getattr(obj, name)(*args) is first, (name, args)


@pytest.mark.parametrize(
    "kind, first, second",
    [
        (k, a, b)
        for k, names in MEMOISED.items()
        for a in names
        for b in names
        if a != b and "level" not in (a, b)
    ],
)
def test_methods_on_the_same_arguments_share_no_entry(kind, first, second):
    # ``second`` read after ``first`` on one object, and on a fresh one
    obj, fresh = _fresh("tetrahedron", kind), _fresh("tetrahedron", kind)
    keys = _arguments(obj, first)
    for args in keys:
        getattr(obj, first)(*args)
    assert any(getattr(fresh, first)(*args) != getattr(fresh, second)(*args) for args in keys)
    for args in keys:
        assert getattr(obj, second)(*args) == getattr(fresh, second)(*args), args


@pytest.mark.parametrize("kind", MEMOISED)
def test_two_objects_share_no_memo(kind):
    # every entry read on one complex, then the same keys on another
    obj, other, fresh = (_fresh(label, kind) for label in ("tetrahedron", "ngon:4", "ngon:4"))
    for name in MEMOISED[kind]:
        for args in _arguments(obj, name):
            getattr(obj, name)(*args)
    assert "_memo" not in vars(other)
    for name in MEMOISED[kind]:
        for args in _arguments(obj, name):
            assert getattr(other, name)(*args) == getattr(fresh, name)(*args), (name, args)
    assert vars(other)["_memo"] is not vars(obj)["_memo"]


def test_a_module_built_by_hand_forms_each_power_once(monkeypatch):
    v = HodgeLefschetzModule.of(E2Page(E1Page(build(parse_spec("tetrahedron")))))
    asked = [(op, a, b, r) for op in "nl" for (a, b) in v.support() for r in range(2, v.n + 2)]
    products = _count(monkeypatch, RatMatrix, "__matmul__")
    formed = {key: power(v, *key) for key in asked}
    chain = {(op, a, b, s) for op, a, b, r in asked for s in range(2, r + 1)}
    assert len(products) == len(chain)
    assert all(power(v, *key) is m for key, m in formed.items())
    assert len(products) == len(chain)
