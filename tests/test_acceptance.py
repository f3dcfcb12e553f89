"""Acceptance suite: every criterion is exact (zero tolerance) and prints
one PASS/FAIL line.  Expected values come from independent oracles computed
in this file or in helpers.py (hand-counted incidence ranks, simplicial
cochain ranks, step-function polygon evaluation), never from the pipeline
under test."""

import json
import random
from fractions import Fraction

from helpers import (
    cycle_incidence,
    duality_check,
    independent_rank,
    nerve_cohomology_oracle,
    page_relations,
    random_valid_complex,
    swap_face,
)

from ssweight.checks import check_h1_suite, check_log_hl_all, check_wm
from ssweight.cli import main
from ssweight.hodge_lefschetz import check_hl_axioms, hl_cohomology, hl_from_strata
from ssweight.linalg import RatMatrix
from ssweight.polygons import (
    PhiNModule,
    Polygon,
    SlopeMultiset,
    check_admissibility_necessary,
    check_linear_relation,
    check_slope_symmetry,
    hodge_from_ordinary,
    slopes_from_e2,
)
from ssweight.scenarios import build, builtin_specs, ngon
from ssweight.spectral import build_e1, compute_e2


def verdict(number, label, ok):
    print(f"ACCEPTANCE {number} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


def builtin_complexes():
    return [(spec.label(), build(spec)) for spec in builtin_specs()]


def test_criterion_1_structural_axioms():
    """d1^2, rho^2, tau^2, rho tau + tau rho, and [N|L, d1] vanish exactly on
    every builtin scenario and on 200 randomized small valid inputs."""
    ok = True
    inputs = [sc for _, sc in builtin_complexes()]
    rng = random.Random(20260809)
    inputs.extend(random_valid_complex(rng) for _ in range(200))
    for sc in inputs:
        report = sc.validate()  # rho^2, tau^2, anticommutation, [L, rho/tau]
        relations = page_relations(build_e1(sc))  # d1^2, [N, d1], [L, d1]
        if not report.ok or not all(r.ok for r in relations):
            ok = False
            break
    verdict(1, "structural axioms on builtins + 200 random inputs", ok)


def test_criterion_2_ngon_pin():
    """For N = 3..8 the second page, weight-monodromy, slopes, and Hodge
    numbers of the cycle-of-curves fiber match the independent incidence
    oracle (signed cycle incidence has rank N-1)."""
    ok = True
    for N in range(3, 9):
        oracle_rank = independent_rank(cycle_incidence(N))
        expected_cell = N - oracle_rank  # = 1
        if oracle_rank != N - 1:
            ok = False
            break
        e2 = compute_e2(build_e1(ngon(N)))
        dims = (e2.dim(0, 0), e2.dim(1, 0), e2.dim(-1, 2), e2.dim(0, 2))
        if dims != (expected_cell,) * 4:
            ok = False
            break
        wm = {
            (c.location.get("r"), c.location.get("w")): c.status
            for c in check_wm(e2)
        }
        if wm.get((1, 1)) != "pass":
            ok = False
            break
        sl = slopes_from_e2(e2, 1)
        if sl.to_json() != ["0", "1"]:
            ok = False
            break
        if hodge_from_ordinary(sl).values != (1, 1):
            ok = False
            break
    verdict(2, "cycle-of-curves pin against the incidence oracle (N=3..8)", ok)


def test_criterion_3_nerve_oracle():
    """dim E2^{a,0} equals the simplicial cochain cohomology of the nerve for
    every cycle-generated scenario."""
    ok = True
    for label, sc in builtin_complexes():
        if not sc.cycle_generated:
            continue
        e2 = compute_e2(build_e1(sc))
        for a in range(0, sc.max_level + 2):
            if e2.dim(a, 0) != nerve_cohomology_oracle(sc, a):
                ok = False
    verdict(3, "weight-zero row matches the nerve cochain oracle", ok)


def test_criterion_4_page_duality():
    """dim E2^{a,b} = dim E2^{-a, 2n-b} on every builtin scenario."""
    ok = all(
        c.ok
        for _, sc in builtin_complexes()
        for c in duality_check(compute_e2(build_e1(sc)))
    )
    verdict(4, "Poincare duality of second-page dimensions", ok)


def test_criterion_5_combinatorial_hard_lefschetz():
    """Tetrahedron and all cellular scenarios: hard Lefschetz for all r and
    weight-monodromy for all (r, w); the strata-built module satisfies every
    axiom and so does its cohomology."""
    ok = True
    targets = [
        (label, sc)
        for label, sc in builtin_complexes()
        if label == "tetrahedron" or label.startswith("cellular")
    ]
    assert targets
    for label, sc in targets:
        e2 = compute_e2(build_e1(sc))
        if not all(c.ok for c in check_log_hl_all(e2)):
            ok = False
        if not all(c.ok for c in check_wm(e2)):
            ok = False
        v = hl_from_strata(e2.e1)
        if not all(c.ok for c in check_hl_axioms(v)):
            ok = False
        hv = hl_cohomology(v)
        if not all(c.ok for c in check_hl_axioms(hv)):
            ok = False
    verdict(5, "combinatorial hard Lefschetz instantiation (module + cohomology)", ok)


def test_criterion_6_degree_one_suite_and_corruption():
    """The degree-one suite passes on every scenario of dimension >= 1;
    corrupted inputs (degenerate pairing, deleted restriction, flattened
    polarization) fail with a witness that re-verifies."""
    ok = True
    for label, sc in builtin_complexes():
        if sc.n < 1:
            continue
        if not all(c.ok for c in check_h1_suite(compute_e2(build_e1(sc)))):
            ok = False

    # degenerate pairing: validation must fail with a verifying null vector
    broken = ngon(3)
    swap_face(broken, (1,), pairing={0: RatMatrix.zeros(1, 1), 2: RatMatrix.zeros(1, 1)})
    report = broken.validate()
    found_vector = False
    for v in report.violations:
        if v.code == "pairing-not-perfect" and v.witness:
            vec = RatMatrix.from_rows([[x] for x in v.witness["kernel_vector"]])
            gram = broken.faces[(1,)].pairing[0]
            found_vector = not vec.is_zero() and (gram.transpose() @ vec).is_zero()
    if report.ok or not found_vector:
        ok = False

    # deleted restriction: validation must fail, nothing downstream runs
    deleted = ngon(3)
    del deleted.restrictions[((1,), (1, 2))]
    if deleted.validate().ok:
        ok = False

    # degenerate polarization: suite failure carries a verified witness
    from helpers import graph_curve
    from ssweight.checks import _restricted_gram, _twisted_gram
    from ssweight.linalg import kernel

    flat = graph_curve([(1, 2), (2, 3), (1, 3)], 3, degrees={1: 0, 2: 0, 3: 0})
    fails = [c for c in check_h1_suite(compute_e2(build_e1(flat))) if c.status == "fail"]
    verified = False
    for c in fails:
        if c.name == "h0_pairing_on_ker_rho" and c.witness.get("null_vector"):
            k = c.location["k"]
            gram = _restricted_gram(_twisted_gram(flat, k, 0), kernel(flat.rho(k, 0)).basis)
            vec = RatMatrix.from_rows([[x] for x in c.witness["null_vector"]])
            verified = not vec.is_zero() and (gram @ vec).is_zero()
    if not fails or not verified:
        ok = False
    verdict(6, "degree-one suite + corrupted inputs fail with verified witnesses", ok)


def test_criterion_7_implication_chain():
    """Wherever hard Lefschetz passes in degree q, the slope multiset is
    symmetric, and the ordinary Hodge vector satisfies the linear relation
    and is palindromic; quantified over all q of all cycle-generated
    scenarios."""
    ok = True
    checked = 0
    for label, sc in builtin_complexes():
        if not sc.cycle_generated:
            continue
        e2 = compute_e2(build_e1(sc))
        n = sc.n
        for q in range(0, 2 * n + 1):
            r = abs(n - q)
            hl = [
                c
                for c in check_log_hl_all(e2)
                if c.name == "log_hard_lefschetz" and c.location.get("r") == r
            ]
            if not all(c.ok for c in hl):
                continue  # chain not licensed in this degree
            sl = slopes_from_e2(e2, q)
            if check_slope_symmetry(sl).status != "pass":
                ok = False
            hv = hodge_from_ordinary(sl)
            if check_linear_relation(hv).status != "pass":
                ok = False
            if not hv.is_palindromic():
                ok = False
            checked += 1
    verdict(7, f"implication chain over {checked} (scenario, degree) pairs", ok and checked > 0)


def test_criterion_8_polygon_calculus():
    """On 500 random slope/jump pairs: polygon endpoints and the
    admissibility witness's ``t_N`` and ``t_H`` equal the exact totals, and
    the check's dominance test agrees with a dense brute-force sampler."""

    def step_value(sorted_values, x):
        # independent piecewise evaluation used as the brute-force oracle
        total = Fraction(0)
        for idx, v in enumerate(sorted_values):
            lo, hi = Fraction(idx), Fraction(idx + 1)
            if x <= lo:
                break
            total += v * (min(x, hi) - lo)
        return total

    rng = random.Random(1518)
    ok = True
    for _ in range(500):
        size = rng.randint(0, 7)
        slopes = [Fraction(rng.randint(-6, 12), rng.choice([1, 1, 2, 3, 4])) for _ in range(size)]
        jumps = [rng.randint(-2, 6) for _ in range(size)]
        sl = SlopeMultiset.of(max(0, size - 1), slopes)
        newton = Polygon.from_slopes(sl.entries)
        hodge = Polygon.from_slopes(jumps)
        module = PhiNModule(sl, tuple(jumps))
        adm = check_admissibility_necessary(module)
        tn, th = sum(slopes, Fraction(0)), Fraction(sum(jumps))
        if newton.vertices[-1][1] != tn or hodge.vertices[-1][1] != th:
            ok = False
            break
        if (adm.witness["t_N"], adm.witness["t_H"]) != (str(tn), str(th)):
            ok = False
            break
        ss, sj = sorted(slopes), sorted(jumps)
        denom = 12
        slow = all(
            step_value(ss, Fraction(k, denom)) >= step_value(sj, Fraction(k, denom))
            for k in range(size * denom + 1)
        )
        if ("dips below" not in adm.note) != slow:
            ok = False
            break
        expected = slow and tn == th
        if (adm.status == "pass") != expected:
            ok = False
            break
    verdict(8, "polygon calculus vs brute-force sampler on 500 random pairs", ok)


def test_criterion_9_determinism(capsys):
    """The report is byte-identical across runs."""

    def run_report():
        code = main(["report", "--scenario", "tetrahedron", "--format", "json"])
        out = capsys.readouterr().out
        return code, out

    code1, out1 = run_report()
    code2, out2 = run_report()
    ok = code1 == code2 == 0 and out1 == out2
    json.loads(out1)  # well-formed
    verdict(9, "byte-identical reports across runs", ok)
