import sys
import threading
from fractions import Fraction

import pytest

from helpers import (
    cycle_incidence,
    duality_check,
    independent_rank,
    nerve_cohomology_oracle,
    page_relations,
    sign_mutant,
)
from ssweight.errors import DifferentialNotSquareZero
from ssweight.linalg import image, kernel
from ssweight.scenarios import (
    build,
    builtin_specs,
    cellular_cohomology,
    elliptic_stratum,
    good_reduction_pn,
    ngon,
    parse_spec,
    projective_space_cohomology,
    tetrahedron,
)
from ssweight.spectral import build_e1, compute_e2, power
from ssweight.strata import StrataComplex


class TestE1:
    def test_ngon_cells(self):
        e1 = build_e1(ngon(3))
        dims = {key: e1.dim(*key) for key in e1.support()}
        # oracle: hand enumeration of the cell formula for the three-cycle
        assert dims == {(0, 0): 3, (1, 0): 3, (-1, 2): 3, (0, 2): 3}

    def test_pn_single_column(self):
        e1 = build_e1(good_reduction_pn(3))
        assert all(a == 0 for (a, b) in e1.support())
        assert [e1.dim(0, 2 * c) for c in range(4)] == [1, 1, 1, 1]

    def test_tetrahedron_triple_points_cell(self):
        e1 = build_e1(tetrahedron())
        assert e1.dim(2, 0) == 4  # four triple points

    def test_slope_twist_bookkeeping(self):
        e1 = build_e1(ngon(3))
        for (a, b) in e1.support():
            for s in e1.cell(a, b):
                # degree-2c summand is pure of slope c, twisted down by a-k
                assert Fraction(s.degree, 2) - (a - s.k) == Fraction(b, 2)

    def test_d1_squares_to_zero_everywhere(self):
        for sc in (ngon(4), tetrahedron(), elliptic_stratum()):
            e1 = build_e1(sc)
            assert all(r.ok for r in page_relations(e1))


class TestE2:
    def test_ngon_dims_against_incidence_oracle(self):
        # oracle: rank of the signed cycle incidence is N-1, independently
        for N in (3, 4):
            r = independent_rank(cycle_incidence(N))
            assert r == N - 1
            e2 = compute_e2(build_e1(ngon(N)))
            assert e2.dim(0, 0) == N - r
            assert e2.dim(1, 0) == N - r
            assert e2.dim(-1, 2) == N - r
            assert e2.dim(0, 2) == N - r

    def test_ngon_abutment(self):
        e2 = compute_e2(build_e1(ngon(3)))
        assert e2.abutment() == {0: 1, 1: 2, 2: 1}

    def test_pn_e2_equals_e1(self):
        e1 = build_e1(good_reduction_pn(2))
        e2 = compute_e2(e1)
        for (a, b) in e1.support():
            assert e2.dim(a, b) == e1.dim(a, b)

    def test_ngon_x_p1_kunneth(self):
        prod = ngon(3).product_with_factor(projective_space_cohomology(1))
        e2 = compute_e2(build_e1(prod))
        # oracle: Kunneth with the curve answer (1,2,1) times (1,0,1)
        assert e2.abutment() == {0: 1, 1: 2, 2: 2, 3: 2, 4: 1}

    @pytest.mark.parametrize("factor", ["P1", "P2", "cellular:1,1,1", "cellular:1,2,1"])
    @pytest.mark.parametrize(
        "base", ["ngon:3", "ngon:5", "tetrahedron", "elliptic_stratum", "good_reduction_pn:2"]
    )
    def test_kunneth_cell_by_cell(self, base, factor):
        # oracle: the product with a smooth factor F tensors every stratum with
        # H(F), so dim E2^{a,b}(X x F) = sum_m dim E2^{a,b-m}(X) dim H^m(F)
        sc = build(parse_spec(base))
        if factor.startswith("P"):
            f = projective_space_cohomology(int(factor[1:]))
        else:
            f = cellular_cohomology(tuple(int(c) for c in factor.split(":")[1].split(",")))
        prod = sc.product_with_factor(f)
        assert prod.validate().ok
        e2, e2_prod = compute_e2(build_e1(sc)), compute_e2(build_e1(prod))
        cells = {(a, b + m) for (a, b) in e2.support() for m in f.degrees()}
        assert set(e2_prod.support()) <= cells
        for (a, b) in sorted(cells):
            expected = sum(e2.dim(a, b - m) * f.dim_in(m) for m in f.degrees())
            assert e2_prod.dim(a, b) == expected, (a, b)

    def test_induced_operators_well_defined(self):
        for sc in (ngon(3), tetrahedron(), elliptic_stratum()):
            e2 = compute_e2(build_e1(sc))
            for (a, b) in e2.support():
                e2.induced_n(a, b)
                e2.induced_l(a, b)

    def test_induced_maps_computed_once_per_cell(self, monkeypatch):
        import ssweight.spectral as spectral

        calls = []

        def counting(m, src, dst):
            calls.append((m.rows, m.cols))
            return induced_map(m, src, dst)

        induced_map = spectral.induced_map
        monkeypatch.setattr(spectral, "induced_map", counting)
        e2 = compute_e2(build_e1(tetrahedron()))
        for _ in range(2):
            for (a, b) in e2.support():
                assert e2.induced_l(a, b) is e2.induced_l(a, b)
                e2.induced_n(a, b)
                power(e2, "l", a, b, 2)
        cells = {(a, b) for (a, b) in e2.support()}
        expected = {("l", a, b, (a, b + 2)) for (a, b) in cells}
        expected |= {("n", a, b, (a + 2, b - 2)) for (a, b) in cells}
        expected |= {("l", a, b + 2, (a, b + 4)) for (a, b) in cells}
        # one call per (operator, cell) pair, out of or into an empty cell too
        assert len(calls) == len(expected)

    def test_induced_maps_shared_across_threads(self):
        # the memo has no lock: threads that race on one entry must still
        # all see the matrices a sequential page computes
        keys = [(a, b) for (a, b) in compute_e2(build_e1(ngon(4))).support()]
        expected = compute_e2(build_e1(ngon(4)))
        expected = {k: (expected.induced_n(*k), expected.induced_l(*k)) for k in keys}
        e2 = compute_e2(build_e1(ngon(4)))
        results = []

        def work():
            results.append({k: (e2.induced_n(*k), e2.induced_l(*k)) for k in keys})

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [expected] * len(threads)

    def test_broken_differential_raises(self):
        # needs triple points: scaling one restriction breaks the two-path
        # consistency plane -> line -> point and rho o rho becomes nonzero
        sc = tetrahedron()
        maps = dict(sc.restrictions[((1,), (1, 2))])
        maps[0] = maps[0].scale(2)
        sc.restrictions[((1,), (1, 2))] = maps
        with pytest.raises(DifferentialNotSquareZero):
            compute_e2(build_e1(sc))

    def test_euler_characteristic_per_row(self):
        for sc in (ngon(4), tetrahedron(), elliptic_stratum()):
            e1 = build_e1(sc)
            e2 = compute_e2(e1)
            rows = {b for (_, b) in e1.support()}
            for b in rows:
                chi1 = sum(
                    (-1) ** a * e1.dim(a, b) for (a, bb) in e1.support() if bb == b
                )
                chi2 = sum(
                    (-1) ** a * e2.dim(a, b) for (a, bb) in e2.support() if bb == b
                )
                assert chi1 == chi2


class TestQuotient:
    SOURCES = [*builtin_specs(), "ngon:4/lefschetz-sign", "ngon:4/point-sign"]

    @pytest.mark.parametrize(
        "source", SOURCES, ids=lambda s: s if isinstance(s, str) else s.label()
    )
    def test_h0_cells_are_ker_rho_over_im_rho(self, source):
        # H^0 of level k is the first-page cell (k-1, 0) alone, with d1 = rho
        # into and out of it, so the page's quotient there holds the very
        # bases that kernel and image of rho give
        if isinstance(source, str):
            sc = StrataComplex.from_json_dict(sign_mutant(source))
        else:
            sc = build(source)
        e2 = compute_e2(build_e1(sc))
        for k in range(1, sc.max_level + 1):
            q = e2.quotient(k - 1, 0)
            assert q.numerator.basis == kernel(sc.rho(k, 0)).basis
            if k >= 2:
                assert q.denominator.basis == image(sc.rho(k - 1, 0)).basis

    @pytest.mark.parametrize("sc, cell", [(good_reduction_pn(1), (1, 0)), (ngon(3), (2, 0))])
    def test_off_the_support_is_the_zero_quotient(self, sc, cell):
        q = compute_e2(build_e1(sc)).quotient(*cell)
        assert (q.dim, q.ambient_dim) == (0, 0)


class TestDuality:
    def test_ngon(self):
        assert all(c.ok for c in duality_check(compute_e2(build_e1(ngon(3)))))

    def test_pn(self):
        assert all(
            c.ok for c in duality_check(compute_e2(build_e1(good_reduction_pn(2))))
        )

    def test_tetrahedron(self):
        assert all(c.ok for c in duality_check(compute_e2(build_e1(tetrahedron()))))


class TestNerveOracle:
    def test_cycle_graph(self):
        sc = ngon(3)
        # oracle: cochain ranks of the cycle graph
        assert nerve_cohomology_oracle(sc, 0) == 1
        assert nerve_cohomology_oracle(sc, 1) == 1
        assert nerve_cohomology_oracle(sc, 2) == 0

    def test_boundary_of_simplex(self):
        sc = tetrahedron()
        # oracle: the nerve is the two-sphere
        assert [nerve_cohomology_oracle(sc, a) for a in range(3)] == [1, 0, 1]

    def test_single_vertex(self):
        sc = good_reduction_pn(2)
        assert nerve_cohomology_oracle(sc, 0) == 1
        assert nerve_cohomology_oracle(sc, 1) == 0

    def test_weight_zero_row_matches(self):
        for sc in (ngon(5), tetrahedron(), good_reduction_pn(2)):
            e2 = compute_e2(build_e1(sc))
            for a in range(0, sc.max_level + 1):
                assert e2.dim(a, 0) == nerve_cohomology_oracle(sc, a)


class TestCellFormula:
    def test_summands_realize_cell_formula(self):
        # brute-force re-enumeration of the cell formula, independent of the
        # page construction loop
        for sc in (tetrahedron(), ngon(4), elliptic_stratum()):
            e1 = build_e1(sc)
            for (a, b), summands in e1.cells.items():
                expected = []
                for k in range(max(a, 0), max(a, 0) + sc.max_level + 2):
                    level = 2 * k - a + 1
                    degree = 2 * (a - k) + b
                    d = sc.level_dim(level, degree)
                    if d:
                        expected.append((k, level, degree, d))
                got = [(s.k, s.level, s.degree, s.dim) for s in summands]
                assert got == expected
