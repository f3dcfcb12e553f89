from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssweight.errors import (
    InvalidParameters,
    NonIntegralSlopes,
    SlopesUnavailable,
)
from ssweight.polygons import (
    HodgeVector,
    PhiNModule,
    Polygon,
    SlopeMultiset,
    check_admissibility_necessary,
    check_linear_relation,
    check_slope_symmetry,
    hodge_from_ordinary,
    hodge_symmetry_report,
    slopes_from_e2,
    t_H,
    t_N,
)
from ssweight.scenarios import (
    elliptic_stratum,
    good_reduction_pn,
    ngon,
    projective_space_cohomology,
    tetrahedron,
)
from ssweight.spectral import build_e1, compute_e2


def step_function_value(sorted_values, x):
    """Independent evaluation of the polygon of a multiset: integrate the
    sorted slope sequence up to x."""
    total = Fraction(0)
    x = Fraction(x)
    for idx, v in enumerate(sorted_values):
        lo, hi = Fraction(idx), Fraction(idx + 1)
        if x <= lo:
            break
        total += v * (min(x, hi) - lo)
    return total


class TestSlopes:
    def test_ngon_h1(self):
        e2 = compute_e2(build_e1(ngon(3)))
        assert slopes_from_e2(e2, 1).to_json() == ["0", "1"]

    def test_pn_h2(self):
        e2 = compute_e2(build_e1(good_reduction_pn(2)))
        assert slopes_from_e2(e2, 2).to_json() == ["1"]

    def test_ngon_x_p1_h2_kunneth(self):
        # oracle: H^2 of the product is H^2(curve) + H^0 (x) H^2(line),
        # slopes 1 and 0+1
        prod = ngon(3).product_with_factor(projective_space_cohomology(1))
        e2 = compute_e2(build_e1(prod))
        assert slopes_from_e2(e2, 2).to_json() == ["1", "1"]

    def test_unavailable_without_cycle_generation(self):
        e2 = compute_e2(build_e1(elliptic_stratum()))
        with pytest.raises(SlopesUnavailable):
            slopes_from_e2(e2, 1)


class TestSlopeSymmetry:
    def test_tate_shape(self):
        assert check_slope_symmetry(SlopeMultiset.of(1, [0, 1])).status == "pass"

    def test_half_slopes(self):
        sl = SlopeMultiset.of(1, ["0", "1/2", "1/2", "1"])
        assert check_slope_symmetry(sl).status == "pass"

    def test_asymmetric_fails(self):
        assert check_slope_symmetry(SlopeMultiset.of(1, [0, 0, 1])).status == "fail"


class TestTotals:
    def test_t_n(self):
        m = PhiNModule(SlopeMultiset.of(1, [0, 1]), (0, 1))
        assert t_N(m) == 1

    def test_t_h(self):
        m = PhiNModule(SlopeMultiset.of(1, [0, 1]), (0, 1))
        assert t_H(m) == 1

    def test_empty(self):
        m = PhiNModule(SlopeMultiset.of(0, []), ())
        assert t_N(m) == 0 and t_H(m) == 0


class TestPolygonConstruction:
    def test_tate(self):
        p = Polygon.from_slopes(SlopeMultiset.of(1, [0, 1]).entries)
        assert p.to_json() == [["0", "0"], ["1", "0"], ["2", "1"]]

    def test_k3_hodge(self):
        h = HodgeVector(2, (1, 20, 1))
        p = Polygon.from_slopes(h.jumps())
        assert p.to_json() == [["0", "0"], ["1", "0"], ["21", "20"], ["22", "22"]]

    def test_supersingular(self):
        p = Polygon.from_slopes(SlopeMultiset.of(1, ["1/2", "1/2"]).entries)
        assert p.to_json() == [["0", "0"], ["2", "1"]]

    def test_rejects_nonconvex(self):
        with pytest.raises(InvalidParameters):
            Polygon(((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)), (Fraction(2), Fraction(1))))

    def test_endpoint_heights_are_totals(self):
        m = PhiNModule(SlopeMultiset.of(2, [0, 1, 1, 2]), (0, 1, 1, 2))
        assert Polygon.from_slopes(m.slopes.entries).vertices[-1][1] == t_N(m)
        assert Polygon.from_slopes(m.filtration_jumps).vertices[-1][1] == t_H(m)


class TestAdmissibility:
    def test_equal_polygons(self):
        m = PhiNModule(SlopeMultiset.of(1, [0, 1]), (0, 1))
        assert check_admissibility_necessary(m).status == "pass"

    def test_supersingular_above_ordinary(self):
        m = PhiNModule(SlopeMultiset.of(1, ["1/2", "1/2"]), (0, 1))
        assert check_admissibility_necessary(m).status == "pass"

    def test_endpoint_mismatch_fails(self):
        m = PhiNModule(SlopeMultiset.of(1, [0, 1]), (1, 1))
        assert check_admissibility_necessary(m).status == "fail"

    def test_size_mismatch_rejected(self):
        with pytest.raises(InvalidParameters):
            PhiNModule(SlopeMultiset.of(1, [0, 1]), (0,))


class TestLinearRelation:
    def test_k3(self):
        assert check_linear_relation(HodgeVector(2, (1, 20, 1))).status == "pass"

    def test_curve(self):
        assert check_linear_relation(HodgeVector(1, (1, 1))).status == "pass"

    def test_failing(self):
        res = check_linear_relation(HodgeVector(3, (0, 0, 0, 1)))
        assert res.status == "fail" and res.witness["signed_sum"] == 3


class TestHodgeFromOrdinary:
    def test_tate_curve_shape(self):
        hv = hodge_from_ordinary(SlopeMultiset.of(1, [0, 1]))
        assert hv.values == (1, 1)

    def test_surface(self):
        hv = hodge_from_ordinary(SlopeMultiset.of(2, [0, 1, 1, 2]))
        assert hv.values == (1, 2, 1)

    def test_non_integral_rejected(self):
        with pytest.raises(NonIntegralSlopes):
            hodge_from_ordinary(SlopeMultiset.of(1, ["1/2", "1/2"]))


class TestPolygonComparisonProperty:
    @given(
        st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=6), max_size=8),
        st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=6), max_size=8),
    )
    @settings(max_examples=80)
    def test_vertex_sampling_agrees_with_dense_sampling(self, a, b):
        if len(a) != len(b):
            return
        pa = Polygon.from_slopes(a)
        pb = Polygon.from_slopes(b)
        fast = pa.lies_on_or_above(pb)
        sa, sb = sorted(a), sorted(b)
        denom = 24
        width = len(a)
        slow = all(
            step_function_value(sa, Fraction(k, denom))
            >= step_function_value(sb, Fraction(k, denom))
            for k in range(width * denom + 1)
        )
        assert fast == slow

    @given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=6), max_size=8))
    @settings(max_examples=40)
    def test_value_at_matches_step_integral(self, a):
        p = Polygon.from_slopes(a)
        sa = sorted(a)
        for k in range(2 * len(a) + 1):
            x = Fraction(k, 2)
            assert p.value_at(x) == step_function_value(sa, x)


class TestReport:
    def test_ngon_report(self):
        rep = hodge_symmetry_report(ngon(3))
        assert rep.passed
        q1 = next(d for d in rep.data["degrees"] if d["q"] == 1)
        assert q1["slopes"] == ["0", "1"]
        assert q1["hodge_numbers"] == [
            {"i": 0, "j": 1, "dim": 1},
            {"i": 1, "j": 0, "dim": 1},
        ]
        assert q1["hodge_symmetry"]["status"] == "pass"

    def test_tetrahedron_symmetric_everywhere(self):
        rep = hodge_symmetry_report(tetrahedron())
        assert rep.passed
        for d in rep.data["degrees"]:
            assert d["hodge_symmetry"]["status"] == "pass"

    def test_pn_trivial_diagonal(self):
        rep = hodge_symmetry_report(good_reduction_pn(2))
        assert rep.passed
        q2 = next(d for d in rep.data["degrees"] if d["q"] == 2)
        assert q2["hodge_numbers"] == [
            {"i": 0, "j": 2, "dim": 0},
            {"i": 1, "j": 1, "dim": 1},
            {"i": 2, "j": 0, "dim": 0},
        ]

    def test_non_cycle_generated_steps_skipped(self):
        rep = hodge_symmetry_report(elliptic_stratum())
        for d in rep.data["degrees"]:
            assert d["slope_symmetry"]["status"] == "skipped"
            assert d["hodge_symmetry"]["status"] == "skipped"

    def test_invalid_input_reported_not_assumed(self):
        sc = ngon(3)
        del sc.restrictions[((1,), (1, 2))]
        rep = hodge_symmetry_report(sc)
        assert not rep.passed
        assert not rep.data["validation"]["ok"]
        assert "degrees" not in rep.data
