from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssweight.checks import CheckResult
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

    def test_the_constructor_sorts(self):
        # a multiset built directly from unsorted entries is stored sorted,
        # as SlopeMultiset.of stores it
        sl = SlopeMultiset(1, (Fraction(0), Fraction(1), Fraction(1), Fraction(0)))
        assert sl == SlopeMultiset.of(1, [0, 0, 1, 1])
        assert check_slope_symmetry(sl).status == "pass"
        assert SlopeMultiset(1, (Fraction(1), Fraction(0))).to_json() == ["0", "1"]


class TestTotals:
    # the totals are the admissibility witness's t_N and t_H
    def test_t_n(self):
        m = PhiNModule(SlopeMultiset.of(1, ["1/2", "1"]), (0, 1))
        assert check_admissibility_necessary(m).witness["t_N"] == "3/2"

    def test_t_h(self):
        m = PhiNModule(SlopeMultiset.of(1, [0, 0, 1]), (0, 1, 1))
        assert check_admissibility_necessary(m).witness["t_H"] == "2"

    def test_empty(self):
        w = check_admissibility_necessary(PhiNModule(SlopeMultiset.of(0, []), ())).witness
        assert w["t_N"] == "0" and w["t_H"] == "0"


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
        m = PhiNModule(SlopeMultiset.of(2, [0, "1/3", 1, 2]), (0, 1, 1, 2))
        w = check_admissibility_necessary(m).witness
        assert str(Polygon.from_slopes(m.slopes.entries).vertices[-1][1]) == w["t_N"] == "10/3"
        assert str(Polygon.from_slopes(m.filtration_jumps).vertices[-1][1]) == w["t_H"] == "4"


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

    @pytest.mark.parametrize("jumps", [(True, 0), (0, 0.5), (0, 1.0)])
    def test_a_jump_that_is_not_an_integer_is_rejected(self, jumps):
        # neither truncated nor read as a number: (True, 0.5) was once (0, 1)
        with pytest.raises(InvalidParameters, match="is not an integer"):
            PhiNModule(SlopeMultiset.of(1, [0, 1]), jumps)


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
        st.lists(
            st.tuples(
                st.fractions(min_value=-3, max_value=3, max_denominator=6), st.integers(-3, 3)
            ),
            max_size=8,
        )
    )
    @settings(max_examples=80)
    def test_vertex_sampling_agrees_with_dense_sampling(self, pairs):
        # the dominance test the admissibility check runs, and the Fraction
        # model's on the chains Polygon.from_slopes builds, against a dense sampler
        a = [s for s, _ in pairs]
        b = [j for _, j in pairs]
        adm = check_admissibility_necessary(PhiNModule(SlopeMultiset.of(0, a), tuple(b)))
        sa, sb = sorted(a), sorted(b)
        denom = 24
        slow = all(
            step_function_value(sa, Fraction(k, denom))
            >= step_function_value(sb, Fraction(k, denom))
            for k in range(len(a) * denom + 1)
        )
        assert ("dips below" not in adm.note) == slow
        newton, hodge = Polygon.from_slopes(a).vertices, Polygon.from_slopes(b).vertices
        assert ref_lies_on_or_above(newton, hodge) == slow

    @given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=6), max_size=8))
    @settings(max_examples=40)
    def test_vertices_match_step_integral(self, a):
        vs = Polygon.from_slopes(a).vertices
        sa = sorted(a)
        for k in range(2 * len(a) + 1):
            x = Fraction(k, 2)
            assert ref_value_at(vs, x) == step_function_value(sa, x)


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


# -- the Fraction model the integer chains replace -------------------------------
#
# Kept here as the reference: the chain and the checks written directly on
# Fraction vertices, evaluated by rescanning the vertex chain.


def ref_vertices(values):
    values = sorted(Fraction(v) for v in values)
    verts = [(Fraction(0), Fraction(0))]
    x = y = Fraction(0)
    i = 0
    while i < len(values):
        j = i
        while j < len(values) and values[j] == values[i]:
            j += 1
        x += j - i
        y += (j - i) * values[i]
        verts.append((x, y))
        i = j
    return verts


def ref_value_at(vs, x):
    for (x0, y0), (x1, y1) in zip(vs, vs[1:]):
        if x0 <= x <= x1:
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    return vs[-1][1]


def ref_lies_on_or_above(vs, ws):
    """Pointwise dominance of one chain over another of the same width:
    piecewise linearity means sampling both vertex sets suffices."""
    xs = sorted({x for x, _ in vs} | {x for x, _ in ws})
    return vs[-1][0] == ws[-1][0] and all(ref_value_at(vs, x) >= ref_value_at(ws, x) for x in xs)


def ref_admissibility(m):
    tn = sum(m.slopes.entries, Fraction(0))
    th = sum((Fraction(j) for j in m.filtration_jumps), Fraction(0))
    newton, hodge = ref_vertices(m.slopes.entries), ref_vertices(m.filtration_jumps)
    problems = []
    if tn != th:
        problems.append(f"t_N = {tn} differs from t_H = {th}")
    if not ref_lies_on_or_above(newton, hodge):
        problems.append("Newton polygon dips below the Hodge polygon")
    return CheckResult(
        "weak_admissibility_necessary",
        {"q": m.slopes.q},
        "pass" if not problems else "fail",
        note="; ".join(problems) if problems else "necessary conditions only",
        witness={
            "t_N": str(tn),
            "t_H": str(th),
            "newton": [[str(x), str(y)] for x, y in newton],
            "hodge": [[str(x), str(y)] for x, y in hodge],
        },
    )


def ref_slope_symmetry(sl):
    mirrored = sorted(sl.q - x for x in sl.entries)
    ok = mirrored == list(sl.entries)
    witness = {"slopes": [str(x) for x in sl.entries]}
    if not ok:
        witness["mirrored"] = [str(x) for x in mirrored]
    return CheckResult(
        "slope_symmetry",
        {"q": sl.q},
        "pass" if ok else "fail",
        note="vacuous (no classes)" if ok and not sl.entries else "",
        witness=witness,
    )


def ref_hodge_from_ordinary(sl):
    for x in sl.entries:
        if x.denominator != 1:
            raise NonIntegralSlopes(f"slope {x} is not an integer; input is not ordinary")
        if x < 0 or x > sl.q:
            raise InvalidParameters(f"slope {x} outside [0, {sl.q}]")
    return HodgeVector(sl.q, tuple(sum(1 for x in sl.entries if x == i) for i in range(sl.q + 1)))


def ref_ascii_sketch(p):
    width, height = 41, 12
    xs = [x for x, _ in p.vertices]
    ys = [y for _, y in p.vertices]
    xmax = max(xs) or Fraction(1)
    ymin = min(0, min(ys))
    yspan = (max(ys) - ymin) or Fraction(1)
    grid = [[" "] * width for _ in range(height)]
    steps = 8 * width
    for t in range(steps + 1 if p.width else 0):
        x = xmax * t / steps
        y = ref_value_at(p.vertices, x)
        cx = min(width - 1, int((x / xmax) * (width - 1)))
        cy = min(height - 1, int(((y - ymin) / yspan) * (height - 1)))
        grid[height - 1 - cy][cx] = "*"
    for vx, vy in p.vertices:
        cx = min(width - 1, int((vx / xmax) * (width - 1)))
        cy = min(height - 1, int(((vy - ymin) / yspan) * (height - 1)))
        grid[height - 1 - cy][cx] = "o"
    return "\n".join("".join(row).rstrip() for row in grid)


def outcome(f, *args):
    """``f(*args).to_dict()`` (or its ``to_json()``), or the exception's type
    and message."""
    try:
        res = f(*args)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)
    return res.to_dict() if isinstance(res, CheckResult) else res.to_json()


rationals = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))


@st.composite
def modules(draw):
    """A filtered module whose slopes are its jumps moved by a telescoping
    sum of rationals (equal endpoints), or any slopes (mostly unequal)."""
    jumps = draw(st.lists(st.integers(-3, 6), max_size=10))
    if draw(st.booleans()):
        r = draw(st.lists(rationals, min_size=len(jumps), max_size=len(jumps)))
        slopes = [j + r[i] - r[(i + 1) % len(r)] for i, j in enumerate(jumps)]
    else:
        slopes = draw(st.lists(rationals, min_size=len(jumps), max_size=len(jumps)))
    return PhiNModule(SlopeMultiset.of(draw(st.integers(0, 6)), slopes), tuple(jumps))


@st.composite
def multisets(draw):
    """Slope multisets that are symmetric, integral, or neither."""
    q = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(["symmetric", "integral", "any"]))
    if kind == "integral":
        values = draw(st.lists(st.integers(-1, q + 1), max_size=10))
    else:
        values = draw(st.lists(rationals, max_size=8))
        if kind == "symmetric":
            values += [q - v for v in values]
    return SlopeMultiset.of(q, values)


@st.composite
def convex_polygons(draw):
    """Convex chains with rational vertex x-coordinates, not only integers."""
    steps = draw(st.lists(st.builds(Fraction, st.integers(1, 20), st.integers(1, 12)), max_size=6))
    slopes = sorted(set(draw(st.lists(rationals, min_size=len(steps), max_size=len(steps)))))
    verts = [(Fraction(0), Fraction(0))]
    for dx, s in zip(steps, slopes):
        x, y = verts[-1]
        verts.append((x + dx, y + s * dx))
    return Polygon(tuple(verts))


class TestIntegerChainsMatchFractionModel:
    @given(modules())
    @settings(max_examples=300)
    def test_admissibility(self, m):
        assert outcome(check_admissibility_necessary, m) == outcome(ref_admissibility, m)

    @given(modules())
    @settings(max_examples=100)
    def test_polygons(self, m):
        for values in (m.slopes.entries, m.filtration_jumps):
            p = Polygon.from_slopes(values)
            assert p.vertices == tuple(ref_vertices(values))
            assert p.ascii_sketch() == ref_ascii_sketch(p)

    @given(convex_polygons())
    @settings(max_examples=60)
    def test_ascii_sketch_off_integer_vertices(self, p):
        assert p.ascii_sketch() == ref_ascii_sketch(p)

    def test_ascii_sketch_past_many_vertices_between_two_samples(self):
        # sixty segments of width 1/10**6 lie between two samples, so one
        # sample moves past many segment ends at once
        verts = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))]
        for s in range(1, 61):
            x, y = verts[-1]
            verts.append((x + Fraction(1, 10**6), y + Fraction(s, 10**6)))
        x, y = verts[-1]
        p = Polygon((*verts, (x + 1, y + 100)))
        assert p.ascii_sketch() == ref_ascii_sketch(p)

    @given(multisets())
    @settings(max_examples=300)
    def test_slope_symmetry(self, sl):
        assert outcome(check_slope_symmetry, sl) == outcome(ref_slope_symmetry, sl)

    @given(multisets())
    @settings(max_examples=300)
    def test_hodge_from_ordinary(self, sl):
        assert outcome(hodge_from_ordinary, sl) == outcome(ref_hodge_from_ordinary, sl)
