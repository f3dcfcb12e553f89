import pytest

from ssweight.errors import InvalidParameters
from ssweight.scenarios import (
    ScenarioSpec,
    build,
    builtin_specs,
    cellular,
    good_reduction_pn,
    ngon,
    parse_spec,
)
from ssweight.spectral import build_e1, compute_e2


class TestBuilders:
    def test_every_builtin_validates_clean(self):
        for spec in builtin_specs():
            sc = build(spec)
            report = sc.validate()
            assert report.ok, f"{spec.label()}: {report.summary()}"

    def test_pn_dims(self):
        sc = good_reduction_pn(2)
        assert sc.faces[(1,)].dims == {0: 1, 2: 1, 4: 1}
        assert len(sc.faces) == 1

    def test_cellular_dims(self):
        sc = cellular((1, 2, 1))
        assert sc.faces[(1,)].dims == {0: 1, 2: 2, 4: 1}
        assert sc.faces[(1,)].slope_pure

    def test_cellular_rejects_nonpalindromic(self):
        with pytest.raises(InvalidParameters):
            cellular((1, 2, 2))

    def test_cellular_rejects_nonunimodal(self):
        with pytest.raises(InvalidParameters):
            cellular((2, 1, 2))

    def test_ngon_needs_three(self):
        with pytest.raises(InvalidParameters):
            ngon(2)

    def test_tetrahedron_shape(self):
        sc = build(ScenarioSpec("tetrahedron"))
        assert len(sc.faces_at(1)) == 4
        assert len(sc.faces_at(2)) == 6
        assert len(sc.faces_at(3)) == 4

    @pytest.mark.parametrize("spec", ["ngon:640", "ngon_x_p1:640", "tetrahedron"])
    def test_builders_share_strata(self, spec):
        # one stratum object per distinct stratum, and one maps dict per
        # distinct restriction, as the loader interns them
        sc = build(parse_spec(spec))
        assert len({id(coh) for coh in sc.faces.values()}) == (3 if spec == "tetrahedron" else 2)
        distinct_maps = len({id(maps) for maps in sc.restrictions.values()})
        assert distinct_maps == (13 if spec == "tetrahedron" else 1)

    def test_ngon_e2_independent_of_n(self):
        # quantified N-independence of the second page
        for N in range(3, 9):
            e2 = compute_e2(build_e1(ngon(N)))
            dims = {key: e2.dim(*key) for key in e2.support()}
            assert dims == {(0, 0): 1, (1, 0): 1, (-1, 2): 1, (0, 2): 1}


class TestParse:
    def test_kind_only(self):
        assert parse_spec("tetrahedron") == ScenarioSpec("tetrahedron")

    def test_with_parameter(self):
        assert parse_spec("ngon:5") == ScenarioSpec("ngon", {"N": 5})

    def test_cellular_list(self):
        assert parse_spec("cellular:1,2,1") == ScenarioSpec(
            "cellular", {"cells": (1, 2, 1)}
        )

    @pytest.mark.parametrize("spec", builtin_specs(), ids=lambda s: s.label())
    def test_label_reads_back(self, spec):
        assert parse_spec(spec.label()) == spec

    def test_unknown_kind(self):
        with pytest.raises(InvalidParameters):
            parse_spec("banana")

    @pytest.mark.parametrize("spec", ["ngon:", "tetrahedron:", "cellular:", "ngon:3,"])
    def test_empty_parameter_after_a_colon(self, spec):
        # a colon promises a list: an empty one is no list of integers
        with pytest.raises(InvalidParameters, match="comma-separated integers"):
            parse_spec(spec)

    @pytest.mark.parametrize(
        "spec",
        [ScenarioSpec("ngon", {"M": 4}), ScenarioSpec("tetrahedron", {"N": 3})],
        ids=["ngon-M", "tetrahedron-N"],
    )
    def test_build_rejects_a_parameter_the_kind_does_not_take(self, spec):
        with pytest.raises(InvalidParameters):
            build(spec)

    def test_surplus_parameters(self):
        with pytest.raises(InvalidParameters):
            parse_spec("tetrahedron:3")
        for spec in ("ngon:3,4", "good_reduction_pn:2,9", "ngon_x_p1:3,1"):
            with pytest.raises(InvalidParameters, match="one parameter"):
                parse_spec(spec)
