import json

import pytest

from helpers import independent_rank, swap_face
from ssweight.errors import MissingRestriction, SchemaError
from ssweight.linalg import RatMatrix
from ssweight.scenarios import (
    build,
    builtin_specs,
    good_reduction_pn,
    ngon,
    parse_spec,
    projective_space_cohomology,
    point_cohomology,
    tetrahedron,
)
from ssweight.strata import StrataComplex, StratumCohomology


class TestValidate:
    def test_good_reduction_clean(self):
        assert good_reduction_pn(2).validate().ok

    def test_ngon_clean(self):
        # oracle: the 3-cycle incidence signs were checked by hand
        assert ngon(3).validate().ok

    def test_zeroed_pairing_reported(self):
        sc = ngon(3)
        swap_face(sc, (1,), pairing={0: RatMatrix.zeros(1, 1), 2: RatMatrix.zeros(1, 1)})
        report = sc.validate()
        assert not report.ok
        assert any(
            v.code == "pairing-not-perfect" and v.location == "face {1}"
            for v in report.violations
        )

    def test_broken_pairing_symmetry_reported_once(self):
        sc = ngon(3)
        swap_face(sc, (1,), pairing={0: RatMatrix.from_rows([[2]])})
        report = sc.validate()
        symmetry = [v for v in report.violations if v.code == "pairing-symmetry"]
        assert [v.location for v in symmetry] == ["face {1}"]

    def test_deleted_restriction_reported(self):
        sc = ngon(3)
        del sc.restrictions[((1,), (1, 2))]
        report = sc.validate()
        assert not report.ok
        assert any(v.code == "missing-restriction" for v in report.violations)

    def test_missing_subface_reported(self):
        sc = ngon(3)
        del sc.faces[(1,)]
        report = sc.validate()
        assert any(v.code == "nerve-not-closed" for v in report.violations)

    @pytest.mark.parametrize("target", [[2, 3], [1, 7], [1]])
    def test_restriction_outside_the_nerve_reported(self, target):
        # a pair that is not a face and one of its facets is never read
        doc = json.loads(ngon(3).dumps())
        extra = dict(doc["restrictions"][0], to=target)
        doc["restrictions"].append(extra)
        report = StrataComplex.loads(json.dumps(doc)).validate()
        assert [v.code for v in report.violations] == ["restriction-unknown-face"]
        assert report.violations[0].location == "restriction {1} -> " + "{" + ",".join(
            map(str, target)
        ) + "}"

    def test_component_without_stratum_reported(self):
        sc = ngon(3)
        sc.components.append("Y4")
        report = sc.validate()
        assert [(v.code, v.location) for v in report.violations] == [
            ("component-without-stratum", "component 4")
        ]

    def test_slope_pure_with_odd_cohomology_reported(self):
        sc = ngon(3)
        swap_face(sc, (1,), dims={1: 2}, pairing={1: RatMatrix.from_rows([[0, 1], [-1, 0]])})
        report = sc.validate()
        assert any(v.code == "slope-pure-odd" for v in report.violations)


class TestLevels:
    def test_ngon_level1(self):
        sc = ngon(3)
        components = [((1,), 1), ((2,), 1), ((3,), 1)]
        assert sc.level(1) == {0: components, 2: components}
        assert [sc.level_dim(1, m) for m in range(4)] == [3, 0, 3, 0]

    def test_ngon_level2(self):
        assert ngon(3).level(2) == {0: [((1, 2), 1), ((1, 3), 1), ((2, 3), 1)]}
        assert ngon(3).level_dim(2, 0) == 3

    def test_level_beyond_faces_is_zero(self):
        assert ngon(3).level_dim(3, 0) == 0

    @pytest.mark.parametrize("spec", builtin_specs(), ids=lambda s: s.label())
    def test_a_level_off_the_faces_is_empty(self, spec):
        sc = build(spec)
        for k in (0, -1, sc.max_level + 1):
            assert sc.level(k) == {}
            assert sc.level_dim(k, 0) == 0
            assert sc.tau(k, 0).cols == 0

    @pytest.mark.parametrize("spec", builtin_specs(), ids=lambda s: s.label())
    def test_each_degree_lists_its_faces_in_sorted_order(self, spec):
        sc = build(spec)
        for k in range(1, sc.max_level + 1):
            table = sc.level(k)
            assert list(table) == sorted(table)
            for m, summands in table.items():
                faces = [f for f, _ in summands]
                assert faces == sorted(f for f in sc.faces_at(k) if sc.faces[f].dim_in(m))
                assert all(d == sc.faces[f].dim_in(m) > 0 for f, d in summands)
                assert sc.level_dim(k, m) == sum(d for _, d in summands)


class TestRhoTau:
    def test_rho_is_signed_cycle_incidence(self):
        m = ngon(3).rho(1, 0)
        assert m.rows == 3 and m.cols == 3
        # every edge row has one +1 and one -1
        for row in m.entries:
            assert sorted(row) == [-1, 0, 1]
        assert m.rank() == independent_rank(m.entries) == 2

    def test_rho_single_component_empty(self):
        m = good_reduction_pn(2).rho(1, 0)
        assert m.rows == 0 and m.cols == 1

    def test_tau_rank_matches_adjoint(self):
        t = ngon(3).tau(2, 0)
        assert t.rows == 3 and t.cols == 3
        assert t.rank() == 2

    def test_tau_level_one_is_zero(self):
        t = ngon(3).tau(1, 0)
        assert t.rows == 0

    def test_tau_good_reduction_empty(self):
        t = good_reduction_pn(2).tau(1, 0)
        assert t.rows == 0

    def test_tau_adjunction_identity(self):
        # <tau x, y>_{level 1} = <x, rho y>_{level 2} with y of degree 0
        sc = ngon(3)
        t = sc.tau(2, 0)
        r = sc.rho(1, 0)
        p_lvl1 = sc.level_pairing(1, 2)
        p_lvl2 = sc.level_pairing(2, 0)
        assert t.transpose() @ p_lvl1 == p_lvl2 @ r

    def test_tau_deterministic(self):
        a = ngon(4).tau(2, 0)
        sc = ngon(4)
        assert sc.tau(2, 0) == a
        assert sc.tau(2, 0) == sc.tau(2, 0)

    def test_missing_restriction_raises(self):
        sc = ngon(3)
        del sc.restrictions[((1,), (1, 2))]
        with pytest.raises(MissingRestriction):
            sc.rho(1, 0)

    def test_tetrahedron_anticommutation_level2(self):
        sc = tetrahedron()
        mixed = sc.rho(1, 2) @ sc.tau(2, 0) + sc.tau(3, 0) @ sc.rho(2, 0)
        assert mixed.is_zero()


class TestProduct:
    def test_ngon_times_p1_dims(self):
        prod = ngon(3).product_with_factor(projective_space_cohomology(1))
        assert prod.n == 2
        # oracle: Kunneth count for a curve times a line
        assert [prod.level_dim(1, m) for m in range(6)] == [3, 0, 6, 0, 3, 0]
        for f in prod.faces_at(1):
            assert prod.faces[f].dims == {0: 1, 2: 2, 4: 1}
        assert prod.validate().ok

    def test_product_with_point_is_isomorphic(self):
        prod = ngon(3).product_with_factor(point_cohomology(1))
        assert prod.n == 1
        assert prod.level(1) == ngon(3).level(1)
        assert prod.validate().ok

    def test_pn_times_p1_pascal_dims(self):
        prod = good_reduction_pn(2).product_with_factor(projective_space_cohomology(1))
        # oracle: product of Betti numbers (1,1,1) x (1,1)
        assert [prod.level_dim(1, 2 * c) for c in range(5)] == [1, 2, 2, 1, 0]
        assert prod.validate().ok

    def test_product_with_elliptic_factor_validates(self):
        from ssweight.scenarios import elliptic_curve_cohomology

        prod = ngon(3).product_with_factor(elliptic_curve_cohomology())
        assert prod.validate().ok
        assert not prod.cycle_generated


class TestSerialization:
    def test_round_trip(self):
        sc = tetrahedron()
        text = sc.dumps()
        back = StrataComplex.loads(text)
        assert back.dumps() == text
        assert back.validate().ok

    def test_rational_strings(self):
        coh = StratumCohomology(
            dim=0,
            dims={0: 1},
            pairing={0: RatMatrix.from_rows([["1/2"]])},
            lefschetz={},
        )
        sc = StrataComplex("t", 0, ["Y1"], {(1,): coh}, {})
        assert '"1/2"' in sc.dumps()

    def test_malformed_document(self):
        with pytest.raises(SchemaError):
            StrataComplex.loads("[]")
        with pytest.raises(SchemaError):
            StrataComplex.loads('{"dimension": 1}')
        with pytest.raises(SchemaError):
            StrataComplex.loads("not json")

    @staticmethod
    def _ngon_doc():
        return json.loads(ngon(3).dumps())

    def test_zero_denominator_is_schema_error(self):
        doc = self._ngon_doc()
        doc["faces"][0]["pairing"]["0"] = [["1/0"]]
        with pytest.raises(SchemaError):
            StrataComplex.loads(json.dumps(doc))

    @pytest.mark.parametrize("table", ["faces", "restrictions"])
    def test_entry_listed_twice_is_schema_error(self, table):
        # the second copy used to replace the first silently
        doc = self._ngon_doc()
        doc[table].append(json.loads(json.dumps(doc[table][0])))
        with pytest.raises(SchemaError, match="listed twice"):
            StrataComplex.loads(json.dumps(doc))

    def test_too_deep_to_encode_is_schema_error(self):
        # the canonical text of a face entry nested past the recursion limit
        # cannot be encoded; that is an input error, not a crash
        deep = []
        for _ in range(5000):
            deep = [deep]
        doc = self._ngon_doc()
        doc["faces"][0]["pairing"]["0"] = deep
        with pytest.raises(SchemaError, match="recursion"):
            StrataComplex.from_json_dict(doc)

    def test_cohomology_list_is_schema_error(self):
        doc = self._ngon_doc()
        doc["faces"][0]["cohomology"] = [1, 1]
        with pytest.raises(SchemaError):
            StrataComplex.loads(json.dumps(doc))

    def test_wrong_dimension_is_a_verdict(self):
        doc = self._ngon_doc()
        doc["dimension"] += 1
        report = StrataComplex.loads(json.dumps(doc)).validate()
        assert not report.ok
        assert {v.code for v in report.violations} <= {"pairing-not-perfect", "pairing-shape"}

    def test_misshapen_pairing_skips_lefschetz_adjoint_product(self):
        sc = good_reduction_pn(2)
        swap_face(sc, (1,), pairing={2: RatMatrix.zeros(2, 2)})
        report = sc.validate()
        assert [v.code for v in report.violations] == ["pairing-shape"]

    @pytest.mark.parametrize("face", [(1,), (1, 2)])
    def test_misshapen_lefschetz_skips_restriction_product(self, face):
        sc = tetrahedron()
        swap_face(sc, face, lefschetz={0: RatMatrix.zeros(3, 3)})
        report = sc.validate()
        assert [v.code for v in report.violations] == ["lefschetz-shape"]

    def test_labels_round_trip(self):
        coh = StratumCohomology(
            dim=1,
            dims={0: 1, 2: 1},
            pairing={0: RatMatrix.identity(1)},
            lefschetz={0: RatMatrix.identity(1)},
            slope_pure=True,
            labels={0: ["unit"], 2: ["pt"]},
        )
        sc = StrataComplex("labelled", 1, ["Y1"], {(1,): coh}, {})
        back = StrataComplex.loads(sc.dumps())
        assert back.faces[(1,)].labels == {0: ["unit"], 2: ["pt"]}

    @pytest.mark.parametrize("label", ["ngon:3", "ngon:80", "ngon:640", "ngon_x_p1:3", "ngon_x_p1:80"])
    def test_dumps_formats_each_distinct_matrix_once(self, monkeypatch, label):
        # every N-gon has two strata and one maps dict, and so does its
        # product with P^1: the matrices they hold are formatted once each
        sc = build(parse_spec(label))
        strata = {id(coh): coh for coh in sc.faces.values()}.values()
        maps = {id(m): m for m in sc.restrictions.values()}.values()
        held = sum(map(len, maps))
        for coh in strata:
            held += len([m for m in coh.pairing if coh.dim_in(m)]) + len(coh.lefschetz)
        formatted = []
        to_strings = RatMatrix.to_strings
        monkeypatch.setattr(RatMatrix, "to_strings", lambda self: formatted.append(self) or to_strings(self))
        sc.dumps()
        assert len(formatted) == held == (5 if label.startswith("ngon:") else 10)

    @pytest.mark.parametrize("label", [*(s.label() for s in builtin_specs()), "ngon_x_p1:5"])
    def test_entries_share_no_container(self, label):
        # a caller may edit one face or restriction of the dict in place
        # (the benchmark's basis change and mutations do) without touching
        # another that shares its stratum or maps
        doc = build(parse_spec(label)).to_json_dict()

        def containers(value):
            if isinstance(value, (dict, list)):
                yield id(value)
                for x in value.values() if isinstance(value, dict) else value:
                    yield from containers(x)

        entries = [set(containers(entry)) for entry in doc["faces"] + doc["restrictions"]]
        assert len(set().union(*entries)) == sum(map(len, entries))


class TestDisjointComponents:
    def test_rho_to_empty_level(self):
        from helpers import graph_curve

        sc = graph_curve([], 2)  # two disjoint curves, no intersections
        assert sc.validate().ok
        m = sc.rho(1, 0)
        assert m.rows == 0 and m.cols == 2
