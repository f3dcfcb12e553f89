import pytest

from helpers import HodgeLefschetzModule
from ssweight import hodge_lefschetz
from ssweight.errors import InducedPairingIllDefined, NotCycleGenerated
from ssweight.hodge_lefschetz import (
    check_hl_axioms,
    hl_cohomology,
    hl_from_strata,
    hl_suite,
)
from ssweight.linalg import RatMatrix
from ssweight.scenarios import (
    build,
    builtin_specs,
    cellular,
    elliptic_stratum,
    good_reduction_pn,
    ngon,
    tetrahedron,
)
from ssweight.spectral import build_e1, compute_e2


def one_dim_module(pairing_value=1):
    return HodgeLefschetzModule(
        weight=0,
        dims={(0, 0): 1},
        pairing={(0, 0): RatMatrix.from_rows([[pairing_value]])},
    )


def empty_module():
    return HodgeLefschetzModule(weight=0, dims={})


class TestAxiomChecker:
    def test_trivial_module_passes(self):
        assert all(c.ok for c in check_hl_axioms(one_dim_module()))

    def test_empty_module_passes_each_name_once(self):
        # no cell asks for any name: each passes once at the stage, the
        # adjoint and positivity names with a vacuous note, and no two
        # results share a location
        results = check_hl_axioms(empty_module(), stage="V")
        assert [(c.name, c.location, c.status, c.note) for c in results] == [
            (name, {"stage": "V"}, "pass", note)
            for name, note in [
                ("hl_parity", ""),
                ("hl_d_squared", ""),
                ("hl_commute_NL", ""),
                ("hl_commute_Nd", ""),
                ("hl_commute_Ld", ""),
                ("hl_adjoint_N", "vacuous"),
                ("hl_adjoint_L", "vacuous"),
                ("hl_adjoint_d", "vacuous"),
                ("hl_positivity", "vacuous"),
            ]
        ]
        assert len({id(c.location) for c in results}) == len(results)

    def test_null_pairing_fails_duality(self):
        results = check_hl_axioms(one_dim_module(0))
        bad = [c for c in results if c.name == "hl_pairing_perfect" and not c.ok]
        assert bad

    def test_parity_violation_detected(self):
        v = HodgeLefschetzModule(
            weight=1,
            dims={(0, 0): 1},
            pairing={(0, 0): RatMatrix.identity(1)},
        )
        assert any(c.name == "hl_parity" and not c.ok for c in check_hl_axioms(v))

    def test_indefinite_primitive_form_fails(self):
        v = HodgeLefschetzModule(
            weight=0,
            dims={(0, 0): 2},
            pairing={(0, 0): RatMatrix.from_rows([[1, 0], [0, -1]])},
        )
        bad = [c for c in check_hl_axioms(v) if c.name == "hl_positivity"]
        assert bad and bad[0].status == "fail"
        assert bad[0].witness["signature"] == [1, 1, 0]


class TestFromStrata:
    def test_ngon_bigraded_dims(self):
        v = HodgeLefschetzModule.of(hl_from_strata(build_e1(ngon(3))))
        # re-indexing of the four first-page cells
        assert v.weight == 1
        assert v.dims == {(0, -1): 3, (1, 0): 3, (-1, 0): 3, (0, 1): 3}

    def test_pn_concentrated_in_zero_column(self):
        v = HodgeLefschetzModule.of(hl_from_strata(build_e1(good_reduction_pn(2))))
        assert sorted(v.dims) == [(0, -2), (0, 0), (0, 2)]
        assert all(d == 1 for d in v.dims.values())

    def test_elliptic_rejected(self):
        with pytest.raises(NotCycleGenerated):
            hl_from_strata(build_e1(elliptic_stratum()))

    def test_dims_match_first_page(self):
        sc = tetrahedron()
        v = HodgeLefschetzModule.of(hl_from_strata(build_e1(sc)))
        e1 = build_e1(sc)
        for (i, j), d in v.dims.items():
            assert d == e1.dim(i, sc.n - i + j)

    def test_axioms_pass_on_builtins(self):
        for sc in (ngon(3), tetrahedron(), cellular((1, 2, 1))):
            assert all(c.ok for c in check_hl_axioms(hl_from_strata(build_e1(sc))))

    def test_definiteness_signs_follow_kleiman_pattern(self):
        for sc in (ngon(3), tetrahedron(), cellular((1, 2, 1)), cellular((1, 1))):
            v = hl_from_strata(build_e1(sc))
            for c in check_hl_axioms(v):
                if c.name == "hl_positivity" and c.witness and "sign" in c.witness:
                    i, j = c.location["i"], c.location["j"]
                    assert c.witness["sign"] == (-1) ** ((sc.n - i - j) // 2)


class TestCohomology:
    def test_zero_differential_fixpoint(self):
        v = one_dim_module()
        hv = HodgeLefschetzModule.of(hl_cohomology(v))
        assert hv.dims == v.dims
        assert hv.pairing_at(0, 0) == v.pairing_at(0, 0)

    def test_ngon_cohomology_matches_second_page(self):
        # ker d / im d of the tabulated first page, cell by cell against the
        # second page computed from the page itself
        sc = ngon(3)
        tabulated = HodgeLefschetzModule.of(hl_from_strata(build_e1(sc)))
        hv = HodgeLefschetzModule.of(hl_cohomology(tabulated))
        e2 = compute_e2(build_e1(sc))
        for (i, j), d in hv.dims.items():
            assert d == e2.dim(i, sc.n - i + j)
        assert sorted(hv.dims.values()) == [1, 1, 1, 1]

    def test_tetrahedron_cohomology_is_again_a_module(self):
        hv = hl_cohomology(hl_from_strata(build_e1(tetrahedron())))
        assert all(c.ok for c in check_hl_axioms(hv))

    def test_double_cohomology_is_identity(self):
        page = hl_cohomology(hl_from_strata(build_e1(ngon(4))))
        hv, hh = HodgeLefschetzModule.of(page), HodgeLefschetzModule.of(hl_cohomology(page))
        assert hh.dims == hv.dims
        for key in hv.support():
            assert hh.pairing_at(*key) == hv.pairing_at(*key)

    def test_page_quotients_match_generic_cohomology(self):
        # ker d / im d of the strata-built module copied into tables, and so
        # read through the table accessors, is the oracle for the second page
        # computed from the first page itself
        for spec in builtin_specs():
            sc = build(spec)
            if not sc.cycle_generated:
                continue
            e2 = compute_e2(build_e1(sc))
            from_page = HodgeLefschetzModule.of(e2)
            tabulated = HodgeLefschetzModule.of(hl_from_strata(build_e1(sc)))
            generic = HodgeLefschetzModule.of(hl_cohomology(tabulated))
            assert from_page.dims == generic.dims, spec
            assert from_page.n_ops == generic.n_ops, spec
            assert from_page.l_ops == generic.l_ops, spec
            assert from_page.pairing == generic.pairing, spec
            assert from_page.d_ops == generic.d_ops == {}

    def test_broken_adjointness_detected(self):
        # d maps the bottom cell to the top one but pairs ker d against im d
        # nontrivially, so the induced pairing cannot exist
        v = HodgeLefschetzModule(
            weight=1,
            dims={(0, -1): 1, (1, 0): 1, (-1, 0): 1, (0, 1): 1},
            d_ops={
                (0, -1): RatMatrix.identity(1),  # (0,-1) -> (1,0)
            },
            pairing={
                (0, -1): RatMatrix.identity(1),
                (0, 1): RatMatrix.identity(1),
                (1, 0): RatMatrix.identity(1),
                (-1, 0): RatMatrix.identity(1),
            },
        )
        with pytest.raises(InducedPairingIllDefined):
            hl_cohomology(v)


class TestSuite:
    def test_suite_passes_on_cycle_generated_builtins(self):
        for sc in (ngon(3), tetrahedron(), cellular((1, 2, 1))):
            results = hl_suite(compute_e2(build_e1(sc)))
            assert all(c.ok for c in results)
            stages = {c.location.get("stage") for c in results}
            assert {"V", "H(V)"} <= stages

    def test_fixpoint_goes_through_hl_cohomology(self, monkeypatch):
        # H(H(V)) is taken by the one cohomology entry point, once
        taken = []
        cohomology = hodge_lefschetz.hl_cohomology
        monkeypatch.setattr(
            hodge_lefschetz, "hl_cohomology", lambda v: taken.append(v) or cohomology(v)
        )
        e2 = compute_e2(build_e1(ngon(5)))
        hl_suite(e2)
        assert taken == [e2]

    def test_fixpoint_fails_when_cohomology_differs(self, monkeypatch):
        # a second cohomology whose L differs by a sign on one cell is not the
        # page itself; the witness still lists the dimensions of the page
        e2 = compute_e2(build_e1(tetrahedron()))
        cell = next(c for c in e2.support() if not e2.lmap(*c).is_zero())

        class Skewed(hodge_lefschetz.E2Page):
            def lmap(self, a, b):
                m = super().lmap(a, b)
                return m.scale(-1) if (a, b) == cell else m

        def fixpoint():
            results = hl_suite(compute_e2(build_e1(tetrahedron())))
            return next(c for c in results if c.name == "hl_cohomology_fixpoint")

        before = fixpoint()
        monkeypatch.setattr(hodge_lefschetz, "E2Page", Skewed)
        after = fixpoint()
        assert before.status == "pass"
        assert after.status == "fail"
        assert after.witness == before.witness
