import pytest

from ssweight.errors import InducedPairingIllDefined, NotCycleGenerated
from ssweight.hodge_lefschetz import (
    HodgeLefschetzModule,
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


class TestAxiomChecker:
    def test_trivial_module_passes(self):
        assert all(c.ok for c in check_hl_axioms(one_dim_module()))

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
        v = hl_from_strata(build_e1(ngon(3)))
        # re-indexing of the four first-page cells
        assert v.weight == 1
        assert v.dims == {(0, -1): 3, (1, 0): 3, (-1, 0): 3, (0, 1): 3}

    def test_pn_concentrated_in_zero_column(self):
        v = hl_from_strata(build_e1(good_reduction_pn(2)))
        assert sorted(v.dims) == [(0, -2), (0, 0), (0, 2)]
        assert all(d == 1 for d in v.dims.values())

    def test_elliptic_rejected(self):
        with pytest.raises(NotCycleGenerated):
            hl_from_strata(build_e1(elliptic_stratum()))

    def test_dims_match_first_page(self):
        sc = tetrahedron()
        v = hl_from_strata(build_e1(sc))
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
        sc = ngon(3)
        hv = HodgeLefschetzModule.of(hl_cohomology(hl_from_strata(build_e1(sc))))
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
        # ker d / im d of the tabulated strata-built module is the oracle for
        # the second page of the first page it was tabulated from
        for spec in builtin_specs():
            sc = build(spec)
            if not sc.cycle_generated:
                continue
            e2 = compute_e2(build_e1(sc))
            from_page = HodgeLefschetzModule.of(e2)
            generic = HodgeLefschetzModule.of(hl_cohomology(hl_from_strata(build_e1(sc))))
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


class TestSerialization:
    def test_round_trip(self):
        v = hl_from_strata(build_e1(ngon(3)))
        back = HodgeLefschetzModule.loads(v.dumps())
        assert back.dims == v.dims
        for key in v.support():
            assert back.nmap(*key) == v.nmap(*key)
            assert back.lmap(*key) == v.lmap(*key)
            assert back.d1(*key) == v.d1(*key)
            assert back.pairing_at(*key) == v.pairing_at(*key)
        assert all(c.ok for c in check_hl_axioms(back))

    def test_malformed_rejected(self):
        from ssweight.errors import SchemaError

        with pytest.raises(SchemaError):
            HodgeLefschetzModule.loads('{"weight": 1}')
        with pytest.raises(SchemaError):
            HodgeLefschetzModule.loads("nope")
        for entry in ("1/0", "1.0"):
            doc = {
                "weight": 0,
                "cells": [{"i": 0, "j": 0, "dim": 1}],
                "pairing": [{"i": 0, "j": 0, "matrix": [[entry]]}],
            }
            with pytest.raises(SchemaError):
                HodgeLefschetzModule.from_json_dict(doc)

    @pytest.mark.parametrize("table", ["n_ops", "l_ops", "d_ops", "pairing"])
    def test_misshapen_matrix_rejected(self, table):
        from ssweight.errors import SchemaError

        # weight 0, cells (0,0) and (0,2) of dimension 1: every entry at
        # (0,0) has one column, so the 1x2 matrix fits none of the tables
        doc = {
            "weight": 0,
            "cells": [{"i": 0, "j": 0, "dim": 1}, {"i": 0, "j": 2, "dim": 1}],
            table: [{"i": 0, "j": 0, "matrix": [["1", "0"]]}],
        }
        with pytest.raises(SchemaError, match=rf"{table} entry at \(i, j\) = \(0, 0\)"):
            HodgeLefschetzModule.from_json_dict(doc)

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"weight": 0.9, "cells": [{"i": 0, "j": 0, "dim": 1}]}, "weight"),
            ({"weight": 0, "cells": [{"i": 0.5, "j": 0, "dim": 1}]}, "cell i"),
            ({"weight": 0, "cells": [{"i": 0, "j": True, "dim": 1}]}, "cell j"),
            ({"weight": 0, "cells": [{"i": 0, "j": 0, "dim": 1.7}]}, "cell dim"),
            ({"weight": 0, "cells": [{"i": 0, "j": 0, "dim": -1}]}, "cell dim"),
            (
                {
                    "weight": 0,
                    "cells": [{"i": 0, "j": 0, "dim": 1}],
                    "pairing": [{"i": False, "j": 0, "matrix": [["1"]]}],
                },
                "pairing i",
            ),
        ],
        ids=["float-weight", "float-i", "bool-j", "float-dim", "negative-dim", "bool-table-i"],
    )
    def test_integers_are_enforced(self, doc, message):
        from ssweight.errors import SchemaError

        # a float or a bool is a schema error rather than a truncated value,
        # and a negative dimension is one too
        with pytest.raises(SchemaError, match=message):
            HodgeLefschetzModule.from_json_dict(doc)
