import random

import pytest

from ssweight.errors import InvalidParameters
from ssweight.linalg import RatMatrix
from ssweight.scenarios import (
    ScenarioSpec,
    build,
    builtin_specs,
    cellular,
    cellular_cohomology,
    good_reduction_pn,
    ngon,
    parse_spec,
)
from ssweight.spectral import build_e1, compute_e2
from ssweight.strata import StratumCohomology


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

    @pytest.mark.parametrize("N", [3, 80, 640])
    def test_product_tensors_each_distinct_stratum_once(self, monkeypatch, N):
        # the line and the point of the N-gon, the factor, and their two
        # products: five strata for every N
        made = []
        post_init = StratumCohomology.__post_init__
        monkeypatch.setattr(StratumCohomology, "__post_init__", lambda self: made.append(self) or post_init(self))
        sc = build(parse_spec(f"ngon_x_p1:{N}"))
        assert len(made) == 2 + 1 + 2
        assert {id(coh) for coh in sc.faces.values()} <= {id(coh) for coh in made[-2:]}

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
        known = "good_reduction_pn, ngon, ngon_x_p1, tetrahedron, elliptic_stratum, cellular"
        message = f"^unknown scenario kind 'banana'; known: {known}$"
        with pytest.raises(InvalidParameters, match=message):
            parse_spec("banana")
        with pytest.raises(InvalidParameters, match="^unknown scenario kind 'banana'$"):
            build(ScenarioSpec("banana"))

    @pytest.mark.parametrize("spec", ["ngon:", "tetrahedron:", "cellular:", "ngon:3,"])
    def test_empty_parameter_after_a_colon(self, spec):
        # a colon promises a list: an empty one is no list of integers
        with pytest.raises(InvalidParameters, match="comma-separated integers"):
            parse_spec(spec)

    @pytest.mark.parametrize(
        "spec",
        [
            ScenarioSpec("ngon", {"M": 4}),
            ScenarioSpec("tetrahedron", {"N": 3}),
            # the parameter is named before the kind is looked up
            ScenarioSpec("nope", {"x": 1}),
        ],
        ids=["ngon-M", "tetrahedron-N", "nope-x"],
    )
    def test_build_rejects_a_parameter_the_kind_does_not_take(self, spec):
        with pytest.raises(InvalidParameters, match=f"^scenario {spec.kind} does not take "):
            build(spec)

    def test_surplus_parameters(self):
        with pytest.raises(InvalidParameters):
            parse_spec("tetrahedron:3")
        for spec in ("ngon:3,4", "good_reduction_pn:2,9", "ngon_x_p1:3,1"):
            with pytest.raises(InvalidParameters, match="one parameter"):
                parse_spec(spec)


# -- the dense construction the cellular builder replaces ----------------------


def dense_cellular_model(cells):
    """``(pairing, lefschetz)`` of ``cellular_cohomology(cells)`` as the
    builder once made them: every entry of every matrix decided by comparing
    two basis labels, the string ``s`` it is born in and its index ``t``."""
    n = len(cells) - 1
    prim = [cells[s] - (cells[s - 1] if s else 0) for s in range((n + 2) // 2)]

    def basis(k):
        return [(s, t) for s in range(min(k, n - k) + 1) for t in range(prim[s])]

    pairing, lefschetz = {}, {}
    for k in range(n + 1):
        bk, bdual = basis(k), basis(n - k)
        pairing[2 * k] = RatMatrix(
            len(bk), len(bdual), [[(-1) ** s if (s, t) == u else 0 for u in bdual] for (s, t) in bk]
        )
        if k < n:
            bup = basis(k + 1)
            lefschetz[2 * k] = RatMatrix(
                len(bup), len(bk), [[1 if label == u else 0 for u in bk] for label in bup]
            )
    return pairing, lefschetz


def _cell_vectors():
    """Palindromic unimodal cell counts: the builtins, a few by hand, and
    random ones from a fixed seed."""
    vectors = [spec.params["cells"] for spec in builtin_specs() if spec.kind == "cellular"]
    vectors += [(1,), (5,), (1, 4, 4, 1), (2, 5, 9, 9, 5, 2), (1, 3, 6, 7, 6, 3, 1), (3, 3, 3, 3, 3)]
    rng = random.Random(0)
    for _ in range(20):
        half = [rng.randint(1, 3)]
        for _ in range(rng.randint(0, 3)):
            half.append(half[-1] + rng.randint(0, 3))
        vectors.append(tuple(half + half[-1 - rng.randint(0, 1) :: -1]))
    return vectors


class TestCellularBuilder:
    @pytest.mark.parametrize("cells", _cell_vectors(), ids=lambda c: ",".join(map(str, c)))
    def test_matches_the_dense_model(self, cells):
        coh = cellular_cohomology(cells)
        assert (coh.pairing, coh.lefschetz) == dense_cellular_model(cells)
        assert coh.dims == {2 * k: c for k, c in enumerate(cells)}

    @pytest.mark.parametrize("label", ["cellular:3000", "cellular:1,3000,1", "cellular:1,2,3000,2,1"])
    def test_built_from_its_nonzeros(self, monkeypatch, label):
        # no dense entry grid is read, and every matrix holds one nonzero per
        # basis label: the pairing one on each label of its degree, and L one
        # on each label its source and target share, so the work is linear in
        # the cell counts
        grids = []
        init = RatMatrix.__init__
        monkeypatch.setattr(RatMatrix, "__init__", lambda self, *a: grids.append(a) or init(self, *a))
        cells = parse_spec(label).params["cells"]
        coh = build(parse_spec(label)).faces[(1,)]
        assert grids == []

        def nonzeros(m):
            return sum(map(len, m._data))

        assert [nonzeros(coh.pairing[2 * k]) for k in range(len(cells))] == list(cells)
        assert [nonzeros(coh.lefschetz[2 * k]) for k in range(len(cells) - 1)] == [
            min(pair) for pair in zip(cells, cells[1:])
        ]
