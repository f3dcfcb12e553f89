import pytest

from helpers import SIGN_MUTANTS, HodgeLefschetzModule, complex_of, graph_curve, swap_face
from ssweight import checks
from ssweight.errors import InvalidParameters, SsweightError
from ssweight.hodge_lefschetz import check_hl_axioms, hl_suite
from ssweight.linalg import QuotientSpace, RatMatrix
from ssweight.polygons import hodge_symmetry_report
from ssweight.scenarios import (
    build,
    builtin_specs,
    elliptic_stratum,
    good_reduction_pn,
    ngon,
    tetrahedron,
)
from ssweight.spectral import E2Page, build_e1, compute_e2
from ssweight.checks import (
    CheckResult,
    bijectivity_check,
    check_h1_suite,
    check_log_hl,
    check_log_hl_all,
    check_wm,
    default_pass,
    injectivity_check,
    nondegeneracy_check,
)


def page(sc):
    return compute_e2(build_e1(sc))


# every builtin and every sign mutant: the documents whose pages build
PAGE_SOURCES = [*(s.label() for s in builtin_specs()), *SIGN_MUTANTS]


class TestDefaultPass:
    def test_each_name_no_result_reports_passes_once_in_order(self):
        location = {"stage": "V"}
        results = [CheckResult("b", {"i": 0}, "fail")]
        assert default_pass(results, ["a", "b", "c"], location, "vacuous") is results
        assert [(r.name, r.location, r.status, r.note) for r in results] == [
            ("b", {"i": 0}, "fail", ""),
            ("a", {"stage": "V"}, "pass", "vacuous"),
            ("c", {"stage": "V"}, "pass", "vacuous"),
        ]
        # each pass holds a copy of the location, none the location itself
        assert results[1].location is not location
        assert results[1].location is not results[2].location

    @pytest.mark.parametrize("source", PAGE_SOURCES)
    def test_no_two_results_share_a_location(self, source):
        # report writes q_reported into check_log_hl's locations, so a
        # shared dict would carry one degree's entry into another's results
        sc = complex_of(source)
        e2 = page(sc)
        results = check_log_hl_all(e2) + check_wm(e2) + check_h1_suite(e2)
        if sc.cycle_generated:
            results += hl_suite(e2)
        results += hodge_symmetry_report(sc).results
        assert len({id(r.location) for r in results}) == len(results)


# the premise of nondegeneracy_check, which has no branch for a Gram that is
# not square: builtins, sign mutants and twelve random valid complexes
GRAM_SOURCES = [*PAGE_SOURCES, *(f"random:{seed}" for seed in range(12))]


@pytest.mark.parametrize("source", GRAM_SOURCES)
def test_the_suite_reads_only_square_twisted_grams(monkeypatch, source):
    sc = complex_of(source)
    assert sc.validate().ok and sc.n >= 1
    reads, twisted_gram = [], checks._twisted_gram

    def spy(sc, k, q):
        gram = twisted_gram(sc, k, q)
        reads.append((k, q))
        assert sc.n + 1 - k - q >= 0, (k, q)
        assert gram.rows == gram.cols == sc.level_dim(k, q), (k, q)
        return gram

    monkeypatch.setattr(checks, "_twisted_gram", spy)
    check_h1_suite(page(sc))
    assert [k for k, q in reads if q == 0] == list(range(1, sc.max_level + 1))
    # H^2 of the component level is read only where im tau meets P^2
    assert ((1, 2) in reads) == (source == "tetrahedron")


class TestLogHL:
    def test_pn_all_r(self):
        e2 = page(good_reduction_pn(3))
        for r in range(4):
            assert all(c.ok for c in check_log_hl(e2, r))

    def test_r_zero_is_identity(self):
        e2 = page(ngon(3))
        results = [c for c in check_log_hl(e2, 0) if c.name == "log_hard_lefschetz"]
        assert results and all(c.status == "pass" for c in results)

    def test_tetrahedron_all_r(self):
        e2 = page(tetrahedron())
        for r in range(3):
            assert all(c.ok for c in check_log_hl(e2, r))

    def test_negative_r_rejected(self):
        with pytest.raises(InvalidParameters):
            check_log_hl(page(ngon(3)), -1)

    def test_failure_carries_verified_kernel_vector(self):
        # a cycle of curves polarized by degree zero breaks hard Lefschetz
        sc = graph_curve([(1, 2), (2, 3), (1, 3)], 3, degrees={1: 0, 2: 0, 3: 0})
        assert sc.validate().ok
        e2 = page(sc)
        results = [
            c
            for c in check_log_hl(e2, 1)
            if c.name == "log_hard_lefschetz" and c.status == "fail"
        ]
        assert results
        wit = results[0].witness
        assert wit["witness_verified"] and wit["kernel_vector"]


class TestWM:
    def test_ngon_r1_w1(self):
        e2 = page(ngon(3))
        res = {(c.location["r"], c.location["w"]): c for c in check_wm(e2)}
        assert res[(1, 1)].status == "pass"

    def test_pn_vacuous(self):
        results = check_wm(page(good_reduction_pn(2)))
        assert all(c.ok for c in results)
        assert any("vacuous" in c.note for c in results)

    def test_tetrahedron_all_pairs(self):
        assert all(c.ok for c in check_wm(page(tetrahedron())))


class TestH1Suite:
    def test_ngon_all_pass(self):
        results = check_h1_suite(page(ngon(3)))
        assert all(c.ok for c in results)
        # the middle Lefschetz map is vacuous: no odd stratum cohomology
        ell1 = [c for c in results if c.name == "log_hl_h1_ell1"]
        assert ell1 and "vacuous" in ell1[0].note
        ell0 = [c for c in results if c.name == "log_hl_h1_ell0"]
        assert ell0[0].witness == {"dim": 1, "rank": 1}

    def test_elliptic_stratum_ell1_nonvacuous(self):
        results = check_h1_suite(page(elliptic_stratum()))
        assert all(c.ok for c in results)
        ell1 = [c for c in results if c.name == "log_hl_h1_ell1"][0]
        assert ell1.witness == {"dim": 2, "rank": 2}

    def test_tetrahedron_all_pass(self):
        assert all(c.ok for c in check_h1_suite(page(tetrahedron())))

    def test_ell2_injectivity_surfaced(self):
        results = check_h1_suite(page(ngon(4)))
        assert any(c.name == "log_hl_h1_ell2_injective" for c in results)

    def test_degenerate_polarization_fails_with_witness(self):
        sc = graph_curve([(1, 2), (2, 3), (1, 3)], 3, degrees={1: 0, 2: 0, 3: 0})
        assert sc.validate().ok
        results = check_h1_suite(page(sc))
        bad = [c for c in results if c.name == "h0_pairing_on_ker_rho" and not c.ok]
        assert bad
        wit = bad[0].witness
        assert wit["witness_verified"]
        # re-multiply the null vector through the restricted pairing
        from ssweight.checks import _restricted_gram, _twisted_gram
        from ssweight.linalg import kernel

        k = bad[0].location["k"]
        gram = _restricted_gram(
            _twisted_gram(sc, k, 0), kernel(sc.rho(k, 0)).basis
        )
        vec = RatMatrix.from_rows([[x] for x in wit["null_vector"]])
        assert not vec.is_zero()
        assert (gram @ vec).is_zero()

    @pytest.mark.parametrize("spec", builtin_specs(), ids=lambda s: s.label())
    def test_one_quotient_beyond_the_page(self, monkeypatch, spec):
        # ker rho / im rho of H^0 of the double level is the page's quotient
        # at (1, 0); the suite builds the page quotients it reads, each once,
        # and forms one more, the whole quotient on the coordinates of
        # wm_h1_iso's source
        e2 = page(build(spec))
        made, read = [], set()
        init, quotient = QuotientSpace.__init__, E2Page.quotient
        monkeypatch.setattr(
            QuotientSpace, "__init__", lambda q, *args: made.append(q) or init(q, *args)
        )
        monkeypatch.setattr(
            E2Page, "quotient", lambda page, a, b: read.add((a, b)) or quotient(page, a, b)
        )
        check_h1_suite(e2)
        cells = read & set(e2.e1.support())
        assert (0, 0) in cells
        assert len(made) == len(cells) + 1

    def test_dimension_zero_rejected(self):
        zero_dim = graph_curve([], 1)
        zero_dim.n = 0  # forced: not a meaningful configuration
        with pytest.raises(InvalidParameters):
            check_h1_suite(page(zero_dim))


class TestWitnessShape:
    def test_every_fail_has_witness(self):
        sc = graph_curve([(1, 2), (2, 3), (1, 3)], 3, degrees={1: 0, 2: 0, 3: 0})
        results = check_h1_suite(page(sc)) + check_log_hl_all(page(sc)) + check_wm(page(sc))
        for c in results:
            if c.status == "fail":
                assert c.witness is not None


class TestWitnessVerification:
    """A kernel vector that does not verify is an internal fault: it raises
    ``RuntimeError``, also under ``python -O``, and never reaches a result."""

    SINGULAR = RatMatrix.from_rows([[1, 1], [1, 1]])

    @pytest.mark.parametrize("check", [bijectivity_check, injectivity_check, nondegeneracy_check])
    @pytest.mark.parametrize("bogus", [[1, 0], [0, 0]])
    def test_bad_kernel_vector_raises(self, monkeypatch, check, bogus):
        monkeypatch.setattr(RatMatrix, "kernel_basis", lambda self: RatMatrix.from_rows([[x] for x in bogus]))
        with pytest.raises(RuntimeError) as exc:
            check("c", {}, self.SINGULAR)
        assert not isinstance(exc.value, SsweightError)

    def test_page_level_check_raises(self, monkeypatch):
        sc = graph_curve([(1, 2), (2, 3), (1, 3)], 3, degrees={1: 0, 2: 0, 3: 0})
        e2 = page(sc)
        # the failing map here is zero, so only a zero vector is a bad witness
        monkeypatch.setattr(RatMatrix, "kernel_basis", lambda self: RatMatrix.zeros(self.cols, 1))
        with pytest.raises(RuntimeError):
            check_log_hl(e2, 1)

    @staticmethod
    def _zero_kernel_vector(monkeypatch, shape=None):
        # a zero "kernel vector" for every matrix, or only for one shape
        real = RatMatrix.kernel_basis

        def bogus(self):
            if shape is None or (self.rows, self.cols) == shape:
                return RatMatrix.zeros(self.cols, 1)
            return real(self)

        monkeypatch.setattr(RatMatrix, "kernel_basis", bogus)

    def test_module_pairing_null_vector_verified(self, monkeypatch):
        v = HodgeLefschetzModule(
            weight=0, dims={(0, 0): 1}, pairing={(0, 0): RatMatrix.zeros(1, 1)}
        )
        self._zero_kernel_vector(monkeypatch)
        with pytest.raises(RuntimeError):
            check_hl_axioms(v)

    def test_module_positivity_null_vector_verified(self, monkeypatch):
        # hyperbolic pairing on V^{0,0}; L kills e1, so the primitive form is
        # the 1x1 zero matrix, whose null vector is the witness
        v = HodgeLefschetzModule(
            weight=0,
            dims={(0, 0): 2, (0, 2): 1},
            l_ops={(0, 0): RatMatrix.from_rows([[0, 1]])},
            pairing={(0, 0): RatMatrix.from_rows([[0, 1], [1, 0]])},
        )
        positivity = [c for c in check_hl_axioms(v) if c.name == "hl_positivity"]
        assert positivity[0].witness["null_vector"] == ["1"]
        self._zero_kernel_vector(monkeypatch, shape=(1, 1))
        with pytest.raises(RuntimeError):
            check_hl_axioms(v)

    def test_validator_pairing_kernel_vector_verified(self, monkeypatch):
        sc = ngon(3)
        swap_face(sc, (1,), pairing={0: RatMatrix.zeros(1, 1), 2: RatMatrix.zeros(1, 1)})
        self._zero_kernel_vector(monkeypatch)
        with pytest.raises(RuntimeError):
            sc.validate()
