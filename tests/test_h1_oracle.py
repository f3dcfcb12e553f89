"""The degree-one suite's rank verdicts against its subspaces.

``check_h1_suite`` decides its tau-side verdicts from ranks and page
dimensions, and forms subspaces only for the witness of a verdict that
fails.  ``helpers.h1_suite_model`` forms every subspace, as the suite once
did, and decides from them.  Every result (name, location, status, note and
witness) of the two is compared on the builtins, the ``SIGN_MUTANTS``
(``ngon:4/point-sign`` fails ``h0_pairing_on_im_rho``, the three tau-side
subspace checks and ``wm_h1_iso``), twelve random valid documents,
``ngon:640``, ``ngon_x_p1:20`` and ``tetrahedron x P2``.

Of these, only ``tetrahedron`` and ``tetrahedron x P2`` have a nonzero
``im tau ∩ P^2``, and both pass.  So on the documents of dimension at least
two with ``tau(2, 0)`` nonzero, the twisted Gram on H^2 of level 1 and
``L^{n-1}`` on that space are also replaced, in the suite and the model
alike, by forms and maps that make the meet nonzero, the pairing on it
degenerate or not symmetric, and its orthocomplement another space.

Where ``im(tau rho)`` is smaller than ``im tau``, ``rho(1, 2)`` is replaced
too, by forms whose kernel meets ``im tau`` in a space of the dimension of
``im(tau rho)`` that does not hold it.

Last, a passing suite forms no tau-side subspace: no intersection, image or
kernel, on the builtins.
"""

import random

import pytest

from helpers import SIGN_MUTANTS, bench_inputs, h1_suite_model, random_valid_complex, sign_mutant
from ssweight import checks
from ssweight.checks import check_h1_suite
from ssweight.linalg import RatMatrix, Subspace, image, kernel
from ssweight.scenarios import build, builtin_specs, parse_spec
from ssweight.spectral import E1Page, E2Page
from ssweight.strata import StrataComplex

SOURCES = [
    *(s.label() for s in builtin_specs()),
    *(f"mutant {name}" for name in SIGN_MUTANTS),
    *(f"random {seed}" for seed in range(12)),
    "ngon:640",
    "ngon_x_p1:20",
    "tetrahedron x P2",
]


def _complex(source: str) -> StrataComplex:
    kind, _, rest = source.partition(" ")
    if kind == "mutant":
        return StrataComplex.from_json_dict(sign_mutant(rest))
    if kind == "random":
        return random_valid_complex(random.Random(int(rest)))
    if " x " in source:
        return bench_inputs().build_rung(source)
    return build(parse_spec(source))


def _page(sc: StrataComplex) -> E2Page:
    return E2Page(E1Page(sc))


def _outcome(suite, e2):
    """The results of ``suite`` on the page ``e2`` as dicts, or the type of
    what it raises."""
    try:
        return [r.to_dict() for r in suite(e2)]
    except Exception as exc:  # a fault of either side is compared too
        return type(exc)


@pytest.mark.parametrize("source", SOURCES)
def test_rank_verdicts_equal_the_subspace_model(source):
    sc = _complex(source)
    got, expected = _outcome(check_h1_suite, _page(sc)), _outcome(h1_suite_model, _page(sc))
    assert isinstance(expected, list)
    assert got == expected


def test_point_sign_fails_the_tau_side():
    results = check_h1_suite(_page(_complex("mutant ngon:4/point-sign")))
    assert {r.name for r in results if r.status == "fail"} == {
        "h0_pairing_on_im_rho",
        "im_tau_rho_is_orthocomplement",
        "ker_tau_meets_im_rho_trivially",
        "ker_rho_meets_im_tau_in_im_tau_rho",
        "wm_h1_iso",
    }


# replacements for the twisted Gram G on H^2 of level 1, and for L^{n-1} there
def _zero(m):
    return RatMatrix.zeros(m.rows, m.cols)


def _first_column_zero(m):
    return RatMatrix.from_rows([[0, *row[1:]] for row in m.entries])


def _corner(m):
    # one entry added above the diagonal: a form that is not symmetric
    rows = [list(row) for row in m.entries]
    rows[0][-1] += 1
    return RatMatrix.from_rows(rows)


def _diagonal(m):
    # one diagonal entry moved: on the tetrahedron, the orthocomplement keeps
    # the dimension of im(tau rho) and no longer holds it
    rows = [list(row) for row in m.entries]
    i = min(2, m.rows - 1)
    rows[i][i] += 1
    return RatMatrix.from_rows(rows)


def _identity(m):
    return RatMatrix.identity(m.rows)


def _rank_one(m):
    return RatMatrix.from_rows([[1] * m.cols for _ in range(m.rows)])


def _first_row(m):
    return RatMatrix.from_rows([list(m.entries[0]), *([0] * m.cols for _ in m.entries[1:])])


GRAMS = {"G": None, "zero": _zero, "first-column-zero": _first_column_zero,
         "corner": _corner, "diagonal": _diagonal, "identity": _identity, "rank-one": _rank_one}
LOWER = {"L": None, "zero": _zero, "first-row": _first_row}
PATCHED = ["tetrahedron", "ngon_x_p1:3", "tetrahedron x P2", "mutant ngon_x_p1:3",
           "random 0", "random 2", "random 6"]


def _patch(monkeypatch, sc, gram, lower):
    twisted, lefschetz = checks._twisted_gram, StrataComplex.lefschetz_power
    n = sc.n

    def twisted_gram(sc, k, q):
        g = twisted(sc, k, q)
        return GRAMS[gram](g) if GRAMS[gram] and (k, q) == (1, 2) else g

    def lefschetz_power(self, k, m, p):
        out = lefschetz(self, k, m, p)
        return LOWER[lower](out) if LOWER[lower] and (k, m, p) == (1, 2, n - 1) else out

    monkeypatch.setattr(checks, "_twisted_gram", twisted_gram)
    monkeypatch.setattr(StrataComplex, "lefschetz_power", lefschetz_power)


@pytest.mark.parametrize("source", PATCHED)
def test_rank_verdicts_equal_the_model_on_replaced_forms(monkeypatch, source):
    sc = _complex(source)
    assert sc.n >= 2 and not sc.tau(2, 0).is_zero()
    failed, same_dims = set(), set()
    for gram in GRAMS:
        for lower in LOWER:
            _patch(monkeypatch, sc, gram, lower)
            got, expected = _outcome(check_h1_suite, _page(sc)), _outcome(h1_suite_model, _page(sc))
            monkeypatch.undo()
            assert isinstance(expected, list)
            assert got == expected, (gram, lower)
            meet = next(r for r in expected if r["name"] == "pairing_on_im_tau_primitive")
            for r in expected:
                if r["status"] == "fail" and meet["witness"]:
                    failed.add(r["name"])
                    if r["witness"].get("left_dim", -1) == r["witness"].get("right_dim"):
                        same_dims.add(r["name"])
    # a degenerate pairing on a nonzero meet, and an orthocomplement that
    # differs from im(tau rho), on every source; on the tetrahedron, one
    # such orthocomplement has the dimension of im(tau rho), so the
    # containment alone decides it
    assert {"pairing_on_im_tau_primitive", "im_tau_rho_is_orthocomplement"} <= failed
    assert ("im_tau_rho_is_orthocomplement" in same_dims) == source.startswith("tetrahedron")


@pytest.mark.parametrize("source", ["tetrahedron", "tetrahedron x P2", "mutant ngon:4/point-sign"])
def test_rank_verdicts_equal_the_model_on_a_replaced_rho(monkeypatch, source):
    # rho(1, 2) replaced, once both pages are built, by the forms that vanish
    # on a space W inside im tau with the dimension of im(tau rho) that is not
    # im(tau rho): ker rho(1, 2) ∩ im tau is then W, so the containment of
    # im(tau rho) alone fails ker_rho_meets_im_tau_in_im_tau_rho
    sc = _complex(source)
    tau = sc.tau(2, 0)
    im_tau, im_tau_rho = image(tau), image(tau @ sc.rho(1, 0))
    w = Subspace(im_tau.ambient_dim, im_tau.basis.take_columns(range(im_tau_rho.dim)))
    assert w.dim < im_tau.dim and w != im_tau_rho
    forms = kernel(w.basis.transpose()).basis.transpose()
    pages = [_page(sc), _page(sc)]
    rho = StrataComplex.rho
    monkeypatch.setattr(
        StrataComplex, "rho", lambda self, k, m: forms if (k, m) == (1, 2) else rho(self, k, m)
    )
    got, expected = _outcome(check_h1_suite, pages[0]), _outcome(h1_suite_model, pages[1])
    assert isinstance(expected, list)
    assert got == expected
    meet = next(r for r in expected if r["name"] == "ker_rho_meets_im_tau_in_im_tau_rho")
    assert meet["status"] == "fail"
    assert meet["witness"]["left_dim"] == meet["witness"]["right_dim"]


def _count(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("spec", builtin_specs(), ids=lambda s: s.label())
def test_a_passing_suite_forms_no_tau_side_subspace(monkeypatch, spec):
    calls = []
    for owner, name in ((Subspace, "intersection"), (Subspace, "annihilated_by"),
                        (Subspace, "contains"), (checks, "image"), (checks, "kernel"),
                        (checks, "induced_map")):
        _count(monkeypatch, owner, name, calls)
    results = check_h1_suite(_page(build(spec)))
    assert all(r.ok for r in results)
    assert calls == []
