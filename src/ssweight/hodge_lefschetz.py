"""Bigraded Hodge-Lefschetz modules over Q.

A module of weight ``n`` is a bigraded space ``V^{i,j}`` with commuting
operators ``N`` of bidegree (2,0), ``L`` of bidegree (0,2), a differential
``d`` of bidegree (1,1) squaring to zero, and a pairing identifying
``V^{i,j}`` with the dual of ``V^{-i,-j}``.  The axioms checked here are

* parity: ``V^{i,j} = 0`` when ``i+j+n`` is odd;
* iso: ``N^i: V^{-i,j} -> V^{i,j}`` and ``L^j: V^{i,-j} -> V^{i,j}`` are
  isomorphisms for ``i, j >= 0``;
* commutation: ``d^2 = 0`` and ``N, L, d`` pairwise commute;
* duality: the pairing between ``V^{i,j}`` and ``V^{-i,-j}`` is perfect, and
  ``<x,y> = ±<y,x>``, ``<Tx,y> = ±<x,Ty>`` for ``T`` in ``{N, L, d}``; the
  signs are recorded per bidegree, never assumed;
* positivity: on ``ker N^{i+1} ∩ ker L^{j+1}`` inside ``V^{-i,-j}`` the form
  ``<x, N^i L^j y>`` is definite (sign recorded per bidegree).

Read in page coordinates ``(a, b) = (i, j-i+n)``, such a module is a
bigraded complex with the interface of ``spectral`` (``d = d1``), and
``check_hl_axioms`` reads any such complex through that interface; ``(i, j)``
appears only in the locations of results.  ``hl_from_strata`` returns the
first page of a cycle-generated configuration, which is the strata-built
module: ``E1Page`` assembles its pairing from the Poincare pairings of
complementary summands.  ``hl_cohomology`` is ``E2Page``: ``ker d / im d``
with the induced operators and pairing, again a module of the same weight.
For the strata-built module that is the second page of the weight spectral
sequence, so ``hl_suite`` checks the page itself as ``H(V)``, and checks
that taking cohomology once more changes nothing.
"""

from __future__ import annotations

from .checks import CheckResult, bijectivity_check, relation_checks
from .errors import NotCycleGenerated
from .linalg import RatMatrix, kernel, kernel_witness, signature
from .spectral import E1Page, E2Page, power


def _sign_match(lhs: RatMatrix, rhs: RatMatrix):
    """Return +1/-1 if lhs == ±rhs, 0 if both zero, None otherwise."""
    if lhs.is_zero() and rhs.is_zero():
        return 0
    if lhs == rhs:
        return 1
    if lhs == rhs.scale(-1):
        return -1
    return None


def check_hl_axioms(v, stage: str = "") -> list[CheckResult]:
    """Every module axiom on a page or module ``v`` of weight ``v.n``.

    Cells are visited in ``(a, b)`` order, which is also ``(i, j)`` order.
    """
    n = v.n
    results: list[CheckResult] = []
    loc0 = {"stage": stage} if stage else {}

    def loc(i, j):
        return dict(loc0, i=i, j=j)

    def at(a, b):
        return loc(a, a + b - n)

    # parity: i + j + n = 2a + b
    bad = [(a, a + b - n) for (a, b) in v.support() if b % 2]
    results.append(
        CheckResult(
            "hl_parity",
            dict(loc0),
            "fail" if bad else "pass",
            note="" if not bad else f"nonzero cells at odd parity: {bad}",
        )
    )

    # commutation relations
    names = {
        "dd": "hl_d_squared",
        "nl": "hl_commute_NL",
        "nd": "hl_commute_Nd",
        "ld": "hl_commute_Ld",
    }
    results += relation_checks(v, names, at, loc0)

    # iso axioms: N^i from (-i, j+i+n) and L^j from (i, n-i-j), to (i, j-i+n)
    pairs_n = sorted({(abs(a), a + b - n) for (a, b) in v.support() if a and a + b >= n})
    for i, j in pairs_n:
        results.append(bijectivity_check("hl_iso_N", loc(i, j), power(v, "n", -i, j + i + n, i)))
    pairs_l = sorted({(a, abs(a + b - n)) for (a, b) in v.support() if a >= 0 and a + b != n})
    for i, j in pairs_l:
        results.append(bijectivity_check("hl_iso_L", loc(i, j), power(v, "l", i, n - i - j, j)))

    # duality: perfect pairing, graded symmetry, operator adjointness
    seen = set()
    for (a, b) in v.support():
        dual = (-a, 2 * n - b)
        if dual in seen:
            continue
        seen.add((a, b))
        p = v.pairing_at(a, b)
        if p.rows != p.cols or (p.rows and p.rank() != p.rows):
            wit = {"rows": p.rows, "cols": p.cols}
            if p.rows == p.cols and p.rows:
                wit["null_vector"] = kernel_witness(p.transpose())
            results.append(
                CheckResult("hl_pairing_perfect", at(a, b), "fail", witness=wit)
            )
        else:
            results.append(
                CheckResult(
                    "hl_pairing_perfect", at(a, b), "pass", witness={"dim": p.rows}
                )
            )
        s = _sign_match(p, v.pairing_at(*dual).transpose())
        results.append(
            CheckResult(
                "hl_pairing_symmetry",
                at(a, b),
                "pass" if s is not None else "fail",
                note="vacuous" if s == 0 else "",
                witness={"sign": s},
            )
        )
    for (a, b) in v.support():
        ops = [
            ("hl_adjoint_N", v.nmap(a, b).transpose() @ v.pairing_at(a + 2, b - 2),
             v.pairing_at(a, b) @ v.nmap(-a - 2, 2 * n - b + 2)),
            ("hl_adjoint_L", v.lmap(a, b).transpose() @ v.pairing_at(a, b + 2),
             v.pairing_at(a, b) @ v.lmap(-a, 2 * n - b - 2)),
            ("hl_adjoint_d", v.d1(a, b).transpose() @ v.pairing_at(a + 1, b),
             v.pairing_at(a, b) @ v.d1(-a - 1, 2 * n - b)),
        ]
        for name, lhs, rhs in ops:
            if lhs.rows == 0 or lhs.cols == 0:
                continue
            s = _sign_match(lhs, rhs)
            if s is None:
                results.append(CheckResult(name, at(a, b), "fail"))
            elif s != 0:
                results.append(
                    CheckResult(name, at(a, b), "pass", witness={"sign": s})
                )
    for name in ("hl_adjoint_N", "hl_adjoint_L", "hl_adjoint_d"):
        if not any(r.name == name for r in results):
            results.append(CheckResult(name, dict(loc0), "pass", note="vacuous"))

    # positivity on primitive bidegrees: (i, j) >= 0 with V^{-i,-j} at
    # (a, b) = (-i, n+i-j)
    prim_pairs = sorted({(-a, n - a - b) for (a, b) in v.support() if a <= 0 and a + b <= n})
    for i, j in prim_pairs:
        a, b = -i, n + i - j
        ker_n = kernel(power(v, "n", a, b, i + 1))
        ker_l = kernel(power(v, "l", a, b, j + 1))
        prim = ker_n.intersection(ker_l)
        if prim.dim == 0:
            continue
        form = v.pairing_at(a, b) @ power(v, "n", a, b + 2 * j, i) @ power(v, "l", a, b, j)
        gram = prim.basis.transpose() @ form @ prim.basis
        if not gram.is_symmetric():
            results.append(
                CheckResult(
                    "hl_positivity",
                    loc(i, j),
                    "fail",
                    note="primitive form is not symmetric",
                )
            )
            continue
        pp, mm, zz = signature(gram)
        definite = zz == 0 and (pp == 0 or mm == 0)
        wit = {"signature": [pp, mm, zz], "dim": prim.dim}
        if definite:
            wit["sign"] = 1 if mm == 0 else -1
            results.append(CheckResult("hl_positivity", loc(i, j), "pass", witness=wit))
        else:
            if zz:
                wit["null_vector"] = kernel_witness(gram)
                wit["witness_verified"] = True
            results.append(
                CheckResult(
                    "hl_positivity",
                    loc(i, j),
                    "fail",
                    note="primitive form is not definite",
                    witness=wit,
                )
            )
    if not any(r.name == "hl_positivity" for r in results):
        results.append(CheckResult("hl_positivity", dict(loc0), "pass", note="vacuous"))
    return results


def hl_from_strata(e1: E1Page) -> E1Page:
    """The strata-built module of weight n: the first page of a
    cycle-generated configuration itself."""
    if not e1.cycle_generated:
        raise NotCycleGenerated(
            "module construction needs every stratum generated by algebraic cycles"
        )
    return e1


def _induce_pairing(page: E2Page) -> E2Page:
    """Induce the pairing on every cell of the page's complex, so that
    ``InducedPairingIllDefined`` is raised before any check reads it."""
    for (a, b) in page.e1.support():
        page.pairing_at(a, b)
    return page


def hl_cohomology(v) -> E2Page:
    """``ker d / im d`` of a page or module with the induced operators and
    pairing and zero differential: the ``E2Page`` of ``v``.

    Raises ``InducedPairingIllDefined`` when im(d) does not pair to zero with
    ker(d) on the dual cell, which signals an adjointness violation upstream.
    """
    return _induce_pairing(E2Page(v))


def _same_complex(u, v) -> bool:
    """Equal supports, and equal ``d``, ``N``, ``L`` and pairing out of every
    cell of the support."""
    return u.support() == v.support() and all(
        getattr(u, op)(a, b) == getattr(v, op)(a, b)
        for op in ("nmap", "lmap", "d1", "pairing_at")
        for (a, b) in u.support()
    )


def hl_suite(e2: E2Page) -> list[CheckResult]:
    """Axioms for the strata-built module and again for its cohomology,
    which is the second page itself."""
    results = check_hl_axioms(hl_from_strata(e2.e1), stage="V")
    results.extend(check_hl_axioms(_induce_pairing(e2), stage="H(V)"))
    n = e2.n
    dims = sorted(((a, a + b - n), e2.dim(a, b)) for (a, b) in e2.support())
    results.append(
        CheckResult(
            "hl_cohomology_fixpoint",
            {},
            "pass" if _same_complex(hl_cohomology(e2), e2) else "fail",
            witness={"dims": str(dims)},
        )
    )
    return results
