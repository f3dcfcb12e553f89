"""Exact-rank check suites: hard Lefschetz on the second page, the
weight-monodromy isomorphisms, and the degree-one lemma chain.

Every statement is instantiated as a matrix computation and reported as a
``CheckResult``.  A failing result always carries a witness that certifies
the failure (a kernel vector of a map claimed bijective, a null vector of a
pairing claimed non-degenerate, or the offending dimensions); witnesses are
re-multiplied through before the result is emitted.  Checks on zero spaces
pass with a "vacuous" note, matching mathematical convention, and a name
that no cell of a suite asks for passes once (``default_pass``).

An isomorphism verdict on the second page (``N^r`` in ``check_wm``, ``L^r``
in ``check_log_hl``) is ``isomorphism_check``: dimensions and one rank
decide it with no quotient built, and only a rank deficit forms the induced
power, through the quotients of the cells it passes, for its kernel witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvalidParameters
from .linalg import (
    QuotientSpace,
    RatMatrix,
    Subspace,
    image,
    induced_map,
    kernel,
    kernel_witness,
)
from .spectral import E2Page, power, power_target
from .strata import StrataComplex


@dataclass
class CheckResult:
    name: str
    location: dict = field(default_factory=dict)
    status: str = "pass"  # pass | fail | skipped
    note: str = ""
    witness: dict | None = None

    @property
    def ok(self) -> bool:
        return self.status != "fail"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "location": self.location,
            "status": self.status,
            "note": self.note,
            "witness": self.witness,
        }

    def __str__(self):
        loc = ",".join(f"{k}={v}" for k, v in sorted(self.location.items()))
        tail = f" ({self.note})" if self.note else ""
        return f"{self.status.upper():7s} {self.name}[{loc}]{tail}"


def default_pass(results: list[CheckResult], names, location: dict, note: str = ""):
    """Append one pass at a copy of ``location``, with ``note``, for each of
    ``names``, in order, that no result in ``results`` reports."""
    reported = {r.name for r in results}
    results += [CheckResult(name, dict(location), "pass", note) for name in names
                if name not in reported]
    return results


def bijectivity_check(name: str, location: dict, matrix: RatMatrix) -> CheckResult:
    """Pass iff the matrix is square of full rank; witnesses verified."""
    src, dst = matrix.cols, matrix.rows
    if src == 0 and dst == 0:
        return CheckResult(name, location, "pass", note="vacuous (zero spaces)")
    if src != dst:
        return CheckResult(
            name,
            location,
            "fail",
            note="source and target dimensions differ",
            witness={"source_dim": src, "target_dim": dst},
        )
    r = matrix.rank()
    if r == src:
        return CheckResult(name, location, "pass", witness={"dim": src, "rank": r})
    return CheckResult(
        name,
        location,
        "fail",
        note="map is not injective",
        witness={"dim": src, "rank": r, "kernel_vector": kernel_witness(matrix),
                 "witness_verified": True},
    )


def isomorphism_check(name: str, location: dict, e2: E2Page, op: str, a: int, b: int,
                      r: int) -> CheckResult:
    """``bijectivity_check`` of ``power(e2, op, a, b, r)``, with that power
    formed only for a witness.  Zero or unequal dimensions decide by shape
    alone, so the shared zero of that shape stands in for the power;
    ``N^0`` and ``L^0`` have full rank; any other rank is
    ``e2.induced_rank``.  A rank deficit gives the check of the power
    itself, so a failing witness is the same."""
    src, dst = e2.dim(a, b), e2.dim(*power_target(op, a, b, r))
    if src != dst or not src:
        return bijectivity_check(name, location, RatMatrix.zeros(dst, src))
    if r == 0 or e2.induced_rank(op, a, b, r) == src:
        return CheckResult(name, location, "pass", witness={"dim": src, "rank": src})
    return bijectivity_check(name, location, power(e2, op, a, b, r))


def injectivity_check(name: str, location: dict, matrix: RatMatrix) -> CheckResult:
    if matrix.cols == 0:
        return CheckResult(name, location, "pass", note="vacuous (zero source)")
    r = matrix.rank()
    if r == matrix.cols:
        return CheckResult(name, location, "pass", witness={"rank": r})
    return CheckResult(
        name,
        location,
        "fail",
        note="map is not injective",
        witness={"rank": r, "kernel_vector": kernel_witness(matrix), "witness_verified": True},
    )


def nondegeneracy_check(name: str, location: dict, gram: RatMatrix) -> CheckResult:
    """Pass iff the Gram matrix of a restricted pairing is invertible.  It is
    square by construction: ``B^T G B`` with ``G = _twisted_gram(sc, k, q)``."""
    if gram.rows == 0:
        return CheckResult(name, location, "pass", note="vacuous (zero space)")
    r = gram.rank()
    if r == gram.rows:
        return CheckResult(name, location, "pass", witness={"dim": gram.rows})
    return CheckResult(
        name,
        location,
        "fail",
        note="restricted pairing is degenerate",
        witness={"dim": gram.rows, "rank": r, "null_vector": kernel_witness(gram),
                 "witness_verified": True},
    )


def relation_checks(cx, names: dict, where, everywhere: dict) -> list[CheckResult]:
    """``d^2 = 0`` and the commutation of ``N``, ``L`` and ``d`` with each
    other on every cell of a page or module.

    ``names`` maps the relations "dd", "nd", "ld" and "nl" to result names,
    in the order they are reported.  A relation fails once per cell where it
    fails, at ``where(a, b)``; one that holds on every cell passes once, at
    ``everywhere``.
    """
    results = []
    for (a, b) in cx.support():
        d, nm, lm = cx.d1(a, b), cx.nmap(a, b), cx.lmap(a, b)
        values = {
            "dd": cx.d1(a + 1, b) @ d,
            "nd": cx.nmap(a + 1, b) @ d - cx.d1(a + 2, b - 2) @ nm,
            "ld": cx.lmap(a + 1, b) @ d - cx.d1(a, b + 2) @ lm,
            "nl": cx.nmap(a, b + 2) @ lm - cx.lmap(a + 2, b - 2) @ nm,
        }
        for key, name in names.items():
            if not values[key].is_zero():
                results.append(CheckResult(name, where(a, b), "fail"))
    return default_pass(results, names.values(), everywhere)


# -- log hard Lefschetz and weight-monodromy on the second page ---------------


def check_log_hl(e2: E2Page, r: int) -> list[CheckResult]:
    """L^r between the cells of total degree n-r and n+r, one result per b.

    Also cross-asserts, independently of any rank computation, that each
    source cell has the dimension of its dual corner (the Lefschetz target
    cell of weight 2n-b), which duality alone forces.
    """
    if r < 0:
        raise InvalidParameters("r must be >= 0")
    n = e2.n
    bs = sorted(
        {b for (a, b) in e2.support() if a + b == n - r}
        | {b - 2 * r for (a, b) in e2.support() if a + b == n + r}
    )
    results = []
    for b in bs:
        a = n - r - b
        results.append(
            isomorphism_check("log_hard_lefschetz", {"r": r, "b": b, "q": n - r}, e2, "l", a, b, r)
        )
        # duality pairs this source cell with the Lefschetz target cell of
        # weight 2n-b, the four-corner square; forced by duality alone
        d_src = e2.dim(a, b)
        d_dual = e2.dim(b + r - n, 2 * n - b)
        results.append(
            CheckResult(
                "log_hl_corner_dims",
                {"r": r, "b": b},
                "pass" if d_src == d_dual else "fail",
                witness={"dim": d_src, "dual_corner_dim": d_dual},
            )
        )
    return default_pass(results, ["log_hard_lefschetz"], {"r": r}, "vacuous (no cells)")


def check_log_hl_all(e2: E2Page) -> list[CheckResult]:
    out = []
    for r in range(e2.n + 1):
        out.extend(check_log_hl(e2, r))
    return out


def check_wm(e2: E2Page) -> list[CheckResult]:
    """N^r: E2^{-r, w+r} -> E2^{r, w-r} for every (r, w) meeting the support."""
    pairs = sorted(
        {(abs(a), a + b) for (a, b) in e2.support() if a != 0}
    )
    results = []
    for r, w in pairs:
        results.append(
            isomorphism_check("weight_monodromy", {"r": r, "w": w}, e2, "n", -r, w + r, r)
        )
    return default_pass(results, ["weight_monodromy"], {}, "vacuous (single-column page, N = 0)")


# -- the degree-one suite ------------------------------------------------------


def _twisted_gram(sc: StrataComplex, k: int, q: int) -> RatMatrix:
    """Gram of <x, y> = pairing(L^p x, y) on H^q(level k), p = n+1-k-q >= 0;
    square, since the pairing puts H^q against the degree q+2p of L^p x."""
    p = sc.n + 1 - k - q
    lpow = sc.lefschetz_power(k, q, p)
    top = sc.level_pairing(k, q + 2 * p)
    return lpow.transpose() @ top


def _restricted_gram(gram: RatMatrix, basis: RatMatrix) -> RatMatrix:
    return basis.transpose() @ gram @ basis


def check_h1_suite(e2: E2Page) -> list[CheckResult]:
    """Degree-one lemma chain: pairing lemmas, the weight-monodromy
    isomorphism on weight-two classes, and the three Lefschetz-power maps
    between the corner cells of the second page.

    H^0 of level k is the first-page cell (k-1, 0) alone, with ``d1 = rho``
    into and out of it, so ``ker rho(k, 0)`` and ``im rho(k-1, 0)`` are read
    from ``e2.quotient(k-1, 0)``, which at k = 2 is ``wm_h1_iso``'s target.
    Its source stays ``ker tau(2,0) ∩ ker rho(2,0)``: the page's kernel at
    (-1, 2) has another basis, which would move a failing witness.  No cell
    holds the tau-side subspaces (E1^{0,2} mixes H^2 of level 1 with H^0 of
    level 3), so they are formed here."""
    sc = e2.e1.sc
    n = sc.n
    if n < 1:
        raise InvalidParameters("degree-one suite needs dimension >= 1")
    results: list[CheckResult] = []

    # pairing on im(rho) and ker(rho) inside H^0 of every level
    for k in range(1, sc.max_level + 1):
        if sc.level_dim(k, 0) == 0:
            continue
        gram = _twisted_gram(sc, k, 0)
        h0 = e2.quotient(k - 1, 0)
        spaces = [("h0_pairing_on_im_rho", h0.denominator)] if k >= 2 else []
        spaces.append(("h0_pairing_on_ker_rho", h0.numerator))
        for name, space in spaces:
            results.append(nondegeneracy_check(name, {"k": k}, _restricted_gram(gram, space.basis)))

    # pairing on im(tau) ∩ primitive H^2 of the component level
    tau20 = sc.tau(2, 0)
    ker_tau20 = kernel(tau20)
    im_tau = image(tau20)
    primitive = kernel(sc.lefschetz_power(1, 2, n - 1))
    meet = im_tau.intersection(primitive)
    complement = im_tau
    if meet.dim:  # L^{n-1} is the identity on H^2 at n = 1, so here n >= 2
        gram2 = _twisted_gram(sc, 1, 2)
        results.append(nondegeneracy_check(
            "pairing_on_im_tau_primitive", {"k": 1, "q": 2}, _restricted_gram(gram2, meet.basis)
        ))
        complement = im_tau.annihilated_by(meet.basis.transpose() @ gram2)
    else:
        results.append(CheckResult(
            "pairing_on_im_tau_primitive", {"k": 1, "q": 2}, "pass",
            note="vacuous (intersection is zero)",
        ))

    # im(tau rho) is the orthocomplement of im(tau) ∩ P^2 inside im(tau)
    im_tau_rho = image(tau20 @ sc.rho(1, 0))
    results.append(_subspace_equality_check(
        "im_tau_rho_is_orthocomplement", {"k": 1, "q": 2}, im_tau_rho, complement
    ))

    # ker(tau) ∩ im(rho) = 0 in H^0 of the double level, the cell (1, 0)
    h0_double = e2.quotient(1, 0)
    meet2 = ker_tau20.intersection(h0_double.denominator)
    if meet2.dim == 0:
        results.append(
            CheckResult("ker_tau_meets_im_rho_trivially", {"k": 2, "q": 0}, "pass")
        )
    else:
        results.append(
            CheckResult(
                "ker_tau_meets_im_rho_trivially",
                {"k": 2, "q": 0},
                "fail",
                note="intersection is nonzero",
                witness={"dim": meet2.dim, "vector": meet2.basis.col(0)},
            )
        )

    # ker(rho) ∩ im(tau) = im(tau rho) in H^2 of the component level
    meet3 = kernel(sc.rho(1, 2)).intersection(im_tau)
    results.append(_subspace_equality_check(
        "ker_rho_meets_im_tau_in_im_tau_rho", {"k": 1, "q": 2}, meet3, im_tau_rho
    ))

    # weight-monodromy on weight-two degree-one classes: the identity of
    # H^0(level 2) induces ker(tau)∩ker(rho) ~ ker(rho)/im(rho); on a basis
    # s of the source it is the map s out of the whole of Q^k
    s = ker_tau20.intersection(h0_double.numerator).basis
    k = s.cols
    whole = QuotientSpace(RatMatrix.identity(k), list(range(k)), RatMatrix.zeros(k, 0))
    results.append(
        bijectivity_check("wm_h1_iso", {"r": 1, "w": 1}, induced_map(s, whole, h0_double))
    )

    # the three Lefschetz-power maps between degree-one and degree-(2n-1) cells
    ell = [
        ("log_hl_h1_ell0", 1, 0),
        ("log_hl_h1_ell1", 0, 1),
        ("log_hl_h1_ell2", -1, 2),
    ]
    for name, a, b in ell:
        matrix = power(e2, "l", a, b, n - 1)
        if name == "log_hl_h1_ell2":
            results.append(
                injectivity_check("log_hl_h1_ell2_injective", {"a": a, "b": b}, matrix)
            )
        results.append(bijectivity_check(name, {"a": a, "b": b}, matrix))

    # four-corner consistency: both weight-monodromy sides of degree one have
    # the dimensions forced by duality once ell0 is an isomorphism
    dims = {
        "E2(1,0)": e2.dim(1, 0),
        "E2(-1,2)": e2.dim(-1, 2),
        f"E2(1,{2*n-2})": e2.dim(1, 2 * n - 2),
        f"E2(-1,{2*n})": e2.dim(-1, 2 * n),
    }
    distinct = set(dims.values())
    results.append(
        CheckResult(
            "wm_h1_four_corner_dims",
            {},
            "pass" if len(distinct) == 1 else "fail",
            witness=dims,
        )
    )
    return results


def _subspace_equality_check(name, location, left: Subspace, right: Subspace) -> CheckResult:
    if left.dim == right.dim and right.contains(left):
        note = "vacuous (both zero)" if left.dim == 0 else ""
        return CheckResult(name, location, "pass", note=note, witness={"dim": left.dim})
    witness = {"left_dim": left.dim, "right_dim": right.dim}
    # the first basis vector of one side outside the other: ``contains`` on its line
    for key, a, b in (("vector_in_left_only", left, right), ("vector_in_right_only", right, left)):
        lines = (a.basis.take_columns([j]) for j in range(a.dim))
        v = next((c for c in lines if not b.contains(Subspace._trusted(a.ambient_dim, c))), None)
        if v is not None:
            witness[key] = v.col(0)
            break
    return CheckResult(name, location, "fail", note="subspaces differ", witness=witness)
