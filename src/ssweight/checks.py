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
in ``check_log_hl`` and the degree-one suite) is ``isomorphism_check``:
dimensions and one rank decide it with no quotient built, and only a rank
deficit forms the induced power, through the quotients of the cells it
passes, for its kernel witness.  The degree-one suite decides its tau side
from ranks and page dimensions too, and forms a kernel, image or
intersection only for the witness of a verdict that fails.  No verdict is
decided twice: a witness path reads the rank or dimensions its verdict
found, and a kernel witness that does not verify raises ``RuntimeError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvalidParameters
from .linalg import (
    QuotientSpace,
    RatMatrix,
    Subspace,
    assemble_blocks,
    image,
    induced_map,
    kernel,
    kernel_witness,
)
from .spectral import E2Page, power, power_target
from .strata import StrataComplex, memoised


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
    return _bijective(name, location, matrix.cols, matrix.rows, matrix.rank, lambda: matrix)


def _bijective(name: str, location: dict, src: int, dst: int, rank, matrix) -> CheckResult:
    """The verdict of ``bijectivity_check`` on a map from Q^src to Q^dst:
    zero or unequal dimensions decide alone, then ``rank()``; only a rank
    deficit reads ``matrix()``, the map, for its kernel witness."""
    if src == 0 and dst == 0:
        return CheckResult(name, location, "pass", note="vacuous (zero spaces)")
    if src != dst:
        return CheckResult(name, location, "fail", note="source and target dimensions differ",
                           witness={"source_dim": src, "target_dim": dst})
    r = rank()
    if r == src:
        return CheckResult(name, location, "pass", witness={"dim": src, "rank": r})
    return _kernel_failure(name, location, "map is not injective", {"dim": src, "rank": r},
                           "kernel_vector", matrix())


def _kernel_failure(name: str, location: dict, note: str, witness: dict, key: str,
                    matrix: RatMatrix) -> CheckResult:
    """A failure certified by a kernel vector of ``matrix``, written under
    ``key`` after ``witness``; ``kernel_witness`` verifies it, so a verdict
    that ``matrix`` does not bear out raises ``RuntimeError``."""
    witness = {**witness, key: kernel_witness(matrix), "witness_verified": True}
    return CheckResult(name, location, "fail", note=note, witness=witness)


def isomorphism_check(name: str, location: dict, e2: E2Page, op: str, a: int, b: int,
                      r: int) -> CheckResult:
    """``bijectivity_check`` of ``power(e2, op, a, b, r)`` from dimensions and
    ``e2.induced_rank``; only a rank deficit forms the power, for its kernel
    witness, so a failing witness is the same."""
    src, dst = e2.dim(a, b), e2.dim(*power_target(op, a, b, r))
    return _bijective(name, location, src, dst, lambda: e2.induced_rank(op, a, b, r),
                      lambda: power(e2, op, a, b, r))


def injectivity_check(name: str, location: dict, matrix: RatMatrix) -> CheckResult:
    return _injective(name, location, matrix.cols, matrix.rank, lambda: matrix)


def _injective(name: str, location: dict, src: int, rank, matrix) -> CheckResult:
    """The verdict of ``injectivity_check`` on a map out of Q^src, from
    ``rank()``; only a failure reads ``matrix()``, for its kernel witness."""
    if src == 0:
        return CheckResult(name, location, "pass", note="vacuous (zero source)")
    r = rank()
    if r == src:
        return CheckResult(name, location, "pass", witness={"rank": r})
    return _kernel_failure(name, location, "map is not injective", {"rank": r}, "kernel_vector",
                           matrix())


def nondegeneracy_check(name: str, location: dict, gram: RatMatrix) -> CheckResult:
    """Pass iff the Gram matrix of a restricted pairing is invertible.  It is
    square by construction: ``B^T G B`` with ``G = _twisted_gram(sc, k, q)``."""
    if gram.rows == 0:
        return CheckResult(name, location, "pass", note="vacuous (zero space)")
    return _nondegenerate(name, location, gram.rows, gram.rank(), lambda: gram)


def _nondegenerate(name: str, location: dict, dim: int, rank: int, gram) -> CheckResult:
    """The verdict on a pairing of rank ``rank`` on a space of dimension
    ``dim > 0``; only a failure reads ``gram()``, its Gram matrix on the
    basis the null vector is written in."""
    if rank == dim:
        return CheckResult(name, location, "pass", witness={"dim": dim})
    return _kernel_failure(name, location, "restricted pairing is degenerate",
                           {"dim": dim, "rank": rank}, "null_vector", gram())


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
    from ``e2.quotient(k-1, 0)``.  No cell holds the tau side (E1^{0,2}
    mixes H^2 of level 1 with H^0 of level 3), and its verdicts are read
    from ranks.  With ``T = tau(2,0)``, ``R = rho(1,0)``, ``A = L^{n-1} T``
    (``T`` itself at n = 1), the twisted Gram ``G`` on H^2 of level 1 and
    ``S = T^T G T``, by the rank identities ``rank [A; X] = rank A +
    rank(X Z)`` and ``rank [[S, A^T], [A, 0]] = rank(Z^T S Z) + 2 rank A``
    for a basis ``Z`` of ``ker A`` (Marsaglia and Styan, Linear and
    Multilinear Algebra 2, 1974), whose image under ``T`` spans the meet:

    - ``im T ∩ P^2`` has dimension ``rank T - rank A``, and ``G`` has rank
      ``rank [[S, A^T], [A, 0]] - 2 rank A`` on it;
    - the part of ``im T`` that ``G`` pairs to zero with the meet has
      dimension ``rank T - rank [A^T | S] + rank A``, and holds ``im(TR)``,
      which lies in ``im T``, iff ``rank [A^T | SR] = rank A``; it is
      ``im T`` when the meet is zero;
    - ``ker T ∩ im R`` has dimension ``rank R - rank(TR)``;
    - ``ker rho(1,2) ∩ im T`` has dimension ``rank T - rank(rho(1,2) T)``,
      and holds ``im(TR)`` iff ``rho(1,2) T R = 0``.

    ``wm_h1_iso`` is the induced ``N: E2^{-1,2} -> E2^{1,0}``.  E1^{-1,2}
    is H^0 of level 2, with ``d1 = [T; rho(2,0)]`` out of it and none into
    it, and ``N`` is the identity of H^0 of level 2, so its kernel is ``ker
    T ∩ ker rho(2,0) ∩ im R``, which is ``ker T ∩ im R`` as ``rho(2,0) R =
    0``.  The Lefschetz maps are ``isomorphism_check``s.  Only a verdict
    that fails forms subspaces, in ``_tau_side``, for its witness."""
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

    tau, rho = sc.tau(2, 0), sc.rho(1, 0)
    tau_rho, rho_tau = tau @ rho, sc.rho(1, 2) @ tau
    rank_tau, rank_tau_rho = tau.rank(), tau_rho.rank()
    lower, rank_lower = tau, rank_tau
    if n > 1:
        lower = sc.lefschetz_power(1, 2, n - 1) @ tau
        rank_lower = lower.rank()
    meet = rank_tau - rank_lower

    def tau_side(*keys):
        return [_tau_side(e2)[key] for key in keys]

    # pairing on im(tau) ∩ primitive H^2 of the component level
    if meet:  # L^{n-1} is the identity on H^2 at n = 1, so here n >= 2
        gram2 = _twisted_gram(sc, 1, 2)
        form, across = tau.transpose() @ gram2 @ tau, lower.transpose()
        sides = [(0, form.rows), (1, lower.rows)]
        bordered = assemble_blocks(sides, sides, {(0, 0): form, (0, 1): across, (1, 0): lower})
        results.append(_nondegenerate(
            "pairing_on_im_tau_primitive", {"k": 1, "q": 2}, meet, bordered.rank() - 2 * rank_lower,
            lambda: _restricted_gram(gram2, tau_side("meet")[0].basis),
        ))
        complement = rank_tau - across.hstack(form).rank() + rank_lower
        inside = across.hstack(form @ rho).rank() == rank_lower
    else:
        results.append(CheckResult(
            "pairing_on_im_tau_primitive", {"k": 1, "q": 2}, "pass",
            note="vacuous (intersection is zero)",
        ))
        complement, inside = rank_tau, True

    # im(tau rho) is the orthocomplement of im(tau) ∩ P^2 inside im(tau)
    results.append(_equality_check(
        "im_tau_rho_is_orthocomplement", {"k": 1, "q": 2}, rank_tau_rho, complement, inside,
        lambda: tau_side("im_tau_rho", "complement"),
    ))

    # ker(tau) ∩ im(rho) = 0 in H^0 of the double level, the cell (1, 0)
    meet2 = e2.quotient(1, 0).denominator.dim - rank_tau_rho
    if meet2 == 0:
        results.append(CheckResult("ker_tau_meets_im_rho_trivially", {"k": 2, "q": 0}, "pass"))
    else:
        witness = {"dim": meet2, "vector": tau_side("ker_tau_im_rho")[0].basis.col(0)}
        results.append(CheckResult("ker_tau_meets_im_rho_trivially", {"k": 2, "q": 0}, "fail",
                                   note="intersection is nonzero", witness=witness))

    # ker(rho) ∩ im(tau) = im(tau rho) in H^2 of the component level
    results.append(_equality_check(
        "ker_rho_meets_im_tau_in_im_tau_rho", {"k": 1, "q": 2}, rank_tau - rho_tau.rank(),
        rank_tau_rho, (rho_tau @ rho).is_zero(), lambda: tau_side("ker_rho_im_tau", "im_tau_rho"),
    ))

    # weight-monodromy on weight-two degree-one classes: the identity of
    # H^0(level 2) induces ker(tau)∩ker(rho) ~ ker(rho)/im(rho), with
    # kernel ker(tau) ∩ im(rho)
    source = e2.dim(-1, 2)
    results.append(_bijective("wm_h1_iso", {"r": 1, "w": 1}, source, e2.dim(1, 0),
                              lambda: source - meet2, lambda: tau_side("wm_map")[0]))

    # the three Lefschetz-power maps between degree-one and degree-(2n-1) cells
    for name, a, b in (("log_hl_h1_ell0", 1, 0), ("log_hl_h1_ell1", 0, 1)):
        results.append(isomorphism_check(name, {"a": a, "b": b}, e2, "l", a, b, n - 1))
    results.append(_injective(
        "log_hl_h1_ell2_injective", {"a": -1, "b": 2}, e2.dim(-1, 2),
        lambda: e2.induced_rank("l", -1, 2, n - 1), lambda: power(e2, "l", -1, 2, n - 1),
    ))
    results.append(isomorphism_check("log_hl_h1_ell2", {"a": -1, "b": 2}, e2, "l", -1, 2, n - 1))

    # four-corner consistency: both weight-monodromy sides of degree one have
    # the dimensions forced by duality once ell0 is an isomorphism
    dims = {
        "E2(1,0)": e2.dim(1, 0),
        "E2(-1,2)": e2.dim(-1, 2),
        f"E2(1,{2*n-2})": e2.dim(1, 2 * n - 2),
        f"E2(-1,{2*n})": e2.dim(-1, 2 * n),
    }
    status = "pass" if len(set(dims.values())) == 1 else "fail"
    results.append(CheckResult("wm_h1_four_corner_dims", {}, status, witness=dims))
    return results


@memoised
def _tau_side(e2: E2Page) -> dict:
    """The tau-side subspaces of ``check_h1_suite`` in the bases its
    witnesses are written in, and ``wm_h1_iso``'s map on them, formed only
    for a verdict that fails: ``im tau ∩ P^2``, the part of ``im tau`` that
    the twisted pairing puts against it, ``im(tau rho)``, ``ker tau ∩ im
    rho``, ``ker rho(1,2) ∩ im tau``, and the identity of H^0 of the double
    level from a basis ``s`` of ``ker tau ∩ ker rho(2,0)``, out of the whole
    of its coordinates, to the page's cell (1, 0)."""
    sc = e2.e1.sc
    tau, h0 = sc.tau(2, 0), e2.quotient(1, 0)
    ker_tau, im_tau = kernel(tau), image(tau)
    meet = im_tau.intersection(kernel(sc.lefschetz_power(1, 2, sc.n - 1)))
    complement = im_tau
    if meet.dim:
        complement = im_tau.annihilated_by(meet.basis.transpose() @ _twisted_gram(sc, 1, 2))
    s = ker_tau.intersection(h0.numerator).basis
    k = s.cols
    whole = QuotientSpace(RatMatrix.identity(k), list(range(k)), RatMatrix.zeros(k, 0))
    return {
        "meet": meet,
        "complement": complement,
        "im_tau_rho": image(tau @ sc.rho(1, 0)),
        "ker_tau_im_rho": ker_tau.intersection(h0.denominator),
        "ker_rho_im_tau": kernel(sc.rho(1, 2)).intersection(im_tau),
        "wm_map": induced_map(s, whole, h0),
    }


def _equality_check(name, location, left_dim: int, right_dim: int, inside: bool,
                    spaces) -> CheckResult:
    """Pass iff two subspaces are equal: their dimensions agree and
    ``inside``, one lies in the other.  Only a failure reads ``spaces()``,
    the two, for the first basis vector of one outside the other."""
    if left_dim == right_dim and inside:
        note = "vacuous (both zero)" if left_dim == 0 else ""
        return CheckResult(name, location, "pass", note=note, witness={"dim": left_dim})
    witness = {"left_dim": left_dim, "right_dim": right_dim}
    left, right = spaces()
    # the first basis vector of one side outside the other: ``contains`` on its line
    for key, a, b in (("vector_in_left_only", left, right), ("vector_in_right_only", right, left)):
        lines = (a.basis.take_columns([j]) for j in range(a.dim))
        v = next((c for c in lines if not b.contains(Subspace._trusted(a.ambient_dim, c))), None)
        if v is not None:
            witness[key] = v.col(0)
            break
    return CheckResult(name, location, "fail", note="subspaces differ", witness=witness)
