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

``hl_from_strata`` equips the first page of a cycle-generated configuration
with this structure (cells re-indexed by ``(i, j) = (a, a+b-n)``, pairing
assembled from the Poincare pairings of complementary summands), and
``hl_cohomology`` forms ``ker d / im d`` with the induced operators and
pairing, which is again a module of the same weight.  For the strata-built
module that cohomology is the second page of the weight spectral sequence,
so ``hl_suite`` reads its quotients and induced ``N`` and ``L`` from the
page.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .checks import CheckResult, bijectivity_check, _vector_json
from .errors import (
    DifferentialNotSquareZero,
    InducedPairingIllDefined,
    NotCycleGenerated,
    SchemaError,
)
from .linalg import (
    QuotientSpace,
    RatMatrix,
    Subspace,
    assemble_blocks,
    image,
    induced_map,
    kernel,
    signature,
)
from .spectral import E1Page, E2Page
from .strata import _matrix_json, _matrix_load

BiDeg = tuple[int, int]


@dataclass
class HodgeLefschetzModule:
    weight: int
    dims: dict[BiDeg, int]
    n_ops: dict[BiDeg, RatMatrix] = field(default_factory=dict)
    l_ops: dict[BiDeg, RatMatrix] = field(default_factory=dict)
    d_ops: dict[BiDeg, RatMatrix] = field(default_factory=dict)
    pairing: dict[BiDeg, RatMatrix] = field(default_factory=dict)

    def __post_init__(self):
        self.dims = {k: int(v) for k, v in self.dims.items() if int(v) != 0}

    def dim(self, i: int, j: int) -> int:
        return self.dims.get((i, j), 0)

    def support(self) -> list[BiDeg]:
        return sorted(self.dims)

    def _op(self, table, key, rows, cols) -> RatMatrix:
        m = table.get(key)
        return m if m is not None else RatMatrix.zeros(rows, cols)

    def n_at(self, i: int, j: int) -> RatMatrix:
        return self._op(self.n_ops, (i, j), self.dim(i + 2, j), self.dim(i, j))

    def l_at(self, i: int, j: int) -> RatMatrix:
        return self._op(self.l_ops, (i, j), self.dim(i, j + 2), self.dim(i, j))

    def d_at(self, i: int, j: int) -> RatMatrix:
        return self._op(self.d_ops, (i, j), self.dim(i + 1, j + 1), self.dim(i, j))

    def pairing_at(self, i: int, j: int) -> RatMatrix:
        return self._op(self.pairing, (i, j), self.dim(i, j), self.dim(-i, -j))

    def n_power(self, i: int, j: int, p: int) -> RatMatrix:
        out = RatMatrix.identity(self.dim(i, j))
        for t in range(p):
            out = self.n_at(i + 2 * t, j) @ out
        return out

    def l_power(self, i: int, j: int, p: int) -> RatMatrix:
        out = RatMatrix.identity(self.dim(i, j))
        for t in range(p):
            out = self.l_at(i, j + 2 * t) @ out
        return out

    # -- serialization (matrix conventions as in the strata documents) -------

    def to_json_dict(self) -> dict:
        def op_list(table):
            # empty-shaped matrices are canonical zeros and carry no JSON
            # representation of their shape; the accessors resynthesize them
            return [
                {"i": i, "j": j, "matrix": _matrix_json(m)}
                for (i, j), m in sorted(table.items())
                if m.rows and m.cols
            ]

        return {
            "schema_version": 1,
            "weight": self.weight,
            "cells": [{"i": i, "j": j, "dim": d} for (i, j), d in sorted(self.dims.items())],
            "n_ops": op_list(self.n_ops),
            "l_ops": op_list(self.l_ops),
            "d_ops": op_list(self.d_ops),
            "pairing": op_list(self.pairing),
        }

    def dumps(self) -> str:
        import json

        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    @staticmethod
    def from_json_dict(doc: dict) -> "HodgeLefschetzModule":
        def op_table(items):
            return {
                (int(e["i"]), int(e["j"])): _matrix_load(e["matrix"])
                for e in items
            }

        try:
            return HodgeLefschetzModule(
                weight=int(doc["weight"]),
                dims={(int(c["i"]), int(c["j"])): int(c["dim"]) for c in doc["cells"]},
                n_ops=op_table(doc.get("n_ops", [])),
                l_ops=op_table(doc.get("l_ops", [])),
                d_ops=op_table(doc.get("d_ops", [])),
                pairing=op_table(doc.get("pairing", [])),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"malformed module document: {exc}") from exc

    @staticmethod
    def loads(text: str) -> "HodgeLefschetzModule":
        import json

        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"input is not JSON: {exc}") from exc
        return HodgeLefschetzModule.from_json_dict(doc)


def _sign_match(lhs: RatMatrix, rhs: RatMatrix):
    """Return +1/-1 if lhs == ±rhs, 0 if both zero, None otherwise."""
    if lhs.is_zero() and rhs.is_zero():
        return 0
    if lhs == rhs:
        return 1
    if lhs == rhs.scale(-1):
        return -1
    return None


def check_hl_axioms(v: HodgeLefschetzModule, stage: str = "") -> list[CheckResult]:
    results: list[CheckResult] = []
    loc0 = {"stage": stage} if stage else {}

    def loc(**kw):
        out = dict(loc0)
        out.update(kw)
        return out

    # parity
    bad = [(i, j) for (i, j) in v.support() if (i + j + v.weight) % 2]
    results.append(
        CheckResult(
            "hl_parity",
            loc(),
            "fail" if bad else "pass",
            note="" if not bad else f"nonzero cells at odd parity: {bad}",
        )
    )

    # commutation relations
    for (i, j) in v.support():
        checks = [
            ("hl_d_squared", v.d_at(i + 1, j + 1) @ v.d_at(i, j)),
            ("hl_commute_NL", v.n_at(i, j + 2) @ v.l_at(i, j) - v.l_at(i + 2, j) @ v.n_at(i, j)),
            ("hl_commute_Nd", v.d_at(i + 2, j) @ v.n_at(i, j) - v.n_at(i + 1, j + 1) @ v.d_at(i, j)),
            ("hl_commute_Ld", v.d_at(i, j + 2) @ v.l_at(i, j) - v.l_at(i + 1, j + 1) @ v.d_at(i, j)),
        ]
        for name, m in checks:
            if m.rows and m.cols and not m.is_zero():
                results.append(CheckResult(name, loc(i=i, j=j), "fail"))
    for name in ("hl_d_squared", "hl_commute_NL", "hl_commute_Nd", "hl_commute_Ld"):
        if not any(r.name == name for r in results):
            results.append(CheckResult(name, loc(), "pass"))

    # iso axioms
    pairs_n = sorted(
        {
            (i, j)
            for (a, j) in v.support()
            for i in (abs(a),)
            if i >= 1 and j >= 0 and (v.dim(-i, j) or v.dim(i, j))
        }
    )
    for i, j in pairs_n:
        results.append(
            bijectivity_check("hl_iso_N", loc(i=i, j=j), v.n_power(-i, j, i))
        )
    pairs_l = sorted(
        {
            (i, b)
            for (i, bj) in v.support()
            for b in (abs(bj),)
            if b >= 1 and i >= 0 and (v.dim(i, -b) or v.dim(i, b))
        }
    )
    for i, j in pairs_l:
        results.append(
            bijectivity_check("hl_iso_L", loc(i=i, j=j), v.l_power(i, -j, j))
        )

    # duality: perfect pairing, graded symmetry, operator adjointness
    seen = set()
    for (i, j) in v.support():
        if (-i, -j) in seen:
            continue
        seen.add((i, j))
        p = v.pairing_at(i, j)
        if p.rows != p.cols or (p.rows and p.rank() != p.rows):
            wit = {"rows": p.rows, "cols": p.cols}
            if p.rows == p.cols and p.rows:
                wit["null_vector"] = _vector_json(p.transpose().kernel_basis().col(0))
            results.append(
                CheckResult("hl_pairing_perfect", loc(i=i, j=j), "fail", witness=wit)
            )
        else:
            results.append(
                CheckResult("hl_pairing_perfect", loc(i=i, j=j), "pass", witness={"dim": p.rows})
            )
        s = _sign_match(p, v.pairing_at(-i, -j).transpose())
        results.append(
            CheckResult(
                "hl_pairing_symmetry",
                loc(i=i, j=j),
                "pass" if s is not None else "fail",
                note="vacuous" if s == 0 else "",
                witness={"sign": s},
            )
        )
    for (i, j) in v.support():
        ops = [
            ("hl_adjoint_N", v.n_at(i, j).transpose() @ v.pairing_at(i + 2, j),
             v.pairing_at(i, j) @ v.n_at(-i - 2, -j)),
            ("hl_adjoint_L", v.l_at(i, j).transpose() @ v.pairing_at(i, j + 2),
             v.pairing_at(i, j) @ v.l_at(-i, -j - 2)),
            ("hl_adjoint_d", v.d_at(i, j).transpose() @ v.pairing_at(i + 1, j + 1),
             v.pairing_at(i, j) @ v.d_at(-i - 1, -j - 1)),
        ]
        for name, lhs, rhs in ops:
            if lhs.rows == 0 or lhs.cols == 0:
                continue
            s = _sign_match(lhs, rhs)
            if s is None:
                results.append(CheckResult(name, loc(i=i, j=j), "fail"))
            elif s != 0:
                results.append(
                    CheckResult(name, loc(i=i, j=j), "pass", witness={"sign": s})
                )
    for name in ("hl_adjoint_N", "hl_adjoint_L", "hl_adjoint_d"):
        if not any(r.name == name for r in results):
            results.append(CheckResult(name, loc(), "pass", note="vacuous"))

    # positivity on primitive bidegrees
    prim_pairs = sorted(
        {(-si, -sj) for (si, sj) in v.support() if si <= 0 and sj <= 0}
    )
    for i, j in prim_pairs:
        if v.dim(-i, -j) == 0:
            continue
        ker_n = kernel(v.n_power(-i, -j, i + 1))
        ker_l = kernel(v.l_power(-i, -j, j + 1))
        prim = ker_n.intersection(ker_l)
        if prim.dim == 0:
            continue
        form = v.pairing_at(-i, -j) @ v.n_power(-i, j, i) @ v.l_power(-i, -j, j)
        gram = prim.basis.transpose() @ form @ prim.basis
        if not gram.is_symmetric():
            results.append(
                CheckResult(
                    "hl_positivity",
                    loc(i=i, j=j),
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
            results.append(CheckResult("hl_positivity", loc(i=i, j=j), "pass", witness=wit))
        else:
            if zz:
                nv = gram.kernel_basis().col(0)
                wit["null_vector"] = _vector_json(nv)
                wit["witness_verified"] = all(x == 0 for x in gram.apply(nv))
            results.append(
                CheckResult(
                    "hl_positivity",
                    loc(i=i, j=j),
                    "fail",
                    note="primitive form is not definite",
                    witness=wit,
                )
            )
    if not any(r.name == "hl_positivity" for r in results):
        results.append(CheckResult("hl_positivity", loc(), "pass", note="vacuous"))
    return results


def hl_from_strata(e1: E1Page) -> HodgeLefschetzModule:
    """The first page of a cycle-generated configuration as a module of
    weight n, re-indexed by ``(i, j) = (a, a+b-n)``."""
    if not e1.cycle_generated:
        raise NotCycleGenerated(
            "module construction needs every stratum generated by algebraic cycles"
        )
    sc = e1.sc
    n = sc.n
    dims: dict[BiDeg, int] = {}
    n_ops: dict[BiDeg, RatMatrix] = {}
    l_ops: dict[BiDeg, RatMatrix] = {}
    d_ops: dict[BiDeg, RatMatrix] = {}
    pairing: dict[BiDeg, RatMatrix] = {}
    for (a, b) in e1.support():
        i, j = a, a + b - n
        dims[(i, j)] = e1.dim(a, b)
        n_ops[(i, j)] = e1.nmap(a, b)
        l_ops[(i, j)] = e1.lmap(a, b)
        d_ops[(i, j)] = e1.d1(a, b)
    for (a, b) in e1.support():
        i, j = a, a + b - n
        cell = e1.cell(a, b)
        dual = e1.cell(-a, 2 * n - b)
        row_dims = [s.dim for s in cell.summands]
        col_dims = [s.dim for s in dual.summands]
        dual_pos = {s.k: idx for idx, s in enumerate(dual.summands)}
        blocks = {}
        for r, s in enumerate(cell.summands):
            c = dual_pos.get(s.k - a)
            if c is not None:
                blocks[(r, c)] = sc.level_pairing(s.level, s.degree)
        if row_dims and col_dims:
            pairing[(i, j)] = assemble_blocks(row_dims, col_dims, blocks)
    return HodgeLefschetzModule(
        weight=n, dims=dims, n_ops=n_ops, l_ops=l_ops, d_ops=d_ops, pairing=pairing
    )


def hl_cohomology(v: HodgeLefschetzModule, e2: E2Page | None = None) -> HodgeLefschetzModule:
    """ker d / im d with induced operators and pairing, zero differential.

    With ``v = hl_from_strata(e2.e1)``, pass the second page ``e2``: the
    quotients and the induced ``N`` and ``L`` are then read from the page at
    ``(a, b) = (i, j-i+n)``, since they are the homology of the same ``d1``
    matrices, and only the pairing is induced here.

    Raises ``InducedPairingIllDefined`` when im(d) does not pair to zero with
    ker(d) on the dual cell, which signals an adjointness violation upstream.
    """
    n = v.weight
    quotients: dict[BiDeg, QuotientSpace] = {}
    for (i, j) in v.support():
        if e2 is not None:
            quotients[(i, j)] = e2.quotient(i, j - i + n)
            continue
        din = v.d_at(i - 1, j - 1)
        dout = v.d_at(i, j)
        if not (v.d_at(i + 1, j + 1) @ dout).is_zero():
            raise DifferentialNotSquareZero(f"d^2 != 0 out of bidegree ({i},{j})")
        quotients[(i, j)] = QuotientSpace(v.dim(i, j), kernel(dout), image(din))

    def quotient(i, j) -> QuotientSpace:
        q = quotients.get((i, j))
        if q is None:
            amb = v.dim(i, j)
            q = QuotientSpace(amb, Subspace.zero(amb), Subspace.zero(amb))
        return q

    for (i, j) in v.support():
        # representative independence on both sides of the pairing
        here, dual = quotient(i, j), quotient(-i, -j)
        p = v.pairing_at(i, j)
        if _pairs_nontrivially(here.denominator, p, dual.numerator) or (
            _pairs_nontrivially(here.numerator, p, dual.denominator)
        ):
            raise InducedPairingIllDefined(
                f"im(d) pairs nontrivially with ker(d) at bidegree ({i},{j})"
            )

    dims = {key: q.dim for key, q in quotients.items() if q.dim}
    n_ops = {}
    l_ops = {}
    pairing = {}
    for (i, j), q in quotients.items():
        if q.dim == 0:
            continue
        if e2 is not None:
            n_ops[(i, j)] = e2.induced_n(i, j - i + n)
            l_ops[(i, j)] = e2.induced_l(i, j - i + n)
        else:
            n_ops[(i, j)] = induced_map(v.n_at(i, j), q, quotient(i + 2, j))
            l_ops[(i, j)] = induced_map(v.l_at(i, j), q, quotient(i, j + 2))
        pairing[(i, j)] = q.lift.transpose() @ v.pairing_at(i, j) @ quotient(-i, -j).lift
    return HodgeLefschetzModule(
        weight=v.weight, dims=dims, n_ops=n_ops, l_ops=l_ops, d_ops={}, pairing=pairing
    )


def _pairs_nontrivially(left: Subspace, p: RatMatrix, right: Subspace) -> bool:
    return bool(
        left.dim and right.dim and not (left.basis.transpose() @ p @ right.basis).is_zero()
    )


def hl_suite(e2: E2Page) -> list[CheckResult]:
    """Axioms for the strata-built module and again for its cohomology,
    which is read from the second page."""
    v = hl_from_strata(e2.e1)
    results = check_hl_axioms(v, stage="V")
    hv = hl_cohomology(v, e2)
    results.extend(check_hl_axioms(hv, stage="H(V)"))
    hh = hl_cohomology(hv)
    fix = (
        hh.dims == hv.dims
        and all(hh.n_at(i, j) == hv.n_at(i, j) for (i, j) in hv.support())
        and all(hh.l_at(i, j) == hv.l_at(i, j) for (i, j) in hv.support())
        and all(hh.pairing_at(i, j) == hv.pairing_at(i, j) for (i, j) in hv.support())
    )
    results.append(
        CheckResult(
            "hl_cohomology_fixpoint",
            {},
            "pass" if fix else "fail",
            witness={"dims": str(sorted(hv.dims.items()))},
        )
    )
    return results
