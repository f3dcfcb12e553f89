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
appears only in the tables of ``HodgeLefschetzModule``, its JSON form and
the locations of results.  ``hl_from_strata`` tabulates the first page of a
cycle-generated configuration, whose pairing ``E1Page`` assembles from the
Poincare pairings of complementary summands.  ``hl_cohomology`` is
``E2Page``: ``ker d / im d`` with the induced operators and pairing, again a
module of the same weight.  For the strata-built module that is the second
page of the weight spectral sequence, so ``hl_suite`` checks the page itself
as ``H(V)``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .checks import CheckResult, bijectivity_check, relation_checks, _vector_json
from .errors import NotCycleGenerated, SchemaError
from .linalg import RatMatrix, kernel, kernel_witness, signature
from .spectral import E1Page, E2Page, power
from .strata import _int, _matrix_json, _matrix_load

BiDeg = tuple[int, int]


@dataclass
class HodgeLefschetzModule:
    """Tables of a module keyed by ``(i, j)``; the accessors take page
    coordinates ``(a, b) = (i, j-i+n)`` and give zero matrices for entries
    the tables leave out."""

    weight: int
    dims: dict[BiDeg, int]
    n_ops: dict[BiDeg, RatMatrix] = field(default_factory=dict)
    l_ops: dict[BiDeg, RatMatrix] = field(default_factory=dict)
    d_ops: dict[BiDeg, RatMatrix] = field(default_factory=dict)
    pairing: dict[BiDeg, RatMatrix] = field(default_factory=dict)

    def __post_init__(self):
        self.dims = {k: int(v) for k, v in self.dims.items() if int(v) != 0}

    @staticmethod
    def of(cx) -> "HodgeLefschetzModule":
        """The dimensions and nonzero maps of a page or module, as tables."""
        n = cx.n
        cells = {(a, a + b - n): (a, b) for (a, b) in cx.support()}

        def table(op):
            out = {ij: op(*ab) for ij, ab in cells.items()}
            return {ij: m for ij, m in out.items() if not m.is_zero()}

        return HodgeLefschetzModule(
            weight=n,
            dims={ij: cx.dim(*ab) for ij, ab in cells.items()},
            n_ops=table(cx.nmap),
            l_ops=table(cx.lmap),
            d_ops=table(cx.d1),
            pairing=table(cx.pairing_at),
        )

    @property
    def n(self) -> int:
        return self.weight

    def dim(self, a: int, b: int) -> int:
        return self.dims.get((a, a + b - self.weight), 0)

    def support(self) -> list[BiDeg]:
        return sorted((i, j - i + self.weight) for (i, j) in self.dims)

    def _entry(self, table, a, b, rows, cols) -> RatMatrix:
        m = table.get((a, a + b - self.weight))
        return m if m is not None else RatMatrix.zeros(rows, cols)

    def d1(self, a: int, b: int) -> RatMatrix:
        return self._entry(self.d_ops, a, b, self.dim(a + 1, b), self.dim(a, b))

    def nmap(self, a: int, b: int) -> RatMatrix:
        return self._entry(self.n_ops, a, b, self.dim(a + 2, b - 2), self.dim(a, b))

    def lmap(self, a: int, b: int) -> RatMatrix:
        return self._entry(self.l_ops, a, b, self.dim(a, b + 2), self.dim(a, b))

    def pairing_at(self, a: int, b: int) -> RatMatrix:
        dual = self.dim(-a, 2 * self.weight - b)
        return self._entry(self.pairing, a, b, self.dim(a, b), dual)

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
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    @staticmethod
    def from_json_dict(doc: dict) -> "HodgeLefschetzModule":
        """The module of a JSON document; every matrix must have the shape of
        the zero matrix its accessor gives for a missing entry."""

        def at(e, what):
            return _int(e["i"], f"{what} i"), _int(e["j"], f"{what} j")

        try:
            v = HodgeLefschetzModule(
                weight=_int(doc["weight"], "weight"),
                dims={at(c, "cell"): _int(c["dim"], "cell dim", 0) for c in doc["cells"]},
            )
            tables = {
                name: {at(e, name): _matrix_load(e["matrix"]) for e in doc.get(name, [])}
                for name in _ACCESSORS
            }
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"malformed module document: {exc}") from exc
        # the tables of v are still empty, so each accessor synthesizes a zero
        for name, table in tables.items():
            for (i, j), m in table.items():
                zero = getattr(v, _ACCESSORS[name])(i, j - i + v.weight)
                if (m.rows, m.cols) != (zero.rows, zero.cols):
                    raise SchemaError(
                        f"{name} entry at (i, j) = ({i}, {j}) has shape"
                        f" {m.rows}x{m.cols}, not {zero.rows}x{zero.cols}"
                    )
        for name, table in tables.items():
            setattr(v, name, table)
        return v

    @staticmethod
    def loads(text: str) -> "HodgeLefschetzModule":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"input is not JSON: {exc}") from exc
        return HodgeLefschetzModule.from_json_dict(doc)


# each table of a module document and the accessor that reads it
_ACCESSORS = {"n_ops": "nmap", "l_ops": "lmap", "d_ops": "d1", "pairing": "pairing_at"}


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
                wit["null_vector"] = _vector_json(kernel_witness(p.transpose()))
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
                wit["null_vector"] = _vector_json(kernel_witness(gram))
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


def hl_from_strata(e1: E1Page) -> HodgeLefschetzModule:
    """The first page of a cycle-generated configuration as a module of
    weight n, re-indexed by ``(i, j) = (a, a+b-n)``."""
    if not e1.cycle_generated:
        raise NotCycleGenerated(
            "module construction needs every stratum generated by algebraic cycles"
        )
    return HodgeLefschetzModule.of(e1)


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


def hl_suite(e2: E2Page) -> list[CheckResult]:
    """Axioms for the strata-built module and again for its cohomology,
    which is the second page itself."""
    v = hl_from_strata(e2.e1)
    results = check_hl_axioms(v, stage="V")
    results.extend(check_hl_axioms(_induce_pairing(e2), stage="H(V)"))
    hv = HodgeLefschetzModule.of(e2)
    fix = HodgeLefschetzModule.of(E2Page(e2)) == hv
    results.append(
        CheckResult(
            "hl_cohomology_fixpoint",
            {},
            "pass" if fix else "fail",
            witness={"dims": str(sorted(hv.dims.items()))},
        )
    )
    return results
