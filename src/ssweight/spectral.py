"""First and second pages of the weight spectral sequence.

The first page of a configuration of dimension ``n`` has cells

    E1^{a,b} = (+)_{k >= max(a,0)} H^{2(a-k)+b}( level 2k-a+1 )

for ``0 <= a+b <= 2n``; a summand is recorded as ``(k, level, degree)``.
The differential ``d1 = rho + tau`` raises ``a`` by one: ``rho`` sends
summand ``k`` to summand ``k+1`` (level up), ``tau`` keeps ``k`` (level down,
degree up two).  ``N`` sends summand ``k`` identically to summand ``k+1`` of
the cell at ``(a+2, b-2)`` -- zero where that summand is truncated away --
and ``L`` acts by the Lefschetz operators within each summand.  Summands the
target cell does not contain contribute zero blocks; with the adjoint
convention for ``tau`` no further signs are needed and ``d1^2 = 0`` holds
cell by cell.

The sequence degenerates at the second page, so abutment dimensions are sums
of E2 dimensions along anti-diagonals.  Weight of ``E2^{a,b}`` is ``b``; for
cycle-generated inputs every summand of ``E1^{a,b}`` is pure of Frobenius
slope ``b/2`` after its Tate twist by ``a-k``, so the cell carries slope
``b/2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DifferentialNotSquareZero
from .linalg import (
    QuotientSpace,
    RatMatrix,
    Subspace,
    assemble_blocks,
    image,
    induced_map,
    kernel,
)
from .strata import StrataComplex


@dataclass(frozen=True)
class Summand:
    k: int
    level: int
    degree: int
    dim: int
    offset: int
    twist: int  # a - k; slope bookkeeping only


@dataclass
class Cell:
    a: int
    b: int
    summands: list[Summand]

    @property
    def dim(self) -> int:
        return sum(s.dim for s in self.summands)


class E1Page:
    """Sparse map ``(a, b) -> Cell`` plus the three operators as block maps."""

    def __init__(self, sc: StrataComplex):
        self.sc = sc
        self.n = sc.n
        self.cycle_generated = sc.cycle_generated
        self.cells: dict[tuple[int, int], Cell] = {}
        # operators by (name, a, b), built on first use: the second page asks
        # for each d1 twice, and the module built on this page for all three
        self._ops: dict[tuple[str, int, int], RatMatrix] = {}
        for lvl in range(1, sc.max_level + 1):
            gs = sc.level(lvl)
            for m in sorted(gs.dims):
                d = gs.dims[m]
                for k in range(lvl):
                    a = 2 * k + 1 - lvl
                    b = m + 2 * (lvl - k - 1)
                    self.cells.setdefault((a, b), Cell(a, b, [])).summands.append(
                        Summand(k, lvl, m, d, 0, a - k)
                    )
        for cell in self.cells.values():
            cell.summands.sort(key=lambda s: s.k)
            off = 0
            fixed = []
            for s in cell.summands:
                fixed.append(Summand(s.k, s.level, s.degree, s.dim, off, s.twist))
                off += s.dim
            cell.summands = fixed

    def cell(self, a: int, b: int) -> Cell:
        return self.cells.get((a, b), Cell(a, b, []))

    def dim(self, a: int, b: int) -> int:
        return self.cell(a, b).dim

    def support(self):
        return sorted(self.cells)

    # -- operators ----------------------------------------------------------

    def _block_map(
        self, name: str, a: int, b: int, target: tuple[int, int], block_for
    ) -> RatMatrix:
        key = (name, a, b)
        if key in self._ops:
            return self._ops[key]
        src, dst = self.cell(a, b), self.cell(*target)
        row_dims = [s.dim for s in dst.summands]
        col_dims = [s.dim for s in src.summands]
        blocks = {}
        dst_pos = {s.k: i for i, s in enumerate(dst.summands)}
        for j, s in enumerate(src.summands):
            for k_target, matrix in block_for(s):
                if k_target in dst_pos:
                    blocks[(dst_pos[k_target], j)] = matrix
        if not row_dims or not col_dims:
            m = RatMatrix.zeros(dst.dim, src.dim)
        else:
            m = assemble_blocks(row_dims, col_dims, blocks)
        self._ops[key] = m
        return m

    def d1(self, a: int, b: int) -> RatMatrix:
        """Differential E1^{a,b} -> E1^{a+1,b}."""

        def block_for(s: Summand):
            yield s.k + 1, self.sc.rho(s.level, s.degree)
            yield s.k, self.sc.tau(s.level, s.degree)

        return self._block_map("d1", a, b, (a + 1, b), block_for)

    def nmap(self, a: int, b: int) -> RatMatrix:
        """Monodromy E1^{a,b} -> E1^{a+2,b-2}: identity on surviving summands."""

        def block_for(s: Summand):
            yield s.k + 1, RatMatrix.identity(s.dim)

        return self._block_map("n", a, b, (a + 2, b - 2), block_for)

    def lmap(self, a: int, b: int) -> RatMatrix:
        """Lefschetz E1^{a,b} -> E1^{a,b+2}."""

        def block_for(s: Summand):
            yield s.k, self.sc.level_lefschetz(s.level, s.degree)

        return self._block_map("l", a, b, (a, b + 2), block_for)


def build_e1(sc: StrataComplex) -> E1Page:
    return E1Page(sc)


@dataclass
class E2Cell:
    a: int
    b: int
    space: QuotientSpace

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def weight(self) -> int:
        return self.b

    def slope(self, cycle_generated: bool):
        return Fraction(self.b, 2) if cycle_generated else None


class E2Page:
    """Cellwise homology of the first page with the induced N and L."""

    def __init__(self, e1: E1Page):
        self.e1 = e1
        self.n = e1.n
        self.cycle_generated = e1.cycle_generated
        self.cells: dict[tuple[int, int], E2Cell] = {}
        # induced N and L maps by ("n" or "l", a, b), computed on first use
        # and shared by every suite that reads the page; two threads that
        # compute the same entry store equal matrices, so no lock is needed
        self._induced: dict[tuple[str, int, int], RatMatrix] = {}
        for (a, b) in e1.support():
            din = e1.d1(a - 1, b)
            dout = e1.d1(a, b)
            if not (dout @ din).is_zero():
                raise DifferentialNotSquareZero(f"d1 o d1 != 0 into cell ({a}, {b})")
            q = QuotientSpace(e1.dim(a, b), kernel(dout), image(din))
            if q.dim or q.numerator.dim or q.denominator.dim:
                self.cells[(a, b)] = E2Cell(a, b, q)

    def cell(self, a: int, b: int) -> E2Cell | None:
        return self.cells.get((a, b))

    def dim(self, a: int, b: int) -> int:
        c = self.cells.get((a, b))
        return c.dim if c else 0

    def support(self):
        return sorted(key for key, c in self.cells.items() if c.dim)

    def quotient(self, a: int, b: int) -> QuotientSpace:
        c = self.cells.get((a, b))
        if c is not None:
            return c.space
        amb = self.e1.dim(a, b)
        return QuotientSpace(amb, Subspace.zero(amb), Subspace.zero(amb))

    def induced_n(self, a: int, b: int) -> RatMatrix:
        key = ("n", a, b)
        if key not in self._induced:
            self._induced[key] = induced_map(
                self.e1.nmap(a, b), self.quotient(a, b), self.quotient(a + 2, b - 2)
            )
        return self._induced[key]

    def induced_l(self, a: int, b: int) -> RatMatrix:
        key = ("l", a, b)
        if key not in self._induced:
            self._induced[key] = induced_map(
                self.e1.lmap(a, b), self.quotient(a, b), self.quotient(a, b + 2)
            )
        return self._induced[key]

    def induced_n_power(self, a: int, b: int, r: int) -> RatMatrix:
        out = RatMatrix.identity(self.dim(a, b))
        ca, cb = a, b
        for _ in range(r):
            out = self.induced_n(ca, cb) @ out
            ca, cb = ca + 2, cb - 2
        return out

    def induced_l_power(self, a: int, b: int, r: int) -> RatMatrix:
        out = RatMatrix.identity(self.dim(a, b))
        ca, cb = a, b
        for _ in range(r):
            out = self.induced_l(ca, cb) @ out
            cb += 2
        return out

    def abutment(self) -> dict[int, int]:
        """dim H^q as the sum of E2 dimensions along each anti-diagonal."""
        out: dict[int, int] = {}
        for (a, b) in self.support():
            q = a + b
            out[q] = out.get(q, 0) + self.dim(a, b)
        return {q: out[q] for q in sorted(out)}

    def to_json_dict(self) -> dict:
        cells = [
            {
                "a": a,
                "b": b,
                "dim": self.dim(a, b),
                "weight": b,
                "slope": str(Fraction(b, 2)) if self.cycle_generated else None,
            }
            for (a, b) in self.support()
        ]
        return {
            "schema_version": 1,
            "input": self.e1.sc.name,
            "dimension": self.n,
            "cycle_generated": self.cycle_generated,
            "cells": cells,
            "abutment": {str(q): d for q, d in self.abutment().items()},
        }


def compute_e2(e1: E1Page) -> E2Page:
    return E2Page(e1)


def page_relations(e1: E1Page):
    """d1^2 = 0 and the commutation of N and L with d1 and each other,
    quantified over every cell of the first page; list of results."""
    from .checks import CheckResult  # local import to avoid a cycle

    results = []
    for (a, b) in e1.support():
        pairs = [
            ("d1_squared", e1.d1(a + 1, b) @ e1.d1(a, b), None),
            ("N_commutes_d1", e1.nmap(a + 1, b) @ e1.d1(a, b), e1.d1(a + 2, b - 2) @ e1.nmap(a, b)),
            ("L_commutes_d1", e1.lmap(a + 1, b) @ e1.d1(a, b), e1.d1(a, b + 2) @ e1.lmap(a, b)),
            ("N_commutes_L", e1.nmap(a, b + 2) @ e1.lmap(a, b), e1.lmap(a + 2, b - 2) @ e1.nmap(a, b)),
        ]
        for name, lhs, rhs in pairs:
            diff = lhs if rhs is None else lhs - rhs
            if not diff.is_zero():
                results.append(
                    CheckResult(name, {"a": a, "b": b}, "fail", note="relation violated")
                )
    for name in ("d1_squared", "N_commutes_d1", "L_commutes_d1", "N_commutes_L"):
        if not any(r.name == name for r in results):
            results.append(CheckResult(name, {}, "pass"))
    return results


def duality_check(e2: E2Page):
    """dim E2^{a,b} = dim E2^{-a, 2n-b} for every cell; list of results."""
    from .checks import CheckResult  # local import to avoid a cycle

    n = e2.n
    seen = set()
    results = []
    for (a, b) in e2.support():
        pair = ((a, b), (-a, 2 * n - b))
        key = tuple(sorted(pair))
        if key in seen:
            continue
        seen.add(key)
        d1 = e2.dim(a, b)
        d2 = e2.dim(-a, 2 * n - b)
        results.append(
            CheckResult(
                name="poincare_duality_dims",
                location={"a": a, "b": b, "dual_a": -a, "dual_b": 2 * n - b},
                status="pass" if d1 == d2 else "fail",
                witness={"dim": d1, "dual_dim": d2},
            )
        )
    return results


def nerve_cohomology_oracle(sc: StrataComplex, a: int) -> int:
    """dim H^a of the abstract nerve over Q by a direct cochain computation.

    Independent of the page machinery: builds the simplicial coboundary from
    the face sets alone and takes ranks.  Cross-checks the weight-zero row of
    the second page for cycle-generated scenarios with connected strata.
    """
    if a < 0:
        return 0

    def coboundary(k: int) -> RatMatrix:
        src = sc.faces_at(k + 1)
        dst = sc.faces_at(k + 2)
        src_pos = {f: j for j, f in enumerate(src)}
        rows = []
        for J in dst:
            row = [Fraction(0)] * len(src)
            for i in range(len(J)):
                sub = J[:i] + J[i + 1 :]
                if sub in src_pos:
                    row[src_pos[sub]] = Fraction(-1 if i % 2 else 1)
            rows.append(row)
        return RatMatrix(len(dst), len(src), rows)

    d_a = coboundary(a)
    if d_a.cols == 0:
        return 0
    dim_ker = d_a.cols - d_a.rank()
    rank_prev = coboundary(a - 1).rank() if a >= 1 else 0
    return dim_ker - rank_prev
