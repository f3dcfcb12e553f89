"""First and second pages of the weight spectral sequence.

The first page of a configuration of dimension ``n`` has cells

    E1^{a,b} = (+)_{k >= max(a,0)} H^{2(a-k)+b}( level 2k-a+1 )

for ``0 <= a+b <= 2n``; a cell is the list of its summands
``(k, level, degree, dim)``.  The differential ``d1 = rho + tau`` raises
``a`` by one: ``rho`` sends summand ``k`` to summand ``k+1`` (level up),
``tau`` keeps ``k`` (level down, degree up two).  ``N`` sends summand ``k``
identically to summand ``k+1`` of the cell at ``(a+2, b-2)`` -- zero where
that summand is truncated away -- and ``L`` acts by the Lefschetz operators
within each summand.  An operator into or out of a cell without summands
is the shared zero matrix, formed without reading a block; every other one
is assembled by ``linalg.assemble_blocks`` with ``k`` as the summand key,
so a block into a summand the target cell does not contain is dropped.
With the adjoint convention for ``tau`` no further signs are needed, and
``d1^2 = 0`` holds cell by cell.  The pairing of ``E1^{a,b}`` with
``E1^{-a,2n-b}`` pairs summand ``k`` with summand ``k-a`` of the dual cell,
which lies on the same level in the complementary degree.

The second page is lazy: building it checks ``d1 o d1 = 0`` into every cell
and takes each dimension from forward ranks, ``dim E1 - rank dout - rank
din``; a cell's quotient is built on its first read, and the rank of a power
of ``N`` or ``L`` on the page is one block rank on the first page.

Both pages are bigraded complexes with one interface in page coordinates
``(a, b)``: ``n``, ``support()`` (the cells of nonzero dimension, sorted),
``dim``, ``d1`` (to ``(a+1, b)``), ``nmap`` (to ``(a+2, b-2)``), ``lmap``
(to ``(a, b+2)``) and ``pairing_at`` (with ``(-a, 2n-b)``).  ``E2Page(cx)`` forms
``ker d1 / im d1`` of any such complex with the induced operators and
pairing; its own ``d1`` is zero, so it is again such a complex.  A page
memoises its operators and pairings, and ``power`` its powers in any complex.

The sequence degenerates at the second page, so abutment dimensions are sums
of E2 dimensions along anti-diagonals.  Weight of ``E2^{a,b}`` is ``b``; for
cycle-generated inputs every summand of ``E1^{a,b}`` is pure of Frobenius
slope ``b/2`` after its Tate twist by ``a-k``, so the cell carries slope
``b/2``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DifferentialNotSquareZero, InducedPairingIllDefined
from .linalg import (
    QuotientSpace,
    RatMatrix,
    _format,
    assemble_blocks,
    induced_map,
    induced_pairing,
)
from .strata import StrataComplex, memoised


@dataclass(frozen=True)
class Summand:
    k: int
    level: int
    degree: int
    dim: int


class E1Page:
    """Sparse map from ``(a, b)`` to the cell's summand list, plus the
    operators and the pairing as block maps."""

    def __init__(self, sc: StrataComplex):
        self.sc = sc
        self.n = sc.n
        self.cycle_generated = sc.cycle_generated
        self.cells: dict[tuple[int, int], list[Summand]] = {}
        # levels ascend, so every cell lists its summands by increasing k
        for lvl in range(1, sc.max_level + 1):
            for m in sc.level(lvl):
                dim = sc.level_dim(lvl, m)
                for k in range(lvl):
                    a = 2 * k + 1 - lvl
                    b = m + 2 * (lvl - k - 1)
                    self.cells.setdefault((a, b), []).append(Summand(k, lvl, m, dim))

    def cell(self, a: int, b: int) -> list[Summand]:
        return self.cells.get((a, b), [])

    def dim(self, a: int, b: int) -> int:
        return sum(s.dim for s in self.cell(a, b))

    def support(self):
        return sorted(self.cells)

    # -- operators ----------------------------------------------------------

    def _block_map(self, src, dst, block_for) -> RatMatrix:
        """Matrix from the cell ``src`` to the cell ``dst``, keyed by summand
        ``k``; ``block_for(s)`` yields ``(k, block)`` for the summands ``k``
        of ``dst`` that the summand ``s`` of ``src`` may reach.  The shared
        zero, without a block read, when either cell has no summands."""
        src, dst = self.cell(*src), self.cell(*dst)
        if not (src and dst):
            return RatMatrix.zeros(sum(s.dim for s in dst), sum(s.dim for s in src))
        return assemble_blocks(
            [(s.k, s.dim) for s in dst],
            [(s.k, s.dim) for s in src],
            {(k, s.k): block for s in src for k, block in block_for(s)},
        )

    @memoised
    def d1(self, a: int, b: int) -> RatMatrix:
        """Differential E1^{a,b} -> E1^{a+1,b}."""

        def block_for(s: Summand):
            yield s.k + 1, self.sc.rho(s.level, s.degree)
            yield s.k, self.sc.tau(s.level, s.degree)

        return self._block_map((a, b), (a + 1, b), block_for)

    @memoised
    def nmap(self, a: int, b: int) -> RatMatrix:
        """Monodromy E1^{a,b} -> E1^{a+2,b-2}: identity on surviving summands."""

        def block_for(s: Summand):
            yield s.k + 1, RatMatrix.identity(s.dim)

        return self._block_map((a, b), (a + 2, b - 2), block_for)

    @memoised
    def lmap(self, a: int, b: int) -> RatMatrix:
        """Lefschetz E1^{a,b} -> E1^{a,b+2}."""

        def block_for(s: Summand):
            yield s.k, self.sc.level_lefschetz(s.level, s.degree)

        return self._block_map((a, b), (a, b + 2), block_for)

    @memoised
    def pairing_at(self, a: int, b: int) -> RatMatrix:
        """Gram matrix of E1^{a,b} x E1^{-a,2n-b} -> Q, rows on E1^{a,b}."""
        n = self.n

        def block_for(s: Summand):
            # summand k of the dual cell meets summand k + a of this one on
            # the same level, in the complementary degree
            yield s.k + a, self.sc.level_pairing(s.level, 2 * (n + 1 - s.level) - s.degree)

        return self._block_map((-a, 2 * n - b), (a, b), block_for)


def build_e1(sc: StrataComplex) -> E1Page:
    return E1Page(sc)


# the quotient at a cell without first-page summands, whole: read with no elimination
_NO_CELL = QuotientSpace(RatMatrix.zeros(0, 0), [], RatMatrix.zeros(0, 0))


class E2Page:
    """Cellwise homology ``ker d1 / im d1`` of a bigraded complex, with the
    induced N, L and pairing.

    ``e1`` is any complex with the interface of the module docstring: the
    first page, another ``E2Page``, or a module built by hand.  Building the
    page checks ``d1 o d1 = 0`` into every cell, eagerly, and runs the
    forward pass of each nonzero ``d1`` alone; once ``d1`` squares to zero,
    ``dim = dim E1 - rank dout - rank din``, so dimensions and the support
    cost no kernel.  A cell's ``QuotientSpace``, in the coordinates of
    ``ker dout``, is built on the first ``quotient`` that reads it: the
    kept forward pass of ``dout`` is back-substituted in place, not run
    again, and gives the kernel basis; the pivots of ``din`` pick the image
    basis, and a cell with boundaries adds one small elimination that picks
    its lift.  Every induced map and pairing is ``induced_map`` or
    ``induced_pairing`` between the ``quotient`` of its two cells; a cell
    outside ``e1.support()`` is the zero quotient of Q^0, and the zero
    operator out of or into it induces the shared zero.  ``induced_rank``
    gives the rank of a power of ``N`` or ``L`` from one block rank on the
    first page, building no quotient.
    """

    def __init__(self, e1):
        self.e1 = e1
        self.n = e1.n
        # per cell of e1.support(): its dimension, and the forward pass of
        # its dout, whose pivot columns are its keys (none for a zero dout)
        self._dims: dict[tuple[int, int], int] = {}
        self._passes: dict[tuple[int, int], dict] = {}
        self._quotients: dict[tuple[int, int], QuotientSpace] = {}
        for (a, b) in e1.support():
            din = e1.d1(a - 1, b)
            dout = e1.d1(a, b)
            if not (dout @ din).is_zero():
                raise DifferentialNotSquareZero(f"d1 o d1 != 0 into cell ({a}, {b})")
            self._passes[(a, b)] = forward = {} if dout.is_zero() else dout._forward()
            # the support is sorted: (a - 1, b) came first, or din is zero
            self._dims[(a, b)] = dout.cols - len(forward) - self._rank(a - 1, b)

    def _rank(self, a: int, b: int) -> int:
        """The rank of ``d1`` out of the cell (a, b) of ``e1``."""
        return len(self._passes.get((a, b), ()))

    @property
    def cycle_generated(self) -> bool:
        return self.e1.cycle_generated

    def dim(self, a: int, b: int) -> int:
        return self._dims.get((a, b), 0)

    def support(self):
        return [key for key, d in self._dims.items() if d]

    def quotient(self, a: int, b: int) -> QuotientSpace:
        """``ker d1 / im d1`` at the cell (a, b), inside that cell of ``e1``,
        built on the first call; the zero quotient of Q^0 off
        ``e1.support()``."""
        q = self._quotients.get((a, b))
        if q is None:
            if (a, b) not in self._dims:
                return _NO_CELL
            cycles, free, _ = self.e1.d1(a, b).reduced_kernel(self._passes[(a, b)])
            into = sorted(self._passes.get((a - 1, b), ()))
            q = self._quotients[(a, b)] = QuotientSpace(
                cycles, free, self.e1.d1(a - 1, b).take_columns(into)
            )
        return q

    @memoised
    def induced_rank(self, op: str, a: int, b: int, r: int) -> int:
        """The rank of ``power(self, op, a, b, r)``: ``N^r`` (``op`` "n") or
        ``L^r`` (``op`` "l") out of the cell (a, b).  ``N^0`` and ``L^0``
        are identities, of full rank.

        When the quotients of both end cells are built, it is the rank of
        that power.  Otherwise no quotient is built: for the first-page power
        ``M``, ``dout`` out of the source cell and ``din`` into the target
        cell, it is ``rank psi - rank dout - rank din`` with
        ``psi = [[dout, 0], [M, din]]``, one forward pass, and the two ``d1``
        ranks read from the page.  By the rank identity of Marsaglia and
        Styan (Linear and Multilinear Algebra 2, 1974) that difference is the
        rank of ``M`` from ``ker dout`` to the cokernel of ``din``, which is
        the rank of the induced map whenever ``M`` commutes with ``d1``: it
        carries cycles to cycles and boundaries to boundaries.  ``N`` does on
        every first page, and ``L`` on every document that validates.

        ``psi`` is assembled as ``[[din, M], [0, dout]]``, the same rank, so
        that the forward pass meets the columns of ``din`` first: with those
        of ``M`` first, a chain map homotopic to the identity on the edges
        of a 32 x 32 triangulated torus took the pass over 100 times as long.
        """
        if r < 1:
            return self.dim(a, b)
        dst = power_target(op, a, b, r)
        if (a, b) in self._quotients and dst in self._quotients:
            return power(self, op, a, b, r).rank()
        e1 = self.e1
        dout, din = e1.d1(a, b), e1.d1(dst[0] - 1, dst[1])
        psi = assemble_blocks(
            [(0, din.rows), (1, dout.rows)],
            [(0, din.cols), (1, dout.cols)],
            {(0, 0): din, (0, 1): power(e1, op, a, b, r), (1, 1): dout},
        )
        return psi.rank() - self._rank(a, b) - self._rank(dst[0] - 1, dst[1])

    def d1(self, a: int, b: int) -> RatMatrix:
        return RatMatrix.zeros(self.dim(a + 1, b), self.dim(a, b))

    def nmap(self, a: int, b: int) -> RatMatrix:
        return self.induced_n(a, b)

    def lmap(self, a: int, b: int) -> RatMatrix:
        return self.induced_l(a, b)

    @memoised
    def induced_n(self, a: int, b: int) -> RatMatrix:
        return induced_map(self.e1.nmap(a, b), self.quotient(a, b), self.quotient(a + 2, b - 2))

    @memoised
    def induced_l(self, a: int, b: int) -> RatMatrix:
        return induced_map(self.e1.lmap(a, b), self.quotient(a, b), self.quotient(a, b + 2))

    @memoised
    def pairing_at(self, a: int, b: int) -> RatMatrix:
        """Induced pairing of E2^{a,b} with E2^{-a,2n-b}, rows on E2^{a,b}.

        Raises ``InducedPairingIllDefined`` when im(d1) does not pair to zero
        with ker(d1) on the dual cell, which signals an adjointness violation
        upstream.
        """
        there = self.quotient(-a, 2 * self.n - b)
        gram = induced_pairing(self.e1.pairing_at(a, b), self.quotient(a, b), there)
        if gram is None:
            raise InducedPairingIllDefined(
                f"im(d1) pairs nontrivially with ker(d1) at cell ({a}, {b})"
            )
        return gram

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
                "slope": _format(b, 2) if self.cycle_generated else None,
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


def power_target(op: str, a: int, b: int, r: int) -> tuple[int, int]:
    """The cell that ``N^r`` (``op`` "n") or ``L^r`` (``op`` "l") maps (a, b) to."""
    return (a + 2 * r, b - 2 * r) if op == "n" else (a, b + 2 * r)


@memoised
def power(cx, op: str, a: int, b: int, r: int) -> RatMatrix:
    """``N^r`` (``op`` "n") or ``L^r`` (``op`` "l") out of the cell (a, b) of
    a page or module, kept in the memo of ``cx``: the identity for ``r < 1``,
    the operator itself for ``r = 1``, and above that one product onto
    ``N^(r-1)`` or ``L^(r-1)``, so each power is formed once per complex."""
    if r < 1:
        return RatMatrix.identity(cx.dim(a, b))
    if r == 1:
        return cx.nmap(a, b) if op == "n" else cx.lmap(a, b)
    s = r - 1
    below = power(cx, op, a, b, s)  # first, so the operators are read in order
    if op == "n":
        return cx.nmap(a + 2 * s, b - 2 * s) @ below
    return cx.lmap(a, b + 2 * s) @ below
