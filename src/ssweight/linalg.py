"""Exact linear algebra over Q.

A matrix is stored as integer rows over one positive common denominator:
one ``{column: int}`` dict of nonzero numerators per row, so no operation
ever visits a zero, and one ``int`` denominator for the whole matrix, kept
in lowest terms (it is coprime to the numerators taken together), so equal
matrices have equal storage.  Products are integer sparse products over the
product of the denominators, reduced once.  Ranks, pivot columns, reduced
row echelon forms, and through them kernels, column spaces, solves,
inverses and quotient constructions all run one fraction-free elimination
on the integer rows as stored.  Its forward pass keeps the pivot rows in a
column index, one per pivot column; each entering row is copied once,
cleared in place by integer combinations with the pivot rows at the columns
that have one, found through a heap of its columns, and divided by its
content gcd once, when it becomes a pivot row.  So its cost follows the row
operations, not the shape, and ranks, column spaces and quotients read its
pivots alone.  The reduced form adds one back-substitution from the last
pivot row up and keeps the lcm of its pivots as its denominator; it is a
step of its own, which finishes a forward pass in place, so a pass kept
from a rank is completed later, not run again.
Signatures clear the same integer rows by the same rule, symmetrically,
touching only the rows a pivot row meets.  Entries enter in one pass that
keeps only the nonzeros, and leave as schema strings formatted straight
from the integers (``to_strings``, and ``col`` for one column, a witness
vector); only the dense ``entries`` view builds ``Fraction``s.  No floating
point anywhere.

Cost model: the matrices are small, so an operation costs about its
nonzero entries plus a constant, and the constant is kept small.  Results
are built by one trusted constructor through the slots' own setters; a
unit denominator is never reduced; ``scale(±1)`` builds no ``Fraction``; a
left row with one entry of a product is a multiple of one right row, or
that row itself when the entry is 1.  So a row dict may be shared by
several matrices, and no row dict is mutated once a matrix holds it:
eliminations and signatures copy the rows they clear.  The zero matrix is
one shared instance per shape, all of whose rows are one empty dict, and
an operation with a zero or empty operand visits no row: a product with a
zero factor and ``scale(0)`` are that shared zero, a sum returns the other
summand, a transposed zero and the columns taken from one are shared
zeros, an ``hstack`` with no columns on one side is the other side, the
kernel of a zero matrix is the identity, and a zero map or pairing induces
the shared zero on any quotients.  Kernels and solves read the reduced
rows of the elimination directly, without forming the reduced matrix.  No
elimination re-proves what a construction guarantees: a subspace built
from a kernel basis, pivot columns, an intersection or the spans of a
quotient of cycles runs no independence rank, and a map into a quotient of
cycles without boundaries runs no solve.

Conventions: a linear map V -> W is a matrix with ``rows = dim W`` and
``cols = dim V`` acting on column vectors; a subspace is stored as a matrix
whose columns are an independent spanning set.  A quotient keeps one basis
``[denominator | lift]`` of its numerator and coordinate rows on which that
basis is invertible.  A quotient of cycles by boundaries is read in the
coordinates of the kernel basis of one reduced elimination, where its lift
columns are unit vectors; an induced map is one solve on the target's
coordinate rows, checked by one product, and a pairing one product.
Without boundaries the basis is the identity on those rows, so the map is
those rows of the product, still checked; when every vector is a cycle
too, the basis is the identity, and no product is formed with it.
"""

from __future__ import annotations

import re
import reprlib
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from heapq import heappop, heappush
from math import gcd, lcm
from operator import itemgetter

from .errors import NotSymmetric, NotWellDefined

_ZERO = Fraction(0)
# every row of every shared zero matrix
_EMPTY_ROW: dict = {}
# an input value quoted in an error message, bounded in depth and length
_quoted = reprlib.Repr().repr
# the rational strings of docs/strata_schema.json
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
_INTEGER = re.compile(r"-?[0-9]+")


def _parse(x) -> tuple[int, int]:
    """``(numerator, denominator)`` in lowest terms, denominator positive, of
    an int, a Fraction or a string of the schema's form 'a' or 'a/b' (like
    '-3/4'); a bool is not a number here."""
    if isinstance(x, str):
        match = _RATIONAL.fullmatch(x)
        if not match:
            raise ValueError(f"{_quoted(x)} is not a rational of the form a or a/b")
        n = int(match[1])
        if match[2] is None:
            return n, 1
        d = int(match[2])
        if not d:
            raise ZeroDivisionError(f"Fraction({n}, 0)")
        g = gcd(n, d)
        return n // g, d // g
    if isinstance(x, int) and not isinstance(x, bool):
        return x, 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"cannot interpret {_quoted(x)} as a rational")


def rat(x) -> Fraction:
    """Coerce ints, strings of the schema's form 'a' or 'a/b' (like '-3/4'),
    and Fractions to Fraction; a bool is not a number here."""
    return x if isinstance(x, Fraction) else Fraction(*_parse(x))


def integer(text: str) -> int:
    """The integer a string of the form ``-?[0-9]+`` spells; any other
    string (``1_0``, `` 1``, ``+1`` or a non-ASCII digit, which ``int()``
    reads) is a ``ValueError``."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"{_quoted(text)} is not an integer of the form -?[0-9]+")
    return int(text)


def _format(n: int, d: int) -> str:
    """``str(Fraction(n, d))`` without building the Fraction."""
    g = gcd(n, d)
    n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


def _make(rows: int, cols: int, den: int, data) -> "RatMatrix":
    """Trusted constructor: ``data`` holds one ``{column: int}`` dict of
    nonzero numerators per row, ``den`` is positive and coprime to them
    taken together, and no dict in ``data`` is mutated afterwards, so a row
    may be shared by several matrices."""
    m = _new(RatMatrix)
    _set_rows(m, rows)
    _set_cols(m, cols)
    _set_den(m, den)
    _set_data(m, tuple(data))
    return m


def _reduced(rows: int, cols: int, den: int, data) -> "RatMatrix":
    """``_make`` for integer rows over a positive ``den`` that may share a
    factor with every numerator: divides that factor out once."""
    if den == 1:
        return _make(rows, cols, 1, data)
    g = den
    for row in data:
        if row:
            g = gcd(g, *row.values())
            if g == 1:
                return _make(rows, cols, den, data)
    data = [{j: x // g for j, x in row.items()} for row in data]
    return _make(rows, cols, den // g, data)


def _clear(row: dict, c: int, q: dict) -> None:
    """Clear ``row`` at column ``c`` against the pivot row ``q``, in place:
    ``row`` becomes ``(p/g) row - (a/g) q`` (``p`` the pivot, ``a`` the
    entry, ``g = gcd(p, a)``), or ``row - (a/p) q`` when ``p`` divides
    ``a``.  The caller divides its content out."""
    p, a = q[c], row[c]
    if a % p:
        g = gcd(p, a)
        s, t = p // g, a // g
        for j in row:
            row[j] *= s
    else:
        t = a // p
    for j, y in q.items():
        v = row.get(j, 0) - t * y
        if v:
            row[j] = v
        else:
            del row[j]


def _primitive(row: dict) -> dict:
    """``row`` divided in place by the gcd of its entries."""
    g = gcd(*row.values())
    if g > 1:
        for j in row:
            row[j] //= g
    return row


def _back_substitute(pivot: dict):
    """Finish a forward pass (``RatMatrix._forward``) in place: from the last
    pivot row up, each row is cleared at every pivot column it meets against
    the rows below it, which are reduced already.  A reduced row brings no
    pivot column but its own, so each entry is cleared once, and the rows are
    the reduced row echelon form up to one scalar per row.  Returns
    ``(rows, pivots)``: the pivot columns in increasing order, and for each
    its reduced row."""
    cols = sorted(pivot)
    for c in reversed(cols):
        row = pivot[c]
        meets = [j for j in row if j != c and j in pivot]
        for j in meets:
            _clear(row, j, pivot[j])
        if meets:
            _primitive(row)
    return [pivot[c] for c in cols], cols


def _submatrix(m: "RatMatrix", rows, cols: range) -> "RatMatrix":
    """The block of ``m`` on a sequence of rows and a range of columns, or
    ``m`` itself when that is all of it."""
    if rows == range(m.rows) and cols == range(m.cols):
        return m
    c0 = cols.start
    data = [{j - c0: x for j, x in m._data[i].items() if j in cols} for i in rows]
    return _reduced(len(rows), len(cols), m._den, data)


class RatMatrix:
    """Immutable sparse matrix over Q: integer rows over one denominator."""

    __slots__ = ("rows", "cols", "_den", "_data")

    def __init__(self, rows: int, cols: int, entries):
        # one pass over the entries: each row's numerators go straight into
        # its dict, and only the entries with a denominator are revisited
        data, fractions = [], []
        for row in entries:
            out, j = {}, -1
            for j, x in enumerate(row):
                n, d = _parse(x)
                if n:
                    out[j] = n
                    if d != 1:
                        fractions.append((out, j, d))
            if j + 1 != cols:
                raise ValueError(f"entry grid does not match shape {rows}x{cols}")
            data.append(out)
        if len(data) != rows:
            raise ValueError(f"entry grid does not match shape {rows}x{cols}")
        # the lcm of denominators in lowest terms is coprime to the scaled
        # numerators: an entry whose denominator has a prime's top power
        # keeps a numerator that the prime does not divide
        den = lcm(*[d for _, _, d in fractions])
        if den != 1:
            for out in data:
                for j in out:
                    out[j] *= den
            for out, j, d in fractions:
                out[j] //= d
        _set_rows(self, rows)
        _set_cols(self, cols)
        _set_den(self, den)
        _set_data(self, tuple(data))

    def __setattr__(self, *_):
        raise AttributeError("RatMatrix is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rows(rows) -> "RatMatrix":
        """The matrix of a list of equally long rows; the rows are read, not copied."""
        if not isinstance(rows, list):
            rows = list(rows)
        ncols = len(rows[0]) if rows else 0
        return RatMatrix(len(rows), ncols, rows)

    @staticmethod
    @lru_cache(maxsize=4096)
    def zeros(rows: int, cols: int) -> "RatMatrix":
        """The zero matrix: one shared instance per shape."""
        return _make(rows, cols, 1, (_EMPTY_ROW,) * rows)

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return _make(n, n, 1, [{i: 1} for i in range(n)])

    # -- basic structure ---------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, RatMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._den == other._den
            and self._data == other._data
        )

    def __hash__(self):
        return hash(
            (self.rows, self.cols, self._den, tuple(frozenset(r.items()) for r in self._data))
        )

    def __repr__(self):
        return f"RatMatrix({self.rows}x{self.cols})"

    @property
    def entries(self):
        """Dense rows as a tuple of tuples; built anew on every access."""
        d, out = self._den, []
        for r in self._data:
            row = [_ZERO] * self.cols
            for j, x in r.items():
                row[j] = Fraction(x, d)
            out.append(tuple(row))
        return tuple(out)

    def col(self, j) -> list[str]:
        """Column ``j`` as schema strings 'a' or 'a/b', formatted from the integers."""
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} of a matrix with {self.cols} columns")
        d = self._den
        return [_format(r[j], d) if j in r else "0" for r in self._data]

    def to_strings(self):
        """Dense rows of schema strings 'a' or 'a/b', formatted from the integers."""
        d = self._den
        out = [["0"] * self.cols for _ in range(self.rows)]
        for row, r in zip(out, self._data):
            for j, x in r.items():
                row[j] = _format(x, d)
        return out

    def is_zero(self) -> bool:
        return not any(self._data)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        return self._combine(other, 1)

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        return self._combine(other, -1)

    def _combine(self, other: "RatMatrix", sign: int) -> "RatMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        if not any(other._data):
            return self
        if not any(self._data):
            return other.scale(sign)
        den = lcm(self._den, other._den)
        sa, sb = den // self._den, sign * (den // other._den)
        out = []
        for ra, rb in zip(self._data, other._data):
            row = {j: sa * x for j, x in ra.items()}
            for j, y in rb.items():
                v = row.get(j, 0) + sb * y
                if v:
                    row[j] = v
                else:
                    del row[j]
            out.append(row)
        return _reduced(self.rows, self.cols, den, out)

    def __neg__(self) -> "RatMatrix":
        return self.scale(-1)

    def scale(self, c) -> "RatMatrix":
        p, q = _parse(c)
        if p == q:  # c == 1
            return self
        if not p:
            return RatMatrix.zeros(self.rows, self.cols)
        data = [{j: p * x for j, x in r.items()} for r in self._data]
        if p == -1 and q == 1:  # a negation stays in lowest terms
            return _make(self.rows, self.cols, self._den, data)
        return _reduced(self.rows, self.cols, self._den * q, data)

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        if not (any(self._data) and any(other._data)):
            return RatMatrix.zeros(self.rows, other.cols)
        b = other._data
        out = []
        for row in self._data:
            if len(row) == 1:
                # one entry: a multiple of one row of ``other``, or that
                # row itself, shared, when the entry is 1
                (k, a), = row.items()
                out.append(b[k] if a == 1 else {j: a * y for j, y in b[k].items()})
                continue
            acc = {}
            for k, a in row.items():
                for j, y in b[k].items():
                    acc[j] = acc.get(j, 0) + a * y
            if not all(acc.values()):
                acc = {j: x for j, x in acc.items() if x}
            out.append(acc)
        return _reduced(self.rows, other.cols, self._den * other._den, out)

    def transpose(self) -> "RatMatrix":
        if not any(self._data):
            return RatMatrix.zeros(self.cols, self.rows)
        out = [{} for _ in range(self.cols)]
        for i, row in enumerate(self._data):
            for j, x in row.items():
                out[j][i] = x
        return _make(self.cols, self.rows, self._den, out)

    def hstack(self, other: "RatMatrix") -> "RatMatrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        if not other.cols:
            return self
        if not self.cols:
            return other
        # lowest terms as in ``assemble_blocks``
        den = lcm(self._den, other._den)
        sa, sb = den // self._den, den // other._den
        off = self.cols
        out = []
        for a, b in zip(self._data, other._data):
            row = {j: sa * x for j, x in a.items()}
            for j, x in b.items():
                row[off + j] = sb * x
            out.append(row)
        return _make(self.rows, self.cols + other.cols, den, out)

    def take_columns(self, idx) -> "RatMatrix":
        """The columns ``idx``, in that order and with repeats; only each
        row's nonzeros are visited, through one column-to-positions map."""
        idx = list(idx)
        if not any(self._data):
            return RatMatrix.zeros(self.rows, len(idx))
        pos: dict[int, list[int]] = {}
        for p, j in enumerate(idx):
            pos.setdefault(j, []).append(p)
        return _reduced(
            self.rows,
            len(idx),
            self._den,
            [{p: x for j, x in r.items() if j in pos for p in pos[j]} for r in self._data],
        )

    # -- elimination -------------------------------------------------------

    def _forward(self) -> dict:
        """The forward pass of a fraction-free elimination of the integer
        rows (the common denominator scales every row alike, so it changes
        no pivot): ``{pivot column: the row whose leading entry is there}``.

        The pass keeps the rows found so far in that column index, one pivot
        row per pivot column.  Each entering row is copied once and cleared
        in place at its leading column against that column's pivot row until
        it leads in a column that has none; there its content gcd is divided
        out and it becomes the pivot row (or it vanishes).  Clearing only
        adds columns right of the cleared one, so a row's leading column only
        grows, and a heap of its columns finds the next one without a scan of
        the row (on a cycle one row hops across every pivot column, gaining
        an entry per hop).  Rows enter in decreasing lexicographic order of
        their column lists: one that leads further right, or at an equal lead
        has its next entry further right, enters first, so a row cleared
        against it jumps furthest.  (Entered as stored, the rows of a stacked
        pair of bases, each with an entry in column 0 and one further right,
        would each be cleared at every earlier pivot column.)  Pivots and the
        reduced form do not depend on the order, nor on when a row's content
        is divided out.  No row of the matrix is mutated: the pass owns its
        rows, and ``_back_substitute`` may finish them in place.
        """
        pivot = {}
        for heap, src in sorted(((sorted(r), r) for r in self._data if r), key=itemgetter(0), reverse=True):
            row = dict(src)
            while heap:
                c = heappop(heap)
                if c not in row:
                    continue  # cancelled by an earlier clearing
                q = pivot.get(c)
                if q is None:
                    pivot[c] = _primitive(row)
                    break
                for j in q:
                    if j not in row:
                        heappush(heap, j)
                _clear(row, c, q)
        return pivot

    def pivots(self) -> list:
        """Pivot columns of the forward elimination alone: the columns that
        are not in the span of the columns before them; a zero matrix has
        none, found with no elimination."""
        if not any(self._data):
            return []
        return sorted(self._forward())

    def rank(self) -> int:
        """Rank over Q: the number of pivot columns."""
        return len(self.pivots())

    def rref(self):
        """Reduced row echelon form over Q.

        Returns ``(rref_matrix, pivot_columns)``; the form is unique, so it
        does not depend on the order of elimination.  It is each row of the
        back-substituted elimination over its pivot, all over the lcm of the
        absolute pivots.
        """
        m, pivots = _back_substitute(self._forward())
        den = lcm(*[abs(row[c]) for row, c in zip(m, pivots)])
        out = [{j: x * (den // row[c]) for j, x in row.items()} for row, c in zip(m, pivots)]
        out.extend({} for _ in range(self.rows - len(pivots)))
        return _reduced(self.rows, self.cols, den, out), pivots

    def kernel_basis(self) -> "RatMatrix":
        """Columns form a basis of {v : self @ v = 0}."""
        return self.reduced_kernel()[0]

    def reduced_kernel(self, forward: dict | None = None):
        """``(K, free, pivots)`` from one reduced elimination: the columns
        of ``K`` are the kernel basis with ``K[free, :] = I``, one column
        per free column in ``free``, and ``pivots`` are the pivot columns,
        which also pick a basis of the column span.  ``forward`` is this
        matrix's own ``_forward()`` pass, run earlier for its rank and not
        finished since; it is back-substituted in place, not run again."""
        if not any(self._data):
            return RatMatrix.identity(self.cols), list(range(self.cols)), []
        rows, pivots = _back_substitute(self._forward() if forward is None else forward)
        pivset = set(pivots)
        free = [c for c in range(self.cols) if c not in pivset]
        at = {f: k for k, f in enumerate(free)}
        # coordinate f of basis vector at[f] is 1; coordinate p of basis
        # vector at[f] is -row[f] / row[p] for the reduced row of pivot p,
        # all over the lcm of the absolute pivots
        den = lcm(*[abs(row[p]) for row, p in zip(rows, pivots)])
        out = [{} for _ in range(self.cols)]
        for f, k in at.items():
            out[f] = {k: den}
        for row, p in zip(rows, pivots):
            s = -(den // row[p])
            out[p] = {at[j]: s * x for j, x in row.items() if j != p}
        return _reduced(self.cols, len(free), den, out), free, pivots

    def column_space_basis(self) -> "RatMatrix":
        """Pivot columns of the matrix: a basis of the column span."""
        return self.take_columns(self.pivots())

    def solve(self, rhs: "RatMatrix"):
        """Solve ``self @ X = rhs``; returns one solution or None.

        ``rhs`` may have several columns; solved simultaneously.
        """
        if rhs.rows != self.rows:
            raise ValueError("rhs row count mismatch")
        rows, pivots = _back_substitute(self.hstack(rhs)._forward())
        n = self.cols
        # a pivot in the rhs block means inconsistency
        if pivots and pivots[-1] >= n:
            return None
        # row p of the solution is the rhs block of the reduced row of
        # pivot p over that pivot, all over the lcm of the absolute pivots
        den = lcm(*[abs(row[p]) for row, p in zip(rows, pivots)])
        sol = [{} for _ in range(n)]
        for row, p in zip(rows, pivots):
            s = den // row[p]
            sol[p] = {j - n: s * x for j, x in row.items() if j >= n}
        return _reduced(n, rhs.cols, den, sol)

    def inverse(self) -> "RatMatrix":
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        sol = self.solve(RatMatrix.identity(self.rows))
        if sol is None or (self @ sol) != RatMatrix.identity(self.rows):
            raise ValueError("matrix is singular")
        return sol

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and self == self.transpose()


# the slots' own setters, which ``__setattr__`` forbids
_new = object.__new__
_set_rows = RatMatrix.rows.__set__
_set_cols = RatMatrix.cols.__set__
_set_den = RatMatrix._den.__set__
_set_data = RatMatrix._data.__set__


def kron(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """Kronecker product, row index = (a-row, b-row) with a-row major."""
    out = []
    for ra in a._data:
        for rb in b._data:
            out.append({j * b.cols + q: x * y for j, x in ra.items() for q, y in rb.items()})
    return _reduced(a.rows * b.rows, a.cols * b.cols, a._den * b._den, out)


def assemble_blocks(rows, cols, blocks) -> RatMatrix:
    """Matrix of a map between two direct sums.

    ``rows`` and ``cols`` list the summands of the target and of the source
    as ordered ``(key, dim)`` pairs; ``blocks`` maps ``(row_key, col_key)``
    to the block between them.  A block naming an unlisted summand is
    dropped, and every block not given is zero.
    """
    roff, nrows = _offsets(rows)
    coff, ncols = _offsets(cols)
    placed = []
    for (ri, cj), m in blocks.items():
        if ri not in roff or cj not in coff:
            continue
        (r0, dr), (c0, dc) = roff[ri], coff[cj]
        if m.rows != dr or m.cols != dc:
            raise ValueError(f"block ({ri}, {cj}) has shape {m.rows}x{m.cols}, not {dr}x{dc}")
        placed.append((r0, c0, m))
    # every block is in lowest terms, so the lcm of their denominators is
    # too: the block whose denominator has a prime's top power keeps, scaled,
    # a numerator that the prime does not divide
    den = lcm(*[m._den for _, _, m in placed])
    out = [{} for _ in range(nrows)]
    for r0, c0, m in placed:
        s = den // m._den
        for i, row in enumerate(m._data):
            target = out[r0 + i]
            for j, x in row.items():
                target[c0 + j] = s * x
    return _make(nrows, ncols, den, out)


def _offsets(summands):
    """``{key: (offset, dim)}`` of ordered ``(key, dim)`` summands, and the total."""
    pos, off = {}, 0
    for key, d in summands:
        pos[key] = (off, d)
        off += d
    return pos, off


def kernel_witness(matrix: RatMatrix) -> list[str]:
    """First kernel basis vector of ``matrix`` as schema strings, verified
    nonzero and in the kernel by one integer product.

    A vector that fails is a fault of this package, not of the input, so it
    raises ``RuntimeError`` (not an ``SsweightError``); the check is explicit
    so that it also runs under ``python -O``.
    """
    v = matrix.kernel_basis().take_columns([0])
    if v.is_zero() or not (matrix @ v).is_zero():
        raise RuntimeError(
            f"kernel witness of a {matrix.rows}x{matrix.cols} matrix failed verification"
        )
    return v.col(0)


def kernel(m: RatMatrix) -> "Subspace":
    """``ker m``: the columns of a reduced kernel are the identity on its
    free rows, so they are independent."""
    return Subspace._trusted(m.cols, m.kernel_basis())


def image(m: RatMatrix) -> "Subspace":
    """``im m``: its pivot columns are independent."""
    return Subspace._trusted(m.rows, m.column_space_basis())


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^ambient_dim spanned by the (independent) basis columns.

    ``Subspace(ambient_dim, basis)`` checks the row count and, with one
    elimination, that the columns are independent.  Subspaces the engine
    builds from bases independent by construction (a kernel, pivot columns,
    the zero space, an intersection, the spans of a quotient of cycles, the
    part of a subspace a set of linear forms annihilates) come from
    ``_trusted``, which runs no check.  Equal subspaces have equal spans, so
    the hash reads the dimensions alone.
    """

    ambient_dim: int
    basis: RatMatrix

    def __post_init__(self):
        if self.basis.rows != self.ambient_dim:
            raise ValueError("basis rows must equal ambient dimension")
        if self.basis.rank() != self.basis.cols:
            raise ValueError("basis columns must be linearly independent")

    @staticmethod
    def _trusted(ambient_dim: int, basis: RatMatrix) -> "Subspace":
        """The subspace spanned by ``basis``, whose ``ambient_dim`` rows and
        independent columns its construction guarantees; checks nothing."""
        s = _new(Subspace)
        object.__setattr__(s, "ambient_dim", ambient_dim)  # past the frozen __setattr__
        object.__setattr__(s, "basis", basis)
        return s

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace._trusted(ambient_dim, RatMatrix.zeros(ambient_dim, 0))

    @property
    def dim(self) -> int:
        return self.basis.cols

    def contains(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimensions differ")
        if other.dim == 0:
            return True
        stacked = self.basis.hstack(other.basis)
        return stacked.rank() == self.dim

    def intersection(self, other: "Subspace") -> "Subspace":
        """Kernel of the stacked basis matrix, pushed back into the ambient;
        both bases are independent, so the pushed columns are too."""
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimensions differ")
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient_dim)
        stacked = self.basis.hstack(other.basis.scale(-1))
        ker = stacked.kernel_basis()
        coeffs = _submatrix(ker, range(self.dim), range(ker.cols))
        return Subspace._trusted(self.ambient_dim, self.basis @ coeffs)

    def annihilated_by(self, forms: RatMatrix) -> "Subspace":
        """The vectors of this subspace on which every row of ``forms``
        vanishes: the basis times a kernel basis of ``forms @ basis``, whose
        columns are independent because both factors' are."""
        return Subspace._trusted(self.ambient_dim, self.basis @ (forms @ self.basis).kernel_basis())

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.dim == other.dim
            and self.contains(other)
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.dim))


class QuotientSpace:
    """The span of ``cycles`` modulo that of ``boundaries`` inside
    Q^ambient_dim, read as a second page reads ``ker d1 / im d1``.

    ``cycles[free, :]`` is the identity (a ``reduced_kernel``), and the
    columns of ``boundaries`` are independent and lie in the span of
    ``cycles``; neither is checked.  ``basis = [boundaries | lift]`` is a
    basis of the numerator adapted to the denominator, invertible on the
    rows ``free``: a vector of the numerator is ``basis @ x`` for the one
    ``x`` that its ``free`` entries determine.  ``lift`` holds the cycle
    ``e_j`` exactly when no vector in the span of ``boundaries[free, :]``
    has its last nonzero coordinate at ``j``; those coordinates are the
    pivots of its transpose with the columns reversed, one small
    elimination, so equal inputs pick identical representatives.  Without
    boundaries the basis is ``cycles`` itself (``unit_coords``: ``x`` is
    the ``free`` entries themselves), and no elimination runs.  The
    ``numerator`` and ``denominator`` are the unchecked subspaces of
    ``cycles`` and ``boundaries``.
    """

    def __init__(self, cycles: RatMatrix, free: list, boundaries: RatMatrix):
        k = len(free)
        self.ambient_dim = cycles.rows
        self.free = free
        self.numerator = Subspace._trusted(self.ambient_dim, cycles)
        self.denominator = Subspace._trusted(self.ambient_dim, boundaries)
        self.unit_coords = not boundaries.cols
        if self.unit_coords:
            self.lift = self.basis = cycles
            return
        flipped = [{} for _ in range(boundaries.cols)]
        for i, f in enumerate(free):
            for j, x in boundaries._data[f].items():
                flipped[j][k - 1 - i] = x
        last = {k - 1 - p for p in _make(boundaries.cols, k, 1, flipped).pivots()}
        self.lift = cycles.take_columns(j for j in range(k) if j not in last)
        self.basis = boundaries.hstack(self.lift)

    @property
    def dim(self) -> int:
        return self.lift.cols

    @property
    def _is_whole(self) -> bool:
        """``basis`` is the identity: no boundaries, and every vector a cycle."""
        return self.unit_coords and self.dim == self.ambient_dim

    def __repr__(self):
        return f"QuotientSpace(dim={self.dim} in Q^{self.ambient_dim})"


def induced_map(m: RatMatrix, src: QuotientSpace, dst: QuotientSpace) -> RatMatrix:
    """Matrix of the map induced by ``m`` on quotient bases: the lift block
    of the one ``X`` with ``dst.basis @ X = m @ src.basis``, read on the
    rows ``dst.free`` alone and checked by one product.  It is those rows
    of ``m @ src.basis`` when ``dst.unit_coords``, and one solve otherwise;
    an identity basis is not multiplied by.  A zero ``m`` carries every
    numerator and denominator into any other: it induces the shared zero,
    with nothing formed or checked.

    Raises ``ValueError`` when ``m`` does not fit the ambient spaces, and
    ``NotWellDefined`` when ``dst.basis @ X`` misses ``m @ src.basis`` (``m``
    does not carry numerator into numerator) or when an image of a
    src.denominator column has a nonzero lift coordinate (nor denominator
    into denominator).
    """
    if m.cols != src.ambient_dim or m.rows != dst.ambient_dim:
        raise ValueError("matrix shape does not match the ambient spaces")
    if m.is_zero():
        return RatMatrix.zeros(dst.dim, src.dim)
    y = m if src._is_whole else m @ src.basis
    if dst._is_whole:
        x = y
    else:
        at = dst.free
        y_at = _submatrix(y, at, range(y.cols))
        x = y_at if dst.unit_coords else _submatrix(dst.basis, at, range(dst.basis.cols)).solve(y_at)
        if dst.basis @ x != y:
            raise NotWellDefined("map does not preserve numerators")
    r0, c0 = dst.basis.cols - dst.dim, src.basis.cols - src.dim
    if any(j < c0 for row in x._data[r0:] for j in row):
        raise NotWellDefined("map does not preserve denominators")
    return _submatrix(x, range(r0, x.rows), range(c0, x.cols))


def induced_pairing(p: RatMatrix, left: QuotientSpace, right: QuotientSpace):
    """Gram matrix of the pairing ``p`` induced on ``left x right``, rows on
    ``left``: the lift block of ``left.basis^T p right.basis``, or None when
    a denominator row or column of that product is nonzero.  An identity
    basis is not multiplied by, so between two such quotients it is ``p``;
    a zero ``p`` induces the shared zero.  Raises ``ValueError`` when ``p``
    does not fit the ambient spaces."""
    if p.rows != left.ambient_dim or p.cols != right.ambient_dim:
        raise ValueError("pairing shape does not match the ambient spaces")
    if p.is_zero():
        return RatMatrix.zeros(left.dim, right.dim)
    g = p if left._is_whole else left.basis.transpose() @ p
    if not right._is_whole:
        g = g @ right.basis
    r0, c0 = left.basis.cols - left.dim, right.basis.cols - right.dim
    if any(g._data[:r0]) or any(j < c0 for row in g._data for j in row):
        return None
    return _submatrix(g, range(r0, g.rows), range(c0, g.cols))


def signature(sym: RatMatrix):
    """Inertia ``(n_plus, n_minus, n_zero)`` of a symmetric matrix.

    Symmetric elimination of the integer numerators (the matrix times its
    denominator, a positive factor that keeps the inertia) by the rule of
    the forward pass: each row is cleared in place by ``_clear`` against the
    pivot row, made positive at its pivot, and divided by its content.  So a
    cleared row is only ever multiplied by a positive factor, and the live
    rows are ``D S`` for a positive diagonal ``D`` and the symmetric Schur
    complement ``S``: a row has an entry in a column exactly when that
    column's row has one in the row's, and a pivot has the sign of ``S``'s.
    Pivots are taken in index order.  A nonzero diagonal entry counts its
    sign and clears its column from the rows its own row meets.  A zero
    diagonal in a row with entries pivots on ``(k, j)``, ``j`` its first
    column, then on ``(j, k)``: the block ``[[0, s], [s, t]]`` has one
    positive and one negative eigenvalue (Bunch and Kaufman's 2x2 pivot).
    An empty row counts nothing.  By Sylvester's law the counts are the
    inertia, whatever the order.
    """
    if not sym.is_symmetric():
        raise NotSymmetric("signature requires a symmetric matrix")
    m = [dict(row) for row in sym._data]

    def pivot(r, c, rows):
        q = m[r] if m[r][c] > 0 else {j: -y for j, y in m[r].items()}
        for i in rows:
            if i != r:
                _clear(m[i], c, q)
                _primitive(m[i])

    n_plus = n_minus = 0
    for k, row in enumerate(m):
        if not row:
            continue  # an empty row, or the partner of a 2x2 pivot
        d = row.get(k)
        if d:
            if d > 0:
                n_plus += 1
            else:
                n_minus += 1
            pivot(k, k, list(row))
        else:
            j = min(row)
            pivot(k, j, list(m[j]))
            pivot(j, k, list(row))
            n_plus += 1
            n_minus += 1
            m[j] = None
    return n_plus, n_minus, sym.rows - n_plus - n_minus
