"""Exact linear algebra over Q.

Dense matrices of ``fractions.Fraction`` entries; every operation is exact,
deterministic and pure.  Products skip zero entries.  Ranks, reduced row
echelon forms, and through them kernels, column spaces, solves, inverses and
quotient constructions all run one fraction-free elimination on
denominator-cleared integer rows: each row operation is an integer
combination of two rows followed by division by the row's content gcd, so
entries stay small, and zero entries are never touched.  Fractions appear
again only when a finished pivot row is divided by its pivot.  No floating
point anywhere.

Conventions: a linear map V -> W is a matrix with ``rows = dim W`` and
``cols = dim V`` acting on column vectors; a subspace is stored as a matrix
whose columns are an independent spanning set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import NotSymmetric, NotWellDefined

Rat = Fraction
_ZERO = Fraction(0)


def rat(x) -> Fraction:
    """Coerce ints, strings like '3/4', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational")


def format_rat(x: Fraction) -> str:
    """Serialize as 'a' or 'a/b' (b > 0, reduced)."""
    return str(x)


class RatMatrix:
    """Immutable dense matrix over Q."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        entries = tuple(tuple(rat(x) for x in row) for row in entries)
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError(f"entry grid does not match shape {rows}x{cols}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, *_):
        raise AttributeError("RatMatrix is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rows(rows) -> "RatMatrix":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        return RatMatrix(len(rows), ncols, rows)

    @staticmethod
    def zeros(rows: int, cols: int) -> "RatMatrix":
        return RatMatrix(rows, cols, [[0] * cols for _ in range(rows)])

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return RatMatrix(n, n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def column(vec) -> "RatMatrix":
        vec = list(vec)
        return RatMatrix(len(vec), 1, [[x] for x in vec])

    # -- basic structure ---------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, RatMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"RatMatrix({self.rows}x{self.cols})"

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i):
        return list(self.entries[i])

    def col(self, j):
        return [self.entries[i][j] for i in range(self.rows)]

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def to_lists(self):
        return [list(row) for row in self.entries]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        self._same_shape(other)
        return RatMatrix(
            self.rows,
            self.cols,
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
        )

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        self._same_shape(other)
        return RatMatrix(
            self.rows,
            self.cols,
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
        )

    def __neg__(self) -> "RatMatrix":
        return self.scale(-1)

    def scale(self, c) -> "RatMatrix":
        c = rat(c)
        return RatMatrix(
            self.rows, self.cols, [[c * x for x in row] for row in self.entries]
        )

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        # the nonzero (column, entry) pairs of each row of ``other``, taken once
        other_nz = [[(j, b) for j, b in enumerate(row) if b] for row in other.entries]
        out = []
        for row in self.entries:
            acc = [_ZERO] * other.cols
            for a, nz in zip(row, other_nz):
                if a:
                    for j, b in nz:
                        acc[j] += a * b
            out.append(acc)
        return RatMatrix(self.rows, other.cols, out)

    def apply(self, vec):
        """Matrix times column vector, as a plain list."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return [sum(a * rat(b) for a, b in zip(row, vec)) for row in self.entries]

    def transpose(self) -> "RatMatrix":
        return RatMatrix(
            self.cols,
            self.rows,
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
        )

    def hstack(self, other: "RatMatrix") -> "RatMatrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        return RatMatrix(
            self.rows,
            self.cols + other.cols,
            [list(a) + list(b) for a, b in zip(self.entries, other.entries)],
        )

    def vstack(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.cols:
            raise ValueError("column count mismatch in vstack")
        return RatMatrix(
            self.rows + other.rows,
            self.cols,
            list(self.entries) + list(other.entries),
        )

    def take_columns(self, idx) -> "RatMatrix":
        return RatMatrix(
            self.rows, len(idx), [[row[j] for j in idx] for row in self.entries]
        )

    def _same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    # -- elimination -------------------------------------------------------

    def _integer_rows(self):
        """Rows scaled by the lcm of their denominators (rank-preserving)."""
        out = []
        for row in self.entries:
            m = lcm(*[x.denominator for x in row])
            out.append([x.numerator * (m // x.denominator) for x in row])
        return out

    def _eliminate(self, reduce: bool):
        """Fraction-free elimination on the integer rows.

        Returns ``(rows, pivots)``: row ``i < len(pivots)`` has its leading
        entry in column ``pivots[i]`` and every later row is zero.  The pivot
        of each column is the topmost remaining row with a nonzero entry
        there.  Clearing column ``c`` of row ``i`` against pivot row ``r``
        replaces it by ``(p/g) row_i - (a/g) row_r`` (``p`` the pivot, ``a``
        the entry, ``g = gcd(p, a)``) divided by its content gcd; only the
        nonzero entries of the pivot row are visited.  With ``reduce`` the
        column is cleared above the pivot as well, which leaves the reduced
        row echelon form up to one scalar per row.
        """
        m = self._integer_rows()
        nrows = self.rows
        pivots = []
        r = 0
        for c in range(self.cols):
            if r == nrows:
                break
            p = next((i for i in range(r, nrows) if m[i][c]), None)
            if p is None:
                continue
            m[r], m[p] = m[p], m[r]
            piv = m[r][c]
            piv_nz = [(j, y) for j, y in enumerate(m[r]) if y]
            for i in range(0 if reduce else r + 1, nrows):
                a = m[i][c]
                if not a or i == r:
                    continue
                g = gcd(piv, a)
                s, t = piv // g, a // g
                row = [s * x for x in m[i]] if s != 1 else m[i]
                for j, y in piv_nz:
                    row[j] -= t * y
                g = gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
            pivots.append(c)
            r += 1
        return m, pivots

    def rank(self) -> int:
        """Rank over Q: the pivot count of the forward elimination."""
        return len(self._eliminate(reduce=False)[1])

    def rref(self):
        """Reduced row echelon form over Q.

        Returns ``(rref_matrix, pivot_columns)``; deterministic (topmost row
        with a nonzero entry becomes the pivot, and the form is unique).
        """
        m, pivots = self._eliminate(reduce=True)
        out = []
        for row, c in zip(m, pivots):
            d = row[c]
            out.append([Fraction(x, d) if x else _ZERO for x in row])
        out.extend([_ZERO] * self.cols for _ in range(self.rows - len(pivots)))
        return RatMatrix(self.rows, self.cols, out), pivots

    def kernel_basis(self) -> "RatMatrix":
        """Columns form a basis of {v : self @ v = 0}."""
        R, pivots = self.rref()
        pivset = set(pivots)
        free = [c for c in range(self.cols) if c not in pivset]
        cols = []
        for f in free:
            v = [Fraction(0)] * self.cols
            v[f] = Fraction(1)
            for i, p in enumerate(pivots):
                v[p] = -R.entries[i][f]
            cols.append(v)
        return RatMatrix(
            self.cols, len(cols), [[cols[j][i] for j in range(len(cols))] for i in range(self.cols)]
        )

    def column_space_basis(self) -> "RatMatrix":
        """Pivot columns of the matrix: a basis of the column span."""
        _, pivots = self.rref()
        return self.take_columns(pivots)

    def solve(self, rhs: "RatMatrix"):
        """Solve ``self @ X = rhs``; returns one solution or None.

        ``rhs`` may have several columns; solved simultaneously.
        """
        if rhs.rows != self.rows:
            raise ValueError("rhs row count mismatch")
        aug = self.hstack(rhs)
        R, pivots = aug.rref()
        # a pivot in the rhs block means inconsistency
        if any(p >= self.cols for p in pivots):
            return None
        sol = [[Fraction(0)] * rhs.cols for _ in range(self.cols)]
        for i, p in enumerate(pivots):
            for j in range(rhs.cols):
                sol[p][j] = R.entries[i][self.cols + j]
        return RatMatrix(self.cols, rhs.cols, sol)

    def inverse(self) -> "RatMatrix":
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        sol = self.solve(RatMatrix.identity(self.rows))
        if sol is None or (self @ sol) != RatMatrix.identity(self.rows):
            raise ValueError("matrix is singular")
        return sol

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and self == self.transpose()


def assemble_blocks(row_dims, col_dims, blocks) -> RatMatrix:
    """Build a matrix from a sparse dict ``(block_row, block_col) -> RatMatrix``."""
    rows, cols = sum(row_dims), sum(col_dims)
    roff = [0]
    for d in row_dims:
        roff.append(roff[-1] + d)
    coff = [0]
    for d in col_dims:
        coff.append(coff[-1] + d)
    out = [[Fraction(0)] * cols for _ in range(rows)]
    for (bi, bj), m in blocks.items():
        if m.rows != row_dims[bi] or m.cols != col_dims[bj]:
            raise ValueError(f"block ({bi},{bj}) has shape {m.rows}x{m.cols}")
        for i in range(m.rows):
            for j in range(m.cols):
                out[roff[bi] + i][coff[bj] + j] = m.entries[i][j]
    return RatMatrix(rows, cols, out)


def rank(m: RatMatrix) -> int:
    return m.rank()


def kernel(m: RatMatrix) -> "Subspace":
    return Subspace(m.cols, m.kernel_basis())


def image(m: RatMatrix) -> "Subspace":
    return Subspace(m.rows, m.column_space_basis())


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^ambient_dim spanned by the (independent) basis columns."""

    ambient_dim: int
    basis: RatMatrix

    def __post_init__(self):
        if self.basis.rows != self.ambient_dim:
            raise ValueError("basis rows must equal ambient dimension")
        if self.basis.rank() != self.basis.cols:
            raise ValueError("basis columns must be linearly independent")

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, RatMatrix.zeros(ambient_dim, 0))

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, RatMatrix.identity(ambient_dim))

    @staticmethod
    def spanned_by(ambient_dim: int, generators: RatMatrix) -> "Subspace":
        """Span of arbitrary generator columns (dependencies dropped)."""
        if generators.rows != ambient_dim:
            raise ValueError("generator rows must equal ambient dimension")
        return Subspace(ambient_dim, generators.column_space_basis())

    @property
    def dim(self) -> int:
        return self.basis.cols

    def contains_vector(self, vec) -> bool:
        rhs = RatMatrix.column(vec)
        return self.basis.solve(rhs) is not None

    def contains(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimensions differ")
        if other.dim == 0:
            return True
        stacked = self.basis.hstack(other.basis)
        return stacked.rank() == self.dim

    def intersection(self, other: "Subspace") -> "Subspace":
        """Kernel of the stacked basis matrix, pushed back into the ambient."""
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimensions differ")
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient_dim)
        stacked = self.basis.hstack(other.basis.scale(-1))
        ker = stacked.kernel_basis()
        coeffs = RatMatrix(
            self.dim, ker.cols, [ker.entries[i] for i in range(self.dim)]
        )
        return Subspace.spanned_by(self.ambient_dim, self.basis @ coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.dim == other.dim
            and self.contains(other)
        )


class QuotientSpace:
    """numerator / denominator inside Q^ambient_dim.

    The quotient basis completes the denominator basis to a basis of the
    numerator by pivoted elimination over the numerator's own columns, so two
    runs on equal inputs pick identical representatives.
    """

    def __init__(self, ambient_dim: int, numerator: Subspace, denominator: Subspace):
        if numerator.ambient_dim != ambient_dim or denominator.ambient_dim != ambient_dim:
            raise ValueError("ambient dimensions differ")
        if not numerator.contains(denominator):
            raise NotWellDefined("denominator is not contained in numerator")
        self.ambient_dim = ambient_dim
        self.numerator = numerator
        self.denominator = denominator
        # columns of the numerator basis that extend the denominator basis
        stacked = denominator.basis.hstack(numerator.basis)
        _, pivots = stacked.rref()
        chosen = [p - denominator.basis.cols for p in pivots if p >= denominator.basis.cols]
        self.lift = numerator.basis.take_columns(chosen)
        self._solver = denominator.basis.hstack(self.lift)

    @property
    def dim(self) -> int:
        return self.numerator.dim - self.denominator.dim

    def coords(self, vec):
        """Coordinates of an ambient vector (must lie in the numerator)."""
        sol = self._solver.solve(RatMatrix.column(vec))
        if sol is None:
            raise NotWellDefined("vector does not lie in the numerator subspace")
        return [sol.entries[self.denominator.dim + i][0] for i in range(self.dim)]

    def coords_matrix(self, vectors: RatMatrix) -> RatMatrix:
        """Column-wise ``coords`` for a matrix of ambient vectors."""
        sol = self._solver.solve(vectors)
        if sol is None:
            raise NotWellDefined("some vector does not lie in the numerator subspace")
        d = self.denominator.dim
        return RatMatrix(
            self.dim,
            vectors.cols,
            [sol.entries[d + i] for i in range(self.dim)],
        )

    def __repr__(self):
        return f"QuotientSpace(dim={self.dim} in Q^{self.ambient_dim})"


def induced_map(m: RatMatrix, src: QuotientSpace, dst: QuotientSpace) -> RatMatrix:
    """Matrix of the map induced by ``m`` on quotient bases.

    Raises ``NotWellDefined`` unless ``m`` carries src.numerator into
    dst.numerator and src.denominator into dst.denominator (rank-tested).
    """
    if m.cols != src.ambient_dim or m.rows != dst.ambient_dim:
        raise ValueError("matrix shape does not match the ambient spaces")
    if src.numerator.dim and not dst.numerator.contains(
        Subspace.spanned_by(dst.ambient_dim, m @ src.numerator.basis)
    ):
        raise NotWellDefined("map does not preserve numerators")
    if src.denominator.dim and not dst.denominator.contains(
        Subspace.spanned_by(dst.ambient_dim, m @ src.denominator.basis)
    ):
        raise NotWellDefined("map does not preserve denominators")
    if src.dim == 0 or dst.ambient_dim == 0:
        return RatMatrix.zeros(dst.dim, src.dim)
    return dst.coords_matrix(m @ src.lift)


def signature(sym: RatMatrix):
    """Inertia ``(n_plus, n_minus, n_zero)`` of a symmetric matrix.

    Exact symmetric congruence diagonalization (simultaneous row and column
    operations); Sylvester's law makes the result basis-independent.
    """
    if not sym.is_symmetric():
        raise NotSymmetric("signature requires a symmetric matrix")
    n = sym.rows
    m = [list(row) for row in sym.entries]

    def swap(i, j):
        m[i], m[j] = m[j], m[i]
        for row in m:
            row[i], row[j] = row[j], row[i]

    def add_into(i, j, f):
        # row_i += f*row_j followed by col_i += f*col_j keeps symmetry
        m[i] = [a + f * b for a, b in zip(m[i], m[j])]
        for row in m:
            row[i] = row[i] + f * row[j]

    n_plus = n_minus = 0
    k = 0
    while k < n:
        if m[k][k] == 0:
            p = next((i for i in range(k + 1, n) if m[i][i] != 0), None)
            if p is not None:
                swap(k, p)
            else:
                pair = next(
                    (
                        (a, b)
                        for a in range(k, n)
                        for b in range(a + 1, n)
                        if m[a][b] != 0
                    ),
                    None,
                )
                if pair is None:
                    break  # remaining block is zero
                a, b = pair
                add_into(a, b, Fraction(1))  # makes m[a][a] = 2*m[a][b] != 0
                if a != k:
                    swap(k, a)
        d = m[k][k]
        if d > 0:
            n_plus += 1
        else:
            n_minus += 1
        for i in range(k + 1, n):
            if m[i][k] != 0:
                add_into(i, k, -m[i][k] / d)
        k += 1
    return n_plus, n_minus, n - n_plus - n_minus


def is_definite(sym: RatMatrix) -> bool:
    p, m, z = signature(sym)
    return z == 0 and (p == 0 or m == 0)
