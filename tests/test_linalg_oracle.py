"""``RatMatrix`` products and elimination against sympy as an exact oracle.

sympy is used by these tests only; the package itself stays stdlib-only.
Inputs are rational matrices of every shape up to 8 x 8, of every density,
with denominators up to 7, and with some rows forced to be rational
combinations of earlier rows, so that rank deficiency is common.  Product
factors are also zero, identities, signed permutations and rows of at most
one entry, the shapes the product takes apart, and a product that shares
rows of its right factor is checked to leave that factor unchanged under
every operation that clears rows.  A zero matrix is one shared instance per
shape, and every operation with a zero or empty operand is checked to
return the shared zero or the other operand, equal to the general result.  The
symmetric inputs of the signature test are ``A + A^T``, the same with its
diagonal set to zero, and ``B^T D B`` for such ``A`` and ``B`` and a diagonal
``D``, so that zero diagonals and low ranks are common too.  Structured
cases up to 257 rows, where fill-in and the order of elimination matter,
are cycle incidences, long bidiagonal chains in both row orders, a cycle
with a dense last column, a dense first column in both row orders, zero
rows and columns, tall and wide shapes, dense multi-digit rationals whose
rows share content, and a 64-cycle with an identity block beside it, whose
64 free columns a solve and a kernel must get right.  The 257-cycle beside
an identity block, where one entering row hops across every pivot column
and gains an entry per hop, has a test of its own.  Symmetric matrices of
known inertia up to 2,000 rows (a diagonal of alternating signs, hyperbolic
planes, and the Laplacians of a path and of a cycle, the latter also
negated) pin the signature and how many rows its pivots clear.  The
quotient tests draw flags ``denominator ⊂ numerator``, each built through
the one constructor in the coordinates of the numerator's first independent
rows (flags that are sometimes not nested go to the reference model's
containment check), and maps and pairings that are drawn at random or built in bases
adapted to the flags so that they descend; sympy's ranks decide which is
which.  Every result that is compared is also checked to equal, and hash
like, the same entries loaded afresh, so that equal values always have
equal storage.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import GeneralQuotient, quotient_of
from ssweight import linalg
from ssweight.errors import NotWellDefined
from ssweight.linalg import (
    QuotientSpace,
    RatMatrix,
    Subspace,
    assemble_blocks,
    induced_map,
    induced_pairing,
    kron,
    signature,
)

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

MAX_DIM = 8

entries = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))


@st.composite
def grids(draw, rows, cols):
    """A rows x cols grid of Fractions with a drawn density and forced
    dependent rows."""
    density = draw(st.integers(0, 100))
    grid = [
        [draw(entries) if draw(st.integers(1, 100)) <= density else Fraction(0) for _ in range(cols)]
        for _ in range(rows)
    ]
    for k in range(1, rows):
        if draw(st.integers(0, 3)) == 0:
            i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
            a, b = draw(entries), draw(entries)
            grid[k] = [a * x + b * y for x, y in zip(grid[i], grid[j])]
    return grid


@st.composite
def matrices(draw, rows=None, cols=None):
    rows = draw(st.integers(0, MAX_DIM)) if rows is None else rows
    cols = draw(st.integers(0, MAX_DIM)) if cols is None else cols
    return RatMatrix(rows, cols, draw(grids(rows, cols)))


@st.composite
def factors(draw, rows, cols):
    """A drawn matrix, or a factor of a shape the product takes apart: zero,
    an identity or a signed permutation (in its first rows and columns when
    not square), or rows of at most one entry, 1 or another value."""
    kinds = ("matrix", "zero", "identity", "signed permutation", "single entries")
    kind = draw(st.sampled_from(kinds))
    if kind == "matrix":
        return draw(matrices(rows, cols))
    grid = [[Fraction(0)] * cols for _ in range(rows)]
    if kind == "identity":
        for i in range(min(rows, cols)):
            grid[i][i] = Fraction(1)
    elif kind == "signed permutation":
        for i, j in zip(range(rows), draw(st.permutations(range(cols)))):
            grid[i][j] = draw(st.sampled_from((Fraction(1), Fraction(-1))))
    elif kind == "single entries" and cols:
        for row in grid:
            if draw(st.booleans()):
                row[draw(st.integers(0, cols - 1))] = draw(st.just(Fraction(1)) | entries)
    return RatMatrix(rows, cols, grid)


@st.composite
def products(draw):
    r, k, c = (draw(st.integers(0, MAX_DIM)) for _ in range(3))
    square = draw(st.sampled_from(("neither", "left", "right")))
    if square == "left":
        r = k
    elif square == "right":
        c = k
    return draw(factors(r, k)), draw(factors(k, c))


@st.composite
def square_matrices(draw):
    n = draw(st.integers(0, MAX_DIM))
    return draw(matrices(n, n))


def nonzeros(m: RatMatrix) -> dict:
    """The nonzero entries of ``m`` by ``(row, column)``."""
    return {(i, j): x for i, row in enumerate(m.entries) for j, x in enumerate(row) if x}


def to_sympy(m: RatMatrix):
    """``m`` as a dense sympy matrix, built from its nonzero entries."""
    nonzero = {ij: sympy_rational(x) for ij, x in nonzeros(m).items()}
    return sympy.Matrix(sympy.SparseMatrix(m.rows, m.cols, nonzero))


def sympy_rational(x: Fraction):
    return sympy.Rational(x.numerator, x.denominator)


def from_sympy(s) -> tuple:
    """Dense rows of ``s`` as a tuple of tuples, the form of ``RatMatrix.entries``."""
    return tuple(
        tuple(Fraction(int(s[i, j].p), int(s[i, j].q)) for j in range(s.cols)) for i in range(s.rows)
    )


def canonical(m: RatMatrix) -> RatMatrix:
    """``m``, checked equal and hash-equal to its entries loaded afresh."""
    fresh = RatMatrix(m.rows, m.cols, m.entries)
    assert m == fresh and hash(m) == hash(fresh)
    return m


@given(products())
@settings(max_examples=150, deadline=None)
def test_product_matches_sympy(ab):
    a, b = ab
    prod = canonical(a @ b)
    assert (prod.rows, prod.cols) == (a.rows, b.cols)
    assert prod.entries == from_sympy(to_sympy(a) * to_sympy(b))
    assert all(type(x) is Fraction for row in prod.entries for x in row)


@given(matrices())
@settings(max_examples=200, deadline=None)
def test_rank_matches_sympy(m):
    assert m.rank() == to_sympy(m).rank()


@given(matrices())
@settings(max_examples=200, deadline=None)
def test_rref_matches_sympy(m):
    R, pivots = m.rref()
    canonical(R)
    expected, expected_pivots = to_sympy(m).rref()
    assert pivots == list(expected_pivots)
    assert R.entries == from_sympy(expected)
    assert all(type(x) is Fraction for row in R.entries for x in row)


@given(matrices())
@settings(max_examples=200, deadline=None)
def test_pivots_are_the_rref_pivots(m):
    assert m.pivots() == m.rref()[1]


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_kernel_basis_spans_the_kernel(m):
    K = m.kernel_basis()
    assert (K.rows, K.cols) == (m.cols, m.cols - m.rank())
    assert (m @ K).is_zero()
    assert K.rank() == K.cols


@given(products())
@settings(max_examples=150, deadline=None)
def test_solve_round_trip(ax):
    a, x = ax
    rhs = a @ x
    sol = a.solve(rhs)
    assert sol is not None
    assert a @ sol == rhs


@given(matrices(), st.data())
@settings(max_examples=150, deadline=None)
def test_solve_reports_inconsistency(a, data):
    rhs = data.draw(matrices(rows=a.rows, cols=1))
    consistent = to_sympy(a).row_join(to_sympy(rhs)).rank() == to_sympy(a).rank()
    sol = a.solve(rhs)
    assert (sol is not None) == consistent
    if sol is not None:
        assert a @ sol == rhs


@given(square_matrices())
@settings(max_examples=150, deadline=None)
def test_inverse_round_trip(m):
    n = m.rows
    if to_sympy(m).rank() < n:
        with pytest.raises(ValueError):
            m.inverse()
        return
    inv = canonical(m.inverse())
    assert inv.entries == from_sympy(to_sympy(m).inv())
    assert m @ inv == RatMatrix.identity(n)
    assert inv @ m == RatMatrix.identity(n)


@st.composite
def symmetric_matrices(draw):
    n = draw(st.integers(0, MAX_DIM))
    kind = draw(st.sampled_from(("sum", "zero-diagonal", "gram")))
    if kind != "gram":
        a = draw(matrices(n, n))
        s = a + a.transpose()
        if kind == "sum":
            return s
        return RatMatrix(n, n, [[0 if i == j else x for j, x in enumerate(row)] for i, row in enumerate(s.entries)])
    k = draw(st.integers(0, MAX_DIM))
    b = draw(matrices(k, n))
    d = RatMatrix(k, k, [[draw(entries) if i == j else 0 for j in range(k)] for i in range(k)])
    return b.transpose() @ d @ b


def sign_changes(coeffs) -> int:
    nonzero = [c for c in coeffs if c != 0]
    return sum(1 for x, y in zip(nonzero, nonzero[1:]) if (x > 0) != (y > 0))


def descartes_inertia(m: RatMatrix):
    """``(n_plus, n_minus, n_zero)`` from the characteristic polynomial.

    Every root of a real symmetric matrix's characteristic polynomial is real,
    so Descartes' rule of signs counts the positive roots exactly, and on
    ``p(-x)`` the negative ones; the zero roots are the trailing zero
    coefficients.
    """
    coeffs = to_sympy(m).charpoly().all_coeffs()  # leading coefficient first
    n = len(coeffs) - 1
    n_zero = len(coeffs) - len(list(itertools.dropwhile(lambda c: c == 0, reversed(coeffs))))
    reflected = [c * (-1) ** (n - i) for i, c in enumerate(coeffs)]
    return sign_changes(coeffs), sign_changes(reflected), n_zero


@given(symmetric_matrices())
@settings(max_examples=200, deadline=None)
def test_signature_matches_descartes(m):
    assert m.is_symmetric()
    inertia = signature(m)
    assert inertia == descartes_inertia(m)
    assert inertia[0] + inertia[1] == to_sympy(m).rank()


# -- structured cases: long chains, cycles and fill-in ----------------------------


def from_entries(rows: int, cols: int, entries: dict) -> RatMatrix:
    """The matrix with ``entries[(i, j)]`` at ``(i, j)`` and zeros elsewhere."""
    grid = [[Fraction(0)] * cols for _ in range(rows)]
    for (i, j), x in entries.items():
        grid[i][j] = x
    return RatMatrix(rows, cols, grid)


def cycle(n: int) -> RatMatrix:
    """Incidence of the n-cycle, edges by vertices: row i is e_i - e_{i+1 mod n}."""
    entries = {}
    for i in range(n):
        entries[(i, i)] = Fraction(1)
        entries[(i, (i + 1) % n)] = Fraction(-1)
    return from_entries(n, n, entries)


def weight(i: int) -> Fraction:
    """A nonzero rational that varies with ``i``."""
    return Fraction((-1) ** i * (i % 7 + 1), i % 5 + 1)


def bidiagonal(n: int, reverse: bool = False) -> RatMatrix:
    """n x (n + 1): row i has weight(i) at column i and weight(i + 3) at
    column i + 1; ``reverse`` lists the rows last first."""
    order = range(n - 1, -1, -1) if reverse else range(n)
    entries = {}
    for r, i in enumerate(order):
        entries[(r, i)] = weight(i)
        entries[(r, i + 1)] = weight(i + 3)
    return from_entries(n, n + 1, entries)


def dense_last_column(n: int) -> RatMatrix:
    """The n-cycle's incidence with a column of nonzero entries appended:
    every row clears into the last column, which fills in on every step."""
    c = cycle(n)
    entries = nonzeros(c)
    entries.update({(i, n): weight(i) for i in range(n)})
    return from_entries(n, n + 1, entries)


def fan(n: int, reverse: bool = False) -> RatMatrix:
    """n x (n + 1): row k has weight(k) at column 0 and 1 at column k + 1, as
    a stacked pair of bases has; ``reverse`` lists the rows last first."""
    order = range(n - 1, -1, -1) if reverse else range(n)
    entries = {}
    for r, k in enumerate(order):
        entries[(r, 0)] = weight(k)
        entries[(r, k + 1)] = Fraction(1)
    return from_entries(n, n + 1, entries)


def dense_rational(rows: int, cols: int, seed: int) -> RatMatrix:
    """A seeded dense matrix of multi-digit rationals; every third row is a
    combination of two earlier ones and every fourth a multiple of one, so
    rows entering the elimination carry content to divide out."""
    rng = random.Random(seed)
    big = lambda: Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**4))
    grid = [[big() for _ in range(cols)] for _ in range(rows)]
    for k in range(2, rows):
        if k % 3 == 2:
            a, b = rng.randrange(k), rng.randrange(k)
            grid[k] = [big() * x + big() * y for x, y in zip(grid[a], grid[b])]
        elif k % 4 == 3:
            c = Fraction(rng.randrange(2, 10**6))
            grid[k] = [c * x for x in grid[rng.randrange(k)]]
    return RatMatrix(rows, cols, grid)


def padded(m: RatMatrix, zero_rows, zero_cols) -> RatMatrix:
    """``m`` with zero rows and zero columns put in at the given positions of
    the result."""
    rows = [i for i in range(m.rows + len(zero_rows)) if i not in zero_rows]
    cols = [j for j in range(m.cols + len(zero_cols)) if j not in zero_cols]
    entries = {(rows[i], cols[j]): x for (i, j), x in nonzeros(m).items()}
    return from_entries(m.rows + len(zero_rows), m.cols + len(zero_cols), entries)


def sparse_random(rows: int, cols: int, seed: int) -> RatMatrix:
    """A seeded sparse matrix with every third row a combination of two earlier ones."""
    rng = random.Random(seed)
    grid = [
        [weight(rng.randrange(35)) if rng.random() < 0.3 else Fraction(0) for _ in range(cols)]
        for _ in range(rows)
    ]
    for k in range(2, rows, 3):
        a, b = rng.randrange(k), rng.randrange(k)
        grid[k] = [weight(k) * x + weight(k + 1) * y for x, y in zip(grid[a], grid[b])]
    return RatMatrix(rows, cols, grid)


STRUCTURED = {
    **{f"cycle:{n}": (lambda n=n: cycle(n)) for n in (3, 64, 257)},
    **{f"cycle:{n}^T": (lambda n=n: cycle(n).transpose()) for n in (3, 64, 257)},
    "bidiagonal:200": lambda: bidiagonal(200),
    "bidiagonal:200^T": lambda: bidiagonal(200).transpose(),
    "bidiagonal:200 reversed": lambda: bidiagonal(200, reverse=True),
    "dense-last-column:120": lambda: dense_last_column(120),
    "dense-last-column:120^T": lambda: dense_last_column(120).transpose(),
    "dense-rational:14x16": lambda: dense_rational(14, 16, 4),
    "dense-rational:16x12^T": lambda: dense_rational(16, 12, 5).transpose(),
    "cycle:64 beside identity": lambda: cycle(64).hstack(RatMatrix.identity(64)),
    "dense-first-column:200": lambda: fan(200),
    "dense-first-column:200 reversed": lambda: fan(200, reverse=True),
    "zero rows and columns": lambda: padded(cycle(64), {0, 9, 33, 66}, {0, 5, 40, 67}),
    "zero:4x6": lambda: RatMatrix.zeros(4, 6),
    "zero:0x5": lambda: RatMatrix.zeros(0, 5),
    "zero:5x0": lambda: RatMatrix.zeros(5, 0),
    "tall:60x7": lambda: sparse_random(60, 7, 1),
    "wide:7x60": lambda: sparse_random(7, 60, 2),
    "wide:12x40 with zero rows": lambda: padded(sparse_random(9, 40, 3), {0, 4, 11}, set()),
}


@pytest.fixture(params=sorted(STRUCTURED), scope="module")
def structured(request):
    m = STRUCTURED[request.param]()
    return m, to_sympy(m)


def test_structured_rank_pivots_and_rref_match_sympy(structured):
    m, s = structured
    expected, expected_pivots = s.rref()
    assert m.rank() == DomainMatrix.from_Matrix(s).rank() == len(expected_pivots)
    assert m.pivots() == list(expected_pivots)
    R, pivots = m.rref()
    assert pivots == list(expected_pivots)
    assert canonical(R).entries == from_sympy(expected)


def test_structured_kernel_basis_matches_sympy(structured):
    m, s = structured
    # both put 1 at one free column and 0 at the others of each basis vector
    expected = s.nullspace()
    K = canonical(m.kernel_basis())
    assert (K.rows, K.cols) == (m.cols, len(expected))
    if expected:
        assert K.entries == from_sympy(sympy.Matrix.hstack(*expected))


def test_structured_column_space_basis_matches_sympy(structured):
    m, s = structured
    # both keep the pivot columns of the matrix itself (sympy's own
    # ``columnspace`` takes minutes on the 257-cycle)
    pivots = list(DomainMatrix.from_Matrix(s).rref()[1])
    B = canonical(m.column_space_basis())
    assert (B.rows, B.cols) == (m.rows, len(pivots))
    assert B.entries == from_sympy(s.extract(list(range(m.rows)), pivots))


def test_structured_solve_matches_sympy(structured):
    m, s = structured
    x = RatMatrix(m.cols, 2, [[weight(j), weight(j + 1) if j % 3 else 0] for j in range(m.cols)])
    rhs = m @ x
    sol = m.solve(rhs)
    assert sol is not None and m @ sol == rhs
    # sympy's particular solution, 0 on every free column as ``solve`` gives:
    # the rhs block of the reduced row of each pivot of ``[m | rhs]``
    R, pivots = DomainMatrix.from_Matrix(s.row_join(to_sympy(rhs))).to_field().rref()
    R = R.to_Matrix()
    expected = sympy.zeros(m.cols, rhs.cols)
    for i, p in enumerate(pivots):
        expected[p, :] = R[i, m.cols :]
    assert canonical(sol).entries == from_sympy(expected)
    # a nonzero vector orthogonal to the image is not in it
    left = s.T.nullspace()
    if left:
        assert m.solve(RatMatrix(m.rows, 1, from_sympy(left[0]))) is None


def test_cycle_beside_identity_matches_sympy():
    # the [denominator | numerator] shape of a cycle's quotient: the last
    # row enters before the first, which is cleared against it at column 0
    # and then at every later pivot column, each time gaining a column of
    # the identity
    n = 257
    m = cycle(n).hstack(RatMatrix.identity(n))
    expected, expected_pivots = DomainMatrix.from_Matrix(to_sympy(m)).to_field().rref()
    assert m.pivots() == list(expected_pivots) == [*range(n - 1), n]
    R, pivots = m.rref()
    assert pivots == list(expected_pivots)
    assert canonical(R).entries == from_sympy(expected.to_Matrix())
    K = canonical(m.kernel_basis())
    assert K.entries == from_sympy(sympy.Matrix.hstack(*to_sympy(m).nullspace()))
    x = RatMatrix(2 * n, 1, [[weight(j)] for j in range(2 * n)])
    sol = m.solve(m @ x)
    assert m @ sol == m @ x
    # 0 on every free column, as sympy's solution with its parameters 0
    assert all(not any(sol.entries[j]) for j in set(range(2 * n)) - set(pivots))


def path(n: int) -> RatMatrix:
    """Incidence of the n-path, edges by vertices: row i is e_i - e_{i+1}."""
    return from_entries(n - 1, n, {(i, i + d): Fraction((-1) ** d) for i in range(n - 1) for d in (0, 1)})


def diagonal(values) -> RatMatrix:
    n = len(values)
    return RatMatrix.from_rows([[x if i == j else 0 for j in range(n)] for i, x in enumerate(values)])


def laplacian(incidence: RatMatrix) -> RatMatrix:
    return incidence.transpose() @ incidence


# symmetric matrices of known inertia, too large for the charpoly oracle, and
# the calls to ``_clear`` that ``signature`` may make on them: none where each
# pivot row meets no other row, one per edge of a path, and at most two per
# pivot on a cycle, whose last row meets every pivot row
STRUCTURED_SIGNATURES = {
    "alternating-diagonal-2000": (
        lambda: kron(RatMatrix.identity(200), diagonal([1, -2, 3, -4, 5, -1, 2, -3, 4, -5])),
        (1000, 1000, 0),
        range(1),
    ),
    "hyperbolic-planes-64": (
        lambda: kron(RatMatrix.identity(64), RatMatrix.from_rows([[0, 1], [1, 0]])),
        (64, 64, 0),
        range(1),
    ),
    "path-laplacian-257": (lambda: laplacian(path(257)), (256, 0, 1), range(256, 257)),
    "cycle-laplacian-257": (lambda: laplacian(cycle(257)), (256, 0, 1), range(2 * 257 + 1)),
    "negated-cycle-laplacian-257": (lambda: -laplacian(cycle(257)), (0, 256, 1), range(2 * 257 + 1)),
}


@pytest.mark.parametrize("name", sorted(STRUCTURED_SIGNATURES))
def test_structured_signature_clears_only_the_rows_a_pivot_meets(monkeypatch, name):
    build, inertia, clears = STRUCTURED_SIGNATURES[name]
    m = build()
    calls = []
    clear = linalg._clear

    def counting(row, c, q):
        calls.append(c)
        clear(row, c, q)

    monkeypatch.setattr(linalg, "_clear", counting)
    assert signature(m) == inertia
    assert len(calls) in clears


# -- quotients -------------------------------------------------------------------

FLAG_DIM = 5


@st.composite
def flags(draw, nested=True):
    """``(ambient, numerator, denominator)``, with bases in Q^ambient; the
    denominator is spanned by combinations of numerator columns unless
    ``nested`` is False and a draw makes it arbitrary."""
    amb = draw(st.integers(1, FLAG_DIM))
    k = draw(st.integers(1, amb))
    num = draw(matrices(amb, k))
    if draw(st.booleans()):  # most often of dimension k
        num = num + RatMatrix.identity(amb).take_columns(range(k))
    num = num.column_space_basis()
    if nested or draw(st.booleans()):
        den = num @ draw(matrices(num.cols, draw(st.integers(0, num.cols))))
    else:
        den = draw(matrices(amb, draw(st.integers(0, FLAG_DIM))))
    return amb, num, den.column_space_basis()


def rank_of(*blocks) -> int:
    """sympy rank of the blocks joined side by side."""
    joined = to_sympy(blocks[0])
    for b in blocks[1:]:
        joined = joined.row_join(to_sympy(b))
    return joined.rank()


def inside(small: RatMatrix, big: RatMatrix) -> bool:
    return rank_of(big, small) == rank_of(big)


def quotient(flag) -> QuotientSpace:
    _, num, den = flag
    return quotient_of(num, den)


def completed(q: QuotientSpace) -> RatMatrix:
    """``q.basis`` followed by coordinate vectors: an invertible matrix."""
    return q.basis.hstack(RatMatrix.identity(q.ambient_dim)).column_space_basis()


@given(flags(nested=False))
@settings(max_examples=100, deadline=None)
def test_quotient_needs_a_nested_flag(flag):
    # the reference model refuses a denominator outside the numerator; the
    # one constructor, which takes that on trust, is given nested flags only
    amb, num, den = flag
    if not inside(den, num):
        with pytest.raises(NotWellDefined):
            GeneralQuotient(amb, Subspace(amb, num), Subspace(amb, den))
        return
    q = quotient(flag)
    assert q.dim == rank_of(num) - rank_of(den)
    assert rank_of(q.basis) == q.basis.cols == num.cols
    assert inside(q.basis, num)
    assert q.basis.take_columns(range(den.cols)) == den


@given(flags(), flags(), st.sampled_from(("random", "numerators", "flags")), st.data())
@settings(max_examples=150, deadline=None)
def test_induced_map_matches_sympy(src_flag, dst_flag, kind, data):
    src, dst = quotient(src_flag), quotient(dst_flag)
    if kind == "random":
        m = data.draw(matrices(dst.ambient_dim, src.ambient_dim))
    else:
        # images of the adapted source basis: the denominator into the
        # denominator ("flags") or only into the numerator, the lift into the
        # numerator, the completing vectors anywhere
        d, k = src.denominator.dim, src.numerator.dim
        den = dst.denominator.basis if kind == "flags" else dst.basis
        images = den @ data.draw(matrices(den.cols, d))
        images = images.hstack(dst.basis @ data.draw(matrices(dst.basis.cols, k - d)))
        images = images.hstack(data.draw(matrices(dst.ambient_dim, src.ambient_dim - k)))
        m = images @ completed(src).inverse()
    descends = inside(m @ src.numerator.basis, dst.numerator.basis) and inside(
        m @ src.denominator.basis, dst.denominator.basis
    )
    if not descends:
        with pytest.raises(NotWellDefined):
            induced_map(m, src, dst)
        return
    f = induced_map(m, src, dst)
    assert (f.rows, f.cols) == (dst.dim, src.dim)
    assert inside(m @ src.lift - dst.lift @ f, dst.denominator.basis)


@given(flags(), flags(), st.sampled_from(("random", "left", "right", "both")), st.data())
@settings(max_examples=150, deadline=None)
def test_induced_pairing_matches_sympy(left_flag, right_flag, kind, data):
    left, right = quotient(left_flag), quotient(right_flag)
    p = data.draw(matrices(left.ambient_dim, right.ambient_dim))
    if kind != "random":
        # ``p`` read in the adapted bases, with zero blocks where the left
        # denominator meets the right numerator ("left"), the left numerator
        # meets the right denominator ("right"), or both
        dl, dr = left.denominator.dim, right.denominator.dim
        kl, kr = left.numerator.dim, right.numerator.dim
        g = [list(row) for row in p.entries]
        for i, row in enumerate(g):
            for j in range(len(row)):
                if (kind != "right" and i < dl and j < kr) or (kind != "left" and j < dr and i < kl):
                    row[j] = 0
        g = RatMatrix(left.ambient_dim, right.ambient_dim, g)
        p = completed(left).inverse().transpose() @ g @ completed(right).inverse()

    def pairs_to_zero(a: RatMatrix, b: RatMatrix) -> bool:
        return (to_sympy(a).T * to_sympy(p) * to_sympy(b)).is_zero_matrix

    descends = pairs_to_zero(left.denominator.basis, right.numerator.basis) and pairs_to_zero(
        left.numerator.basis, right.denominator.basis
    )
    gram = induced_pairing(p, left, right)
    assert (gram is not None) == descends
    if gram is not None:
        expected = to_sympy(left.lift).T * to_sympy(p) * to_sympy(right.lift)
        assert gram.entries == from_sympy(expected)


# -- structure, canonical form and the schema boundary -------------------------------


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_structural_operations_match_sympy(data):
    r, c = data.draw(st.integers(0, MAX_DIM)), data.draw(st.integers(0, MAX_DIM))
    a, b = data.draw(matrices(r, c)), data.draw(matrices(r, c))
    sa, sb = to_sympy(a), to_sympy(b)
    x = data.draw(entries)
    right = data.draw(matrices(r, data.draw(st.integers(0, MAX_DIM))))
    idx = data.draw(st.lists(st.integers(0, c - 1), max_size=MAX_DIM)) if c else []
    for got, expected in [
        (a + b, sa + sb),
        (a - b, sa - sb),
        (-a, -sa),
        (a.scale(x), sa * sympy_rational(x)),
        (a.transpose(), sa.T),
        (a.hstack(right), sa.row_join(to_sympy(right))),
        (a.take_columns(idx), sa.extract(list(range(r)), idx)),
    ]:
        assert canonical(got).entries == from_sympy(expected)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_kron_matches_sympy(data):
    a, b = (data.draw(matrices(*(data.draw(st.integers(1, 4)) for _ in range(2)))) for _ in range(2))
    got = canonical(kron(a, b))
    assert got.entries == from_sympy(sympy.kronecker_product(to_sympy(a), to_sympy(b)))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_assemble_blocks_matches_sympy(data):
    dims = st.lists(st.integers(0, 3), min_size=1, max_size=3)
    rows = list(enumerate(data.draw(dims)))
    cols = list(enumerate(data.draw(dims)))
    blocks = {
        (i, j): data.draw(matrices(dr, dc))
        for i, dr in rows
        for j, dc in cols
        if data.draw(st.booleans())
    }
    # a block naming an unlisted summand is dropped, whatever its entries
    blocks[(len(rows), 0)] = RatMatrix.from_rows([["1/97"]])
    got = canonical(assemble_blocks(rows, cols, blocks))
    expected = sympy.zeros(sum(d for _, d in rows), sum(d for _, d in cols))
    for (i, j), m in blocks.items():
        if i < len(rows) and m.rows and m.cols:
            r0, c0 = sum(d for _, d in rows[:i]), sum(d for _, d in cols[:j])
            expected[r0 : r0 + m.rows, c0 : c0 + m.cols] = to_sympy(m)
    assert got.entries == from_sympy(expected)


@given(matrices(), entries.filter(bool))
@settings(max_examples=150, deadline=None)
def test_equal_values_built_by_other_routes_are_equal(a, x):
    for other in (
        a.scale(x).scale(1 / x),
        a @ RatMatrix.identity(a.cols),
        RatMatrix.identity(a.rows) @ a,
        (a + a).scale(Fraction(1, 2)),
        a - a.scale(x) + a.scale(x),
        a.transpose().transpose(),
        a.hstack(a).take_columns(range(a.cols)),
    ):
        assert other == a and hash(other) == hash(a)


def test_rows_shared_by_a_product_are_left_unchanged():
    # a row of ``a`` with the single entry 1 makes the row of ``a @ b`` the
    # row of ``b`` itself; whatever runs on the product leaves ``b`` as it was
    sym = dense_rational(6, 6, 8)
    sym = sym + sym.transpose()
    perm = from_entries(6, 6, {(i, (5 * i + 1) % 6): Fraction(1) for i in range(6)})
    tall = RatMatrix(7, 5, [[(3 * i + 5 * j) % 11 - 5 for j in range(5)] for i in range(7)])
    picks = {(0, 3): Fraction(1), (1, 0): Fraction(1), (2, 6): Fraction(-2), (3, 3): Fraction(1)}
    picks = from_entries(4, 7, picks)
    for a, b in ((perm, perm.transpose() @ sym), (picks, tall)):
        saved = RatMatrix(b.rows, b.cols, b.entries)
        c = a @ b
        assert any(row is shared for row in c._data for shared in b._data)
        c.rref(), c.kernel_basis(), c.is_symmetric()
        assert c.solve(c @ RatMatrix.identity(c.cols)) is not None
        if c.rows == c.cols:
            assert c.is_symmetric() and c @ c.inverse() == RatMatrix.identity(c.rows)
            assert sum(signature(c)) == c.rows
        assert b == saved and hash(b) == hash(saved)


ZERO_SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 3), (3, 2)]


def numbered(rows: int, cols: int) -> RatMatrix:
    """A matrix of the shape with no zero entry."""
    grid = [[Fraction(i + 2 * j + 1, j + 2) for j in range(cols)] for i in range(rows)]
    return RatMatrix(rows, cols, grid)


def fresh_zero(rows: int, cols: int) -> RatMatrix:
    """A zero matrix loaded from its entries, not the shared one."""
    return RatMatrix(rows, cols, [[0] * cols for _ in range(rows)])


def dense_product(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """``a @ b`` summed entry by entry and loaded afresh."""
    ea, eb = a.entries, b.entries
    grid = [
        [sum((ea[i][k] * eb[k][j] for k in range(a.cols)), Fraction(0)) for j in range(b.cols)]
        for i in range(a.rows)
    ]
    return RatMatrix(a.rows, b.cols, grid)


@pytest.mark.parametrize("rows, cols", ZERO_SHAPES)
def test_a_zero_is_one_shared_instance_per_shape(rows, cols):
    z = RatMatrix.zeros(rows, cols)
    assert z is RatMatrix.zeros(rows, cols)
    assert z == fresh_zero(rows, cols)
    assert all(row is linalg._EMPTY_ROW for row in z._data) and linalg._EMPTY_ROW == {}


@pytest.mark.parametrize("rows, cols", ZERO_SHAPES)
def test_zero_operands_take_the_fast_paths_to_the_general_results(rows, cols):
    # each operation with a zero operand returns the shared zero or the other
    # operand itself, without visiting a row; the result equals, in
    # denominator and rows, what the general path builds from a zero made
    # afresh: the same entries loaded afresh, as storage is canonical
    z, a = RatMatrix.zeros(rows, cols), numbered(rows, cols)
    made = fresh_zero(rows, cols)
    negated = RatMatrix(rows, cols, [[-x for x in row] for row in a.entries])
    left, right = numbered(2, rows), numbered(cols, 2)
    idx = [cols - 1, 0, cols - 1] if cols else []
    kept = a if rows and cols else None  # a sum of two zeros may return either
    for zero in (z, made):
        checks = [
            (zero @ right, dense_product(made, right), RatMatrix.zeros(rows, 2)),
            (left @ zero, dense_product(left, made), RatMatrix.zeros(2, cols)),
            (a + zero, a, kept),
            (zero + a, a, kept),
            (a - zero, a, kept),
            (zero - a, negated, None),
            (zero.scale(Fraction(-3, 4)), made, None),
            (zero.scale(0), made, z),
            (a.scale(0), made, z),
            (zero.transpose(), fresh_zero(cols, rows), RatMatrix.zeros(cols, rows)),
            (zero.take_columns(idx), fresh_zero(rows, len(idx)), RatMatrix.zeros(rows, len(idx))),
        ]
        for got, general, shared in checks:
            assert got._den == general._den and got._data == general._data
            assert (got.rows, got.cols) == (general.rows, general.cols)
            if shared is not None:
                assert got is shared
        kernel, free, pivots = zero.reduced_kernel()
        assert kernel == RatMatrix.identity(cols) and free == list(range(cols)) and pivots == []
    for side in (RatMatrix.zeros(rows, 0), fresh_zero(rows, 0)):
        assert a.hstack(side) is a and side.hstack(a) is (a if cols else side)
    assert linalg._EMPTY_ROW == {}


def test_kept_columns_sharing_a_factor_are_reduced():
    # the whole matrix is over 6; the kept columns alone over 2, 3 or 1
    a = RatMatrix.from_rows([["1/2", "1/3", "2"], ["3/2", "2/3", "-4"]])
    for idx, rows in [
        ([0], [["1/2"], ["3/2"]]),
        ([1], [["1/3"], ["2/3"]]),
        ([2], [["2"], ["-4"]]),
        ([2, 0], [["2", "1/2"], ["-4", "3/2"]]),
    ]:
        kept, fresh = a.take_columns(idx), RatMatrix.from_rows(rows)
        assert kept == fresh and hash(kept) == hash(fresh)
        assert kept.to_strings() == rows


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_boundary_round_trips(data):
    m = data.draw(matrices(rows=data.draw(st.integers(1, MAX_DIM))))
    strings = m.to_strings()
    assert strings == [[str(x) for x in row] for row in m.entries]
    assert RatMatrix.from_rows(strings) == m
    # the integer rows over the one denominator are the entries
    dense = [[Fraction(r.get(j, 0), m._den) for j in range(m.cols)] for r in m._data]
    assert all(type(x) is Fraction for row in m.entries for x in row)
    assert [list(row) for row in m.entries] == dense
    assert RatMatrix.from_rows(dense) == m
