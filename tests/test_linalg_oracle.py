"""``RatMatrix`` products and elimination against sympy as an exact oracle.

sympy is used by these tests only; the package itself stays stdlib-only.
Inputs are rational matrices of every shape up to 8 x 8, of every density,
with denominators up to 7, and with some rows forced to be rational
combinations of earlier rows, so that rank deficiency is common.  The
symmetric inputs of the signature test are ``A + A^T``, the same with its
diagonal set to zero, and ``B^T D B`` for such ``A`` and ``B`` and a diagonal
``D``, so that zero diagonals and low ranks are common too.  The quotient
tests draw flags ``denominator ⊂ numerator`` (sometimes not nested), and
maps and pairings that are drawn at random or built in bases adapted to the
flags so that they descend; sympy's ranks decide which is which.  Every
result that is compared is also checked to equal, and hash like, the same
entries loaded afresh, so that equal values always have equal storage.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssweight.errors import NotWellDefined
from ssweight.linalg import (
    QuotientSpace,
    RatMatrix,
    Subspace,
    assemble_blocks,
    format_rat,
    induced_map,
    induced_pairing,
    kron,
    signature,
)
from ssweight.strata import _matrix_json

sympy = pytest.importorskip("sympy")

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
def products(draw):
    r, k, c = (draw(st.integers(0, MAX_DIM)) for _ in range(3))
    return draw(matrices(r, k)), draw(matrices(k, c))


@st.composite
def square_matrices(draw):
    n = draw(st.integers(0, MAX_DIM))
    return draw(matrices(n, n))


def to_sympy(m: RatMatrix):
    return sympy.Matrix(
        m.rows, m.cols, [sympy.Rational(x.numerator, x.denominator) for row in m.entries for x in row]
    )


def from_sympy(s) -> list:
    return [[Fraction(int(s[i, j].p), int(s[i, j].q)) for j in range(s.cols)] for i in range(s.rows)]


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
    assert prod.to_lists() == from_sympy(to_sympy(a) * to_sympy(b))
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
    assert R.to_lists() == from_sympy(expected)
    assert all(type(x) is Fraction for row in R.entries for x in row)


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
    assert inv.to_lists() == from_sympy(to_sympy(m).inv())
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
    amb, num, den = flag
    return QuotientSpace(amb, Subspace(amb, num), Subspace(amb, den))


def completed(q: QuotientSpace) -> RatMatrix:
    """``q.basis`` followed by coordinate vectors: an invertible matrix."""
    return q.basis.hstack(RatMatrix.identity(q.ambient_dim)).column_space_basis()


@given(flags(nested=False))
@settings(max_examples=100, deadline=None)
def test_quotient_needs_a_nested_flag(flag):
    amb, num, den = flag
    if not inside(den, num):
        with pytest.raises(NotWellDefined):
            quotient(flag)
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
        g = p.to_lists()
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
        assert gram.to_lists() == from_sympy(expected)


# -- structure, canonical form and the schema boundary -------------------------------


def sympy_rational(x: Fraction):
    return sympy.Rational(x.numerator, x.denominator)


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
        assert canonical(got).to_lists() == from_sympy(expected)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_kron_matches_sympy(data):
    a, b = (data.draw(matrices(*(data.draw(st.integers(1, 4)) for _ in range(2)))) for _ in range(2))
    got = canonical(kron(a, b))
    assert got.to_lists() == from_sympy(sympy.kronecker_product(to_sympy(a), to_sympy(b)))


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
    assert got.to_lists() == from_sympy(expected)


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
        assert _matrix_json(kept) == rows


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_boundary_round_trips(data):
    m = data.draw(matrices(rows=data.draw(st.integers(1, MAX_DIM))))
    strings = _matrix_json(m)
    assert strings == [[format_rat(x) for x in row] for row in m.entries]
    assert RatMatrix.from_rows(strings) == m
    dense = [[0] * m.cols for _ in range(m.rows)]
    for i in range(m.rows):
        for j, x in m.row_items(i):
            assert type(x) is Fraction and x != 0
            dense[i][j] = x
    assert RatMatrix.from_rows(dense) == m
