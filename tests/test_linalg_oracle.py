"""``RatMatrix`` products and elimination against sympy as an exact oracle.

sympy is used by these tests only; the package itself stays stdlib-only.
Inputs are rational matrices of every shape up to 8 x 8, of every density,
with denominators up to 7, and with some rows forced to be rational
combinations of earlier rows, so that rank deficiency is common.  The
symmetric inputs of the signature test are ``A + A^T``, the same with its
diagonal set to zero, and ``B^T D B`` for such ``A`` and ``B`` and a diagonal
``D``, so that zero diagonals and low ranks are common too.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssweight.linalg import RatMatrix, signature

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


@given(products())
@settings(max_examples=150, deadline=None)
def test_product_matches_sympy(ab):
    a, b = ab
    prod = a @ b
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
    inv = m.inverse()
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
