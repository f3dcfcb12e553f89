from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import GeneralQuotient
from ssweight.errors import NotSymmetric, NotWellDefined
from ssweight.linalg import (
    QuotientSpace,
    RatMatrix,
    Subspace,
    assemble_blocks,
    image,
    induced_map,
    induced_pairing,
    kernel,
    signature,
)

M = RatMatrix.from_rows


def small_matrix(max_dim=4, lo=-5, hi=5):
    return st.integers(0, max_dim).flatmap(
        lambda r: st.integers(0, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(lo, hi), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            ).map(lambda rows: RatMatrix(r, c, rows))
        )
    )


class TestRank:
    def test_identity(self):
        assert RatMatrix.identity(2).rank() == 2

    def test_zero(self):
        assert RatMatrix.zeros(3, 4).rank() == 0

    def test_zero_has_no_pivots_and_no_elimination(self, monkeypatch):
        def eliminate(self):
            raise AssertionError("a zero matrix was eliminated")

        monkeypatch.setattr(RatMatrix, "_forward", eliminate)
        # shared zeros, and a zero read from its entries
        for m in (RatMatrix.zeros(3, 4), M([[0, 0], [0, 0]]), RatMatrix.zeros(0, 2)):
            assert m.pivots() == [] and m.rank() == 0
        assert image(M([[0, 0, 0]])).dim == 0

    def test_proportional_rows(self):
        assert M([[1, 2], [2, 4]]).rank() == 1

    def test_fractions(self):
        assert M([["1/2", "1/3"], ["3/2", "1"]]).rank() == 1

    @given(small_matrix())
    @settings(max_examples=60)
    def test_rank_plus_nullity(self, m):
        assert m.rank() + m.kernel_basis().cols == m.cols

    @given(small_matrix())
    @settings(max_examples=60)
    def test_rank_transpose(self, m):
        assert m.rank() == m.transpose().rank()


class TestKernelImage:
    def test_kernel_identity(self):
        assert kernel(RatMatrix.identity(3)).dim == 0

    def test_kernel_zero(self):
        assert kernel(RatMatrix.zeros(2, 3)).dim == 3

    def test_kernel_row(self):
        ker = kernel(M([[1, 1, 1]]))
        assert ker.dim == 2
        assert ker.contains(Subspace(3, M([[1], [-1], [0]])))

    def test_image_identity(self):
        assert image(RatMatrix.identity(3)).dim == 3

    def test_image_zero(self):
        assert image(RatMatrix.zeros(2, 3)).dim == 0

    def test_image_rank_one(self):
        im = image(M([[1, 2], [2, 4]]))
        assert im.dim == 1
        assert im.contains(Subspace(2, M([[1], [2]])))

    @given(small_matrix())
    @settings(max_examples=40)
    def test_kernel_annihilated(self, m):
        ker = m.kernel_basis()
        assert (m @ ker).is_zero()


class TestSolveInverse:
    def test_solve(self):
        a = M([[1, 2], [3, 4]])
        x = a.solve(M([[5], [6]]))
        assert a @ x == M([[5], [6]])

    def test_solve_inconsistent(self):
        assert M([[1, 1], [1, 1]]).solve(M([[0], [1]])) is None

    def test_inverse(self):
        a = M([[2, 1], [1, 1]])
        assert a @ a.inverse() == RatMatrix.identity(2)

    def test_inverse_singular(self):
        with pytest.raises(ValueError):
            M([[1, 1], [1, 1]]).inverse()


class TestSignature:
    def test_diagonal_positive(self):
        assert signature(M([[2, 0], [0, 3]])) == (2, 0, 0)

    def test_indefinite(self):
        # leading principal minors 1, -3
        assert signature(M([[1, 2], [2, 1]])) == (1, 1, 0)

    def test_zero(self):
        assert signature(M([[0]])) == (0, 0, 1)

    def test_hyperbolic_plane(self):
        assert signature(M([[0, 1], [1, 0]])) == (1, 1, 0)

    def test_zero_diagonal_beside_a_nonzero_one(self):
        # the 2x2 pivot on (0, 1), whose partner row has a nonzero diagonal
        assert signature(M([[0, 1], [1, 1]])) == (1, 1, 0)
        assert signature(M([[0, 1, 0], [1, 2, 3], [0, 3, 0]])) == (1, 1, 1)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(NotSymmetric):
            signature(M([[0, 1], [2, 0]]))

    @given(
        st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3), min_size=3, max_size=3),
        st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3), min_size=3, max_size=3),
    )
    @settings(max_examples=60)
    def test_congruence_invariance(self, sym_rows, p_rows):
        a = M(sym_rows)
        s = a + a.transpose()
        p = M(p_rows)
        if p.rank() < 3:
            return
        assert signature(p.transpose() @ s @ p) == signature(s)


class TestSparseRepresentation:
    def test_equal_across_zero_patterns(self):
        a = M([[1, 0], [0, "2/4"]])
        b = M([[1, 1], [0, 1]]) - M([[0, 1], [0, "1/2"]])
        c = M([[1, -1]]).transpose() @ M([[1, 1]]) + M([[0, -1], [1, "3/2"]])
        assert a == b == c
        assert hash(a) == hash(b) == hash(c)
        assert M([[1, -1]]) @ M([[1], [1]]) == RatMatrix.zeros(1, 1)
        assert hash(M([[1, -1]]) @ M([[1], [1]])) == hash(RatMatrix.zeros(1, 1))

    def test_entries_are_dense_fraction_rows(self):
        m = M([[0, "1/2", 0], [3, 0, 0]])
        assert m.entries == ((0, Fraction(1, 2), 0), (3, 0, 0))
        assert all(type(x) is Fraction for row in m.entries for x in row)
        assert m.col(0) == ["0", "3"] and m.col(1) == ["1/2", "0"] and m.to_strings() == [["0", "1/2", "0"], ["3", "0", "0"]]
        assert RatMatrix.zeros(2, 0).entries == ((), ())

    @pytest.mark.parametrize(
        "rows, cols, grid",
        [(2, 2, [[1, 2], [3]]), (2, 2, [[1, 2]]), (1, 2, [[1, 2], [3, 4]]), (0, 1, [[1]])],
    )
    def test_rejects_grid_of_wrong_shape(self, rows, cols, grid):
        with pytest.raises(ValueError):
            RatMatrix(rows, cols, grid)

    @pytest.mark.parametrize("x", [0.5, 0.0, None])
    def test_rejects_non_rational_entries(self, x):
        with pytest.raises(TypeError):
            RatMatrix(1, 2, [[1, x]])

    @pytest.mark.parametrize("rows, cols", [(0, 3), (3, 0), (0, 0)])
    def test_empty_shapes(self, rows, cols):
        m = RatMatrix.zeros(rows, cols)
        assert (m @ RatMatrix.zeros(cols, 2)) == RatMatrix.zeros(rows, 2)
        assert (RatMatrix.zeros(2, rows) @ m) == RatMatrix.zeros(2, cols)
        assert m.rref() == (m, [])
        assert m.rank() == 0
        assert m.kernel_basis() == RatMatrix.identity(cols)
        assert m.solve(RatMatrix.zeros(rows, 1)) == RatMatrix.zeros(cols, 1)
        if rows:
            assert m.solve(M([[1]] * rows)) is None


class TestAssembleBlocks:
    def test_keys_place_blocks_in_listed_order(self):
        # summands listed out of key order; blocks given in yet another order
        rows = [("b", 1), ("a", 2)]
        cols = [(2, 1), (1, 2)]
        blocks = {("a", 1): M([[1, 2], [3, 4]]), ("b", 2): M([[5]]), ("a", 2): M([[6], [7]])}
        assert assemble_blocks(rows, cols, blocks) == M([[5, 0, 0], [6, 1, 2], [7, 3, 4]])

    def test_block_naming_an_unlisted_summand_is_dropped(self):
        blocks = {("x", "y"): M([[1]]), ("x", "z"): M([[1, 2, 3]]), ("w", "y"): M([[9]])}
        assert assemble_blocks([("x", 1)], [("y", 1)], blocks) == M([[1]])

    def test_zero_dimension_summands(self):
        rows = [("a", 0), ("b", 2)]
        cols = [("c", 1), ("d", 0)]
        blocks = {("a", "c"): RatMatrix.zeros(0, 1), ("b", "d"): RatMatrix.zeros(2, 0)}
        assert assemble_blocks(rows, cols, blocks) == RatMatrix.zeros(2, 1)

    @pytest.mark.parametrize("rows, cols", [([], [("c", 3)]), ([("r", 2)], []), ([], [])])
    def test_empty_side_gives_zero_matrix(self, rows, cols):
        blocks = {("r", "c"): M([[1, 1, 1], [1, 1, 1]])}
        shape = (sum(d for _, d in rows), sum(d for _, d in cols))
        assert assemble_blocks(rows, cols, blocks) == RatMatrix.zeros(*shape)

    def test_wrong_shaped_block_raises(self):
        with pytest.raises(ValueError, match="shape"):
            assemble_blocks([("r", 2)], [("c", 1)], {("r", "c"): M([[1, 2]])})


def coordinate_quotient(ambient, num, den):
    """The first ``num`` unit vectors of Q^ambient modulo the first ``den``."""
    units = RatMatrix.identity(ambient)
    return QuotientSpace(units.take_columns(range(num)), list(range(num)), units.take_columns(range(den)))


class TestQuotient:
    def test_identity_induces_identity(self):
        q = coordinate_quotient(4, 3, 1)
        ind = induced_map(RatMatrix.identity(4), q, q)
        assert ind == RatMatrix.identity(2)

    def test_zero_map(self):
        q = coordinate_quotient(3, 2, 0)
        assert induced_map(RatMatrix.zeros(3, 3), q, q).is_zero()

    def test_zero_map_into_boundaries_forms_nothing(self, monkeypatch):
        # a zero map carries every numerator and denominator into any other,
        # so it induces the shared zero with no product, solve or elimination
        src, dst = coordinate_quotient(3, 3, 1), coordinate_quotient(4, 3, 1)
        calls = []

        def counted(method):
            def call(*args, **kwargs):
                calls.append(method.__name__)
                return method(*args, **kwargs)

            return call

        for name in ("__matmul__", "solve", "_forward"):
            monkeypatch.setattr(RatMatrix, name, counted(getattr(RatMatrix, name)))
        assert induced_map(RatMatrix.zeros(4, 3), src, dst) is RatMatrix.zeros(dst.dim, src.dim)
        assert induced_map(RatMatrix(4, 3, [[0] * 3] * 4), src, dst) is RatMatrix.zeros(2, 2)
        assert calls == []

    @pytest.mark.parametrize("shape", [(3, 4), (4, 4), (3, 3), (0, 0)])
    def test_mis_shaped_zero_raises(self, shape):
        src, dst = coordinate_quotient(3, 3, 1), coordinate_quotient(4, 3, 1)
        with pytest.raises(ValueError, match="shape"):
            induced_map(RatMatrix.zeros(*shape), src, dst)
        with pytest.raises(ValueError, match="shape"):
            induced_pairing(RatMatrix.zeros(*shape), dst, src)

    def test_zero_pairing_gives_the_zero_gram(self):
        left, right = coordinate_quotient(4, 3, 1), coordinate_quotient(3, 2, 0)
        assert induced_pairing(RatMatrix.zeros(4, 3), left, right) is RatMatrix.zeros(2, 2)

    def test_not_well_defined(self):
        src = coordinate_quotient(2, 2, 0)
        dst = coordinate_quotient(2, 1, 0)
        with pytest.raises(NotWellDefined, match="does not preserve numerators"):
            induced_map(RatMatrix.identity(2), src, dst)

    def test_denominator_not_preserved(self):
        # the numerators agree, but the denominator e1 of the source is a
        # nonzero class in the target
        src = coordinate_quotient(2, 2, 1)
        dst = coordinate_quotient(2, 2, 0)
        with pytest.raises(NotWellDefined, match="does not preserve denominators"):
            induced_map(RatMatrix.identity(2), src, dst)
        assert induced_map(RatMatrix.identity(2), dst, src) == M([[0, 1]])

    def test_denominator_outside_numerator(self):
        # the reference model of a quotient checks what the one constructor
        # takes on trust
        e1, e2 = M([[1], [0]]), M([[0], [1]])
        with pytest.raises(NotWellDefined, match="denominator is not contained"):
            GeneralQuotient(2, Subspace(2, e1), Subspace(2, e2))

    def test_rotation_on_cycle_graph_h1(self):
        # H^1 of the 3-cycle graph: edge space modulo the image of the signed
        # incidence matrix; a rotation of the edges induces a 1x1 map.
        # oracle: incidence rank is 2 by direct elimination, so dim H^1 = 1
        incidence = M([[1, -1, 0], [0, 1, -1], [-1, 0, 1]]).transpose()
        h1 = QuotientSpace(RatMatrix.identity(3), [0, 1, 2], incidence.column_space_basis())
        assert h1.dim == 1
        rotation = M([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
        ind = induced_map(rotation, h1, h1)
        assert ind.rows == ind.cols == 1
        assert ind.entries[0][0] != 0

    @given(st.data())
    @settings(max_examples=40)
    def test_induced_map_of_composition(self, data):
        # flag-preserving (block triangular) maps between coordinate flags
        dims = [data.draw(st.integers(1, 4)) for _ in range(3)]
        flags = []
        for amb in dims:
            num = data.draw(st.integers(0, amb))
            den = data.draw(st.integers(0, num))
            flags.append((amb, num, den))

        def compatible(rows, cols, src_flag, dst_flag):
            _, num_s, den_s = src_flag
            _, num_d, den_d = dst_flag
            entries = [
                [
                    data.draw(st.integers(-2, 2))
                    if not (j < num_s and i >= num_d) and not (j < den_s and i >= den_d)
                    else 0
                    for j in range(cols)
                ]
                for i in range(rows)
            ]
            return RatMatrix(rows, cols, entries)

        m1 = compatible(dims[1], dims[0], flags[0], flags[1])
        m2 = compatible(dims[2], dims[1], flags[1], flags[2])
        qs = [coordinate_quotient(*f) for f in flags]
        lhs = induced_map(m2 @ m1, qs[0], qs[2])
        rhs = induced_map(m2, qs[1], qs[2]) @ induced_map(m1, qs[0], qs[1])
        assert lhs == rhs


class TestSubspace:
    def test_intersection(self):
        a = Subspace(3, M([[1, 0], [0, 1], [0, 0]]))
        b = Subspace(3, M([[0, 0], [1, 0], [0, 1]]))
        meet = a.intersection(b)
        assert meet.dim == 1
        assert meet.contains(Subspace(3, M([[0], [1], [0]])))

    def test_contains(self):
        big = Subspace(3, M([[1, 0], [0, 1], [0, 0]]))
        small = Subspace(3, M([[1], [1], [0]]))
        assert big.contains(small)
        assert not small.contains(big)

    def test_rejects_dependent_columns_and_a_wrong_row_count(self):
        with pytest.raises(ValueError, match="independent"):
            Subspace(3, M([[1, 2], [1, 2], [0, 0]]))
        with pytest.raises(ValueError, match="rows"):
            Subspace(2, M([[1], [0], [0]]))

    def test_equal_spans_hash_alike(self):
        a, b = Subspace(2, M([[1], [0]])), Subspace(2, M([[2], [0]]))
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert len({a, Subspace(2, M([[0], [1]]))}) == 2


def test_is_definite():
    # definite: no zero and no mixed signs in the inertia
    assert signature(M([[2, 0], [0, 3]])) == (2, 0, 0)
    assert signature(M([[-1, 0], [0, -2]])) == (0, 2, 0)
    assert signature(M([[1, 0], [0, -1]])) == (1, 1, 0)
    assert signature(M([[1, 0], [0, 0]])) == (1, 0, 1)
