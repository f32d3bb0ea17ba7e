import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from finalg import linalg
from finalg.linalg import _ONE, _ZERO, Mat, Subspace, _echo, _kernel, _span, kernel_from_constraints
from finalg.linalg import parse_rational
from helpers import Infeasible, from_rows_oracle, null_space_oracle, rref_oracle, solve_affine

F = Fraction

rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))

# Coefficients that are mostly not +-1, so that pivots are rarely units and
# quotients rarely integral; plain ints mixed with Fractions, some of them
# with denominator 1.
coefficients = st.one_of(
    st.sampled_from([0, 2, -2, 3, -3, 5, 7, -7]),
    st.builds(Fraction, st.integers(-7, 7), st.sampled_from([1, 1, 2, 3])),
)


# Large numerators over large coprime denominators, so that rows need a
# real lcm scaling and eliminated vectors a real content division.
wide_coefficients = st.one_of(
    st.integers(-(10**12), 10**12),
    st.builds(
        Fraction,
        st.integers(-(10**12), 10**12),
        st.sampled_from([7, 11, 77, 10**6 + 3, 7 * (10**6 + 3), 11 * (10**6 + 3)]),
    ),
)



@st.composite
def matrices(draw, max_rows=4, max_cols=4):
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    data = draw(
        st.lists(
            st.lists(rationals, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return Mat(data)


@st.composite
def subspaces(draw, ambient=4):
    count = draw(st.integers(0, ambient))
    rows = draw(
        st.lists(
            st.lists(rationals, min_size=ambient, max_size=ambient),
            min_size=count,
            max_size=count,
        )
    )
    return Subspace.from_rows(ambient, rows)


class TestRationals:
    def test_parse_forms(self):
        assert parse_rational("3/4") == F(3, 4)
        assert parse_rational("-3/4") == F(-3, 4)
        assert parse_rational("+5") == F(5)
        assert parse_rational("0") == F(0)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_rational("1/0")

    @pytest.mark.parametrize("bad", ["1.5", "3/-4", "a", "1/2/3", "", "1 /2"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    def test_format_sign_on_numerator(self):
        assert str(F(-3, 4)) == "-3/4"
        assert str(F(5)) == "5"
        assert str(F(6, -4)) == "-3/2"

    @given(rationals)
    def test_round_trip(self, x):
        assert parse_rational(str(x)) == x

    def test_long_tokens_are_echoed_bounded(self):
        """A token of up to 40 characters is echoed as its repr; a longer one
        as the repr of its first 40 characters and its length."""
        assert _echo("1/0") == "'1/0'"
        assert _echo("x" * 40) == repr("x" * 40)
        assert _echo("x" * 41) == repr("x" * 40) + "... (41 characters)"
        with pytest.raises(ValueError) as excinfo:
            parse_rational("1/" + "0" * 50)
        assert str(excinfo.value) == "zero denominator in " + repr("1/" + "0" * 38) + "... (52 characters)"
        with pytest.raises(ValueError) as excinfo:
            parse_rational("y" * 100_000)
        assert str(excinfo.value) == "malformed rational literal " + repr("y" * 40) + "... (100000 characters)"


class TestDense:
    def test_entries_are_fractions_and_zeros_are_shared(self):
        v = linalg._dense([(3, 2), (0, F(-1, 2)), (1, F(5))], 5)
        assert v == (F(-1, 2), F(5), F(0), F(2), F(0))
        assert all(type(x) is Fraction for x in v)
        assert v[2] is _ZERO and v[4] is _ZERO
        assert all(x is _ZERO for x in linalg._dense([], 3))
        assert linalg._dense([], 0) == ()


# All entries multiples of 6, so that no pivot is +-1 at the start.
non_unit_entries = st.one_of(
    st.just(0),
    st.builds(lambda k: 6 * k, st.integers(-3, 3)),
    st.builds(Fraction, st.builds(lambda k: 6 * k, st.integers(-3, 3)), st.sampled_from([1, 5, 7])),
)


@st.composite
def oracle_matrices(draw):
    """Matrices of one entry kind (small mixed int/Fraction, wide, or with no
    +-1 pivot at the start), 0 to 9 rows, tall ones included, with zero
    rows and duplicate rows mixed in."""
    entries = draw(st.sampled_from([coefficients, wide_coefficients, non_unit_entries]))
    cols = draw(st.integers(1, 6))
    data = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), max_size=7))
    for _ in range(draw(st.integers(0, 2))):
        extra = list(draw(st.sampled_from(data))) if data and draw(st.booleans()) else [0] * cols
        data.insert(draw(st.integers(0, len(data))), extra)
    return Mat(data, cols=cols)


class TestRref:
    def test_identity_is_fixed(self):
        m = Mat.identity(3)
        reduced, pivots, rank = m.rref()
        assert reduced == m
        assert pivots == (0, 1, 2)
        assert rank == 3

    def test_zero_matrix(self):
        m = Mat.zeros(2, 3)
        reduced, pivots, rank = m.rref()
        assert reduced == m
        assert pivots == ()
        assert rank == 0

    def test_dependent_rows(self):
        m = Mat([[1, 2], [2, 4]])
        reduced, pivots, rank = m.rref()
        assert reduced == Mat([[1, 2], [0, 0]])
        assert pivots == (0,)
        assert rank == 1

    @given(matrices())
    @settings(max_examples=60)
    def test_idempotent(self, m):
        reduced, _, _ = m.rref()
        again, _, _ = reduced.rref()
        assert again == reduced

    @given(matrices())
    @settings(max_examples=60)
    def test_kernel_vectors_annihilate(self, m):
        for v in m.kernel():
            assert not any(m.apply(v))

    @given(oracle_matrices())
    @settings(max_examples=300)
    def test_agrees_with_fraction_oracle(self, m):
        reduced, pivots, rank = m.rref()
        expected, expected_pivots, expected_rank = rref_oracle(m)
        assert reduced.data == expected.data
        assert (pivots, rank) == (expected_pivots, expected_rank)
        assert all(type(x) is Fraction for row in reduced.data for x in row)

    def test_no_unit_pivot_needs_the_final_division(self):
        # Every pivot is 2 or 3, and the quotient 2/3 is not integral.
        m = Mat([[2, 4, 3], [3, 0, 2]])
        assert m.rref() == rref_oracle(m)
        assert m.rref()[0].data[0] == (F(1), F(0), F(2, 3))


# Mostly zero entries, mixing int and Fraction.
sparse_entries = st.one_of(st.just(0), st.just(F(0)), st.just(0), st.integers(-3, 3), rationals)


class TestMatApply:
    """Mat.apply reads only the nonzero entries of the vector; the result
    must equal the row-dot definition, entry for entry, as Fractions."""

    @staticmethod
    def _row_dots(m, v):
        return tuple(sum((F(a) * F(b) for a, b in zip(row, v)), F(0)) for row in m.data)

    @given(matrices(max_rows=6, max_cols=6), st.data())
    @settings(max_examples=100)
    def test_matches_row_dots(self, m, data):
        v = data.draw(st.lists(sparse_entries, min_size=m.cols, max_size=m.cols))
        result = m.apply(v)
        assert result == self._row_dots(m, v)
        assert all(type(x) is Fraction for x in result)

    @given(matrices(max_rows=6, max_cols=6), st.data())
    @settings(max_examples=60)
    def test_basis_vector_reads_a_column(self, m, data):
        j = data.draw(st.integers(0, m.cols - 1))
        one = data.draw(st.sampled_from([1, F(1)]))
        v = [0] * m.cols
        v[j] = one
        assert m.apply(v) == m.column(j) == self._row_dots(m, v)

    def test_zero_vector(self):
        m = Mat([[1, F(1, 2)], [3, 4]])
        assert m.apply((0, F(0))) == (F(0), F(0))

    @pytest.mark.parametrize("length", [1, 3])
    def test_wrong_length_rejected(self, length):
        with pytest.raises(ValueError, match="column count"):
            Mat.identity(2).apply([1] * length)


class TestMatShapes:
    @pytest.mark.parametrize("data, cols, message", [
        ([[1, 2], [3]], None, "unequal length"),
        ([[1, 2]], 3, "disagrees with row width"),
        ([], None, "explicit column count"),
    ])
    def test_construction_checks_the_shape(self, data, cols, message):
        with pytest.raises(ValueError, match=message):
            Mat(data, cols=cols)

    def test_empty_matrix_with_its_column_count(self):
        m = Mat([], cols=3)
        assert (m.rows, m.cols) == (0, 3)

    @pytest.mark.parametrize("other", [Mat.identity(3), Mat([[1, 2]])])
    def test_sum_and_difference_need_equal_shapes(self, other):
        for op in (Mat.__add__, Mat.__sub__):
            with pytest.raises(ValueError, match="matrix shape mismatch"):
                op(Mat.identity(2), other)

    def test_product_needs_matching_inner_dimensions(self):
        with pytest.raises(ValueError, match="matrix product shape mismatch"):
            Mat([[1, 2]]) * Mat([[1, 2]])
        assert Mat([[1, 2]]) * Mat([[3], [4]]) == Mat([[11]])
        assert Mat.identity(2).__mul__(2) is NotImplemented


class TestSolveAffine:
    def test_identity_system(self):
        sol = solve_affine(Mat.identity(2), (3, F(-1, 2)))
        assert sol.particular == (F(3), F(-1, 2))
        assert sol.kernel.dim == 0

    def test_inconsistent(self):
        with pytest.raises(Infeasible):
            solve_affine(Mat([[0, 0]]), (1,))

    def test_underdetermined_plane(self):
        sol = solve_affine(Mat([[1, 1]]), (2,))
        assert sol.particular == (F(2), F(0))
        assert sol.kernel == Subspace.from_rows(2, [(1, -1)])

    @given(matrices(), st.data())
    @settings(max_examples=60)
    def test_exact_resubstitution(self, m, data):
        x0 = data.draw(st.lists(rationals, min_size=m.cols, max_size=m.cols))
        b = m.apply(x0)
        sol = solve_affine(m, b)
        assert m.apply(sol.particular) == b
        for v in sol.kernel.basis:
            assert not any(m.apply(v))


class TestSubspaceLattice:
    def test_intersect_complementary_axes(self):
        v = Subspace.from_rows(2, [(1, 0)])
        w = Subspace.from_rows(2, [(0, 1)])
        assert (v & w) == Subspace.zero(2)

    def test_sum_of_axes_is_full(self):
        v = Subspace.from_rows(2, [(1, 0)])
        w = Subspace.from_rows(2, [(0, 1)])
        assert (v + w) == Subspace.full(2)

    @given(subspaces(), subspaces())
    @settings(max_examples=60)
    def test_modular_law(self, v, w):
        assert (v + w).dim + (v & w).dim == v.dim + w.dim

    @given(subspaces(), subspaces())
    @settings(max_examples=60)
    def test_contains_both_ways_iff_equal(self, v, w):
        both = v.contains(w) and w.contains(v)
        assert both == (v == w)

    @given(subspaces())
    @settings(max_examples=40)
    def test_annihilator_dimensions_and_duality(self, v):
        ann = v.annihilator()
        assert v.dim + ann.dim == v.ambient_dim
        assert ann.annihilator() == v

    def test_dimension_mismatch_rejected(self):
        for v, w in ((Subspace.zero(2), Subspace.zero(3)), (Subspace.full(3), Subspace.full(2))):
            with pytest.raises(ValueError, match="ambient dimension"):
                v + w

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_annihilator_of_zero_is_full(self, n):
        assert Subspace.zero(n).annihilator() == Subspace.full(n)

    def test_canonical_form_is_validated(self):
        with pytest.raises(ValueError):
            Subspace(2, ((F(2), F(0)),))  # pivot entry is not 1
        with pytest.raises(ValueError):
            Subspace(2, ((F(0), F(1)), (F(1), F(0))))  # pivots not increasing
        with pytest.raises(ValueError, match="wrong length"):
            Subspace(2, ((F(1), F(0), F(0)),))
        with pytest.raises(ValueError, match="zero basis row"):
            Subspace(2, ((F(1), F(0)), (F(0), F(0))))
        with pytest.raises(ValueError, match="zero in other rows"):
            Subspace(3, ((F(1), F(2), F(0)), (F(0), F(1), F(1))))  # row 0 at pivot 1
        # the same with the shared zero that eliminations fill in, and with
        # int zeros, which are not that object
        zero, one = _ZERO, _ONE
        with pytest.raises(ValueError, match="zero basis row"):
            Subspace(2, ((one, zero), (zero, 0)))
        with pytest.raises(ValueError, match="zero in other rows"):
            Subspace(3, ((one, F(2), zero), (zero, one, one)))
        with pytest.raises(ValueError, match="zero in other rows"):
            Subspace(3, ((one, 0, F(2)), (0, one, zero), (zero, 0, one)))
        assert Subspace(3, ((one, 0, F(2)), (zero, one, zero))).pivots == (0, 1)

    @given(subspaces(), st.data())
    @settings(max_examples=40)
    def test_coordinates_reconstruct_members(self, v, data):
        if v.dim == 0:
            return
        weights = data.draw(st.lists(rationals, min_size=v.dim, max_size=v.dim))
        member = tuple(
            sum((w * row[i] for w, row in zip(weights, v.basis)), F(0))
            for i in range(v.ambient_dim)
        )
        assert v.contains_vector(member)
        assert v.coordinates(member) == tuple(weights)


class TestKernelFromConstraints:
    @given(matrices(max_rows=6, max_cols=5))
    @settings(max_examples=60)
    def test_agrees_with_dense_kernel(self, m):
        rows = [
            [(j, x) for j, x in enumerate(row) if x]
            for row in m.data
        ]
        streamed = kernel_from_constraints(m.cols, rows)
        dense = Subspace.from_rows(m.cols, m.kernel())
        assert streamed == dense

    def test_no_constraints_gives_full_space(self):
        assert kernel_from_constraints(3, []) == Subspace.full(3)

    def test_stops_pulling_rows_once_the_kernel_is_zero(self):
        """Rows [(0, 1)], [(1, 1)], ... on Q^2 pull two rows, and n = 0 pulls none."""

        def counted(pulled):
            for j in itertools.count():
                pulled.append(j)
                yield [(j, F(1))]

        for n, expected in ((2, 2), (1, 1), (0, 0)):
            pulled = []
            assert kernel_from_constraints(n, counted(pulled)) == Subspace.zero(n)
            assert len(pulled) == expected

    def test_stops_pulling_rows_at_the_floor(self):
        """Rows [(0, 1)], [(1, 1)], ... on Q^4 with floor f pull 4 - f rows
        and leave the span of the last f unit vectors; at floor 4 or more,
        checked before the first pull, none is pulled."""

        def counted(pulled):
            for j in itertools.count():
                pulled.append(j)
                yield [(j, F(1))]

        for floor in range(6):
            pulled = []
            kept = [[F(j == k) for j in range(4)] for k in range(4 - floor, 4)]
            assert _kernel(4, counted(pulled), floor) == Subspace.from_rows(4, kept)
            assert len(pulled) == max(4 - floor, 0)


@st.composite
def sparse_systems(draw, max_rows=12, max_unknowns=8, values=coefficients):
    """n unknowns and rows of (index, coefficient) pairs, with repeated
    indices, explicit zero coefficients and empty rows allowed."""
    n = draw(st.integers(1, max_unknowns))
    entry = st.tuples(st.integers(0, n - 1), values)
    rows = draw(st.lists(st.lists(entry, max_size=6), max_size=max_rows))
    return n, rows


@st.composite
def wide_systems(draw):
    """Sparse systems on wide coefficients, plus dependent rows: one row
    plus a wide multiple of another."""
    n, rows = draw(sparse_systems(max_rows=8, values=wide_coefficients))
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        first, second = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        factor = draw(wide_coefficients)
        rows.append(first + [(j, factor * c) for j, c in second])
    return n, rows


def _dense(n, row):
    out = [Fraction(0)] * n
    for j, c in row:
        out[j] += c
    return out


@st.composite
def row_lists(draw):
    """An ambient dimension n and dense rows of one entry kind: square-ish
    (n from 0), wide (many columns, few rows) or tall (few columns, many
    rows), with zero rows and duplicate rows mixed in; the list may be empty."""
    entries = draw(st.sampled_from([coefficients, wide_coefficients, non_unit_entries]))
    widths, max_rows = draw(st.sampled_from([((0, 6), 7), ((8, 14), 3), ((1, 3), 16)]))
    n = draw(st.integers(*widths))
    data = draw(st.lists(st.lists(entries, min_size=n, max_size=n), max_size=max_rows))
    for _ in range(draw(st.integers(0, 2))):
        extra = list(draw(st.sampled_from(data))) if data and draw(st.booleans()) else [0] * n
        data.insert(draw(st.integers(0, len(data))), extra)
    return n, data


def _with_int_entries(v, as_int):
    """The subspace v with its basis as given, or with every integral entry an int."""
    if not as_int:
        return v
    return Subspace(v.ambient_dim, tuple(
        tuple(x.numerator if x.denominator == 1 else x for x in u) for u in v.basis
    ))


class TestSpan:
    """`Subspace.from_rows`, `_span` and `Subspace.__add__`, which read rows
    sparsely, against the dense `Mat` path."""

    @given(row_lists(), st.data())
    @settings(max_examples=150)
    def test_sum_agrees_with_the_dense_span(self, case, data):
        """v + w against the dense span of both bases, for the spans of two
        parts of a row list, with integral entries held as int or Fraction."""
        n, rows = case
        cut = data.draw(st.integers(0, len(rows)))
        v, w = (_with_int_entries(Subspace.from_rows(n, part), data.draw(st.booleans()))
                for part in (rows[:cut], rows[cut:]))
        total = v + w
        assert total == from_rows_oracle(n, v.basis + w.basis)
        assert all(type(x) is Fraction for u in total.basis for x in u)

    @given(row_lists())
    @settings(max_examples=300)
    def test_from_rows_agrees_with_the_dense_path(self, case):
        n, rows = case
        span = Subspace.from_rows(n, rows)
        assert span == from_rows_oracle(n, rows)
        assert all(type(x) is Fraction for v in span.basis for x in v)

    @given(sparse_systems())
    @settings(max_examples=150)
    def test_sparse_rows_with_repeated_indices(self, system):
        n, rows = system
        assert _span(n, rows) == from_rows_oracle(n, [_dense(n, row) for row in rows])

    def test_edge_cases(self):
        assert Subspace.from_rows(3, []) == Subspace.zero(3)
        assert Subspace.from_rows(0, [(), ()]) == Subspace.zero(0)
        assert Subspace.from_rows(2, [(0, 0), (2, F(4, 3)), (2, F(4, 3))]).basis == ((F(1), F(2, 3)),)

    @pytest.mark.parametrize("n, rows", [
        (3, [(1, 2)]), (3, [(1, 2, 3), (1, 2)]), (2, [(1, 2), (0, 0, 0)]), (0, [(0,)]),
    ])
    def test_wrong_length_rejected(self, n, rows):
        with pytest.raises(ValueError, match="row length"):
            Subspace.from_rows(n, rows)


class TestKernelFromConstraintsExact:
    """The streamed kernel against the dense RREF kernel, on exact integer
    and rational inputs whose quotients are not integral."""

    @given(sparse_systems())
    @settings(max_examples=200)
    def test_agrees_with_dense_kernel(self, system):
        self._check(system)

    @given(wide_systems())
    @settings(max_examples=150)
    def test_agrees_with_dense_kernel_on_wide_coefficients(self, system):
        self._check(system)

    @given(sparse_systems(), st.integers(0, 8))
    @settings(max_examples=100)
    def test_a_floor_stops_at_a_kernel_that_holds_the_whole_one(self, system, floor):
        """With a floor, the result holds the full kernel, and is it unless
        the stop came first, at the floor's dimension or below."""
        n, rows = system
        full = kernel_from_constraints(n, rows)
        stopped = _kernel(n, rows, floor)
        assert stopped >= full
        assert stopped == full or stopped.dim <= floor
        if floor < full.dim:
            assert stopped == full

    @staticmethod
    def _check(system):
        n, rows = system
        streamed = kernel_from_constraints(n, rows)
        dense = [_dense(n, row) for row in rows]
        expected = Subspace.from_rows(n, Mat(dense, cols=n).kernel())
        assert streamed == expected
        assert streamed.basis == null_space_oracle(Mat(dense, cols=n))
        assert all(type(x) is Fraction for v in streamed.basis for x in v)

    def test_non_dyadic_quotient_stays_exact(self):
        # No +-1 pivot: eliminating needs 2/3, which a float division
        # would round.
        kernel = kernel_from_constraints(2, [[(0, 3), (1, 2)]])
        assert kernel.basis == ((F(1), F(-3, 2)),)
        assert all(type(x) is Fraction for x in kernel.basis[0])


# Fixed streams on Q^4 for the one update of `_kernel`: every hit vector v
# other than the pivot p becomes a v - f p, a = pval / g > 0 and f = val / g
# for g = gcd(pval, val) with the sign of pval, divided by its content when
# a != 1.  The first row meets each named (pval, val), with the unit vectors
# as basis.  The third row is the sum of the first two, so it is redundant
# exactly when the column index holds the updated values, and the fourth
# reads the columns again.
UPDATE_STREAMS = {
    "negative pivot, not dividing (-2, 3)":
        [[(0, -2), (1, 3)], [(1, 1), (2, -1)], [(0, -2), (1, 4), (2, -1)], [(2, 1), (3, 1)]],
    "negative pivot, dividing (-2, 4)":
        [[(0, -2), (1, 4)], [(1, 1), (2, -1)], [(0, -2), (1, 5), (2, -1)], [(2, 1), (3, 1)]],
    "positive pivot, not dividing (2, 3)":
        [[(0, 2), (1, 3)], [(1, 1), (2, -1)], [(0, 2), (1, 4), (2, -1)], [(2, 1), (3, 1)]],
    # the second row meets (-4, 5) on two-entry vectors: 4 v + 5 p has content 3
    "negative pivot, content division (-4, 5)":
        [[(0, 4), (1, 4), (2, 3)], [(2, 1), (1, 3)], [(0, 4), (1, 7), (2, 4)], [(1, 1), (3, 1)]],
}


class TestOneUpdate:
    """`_kernel` and `_int_rref` apply one integer-preserving update whatever
    the signs of the pivot and hit values and whether one divides the other;
    the results are checked against the `Fraction` oracles."""

    @pytest.mark.parametrize("rows", UPDATE_STREAMS.values(), ids=UPDATE_STREAMS.keys())
    def test_kernel_from_constraints(self, rows):
        n = 4
        expected = null_space_oracle(Mat([_dense(n, row) for row in rows], cols=n))
        kernel = kernel_from_constraints(n, rows)
        assert kernel.dim == 1
        assert kernel.basis == expected

    @pytest.mark.parametrize("rows", UPDATE_STREAMS.values(), ids=UPDATE_STREAMS.keys())
    @pytest.mark.parametrize("floor", [1, 2, 3])
    def test_floored_kernel(self, rows, floor):
        """Each row but the redundant third drops the dimension by one, so
        floor f stops after the 4 - f independent rows, and the result is
        the null space of the rows pulled."""
        n = 4
        pulled = []
        kernel = _kernel(n, (pulled.append(row) or row for row in rows), floor)
        assert len(pulled) == {1: 4, 2: 2, 3: 1}[floor]
        assert kernel.basis == null_space_oracle(Mat([_dense(n, row) for row in pulled], cols=n))

    @pytest.mark.parametrize("rows", [
        [[-2, 1, 0], [3, 0, 1], [5, -1, 1]],
        [[-2, 1, 0], [4, 0, 1], [6, -1, 1]],
        [[2, 1, 0], [3, 0, 1], [5, 1, 1]],
        [[-4, 1, 0, 2], [6, 0, 3, 0], [9, 2, 0, 1], [11, 3, 3, 3]],
    ], ids=["(-2, 3)", "(-2, 4)", "(2, 3)", "(-4, 6) and (-4, 9)"])
    def test_from_rows(self, rows):
        """The least pivot at column 0 meets each named (p, f) in `_int_rref`."""
        n = len(rows[0])
        reduced, _, rank = rref_oracle(Mat(rows, cols=n))
        assert Subspace.from_rows(n, rows).basis == reduced.data[:rank]


class TestPackedZeroTest:
    """Once a redundant run has read enough of a dense basis, `_kernel`
    tests a row for redundancy as one packed integer sum (`linalg._packed`),
    with slots sized for a bound B on the rows' L1 norms; a nonzero sum, a
    row of L1 norm B or more, or an independent row takes the column path.
    The result must be the dense kernel's."""

    @staticmethod
    def _recorded(monkeypatch):
        """The (bound, packed columns) of every pack `_kernel` builds, and the
        rows it reads on the column path and finds redundant."""
        builds, redundant = [], []
        packed, length_hint = linalg._packed, linalg.length_hint

        def building(vectors, columns, bound):
            builds.append((bound, packed(vectors, columns, bound)))
            return builds[-1][1]

        monkeypatch.setattr(linalg, "_packed", building)
        monkeypatch.setattr(linalg, "length_hint", lambda row: redundant.append(row) or length_hint(row))
        return builds, redundant

    # On Q^5 the row r = (1, 1, 1, 1, 1) leaves the vectors e_k - e_0, k = 1..4,
    # 8 nonzeros in 5 columns.  Five more rows 3 r, 25 entries against 4 n = 20,
    # complete a redundant run, and the last, of norm 15, sizes the slots:
    # B = 2^(2 bits(15)) = 2^8 and w = bits(1) + bits(B) + 1 = 11.
    _R = [(j, 1) for j in range(5)]
    _RUN = [_R] + [[(j, 3) for j in range(5)] for _ in range(5)]

    @staticmethod
    def _alias(w):
        """An independent row whose packed sum is zero: 2^w on the first
        vector's slot and -1 on the second's, slot 0 + 2^w slot 1 = 0."""
        return [(1, 1 << w), (2, -1)]

    def test_a_row_that_aliases_at_2_to_the_w_is_refused_by_the_norm_check(self, monkeypatch):
        builds, _ = self._recorded(monkeypatch)
        rows = self._RUN + [self._alias(11)]
        streamed = kernel_from_constraints(5, rows)
        ((bound, packed),) = builds
        assert bound == 1 << 8 and packed[2] == 1 << 11
        assert sum(c * packed[j] for j, c in rows[-1]) == 0
        assert streamed.dim == 3
        assert streamed.basis == null_space_oracle(Mat([_dense(5, row) for row in rows], cols=5))

    def test_a_row_below_the_bound_passes_and_one_at_it_widens_the_next_pack(self, monkeypatch):
        """51 r (norm 255 = B - 1) is passed over on the packed sum; 50 r
        written with two more entries 3 and -3 (norm 256 = B) is read on the
        column path, and the pack built next has B = 2^(2 bits(256)) = 2^18,
        so w = 21: the row that aliases there is refused too."""
        builds, redundant = self._recorded(monkeypatch)
        below, at = [(j, 51) for j in range(5)], [(j, 50) for j in range(5)] + [(0, 3), (0, -3)]
        rows = self._RUN + [below, at, self._alias(21)]
        streamed = kernel_from_constraints(5, rows)
        assert [bound for bound, _ in builds] == [1 << 8, 1 << 18]
        assert builds[1][1][2] == 1 << 21
        assert not any(row is below for row in redundant)
        assert any(row is at for row in redundant)
        assert streamed.dim == 3
        assert streamed.basis == null_space_oracle(Mat([_dense(5, row) for row in rows], cols=5))

    @pytest.mark.parametrize("seed", range(4))
    def test_int_and_fraction_rows_in_any_container_match_the_oracle(self, seed, monkeypatch):
        """Integer combinations of 8 integer rows on Q^20, a late independent
        row, rational combinations and then integer ones again, each row a
        list, a tuple, dict_items or a one-shot generator: the index is
        packed before and after the late row, the packed tests read both
        kinds of row, and the kernel is the oracle's, floored or not."""
        from random import Random

        rng = Random(seed)
        n = 20
        base = [{j: rng.randint(-9, 9) for j in range(n)} for _ in range(8)]

        def combination(*weights):
            row = {}
            for w, picked in zip(weights, rng.sample(base, len(weights))):
                for j, c in picked.items():
                    row[j] = row.get(j, 0) + w * c
            return row

        def ints():
            return combination(rng.randint(1, 5), -rng.randint(1, 5))

        dicts = base + [ints() for _ in range(20)] + [{j: rng.randint(-9, 9) for j in range(n)}]
        dicts += [ints() for _ in range(8)]
        dicts += [combination(F(rng.randint(1, 5), rng.randint(2, 3)), rng.randint(1, 5)) for _ in range(20)]
        dicts += [ints() for _ in range(8)]
        shapes = (list, tuple, lambda items: items, lambda items: (x for x in items))

        def stream():
            return (shapes[k % 4](row.items()) for k, row in enumerate(dicts))

        builds, _ = self._recorded(monkeypatch)
        integral, integrated = linalg._integral, []

        def recording(row):
            integrated.append(row := list(row))
            return integral(row)

        monkeypatch.setattr(linalg, "_integral", recording)
        oracle = null_space_oracle(Mat([_dense(n, row.items()) for row in dicts], cols=n))
        assert kernel_from_constraints(n, stream()).basis == oracle
        assert len(builds) >= 2
        # `_span` reads the surviving vectors through `_integral` too, so
        # the packed rows are the ones that hold a Fraction or follow one
        tested = [row for row in integrated if any(type(c) is Fraction for _, c in row)]
        assert tested and len(integrated) > len(tested) + len(oracle)
        assert _kernel(n, stream(), 5).basis == oracle

    @staticmethod
    def _stream(rng, n, rank, late, wide):
        """rank dense rational rows on Q^n, then seeded combinations of them,
        with ``late`` independent rows and ``wide`` rows scaled by 2^64 or
        more placed among the combinations, each scaled row a combination."""
        base = [[(j, F(rng.randint(-9, 9), rng.randint(1, 4))) for j in range(n)] for _ in range(rank)]

        def combination(scale):
            picked = rng.sample(base, 2)
            weights = (F(rng.randint(1, 5), rng.randint(1, 3)), F(-rng.randint(1, 5), rng.randint(1, 3)))
            return [(j, scale * w * c) for w, row in zip(weights, picked) for j, c in row]

        rows = [combination(1) for _ in range(60)]
        for _ in range(late):
            rows.insert(rng.randrange(20, len(rows)), [(j, F(rng.randint(-9, 9), rng.randint(1, 3))) for j in range(n)])
        for _ in range(wide):
            rows.insert(rng.randrange(20, len(rows)), combination(rng.choice((1 << 64, 3 << 70, (1 << 200) + 1))))
        return base + rows

    @pytest.mark.parametrize("seed", range(6))
    def test_streams_with_late_and_wide_rows_match_the_dense_kernel(self, seed, monkeypatch):
        from random import Random

        rng = Random(seed)
        n = 20
        rows = self._stream(rng, n, rank=8, late=2, wide=3)
        builds, _ = self._recorded(monkeypatch)
        streamed = kernel_from_constraints(n, rows)
        dense = [_dense(n, row) for row in rows]
        assert streamed.basis == null_space_oracle(Mat(dense, cols=n))
        # the packed index was built, dropped by a late independent row or
        # by a wide row and built again, wider after a wide row
        assert len(builds) >= 2
        assert builds[-1][0] > 1 << 128
        assert _kernel(n, rows, 1) == streamed

    def test_a_wide_independent_row_in_packed_mode(self, monkeypatch):
        """A row of L1 norm 2^70 that is independent: it is read on the column path."""
        from random import Random

        rng = Random(11)
        n = 20
        rows = self._stream(rng, n, rank=8, late=0, wide=0)
        rows.append([(0, F(1 << 70)), (1, F(3))])
        builds, _ = self._recorded(monkeypatch)
        streamed = kernel_from_constraints(n, rows)
        assert builds
        assert streamed.basis == null_space_oracle(Mat([_dense(n, row) for row in rows], cols=n))

    def test_the_slots_hold_every_value_exactly(self):
        """On two vectors top e_0 and top e_1, with slot width
        w = bits(top) + bits(B) + 1, the row (2^k, -1) of L1 norm below B
        has a nonzero packed sum for every k, and so does (B - 1, 0) at the
        largest slot value; (2^w, -1), of norm at least B, sums to zero."""
        for top in (1, (1 << 40) - 1):
            for bound in (1 << 8, 1 << 64):
                packed = linalg._packed({0: {0: top}, 1: {1: top}}, [{0: top}, {1: top}], bound)
                w = top.bit_length() + bound.bit_length() + 1
                assert packed == [top, top << w]
                for k in range(bound.bit_length() - 1):
                    assert sum(c * p for c, p in zip((1 << k, -1), packed))
                assert sum(c * p for c, p in zip((bound - 1, 0), packed)) == (bound - 1) * top < 1 << (w - 2)
                assert not sum(c * p for c, p in zip((1 << w, -1), packed))
