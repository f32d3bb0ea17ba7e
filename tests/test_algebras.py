import itertools
from fractions import Fraction
from functools import lru_cache
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import finalg as fa
from finalg.algebras import _first_failure, _generating_middles, _operator_rows, _sided, _with_products
from finalg.structure import gram_columns
from helpers import (
    adjoin_unit_oracle,
    algebra_from_tensor,
    associativity_oracle,
    center_oracle,
    corpus,
    corpus_algebra,
    dense_copy,
    direct_product_oracle,
    non_unital_algebras,
    random_algebra,
    rescaled_copy,
    tensor_product_oracle,
    unit_law_oracle,
    zero_product_algebra,
)

F = Fraction


class TestMatrixAlgebra:
    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            fa.build_matrix_algebra(0)

    def test_n1_is_the_field(self):
        a = fa.build_matrix_algebra(1)
        assert a.dim == 1
        assert a.is_unital
        x, y = a.element([F(2, 3)]), a.element([F(3)])
        assert x * y == y * x == a.element([F(2)])

    def test_n2_unit(self):
        a = fa.build_matrix_algebra(2)
        assert a.dim == 4
        assert a.unit == (F(1), F(0), F(0), F(1))

    def test_matrix_unit_product_rule(self):
        a = fa.build_matrix_algebra(2)
        e11, e12, e21, e22 = (a.basis_element(i) for i in range(4))
        assert e12 * e21 == e11
        assert e21 * e12 == e22
        assert (e12 * e12).is_zero()

    def test_left_mult_rank_of_e11(self):
        # Oracle: images of the four matrix units under left multiplication by
        # e11 are e11, e12, 0, 0, so exactly two are independent.
        a = fa.build_matrix_algebra(2)
        e11 = a.basis_element(0)
        images = [(e11 * a.basis_element(j)).coeffs for j in range(4)]
        assert images[0] == a.basis_element(0).coeffs
        assert images[1] == a.basis_element(1).coeffs
        assert not any(images[2]) and not any(images[3])
        assert a.mult_operator(e11, "left").rank() == 2


class TestGroupAlgebra:
    def test_c2_is_commutative(self):
        a = fa.build_group_algebra(fa.cyclic_group(2))
        assert a.dim == 2
        g0, g1 = a.basis_element(0), a.basis_element(1)
        assert g0 * g1 == g1 * g0 == g1
        assert g1 * g1 == g0

    def test_s3_is_noncommutative(self):
        group = fa.symmetric_group(3)
        a = fa.build_group_algebra(group)
        assert a.dim == 6
        noncommuting = any(
            group.mul(i, j) != group.mul(j, i)
            for i in range(6)
            for j in range(6)
        )
        assert noncommuting
        i, j = next(
            (i, j)
            for i in range(6)
            for j in range(6)
            if group.mul(i, j) != group.mul(j, i)
        )
        assert a.basis_element(i) * a.basis_element(j) != a.basis_element(j) * a.basis_element(i)

    def test_basis_products_follow_cayley(self):
        group = fa.dihedral_group(4)
        a = fa.build_group_algebra(group)
        for i in range(group.order):
            for j in range(group.order):
                prod = a.basis_element(i) * a.basis_element(j)
                assert prod == a.basis_element(group.mul(i, j))

    def test_unit_is_group_identity(self):
        group = fa.symmetric_group(3)
        a = fa.build_group_algebra(group)
        assert a.unit == a.basis_element(group.identity_index).coeffs


class TestFiniteGroup:
    def test_column_permutation_enforced(self):
        with pytest.raises(ValueError, match="not a permutation"):
            fa.FiniteGroup([[0, 1], [0, 1]])

    def test_identity_required(self):
        # Latin square on {0,1,2} with no identity row/column pair.
        with pytest.raises(ValueError, match="identity"):
            fa.FiniteGroup([[1, 0, 2], [0, 2, 1], [2, 1, 0]])

    def test_nonassociative_loop_rejected(self):
        # Smallest loop that is not a group: order 5, identity 0, but
        # (1*1)*2 = 2 while 1*(1*2) = 4.
        table = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        with pytest.raises(ValueError, match="associative"):
            fa.FiniteGroup(table)

    def test_declared_identity_validated(self):
        fa.FiniteGroup([[0, 1], [1, 0]], identity_index=0)
        with pytest.raises(ValueError, match="identity"):
            fa.FiniteGroup([[0, 1], [1, 0]], identity_index=1)

    def test_conjugacy_classes_s3(self):
        classes = fa.symmetric_group(3).conjugacy_classes()
        assert len(classes) == 3
        assert sorted(len(c) for c in classes) == [1, 2, 3]

    def test_conjugacy_classes_d4(self):
        classes = fa.dihedral_group(4).conjugacy_classes()
        assert len(classes) == 5
        assert sorted(len(c) for c in classes) == [1, 1, 2, 2, 2]

    def test_inverse(self):
        for g in (fa.cyclic_group(5), fa.symmetric_group(3), fa.dihedral_group(4), fa.symmetric_group(4)):
            for i in range(g.order):
                assert g.mul(i, g.inverse(i)) == g.mul(g.inverse(i), i) == g.identity_index


class TestUpperTriangular:
    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            fa.build_upper_triangular(0)

    def test_n1_is_the_field(self):
        assert fa.build_upper_triangular(1).dim == 1

    def test_n2_basis(self):
        a = fa.build_upper_triangular(2)
        assert a.dim == 3
        assert a.labels == ("e11", "e12", "e22")
        assert a.unit == (F(1), F(0), F(1))

    def test_e12_spans_a_square_zero_ideal(self):
        a = fa.build_upper_triangular(2)
        e12 = a.basis_element(1)
        assert (e12 * e12).is_zero()
        line = fa.Subspace.from_rows(3, [e12.coeffs])
        for i in range(3):
            b = a.basis_element(i)
            assert line.contains_vector((b * e12).coeffs)
            assert line.contains_vector((e12 * b).coeffs)

    def test_nilpotent_left_multiplication(self):
        a = fa.build_upper_triangular(2)
        left = a.mult_operator(a.basis_element(1), "left")
        assert left * left == fa.Mat.zeros(3, 3)


class TestMatrixUnits:
    """Both matrix-unit families against e_pq e_rs = [q=r] e_ps at their
    positions: M_n row-major, T_n the p <= q of that order."""

    @staticmethod
    def _check(a, n, positions, generators):
        assert a.dim == len(positions)
        assert a.labels == tuple(f"e{p + 1}{q + 1}" for p, q in positions)
        assert a.unit == tuple(F(int(p == q)) for p, q in positions)
        for i, (p, q) in enumerate(positions):
            for j, (r, s) in enumerate(positions):
                expected = ((positions.index((p, s)), 1),) if q == r else ()
                assert a.product_terms(i, j) == expected, (n, p, q, r, s)
                assert all(type(c) is int for _, c in a.product_terms(i, j))
        assert a.generators == tuple(sorted(positions.index(pq) for pq in generators))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matrix_algebra(self, n):
        positions = [(p, q) for p in range(n) for q in range(n)]
        # e11 = e12 e21 is a product of two other units on M2, so e12 and
        # e21 generate it; from M3 on, the first row, then the first column
        if n == 2:
            generators = [(0, 1), (1, 0)]
        else:
            generators = [(0, q) for q in range(n)] + [(p, 0) for p in range(1, n)]
        self._check(fa.build_matrix_algebra(n), n, positions, generators)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_upper_triangular(self, n):
        positions = [(p, q) for p in range(n) for q in range(p, n)]
        # the units that are no product of two others: e_pp and e_p,p+1
        generators = [(p, q) for p, q in positions if q - p <= 1]
        self._check(fa.build_upper_triangular(n), n, positions, generators)

    @pytest.mark.parametrize("build", [fa.build_matrix_algebra, fa.build_upper_triangular])
    def test_size_0_is_refused(self, build):
        with pytest.raises(ValueError, match="^matrix size must be at least 1$"):
            build(0)


class TestAssociativityValidation:
    def test_corrupted_tensor_rejected_with_triple(self):
        good = fa.build_matrix_algebra(2)
        c = [[list(good.product(i, j)) for j in range(4)] for i in range(4)]
        c[0][1][2] += 1
        with pytest.raises(fa.AssociativityError) as excinfo:
            algebra_from_tensor(c)
        i, j, k = excinfo.value.triple
        # Re-evaluate both sides at the reported triple straight from the
        # corrupted constants.
        dim = 4
        left = [F(0)] * dim
        for t in range(dim):
            for s in range(dim):
                left[s] += c[i][j][t] * c[t][k][s]
        right = [F(0)] * dim
        for t in range(dim):
            for s in range(dim):
                right[s] += c[j][k][t] * c[i][t][s]
        assert tuple(left) == excinfo.value.left
        assert tuple(right) == excinfo.value.right
        assert left != right

    @staticmethod
    def _rescaled(a, scales):
        """The constants and unit of a on the basis s_i b_i."""
        d = a.dim
        c = [[[a.product(i, j)[k] * scales[i] * scales[j] / scales[k] for k in range(d)]
              for j in range(d)] for i in range(d)]
        unit = None if a.unit is None else [a.unit[k] / scales[k] for k in range(d)]
        return c, unit

    @staticmethod
    def _sides(c, i, j, k):
        d = len(c)
        left = [F(0)] * d
        right = [F(0)] * d
        for t in range(d):
            for s in range(d):
                left[s] += c[i][j][t] * c[t][k][s]
                right[s] += c[j][k][t] * c[i][t][s]
        return tuple(left), tuple(right)

    def test_rational_failure_reports_the_fraction_sides(self):
        # Constants with denominators 2, 3 and 5 (and their products), then
        # one of them corrupted: the error must carry the first failing
        # triple and both sides exactly as the Fraction formula gives them.
        c, _ = self._rescaled(fa.build_matrix_algebra(2), (F(1, 2), F(1, 3), F(1), F(1, 5)))
        assert {x.denominator for plane in c for row in plane for x in row} == {1, 2, 3, 5}
        c[1][2][3] += F(7, 30)
        with pytest.raises(fa.AssociativityError) as excinfo:
            algebra_from_tensor(c)
        for first in itertools.product(range(4), repeat=3):
            left, right = self._sides(c, *first)
            if left != right:
                break
        error = excinfo.value
        assert error.triple == first
        assert error.left == left and error.right == right
        assert all(type(x) is Fraction for x in error.left + error.right)
        i, j, k = first
        assert str(error) == (
            f"associativity fails at basis triple ({i},{j},{k}): "
            f"(b{i}*b{j})*b{k} = {[str(x) for x in left]} but "
            f"b{i}*(b{j}*b{k}) = {[str(x) for x in right]}"
        )

    def test_dense_copy_with_non_dyadic_denominators_validates(self):
        a = dense_copy(corpus_algebra("QS3"), Random(3))
        c, unit = self._rescaled(a, (F(1), F(3), F(1, 5), F(7, 11), F(13), F(1, 9)))
        denominators = {x.denominator for plane in c for row in plane for x in row}
        assert all(any(q % p == 0 for q in denominators) for p in (3, 5, 7, 11))
        b = algebra_from_tensor(c, unit)
        assert b.unit == tuple(unit)
        for i in range(6):
            for j in range(6):
                assert b.product(i, j) == tuple(c[i][j])

    def test_bad_unit_rejected(self):
        a = fa.build_matrix_algebra(2)
        with pytest.raises(ValueError, match="unit"):
            fa.FinAlgebra(
                [[a.product_terms(i, j) for j in range(4)] for i in range(4)], unit=[1, 1, 0, 1]
            )


def _table(a):
    basis = range(a.dim)
    return [[a.product_terms(i, j) for j in basis] for i in basis]


@lru_cache(maxsize=1)
def _table_members():
    """The corpus, a dense copy of each member, the named algebras without a
    unit, and Q[S3] on a rescaled basis, whose constants are partly fractions."""
    members = list(corpus())
    members += [(f"dense-{name}", dense_copy(a, Random(k))) for k, (name, a) in enumerate(corpus())]
    members += list(non_unital_algebras())
    qs3 = corpus_algebra("QS3")
    scales = (F(1), F(1, 2), F(3), F(2, 5), F(7), F(1, 3))
    rescaled = [[[(k, scales[i] * scales[j] * x / scales[k]) for k, x in row]
                 for j, row in enumerate(plane)] for i, plane in enumerate(_table(qs3))]
    unit = [x / s for x, s in zip(qs3.unit, scales)]
    members.append(("rescaled-QS3", fa.FinAlgebra(rescaled, unit)))
    return tuple(members)


def _corrupted(table, rng):
    """The table with one seeded constant of one basis product shifted by a
    nonzero rational, or set where the product had no such term."""
    d = len(table)
    out = [[list(row) for row in plane] for plane in table]
    i, j, k = rng.randrange(d), rng.randrange(d), rng.randrange(d)
    terms = dict(out[i][j])
    terms[k] = terms.get(k, 0) + F(rng.choice((-2, -1, 1, 3)), rng.randint(1, 3))
    out[i][j] = sorted(terms.items())
    return out


class TestValidationParity:
    """FinAlgebra checks associativity on the middles of a generating set and
    scans every middle again only after a failure: the error must be the
    one of the full lexicographic scan (`associativity_oracle`), with the
    same triple, sides and message, and a table passing the scan must build."""

    def test_corrupted_tables_report_the_first_failing_triple(self):
        rng = Random(29)
        failures = outside = beyond = relocated = 0
        for name, a in _table_members():
            for _ in range(3):
                table = _corrupted(_table(a), rng)
                expected = associativity_oracle(table)
                if expected is None:
                    fa.FinAlgebra(table)
                    continue
                with pytest.raises(fa.AssociativityError) as excinfo:
                    fa.FinAlgebra(table)
                error = excinfo.value
                triple, left, right = expected
                assert (error.triple, error.left, error.right) == expected, name
                assert all(type(x) is Fraction for x in error.left + error.right)
                i, j, k = triple
                assert str(error) == (
                    f"associativity fails at basis triple ({i},{j},{k}): "
                    f"(b{i}*b{j})*b{k} = {[str(x) for x in left]} but "
                    f"b{i}*(b{j}*b{k}) = {[str(x) for x in right]}"
                )
                middles = _generating_middles(table)
                failures += 1
                outside += j not in middles
                beyond += i > 0
                relocated += _first_failure(table, middles)[0] != triple
        # the family reaches first failures whose middle the generating set
        # leaves out, failures the scan over its middles alone would place
        # elsewhere, and first failures past i = 0
        assert failures > 50 and outside and relocated and beyond

    def test_claimed_units_fail_at_the_first_basis_element(self):
        """Seeded claimed units, the true unit shifted in one or two entries
        or a seeded vector, fail at the first basis element the dense
        products name, or build when the oracle finds none."""
        rng = Random(31)
        failures = 0
        for name, a in _table_members():
            for _ in range(4):
                unit = list(a.unit) if a.unit is not None else [F(0)] * a.dim
                for _ in range(rng.randint(1, 2)):
                    unit[rng.randrange(a.dim)] += F(rng.choice((-1, 1, 2)), rng.randint(1, 2))
                claims = (unit, [F(rng.randint(-1, 1)) for _ in range(a.dim)])
                if a.unit is not None:
                    claims += (a.unit,)
                for claim in claims:
                    expected = unit_law_oracle(a, claim)
                    if expected is None:
                        assert fa.FinAlgebra(_table(a), claim).unit == tuple(claim), name
                        continue
                    failures += 1
                    with pytest.raises(ValueError) as excinfo:
                        fa.FinAlgebra(_table(a), claim)
                    assert str(excinfo.value) == (
                        f"claimed unit fails the unit law on basis element {expected}"
                    ), name
        assert failures > 100

    def test_the_packed_scan_matches_the_oracle_in_triple_and_sides(self):
        """`_first_failure` over every middle compares packed ints; its triple
        and both sides must be the Fraction oracle's on seeded single-constant
        corruptions of every corpus member, its dense copy, the algebras
        without a unit and a rescaled Q[S3], whose tables hold fractions."""
        rng = Random(41)
        failures = 0
        for name, a in _table_members():
            for _ in range(3):
                table = _corrupted(_table(a), rng)
                found = _first_failure(table, range(a.dim))
                assert found == associativity_oracle(table), name
                failures += found is not None
        assert failures > 50

    def test_small_random_tables_match_the_oracle(self):
        """Seeded tables of dimension 2 and 3 with constants in -2..4, most of
        them not associative, where the sides' slots carry into each other
        unless they are wide enough."""
        rng = Random(53)
        failures = 0
        for _ in range(400):
            d = rng.choice((2, 3))
            table = [[[(k, c) for k in range(d) if (c := rng.choice((0, 0, 1, -1, 2, 3, -2, 4)))]
                      for _ in range(d)] for _ in range(d)]
            found = _first_failure(table, range(d))
            assert found == associativity_oracle(table), table
            failures += found is not None
        assert failures > 300

    @pytest.mark.parametrize("name", ["M2", "QS3", "T3"])
    def test_constants_near_2_to_the_200(self, name):
        """On bases scaled by about 2^200 the constants reach 2^200 (one
        common scale) or are fractions of such numbers (seeded scales): the
        slots widen with them, and every seeded corruption is found where the
        oracle finds it."""
        a = fa.build_upper_triangular(3) if name == "T3" else corpus_algebra(name)
        rng = Random(47)
        for scales in ([F(1 << 200)] * a.dim, [F((1 << 200) + rng.randrange(1, 1 << 20)) for _ in range(a.dim)]):
            wide = rescaled_copy(a, scales)
            assert max(abs(c) for i in range(a.dim) for j in range(a.dim) for _, c in wide.product_terms(i, j)) > 1 << 190
            assert _first_failure(_table(wide), range(a.dim)) is None
            for _ in range(4):
                table = _corrupted(_table(wide), rng)
                assert _first_failure(table, range(a.dim)) == associativity_oracle(table), name

    def test_a_failure_among_the_middles_is_looked_up_in_full(self):
        # e22 e22 = 2 e22 in M2: the generating middles e12, e21 fail
        # first at (2,1,3), but the first failing triple is (1,3,3).
        table = _table(fa.build_matrix_algebra(2))
        table[3][3] = ((3, 2),)
        middles = _generating_middles(table)
        assert middles == [1, 2]
        assert _first_failure(table, middles)[0] == (2, 1, 3)
        with pytest.raises(fa.AssociativityError) as excinfo:
            fa.FinAlgebra(table, unit=[1, 0, 0, 1])
        assert (excinfo.value.triple, excinfo.value.left, excinfo.value.right) == (
            associativity_oracle(table)
        )
        assert str(excinfo.value) == (
            "associativity fails at basis triple (1,3,3): (b1*b3)*b3 = ['0', '1', '0', '0'] "
            "but b1*(b3*b3) = ['0', '2', '0', '0']"
        )

    def test_generating_middles_reach_every_index(self):
        # S must generate: closing S under the single-term products reaches
        # every index, by a fixed point independent of the greedy order.
        for name, a in _table_members() + (("QS4", fa.build_group_algebra(fa.symmetric_group(4))),):
            table = _table(a)
            middles = _generating_middles(table)
            reached = set(middles)
            while True:
                grown = reached | {
                    terms[0][0] for u in reached for v in reached
                    for terms in (table[u][v],) if len(terms) == 1
                }
                if grown == reached:
                    break
                reached = grown
            assert reached == set(range(a.dim)), name
            assert middles == sorted(middles)

    def test_generating_middles_of_the_standard_families(self):
        qs4 = fa.build_group_algebra(fa.symmetric_group(4))
        assert len(_generating_middles(_table(qs4))) == 4
        # M_n: e11, the first row and the first column
        assert _generating_middles(_table(fa.build_matrix_algebra(3))) == [0, 1, 2, 3, 6]
        # M2: e12 and e21, as e11 = e12 e21 and e22 = e21 e12
        assert _generating_middles(_table(fa.build_matrix_algebra(2))) == [1, 2]
        # T_n: the 2n - 1 indices e_pp and e_p,p+1, which are no product of
        # two others, before the e_ps they generate
        t4 = fa.build_upper_triangular(4)
        assert _generating_middles(_table(t4)) == [0, 1, 4, 5, 7, 8, 9]
        assert len(_generating_middles(_table(fa.build_upper_triangular(5)))) == 9
        # Q[C3] x M2: e12 and e21 join first, then g0 and g1 (every group
        # element is a product of two others); S is returned in increasing
        # order, the order in which a full scan reads its middles
        qc3m2 = fa.direct_product(fa.build_group_algebra(fa.cyclic_group(3)),
                                  fa.build_matrix_algebra(2))
        assert _generating_middles(_table(qc3m2)) == [0, 1, 4, 5]
        # dense copies: no single-term products, every middle
        dense = dense_copy(corpus_algebra("M3"), Random(0))
        assert _generating_middles(_table(dense)) == list(range(9))

    def test_group_algebra_of_s5(self):
        # d = 120: the generating set keeps the check at d^2 |S| triples
        g = fa.symmetric_group(5)
        a = fa.build_group_algebra(g)
        assert a.dim == 120
        assert a.unit == tuple(F(int(k == g.identity_index)) for k in range(120))
        assert len(_generating_middles(_table(a))) < 10


class TestProductTable:
    """FinAlgebra(terms, unit, labels) takes the table product_terms reads back."""

    def test_round_trip(self):
        for name, a in _table_members():
            b = fa.FinAlgebra(_table(a), a.unit, a.labels)
            assert b == a and b.unit == a.unit and b.labels == a.labels, name

    def test_coefficient_types(self):
        """product_terms holds integral coefficients as int and the others as
        Fraction; product, mul, mul_basis and mult_operator give Fractions."""
        rng = Random(5)
        seen = set()
        for name, a in _table_members():
            for i, j in itertools.product(range(a.dim), repeat=2):
                for _, c in a.product_terms(i, j):
                    assert type(c) is (int if c.denominator == 1 else Fraction), name
                    seen.add(type(c))
                assert all(type(x) is Fraction for x in a.product(i, j)), name
            x, y = fa.random_element(a, rng), fa.random_element(a, rng)
            values = list(a.mul(x.coeffs, y.coeffs))
            for i in range(a.dim):
                for side in ("left", "right"):
                    values += a.mul_basis(i, y.coeffs, side)
            for side in ("left", "right"):
                values += [v for row in a.mult_operator(x, side).data for v in row]
            assert all(type(v) is Fraction for v in values), name
        assert seen == {int, Fraction}

    def test_mul_basis_agrees_with_the_multiplication_operator(self):
        rng = Random(7)
        for name, a in _table_members():
            v = fa.random_element(a, rng).coeffs
            for i, side in itertools.product(range(a.dim), ("left", "right")):
                expected = a.mult_operator(a.basis_element(i), side).apply(v)
                assert a.mul_basis(i, v, side) == expected, name

    def test_mul_basis_checks_its_index_and_side(self):
        a = corpus_algebra("M2")
        for i in (-1, a.dim):
            with pytest.raises(ValueError, match="basis index out of range"):
                a.mul_basis(i, a.unit)
        with pytest.raises(ValueError, match="side must be 'left' or 'right'"):
            a.mul_basis(0, a.unit, "up")

    @pytest.mark.parametrize("i, j", [(-1, 3), (3, -1), (4, 0), (0, 4), (-5, 0)])
    def test_product_reads_check_their_indices(self, i, j):
        """On M2, -1 is not read as index 3 and 4 is no bare IndexError:
        product and product_terms raise the message basis_element uses."""
        a = corpus_algebra("M2")
        for read in (a.product, a.product_terms):
            with pytest.raises(ValueError, match="^basis index out of range$"):
                read(i, j)

    def test_every_sided_reader_rejects_a_bad_side(self):
        """One ValueError from each reader of the product table by side; a
        bad side is never read as "right"."""
        a = corpus_algebra("M2")
        readers = (
            lambda side: a.mult_operator(a.unit, side),
            lambda side: a.mul_basis(0, a.unit, side),
            lambda side: gram_columns(a, a.unit, side),
            lambda side: _with_products(a, fa.Subspace.full(a.dim), side),
            lambda side: _operator_rows(a, a.unit, side),
            lambda side: _sided(a, side),
        )
        for read in readers:
            for side in ("left", "right"):
                read(side)
            for side in ("up", "Left", None):
                with pytest.raises(ValueError, match="^side must be 'left' or 'right'$"):
                    read(side)

    def test_sided_tables(self):
        """The left table is the product table and the right one its
        transpose, built once per algebra."""
        for name, a in _table_members():
            left, right = _sided(a, "left"), _sided(a, "right")
            assert _sided(a, "right") is right, name
            for u, v in itertools.product(range(a.dim), repeat=2):
                assert left[u][v] == a.product_terms(u, v), name
                assert right[u][v] == a.product_terms(v, u), name

    def test_operator_rows_agree_with_the_multiplication_operator(self):
        """Row k of _operator_rows, its values at one j added up, is row k of
        mult_operator on both sides."""
        rng = Random(11)
        for name, a in _table_members():
            u = fa.random_element(a, rng).coeffs
            for side in ("left", "right"):
                rows = _operator_rows(a, u, side)
                dense = [[F(0)] * a.dim for _ in range(a.dim)]
                for k, row in enumerate(rows):
                    for j, x in row:
                        assert type(x) in (int, Fraction), name
                        dense[k][j] += x
                assert fa.Mat(dense, cols=a.dim) == a.mult_operator(u, side), name

    def test_shape_is_checked(self):
        for terms in ([[()], [(), ()]], [[(), ()]], [[(), ()], [()]]):
            with pytest.raises(ValueError, match="dim x dim"):
                fa.FinAlgebra(terms)

    def test_unit_and_labels_need_one_entry_per_basis_element(self):
        terms = [[((0, 1),), ()], [(), ((1, 1),)]]
        for unit in ([1], [1, 1, 0]):
            with pytest.raises(ValueError, match="unit vector has wrong length"):
                fa.FinAlgebra(terms, unit)
        for labels in (["e"], ["e", "f", "g"]):
            with pytest.raises(ValueError, match="label list has wrong length"):
                fa.FinAlgebra(terms, [1, 1], labels)
        assert fa.FinAlgebra(terms, [1, 1], ["e", "f"]).labels == ("e", "f")

    def test_index_out_of_range_rejected(self):
        for k in (1, 2, -1):
            with pytest.raises(ValueError, match=r"outside range\(1\)"):
                fa.FinAlgebra([[[(k, 1)]]])

    def test_repeated_or_decreasing_index_rejected(self):
        for pairs in ([(0, 1), (0, 1)], [(1, 1), (0, 1)], [(0, 1), (0, -1)]):
            terms = [[pairs, ()], [(), ()]]
            with pytest.raises(ValueError, match="strictly increasing"):
                fa.FinAlgebra(terms)

    def test_zero_coefficients_dropped(self):
        """Each product spelled densely, zeros included, as int 0 and as
        Fraction(0): the same algebra, with no zero among its terms."""
        for name, a in list(corpus())[:3] + [("rescaled-QS3", _table_members()[-1][1])]:
            basis = range(a.dim)
            for zero in (0, F(0)):
                terms = [[[(k, x or zero) for k, x in enumerate(a.product(i, j))] for j in basis]
                         for i in basis]
                b = fa.FinAlgebra(terms, a.unit)
                assert b == a, name
                assert _table(b) == _table(a), name
        assert fa.FinAlgebra([[[(0, 0)]]]).product_terms(0, 0) == ()

    def test_coefficients_are_read_exactly(self):
        a = fa.FinAlgebra([[[(0, 1)]]], unit=[1])
        assert a.product_terms(0, 0) == ((0, 1),) and type(a.product_terms(0, 0)[0][1]) is int
        assert a.product(0, 0) == (F(1),) and type(a.product(0, 0)[0]) is Fraction
        b = fa.FinAlgebra([[[(0, F(4, 2))]]])
        assert b.product_terms(0, 0) == ((0, 2),) and type(b.product_terms(0, 0)[0][1]) is int


@lru_cache(maxsize=1)
def _factors():
    """Corpus members, the named algebras without a unit up to dimension 3,
    and seeded random draws, which include non-unital adjoin_unit inputs."""
    rng = Random(31)
    named = list(corpus()) + [(n, a) for n, a in non_unital_algebras() if a.dim <= 3]
    return tuple(named + [(f"random-{k}", random_algebra(rng)) for k in range(6)])


class TestBuilderOracles:
    """direct_product, tensor_product and adjoin_unit against dense-tensor
    forms of themselves in helpers; labels are compared too, since == does not."""

    @staticmethod
    def _same(built, oracle, name):
        assert built == oracle and built.labels == oracle.labels, name

    def test_direct_product(self):
        for (x, a), (y, b) in itertools.product(_factors(), repeat=2):
            if a.dim + b.dim <= 12:
                self._same(fa.direct_product(a, b), direct_product_oracle(a, b), (x, y))

    def test_tensor_product(self):
        for (x, a), (y, b) in itertools.product(_factors(), repeat=2):
            if a.dim * b.dim <= 12:
                self._same(fa.tensor_product(a, b), tensor_product_oracle(a, b), (x, y))

    def test_adjoin_unit(self):
        for name, a in _factors():
            self._same(fa.adjoin_unit(a), adjoin_unit_oracle(a), name)


class TestElementArithmetic:
    def test_bilinearity_zero(self):
        rng = Random(0)
        for _, a in corpus():
            x = fa.random_element(a, rng)
            assert (x * a.zero()).is_zero()
            assert (a.zero() * x).is_zero()

    def test_mixed_algebra_rejected(self):
        a = fa.build_matrix_algebra(2)
        b = fa.build_upper_triangular(2)
        with pytest.raises(ValueError):
            a.basis_element(0) * b.basis_element(0)

    def test_negation_and_scalars(self):
        a = fa.build_matrix_algebra(2)
        x = a.element([1, F(1, 2), 0, -3])
        assert (-x).coeffs == (-1, F(-1, 2), 0, 3)
        assert x + -x == a.zero()
        for s in (2, F(-2, 3)):
            scaled = (s, F(s, 2), 0, -3 * s)
            assert (x * s).coeffs == scaled
            assert (s * x).coeffs == scaled
            assert all(type(c) is Fraction for c in (s * x).coeffs)
        with pytest.raises(TypeError):
            x * 1.5
        with pytest.raises(TypeError):
            "2" * x

    def test_repr_hash_and_equality_across_algebras(self):
        m2 = fa.build_matrix_algebra(2)
        x = m2.element([1, F(1, 2), 0, -3])
        assert repr(x) == "e11 + 1/2*e12 + -3*e22"
        assert repr(m2.zero()) == "0"
        unlabelled = fa.FinAlgebra([[((0, 1),), ()], [(), ((1, 1),)]], [1, 1])
        assert repr(unlabelled.element([0, 2])) == "2*b1"
        assert hash(x) == hash(m2.element([1, F(1, 2), 0, F(-3)]))
        assert {x, fa.build_matrix_algebra(2).element(x.coeffs)} == {x}
        # Q[C4] has the same dimension but another product
        other = fa.build_group_algebra(fa.cyclic_group(4)).element(x.coeffs)
        assert x != other and other != x
        assert x != x.coeffs

    def test_powers(self):
        a = fa.build_matrix_algebra(2)
        x = a.element([1, 2, 0, 3])
        assert x ** 1 == x
        assert x ** 2 == x * x
        assert x ** 0 == a.unit_element()

    def test_random_element_is_seed_deterministic(self):
        a = fa.build_matrix_algebra(2)
        assert fa.random_element(a, Random(5)) == fa.random_element(a, Random(5))


@lru_cache(maxsize=1)
def _mul_algebras():
    return tuple(a for _, a in corpus()) + (dense_copy(corpus_algebra("QS3"), Random(4)),)


_rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
# Mostly zero, as a sparse coefficient vector is, or never zero.
_sparse = st.one_of(st.just(F(0)), st.just(F(0)), st.just(F(0)), _rationals)
_dense = _rationals.filter(bool)


@st.composite
def _factor_pairs(draw):
    a = draw(st.sampled_from(_mul_algebras()))
    x, y = (
        draw(st.lists(draw(st.sampled_from([_sparse, _dense])), min_size=a.dim, max_size=a.dim))
        for _ in range(2)
    )
    return a, x, y


class TestMul:
    """FinAlgebra.mul against the definition x y = sum x_i y_j b_i b_j read
    from product_terms, on sparse and dense vectors."""

    @given(_factor_pairs())
    @settings(max_examples=150, deadline=None)
    def test_matches_product_terms(self, case):
        a, x, y = case
        expected = [F(0)] * a.dim
        for i, j in itertools.product(range(a.dim), repeat=2):
            for k, coef in a.product_terms(i, j):
                expected[k] += x[i] * y[j] * coef
        product = a.mul(x, y)
        assert product == tuple(expected)
        assert all(type(c) is Fraction for c in product)

    @pytest.mark.parametrize("x, y", [
        ((1, 0, 0, 0), (1,)),
        ((1,), (1, 0, 0, 0, 0, 0)),
        ((0, 0, 0, 0, 1), (1, 0, 0, 0)),
        ((1, 0, 0, 0), (0, 0, 0, 0, 1)),
    ])
    def test_vector_lengths_are_checked(self, x, y):
        """On M2 a short vector is not padded with zeros, and an entry past
        index d - 1 is not looked up: mul and mul_basis refuse both."""
        a = corpus_algebra("M2")
        with pytest.raises(ValueError, match="coefficient vector has wrong length"):
            a.mul(x, y)
        for v in (x, y):
            if len(v) != a.dim:
                for side in ("left", "right"):
                    with pytest.raises(ValueError, match="coefficient vector has wrong length"):
                        a.mul_basis(0, v, side)


class TestMultOperator:
    def test_unit_gives_identity(self):
        for _, a in corpus():
            if a.is_unital:
                assert a.mult_operator(a.unit_element(), "left") == fa.Mat.identity(a.dim)
                assert a.mult_operator(a.unit_element(), "right") == fa.Mat.identity(a.dim)

    def test_multiplicative_on_random_pairs(self):
        rng = Random(1)
        pool = [a for _, a in corpus()]
        for trial in range(100):
            a = pool[trial % len(pool)]
            x = fa.random_element(a, rng)
            y = fa.random_element(a, rng)
            lx = a.mult_operator(x, "left")
            ly = a.mult_operator(y, "left")
            assert a.mult_operator(x * y, "left") == lx * ly
            rx = a.mult_operator(x, "right")
            ry = a.mult_operator(y, "right")
            assert a.mult_operator(x * y, "right") == ry * rx

    def test_operator_agrees_with_multiply(self):
        rng = Random(2)
        for _, a in corpus():
            x = fa.random_element(a, rng)
            y = fa.random_element(a, rng)
            assert a.mult_operator(x, "left").apply(y.coeffs) == (x * y).coeffs
            assert a.mult_operator(x, "right").apply(y.coeffs) == (y * x).coeffs


class TestProducts:
    def test_direct_product_dimensions_add(self):
        m2 = fa.build_matrix_algebra(2)
        qc2 = fa.build_group_algebra(fa.cyclic_group(2))
        assert fa.direct_product(m2, qc2).dim == 6

    def test_componentwise_annihilation(self):
        m2 = fa.build_matrix_algebra(2)
        qc2 = fa.build_group_algebra(fa.cyclic_group(2))
        p = fa.direct_product(m2, qc2)
        left = p.element([1, 2, 3, 4, 0, 0])
        right = p.element([0, 0, 0, 0, 5, 6])
        assert (left * right).is_zero()
        assert (right * left).is_zero()

    def test_product_units(self):
        m2 = fa.build_matrix_algebra(2)
        qc2 = fa.build_group_algebra(fa.cyclic_group(2))
        p = fa.direct_product(m2, qc2)
        assert p.unit == tuple(m2.unit) + tuple(qc2.unit)
        t = fa.tensor_product(m2, qc2)
        expected = [F(0)] * 8
        for i, x in enumerate(m2.unit):
            for j, y in enumerate(qc2.unit):
                expected[i * 2 + j] = x * y
        assert t.unit == tuple(expected)

    def test_tensor_dimensions_multiply(self):
        m2 = fa.build_matrix_algebra(2)
        assert fa.tensor_product(m2, m2).dim == 16

    def test_tensor_product_rule(self):
        m2 = fa.build_matrix_algebra(2)
        qc2 = fa.build_group_algebra(fa.cyclic_group(2))
        t = fa.tensor_product(m2, qc2)
        # (e12 (x) g1)(e21 (x) g1) = e11 (x) g0
        x = t.basis_element(1 * 2 + 1)
        y = t.basis_element(2 * 2 + 1)
        assert x * y == t.basis_element(0)


class TestAdjoinUnit:
    def test_dimension_grows_by_one(self):
        t2 = fa.build_upper_triangular(2)
        assert fa.adjoin_unit(t2).dim == 4

    def test_commutators_unchanged_in_old_coordinates(self):
        t2 = fa.build_upper_triangular(2)
        extended = fa.adjoin_unit(t2)
        old = fa.commutator_subspace(t2)
        embedded = fa.Subspace.from_rows(4, [(F(0),) + row for row in old.basis])
        assert fa.commutator_subspace(extended) == embedded

    def test_zero_algebra_generator_still_squares_to_zero(self):
        extended = fa.adjoin_unit(zero_product_algebra(1))
        assert extended.dim == 2
        x = extended.basis_element(1)
        assert (x * x).is_zero()
        assert extended.unit_element() * x == x

    def test_embedded_copy_is_an_ideal(self):
        for base in (fa.build_upper_triangular(2), fa.build_matrix_algebra(2)):
            extended = fa.adjoin_unit(base)
            embedded = fa.Subspace.from_rows(
                extended.dim,
                [fa.Mat.identity(extended.dim).data[i] for i in range(1, extended.dim)],
            )
            for i in range(extended.dim):
                b = extended.basis_element(i)
                for j in range(1, extended.dim):
                    u = extended.basis_element(j)
                    assert embedded.contains_vector((b * u).coeffs)
                    assert embedded.contains_vector((u * b).coeffs)

    def test_old_unit_becomes_idempotent_not_identity(self):
        m1 = fa.build_matrix_algebra(1)
        extended = fa.adjoin_unit(m1)
        old_unit = extended.basis_element(1)
        assert old_unit * old_unit == old_unit
        assert old_unit != extended.unit_element()


class TestCenter:
    def test_center_of_m2_is_scalars(self):
        a = fa.build_matrix_algebra(2)
        z = fa.center(a)
        assert z.dim == 1
        assert z.contains_vector(a.unit)

    def test_center_of_commutative_is_everything(self):
        a = fa.build_group_algebra(fa.cyclic_group(4))
        assert fa.center(a) == fa.Subspace.full(4)

    def test_center_of_qs3_is_class_sums(self):
        group = fa.symmetric_group(3)
        a = fa.build_group_algebra(group)
        z = fa.center(a)
        classes = group.conjugacy_classes()
        assert z.dim == len(classes) == 3
        for cls in classes:
            vec = [F(0)] * 6
            for g in cls:
                vec[g] = F(1)
            assert z.contains_vector(vec)

    @staticmethod
    def _members():
        """The product-table members above and M2 x M2."""
        m2 = corpus_algebra("M2")
        return [*_table_members(), ("M2xM2", fa.direct_product(m2, m2))]

    def test_center_agrees_with_the_dense_kernel(self):
        for name, a in self._members():
            assert fa.center(a) == center_oracle(a), name

    def test_every_generator_is_needed(self):
        """Mutation: with the last generator left out, the kernel is the
        centralizer of the others, which is larger on some member."""
        differs = []
        for name, a in self._members():
            fewer = fa.FinAlgebra(_table(a), a.unit)
            fewer.generators = fewer.generators[:-1]
            if fa.center(fewer) != center_oracle(a):
                differs.append(name)
        assert "M2" in differs


class TestQuotient:
    def test_t2_modulo_radical(self):
        t2 = fa.build_upper_triangular(2)
        rad = fa.radical(t2)
        q = fa.quotient_algebra(t2, rad)
        assert q.dim == 2
        assert q.is_unital
        x, y = q.basis_element(0), q.basis_element(1)
        assert x * y == y * x

    def test_non_ideal_rejected(self):
        a = fa.build_matrix_algebra(2)
        line = fa.Subspace.from_rows(4, [(1, 0, 0, 0)])
        with pytest.raises(ValueError, match="ideal"):
            fa.quotient_algebra(a, line)

    def test_one_sided_ideals_name_the_side_that_fails(self):
        # On M2 (e11, e12, e21, e22) the first column is a left ideal and the
        # first row a right one; neither is two-sided.
        a = fa.build_matrix_algebra(2)
        column = fa.Subspace.from_rows(4, [(1, 0, 0, 0), (0, 0, 1, 0)])
        row = fa.Subspace.from_rows(4, [(1, 0, 0, 0), (0, 1, 0, 0)])
        with pytest.raises(ValueError, match="^subspace is not a right ideal$"):
            fa.quotient_algebra(a, column)
        with pytest.raises(ValueError, match="^subspace is not a left ideal$"):
            fa.quotient_algebra(a, row)

    def test_quotient_by_whole_algebra_is_zero_dimensional(self):
        a = zero_product_algebra(2)
        q = fa.quotient_algebra(a, fa.Subspace.full(2))
        assert q.dim == 0


class TestRandomConstructions:
    def test_random_algebras_validate(self):
        rng = Random(7)
        for _ in range(25):
            a = random_algebra(rng)
            assert a.dim <= 12
            if a.is_unital:
                assert a.unit_element() * a.basis_element(0) == a.basis_element(0)
