from fractions import Fraction
from random import Random

import pytest

import finalg as fa
from finalg.algebras import _bracket, _unclosed_side, _with_products
from finalg.linalg import _span
from finalg.structure import _common_gram_radical, _gram_forms, gram_columns
from helpers import (
    SEMIPRIME_NAMES,
    common_gram_radical_oracle,
    corpus,
    corpus_algebra,
    dense_copy,
    ideal_closure_oracle,
    is_ideal_direct,
    largest_ideal_oracle,
    matrix_trace,
    n3_algebra,
    non_unital_algebras,
    power_chain_dims,
    product_span_oracle,
    radical_oracle,
    random_algebra,
    random_subspace,
    rescaled_copy,
    row_algebra,
    trace_functional_from_covector,
    trace_space_oracle,
    unclosed_side_oracle,
    with_products_oracle,
    zero_product_algebra,
)

F = Fraction


class TestCommutatorSubspace:
    def test_commutative_algebra_has_none(self):
        a = fa.build_group_algebra(fa.cyclic_group(4))
        assert fa.commutator_subspace(a).dim == 0

    def test_m2_commutators_are_trace_zero(self):
        # Oracle: [M_n, M_n] is exactly the trace-zero matrices, dim n^2 - 1.
        a = fa.build_matrix_algebra(2)
        w = fa.commutator_subspace(a)
        assert w.dim == 3
        for row in w.basis:
            assert matrix_trace(2, row) == 0
        assert not w.contains_vector(a.unit)

    def test_group_algebra_codimension_is_class_count(self):
        # Oracle: dim F[G] - dim [F[G],F[G]] equals the number of conjugacy
        # classes (class functions).
        for make, classes in [
            (fa.symmetric_group(3), 3),
            (fa.dihedral_group(4), 5),
        ]:
            assert len(make.conjugacy_classes()) == classes
            a = fa.build_group_algebra(make)
            assert fa.commutator_subspace(a).dim == a.dim - classes

    def test_matches_the_span_of_element_commutators(self):
        # Oracle: the span of x y - y x over basis elements, multiplied as
        # elements, not read from the sparse products.
        rng = Random(73)
        algebras = (
            [a for _, a in corpus()]
            + [a for _, a in non_unital_algebras()]
            + [random_algebra(rng) for _ in range(20)]
        )
        for a in algebras:
            basis = [a.basis_element(i) for i in range(a.dim)]
            rows = [(x * y - y * x).coeffs for x in basis for y in basis]
            assert fa.commutator_subspace(a) == fa.Subspace.from_rows(a.dim, rows)

    def test_generator_pairs_span_the_all_pairs_span(self):
        """[A, A] from the commutators [b_s, b_j], s a generator, equals the
        span of all d(d-1)/2 basis-pair commutators."""
        rng = Random(83)
        algebras = (
            list(corpus()) + _dense_corpus() + list(non_unital_algebras())
            + [(f"random-{k}", random_algebra(rng)) for k in range(40)]
            + [("T4", fa.build_upper_triangular(4)), ("M4", fa.build_matrix_algebra(4))]
        )
        for name, a in algebras:
            pairs = _span(a.dim, [_bracket(a, i, j).items() for i in range(a.dim) for j in range(i + 1, a.dim)])
            assert fa.commutator_subspace(a) == pairs, name

    def test_a_dropped_generator_loses_commutators(self):
        """Mutation check: M2 is generated by e12 and e21, and the
        commutators of either one alone span 2 of the 3 dimensions of
        [A, A], so the comparison above sees a lost generator."""
        a = corpus_algebra("M2")
        assert a.generators == (1, 2)
        for kept in a.generators:
            span = _span(a.dim, [_bracket(a, kept, j).items() for j in range(a.dim)])
            assert span.dim == 2 < fa.commutator_subspace(a).dim == 3

    def test_product_span_of_unital_is_everything(self):
        for _, a in corpus():
            if a.is_unital:
                assert fa.product_span(a) == fa.Subspace.full(a.dim)

    def test_product_span_matches_the_dense_span(self):
        # With a unit, A^2 = A is returned without reading the products; the
        # RREF of all d^2 dense products must give the same canonical basis.
        algebras = (
            list(corpus())
            + [(f"dense-{name}", dense_copy(a, Random(k))) for k, (name, a) in enumerate(corpus())]
            + list(non_unital_algebras())
        )
        for name, a in algebras:
            assert repr(fa.product_span(a).basis) == repr(product_span_oracle(a).basis), name

    def test_product_span_of_zero_algebra_is_zero(self):
        assert fa.product_span(zero_product_algebra(2)).dim == 0


class TestLargestIdealWithin:
    def test_whole_space_is_an_ideal(self):
        a = fa.build_matrix_algebra(2)
        full = fa.Subspace.full(4)
        assert fa.largest_ideal_within(a, full) == full

    def test_m2_commutators_contain_no_ideal(self):
        # Oracle: M_2 is simple, so its only ideals are 0 and M_2, and
        # [M_2, M_2] is a proper subspace.
        a = fa.build_matrix_algebra(2)
        w = fa.commutator_subspace(a)
        assert w.dim < a.dim
        assert fa.largest_ideal_within(a, w).dim == 0

    def test_a_zero_left_stable_part_ends_the_search(self, monkeypatch):
        """The largest ideal lies in J = {y in v : A y <= v}, so when J is
        zero, as on a commutator-simple algebra, the second kernel is not
        built; on T2, J = [A, A] and both are."""
        stable_part = fa.structure._stable_part
        sides = []

        def recording(a, covectors, side):
            sides.append(side)
            return stable_part(a, covectors, side)

        monkeypatch.setattr(fa.structure, "_stable_part", recording)
        for name, expected in (("M2", ["left"]), ("M3", ["left"]), ("QS3", ["left"]), ("T2", ["left", "right"])):
            a = corpus_algebra(name)
            sides.clear()
            found = fa.largest_ideal_within(a, fa.commutator_subspace(a))
            assert sides == expected, name
            assert found == largest_ideal_oracle(a, fa.commutator_subspace(a)), name

    def test_t2_commutator_line_is_already_an_ideal(self):
        a = fa.build_upper_triangular(2)
        w = fa.commutator_subspace(a)
        assert w == fa.Subspace.from_rows(3, [(0, 1, 0)])
        found = fa.largest_ideal_within(a, w)
        assert found == w
        assert is_ideal_direct(a, found)

    def test_output_is_ideal_inside_input_and_keeps_planted_ideals(self):
        rng = Random(11)
        for _ in range(100):
            a = random_algebra(rng)
            seed_elt = fa.random_element(a, rng)
            planted = fa.ideal_closure(
                a, fa.Subspace.from_rows(a.dim, [seed_elt.coeffs])
            )
            v = planted + random_subspace(a, rng, rng.randint(0, 2))
            found = fa.largest_ideal_within(a, v)
            assert v.contains(found)
            assert is_ideal_direct(a, found)
            assert found.contains(planted)


class TestCommutatorSimplicity:
    def test_matrix_algebras_are_commutator_simple(self):
        for n in (2, 3):
            assert fa.is_commutator_simple(fa.build_matrix_algebra(n))

    def test_group_algebra_s3(self):
        assert fa.is_commutator_simple(corpus_algebra("QS3"))

    def test_t2_witness_is_the_nilpotent_line(self):
        a = fa.build_upper_triangular(2)
        verdict = fa.is_commutator_simple(a)
        assert not verdict
        witness = verdict.witness
        assert witness.ideal == fa.Subspace.from_rows(3, [(0, 1, 0)])
        assert is_ideal_direct(a, witness.ideal)
        assert fa.commutator_subspace(a).contains(witness.ideal)
        assert "[A,A]" in witness.certificate

    def test_products_of_commutator_simple_stay_simple(self):
        assert fa.is_commutator_simple(corpus_algebra("M2xQC2"))
        assert fa.is_commutator_simple(corpus_algebra("M2tQC2"))


class TestRadical:
    def test_matrix_algebras_are_semisimple(self):
        for n in (2, 3):
            assert fa.radical(fa.build_matrix_algebra(n)).dim == 0

    def test_t2_radical_is_e12(self):
        # Oracle: e12 spans a square-zero ideal and T2/<e12> is a product of
        # two fields, so <e12> is the largest nilpotent ideal.
        a = fa.build_upper_triangular(2)
        rad = fa.radical(a)
        assert rad == fa.Subspace.from_rows(3, [(0, 1, 0)])
        assert is_ideal_direct(a, rad)
        assert power_chain_dims(a, rad, 3)[-1] == 0

    def test_radical_of_direct_product_is_blockwise(self):
        m2 = fa.build_matrix_algebra(2)
        t2 = fa.build_upper_triangular(2)
        p = fa.direct_product(m2, t2)
        rad = fa.radical(p)
        expected = [F(0)] * 7
        expected[4 + 1] = F(1)
        assert rad == fa.Subspace.from_rows(7, [expected])

    def test_non_unital_zero_algebra_is_its_own_radical(self):
        a = zero_product_algebra(2)
        assert fa.radical(a) == fa.Subspace.full(2)
        assert not fa.is_semiprime(a)

    # Hand-derived oracles on non-unital algebras, where the trace row of
    # the adjoined unit joins the rows of the basis products.
    def test_strictly_upper_triangular_n3_is_its_own_radical(self):
        assert fa.radical(n3_algebra()) == fa.Subspace.full(3)

    def test_e11_e12_span_has_radical_e12(self):
        # Basis e11, e12 of a subalgebra of M2: e11 e11 = e11, e11 e12 = e12,
        # the rest vanish.  <e12> is a square-zero ideal with a field quotient.
        assert fa.radical(row_algebra()) == fa.Subspace.from_rows(2, [(0, 1)])

    def test_radical_of_m2_times_n3_is_the_n3_block(self):
        p = fa.direct_product(fa.build_matrix_algebra(2), n3_algebra())
        assert p.unit is None
        block = [tuple(F(int(t == s)) for t in range(7)) for s in (4, 5, 6)]
        assert fa.radical(p) == fa.Subspace.from_rows(7, block)

    def test_group_algebras_are_semiprime(self):
        # Oracle: Maschke's theorem in characteristic zero.
        for group in (
            fa.cyclic_group(2),
            fa.cyclic_group(5),
            fa.symmetric_group(3),
            fa.dihedral_group(4),
        ):
            assert fa.is_semiprime(fa.build_group_algebra(group))

    def test_corpus_semiprimeness_matches_expectation(self):
        for name, a in corpus():
            assert fa.is_semiprime(a) == (name in SEMIPRIME_NAMES)

    def test_radical_is_nilpotent_within_dim_steps(self):
        rng = Random(13)
        for _ in range(40):
            a = random_algebra(rng)
            rad = fa.radical(a)
            if rad.dim == 0:
                continue
            dims = power_chain_dims(a, rad, a.dim)
            assert dims[-1] == 0
            assert len(dims) - 1 <= a.dim

    def test_quotient_by_radical_is_semiprime(self):
        rng = Random(17)
        seen_nontrivial = 0
        for _ in range(40):
            a = random_algebra(rng)
            rad = fa.radical(a)
            if rad.dim:
                seen_nontrivial += 1
            q = fa.quotient_algebra(a, rad)
            assert fa.radical(q).dim == 0
        assert seen_nontrivial > 0


class TestTraceFunctionals:
    def test_m2_trace_space_is_one_dimensional(self):
        # Oracle: codim of [M2, M2] in M2 is 1.
        a = fa.build_matrix_algebra(2)
        basis = fa.trace_functional_space(a)
        assert len(basis) == 1

    def test_qs3_trace_space_matches_class_functions(self):
        group = fa.symmetric_group(3)
        a = fa.build_group_algebra(group)
        assert len(fa.trace_functional_space(a)) == len(group.conjugacy_classes()) == 3

    def test_t2_trace_space_kills_e12(self):
        a = fa.build_upper_triangular(2)
        basis = fa.trace_functional_space(a)
        assert len(basis) == 2
        e12 = (F(0), F(1), F(0))
        for tf in basis:
            assert tf(e12) == 0

    def test_rank_nullity_cross_check(self):
        for _, a in corpus():
            products = fa.product_span(a)
            commutators = fa.commutator_subspace(a)
            expected = products.dim - (commutators & products).dim
            assert len(fa.trace_functional_space(a)) == expected

    def test_trace_identity_holds_on_basis_functionals(self):
        rng = Random(19)
        for _, a in corpus():
            for tf in fa.trace_functional_space(a):
                x = fa.random_element(a, rng)
                y = fa.random_element(a, rng)
                assert tf((x * y).coeffs) == tf((y * x).coeffs)

    def test_from_covector_rejects_non_traces(self):
        a = fa.build_matrix_algebra(2)
        with pytest.raises(ValueError, match="t\\(xy\\) = t\\(yx\\)"):
            trace_functional_from_covector(a, [0, 1, 0, 0])

    def test_evaluation_outside_domain_rejected(self):
        a = zero_product_algebra(2)
        basis = fa.trace_functional_space(a)
        assert basis == ()
        tf = fa.TraceFunctional(2, fa.product_span(a), ())
        with pytest.raises(ValueError, match="domain"):
            tf((1, 0))


class TestNondegeneracy:
    def test_matrix_trace_is_nondegenerate(self):
        for n in (2, 3):
            a = fa.build_matrix_algebra(n)
            cov = [F(0)] * (n * n)
            for p in range(n):
                cov[p * n + p] = F(1)
            tf = trace_functional_from_covector(a, cov)
            assert fa.is_nondegenerate_trace(a, tf)

    def test_identity_coefficient_on_group_algebras(self):
        for group in (fa.cyclic_group(2), fa.symmetric_group(3), fa.dihedral_group(4)):
            a = fa.build_group_algebra(group)
            cov = [F(0)] * group.order
            cov[group.identity_index] = F(1)
            tf = trace_functional_from_covector(a, cov)
            assert fa.is_nondegenerate_trace(a, tf)

    def test_a_non_trace_is_refused_at_its_first_basis_pair(self):
        """(1, 0, 0, 0) on M2's full A^2 reads the e11 coefficient:
        t(e11 b) = t(b e11) for every b, but t(e12 e21) = 1, t(e21 e12) = 0."""
        a = fa.build_matrix_algebra(2)
        tf = fa.TraceFunctional(4, fa.product_span(a), (1, 0, 0, 0))
        with pytest.raises(ValueError, match=r"^functional violates t\(xy\) = t\(yx\) at basis pair \(1,2\)$"):
            fa.is_nondegenerate_trace(a, tf)

    def test_the_trace_identity_is_read_off_the_gram_form(self):
        """Random functionals on A^2, most of them not traces: refused at the
        first basis pair where t(b_i b_j) != t(b_j b_i), as the pairwise
        check on the covector says, and decided otherwise."""
        rng = Random(8)
        for name in ("M2", "QS3", "T3", "QD4"):
            a = corpus_algebra(name)
            domain = fa.product_span(a)
            traces = fa.trace_functional_space(a)
            for trial in range(6):
                if trial % 3:
                    coeffs = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(domain.dim)]
                else:
                    weights = [rng.randint(-2, 2) for _ in traces]
                    coeffs = [sum((w * tf.coeffs[t] for w, tf in zip(weights, traces)), F(0))
                              for t in range(domain.dim)]
                tf = fa.TraceFunctional(a.dim, domain, coeffs)
                cov = fa.linalg._dense(zip(domain.pivots, coeffs), a.dim)
                try:
                    expected = trace_functional_from_covector(a, cov) and None
                except ValueError as exc:
                    expected = str(exc)
                if expected is None:
                    assert fa.is_nondegenerate_trace(a, tf) == (fa.gram_matrix(a, tf).rank() == a.dim), name
                else:
                    with pytest.raises(ValueError) as refused:
                        fa.is_nondegenerate_trace(a, tf)
                    assert str(refused.value) == expected, name

    def test_every_trace_on_t2_is_degenerate(self):
        a = fa.build_upper_triangular(2)
        e12 = (F(0), F(1), F(0))
        for tf in fa.trace_functional_space(a):
            assert not fa.is_nondegenerate_trace(a, tf)
            gram = fa.gram_matrix(a, tf)
            assert not any(gram.apply(e12))


class TestTraceSearch:
    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            fa.has_nondegenerate_trace(fa.build_matrix_algebra(2), seed=0, trials=0)

    def test_m3_finds_a_scalar_multiple_of_the_trace(self):
        a = fa.build_matrix_algebra(3)
        result = fa.has_nondegenerate_trace(a, seed=3, trials=10)
        assert result.found and not result.definite_negative
        assert fa.is_nondegenerate_trace(a, result.functional)

    def test_t2_definite_negative_with_common_radical_witness(self):
        a = fa.build_upper_triangular(2)
        result = fa.has_nondegenerate_trace(a, seed=3, trials=10)
        assert not result.found
        assert result.definite_negative
        assert result.degenerate_witness == (F(0), F(1), F(0))

    def test_group_algebras_find_witnesses(self):
        for group in (fa.cyclic_group(2), fa.symmetric_group(3), fa.dihedral_group(4)):
            a = fa.build_group_algebra(group)
            result = fa.has_nondegenerate_trace(a, seed=5, trials=10)
            assert result.found
            assert fa.is_nondegenerate_trace(a, result.functional)

    def test_an_all_zero_draw_is_skipped(self, monkeypatch):
        """On Q x Q both basis functionals are degenerate; seed 365 draws the
        weights 0, 0 first and (7/4, 9/4) second, so the zero functional is
        never tested and the second draw is the witness."""
        a = fa.direct_product(fa.build_matrix_algebra(1), fa.build_matrix_algebra(1))
        nondegenerate = fa.structure._nondegenerate
        tested = []

        def recording(algebra, form):
            tested.append(form()[0])
            return nondegenerate(algebra, form)

        monkeypatch.setattr(fa.structure, "_nondegenerate", recording)
        result = fa.has_nondegenerate_trace(a, seed=365, trials=10)
        assert result.found and result.trials_used == 2
        assert result.functional.coeffs == (F(7, 4), F(9, 4))
        # the two basis functionals, then the second draw
        assert tested == [[[(0, 1)], []], [[], [(1, 1)]], [[(0, 7)], [(1, 9)]]]

    def test_search_is_deterministic(self):
        a = corpus_algebra("QS3")
        first = fa.has_nondegenerate_trace(a, seed=9, trials=10)
        second = fa.has_nondegenerate_trace(a, seed=9, trials=10)
        assert first.functional.coeffs == second.functional.coeffs

    def test_nondegenerate_trace_implies_commutator_simple(self):
        # One-directional check only: a nondegenerate trace functional forces
        # commutator-simplicity, never the converse.
        for _, a in corpus():
            result = fa.has_nondegenerate_trace(a, seed=7, trials=10)
            if result.found:
                assert fa.is_commutator_simple(a)


class TestIdealClosure:
    def test_closure_is_an_ideal_containing_the_seed(self):
        rng = Random(23)
        for _ in range(30):
            a = random_algebra(rng)
            x = fa.random_element(a, rng)
            seed_space = fa.Subspace.from_rows(a.dim, [x.coeffs])
            closed = fa.ideal_closure(a, seed_space)
            assert closed.contains(seed_space)
            assert is_ideal_direct(a, closed)

    def test_closure_of_ideal_is_itself(self):
        a = fa.build_upper_triangular(2)
        rad = fa.radical(a)
        assert fa.ideal_closure(a, rad) == rad


def _oracle_algebras():
    """The corpus, seeded random algebras and the non-unital family."""
    rng = Random(61)
    return (
        list(corpus())
        + [(f"random-{k}", random_algebra(rng)) for k in range(30)]
        + list(non_unital_algebras())
    )


def _dense_corpus():
    """Seeded dense change-of-basis copies of the corpus."""
    return [(f"dense-{name}", dense_copy(a, Random(k))) for k, (name, a) in enumerate(corpus())]


def _test_subspaces(a, rng):
    """[A, A], 0, A, random subspaces, and the one-sided ideals generated by
    a random element, each alone and with a random line added."""
    x = fa.random_element(a, rng).coeffs
    out = [fa.commutator_subspace(a), fa.Subspace.zero(a.dim), fa.Subspace.full(a.dim)]
    out += [random_subspace(a, rng, rank) for rank in (1, a.dim // 2, a.dim - 1)]
    for side in ("left", "right"):
        one_sided = fa.Subspace.from_rows(
            a.dim, [x] + [a.mul_basis(i, x, side) for i in range(a.dim)]
        )
        out += [one_sided, one_sided + random_subspace(a, rng, 1)]
    return out


class TestClosedFormsAgainstOracles:
    """The closed forms against the fixed-point loops they replaced, kept
    in helpers as oracles, and the trace space against a kernel over the
    commutators' coordinates on A^2.  The non-unital algebras matter: there
    A^2 can be smaller than A, and x need not lie in A x."""

    def test_largest_ideal_within_matches_the_fixed_point(self):
        rng = Random(7)
        for name, a in _oracle_algebras():
            for v in _test_subspaces(a, rng):
                assert fa.largest_ideal_within(a, v) == largest_ideal_oracle(a, v), name

    def test_unclosed_side_matches_the_dense_products(self):
        """The side, left first, on which A moves a subspace out of itself,
        decided by one span per side, against the dense product loop that
        the simplicity witness and the quotient re-checked with before."""
        rng = Random(9)
        for name, a in _oracle_algebras() + _dense_corpus():
            for v in _test_subspaces(a, rng):
                assert _unclosed_side(a, v) == unclosed_side_oracle(a, v), name

    def test_with_products_matches_the_fraction_rows(self):
        """v + A v and v + v A from integer rows against the sparse
        `Fraction` rows they replaced, on random subspaces with fractional
        entries, and on tables with fractional constants too."""
        rng = Random(10)
        scales = [Fraction(2), Fraction(1, 3), Fraction(-1), Fraction(5, 2)]
        rescaled = [
            (f"rescaled-{name}", rescaled_copy(corpus_algebra(name), (scales * 9)[start:]))
            for start, name in enumerate(("M2", "QS3", "T3"))
        ]
        for name, a in _oracle_algebras() + _dense_corpus() + rescaled:
            for v in _test_subspaces(a, rng):
                for side in ("left", "right"):
                    assert _with_products(a, v, side) == with_products_oracle(a, v, side), (name, side)

    def test_ideal_closure_matches_the_fixed_point(self):
        rng = Random(8)
        for name, a in _oracle_algebras():
            for v in _test_subspaces(a, rng):
                assert fa.ideal_closure(a, v) == ideal_closure_oracle(a, v), name

    def test_trace_space_matches_the_commutator_kernel(self):
        for name, a in list(corpus()) + list(non_unital_algebras()):
            found = tuple(tf.coeffs for tf in fa.trace_functional_space(a))
            assert found == trace_space_oracle(a), name

    def test_gram_matrix_matches_the_dense_products(self):
        """G[i][j] = t(b_i b_j), read from dense products through the
        coordinates on A^2, for every basis functional and two seeded
        combinations; on the non-unital algebras A^2 can be smaller than A."""
        rng = Random(9)
        for name, a in list(corpus()) + _dense_corpus() + list(non_unital_algebras()):
            basis = fa.trace_functional_space(a)
            functionals = list(basis)
            for _ in range(2 if basis else 0):
                weights = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in basis]
                coeffs = [sum((w * tf.coeffs[s] for w, tf in zip(weights, basis)), F(0))
                          for s in range(basis[0].domain.dim)]
                functionals.append(fa.TraceFunctional(a.dim, basis[0].domain, coeffs))
            for tf in functionals:
                expected = [[tf(a.product(i, j)) for j in range(a.dim)] for i in range(a.dim)]
                assert fa.gram_matrix(a, tf) == fa.Mat(expected), name

    def test_gram_matrix_of_the_dimension_0_algebra(self):
        """On `algebra Z / dim 0` the functional that has_nondegenerate_trace
        returns has a 0 x 0 Gram matrix, which is nondegenerate."""
        a = fa.parse_algebra_document("algebra Z\ndim 0\n")
        result = fa.has_nondegenerate_trace(a, seed=1, trials=1)
        gram = fa.gram_matrix(a, result.functional)
        assert (gram.rows, gram.cols) == (0, 0)
        assert fa.is_nondegenerate_trace(a, result.functional)

    def test_radical_matches_the_dense_trace_kernel(self):
        rng = Random(11)
        m2n3 = fa.direct_product(fa.build_matrix_algebra(2), n3_algebra())
        for name, a in (
            list(corpus()) + _dense_corpus() + list(non_unital_algebras())
            + [(f"random-{k}", random_algebra(rng)) for k in range(20)] + [("M2xN3", m2n3)]
        ):
            assert fa.radical(a) == radical_oracle(a), name

    def test_gram_columns_match_the_dense_products(self):
        """Row u of G_f[u][v] = f(b_u b_v) on the left, column u on the right,
        for the covectors vanishing on [A, A] and seeded random ones, whose
        forms are not symmetric: each entry is an int g with g / D exact."""
        rng = Random(12)
        asymmetric = fractional = 0
        # a rescaled Q[S3] has fractional constants, so its forms have a denominator
        rescaled = rescaled_copy(corpus_algebra("QS3"), (F(1), F(1, 2), F(3), F(2, 5), F(7), F(1, 3)))
        for name, a in list(corpus()) + _dense_corpus() + list(non_unital_algebras()) + [("rescaled-QS3", rescaled)]:
            d = a.dim
            covectors = list(fa.commutator_subspace(a).annihilator().basis)
            covectors += [[F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d)] for _ in range(2)]
            for f in covectors:
                gram = [[fa.dot(f, a.product(u, v)) for v in range(d)] for u in range(d)]
                columns = [list(col) for col in zip(*gram)]
                asymmetric += gram != columns
                for side, form in (("left", gram), ("right", columns)):
                    found, denominator = gram_columns(a, f, side)
                    assert type(denominator) is int and denominator > 0, name
                    fractional += denominator != 1
                    assert [[(k, F(g, denominator)) for k, g in row] for row in found] == [
                        [(k, x) for k, x in enumerate(row) if x] for row in form
                    ], name
                    for row in found:
                        assert [k for k, _ in row] == sorted(k for k, _ in row)
                        assert all(type(g) is int for _, g in row)
                assert gram_columns(a, f) == gram_columns(a, f, "right")
        assert asymmetric and fractional

    def test_common_gram_radical_matches_the_kernel_intersection(self):
        """One kernel over all Gram rows against the dense Gram kernels
        intersected, for the whole basis, each functional alone and none."""
        zeros = [(f"Z{n}", zero_product_algebra(n)) for n in (1, 2, 3)]
        for name, a in list(corpus()) + _dense_corpus() + [("N3", n3_algebra())] + zeros:
            basis = fa.trace_functional_space(a)
            for functionals in [basis, ()] + [(tf,) for tf in basis]:
                found = _common_gram_radical(a, _gram_forms(a, functionals))
                assert found == common_gram_radical_oracle(a, functionals), name

    def test_common_gram_radical_reads_no_form_after_a_zero_kernel(self, monkeypatch):
        """On Q[S3] the first functional's Gram rows leave no kernel, so the
        next two forms are never built."""
        import finalg.structure as fs

        a = corpus_algebra("QS3")
        basis = fa.trace_functional_space(a)
        assert len(basis) == 3
        calls = []
        original = fs.gram_columns
        monkeypatch.setattr(fs, "gram_columns", lambda *args: calls.append(args) or original(*args))
        assert _common_gram_radical(a, _gram_forms(a, basis)) == fa.Subspace.zero(a.dim)
        assert len(calls) == 1

    def test_commutator_simplicity_witness_matches_the_fixed_point(self):
        for name, a in _oracle_algebras():
            verdict = fa.is_commutator_simple(a)
            expected = largest_ideal_oracle(a, fa.commutator_subspace(a))
            assert bool(verdict) == (expected.dim == 0), name
            if not verdict:
                assert verdict.witness.ideal == expected, name
