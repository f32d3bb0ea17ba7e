from fractions import Fraction
from random import Random

import pytest

import finalg as fa
import finalg.maps as fm
from finalg.maps import unflatten_map
from helpers import (
    SEMIPRIME_NAMES,
    Infeasible,
    conjugation_map,
    constraint_rows_oracle,
    corpus,
    corpus_algebra,
    criterion_membership_oracle,
    cubic_condition_oracle,
    dense_copy,
    first_violation_oracle,
    inner_automorphism_map,
    inner_derivation_map,
    inner_derivation_oracle,
    inner_similarity_witness_oracle,
    local_derivation_test_oracle,
    matrix_trace,
    non_unital_algebras,
    path_algebra,
    random_algebra,
    random_invertible,
    rescaled_copy,
    row_stream_digest,
    verify_jordan_criterion_oracle,
    solve_affine,
    zero_product_algebra,
)

F = Fraction


class TestDerivationSpaces:
    def test_m2_derivations(self):
        # Oracle: all derivations of M_n are inner; dim = n^2 - 1.
        assert fa.derivation_space(corpus_algebra("M2")).dim == 3

    def test_m3_derivations(self):
        assert fa.derivation_space(corpus_algebra("M3")).dim == 8

    def test_commutative_semisimple_has_no_derivations(self):
        assert fa.derivation_space(corpus_algebra("QC2")).dim == 0

    def test_qs3_derivations(self):
        # Oracle: Q[S3] is semisimple, so Der = inner with dim |G| - #classes.
        group = fa.symmetric_group(3)
        expected = group.order - len(group.conjugacy_classes())
        assert fa.derivation_space(corpus_algebra("QS3")).dim == expected == 3

    def test_basis_maps_satisfy_leibniz(self):
        rng = Random(31)
        for _, a in corpus():
            for d in fa.derivation_space(a).basis_maps():
                x = fa.random_element(a, rng)
                y = fa.random_element(a, rng)
                lhs = fa.apply_map(d, x * y)
                rhs = fa.apply_map(d, x) * y + x * fa.apply_map(d, y)
                assert lhs == rhs


class TestInnerDerivations:
    def test_commutative_gives_zero(self):
        assert fa.inner_derivation_space(corpus_algebra("QC2")).dim == 0

    def test_m2_inner_dimension(self):
        # Oracle: dim A - dim Z(A) = 4 - 1.
        a = corpus_algebra("M2")
        assert fa.inner_derivation_space(a).dim == a.dim - fa.center(a).dim == 3

    def test_inner_contained_in_derivations_everywhere(self):
        rng = Random(37)
        algebras = [a for _, a in corpus()] + [random_algebra(rng) for _ in range(50)]
        for a in algebras:
            inner = fa.inner_derivation_space(a)
            der = fa.derivation_space(a)
            assert inner.space <= der.space

    def test_span_matches_multiplication_operators(self):
        rng = Random(67)
        algebras = (
            [a for _, a in corpus()]
            + [a for _, a in non_unital_algebras()]
            + [random_algebra(rng) for _ in range(20)]
            + [dense_copy(corpus_algebra("QD4"), rng), fa.build_group_algebra(fa.symmetric_group(4))]
        )
        for a in algebras:
            assert fa.inner_derivation_space(a).space == inner_derivation_oracle(a)

    def test_ad_matches_bracket(self):
        rng = Random(41)
        for _, a in corpus():
            m = fa.random_element(a, rng)
            ad = a.mult_operator(m, "right") - a.mult_operator(m, "left")
            x = fa.random_element(a, rng)
            assert fa.apply_map(ad, x) == x * m - m * x


class TestJordanDerivations:
    def test_contains_derivations_always(self):
        rng = Random(43)
        algebras = [a for _, a in corpus()] + [random_algebra(rng) for _ in range(20)]
        for a in algebras:
            assert fa.derivation_space(a).space <= fa.jordan_derivation_space(a).space

    def test_equality_on_semiprime_corpus(self):
        for name, a in corpus():
            jordan = fa.jordan_derivation_space(a)
            der = fa.derivation_space(a)
            if name in SEMIPRIME_NAMES:
                assert jordan.space == der.space
            else:
                assert der.space <= jordan.space

    def test_jordan_identity_sampled(self):
        rng = Random(47)
        for _, a in corpus():
            for d in fa.jordan_derivation_space(a).basis_maps():
                x = fa.random_element(a, rng)
                lhs = fa.apply_map(d, x * x)
                rhs = fa.apply_map(d, x) * x + x * fa.apply_map(d, x)
                assert lhs == rhs


class TestDerivationCriterionSpace:
    def test_equals_derivations_on_m2(self):
        a = corpus_algebra("M2")
        assert fa.derivation_criterion_space(a).space == fa.derivation_space(a).space

    def test_zero_on_commutative_semisimple(self):
        assert fa.derivation_criterion_space(corpus_algebra("QC2")).dim == 0

    def test_contains_inner_on_unital_algebras(self):
        rng = Random(53)
        algebras = [a for _, a in corpus()] + [random_algebra(rng) for _ in range(20)]
        for a in algebras:
            if a.is_unital:
                inner = fa.inner_derivation_space(a)
                crit = fa.derivation_criterion_space(a)
                assert inner.space <= crit.space

    def test_zero_product_algebra_imposes_no_constraints(self):
        # Every product vanishes, so D(x)x = 0 lands in [A,A] = 0 for any D,
        # and the Leibniz identity 0 = 0 holds for any linear map.
        from helpers import zero_product_algebra

        a = zero_product_algebra(2)
        assert fa.derivation_criterion_space(a).dim == 4
        assert fa.derivation_space(a).dim == 4

    def test_polarization_soundness_sampled(self):
        # The quantified conditions really hold at random points for every
        # basis map of the polarized solution space.
        rng = Random(59)
        for _, a in corpus():
            commutators = fa.commutator_subspace(a)
            for d in fa.derivation_criterion_space(a).basis_maps():
                for _ in range(20):
                    x = fa.random_element(a, rng)
                    dx = fa.apply_map(d, x)
                    assert commutators.contains_vector((dx * x).coeffs)
                    assert commutators.contains_vector((dx * (x * x)).coeffs)


class TestVerifyDerivationCriterion:
    def test_m3_verified(self):
        report = fa.verify_derivation_criterion(corpus_algebra("M3"))
        assert report.verdict == "verified"
        assert report.spaces["derivations"] == 8
        assert report.spaces["criterion-maps"] == 8

    def test_qs3_verified(self):
        report = fa.verify_derivation_criterion(corpus_algebra("QS3"))
        assert report.verdict == "verified"
        assert report.spaces["derivations"] == 3
        assert report.spaces["criterion-maps"] == 3

    def test_t2_hypotheses_not_met(self):
        report = fa.verify_derivation_criterion(corpus_algebra("T2"))
        assert report.verdict == "hypotheses-not-met"
        failed = {c.name: c.passed for c in report.checks}
        assert failed["semiprime"] is False
        assert report.spaces["derivations"] == 2
        assert report.spaces["criterion-maps"] == 3

    def test_never_refutes_on_random_algebras(self):
        rng = Random(61)
        for _ in range(25):
            report = fa.verify_derivation_criterion(random_algebra(rng))
            assert report.verdict in ("verified", "hypotheses-not-met")


class TestMapSpaceStructure:
    def test_derivations_closed_under_commutator(self):
        for _, a in corpus():
            der = fa.derivation_space(a)
            basis = der.basis_maps()
            for e in basis:
                for f in basis:
                    assert der.contains_map(e * f - f * e)

    def test_flatten_round_trip(self):
        m = fa.transpose_map(2)
        assert unflatten_map(fa.flatten_map(m), 4) == m


class TestLocalDerivationTest:
    def test_actual_derivations_pass(self):
        for _, a in corpus():
            for d in fa.derivation_space(a).basis_maps():
                result = fa.local_derivation_test(a, d, seed=3, samples=5)
                assert result.passed and result

    def test_identity_map_counterexample_is_the_unit(self):
        a = corpus_algebra("M2")
        result = fa.local_derivation_test(a, fa.Mat.identity(4), seed=3, samples=5)
        assert not result.passed and not result
        assert result.counterexample == a.unit_element()

    def test_nonzero_map_on_qc2_fails_on_a_basis_element(self):
        a = corpus_algebra("QC2")
        d = fa.Mat([[0, 1], [0, 0]])  # kills the unit, moves g1 to g0
        result = fa.local_derivation_test(a, d, seed=3, samples=2)
        assert not result.passed
        assert result.counterexample == a.basis_element(1)

    def test_samples_must_be_positive(self):
        with pytest.raises(ValueError):
            fa.local_derivation_test(corpus_algebra("M2"), fa.Mat.identity(4), 0, 0)

    def test_failure_at_the_unit_draws_no_random_point(self, monkeypatch):
        """The random points are drawn only when reached: the transpose of
        M2 fails at the unit, before any of them."""
        drawn = []

        def counting(*args, **kwargs):
            drawn.append(1)
            return fa.random_element(*args, **kwargs)

        monkeypatch.setattr(fm, "random_element", counting)
        a = corpus_algebra("M2")
        result = fa.local_derivation_test(a, fa.transpose_map(2), seed=3, samples=1000)
        assert not result.passed
        assert result.counterexample == a.unit_element()
        assert result.points_tested == 1
        assert drawn == []

    @staticmethod
    def _solvable_oracle(a, d_map, seed, samples):
        """(passed, points tested, counterexample) by the affine-system
        route: d(x) = sum_E c_E E(x) is solved for the c_E at each point, in
        the point order of local_derivation_test."""
        basis_maps = fa.derivation_space(a).basis_maps()
        rng = Random(seed)
        points = [a.unit_element()] if a.unit is not None else []
        points += [a.basis_element(i) for i in range(a.dim)]
        points += [fa.random_element(a, rng) for _ in range(samples)]
        for tested, x in enumerate(points, 1):
            system = fa.Mat([e.apply(x.coeffs) for e in basis_maps], cols=a.dim).transpose()
            try:
                solve_affine(system, d_map.apply(x.coeffs))
            except Infeasible:
                return False, tested, x
        return True, len(points), None

    @pytest.mark.parametrize("name", ["M2", "QS3", "T3", "dense-T3"])
    def test_agrees_with_affine_feasibility(self, name):
        if name == "dense-T3":
            a = dense_copy(corpus_algebra("T3"), Random(23))
        else:
            a = corpus_algebra(name)
        rng = Random(29)
        derivations = fa.derivation_space(a).basis_maps()
        maps = list(derivations)
        for _ in range(4):
            combo = fa.Mat.zeros(a.dim, a.dim)
            for e in derivations:
                combo = combo + e.scaled(F(rng.randint(-3, 3), rng.randint(1, 2)))
            maps.append(combo)
            bump = [[F(0)] * a.dim for _ in range(a.dim)]
            bump[rng.randrange(a.dim)][rng.randrange(a.dim)] = F(rng.choice((-1, 1, 2)))
            maps.append(combo + fa.Mat(bump))
        verdicts = set()
        for seed, d_map in enumerate(maps):
            result = fa.local_derivation_test(a, d_map, seed=seed, samples=3)
            expected = self._solvable_oracle(a, d_map, seed, 3)
            assert (result.passed, result.points_tested, result.counterexample) == expected
            verdicts.add(result.passed)
        assert verdicts == {True, False}


class TestJordanHomomorphismCheck:
    def test_transpose_is_a_jordan_map(self):
        assert fa.jordan_homomorphism_check(corpus_algebra("M2"), fa.transpose_map(2))

    def test_identity_is_a_jordan_map(self):
        a = corpus_algebra("QS3")
        assert fa.jordan_homomorphism_check(a, fa.Mat.identity(6))

    def test_doubling_breaks_the_square_identity(self):
        a = corpus_algebra("M2")
        result = fa.jordan_homomorphism_check(a, fa.scaled_identity_map(4, 2))
        assert not result.ok
        assert result.witness["pair"] is not None

    def test_sampled_square_identity(self):
        rng = Random(71)
        a = corpus_algebra("M3")
        t = fa.transpose_map(3)
        for _ in range(20):
            x = fa.random_element(a, rng)
            assert fa.apply_map(t, x * x) == fa.apply_map(t, x) * fa.apply_map(t, x)


class TestMultiplicativityCheck:
    def test_transpose_is_anti_but_not_multiplicative(self):
        a = corpus_algebra("M2")
        t = fa.transpose_map(2)
        homo = fa.multiplicativity_check(a, t, "homomorphism")
        assert not homo.ok and homo.witness["pair"] is not None
        assert fa.multiplicativity_check(a, t, "antihomomorphism").ok

    def test_identity_is_multiplicative(self):
        a = corpus_algebra("QS3")
        assert fa.multiplicativity_check(a, fa.Mat.identity(6), "homomorphism").ok

    def test_zero_map_is_multiplicative(self):
        a = corpus_algebra("M2")
        assert fa.multiplicativity_check(a, fa.Mat.zeros(4, 4), "homomorphism").ok

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            fa.multiplicativity_check(corpus_algebra("M2"), fa.Mat.identity(4), "both")


class TestCubicConditionCheck:
    def test_transpose_on_m3(self):
        # Oracle: (x^3)^t - x^3 is trace-zero, and [M3, M3] is exactly the
        # trace-zero space; spot-check the trace fact at random points.
        a = corpus_algebra("M3")
        t = fa.transpose_map(3)
        assert fa.cubic_condition_check(a, t).ok
        rng = Random(73)
        for _ in range(20):
            x = fa.random_element(a, rng)
            tx = fa.apply_map(t, x)
            diff = (tx * tx * tx - x * x * x).coeffs
            assert matrix_trace(3, diff) == 0

    def test_identity_map_passes(self):
        assert fa.cubic_condition_check(corpus_algebra("QS3"), fa.Mat.identity(6)).ok

    def test_doubling_fails(self):
        # At x = 1 the difference is 7*1, whose trace is nonzero.
        a = corpus_algebra("M2")
        result = fa.cubic_condition_check(a, fa.scaled_identity_map(4, 2))
        assert not result.ok
        assert result.witness["triple"] is not None

    def test_passing_maps_satisfy_the_condition_at_random_points(self):
        rng = Random(79)
        a = corpus_algebra("M2")
        commutators = fa.commutator_subspace(a)
        for t in (fa.transpose_map(2), fa.Mat.identity(4)):
            assert fa.cubic_condition_check(a, t).ok
            for _ in range(25):
                x = fa.random_element(a, rng)
                tx = fa.apply_map(t, x)
                diff = (tx * tx * tx - x * x * x).coeffs
                assert commutators.contains_vector(diff)


def _oracle_member(name):
    """An algebra by name: a corpus member, T4, M4, M5, Q[S4], the non-unital
    M2 x Z (Z one dimension with zero product), or a dense copy of a corpus
    member."""
    if name == "T4":
        return fa.build_upper_triangular(4)
    if name in ("M4", "M5"):
        return fa.build_matrix_algebra(int(name[1]))
    if name == "QS4":
        return fa.build_group_algebra(fa.symmetric_group(4))
    if name == "M2xZ":
        return fa.direct_product(corpus_algebra("M2"), zero_product_algebra(1))
    if name.startswith("dense-"):
        return dense_copy(corpus_algebra(name[len("dense-"):]), Random(len(name)))
    return corpus_algebra(name)


@pytest.mark.parametrize("name", [
    "M2", "M3", "QS3", "QD4", "T3", "T4", "M2xZ", "dense-QS3", "dense-T3", "dense-M2",
    "M4", "M5", "QS4",
])
class TestCubicOracle:
    """The pointwise checks against dense evaluations over one family of
    members and maps: cubic_condition_check against the full residual
    reduced against [A, A] at every sorted triple, the criterion
    memberships against `criterion_membership_oracle`, and the checks
    outside [A, A] against `first_violation_oracle`.  Both pass, or both
    fail at the same tuple with the same sides (residual modulo [A, A])."""

    GROUPS = {
        "QS3": lambda: fa.symmetric_group(3),
        "QD4": lambda: fa.dihedral_group(4),
        "QS4": lambda: fa.symmetric_group(4),
    }
    # members whose dense oracles are slow on dense maps: they get no inner
    # automorphism and no random dense map
    LARGE = ("M4", "M5", "QS4")

    def _maps(self, name, a, rng):
        d = a.dim
        maps = [fa.Mat.identity(d), fa.scaled_identity_map(d, 2)]
        if name[0] == "M" and name[1:].isdigit():
            n = int(name[1:])
            maps.append(fa.transpose_map(n))
            # b -> b on e_{n-1,n}, -b on e_{n,n-1} and 0 elsewhere: skew for
            # the trace form, so D(x) x lies in [A, A], but for n >= 3 no
            # derivation, and it fails a late degree-3 membership
            skew = [[F(0)] * d for _ in range(d)]
            u, v = (n - 2) * n + n - 1, (n - 1) * n + n - 2
            skew[u][u], skew[v][v] = F(1), F(-1)
            maps.append(fa.Mat(skew))
        if name in self.GROUPS:
            group = self.GROUPS[name]()
            maps += [conjugation_map(a, group, g) for g in (1, group.order - 1)]
        if a.is_unital and name not in self.LARGE:
            maps.append(inner_automorphism_map(a, random_invertible(a, rng)))
        # a derivation, passing the criterion memberships
        w = a.basis_element(rng.randrange(d)) + a.basis_element(d - 1)
        derivation = inner_derivation_map(a, w)
        maps.append(derivation)
        for _ in range(2):
            perturbed = [[F(int(r == c)) for c in range(d)] for r in range(d)]
            perturbed[rng.randrange(d)][rng.randrange(d)] += F(rng.choice((-2, -1, 1, 3)), rng.randint(1, 3))
            maps.append(fa.Mat(perturbed))
            if name not in self.LARGE:
                maps.append(fa.Mat([
                    [F(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.25 else F(0)
                     for _ in range(d)]
                    for _ in range(d)
                ]))
        # maps changed in one late entry, which pass at the early tuples
        for base in (maps[2], derivation):
            late = [list(row) for row in base.data]
            r, c = rng.randrange(d // 2, d), rng.randrange(d // 2, d)
            late[r][c] += F(rng.choice((-1, 2)), rng.randint(1, 2))
            maps.append(fa.Mat(late))
        return maps

    def test_agrees_with_full_residual(self, name):
        a = _oracle_member(name)
        verdicts = set()
        for t in self._maps(name, a, Random(101)):
            result = fa.cubic_condition_check(a, t)
            expected = cubic_condition_oracle(a, t)
            assert (result.ok, result.witness) == (expected is None, expected)
            verdicts.add(result.ok)
        assert verdicts == {True, False}

    def test_criterion_memberships_agree_with_dense_evaluation(self, name):
        a = _oracle_member(name)
        verdicts = set()
        for t in self._maps(name, a, Random(101)):
            result = fm._first_violation(a, fm._CRITERION, t, "tuple")
            expected = criterion_membership_oracle(a, t)
            # repr: the residuals are Fractions, as the oracle's are
            assert repr(result) == repr(expected)
            verdicts.add(result is None)
        assert verdicts == {True, False}

    def test_checks_outside_commutators_agree_with_dense_evaluation(self, name):
        a = _oracle_member(name)
        checks = [(fm._JORDAN_HOMOMORPHISM, fa.jordan_homomorphism_check)] + [
            (identity, lambda a, t, mode=mode: fa.multiplicativity_check(a, t, mode))
            for mode, identity in fm._MULTIPLICATIVITY.items()
        ]
        verdicts = set()
        for t in self._maps(name, a, Random(101)):
            for identity, check in checks:
                result = check(a, t)
                expected = first_violation_oracle(a, (identity,), t, "pair")
                # repr: the sides are Fractions, as the oracle's are
                assert repr((result.ok, result.witness)) == repr((expected is None, expected))
                verdicts.add(result.ok)
        assert verdicts == {True, False}

    def test_leibniz_witness_agrees_with_dense_evaluation(self, name, monkeypatch):
        """Each map of the family, taken as the whole criterion space with the
        hypotheses taken as met: one outside the derivations is refuted with
        the oracle's first Leibniz violation."""
        a = _oracle_member(name)
        derivations = fa.derivation_space(a)
        monkeypatch.setattr(fm, "is_semiprime", lambda a: True)
        monkeypatch.setattr(fm, "is_commutator_simple", lambda a: True)
        refuted = 0
        for t in self._maps(name, a, Random(101)):
            space = fa.MapSpace(a.dim, fa.Subspace.from_rows(a.dim ** 2, [fa.flatten_map(t)]))
            for m in space.basis_maps():
                expected = first_violation_oracle(a, (fm._LEIBNIZ,), m, "pair")
                assert derivations.contains_map(m) == (expected is None)
                if expected is None:
                    continue
                monkeypatch.setattr(fm, "derivation_criterion_space", lambda a, s=space, **_: s)
                report = fa.verify_derivation_criterion(a)
                assert report.verdict == "REFUTATION"
                witness = dict(report.witness)
                assert witness.pop("direction") == "criterion map is not a derivation"
                assert witness.pop("map") == [list(row) for row in m.data]
                assert repr(witness) == repr(expected)
                refuted += 1
        assert refuted


class TestVerifyJordanCriterion:
    def test_m3_transpose_verified_with_antihomomorphism(self):
        report = fa.verify_jordan_criterion(corpus_algebra("M3"), fa.transpose_map(3))
        assert report.verdict == "verified"
        checks = {c.name: c.passed for c in report.checks}
        assert checks["cubic-condition"] and checks["unit-preserved"]
        assert checks["antihomomorphism"] is True
        assert checks["homomorphism"] is False

    def test_doubling_fails_hypotheses(self):
        report = fa.verify_jordan_criterion(
            corpus_algebra("M2"), fa.scaled_identity_map(4, 2)
        )
        assert report.verdict == "hypotheses-not-met"
        checks = {c.name: c.passed for c in report.checks}
        assert checks["unit-preserved"] is False
        assert checks["cubic-condition"] is False

    def test_group_conjugation_is_a_full_automorphism(self):
        group = fa.symmetric_group(3)
        a = corpus_algebra("QS3")
        g = next(i for i in range(6) if group.mul(i, i) == group.identity_index and i)
        t = conjugation_map(a, group, g)
        report = fa.verify_jordan_criterion(a, t)
        assert report.verdict == "verified"
        checks = {c.name: c.passed for c in report.checks}
        assert checks["homomorphism"] is True

    def test_never_refuted_on_a_zoo_of_maps(self):
        rng = Random(83)
        for name, a in corpus():
            zoo = [fa.Mat.identity(a.dim), fa.scaled_identity_map(a.dim, 2)]
            if name in ("M2", "M3"):
                zoo.append(fa.transpose_map(2 if name == "M2" else 3))
            if a.is_unital:
                zoo.append(inner_automorphism_map(a, random_invertible(a, rng)))
            zoo.append(
                fa.Mat(
                    [
                        [F(rng.randint(-3, 3)) for _ in range(a.dim)]
                        for _ in range(a.dim)
                    ]
                )
            )
            for t in zoo:
                report = fa.verify_jordan_criterion(a, t)
                assert report.verdict in ("verified", "hypotheses-not-met")


def _block_diagonal(*blocks):
    """The map acting as each square block on its own run of coordinates."""
    d = sum(b.rows for b in blocks)
    rows, at = [[F(0)] * d for _ in range(d)], 0
    for b in blocks:
        for r, row in enumerate(b.data):
            rows[at + r][at : at + b.cols] = row
        at += b.rows
    return fa.Mat(rows)


def _block_swap(d):
    """b_i <-> b_{i + d/2}: on a direct product of two copies of one
    algebra, the automorphism that swaps the factors."""
    return fa.Mat([[F(int(k == (j + d // 2) % d)) for j in range(d)] for k in range(d)])


def _m2xm2():
    m2 = corpus_algebra("M2")
    return fa.direct_product(m2, m2)


_GROUPS = {"QC2": lambda: fa.cyclic_group(2), **TestCubicOracle.GROUPS}

# The corpus, a dense copy of each member (few single-term products, so the
# generators are most or all of the basis), the named algebras without a
# unit, and M2 x M2.
_DECISION_MEMBERS = {
    **dict(corpus()),
    **{f"dense-{name}": dense_copy(a, Random(k)) for k, (name, a) in enumerate(corpus())},
    **dict(non_unital_algebras()),
    "M2xM2": _m2xm2(),
}


def _decision_maps(name, a, rng, late=3):
    """Homomorphisms (group and unit conjugations), antihomomorphisms
    (transposes, group inversion) and derivations (inner ones, and the
    derivation basis, outer where A has outer derivations), each also
    changed in its last column by `late` basis vectors in turn (b_0, b_d-1
    and a seeded one), so that the change shows only at the pairs that read
    that column."""
    d = a.dim
    maps = [fa.Mat.identity(d), fa.Mat.zeros(d, d)]
    if name in ("M2", "M3"):
        maps.append(fa.transpose_map(int(name[1])))
    if name == "M2xM2":
        transpose = fa.transpose_map(2)
        # the swap, the transpose of both factors, and of one factor only:
        # a Jordan automorphism that is neither multiplicative nor anti
        maps += [_block_swap(d), _block_diagonal(transpose, transpose),
                 _block_diagonal(transpose, fa.Mat.identity(4))]
    if name in _GROUPS:
        group = _GROUPS[name]()
        maps += [conjugation_map(a, group, g) for g in (1, group.order - 1)]
        maps.append(fa.map_from_basis_images(a, [a.basis_element(group.inverse(h)) for h in range(d)]))
    if a.is_unital:
        maps.append(inner_automorphism_map(a, random_invertible(a, rng)))
    maps.append(inner_derivation_map(a, fa.random_element(a, rng)))
    derivations = fa.derivation_space(a).basis_maps()
    maps += derivations[:2] + derivations[-1:]
    changed = []
    for t in maps:
        for k in (0, d - 1, rng.randrange(d))[:late]:
            rows = [list(row) for row in t.data]
            rows[k][d - 1] += 1
            changed.append(fa.Mat(rows))
    return maps + changed


def _has_products(a):
    return any(a.product_terms(i, j) for i in range(a.dim) for j in range(a.dim))


CLOSED = {"leibniz": fm._LEIBNIZ, **fm._MULTIPLICATIVITY}


@pytest.mark.parametrize("name", _DECISION_MEMBERS)
class TestGeneratorDecision:
    """Leibniz and both multiplicativity identities decided at the pairs
    whose first letter is a generator of A, against the full dense scan of
    `first_violation_oracle`: the same verdict, and from `_first_violation`
    the same first failing pair with the same sides."""

    def test_decision_and_witness_agree_with_the_full_scan(self, name):
        a = _DECISION_MEMBERS[name]
        verdicts = {identity: set() for identity in CLOSED}
        for t in _decision_maps(name, a, Random(149)):
            for identity, closed in CLOSED.items():
                expected = first_violation_oracle(a, (closed,), t, "pair")
                # repr: the sides are Fractions, as the oracle's are
                assert repr(fm._first_violation(a, (closed,), t, "pair")) == repr(expected)
                verdicts[identity].add(expected is None)
        expected_verdicts = {True, False} if _has_products(a) else {True}
        assert all(seen == expected_verdicts for seen in verdicts.values())

    def test_generators_generate(self, name):
        """The closure of the generators under products reaches every basis
        vector: their span, grown by products until it stops growing, is A."""
        a = _DECISION_MEMBERS[name]
        span = fa.Subspace.from_rows(a.dim, [a.basis_element(s).coeffs for s in a.generators])
        while True:
            grown = fa.Subspace.from_rows(a.dim, [*span.basis, *(
                a.mul(x, y) for x in span.basis for y in span.basis)])
            if grown.dim == span.dim:
                break
            span = grown
        assert span.dim == a.dim


def _verdict_maps(name, a):
    return _decision_maps(name, a, Random(151), late=1) + [fa.scaled_identity_map(a.dim, 2)]


# The dense cubic oracle is slow past d = 9, and on dense copies past d = 6.
@pytest.mark.parametrize("name", [
    name for name, a in _DECISION_MEMBERS.items() if a.dim <= (6 if name.startswith("dense-") else 9)
])
def test_jordan_criterion_agrees_with_the_full_checks(name):
    """The Jordan criterion against the version that runs every check in
    full, on the maps above, the zero map and 2 id: whole reports equal."""
    a = _DECISION_MEMBERS[name]
    for t in _verdict_maps(name, a):
        assert repr(fa.verify_jordan_criterion(a, t)) == repr(verify_jordan_criterion_oracle(a, t))


@pytest.mark.parametrize("name", _DECISION_MEMBERS)
class TestLocalDerivationDecision:
    """The local derivation test against the sampling test, on the maps
    above and 2 id: whole results equal; derivations pass with no
    derivation space solved and no point drawn."""

    def test_local_derivation_test_agrees_with_sampling(self, name):
        a = _DECISION_MEMBERS[name]
        for seed, t in enumerate(_verdict_maps(name, a)):
            assert fa.local_derivation_test(a, t, seed, 3) == local_derivation_test_oracle(a, t, seed, 3)

    def test_derivations_pass_without_a_solve_or_a_draw(self, name, monkeypatch):
        a = _DECISION_MEMBERS[name]
        derivations = fa.derivation_space(a).basis_maps()
        calls = []
        monkeypatch.setattr(fm, "random_element", lambda *args: calls.append("draw"))
        monkeypatch.setattr(fm, "derivation_space", lambda *args: calls.append("solve"))
        for t in [*derivations[:3], inner_derivation_map(a, fa.random_element(a, Random(157)))]:
            result = fa.local_derivation_test(a, t, seed=1, samples=5)
            assert result == fa.LocalDerivationResult(True, None, a.is_unital + a.dim + 5)
        assert calls == []


class TestBlockSwap:
    """The swap of the factors of M2 x M2 is an automorphism, but it moves
    e11 of one factor to the other, out of e11 + [A, A]: its cubic condition
    takes the full check, which fails at the first triple."""

    def test_cubic_condition_fails_at_the_first_triple(self, monkeypatch):
        a = _m2xm2()
        swap = _block_swap(8)
        assert fm._first_violation(a, (fm._MULTIPLICATIVITY["homomorphism"],), swap, "pair") is None
        full = []
        check = fm.cubic_condition_check
        monkeypatch.setattr(fm, "cubic_condition_check", lambda *args: full.append(1) or check(*args))
        report = fa.verify_jordan_criterion(a, swap)
        assert full == [1]
        assert report.verdict == "hypotheses-not-met"
        cubic = next(c for c in report.checks if c.name == "cubic-condition")
        assert (cubic.passed, cubic.detail) == (False, "fails at basis triple (0, 0, 0)")

    def test_implied_cubic_condition_runs_no_check(self, monkeypatch):
        for check in ("jordan_homomorphism_check", "cubic_condition_check"):
            monkeypatch.setattr(fm, check, lambda *args: pytest.fail("a full check ran"))
        # (anti)multiplicativity is decided by its public check, once per mode
        modes = []
        check = fm.multiplicativity_check
        monkeypatch.setattr(fm, "multiplicativity_check",
                            lambda a, t, mode: modes.append(mode) or check(a, t, mode))
        a = _m2xm2()
        transpose = fa.transpose_map(2)
        for t in (fa.Mat.identity(8), _block_diagonal(transpose, transpose)):
            assert fa.verify_jordan_criterion(a, t).verdict == "verified"
        assert modes == ["homomorphism", "antihomomorphism"] * 2


class TestInnerSimilarity:
    def test_identity_map_has_unit_witness(self):
        a = corpus_algebra("M2")
        rng = Random(89)
        x = fa.random_element(a, rng)
        found = fa.inner_similarity_witness(a, x, x, rng)
        assert found.status == "witness"
        assert found.witness == a.unit_element()

    def test_transpose_at_e12_finds_the_coordinate_swap(self):
        a = corpus_algebra("M2")
        t = fa.transpose_map(2)
        rng = Random(89)
        x = a.basis_element(1)
        found = fa.inner_similarity_witness(a, x, fa.apply_map(t, x), rng)
        assert found.status == "witness"
        assert found.witness == a.element([0, 1, 1, 0])

    def test_doubling_at_the_unit_is_infeasible(self):
        a = corpus_algebra("M2")
        rng = Random(89)
        target = a.element([2, 0, 0, 2])
        found = fa.inner_similarity_witness(a, a.unit_element(), target, rng)
        assert found.status == "infeasible"

    def test_witnesses_recheck_as_similarities(self):
        a = corpus_algebra("M2")
        t = fa.transpose_map(2)
        rng = Random(97)
        for sample in fa.local_inner_automorphism_test(a, t, seed=11, samples=4):
            assert sample.status == "witness"
            u = sample.witness
            x = sample.point
            assert u * x == fa.apply_map(t, x) * u
            assert a.mult_operator(u, "left").rank() == a.dim

    def test_non_unital_rejected(self):
        from helpers import zero_product_algebra

        a = zero_product_algebra(2)
        with pytest.raises(ValueError, match="unital"):
            fa.local_inner_automorphism_test(a, fa.Mat.identity(2), 1, 1)


class TestLocalTestParity:
    """Both local tests against their dense forms in `helpers`, on every
    unital member of the test corpus and on M4, T4 and T5 (d up to 16): the
    same verdicts, counterexamples, points tested, witnesses and random
    draws."""

    @staticmethod
    def _maps(name, a, rng):
        maps = [
            inner_derivation_map(a, fa.random_element(a, rng)),
            fa.scaled_identity_map(a.dim, 2),
            inner_automorphism_map(a, random_invertible(a, rng)),
            fa.Mat([[F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(a.dim)]
                    for _ in range(a.dim)]),
        ]
        if name in ("M2", "M3", "M4"):
            maps.append(fa.transpose_map(int(name[1])))
        return maps

    MEMBERS = {
        **{name: a for name, a in corpus() if a.is_unital},
        "M4": fa.build_matrix_algebra(4),
        "T4": fa.build_upper_triangular(4),
        "T5": fa.build_upper_triangular(5),
    }

    @pytest.mark.parametrize("name", MEMBERS)
    def test_local_derivation_test_agrees_with_the_dense_test(self, name):
        a = self.MEMBERS[name]
        rng = Random(131)
        verdicts = set()
        for seed, t in enumerate(self._maps(name, a, rng)):
            result = fa.local_derivation_test(a, t, seed=seed, samples=3)
            assert result == local_derivation_test_oracle(a, t, seed, 3)
            verdicts.add(result.passed)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("name", MEMBERS)
    def test_inner_similarity_witness_agrees_with_the_dense_search(self, name):
        a = self.MEMBERS[name]
        rng = Random(137)
        statuses = set()
        drew = False
        for seed, t in enumerate(self._maps(name, a, rng)):
            points = [a.unit_element(), *(a.basis_element(i) for i in range(a.dim))]
            points += [fa.random_element(a, Random(seed)) for _ in range(2)]
            for trials in (20, 1):
                new, old = Random(seed), Random(seed)
                for x in points:
                    target = fa.apply_map(t, x)
                    before = new.getstate()
                    found = fa.inner_similarity_witness(a, x, target, new, trials)
                    assert found == inner_similarity_witness_oracle(a, x, target, old, trials)
                    assert new.getstate() == old.getstate()
                    drew |= new.getstate() != before
                    statuses.add(found.status)
        # On Q[C2] (d = 2) no point here reaches the random trials.
        assert (statuses, drew) == ({"witness", "infeasible", "inconclusive"}, True) or name == "QC2"

    def test_element_of_another_algebra_is_rejected(self):
        a = corpus_algebra("M2")
        other = dense_copy(a, Random(5))
        x, y = a.basis_element(1), other.basis_element(1)
        for point, target in ((y, y), (x, y), (y, x)):
            for search in (fa.inner_similarity_witness, inner_similarity_witness_oracle):
                with pytest.raises(ValueError, match="different algebra"):
                    search(a, point, target, Random(1))


class TestCapSize:
    """The map spaces at the dimension cap (d = 24), near it and just above
    it, against independent oracles.  On a semisimple algebra, inner =
    derivations = Jordan derivations = criterion maps = d - dim(center), and
    dim(center) is the number of simple blocks."""

    @pytest.mark.parametrize("build, blocks", [
        # Q[S4]: one block per conjugacy class (the 5 partitions of 4),
        # because every irreducible representation of S_n is rational.
        (lambda: fa.build_group_algebra(fa.symmetric_group(4)), 5),
        # Q[S3] = Q + Q + M2(Q); tensoring with M2 keeps three blocks.
        (lambda: fa.tensor_product(
            fa.build_group_algebra(fa.symmetric_group(3)), fa.build_matrix_algebra(2)), 3),
        (lambda: fa.build_matrix_algebra(4), 1),
        # M5: d = 25, above the cap, which only the CLI enforces.
        (lambda: fa.build_matrix_algebra(5), 1),
        # Q[S4 x C2], d = 48: one block per conjugacy class, 5 x 2 of them.
        (lambda: fa.tensor_product(
            fa.build_group_algebra(fa.symmetric_group(4)), fa.build_group_algebra(fa.cyclic_group(2))), 10),
    ], ids=["QS4", "QS3tM2", "M4", "M5", "QS4tQC2"])
    def test_semisimple_spaces_agree(self, build, blocks):
        a = build()
        expected = a.dim - blocks
        report = fa.verify_derivation_criterion(a)
        assert report.verdict == "verified"
        assert report.spaces == {
            "inner-derivations": expected,
            "derivations": expected,
            "criterion-maps": expected,
        }
        assert fa.jordan_derivation_space(a).dim == expected

    def test_m5_transpose_jordan_criterion(self):
        report = fa.verify_jordan_criterion(fa.build_matrix_algebra(5), fa.transpose_map(5))
        assert report.verdict == "verified"
        checks = {c.name: c.passed for c in report.checks}
        assert checks["cubic-condition"] and checks["antihomomorphism"]
        assert checks["homomorphism"] is False

    def test_qs4_conjugation_jordan_criterion(self):
        group = fa.symmetric_group(4)
        a = fa.build_group_algebra(group)
        report = fa.verify_jordan_criterion(a, conjugation_map(a, group, 1))
        assert report.verdict == "verified"
        checks = {c.name: c.passed for c in report.checks}
        assert checks["cubic-condition"] and checks["homomorphism"]

    def test_s4_class_count(self):
        assert len(fa.symmetric_group(4).conjugacy_classes()) == 5

    def test_t5(self):
        # Every derivation of T_n is inner and the center is the scalars:
        # n(n+1)/2 - 1 = 14; Jordan derivations of T_n are derivations.
        # T5 has a radical, so the criterion's hypotheses fail.
        a = fa.build_upper_triangular(5)
        report = fa.verify_derivation_criterion(a)
        assert report.verdict == "hypotheses-not-met"
        assert {c.name: c.passed for c in report.checks}["semiprime"] is False
        assert report.spaces["inner-derivations"] == report.spaces["derivations"] == 14
        assert fa.jordan_derivation_space(a).dim == 14


# The members of `TestCapSize` up to d = 25, T4, T5 and a seeded dense
# copy of T4.
BUILDS = {
    "QS4": lambda: fa.build_group_algebra(fa.symmetric_group(4)),
    "QS3tM2": lambda: fa.tensor_product(
        fa.build_group_algebra(fa.symmetric_group(3)), fa.build_matrix_algebra(2)),
    "M4": lambda: fa.build_matrix_algebra(4),
    "M5": lambda: fa.build_matrix_algebra(5),
    "T4": lambda: fa.build_upper_triangular(4),
    "T5": lambda: fa.build_upper_triangular(5),
    "dense-T4": lambda: dense_copy(fa.build_upper_triangular(4), Random(1)),
}


def _floor_members():
    """The corpus, a dense copy of each member, `BUILDS` and the named
    algebras without a unit."""
    members = list(corpus())
    members += [(f"dense-{name}", dense_copy(a, Random(k))) for k, (name, a) in enumerate(corpus())]
    members += [(name, build()) for name, build in BUILDS.items()]
    return members + list(non_unital_algebras())


def _counting_rows(monkeypatch):
    """Counts, per system, the rows `_constraint_rows` hands out from now on."""
    rows = fm._constraint_rows
    pulled = {}

    def counted(a, identities, first=None):
        system = "criterion" if identities == fm._CRITERION else "derivation"
        pulled.setdefault(system, 0)
        for row in rows(a, identities, first):
            pulled[system] += 1
            yield row

    monkeypatch.setattr(fm, "_constraint_rows", counted)
    return pulled


# name -> system -> (rows pulled with the inner floor, rows in the full
# stream).  The floored Leibniz solve reads only the pairs whose first
# letter is a generator.  On T5, whose generators are 9 of its 15
# indices, it reaches the floor at row 760, where the full stream reached
# it at row 459.  The criterion maps of T5 (dimension 150) hold more than
# the 14 inner derivations, so a criterion solve floored at Inn alone
# never stops early; `verify_derivation_criterion` floors it at
# Inn + Hom(A, I), see `VERIFY_CRITERION_ROWS`.
FLOORED_ROWS = {
    "QS4": {"derivation": (2020, 13824), "criterion": (1764, 14500)},
    "QS3tM2": {"derivation": (2255, 11808), "criterion": (1422, 8364)},
    "T5": {"derivation": (760, 1215), "criterion": (150, 150)},
}

FLOORED_SPACES = {"derivation": fm.derivation_space, "criterion": fm.derivation_criterion_space}


class TestInnerFloor:
    """The derivation and criterion solves with the inner derivations as
    their floor, which lie in both spaces on every algebra."""

    @pytest.mark.parametrize("system", sorted(FLOORED_SPACES))
    def test_floored_equals_full(self, system):
        space = FLOORED_SPACES[system]
        for name, a in _floor_members():
            floored = space(a, floor=fa.inner_derivation_space(a))
            assert floored.space == space(a).space, (name, system)

    @pytest.mark.parametrize("name", sorted(FLOORED_ROWS))
    def test_rows_pulled(self, name, monkeypatch):
        a = BUILDS[name]()
        inner = fa.inner_derivation_space(a)
        pulled = _counting_rows(monkeypatch)
        for system, expected in FLOORED_ROWS[name].items():
            seen = []
            for floor in (inner, None):
                pulled.clear()
                FLOORED_SPACES[system](a, floor=floor)
                seen.append(pulled[system])
            assert tuple(seen) == expected, (name, system)

    @pytest.mark.parametrize("system", sorted(FLOORED_SPACES))
    def test_a_floor_unequal_to_where_the_solve_stops_is_an_internal_error(self, system, monkeypatch):
        """On M3, whose derivations and criterion maps are the 8 inner
        derivations, a floor of 8 unit maps stops the solve at dimension 8,
        at a kernel that is not that floor."""
        a = corpus_algebra("M3")
        units = fa.Subspace.from_rows(81, [[int(j == k) for j in range(81)] for k in range(8)])
        kernel = fm._kernel
        stopped = []

        def recording(n, rows, floor):
            result = kernel(n, rows, floor)
            stopped.append(result.dim)
            return result

        monkeypatch.setattr(fm, "_kernel", recording)
        with pytest.raises(fa.InternalError):
            FLOORED_SPACES[system](a, floor=fa.MapSpace(9, units))
        assert stopped == [8]


def _truncated_polynomials(n):
    """Q[x]/(x^n) on the basis 1, x, ..., x^(n-1), and its derivations: the
    D_m with x -> x^m for 1 <= m < n, so x^k -> k x^(k-1+m), zero when
    k - 1 + m >= n."""
    basis = range(n)
    a = fa.FinAlgebra([[((i + j, 1),) if i + j < n else () for j in basis] for i in basis],
                      [1] + [0] * (n - 1))
    maps = []
    for m in range(1, n):
        images = [[0] * n for _ in basis]
        for k in range(1, n - m + 1):
            images[k][k - 1 + m] = k
        maps.append(fm.flatten_map(fm.map_from_basis_images(a, images)))
    return a, fa.Subspace.from_rows(n * n, maps)


class TestGeneratorRows:
    """A floored Leibniz solve reads only the pairs whose first letter is a
    generator.  On Q[x]/(x^n), Inn = 0, so the floor never stops the solve:
    its kernel must be the derivations from those rows alone."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_generator_rows_give_the_derivations(self, n):
        a, derivations = _truncated_polynomials(n)
        inner = fa.inner_derivation_space(a)
        assert inner.dim == 0 and len(a.generators) < a.dim
        floored = fa.derivation_space(a, floor=inner)
        assert floored.space == fa.derivation_space(a).space == derivations
        assert floored.dim == n - 1

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_rows_at_a_set_that_does_not_generate_give_more_maps(self, n):
        """With x dropped from the generators 1, x, the rows read no longer
        pin down D(x), and the floored solve returns a larger space: it
        reads only the rows at `a.generators`, and the equality above
        holds because that set generates A."""
        a, derivations = _truncated_polynomials(n)
        assert a.generators == (0, 1)
        a.generators = (0,)
        floored = fa.derivation_space(a, floor=fa.inner_derivation_space(a))
        assert floored.space >= derivations and floored.dim > derivations.dim


# name -> (criterion rows that verify pulls with the floor Inn + Hom(A, I),
# rows in the full stream).  On T_n, I = [A, A] is the strictly upper
# triangular N and the criterion maps are exactly Hom(A, N), of dimension
# d dim N: 150 on T5, 60 on T4 and its dense copy.
VERIFY_CRITERION_ROWS = {
    "T4": (70, 80),
    "T5": (135, 150),
    "dense-T4": (115, 1069),
}


class TestCriterionFloor:
    """The criterion solve of `verify_derivation_criterion`, floored at
    Inn + Hom(A, I) for I the largest ideal of A inside [A, A]."""

    def test_floor_lies_in_the_criterion_maps(self):
        """On every member that is not commutator-simple, each basis map of
        the floor passes the pointwise check, the floor is the plain span of
        Inn and the maps u (x) e_t, and the floored solve is the full one."""
        checked = []
        for name, a in _floor_members():
            simplicity = fa.is_commutator_simple(a)
            if simplicity:
                continue
            checked.append(name)
            inner = fa.inner_derivation_space(a)
            floor = fm._criterion_floor(a, inner, simplicity)
            d = a.dim
            units = [[u[s // d] if s % d == t else 0 for s in range(d * d)]
                     for u in simplicity.witness.ideal.basis for t in range(d)]
            assert floor.space == fa.Subspace.from_rows(d * d, list(inner.space.basis) + units), name
            for m in floor.basis_maps():
                assert fm._first_violation(a, fm._CRITERION, m, "tuple") is None, name
            full = fa.derivation_criterion_space(a)
            assert fa.derivation_criterion_space(a, floor=floor).space == full.space, name
        # T_n and their dense copies, and algebras without a unit, among them
        # ones where Inn does not map into I (on N3 x M2, I is the line of
        # e13 and [A, A] = I + sl2)
        assert {"T2", "T3", "dense-T2", "dense-T3", "T4", "T5", "dense-T4", "N3xM2"} <= set(checked)

    def test_floor_is_inn_on_commutator_simple_algebras(self):
        for name in ("M2", "QS3", "QD4"):
            a = corpus_algebra(name)
            inner = fa.inner_derivation_space(a)
            assert fm._criterion_floor(a, inner, fa.is_commutator_simple(a)) is inner

    @pytest.mark.parametrize("name", sorted(VERIFY_CRITERION_ROWS))
    def test_rows_verify_pulls(self, name, monkeypatch):
        a = BUILDS[name]()
        pulled = _counting_rows(monkeypatch)
        report = fa.verify_derivation_criterion(a)
        seen = pulled.pop("criterion")
        fa.derivation_criterion_space(a)
        assert (seen, pulled["criterion"]) == VERIFY_CRITERION_ROWS[name]
        assert report.spaces["criterion-maps"] == a.dim * fa.commutator_subspace(a).dim

    def test_a_floor_outside_the_criterion_maps_is_an_internal_error(self):
        """On M3, Hom(A, [A, A]) holds maps outside the criterion maps, the
        8 inner derivations: the solve stops at its dimension, 72, at a
        kernel that is not that floor."""
        a = corpus_algebra("M3")
        floor = fm._maps_into(a, fa.commutator_subspace(a))
        assert floor.dim == 72
        assert any(fm._first_violation(a, fm._CRITERION, m, "tuple") for m in floor.basis_maps())
        with pytest.raises(fa.InternalError, match="stopped at its floor"):
            fa.derivation_criterion_space(a, floor=floor)


SYSTEMS = {
    "derivation": (fm._LEIBNIZ,),
    "jordan": (fm._JORDAN_DERIVATION,),
    "criterion": fm._CRITERION,
}


class TestPackBuilds:
    """`linalg._kernel` packs its columns only once a redundant run pays for
    the build.  The floored solves of `verify_derivation_criterion` reach
    their floors within short runs and build the packed index at most once;
    the full Q[S4] criterion stream, redundant after its row 1 764 of
    14 500, builds it, and tests its tail at the 19 vectors of the answer."""

    @staticmethod
    def _builds(monkeypatch):
        """The live vector count of each pack built from now on."""
        builds = []
        packed = fa.linalg._packed
        monkeypatch.setattr(fa.linalg, "_packed", lambda vectors, *rest: builds.append(len(vectors)) or packed(vectors, *rest))
        return builds

    @pytest.mark.parametrize("name", ["QS4", "dense-T4"])
    def test_floored_solves_build_the_pack_at_most_once(self, name, monkeypatch):
        a = BUILDS[name]()
        inner = fa.inner_derivation_space(a)
        floor = fm._criterion_floor(a, inner, fa.is_commutator_simple(a))
        builds = self._builds(monkeypatch)
        fa.derivation_space(a, floor=inner)
        assert len(builds) <= 1
        builds.clear()
        fa.derivation_criterion_space(a, floor=floor)
        assert len(builds) <= 1

    def test_the_full_qs4_criterion_stream_is_tested_packed(self, monkeypatch):
        a = BUILDS["QS4"]()
        builds = self._builds(monkeypatch)
        assert fa.derivation_criterion_space(a).dim == 19
        assert builds and builds[-1] == 19


# name -> (vertices, arrows, (dim Der, dim Inn)) of connected quivers
# without an oriented cycle
QUIVERS = {
    "A4": (4, [(0, 1), (1, 2), (2, 3)], (9, 9)),
    "Kronecker": (2, [(0, 1), (0, 1)], (6, 3)),
    "3-Kronecker": (2, [(0, 1)] * 3, (12, 4)),
    "diamond": (4, [(0, 1), (0, 2), (1, 3), (2, 3)], (10, 9)),
    "A3-shortcut": (3, [(0, 1), (1, 2), (0, 2)], (8, 6)),
    "D4-star": (4, [(1, 0), (2, 0), (3, 0)], (6, 6)),
    "double-A3": (4, [(0, 1), (0, 1), (1, 2), (1, 2), (2, 3)], (24, 18)),
}


def _path_counts(vertices, arrows):
    """[u][w]: the number of paths from u to w, trivial ones included, of a
    quiver without an oriented cycle, the sum of the powers of its adjacency
    matrix below the number of vertices."""
    adjacency = [[0] * vertices for _ in range(vertices)]
    for s, t in arrows:
        adjacency[s][t] += 1
    power = [[int(u == w) for w in range(vertices)] for u in range(vertices)]
    total = [row[:] for row in power]
    for _ in range(vertices - 1):
        power = [[sum(p * q for p, q in zip(row, column)) for column in zip(*adjacency)] for row in power]
        total = [[x + y for x, y in zip(r, q)] for r, q in zip(total, power)]
    return total


class TestPathAlgebras:
    """Path algebras of quivers, whose derivations are not all inner, against
    Happel's formula (D. Happel, Hochschild cohomology of finite-dimensional
    algebras, LNM 1404, 1989): for a connected quiver with n vertices and no
    oriented cycle, dim HH^1(A) = 1 - n + sum over the arrows a of nu(a),
    the number of paths parallel to a, and the center is Q 1.  So
    dim Der = dim A - n + sum nu(a) and dim Inn = dim A - 1, and the
    radical, the span of the paths of positive length, has dimension
    dim A - n.  Each count is read from the quiver, with no solve."""

    def _check(self, a, der, inner, radical, center):
        inner_space = fa.inner_derivation_space(a)
        derivations = fa.derivation_space(a)
        assert (derivations.dim, inner_space.dim) == (der, inner)
        assert fa.derivation_space(a, floor=inner_space).space == derivations.space
        assert fa.jordan_derivation_space(a).space == derivations.space
        assert (fa.radical(a).dim, fa.center(a).dim) == (radical, center)
        report = fa.verify_derivation_criterion(a)
        assert report.verdict == fm.VERDICT_HYPOTHESES_NOT_MET
        assert (report.spaces["derivations"], report.spaces["inner-derivations"]) == (der, inner)

    @pytest.mark.parametrize("name", sorted(QUIVERS))
    def test_happel_counts(self, name):
        vertices, arrows, expected = QUIVERS[name]
        paths = _path_counts(vertices, arrows)
        dim = sum(map(sum, paths))
        der = dim - vertices + sum(paths[s][t] for s, t in arrows)
        assert (der, dim - 1) == expected
        a = path_algebra(vertices, arrows)
        assert a.dim == dim
        self._check(a, der, dim - 1, dim - vertices, 1)
        if dim <= 10:
            self._check(dense_copy(a, Random(dim)), der, dim - 1, dim - vertices, 1)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_one_loop_cut_at_length_n_minus_1(self, n):
        """Q[t]/(t^n): commutative, so Inn = 0 and the center is A, and a
        derivation sends t anywhere in the radical (t), of dimension n - 1."""
        a = path_algebra(1, [(0, 0)], n - 1)
        assert a == _truncated_polynomials(n)[0]
        self._check(a, n - 1, 0, n - 1, n)
        self._check(dense_copy(a, Random(n)), n - 1, 0, n - 1, n)


def _row_engine_members():
    """The corpus, a dense copy of each member, seeded random draws, the
    named algebras without a unit, and copies on rescaled bases, with
    structure constants other than 0 and +-1, fractions among them."""
    members = list(corpus())
    members += [(f"dense-{name}", dense_copy(a, Random(k))) for k, (name, a) in enumerate(corpus())]
    rng = Random(71)
    members += [(f"random-{k}", random_algebra(rng)) for k in range(12)]
    scales = [F(2), F(1, 3), F(-1), F(5, 2)]
    members += [
        (f"rescaled-{name}", rescaled_copy(a, (scales * a.dim)[start : start + a.dim]))
        for start, (name, a) in enumerate([
            ("M1", fa.build_matrix_algebra(1)),
            ("M1", fa.build_matrix_algebra(1)),
            ("M2", corpus_algebra("M2")),
            ("QS3", corpus_algebra("QS3")),
            ("T3", corpus_algebra("T3")),
        ])
    ]
    return members + list(non_unital_algebras())


class TestRowEngine:
    """The grouped row engine against the term-by-term oracle: the same rows
    in the same order, each equal as an {index: value} mapping to the
    oracle's row times its factor, L for the Leibniz and Jordan rows and
    L^2 h_f modulo [A, A], as `constraint_rows_oracle` gives it.  The
    order of the entries in a row is free."""

    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    def test_matches_the_term_by_term_oracle(self, system):
        for name, a in _row_engine_members():
            rows = [list(row) for row in fm._constraint_rows(a, SYSTEMS[system])]
            assert all(len(dict(row)) == len(row) and all(v for _, v in row) for row in rows)
            expected = [dict(row) for row in constraint_rows_oracle(a, SYSTEMS[system])]
            assert [dict(row) for row in rows] == expected, (name, system)

    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    def test_every_value_is_an_int(self, system):
        """The full streams and, for the closed Leibniz rule, the streams
        read at the generators: no row value is a `Fraction`, on dense,
        random, rescaled and non-unital members alike."""
        identities = SYSTEMS[system]
        for name, a in _row_engine_members():
            for first in (None, a.generators) if identities[0].closed else (None,):
                for row in fm._constraint_rows(a, identities, first):
                    assert all(type(v) is int for _, v in row), (name, system, first)

    @pytest.mark.parametrize("text, modulo", [
        ("D(i) = D(j)", False),
        ("D(ij) k = D(i) jk", False),
        ("D(ij) k = 0", True),
        ("D(i) jkk = 0", True),
    ])
    def test_an_identity_whose_terms_would_carry_other_factors_is_refused(self, text, modulo):
        """A term that reads no product, or two, outside [A, A], or a word
        of two letters in the map modulo [A, A], would carry a factor other
        than L, and rows rescaled unevenly would have another kernel."""
        with pytest.raises(ValueError, match="one product"):
            fm._Identity(text, symmetric=True, modulo_commutators=modulo)

    def test_tuples_without_a_live_letter_are_skipped_with_the_same_rows(self, monkeypatch):
        """Modulo [A, A], a tuple whose letters all have a zero Gram column
        gives no row: the criterion rows with those tuples skipped equal the
        rows with every tuple read, entry for entry, and on T2, T3 and T5
        some tuples are skipped."""
        rows, skipping = fm._rows, []

        def reading(*args):
            skipping.append(len(args) > 5 and args[5] is not None)
            return rows(*args[:5])

        for name, a in _row_engine_members() + [("T5", BUILDS["T5"]())]:
            skipped = [list(row) for row in fm._constraint_rows(a, fm._CRITERION)]
            monkeypatch.setattr(fm, "_rows", reading)
            assert [list(row) for row in fm._constraint_rows(a, fm._CRITERION)] == skipped, name
            monkeypatch.setattr(fm, "_rows", rows)
            if name in ("T2", "T3", "T5"):
                assert any(skipping), name
            skipping.clear()


# system -> (rows, rank, sha256 of the rows, entries sorted in each row) of
# Q[S4], recorded from the term-by-term engine the grouped one replaced.
QS4_ROW_STREAMS = {
    "derivation": (13824, 557, "3ade385dc4a80de9c81628767ee4fc5c0eeadc0c1e94af8de0fc28405ae8f17c"),
    "jordan": (7200, 557, "be928137919ab5f21ffa7fa3b26259216acd420475a17e17e520f7ad7dfd0eaf"),
    "criterion": (14500, 557, "432942739c219c370f428e99657e8ee759e46576d492774d06d93a64a1a581b6"),
}


@pytest.mark.parametrize("system", sorted(QS4_ROW_STREAMS))
def test_qs4_row_streams(system):
    a = fa.build_group_algebra(fa.symmetric_group(4))
    rows = [list(row) for row in fm._constraint_rows(a, SYSTEMS[system])]
    rank = a.dim ** 2 - fa.kernel_from_constraints(a.dim ** 2, rows).dim
    assert (len(rows), rank, row_stream_digest(rows)) == QS4_ROW_STREAMS[system]
