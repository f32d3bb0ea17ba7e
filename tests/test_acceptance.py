"""Acceptance suite: one test per exit criterion, exact arithmetic throughout.

Every equality below is exact (no tolerances); runtime budgets are asserted
where stated.  Each test prints a single PASS line on success.
"""

import time
from fractions import Fraction
from random import Random

import pytest

import finalg as fa
from helpers import (
    SEMIPRIME_NAMES,
    corpus,
    corpus_algebra,
    is_ideal_direct,
    power_chain_dims,
    random_algebra,
    random_subspace,
    trace_functional_from_covector,
)

F = Fraction


def _ok(label: str) -> None:
    print(f"[acceptance] {label}: PASS")


def test_commutator_simplicity_of_the_standard_families():
    start = time.perf_counter()
    simple_names = ["M2", "M3", "QC2", "QS3", "QD4", "M2xQC2", "M2tQC2"]
    for name in simple_names:
        assert fa.is_commutator_simple(corpus_algebra(name)), name
    for name in ("T2", "T3"):
        a = corpus_algebra(name)
        verdict = fa.is_commutator_simple(a)
        assert not verdict, name
        witness = verdict.witness.ideal
        assert witness.dim > 0
        assert fa.commutator_subspace(a).contains(witness)
        assert is_ideal_direct(a, witness)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"commutator-simplicity suite took {elapsed:.1f}s"
    _ok("commutator-simplicity of matrix, group, product, tensor, triangular families")


def test_trace_route_witnesses_and_rank_nullity():
    for name in ("M2", "M3", "QC2", "QS3", "QD4"):
        a = corpus_algebra(name)
        result = fa.has_nondegenerate_trace(a, seed=11, trials=25)
        assert result.found, name
        assert fa.is_nondegenerate_trace(a, result.functional)
    # The coefficient-of-identity functional itself works on group algebras.
    for group in (fa.cyclic_group(2), fa.symmetric_group(3), fa.dihedral_group(4)):
        a = fa.build_group_algebra(group)
        cov = [F(0)] * group.order
        cov[group.identity_index] = F(1)
        tf = trace_functional_from_covector(a, cov)
        assert fa.is_nondegenerate_trace(a, tf)
    t2 = corpus_algebra("T2")
    result = fa.has_nondegenerate_trace(t2, seed=11, trials=25)
    assert result.definite_negative and not result.found
    qs3 = corpus_algebra("QS3")
    trace_dim = len(fa.trace_functional_space(qs3))
    commutator_dim = fa.commutator_subspace(qs3).dim
    assert trace_dim == 3
    assert commutator_dim == 3
    assert trace_dim + commutator_dim == qs3.dim == 6
    _ok("nondegenerate-trace route with the rank-nullity cross-check")


def test_derivation_criterion_equals_derivations_on_simple_semiprime_algebras():
    expected_dims = {
        "M2": 3,
        "M3": 8,
        "QS3": 3,
        "QD4": 3,
        "M2xQC2": 3,
        "M2tQC2": 6,
    }
    for name, want in expected_dims.items():
        a = corpus_algebra(name)
        start = time.perf_counter()
        report = fa.verify_derivation_criterion(a)
        elapsed = time.perf_counter() - start
        assert report.verdict == "verified", name
        assert report.verdict != "REFUTATION"
        assert report.spaces["derivations"] == want, name
        assert report.spaces["criterion-maps"] == want, name
        crit = fa.derivation_criterion_space(a)
        der = fa.derivation_space(a)
        assert crit.space == der.space, name
        assert a.dim <= 9
        assert elapsed < 10.0, f"{name} took {elapsed:.1f}s"
    # One dimension-16 member to exercise the larger budget.
    m4 = fa.tensor_product(fa.build_matrix_algebra(2), fa.build_matrix_algebra(2))
    start = time.perf_counter()
    report = fa.verify_derivation_criterion(m4)
    elapsed = time.perf_counter() - start
    assert report.verdict == "verified"
    assert report.spaces["derivations"] == report.spaces["criterion-maps"] == 15
    assert elapsed < 120.0, f"dim-16 run took {elapsed:.1f}s"
    t2_report = fa.verify_derivation_criterion(corpus_algebra("T2"))
    assert t2_report.verdict == "hypotheses-not-met"
    _ok("derivation criterion D(x)x, D(x)x^2 in [A,A] pins down exactly the derivations")


def test_random_inner_derivations_satisfy_criterion_and_membership():
    rng = Random(101)
    maps_checked = 0
    for _, a in corpus():
        criterion = fa.derivation_criterion_space(a)
        derivations = fa.derivation_space(a)
        commutators = fa.commutator_subspace(a)
        for _ in range(25):
            m = fa.random_element(a, rng)
            ad = a.mult_operator(m, "right") - a.mult_operator(m, "left")
            assert criterion.contains_map(ad)
            assert derivations.contains_map(ad)
            for _ in range(100):
                x = fa.random_element(a, rng)
                dx = ad.apply(x.coeffs)
                dx_x = a.mul(dx, x.coeffs)
                assert commutators.contains_vector(dx_x)
                x2 = a.mul(x.coeffs, x.coeffs)
                assert commutators.contains_vector(a.mul(dx, x2))
            maps_checked += 1
    assert maps_checked >= 200
    _ok(f"{maps_checked} seeded inner derivations stay in both spaces, 100 sampled x each")


def test_jordan_derivations_collapse_to_derivations_on_semiprime_algebras():
    strict_dims = {}
    for name, a in corpus():
        jordan = fa.jordan_derivation_space(a)
        der = fa.derivation_space(a)
        assert der.space <= jordan.space
        if name in SEMIPRIME_NAMES:
            assert jordan.space == der.space, name
        elif jordan.dim != der.dim:
            strict_dims[name] = (der.dim, jordan.dim)
    for name, (der_dim, jordan_dim) in strict_dims.items():
        print(f"[acceptance]   strict containment on non-semiprime {name}: "
              f"derivations {der_dim} < jordan {jordan_dim}")
    _ok("Jordan derivations equal derivations exactly on every semiprime member")


def test_cubic_criterion_and_the_transpose_example():
    for n in (2, 3):
        a = corpus_algebra(f"M{n}")
        t = fa.transpose_map(n)
        assert fa.cubic_condition_check(a, t).ok
        report = fa.verify_jordan_criterion(a, t)
        assert report.verdict == "verified"
        assert fa.jordan_homomorphism_check(a, t).ok
        homo = fa.multiplicativity_check(a, t, "homomorphism")
        assert not homo.ok and homo.witness["pair"] is not None
        assert fa.multiplicativity_check(a, t, "antihomomorphism").ok
    m2 = corpus_algebra("M2")
    doubling = fa.scaled_identity_map(4, 2)
    report = fa.verify_jordan_criterion(m2, doubling)
    assert report.verdict == "hypotheses-not-met"
    checks = {c.name: c.passed for c in report.checks}
    assert checks["unit-preserved"] is False
    assert not fa.cubic_condition_check(m2, doubling).ok
    _ok("transpose is a Jordan automorphism but not an automorphism; doubling fails")


def test_local_map_behavior():
    for _, a in corpus():
        for d in fa.derivation_space(a).basis_maps():
            assert fa.local_derivation_test(a, d, seed=7, samples=5).passed
    m2 = corpus_algebra("M2")
    result = fa.local_derivation_test(m2, fa.Mat.identity(4), seed=7, samples=5)
    assert not result.passed
    assert result.counterexample == m2.unit_element()

    t = fa.transpose_map(2)
    rng = Random(7)
    for x in (m2.basis_element(1), m2.basis_element(0), fa.random_element(m2, rng)):
        found = fa.inner_similarity_witness(m2, x, fa.apply_map(t, x), rng, 20)
        assert found.status == "witness"
        u = found.witness
        assert u * x == fa.apply_map(t, x) * u
        assert m2.mult_operator(u, "left").rank() == m2.dim
    doubling = fa.scaled_identity_map(4, 2)
    found = fa.inner_similarity_witness(
        m2, m2.unit_element(), fa.apply_map(doubling, m2.unit_element()), rng, 20
    )
    assert found.status == "infeasible"
    _ok("local-derivation and local-inner-automorphism sampling behavior")


def test_structural_linear_algebra_properties():
    rng = Random(103)
    for _ in range(100):
        a = random_algebra(rng)
        seed_elt = fa.random_element(a, rng)
        planted = fa.ideal_closure(a, fa.Subspace.from_rows(a.dim, [seed_elt.coeffs]))
        v = planted + random_subspace(a, rng, rng.randint(0, 2))
        found = fa.largest_ideal_within(a, v)
        assert v.contains(found)
        assert is_ideal_direct(a, found)
        assert found.contains(planted)
    for _, a in corpus():
        rad = fa.radical(a)
        if rad.dim:
            dims = power_chain_dims(a, rad, a.dim)
            assert dims[-1] == 0
            assert len(dims) - 1 <= a.dim
        quotient = fa.quotient_algebra(a, rad)
        assert fa.radical(quotient).dim == 0
    _ok("largest ideal inside a subspace, radical nilpotency, and semiprime quotient properties")
