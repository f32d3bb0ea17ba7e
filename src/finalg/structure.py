"""Structural invariants of an algebra.

Commutator subspace, the largest ideal inside a subspace and the smallest
one around it, the commutator-simplicity decision, the radical and
semiprimeness, and trace functionals on the span of products.  All
decisions are exact.  Each ideal is one side's closure after the other's,
a kernel or a span each, so nothing iterates to a fixed point.

A covector f is read through the products only by `gram_columns`: the rows
or columns of its Gram form G[u][v] = f(b_u b_v), from `FinAlgebra`'s own
product table.  The stable parts, the radical, the Gram matrices and
their common radical read it.  So do the tests modulo [A, A] in `maps`,
through the covectors that vanish on [A, A] and their Gram forms, which
are built here once per algebra (`_commutator_covectors`,
`_commutator_forms`) and shared with the trace functionals.  A Gram form
is built once, in ints, times a denominator D that is 1 for integral
tables and covectors.  The kernels read it as built, since a row times a
nonzero integer keeps its kernel, and only `gram_matrix` divides by D.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from random import Random

from .algebras import Element, FinAlgebra, _bracket, _cleared_sided, _unclosed_side, _with_products
from .linalg import _ZERO, InternalError, Mat, Subspace, Vec, _combination, _dense, _nonzeros, _span
from .linalg import as_vector, dot, kernel_from_constraints


def product_span(a: FinAlgebra) -> Subspace:
    """The span of all products b_i b_j: the whole space when A has a unit,
    as A = A 1 (the unit law is checked when the algebra is built)."""
    if a.unit is not None:
        return Subspace.full(a.dim)
    return _span(a.dim, [a.product_terms(i, j) for i in range(a.dim) for j in range(a.dim)])


def commutator_subspace(a: FinAlgebra) -> Subspace:
    """[A, A]: the span of the commutators [b_s, b_j] = b_s b_j - b_j b_s
    for s among the generators S of A (`FinAlgebra.generators`).

    [xy, z] = [x, yz] + [y, zx], so the x with [x, A] inside that span form
    a subalgebra.  It holds the generators, so it is A, and
    [A, A] = sum over s in S of [b_s, A].  A pair of generators is read
    once, with s < j, and [b_s, b_s] = 0 is not read.
    """
    generators = set(a.generators)
    return _span(a.dim, [
        _bracket(a, s, j).items() for s in a.generators for j in range(a.dim) if j not in generators or j > s
    ])


def _commutator_covectors(a: FinAlgebra) -> tuple:
    """The canonical basis of the covectors f vanishing on [A, A]: r in
    [A, A] iff all f(r) = 0."""
    return a.derived(commutator_subspace).annihilator().basis


def gram_columns(a: FinAlgebra, f, side: str = "right") -> tuple[list, int]:
    """The Gram form G[u][v] = f(b_u b_v) of the covector f times D, and D:
    for each u, column u, x -> f(x b_u) (side "right"), or row u,
    x -> f(b_u x) (side "left"), as its nonzero (k, int) pairs, k
    increasing.  It is read from the constants times their common
    denominator L and f times the lcm h of its denominators, so D = L h,
    and the form is primitive when f has an entry 1.  A kernel reads it as
    it is: a row times a nonzero int keeps its kernel."""
    scale, table = _cleared_sided(a, side)
    lifted = lcm(*[x.denominator for x in f])
    f = [x.numerator * (lifted // x.denominator) for x in f]
    form = [[(k, g) for k, terms in enumerate(row) if (g := sum(c * f[s] for s, c in terms))] for row in table]
    return form, scale * lifted


def _commutator_forms(a: FinAlgebra) -> list:
    """The Gram form of each f of `_commutator_covectors`, as `gram_columns`
    builds it, times its D; no caller reads D."""
    return [gram_columns(a, f, "right")[0] for f in a.derived(_commutator_covectors)]


def _stable_part(a: FinAlgebra, covectors, side: str) -> Subspace:
    """The common kernel of the covectors f and their Gram rows x -> f(b_u x)
    (side "left") or columns x -> f(x b_u) (side "right"): for a basis of the
    f vanishing on v, {x in v : b_u x in v for all u}, or x b_u in v on the right."""

    def rows():
        for f in covectors:
            yield _nonzeros(f)
        for f in covectors:
            yield from gram_columns(a, f, side)[0]

    return kernel_from_constraints(a.dim, rows())


def largest_ideal_within(a: FinAlgebra, v: Subspace) -> Subspace:
    """The unique largest two-sided ideal of A contained in v, which is
    {x : A1 x A1 <= v} for A1 the algebra A with a unit adjoined.

    Two kernels find it.  J = {y in v : A y <= v} is a left ideal, since
    A (b y) <= A y for b in A, and it holds every left ideal inside v.
    I = {x in J : x A <= J} is then a right ideal by the same argument and
    a left one because J is, and it holds every ideal inside v.  I lies in
    J, so when J is zero, as it is for v = [A, A] on every
    commutator-simple A, so is I, and the second kernel is not built.
    """
    if v.ambient_dim != a.dim:
        raise ValueError("subspace lives in a different ambient space")
    left = _stable_part(a, v.annihilator().basis, "left")
    if left.dim == 0:
        return left
    return _stable_part(a, left.annihilator().basis, "right")


@dataclass(frozen=True)
class IdealWitness:
    """A nonzero ideal exhibited inside a target subspace, with the closure
    conditions that were re-verified on it."""

    ideal: Subspace
    certificate: str


@dataclass(frozen=True)
class SimplicityVerdict:
    """The verdict, its witness ideal when negative, and the [A, A] tested."""

    commutator_simple: bool
    witness: IdealWitness | None
    commutators: Subspace

    def __bool__(self) -> bool:
        return self.commutator_simple


def is_commutator_simple(a: FinAlgebra) -> SimplicityVerdict:
    """True iff [A, A] contains no nonzero two-sided ideal of A.

    A negative verdict carries the largest such ideal as a re-verified
    witness: I + A I and I + I A are I, and [A, A] + I has the dimension of
    [A, A], each decided by one integer span.
    """
    commutators = a.derived(commutator_subspace)
    ideal = largest_ideal_within(a, commutators)
    if ideal.dim == 0:
        return SimplicityVerdict(True, None, commutators)
    side = _unclosed_side(a, ideal)
    if side is not None:
        raise InternalError(f"internal error: witness is not a {side} ideal")
    if (commutators + ideal).dim != commutators.dim:
        raise InternalError("internal error: witness escapes the commutator subspace")
    certificate = (
        f"verified A*I <= I, I*A <= I, and I <= [A,A] for dim-{ideal.dim} ideal I"
    )
    return SimplicityVerdict(False, IdealWitness(ideal, certificate), commutators)


def radical(a: FinAlgebra) -> Subspace:
    """The largest nilpotent ideal (char-0 trace criterion).

    rad = {x : tau(x) = 0 and tau(x b_u) = 0 for all u}, for the covector
    tau(z) = trace(L_z) of left multiplication on A: the right stable part
    of tau alone.  This is the radical of the trace form of A with a unit
    adjoined, intersected with A: for z in A, L_z has the same trace there
    as on A.  For unital A the first condition follows from the others.
    """
    d = a.dim
    tau = [sum((c for k in range(d) for s, c in a.product_terms(t, k) if s == k), _ZERO)
           for t in range(d)]
    return _stable_part(a, [tau], "right")


def is_semiprime(a: FinAlgebra) -> bool:
    """No nonzero nilpotent ideals; in finite dimension over Q, radical = 0."""
    return radical(a).dim == 0


def ideal_closure(a: FinAlgebra, v: Subspace) -> Subspace:
    """The smallest two-sided ideal of A containing v, which is A1 v A1
    for A1 the algebra A with a unit adjoined.

    Two spans find it.  L = v + A v is the smallest left ideal holding v,
    since A (A v) <= A v, and L + L A is then a right ideal and a left one,
    since A L A <= L A.
    """
    if v.ambient_dim != a.dim:
        raise ValueError("subspace lives in a different ambient space")
    return _with_products(a, _with_products(a, v, "left"), "right")


@dataclass(frozen=True)
class TraceFunctional:
    """A linear functional on A^2 (the span of products) with t(xy) = t(yx).

    ``coeffs`` are the values on the canonical basis of ``domain``; because
    the basis is in reduced row echelon form, evaluating at v just reads the
    pivot coordinates of v.
    """

    algebra_dim: int
    domain: Subspace
    coeffs: Vec

    def __post_init__(self):
        object.__setattr__(self, "coeffs", as_vector(self.coeffs))
        if len(self.coeffs) != self.domain.dim:
            raise ValueError("coefficient vector must match the domain dimension")
        if self.domain.ambient_dim != self.algebra_dim:
            raise ValueError("domain must live in the algebra's coordinate space")

    def __call__(self, v) -> Fraction:
        vec = v.coeffs if isinstance(v, Element) else as_vector(v)
        coords = self.domain.coordinates(vec)
        if coords is None:
            raise ValueError("value requested outside the functional's domain A^2")
        return dot(self.coeffs, coords)


def trace_functional_space(a: FinAlgebra) -> tuple[TraceFunctional, ...]:
    """A basis of all functionals on A^2 with t(b_i b_j) = t(b_j b_i).

    These are the functionals on A^2 vanishing on [A,A], which lies in
    A^2.  Each extends to a covector on A vanishing on [A,A], so they are
    the restrictions of those covectors to the canonical basis of A^2, and
    the returned basis is the canonical one of that span of restrictions.
    """
    domain = a.derived(product_span)
    covectors = a.derived(_commutator_covectors)
    restricted = _span(
        domain.dim, [[(t, x) for t, u in enumerate(domain.basis) if (x := dot(f, u))] for f in covectors]
    )
    return tuple(TraceFunctional(a.dim, domain, row) for row in restricted.basis)


def _gram_rows(a: FinAlgebra, tf: TraceFunctional) -> tuple[list, int]:
    """The Gram rows of t times D, row u being x -> t(b_u x), as sparse
    (k, int) pairs, and D (`gram_columns`).  They are read from t extended
    to A, its coefficients at the pivots of A^2 and 0 elsewhere, since a
    product's coordinates on the canonical basis of A^2 are its pivot
    entries."""
    if tf.algebra_dim != a.dim:
        raise ValueError("functional belongs to a different algebra")
    return gram_columns(a, _dense(zip(tf.domain.pivots, tf.coeffs), a.dim), "left")


def _gram_forms(a: FinAlgebra, functionals) -> list:
    """Each functional's `_gram_rows`, as a function that builds them on its
    first call and keeps them, so that the common radical and the verdict
    on each functional read one copy."""
    return [functools.cache(functools.partial(_gram_rows, a, tf)) for tf in functionals]


def gram_matrix(a: FinAlgebra, tf: TraceFunctional) -> Mat:
    """The dim x dim matrix G[i][j] = t(b_i b_j), the Gram rows divided by
    their D and made dense."""
    form, denominator = _gram_rows(a, tf)
    return Mat([_dense(((k, Fraction(g, denominator)) for k, g in row), a.dim) for row in form], cols=a.dim)


def _nondegenerate(a: FinAlgebra, form) -> bool:
    """True iff the Gram matrix of a `_gram_forms` entry has zero kernel,
    decided on its sparse rows by a kernel that reads none of them once it
    is zero."""
    return _common_gram_radical(a, (form,)).dim == 0


def is_nondegenerate_trace(a: FinAlgebra, tf: TraceFunctional) -> bool:
    """True iff t(xA) = 0 forces x = 0, i.e. the Gram matrix has zero kernel.

    t must satisfy t(xy) = t(yx), which holds exactly when its Gram form,
    G[u][v] = t(b_u b_v) times D, is symmetric; the first basis pair
    (i, j), i < j, where it is not is refused."""
    (form,) = _gram_forms(a, (tf,))
    rows = [dict(row) for row in form()[0]]
    for i, row in enumerate(rows):
        for j in range(i + 1, a.dim):
            if row.get(j, 0) != rows[j].get(i, 0):
                raise ValueError(f"functional violates t(xy) = t(yx) at basis pair ({i},{j})")
    return _nondegenerate(a, form)


def _common_gram_radical(a: FinAlgebra, forms) -> Subspace:
    """The x with G x = 0 for the Gram matrix G of every `_gram_forms`
    entry (the whole space when there are none): one kernel over all their
    Gram rows, which stops reading them, and building the next entry's,
    once it is zero."""
    return kernel_from_constraints(a.dim, (row for form in forms for row in form()[0]))


@dataclass(frozen=True)
class TraceSearchResult:
    """The search outcome and the dimension of the functional space searched."""

    functional: TraceFunctional | None
    definite_negative: bool
    degenerate_witness: Vec | None
    trials_used: int
    space_dim: int

    @property
    def found(self) -> bool:
        return self.functional is not None


def has_nondegenerate_trace(a: FinAlgebra, seed: int, trials: int) -> TraceSearchResult:
    """Search the trace-functional space for a nondegenerate member.

    Deterministic given (seed, trials).  First the common radical of all
    Gram forms is computed: when nonzero, every functional in the space is
    degenerate and the answer is a definite negative with a witness vector.
    Otherwise the basis functionals are tried in order, then ``trials``
    seeded random rational combinations.  Exhausting the trials is
    inconclusive, not a negative.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    basis = trace_functional_space(a)
    forms = _gram_forms(a, basis)
    common = _common_gram_radical(a, forms)
    if common.dim > 0:
        return TraceSearchResult(None, True, common.basis[0], 0, len(basis))
    for tf, form in zip(basis, forms):
        if _nondegenerate(a, form):
            return TraceSearchResult(tf, False, None, 0, len(basis))
    if not basis:
        # Only reachable at dimension zero, where A^2 = 0 and the zero
        # functional, with its 0 x 0 Gram matrix, is nondegenerate.
        return TraceSearchResult(TraceFunctional(0, Subspace.zero(0), ()), False, None, 0, 0)
    rng = Random(seed)
    domain = basis[0].domain
    s = domain.dim
    for trial in range(1, trials + 1):
        weights = [
            Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(len(basis))
        ]
        if not any(weights):
            continue
        coeffs = _combination((w, _nonzeros(tf.coeffs)) for w, tf in zip(weights, basis) if w)
        # a combination of trace functionals is one: no re-validation
        candidate = TraceFunctional(a.dim, domain, _dense(coeffs.items(), s))
        if _nondegenerate(a, *_gram_forms(a, (candidate,))):
            return TraceSearchResult(candidate, False, None, trial, len(basis))
    return TraceSearchResult(None, False, None, trials, len(basis))
