"""Structural invariants of an algebra.

Commutator subspace, the largest ideal inside a subspace, the
commutator-simplicity decision, the radical and semiprimeness, and trace
functionals on the span of products.  All decisions are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .algebras import Element, FinAlgebra
from .linalg import InternalError, Mat, Subspace, Vec, as_vector, dot, kernel_from_constraints

_ZERO = Fraction(0)


def product_span(a: FinAlgebra) -> Subspace:
    """The span of all products b_i b_j (for unital algebras, the whole space)."""
    return Subspace.from_rows(
        a.dim, [a.product(i, j) for i in range(a.dim) for j in range(a.dim)]
    )


def commutator_subspace(a: FinAlgebra) -> Subspace:
    """[A, A]: the span of the basis-pair commutators b_i b_j - b_j b_i."""
    rows = []
    for i in range(a.dim):
        for j in range(i + 1, a.dim):
            rows.append(tuple(x - y for x, y in zip(a.product(i, j), a.product(j, i))))
    return Subspace.from_rows(a.dim, rows)


def largest_ideal_within(a: FinAlgebra, v: Subspace) -> Subspace:
    """The unique largest two-sided ideal of A contained in v.

    Decreasing fixed point: V_{t+1} = {x in V_t : b_i x in V_t and x b_i in V_t
    for all basis i}.  The dimension strictly decreases until stable, so the
    loop terminates within dim(A) rounds.
    """
    if v.ambient_dim != a.dim:
        raise ValueError("subspace lives in a different ambient space")
    current = v
    while current.dim:
        annihilating = current.annihilator()
        if annihilating.dim == 0:
            return current
        products = []
        for u in current.basis:
            for i in range(a.dim):
                products.append(a.mul_basis(i, u, "left"))
                products.append(a.mul_basis(i, u, "right"))
        # products is indexed by (basis-of-current, i, side) in a fixed order;
        # each covector f gives one constraint row per (i, side) over the
        # coordinates s of current.
        r = current.dim
        rows = []
        for f in annihilating.basis:
            for block in range(2 * a.dim):
                row = []
                for s in range(r):
                    coef = dot(f, products[s * 2 * a.dim + block])
                    if coef:
                        row.append((s, coef))
                if row:
                    rows.append(row)
        coords = kernel_from_constraints(r, rows)
        if coords.dim == r:
            return current
        new_rows = []
        for alpha in coords.basis:
            vec = [_ZERO] * a.dim
            for s, coef in enumerate(alpha):
                if coef:
                    for t, x in enumerate(current.basis[s]):
                        if x:
                            vec[t] += coef * x
            new_rows.append(vec)
        current = Subspace.from_rows(a.dim, new_rows)
    return current


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
    witness.
    """
    commutators = a.derived(commutator_subspace)
    ideal = largest_ideal_within(a, commutators)
    if ideal.dim == 0:
        return SimplicityVerdict(True, None, commutators)
    for u in ideal.basis:
        for i in range(a.dim):
            if not ideal.contains_vector(a.mul_basis(i, u, "left")):
                raise InternalError("internal error: witness is not a left ideal")
            if not ideal.contains_vector(a.mul_basis(i, u, "right")):
                raise InternalError("internal error: witness is not a right ideal")
    if not commutators.contains(ideal):
        raise InternalError("internal error: witness escapes the commutator subspace")
    certificate = (
        f"verified A*I <= I, I*A <= I, and I <= [A,A] for dim-{ideal.dim} ideal I"
    )
    return SimplicityVerdict(False, IdealWitness(ideal, certificate), commutators)


def radical(a: FinAlgebra) -> Subspace:
    """The largest nilpotent ideal (char-0 trace criterion).

    rad = {x : trace(L_x) = 0 and trace(L_{x b_j}) = 0 for all j}, traces of
    left multiplication on A.  This is the radical of the trace form of A
    with a unit adjoined, intersected with A: for z in A, L_z has the same
    trace there as on A.  For unital A the first condition follows from the
    others.
    """
    d = a.dim
    left_traces = [sum((a.product(t, k)[k] for k in range(d)), _ZERO) for t in range(d)]

    def rows():
        row = [(i, lt) for i, lt in enumerate(left_traces) if lt]
        if row:
            yield row
        for j in range(d):
            row = []
            for i in range(d):
                coef = _ZERO
                for t, x in a.product_terms(i, j):
                    lt = left_traces[t]
                    if lt:
                        coef += x * lt
                if coef:
                    row.append((i, coef))
            if row:
                yield row

    return kernel_from_constraints(d, rows())


def is_semiprime(a: FinAlgebra) -> bool:
    """No nonzero nilpotent ideals; in finite dimension over Q, radical = 0."""
    return radical(a).dim == 0


def ideal_closure(a: FinAlgebra, v: Subspace) -> Subspace:
    """The smallest two-sided ideal of A containing v (increasing closure)."""
    if v.ambient_dim != a.dim:
        raise ValueError("subspace lives in a different ambient space")
    current = v
    while True:
        rows = list(current.basis)
        for u in current.basis:
            for i in range(a.dim):
                rows.append(a.mul_basis(i, u, "left"))
                rows.append(a.mul_basis(i, u, "right"))
        grown = Subspace.from_rows(a.dim, rows)
        if grown == current:
            return current
        current = grown


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


def _validate_trace(a: FinAlgebra, tf: TraceFunctional) -> None:
    for i in range(a.dim):
        for j in range(i + 1, a.dim):
            if tf(a.product(i, j)) != tf(a.product(j, i)):
                raise ValueError(
                    f"functional violates t(xy) = t(yx) at basis pair ({i},{j})"
                )


def trace_functional_space(
    a: FinAlgebra, domain: Subspace | None = None
) -> tuple[TraceFunctional, ...]:
    """A basis of all functionals on A^2 with t(b_i b_j) = t(b_j b_i).

    Equivalently, the functionals on A^2 vanishing on [A,A] (intersected
    with A^2), computed as a kernel.  ``domain`` is A^2 (``product_span``)
    when the caller has it already.
    """
    if domain is None:
        domain = product_span(a)
    s = domain.dim

    def rows():
        for i in range(a.dim):
            for j in range(i + 1, a.dim):
                w = tuple(x - y for x, y in zip(a.product(i, j), a.product(j, i)))
                coords = domain.coordinates(w)
                row = [(t, coef) for t, coef in enumerate(coords) if coef]
                if row:
                    yield row

    kernel = kernel_from_constraints(s, rows())
    return tuple(TraceFunctional(a.dim, domain, row) for row in kernel.basis)


def gram_matrix(a: FinAlgebra, tf: TraceFunctional) -> Mat:
    """The dim x dim matrix G[i][j] = t(b_i b_j).

    Every product lies in A^2, so its coordinates on the canonical basis of
    A^2 are its entries at the pivot columns.
    """
    if tf.algebra_dim != a.dim:
        raise ValueError("functional belongs to a different algebra")
    pivots = tf.domain.pivots
    return Mat([
        [dot(tf.coeffs, [a.product(i, j)[p] for p in pivots]) for j in range(a.dim)]
        for i in range(a.dim)
    ])


def is_nondegenerate_trace(a: FinAlgebra, tf: TraceFunctional) -> bool:
    """True iff t(xA) = 0 forces x = 0, i.e. the Gram matrix has zero kernel."""
    _validate_trace(a, tf)
    return len(gram_matrix(a, tf).kernel()) == 0


def _gram_kernel(a: FinAlgebra, tf: TraceFunctional) -> Subspace:
    return Subspace.from_rows(a.dim, gram_matrix(a, tf).kernel())


def _common_gram_radical(a: FinAlgebra, functionals) -> tuple[Subspace, list[Subspace]]:
    """Vectors annihilated by every functional's Gram form (the whole space
    when there are no functionals), and the Gram kernels computed for it:
    those of the leading functionals, up to the first that leaves zero."""
    common = Subspace.full(a.dim)
    kernels = []
    for tf in functionals:
        kernels.append(_gram_kernel(a, tf))
        common = common & kernels[-1]
        if common.dim == 0:
            break
    return common, kernels


def _nondegenerate_flags(a: FinAlgebra, functionals, kernels):
    """Lazily, whether each functional is nondegenerate, reusing the Gram
    kernels already known for the leading ones.  The functionals must be
    trace functionals already (no re-validation)."""
    for i, tf in enumerate(functionals):
        kernel = kernels[i] if i < len(kernels) else _gram_kernel(a, tf)
        yield kernel.dim == 0


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
    common, kernels = _common_gram_radical(a, basis)
    if common.dim > 0:
        return TraceSearchResult(None, True, common.basis[0], 0, len(basis))
    for tf, nondegenerate in zip(basis, _nondegenerate_flags(a, basis, kernels)):
        if nondegenerate:
            return TraceSearchResult(tf, False, None, 0, len(basis))
    if not basis:
        # Only reachable at dimension zero, where there is nothing to search.
        return TraceSearchResult(None, False, None, 0, 0)
    rng = Random(seed)
    domain = basis[0].domain
    s = domain.dim
    for trial in range(1, trials + 1):
        weights = [
            Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(len(basis))
        ]
        if not any(weights):
            continue
        coeffs = [_ZERO] * s
        for w, tf in zip(weights, basis):
            if w:
                for t, x in enumerate(tf.coeffs):
                    if x:
                        coeffs[t] += w * x
        # a combination of trace functionals is one: no re-validation
        candidate = TraceFunctional(a.dim, domain, tuple(coeffs))
        if not gram_matrix(a, candidate).kernel():
            return TraceSearchResult(candidate, False, None, trial, len(basis))
    return TraceSearchResult(None, False, None, trials, len(basis))
