"""Shared fixtures: the standard algebra corpus, random generators, and
independent closure/nilpotency checks used as oracles."""

import functools
import hashlib
import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from random import Random

import finalg as fa
import finalg.maps as fm
from finalg.document import AlgebraDocument, DocumentError
from finalg.linalg import _nonzeros, _span

F = Fraction
F0 = Fraction(0)
F1 = Fraction(1)

# Names of the corpus members with zero radical (semisimple over Q).
SEMIPRIME_NAMES = {"M2", "M3", "QC2", "QS3", "QD4", "M2xQC2", "M2tQC2"}


@lru_cache(maxsize=1)
def corpus():
    m2 = fa.build_matrix_algebra(2)
    qc2 = fa.build_group_algebra(fa.cyclic_group(2))
    return (
        ("M2", m2),
        ("M3", fa.build_matrix_algebra(3)),
        ("QC2", qc2),
        ("QS3", fa.build_group_algebra(fa.symmetric_group(3))),
        ("QD4", fa.build_group_algebra(fa.dihedral_group(4))),
        ("M2xQC2", fa.direct_product(m2, qc2)),
        ("M2tQC2", fa.tensor_product(m2, qc2)),
        ("T2", fa.build_upper_triangular(2)),
        ("T3", fa.build_upper_triangular(3)),
    )


def corpus_algebra(name):
    return dict(corpus())[name]


def algebra_from_tensor(c, unit=None, labels=None) -> fa.FinAlgebra:
    """The algebra with b_i b_j = sum_k c[i][j][k] b_k, from the dense d x d x d
    tensor c: the nonzero entries of each c[i][j] are its terms."""
    terms = [[[(k, x) for k, x in enumerate(row) if x] for row in plane] for plane in c]
    return fa.FinAlgebra(terms, unit, labels)


def zero_product_algebra(dim=1):
    zero = Fraction(0)
    c = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    return algebra_from_tensor(c)


def n3_algebra():
    """Strictly upper-triangular 3x3 matrices, basis e12, e13, e23: the only
    nonzero basis product is e12 e23 = e13."""
    c = [[[F0] * 3 for _ in range(3)] for _ in range(3)]
    c[0][2] = [F0, F1, F0]
    return algebra_from_tensor(c)


def row_algebra():
    """span{e11, e12} in M_2: e11 e11 = e11, e11 e12 = e12, and every product
    with e12 on the left is zero.  It has a left unit and no unit."""
    c = [[[F0] * 2 for _ in range(2)] for _ in range(2)]
    c[0][0] = [F1, F0]
    c[0][1] = [F0, F1]
    return algebra_from_tensor(c)


@lru_cache(maxsize=1)
def non_unital_algebras():
    """Named algebras without a unit: N3, span{e11, e12} and the zero-product
    algebra, their direct and tensor products with M2, T2 and Q[S3], and
    seeded dense copies of the three."""
    bases = (("N3", n3_algebra()), ("R2", row_algebra()), ("Z2", zero_product_algebra(2)))
    partners = (
        ("M2", corpus_algebra("M2")),
        ("T2", corpus_algebra("T2")),
        ("QS3", corpus_algebra("QS3")),
    )
    out = list(bases)
    for name, a in bases:
        for partner, b in partners:
            out.append((f"{name}x{partner}", fa.direct_product(a, b)))
            out.append((f"{name}t{partner}", fa.tensor_product(a, b)))
    for k, (name, a) in enumerate(bases):
        out.append((f"dense-{name}", dense_copy(a, Random(k))))
    return tuple(out)


def random_algebra(rng: Random) -> fa.FinAlgebra:
    """A seeded random pick from the constructor families, dimension <= 9."""
    m2 = fa.build_matrix_algebra(2)
    t2 = fa.build_upper_triangular(2)
    small = [
        m2,
        t2,
        fa.build_matrix_algebra(1),
        fa.build_upper_triangular(3),
        fa.build_group_algebra(fa.cyclic_group(rng.randint(1, 4))),
        fa.build_group_algebra(fa.symmetric_group(3)),
        fa.build_group_algebra(fa.dihedral_group(3)),
    ]
    kind = rng.randrange(5)
    if kind == 0:
        return rng.choice(small)
    if kind == 1:
        left = rng.choice(small)
        right = rng.choice(small)
        if left.dim + right.dim <= 9:
            return fa.direct_product(left, right)
        return left
    if kind == 2:
        right = rng.choice([t2, fa.build_group_algebra(fa.cyclic_group(2))])
        return fa.tensor_product(m2, right) if right.dim * 4 <= 12 else m2
    if kind == 3:
        return fa.adjoin_unit(rng.choice([t2, zero_product_algebra(rng.randint(1, 2))]))
    return fa.adjoin_unit(rng.choice(small[:4]))


def direct_product_oracle(a: fa.FinAlgebra, b: fa.FinAlgebra) -> fa.FinAlgebra:
    """A x B written out as a dense tensor, block by block."""
    da, db = a.dim, b.dim
    d = da + db
    c = [[[F0] * d for _ in range(d)] for _ in range(d)]
    for i in range(da):
        for j in range(da):
            row = c[i][j]
            for k, coef in a.product_terms(i, j):
                row[k] = coef
    for i in range(db):
        for j in range(db):
            row = c[da + i][da + j]
            for k, coef in b.product_terms(i, j):
                row[da + k] = coef
    unit = None
    if a.unit is not None and b.unit is not None:
        unit = tuple(a.unit) + tuple(b.unit)
    labels = None
    if a.labels is not None and b.labels is not None:
        labels = [f"l_{s}" for s in a.labels] + [f"r_{s}" for s in b.labels]
    return algebra_from_tensor(c, unit, labels)


def tensor_product_oracle(a: fa.FinAlgebra, b: fa.FinAlgebra) -> fa.FinAlgebra:
    """A (x) B written out as a dense tensor, adding up every product of terms."""
    da, db = a.dim, b.dim
    d = da * db
    c = [[[F0] * d for _ in range(d)] for _ in range(d)]
    for i1 in range(da):
        for i2 in range(da):
            pa = a.product_terms(i1, i2)
            if not pa:
                continue
            for j1 in range(db):
                x1 = i1 * db + j1
                for j2 in range(db):
                    pb = b.product_terms(j1, j2)
                    if not pb:
                        continue
                    row = c[x1][i2 * db + j2]
                    for k1, alpha in pa:
                        for k2, beta in pb:
                            row[k1 * db + k2] += alpha * beta
    unit = None
    if a.unit is not None and b.unit is not None:
        unit = [F0] * d
        for i, x in enumerate(a.unit):
            if x:
                for j, y in enumerate(b.unit):
                    if y:
                        unit[i * db + j] = x * y
    labels = None
    if a.labels is not None and b.labels is not None:
        labels = [f"{s}*{t}" for s in a.labels for t in b.labels]
    return algebra_from_tensor(c, unit, labels)


def adjoin_unit_oracle(a: fa.FinAlgebra) -> fa.FinAlgebra:
    """A with a unit adjoined at index 0, written out as a dense tensor."""
    d = a.dim + 1
    c = [[[F0] * d for _ in range(d)] for _ in range(d)]
    c[0][0][0] = F1
    for i in range(a.dim):
        c[0][i + 1][i + 1] = F1
        c[i + 1][0][i + 1] = F1
        for j in range(a.dim):
            row = c[i + 1][j + 1]
            for k, coef in a.product_terms(i, j):
                row[k + 1] = coef
    unit = [F1] + [F0] * a.dim
    labels = None if a.labels is None else ["one"] + list(a.labels)
    return algebra_from_tensor(c, unit, labels)


def random_subspace(a: fa.FinAlgebra, rng: Random, rank: int) -> fa.Subspace:
    rows = [fa.random_element(a, rng).coeffs for _ in range(rank)]
    return fa.Subspace.from_rows(a.dim, rows)


def is_ideal_direct(a: fa.FinAlgebra, sub: fa.Subspace) -> bool:
    """Closure check by direct multiplication, independent of the ideal
    solvers: b_i * u and u * b_i stay inside sub for every basis pair."""
    for u in sub.basis:
        uel = a.element(u)
        for i in range(a.dim):
            b = a.basis_element(i)
            if not sub.contains_vector((b * uel).coeffs):
                return False
            if not sub.contains_vector((uel * b).coeffs):
                return False
    return True


def unclosed_side_oracle(a: fa.FinAlgebra, sub: fa.Subspace) -> str | None:
    """The first of "left" and "right" on which a product b_i u (left) or
    u b_i (right), u in the basis of sub, leaves sub, by dense products and
    reductions; None for a two-sided ideal."""
    for side in ("left", "right"):
        for u in sub.basis:
            for i in range(a.dim):
                if not sub.contains_vector(a.mul_basis(i, u, side)):
                    return side
    return None


def largest_ideal_oracle(a: fa.FinAlgebra, v: fa.Subspace) -> fa.Subspace:
    """The largest ideal inside v as a decreasing fixed point:
    V_{t+1} = {x in V_t : b_i x and x b_i in V_t for all i}, solved in the
    coordinates of V_t until nothing is removed."""
    current = v
    while current.dim:
        images = [
            [a.mul_basis(i, u, side) for i in range(a.dim) for side in ("left", "right")]
            for u in current.basis
        ]
        rows = []
        for f in current.annihilator().basis:
            for block in range(2 * a.dim):
                rows.append([(s, fa.dot(f, images[s][block])) for s in range(current.dim)])
        coords = fa.kernel_from_constraints(current.dim, rows)
        if coords.dim == current.dim:
            break
        current = fa.Subspace.from_rows(a.dim, [
            [sum((c * u[t] for c, u in zip(alpha, current.basis)), F0) for t in range(a.dim)]
            for alpha in coords.basis
        ])
    return current


def ideal_closure_oracle(a: fa.FinAlgebra, v: fa.Subspace) -> fa.Subspace:
    """The smallest ideal holding v as an increasing fixed point: add
    b_i u and u b_i for every basis vector u until the span stops growing."""
    current = v
    while True:
        rows = list(current.basis)
        for u in current.basis:
            for i in range(a.dim):
                rows.append(a.mul_basis(i, u, "left"))
                rows.append(a.mul_basis(i, u, "right"))
        grown = fa.Subspace.from_rows(a.dim, rows)
        if grown == current:
            return current
        current = grown


def trace_space_oracle(a: fa.FinAlgebra) -> tuple:
    """The canonical basis of the functionals on A^2 with t(b_i b_j) =
    t(b_j b_i), as the kernel of the commutators' coordinates on the
    canonical basis of A^2."""
    domain = fa.product_span(a)
    rows = []
    for i in range(a.dim):
        for j in range(i + 1, a.dim):
            w = tuple(x - y for x, y in zip(a.product(i, j), a.product(j, i)))
            rows.append(domain.coordinates(w))
    return null_space_oracle(fa.Mat(rows, cols=domain.dim))


def power_chain_dims(a: fa.FinAlgebra, sub: fa.Subspace, limit: int) -> list[int]:
    """Dimensions of sub, sub^2, ... where sub^{k+1} is spanned by products of
    sub-basis elements with sub^k-basis elements; stops at zero or the limit."""
    dims = [sub.dim]
    current = sub
    for _ in range(limit):
        rows = []
        for u in sub.basis:
            for v in current.basis:
                rows.append(a.mul(u, v))
        current = fa.Subspace.from_rows(a.dim, rows)
        dims.append(current.dim)
        if current.dim == 0:
            break
    return dims


def matrix_trace(n: int, vec) -> Fraction:
    """Trace of a coefficient vector on the row-major matrix-unit basis."""
    return sum((vec[p * n + p] for p in range(n)), Fraction(0))


def conjugation_map(a: fa.FinAlgebra, group: fa.FiniteGroup, g: int) -> fa.Mat:
    """x -> g x g^{-1} on a group algebra: a basis permutation."""
    ginv = group.inverse(g)
    images = [
        a.basis_element(group.mul(group.mul(g, h), ginv)) for h in range(group.order)
    ]
    return fa.map_from_basis_images(a, images)


def trace_functional_from_covector(a: fa.FinAlgebra, covector) -> fa.TraceFunctional:
    """A covector on A restricted to A^2, after checking the trace identity
    cov(b_i b_j) = cov(b_j b_i) on every basis pair with the covector itself."""
    cov = tuple(F(c) for c in covector)
    if len(cov) != a.dim:
        raise ValueError("covector has wrong length")
    for i in range(a.dim):
        for j in range(i + 1, a.dim):
            if fa.dot(cov, a.product(i, j)) != fa.dot(cov, a.product(j, i)):
                raise ValueError(f"functional violates t(xy) = t(yx) at basis pair ({i},{j})")
    domain = fa.product_span(a)
    return fa.TraceFunctional(a.dim, domain, tuple(fa.dot(cov, u) for u in domain.basis))


def rref_oracle(m: fa.Mat):
    """RREF, pivot columns and rank of m by Gauss-Jordan elimination in
    `Fraction` arithmetic, preferring +-1 pivots: an oracle independent of
    the integer core of `Mat.rref`."""
    work = [list(r) for r in m.data]
    pivots = []
    r = 0
    for c in range(m.cols):
        if r == m.rows:
            break
        choice = -1
        for i in range(r, m.rows):
            e = work[i][c]
            if e:
                if choice < 0:
                    choice = i
                if e == 1 or e == -1:
                    choice = i
                    break
        if choice < 0:
            continue
        work[r], work[choice] = work[choice], work[r]
        lead = work[r][c]
        work[r] = [x / lead for x in work[r]]
        prow = work[r]
        for i in range(m.rows):
            f = work[i][c]
            if i != r and f:
                work[i] = [a - f * b for a, b in zip(work[i], prow)]
        pivots.append(c)
        r += 1
    return fa.Mat(work, cols=m.cols), tuple(pivots), r


def null_space_oracle(m: fa.Mat) -> tuple:
    """The canonical (RREF) basis of {x : m x = 0}, found with `rref_oracle`
    alone: one null vector per free column, then their RREF."""
    reduced, pivots, _ = rref_oracle(m)
    vectors = []
    for free in range(m.cols):
        if free not in pivots:
            v = [F0] * m.cols
            v[free] = F1
            for row, p in zip(reduced.data, pivots):
                v[p] = -row[free]
            vectors.append(v)
    basis, _, rank = rref_oracle(fa.Mat(vectors, cols=m.cols))
    return basis.data[:rank]


def radical_oracle(a: fa.FinAlgebra) -> fa.Subspace:
    """The radical as the dense null space of x -> Tr L_x and of
    x -> Tr L_{x b_j} for every j, each trace read off `mult_operator`."""
    d = a.dim

    def trace(vec):
        m = a.mult_operator(vec, "left")
        return sum((m.data[k][k] for k in range(d)), F0)

    rows = [[trace(a.basis_element(i).coeffs) for i in range(d)]]
    rows += [[trace(a.product(i, j)) for i in range(d)] for j in range(d)]
    return fa.Subspace.from_rows(d, null_space_oracle(fa.Mat(rows, cols=d)))


def common_gram_radical_oracle(a: fa.FinAlgebra, functionals) -> fa.Subspace:
    """The x with G x = 0 for the Gram matrix G[i][j] = t(b_i b_j) of every
    functional t, as the intersection of the dense Gram kernels, each read
    from dense products (the whole space when there are no functionals)."""
    d = a.dim
    common = fa.Subspace.full(d)
    for tf in functionals:
        gram = fa.Mat([[tf(a.product(i, j)) for j in range(d)] for i in range(d)], cols=d)
        common = common & fa.Subspace.from_rows(d, null_space_oracle(gram))
    return common


class Infeasible(Exception):
    """A linear system with no exact solution."""


@dataclass(frozen=True)
class AffineSolution:
    """Full solution set of M x = b: one particular solution plus the kernel."""

    particular: tuple
    kernel: fa.Subspace


def solve_affine(m: fa.Mat, rhs) -> AffineSolution:
    """Solve M x = b exactly; raises Infeasible when rank(M) < rank([M|b])."""
    b = fa.as_vector(rhs)
    if len(b) != m.rows:
        raise ValueError("right-hand side length does not match row count")
    augmented = fa.Mat([row + (c,) for row, c in zip(m.data, b)], cols=m.cols + 1)
    reduced, pivots, _ = augmented.rref()
    if pivots and pivots[-1] == m.cols:
        raise Infeasible("inconsistent linear system")
    x = [F0] * m.cols
    for row, p in zip(reduced.data, pivots):
        x[p] = row[m.cols]
    return AffineSolution(tuple(x), fa.Subspace.from_rows(m.cols, m.kernel()))


def from_rows_oracle(n: int, rows) -> fa.Subspace:
    """The span of dense rows through a dense `Mat` and `Mat.rref`, the path
    `Subspace.from_rows` took before it read its rows sparsely."""
    reduced, _, rank = fa.Mat(rows, cols=n).rref()
    return fa.Subspace(n, reduced.data[:rank])


def local_derivation_test_oracle(a: fa.FinAlgebra, d_map: fa.Mat, seed: int, samples: int):
    """The dense local-derivation test: at each point x, in the order of
    `local_derivation_test`, the values e(x) of the derivation basis maps,
    each a `Mat.apply` vector, spanned by `from_rows_oracle`, must hold d(x)."""
    basis_maps = fa.derivation_space(a).basis_maps()
    rng = Random(seed)
    points = itertools.chain(
        [a.unit_element()] if a.unit is not None else [],
        (a.basis_element(i) for i in range(a.dim)),
        (fa.random_element(a, rng) for _ in range(samples)),
    )
    for tested, x in enumerate(points, 1):
        values = from_rows_oracle(a.dim, [e.apply(x.coeffs) for e in basis_maps])
        if not values.contains_vector(d_map.apply(x.coeffs)):
            return fa.LocalDerivationResult(False, x, tested)
    return fa.LocalDerivationResult(True, None, tested)


def inner_similarity_witness_oracle(a: fa.FinAlgebra, x, target, rng: Random, trials: int = 20):
    """The dense search for invertible u with u x = target u: the null
    vectors of the `Mat` R_x - L_target by `Mat.kernel`, the unit first when
    that operator kills it, then `trials` random combinations with weights
    in {-9, ..., 9}; u is invertible when L_u has full `Mat.rank`."""
    system = a.mult_operator(x, "right") - a.mult_operator(target, "left")
    kernel = system.kernel()
    if not kernel:
        return fa.SimilaritySearch("infeasible")

    def invertible(u):
        return any(u) and a.mult_operator(u, "left").rank() == a.dim

    candidates = [a.unit] if not any(system.apply(a.unit)) else []
    candidates.extend(kernel)
    for u in candidates:
        if invertible(u):
            return fa.SimilaritySearch("witness", a.element(u))
    for _ in range(trials):
        weights = [F(rng.randint(-9, 9)) for _ in kernel]
        u = (fa.Mat([weights]) * fa.Mat(kernel)).row(0)
        if invertible(u):
            return fa.SimilaritySearch("witness", a.element(u))
    return fa.SimilaritySearch("inconclusive")


def random_invertible(a: fa.FinAlgebra, rng: Random) -> fa.Element:
    while True:
        u = fa.random_element(a, rng)
        if a.mult_operator(u, "left").rank() == a.dim:
            return u


def inner_automorphism_map(a: fa.FinAlgebra, u: fa.Element) -> fa.Mat:
    """x -> u x u^{-1} for invertible u."""
    left = a.mult_operator(u, "left")
    inv = solve_affine(left, a.unit).particular
    return left * a.mult_operator(inv, "right")


def dense_copy(a: fa.FinAlgebra, rng: Random) -> fa.FinAlgebra:
    """The same algebra on the basis b'_i = sum_k P[k][i] b_k, with P = L U
    for seeded unit triangular L (lower) and U (upper) with entries in
    {-1, 0, 1}, so that every structure constant is generically dense."""
    d = a.dim
    lower = [[F1 if r == c else (F(rng.choice((-1, 0, 1))) if r > c else F0)
              for c in range(d)] for r in range(d)]
    upper = [[F1 if r == c else (F(rng.choice((-1, 0, 1))) if r < c else F0)
              for c in range(d)] for r in range(d)]
    p = fa.Mat(lower) * fa.Mat(upper)
    inverse = fa.Mat([
        solve_affine(p, [F1 if r == c else F0 for r in range(d)]).particular
        for c in range(d)
    ]).transpose()
    new_basis = [a.element(p.column(i)) for i in range(d)]
    c = [[inverse.apply((x * y).coeffs) for y in new_basis] for x in new_basis]
    unit = None if a.unit is None else inverse.apply(a.unit)
    return algebra_from_tensor(c, unit)


def rescaled_copy(a: fa.FinAlgebra, scales) -> fa.FinAlgebra:
    """The same algebra on the basis s_i b_i, whose structure constants
    s_i s_j c[i][j][k] / s_k are fractions for fractional scales."""
    basis = range(a.dim)
    terms = [[[(k, scales[i] * scales[j] * x / scales[k]) for k, x in a.product_terms(i, j)]
              for j in basis] for i in basis]
    unit = None if a.unit is None else [x / s for x, s in zip(a.unit, scales)]
    return fa.FinAlgebra(terms, unit)


def with_products_oracle(a: fa.FinAlgebra, v: fa.Subspace, side: str) -> fa.Subspace:
    """v + A v (side "left") or v + v A (side "right"), spanned by the
    products b_i u (or u b_i) of the basis vectors u of v as sparse rows of
    `Fraction` products, as `algebras._with_products` read them before it
    built integer rows."""
    terms = a.product_terms if side == "left" else lambda i, j: a.product_terms(j, i)
    rows = [_nonzeros(u) for u in v.basis]
    products = [[(k, x * c) for j, x in u for k, c in terms(i, j)] for u in rows for i in range(a.dim)]
    return _span(a.dim, rows + products)


def cubic_condition_oracle(a: fa.FinAlgebra, t: fa.Mat):
    """The cubic check T(x)^3 - x^3 in [A, A] by the full procedure: at each
    sorted basis triple, the residual summed over the six orderings of
    T(b_p) T(b_q) T(b_r) - b_p b_q b_r, reduced against [A, A].  Returns the
    first failing triple with its residual, as the check's witness, or None."""
    commutators = fa.commutator_subspace(a)
    images = [a.element(t.column(j)) for j in range(a.dim)]
    basis = [a.basis_element(j) for j in range(a.dim)]
    image_pair = functools.cache(lambda p, q: images[p] * images[q])
    basis_pair = functools.cache(lambda p, q: basis[p] * basis[q])
    for triple in itertools.combinations_with_replacement(range(a.dim), 3):
        residual = [F0] * a.dim
        for p, q, r in itertools.permutations(triple):
            _add_into(residual, 1, image_pair(p, q) * images[r])
            _add_into(residual, -1, basis_pair(p, q) * basis[r])
        if not commutators.contains_vector(residual):
            return {"triple": triple, "value": tuple(residual)}
    return None


def criterion_membership_oracle(a: fa.FinAlgebra, t: fa.Mat):
    """The criterion memberships D(x) x and D(x) x^2 in [A, A] by the full
    procedure, for D = t: at each sorted basis pair the residual
    D(b_p) b_q + D(b_q) b_p, then at each sorted triple the sum over the six
    orderings of D(b_p) b_q b_r, each reduced against [A, A].  Returns the
    first failing tuple with its residual, as the checks report it under
    "tuple", or None."""
    commutators = fa.commutator_subspace(a)
    images = [a.element(t.column(j)) for j in range(a.dim)]
    basis = [a.basis_element(j) for j in range(a.dim)]
    basis_pair = functools.cache(lambda p, q: basis[p] * basis[q])
    for degree in (2, 3):
        for tup in itertools.combinations_with_replacement(range(a.dim), degree):
            residual = [F0] * a.dim
            for p, *rest in itertools.permutations(tup):
                # D(b_p) b_q, or D(b_p) (b_q b_r), A being associative
                tail = basis_pair(*rest) if rest[1:] else basis[rest[0]]
                _add_into(residual, 1, images[p] * tail)
            if not commutators.contains_vector(residual):
                return {"tuple": tup, "value": tuple(residual)}
    return None


def _add_into(values: list, sign: int, x: fa.Element) -> None:
    """values += sign * x, over the nonzero coefficients of x."""
    for k, c in enumerate(x.coeffs):
        if c:
            values[k] += sign * c


def inner_derivation_map(a: fa.FinAlgebra, w: fa.Element) -> fa.Mat:
    """ad_w : x -> x w - w x, as the difference of the dense multiplication
    operators."""
    return a.mult_operator(w, "right") - a.mult_operator(w, "left")


def unit_law_oracle(a: fa.FinAlgebra, unit):
    """The first basis index i with u b_i != b_i or b_i u != b_i, from dense
    products, or None."""
    u = tuple(F(x) for x in unit)
    for i in range(a.dim):
        e = tuple(F1 if s == i else F0 for s in range(a.dim))
        if a.mul(u, e) != e or a.mul(e, u) != e:
            return i
    return None


def associativity_oracle(terms):
    """The first basis triple (i, j, k), in lexicographic order over all d^3
    of them, at which (b_i b_j) b_k != b_i (b_j b_k) for the product table
    `terms` (the shape `FinAlgebra` takes; zero coefficients allowed), with
    both sides as Fraction tuples, or None: the full scan, in Fraction
    arithmetic."""
    d = len(terms)
    for i, j, k in itertools.product(range(d), repeat=3):
        left, right = [F0] * d, [F0] * d
        for t, x in terms[i][j]:
            for s, y in terms[t][k]:
                left[s] += F(x) * y
        for t, x in terms[j][k]:
            for s, y in terms[i][t]:
                right[s] += F(x) * y
        if left != right:
            return (i, j, k), tuple(left), tuple(right)
    return None


def product_span_oracle(a: fa.FinAlgebra) -> fa.Subspace:
    """The span of the d^2 dense products b_i b_j, reduced in one RREF."""
    return fa.Subspace.from_rows(
        a.dim, [a.product(i, j) for i in range(a.dim) for j in range(a.dim)]
    )


def center_oracle(a: fa.FinAlgebra) -> fa.Subspace:
    """{x : x b_i = b_i x for all i}, as a kernel over every basis index,
    with each bracket built from the dense products."""
    d = a.dim

    def rows():
        for i in range(d):
            brackets = [
                tuple(x - y for x, y in zip(a.product(j, i), a.product(i, j))) for j in range(d)
            ]
            for k in range(d):
                row = [(j, bracket[k]) for j, bracket in enumerate(brackets) if bracket[k]]
                if row:
                    yield row

    return fa.kernel_from_constraints(d, rows())


def first_violation_oracle(a: fa.FinAlgebra, identities, t: fa.Mat, key: str):
    """The first basis tuple, under `key`, at which t fails one of the
    identities (none modulo [A, A]), read from the program's `_Identity`
    descriptions and evaluated densely: each term is the product, by
    `FinAlgebra.mul`, of its factors' coefficient vectors, with T(b_j) the
    column j of t and T(b_i b_j) the image of the dense product.  Returns
    {key: tuple, "lhs": ..., "rhs": ...} or None, as the checks do."""
    d = a.dim
    basis = fa.Mat.identity(d).data
    images = [t.column(j) for j in range(d)]

    def value(factors):
        *head, (mapped, word) = factors
        if len(word) == 1:
            last = images[word[0]] if mapped else basis[word[0]]
        else:
            last = t.apply(a.product(*word))
        return a.mul(value(head), last) if head else last

    for identity in identities:
        for tup in identity.tuples(d):
            sides = {1: [F0] * d, -1: [F0] * d}
            for sign, factors in identity.terms:
                term = value(tuple((m, tuple(tup[p] for p in w)) for m, w in factors))
                for r, x in enumerate(term):
                    sides[sign][r] += x
            lhs, rhs = tuple(sides[1]), tuple(sides[-1])
            if lhs != rhs:
                return {key: tup, "lhs": lhs, "rhs": rhs}
    return None


def verify_jordan_criterion_oracle(a: fa.FinAlgebra, t: fa.Mat) -> fa.VerificationReport:
    """The Jordan criterion with every check run in full, as the program ran
    it before deciding (anti)multiplicativity first: the dense `Mat.rank`,
    the cubic condition at every sorted triple (`cubic_condition_oracle`),
    and, under the hypotheses, both multiplicativity identities and the
    Jordan identity at every pair (`first_violation_oracle`)."""
    unital = a.unit is not None
    simplicity = fa.is_commutator_simple(a)
    rank = t.rank()
    surjective = rank == a.dim
    unit_preserved = unital and t.apply(a.unit) == a.unit
    cubic = cubic_condition_oracle(a, t)
    checks = [
        fa.TheoremCheck("unital", unital),
        fa.TheoremCheck(
            "commutator-simple",
            bool(simplicity),
            "" if simplicity else simplicity.witness.certificate,
        ),
        fa.TheoremCheck("surjective", surjective, f"rank {rank} of {a.dim}"),
        fa.TheoremCheck("unit-preserved", unit_preserved),
        fa.TheoremCheck(
            "cubic-condition",
            cubic is None,
            "" if cubic is None else f"fails at basis triple {cubic['triple']}",
        ),
    ]
    spaces = {"commutators": simplicity.commutators.dim, "rank": rank}
    if not (unital and simplicity and surjective and unit_preserved and cubic is None):
        return fa.VerificationReport(tuple(checks), spaces, "hypotheses-not-met")
    for mode in ("homomorphism", "antihomomorphism"):
        violation = first_violation_oracle(a, (fm._MULTIPLICATIVITY[mode],), t, "pair")
        checks.append(fa.TheoremCheck(mode, violation is None))
    jordan = first_violation_oracle(a, (fm._JORDAN_HOMOMORPHISM,), t, "pair")
    if jordan is None:
        return fa.VerificationReport(tuple(checks), spaces, "verified")
    witness = dict(jordan)
    witness["direction"] = "cubic condition held but the Jordan identity fails"
    return fa.VerificationReport(tuple(checks), spaces, "REFUTATION", witness)


def inner_derivation_oracle(a: fa.FinAlgebra) -> fa.Subspace:
    """The span of the flattened maps ad_{b_k} = R_{b_k} - L_{b_k}, each
    built as the difference of two dense multiplication operators."""
    d = a.dim
    rows = [
        fa.flatten_map(a.mult_operator(b, "right") - a.mult_operator(b, "left"))
        for b in fa.Mat.identity(d).data
    ]
    return fa.Subspace.from_rows(d * d, rows)


def commutator_gram_oracle(a: fa.FinAlgebra):
    """The dense Gram forms G[u][v] = f(b_u b_v) of each f in the canonical
    basis of the annihilator of [A, A], read from dense products."""
    d = a.dim
    return [
        [[fa.dot(f, a.product(u, v)) for v in range(d)] for u in range(d)]
        for f in fa.commutator_subspace(a).annihilator().basis
    ]


def constraint_rows_oracle(a: fa.FinAlgebra, identities):
    """The constraint rows of identities linear in D, read term by term from
    the same `_Identity` descriptions the program uses: a term L D(M) R
    adds M_t (L b_k R)_r at D[k][t] in the row of output coordinate r, and
    modulo [A, A] it adds M_t f(b_k R L) in the row of each functional f,
    read through the dense Gram forms.  Rows come tuple by tuple, by
    increasing r (functional by functional modulo [A, A]), as the items of
    an {index: value} mapping without zeros."""
    d = a.dim
    if not identities[0].modulo_commutators:
        yield from _oracle_rows(a, identities, d, lambda left, right: [
            (k, r, v) for k in range(d) for r, v in _oracle_terms(a, left + (k,) + right)
        ])
        return
    for gram in commutator_gram_oracle(a):

        def projected(left, right, gram=gram):
            w = _oracle_terms(a, right + left)
            return [
                (k, 0, v)
                for k, form in enumerate(gram)
                if (v := sum((c * form[r] for r, c in w if form[r]), F0))
            ]

        yield from _oracle_rows(a, identities, 1, projected)


def row_stream_digest(rows) -> str:
    """The sha256 of a row stream, one line per row, entries sorted."""
    h = hashlib.sha256()
    for row in rows:
        h.update((" ".join(f"{i}:{c}" for i, c in sorted(row)) + "\n").encode())
    return h.hexdigest()


def _oracle_rows(a, identities, outputs, context):
    d = a.dim
    contexts = {}
    for identity in identities:
        terms = []
        for sign, factors in identity.terms:
            (n,) = [n for n, (mapped, _) in enumerate(factors) if mapped]
            words = [word for _, word in factors]
            terms.append((sign, sum(words[:n], ()), words[n], sum(words[n + 1:], ())))
        for tup in identity.tuples(d):
            rows = [{} for _ in range(outputs)]
            for sign, left, word, right in terms:
                key = tuple(tup[p] for p in left), tuple(tup[p] for p in right)
                if key not in contexts:
                    contexts[key] = context(*key)
                for t, m in _oracle_terms(a, tuple(tup[p] for p in word)):
                    for k, r, v in contexts[key]:
                        row = rows[r]
                        total = row.get(k * d + t, F0) + sign * m * v
                        if total:
                            row[k * d + t] = total
                        else:
                            row.pop(k * d + t, None)
            yield from (row.items() for row in rows if row)


def _oracle_terms(a, word):
    return ((word[0], F1),) if len(word) == 1 else a.product_terms(*word)


# -- documents, map files and Cayley tables, read token by token -------------
#
# The regex tokenizer and the per-entry serializer that `finalg.document`
# replaced: every token located by a regex match and parsed where it
# stands, every entry rendered and tested for zero on its own.

_TOKEN_RE = re.compile(r"\S+")


def _regex_tokens(line):
    return [(m.group(0), m.start() + 1) for m in _TOKEN_RE.finditer(line)]


def _regex_stream(text):
    for lineno, raw in enumerate(text.splitlines(), 1):
        for tok, col in _regex_tokens(raw.split("#", 1)[0]):
            yield tok, lineno, col


def _regex_int(token, lineno, col):
    try:
        return int(token)
    except ValueError:
        raise DocumentError(f"expected an integer, got {token!r}", lineno, col) from None


def _regex_rational(token, lineno, col):
    try:
        return fa.parse_rational(token)
    except ValueError as exc:
        raise DocumentError(str(exc), lineno, col) from None


def _regex_vector(toks, dim, lineno, what):
    if len(toks) != dim:
        col = toks[0][1] if toks else 1
        raise DocumentError(f"{what} needs exactly {dim} rationals, got {len(toks)}", lineno, col)
    return tuple(_regex_rational(tok, lineno, col) for tok, col in toks)


def parse_document_oracle(text):
    name = dim = labels = unit = None
    products = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        toks = _regex_tokens(raw.split("#", 1)[0])
        if not toks:
            continue
        (keyword, col), body = toks[0], toks[1:]
        if keyword == "algebra":
            if name is not None:
                raise DocumentError("duplicate 'algebra' line", lineno, col)
            if len(body) != 1:
                raise DocumentError("'algebra' takes exactly one name token", lineno, col)
            name = body[0][0]
        elif keyword == "dim":
            if dim is not None:
                raise DocumentError("duplicate 'dim' line", lineno, col)
            if len(body) != 1:
                raise DocumentError("'dim' takes exactly one integer", lineno, col)
            dim = _regex_int(body[0][0], lineno, body[0][1])
            if dim < 0:
                raise DocumentError("dimension must be nonnegative", lineno, body[0][1])
        elif keyword == "labels":
            if dim is None:
                raise DocumentError("'labels' must come after 'dim'", lineno, col)
            if labels is not None:
                raise DocumentError("duplicate 'labels' line", lineno, col)
            if len(body) != dim:
                raise DocumentError(f"'labels' needs exactly {dim} tokens", lineno, col)
            labels = tuple(tok for tok, _ in body)
        elif keyword == "unit":
            if dim is None:
                raise DocumentError("'unit' must come after 'dim'", lineno, col)
            if unit is not None:
                raise DocumentError("duplicate 'unit' line", lineno, col)
            unit = _regex_vector(body, dim, lineno, "'unit'")
        elif keyword == "product":
            if dim is None:
                raise DocumentError("'product' must come after 'dim'", lineno, col)
            if len(body) < 3 or body[2][0] != "=":
                raise DocumentError("expected 'product i j = ...'", lineno, col)
            i = _regex_int(body[0][0], lineno, body[0][1])
            j = _regex_int(body[1][0], lineno, body[1][1])
            if not (0 <= i < dim and 0 <= j < dim):
                raise DocumentError(f"basis pair ({i},{j}) out of range", lineno, body[0][1])
            if (i, j) in products:
                raise DocumentError(f"duplicate product for basis pair ({i},{j})", lineno, col)
            products[(i, j)] = _regex_vector(body[3:], dim, lineno, "'product'")
        else:
            raise DocumentError(f"unknown keyword {keyword!r}", lineno, col)
    if name is None:
        raise DocumentError("missing 'algebra' line")
    if dim is None:
        raise DocumentError("missing 'dim' line")
    return AlgebraDocument(
        name, dim, unit, labels, tuple((i, j, v) for (i, j), v in products.items())
    )


def cayley_order_oracle(text):
    for tok, lineno, col in _regex_stream(text):
        return _regex_int(tok, lineno, col)
    raise DocumentError("Cayley table needs an order and an identity index")


def parse_cayley_table_oracle(text):
    toks = list(_regex_stream(text))
    if len(toks) < 2:
        raise DocumentError("Cayley table needs an order and an identity index")
    order = _regex_int(*toks[0])
    identity = _regex_int(*toks[1])
    if order < 1:
        raise DocumentError("group order must be positive", toks[0][1], toks[0][2])
    body = toks[2:]
    if len(body) != order * order:
        raise DocumentError(f"expected {order * order} table entries, got {len(body)}")
    entries = [_regex_int(*tok) for tok in body]
    try:
        return fa.FiniteGroup([entries[r * order:(r + 1) * order] for r in range(order)], identity)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


def parse_map_file_oracle(text, expected_dim=None):
    toks = list(_regex_stream(text))
    if not toks:
        raise DocumentError("empty map file")
    dim = _regex_int(*toks[0])
    if dim < 1:
        raise DocumentError("map dimension must be positive", toks[0][1], toks[0][2])
    if expected_dim is not None and dim != expected_dim:
        raise DocumentError(
            f"map dimension {dim} does not match the algebra dimension {expected_dim}"
        )
    body = toks[1:]
    if len(body) != dim * dim:
        raise DocumentError(f"expected {dim * dim} entries, got {len(body)}")
    values = [_regex_rational(*tok) for tok in body]
    return fa.Mat([values[r * dim:(r + 1) * dim] for r in range(dim)])


def serialize_document_oracle(doc):
    lines = [f"algebra {doc.name}", f"dim {doc.dim}"]
    if doc.labels is not None:
        lines.append("labels " + " ".join(doc.labels))
    if doc.unit is not None:
        lines.append("unit " + " ".join(str(x) for x in doc.unit))
    for i, j, coeffs in sorted(doc.products, key=lambda entry: (entry[0], entry[1])):
        if any(coeffs):
            lines.append(f"product {i} {j} = " + " ".join(str(x) for x in coeffs))
    return "\n".join(lines) + "\n"


def document_fingerprint_oracle(doc):
    return hashlib.sha256(serialize_document_oracle(doc).encode("utf-8")).hexdigest()
