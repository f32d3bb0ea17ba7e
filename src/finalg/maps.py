"""Linear self-maps of an algebra: derivation-type subspaces and checks.

Linear maps are square `Mat` values acting on coefficient columns, so the
j-th column is the image of basis element b_j.  Spaces of maps are
subspaces of Q^(dim^2) under row-major flattening.

Quantified identities ("for all x") are decided exactly by polarization:
over the rationals a homogeneous identity of degree d holds for all x iff
all of its multilinear symmetrizations over basis d-tuples hold.  Each
polarized identity is written once, and the same description yields both
the linear constraint rows of a map space and the first violating basis
tuple of a concrete map.  Products are read from the product table of
`FinAlgebra`, through `algebras._sided`.

Rows come from one engine, which groups an identity's terms by the word in
the map.  What a group adds to a tuple's rows depends only on the tuple's
letters outside that word, so it is built once per such letters, with the
column offsets folded in, and shifted into place for each tuple.  Where
entries can meet, they are added up.  They cannot in the one-output rows
modulo [A, A], whose words in the map are single letters, at a tuple whose
letters there are distinct: each group's entries then have columns of their
own, and the row is their concatenation.  The stream, its order and every
value are those of reading the terms one by one.  A solve can be given a
floor, a space of maps inside its answer on every algebra, as the inner
derivations lie in the derivations and in the criterion maps.  So do the
maps into I, the largest ideal of A inside [A, A]: such a D has D(x) x and
D(x) x^2 in I.  I is zero exactly when A is commutator-simple; otherwise
Inn + Hom(A, I) is the criterion floor, and on T_n, where I = [A, A], it is
the whole answer (row 135 of 150 on T5, rows 115 to 334 of about 1 050 on
dense copies of T4).  A floored solve stops once its kernel has shrunk to
the floor's dimension, so the rows after that are never generated, and it
re-checks that the kernel equals the floor.  It reads the Leibniz rule,
which is closed in its first letter (see below), only at the pairs whose
first letter is a generator.

A check evaluates terms as sparse vectors, dense only at a failing tuple.
Membership in [A, A] is decided exactly through the covectors f that vanish
on [A, A]: r lies in [A, A] iff f(r) = 0 for each f of a basis.  Such an f
has f(xy) = f(yx), so each term is rotated to end in the factor that holds
the tuple's last letter, and terms equal after rotation are merged.  The
tuples are then read per prefix, the tuple without its last letter z: a
term H b_z gives f(H b_z) = (G_f H)_z, for the Gram form G_f[u][v] =
f(b_u b_v), which is symmetric, and a term H T(b_z) gives ((G_f H) T)_z.
So each f gives one covector over z per prefix, added up from the sparse
columns of G_f and those columns times T, and the least z at which one is
nonzero is the first failing tuple.  The covectors and their Gram columns
are built once per algebra by `structure._commutator_forms`, in ints with a
denominator D, by `structure.gram_columns`, the one Gram builder; a zero
test reads them as they are.  A criterion row's
context is built in ints too, from them and the constants times their
common denominator L, and divided by L D once, when it is cached.

The Leibniz rule and both multiplicativity identities are closed in their
first letter: the x at which one holds for every y form a subalgebra.  So
`_first_violation` decides them at the pairs whose first letter is one of
the generators S of A (`FinAlgebra.generators`), d |S| of the d^2, and
scans every pair in order only after one of those fails, for the first
failing pair; a map passes exactly when it returns None.  The
verdicts that follow from them are not checked again: a homomorphism or an
antihomomorphism satisfies the Jordan identity, and the cubic condition
when T - id maps A into [A, A]; a derivation is a local derivation.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .algebras import Element, FinAlgebra, _bracket, _cleared_sided, _operator_rows, _sided, random_element
from .linalg import _ONE, _ZERO, InternalError, Mat, Subspace, Vec, _accumulate, _combination, _dense, _exact
from .linalg import _kernel, _nonzeros, _null_vectors, _span, kernel_from_constraints
from .structure import _commutator_covectors, _commutator_forms
from .structure import SimplicityVerdict, is_commutator_simple, is_semiprime

VERDICT_VERIFIED = "verified"
VERDICT_HYPOTHESES_NOT_MET = "hypotheses-not-met"
VERDICT_REFUTATION = "REFUTATION"

LOCAL_TEST_CAVEAT = (
    "a pass certifies only the sampled points (sound for refutation, "
    "incomplete for verification)"
)


def flatten_map(t: Mat) -> Vec:
    return tuple(x for row in t.data for x in row)


def unflatten_map(flat, dim: int) -> Mat:
    values = list(flat)
    if len(values) != dim * dim:
        raise ValueError("flattened map has wrong length")
    return Mat([values[r * dim : (r + 1) * dim] for r in range(dim)], cols=dim)


def apply_map(t: Mat, x: Element) -> Element:
    return Element(x.algebra, t.apply(x.coeffs))


def map_from_basis_images(a: FinAlgebra, images) -> Mat:
    """The matrix whose j-th column is the coefficient vector of image j."""
    cols = [img.coeffs if isinstance(img, Element) else tuple(img) for img in images]
    if len(cols) != a.dim or any(len(col) != a.dim for col in cols):
        raise ValueError("need one image of length dim per basis element")
    return Mat([[cols[j][k] for j in range(a.dim)] for k in range(a.dim)], cols=a.dim)


def scaled_identity_map(dim: int, factor) -> Mat:
    return Mat.identity(dim).scaled(factor)


def transpose_map(n: int) -> Mat:
    """e_pq -> e_qp on the row-major matrix-unit basis of M_n."""
    d = n * n
    m = [[_ZERO] * d for _ in range(d)]
    for p in range(n):
        for q in range(n):
            m[q * n + p][p * n + q] = _ONE
    return Mat(m, cols=d)


def _square_check(a: FinAlgebra, t: Mat) -> None:
    if t.rows != a.dim or t.cols != a.dim:
        raise ValueError("map matrix must be dim x dim for this algebra")


@dataclass(frozen=True)
class MapSpace:
    """A linear space of maps, stored as a subspace of Q^(dim^2)."""

    algebra_dim: int
    space: Subspace

    def __post_init__(self):
        if self.space.ambient_dim != self.algebra_dim ** 2:
            raise ValueError("map space must live in Q^(dim^2)")

    @property
    def dim(self) -> int:
        return self.space.dim

    def contains_map(self, t: Mat) -> bool:
        return self.space.contains_vector(flatten_map(t))

    def basis_maps(self) -> tuple[Mat, ...]:
        return tuple(unflatten_map(row, self.algebra_dim) for row in self.space.basis)

    @classmethod
    def full(cls, algebra_dim: int) -> "MapSpace":
        return cls(algebra_dim, Subspace.full(algebra_dim ** 2))


# -- polarized identities ------------------------------------------------------


class _Identity:
    """A polarized identity, written once and read two ways: as sparse
    constraint rows on an unknown map D when it is linear in D, and as a
    pointwise check that finds the first basis tuple where a map T fails it.

    The text "lhs = rhs" holds at every basis tuple (i, j, ...), or only at
    the sorted ones i <= j <= ... when it is symmetric, optionally modulo
    [A, A].  A side is a sum of terms joined by "+" ("0" for none), a term a
    product of factors separated by spaces, and a factor a word in the
    letters i, j, k, as in jk for b_j b_k, or the map applied to a word, as
    in D(ij); a word outside the map is parsed as one factor per letter.
    The word in the map has at most two letters, and for rows so has the
    rest of the term; outside [A, A] the rest has one letter at most.
    Parsed terms are (sign, factors): +1 on the left, -1 on the right, and
    each factor is (mapped, positions in the tuple).  Modulo [A, A] the last
    letter is a factor of its own in every term, and the check reads
    ``cyclic``: (weight, head, mapped) for each term rotated to end in that
    factor, with its rotations merged, head the factors before it and
    mapped whether it is in the map.  A ``closed`` identity is decided by
    the tuples whose first letter is a generator of A: the first letters at
    which it holds for every other letter form a subalgebra.
    """

    def __init__(self, text: str, symmetric: bool, modulo_commutators: bool = False, closed: bool = False):
        self.terms = []
        for sign, side in zip((1, -1), text.split("=")):
            for term in side.split("+"):
                factors = []
                for token in term.split():
                    word = tuple("ijk".index(c) for c in token if c in "ijk")
                    factors += [(True, word)] if token.endswith(")") else [(False, (p,)) for p in word]
                if factors:
                    self.terms.append((sign, tuple(factors)))
        self.arity = 1 + max(p for _, factors in self.terms for _, word in factors for p in word)
        self.symmetric = symmetric
        self.modulo_commutators = modulo_commutators
        self.closed = closed
        # Every f vanishing on [A, A] has f(xy) = f(yx), so it reads a term
        # and its rotations alike: rotate each term so that the factor that
        # is the last letter alone comes last, and merge equal rotations.
        weights: dict[tuple, int] = {}
        for sign, factors in self.terms if modulo_commutators else ():
            (n,) = [n for n, (_, word) in enumerate(factors) if word == (self.arity - 1,)]
            rotated = factors[n + 1 :] + factors[: n + 1]
            weights[rotated] = weights.get(rotated, 0) + sign
        self.cyclic = [
            (weight, factors[:-1], factors[-1][0]) for factors, weight in weights.items() if weight
        ]

    def tuples(self, d: int, length: int | None = None, first=None):
        """The basis tuples, in order; of a shorter length, their prefixes;
        with `first`, of an identity that is not symmetric, only those whose
        first letter is among these indices."""
        length = self.arity if length is None else length
        if self.symmetric:
            return itertools.combinations_with_replacement(range(d), length)
        return itertools.product(range(d) if first is None else first, *[range(d)] * (length - 1))


def _symmetrized(term: str) -> str:
    """The sum of a term over the six permutations of the letters i, j, k."""
    return " + ".join(
        term.translate(str.maketrans("ijk", "".join(p))) for p in itertools.permutations("ijk")
    )


# For x1, x2 at which an identity below holds for every y, expanding the
# product x1 x2 y through x1 and then x2 shows that it holds at x1 x2 too,
# so each of them is closed in its first letter.
_LEIBNIZ = _Identity("D(ij) = D(i) j + i D(j)", symmetric=False, closed=True)
# D(x^2) = D(x) x + x D(x)
_JORDAN_DERIVATION = _Identity("D(ij) + D(ji) = D(i) j + j D(i) + D(j) i + i D(j)", symmetric=True)
# D(x) x and D(x) x^2 in [A, A]
_CRITERION = (
    _Identity("D(i) j + D(j) i = 0", symmetric=True, modulo_commutators=True),
    _Identity(_symmetrized("D(i) jk") + " = 0", symmetric=True, modulo_commutators=True),
)
# T(x^2) = T(x)^2
_JORDAN_HOMOMORPHISM = _Identity("T(ij) + T(ji) = T(i) T(j) + T(j) T(i)", symmetric=True)
_MULTIPLICATIVITY = {
    "homomorphism": _Identity("T(ij) = T(i) T(j)", symmetric=False, closed=True),
    "antihomomorphism": _Identity("T(ij) = T(j) T(i)", symmetric=False, closed=True),
}
# T(x)^3 - x^3 in [A, A]
_CUBIC = _Identity(
    _symmetrized("T(i) T(j) T(k)") + " = " + _symmetrized("ijk"),
    symmetric=True,
    modulo_commutators=True,
)


def _constraint_rows(a: FinAlgebra, identities, first=None):
    """Sparse rows, over the row-major entries D[k][t] of D, of identities
    linear in D: a term L D(M) R puts M_t (L b_k R)_r on D[k][t] in the row
    of output coordinate r.  With `first`, a closed identity gives only the
    rows of the tuples whose first letter is among these indices.

    Modulo [A, A], each functional f vanishing on [A, A] gives one row, and
    f(L D(M) R) = f(D(M) R L).  A sum of such terms with the same M is
    f(D(M) W) for W the sum of the words R L, and f(b_k W) is found as
    sum_r W_r f(b_k b_r), adding the sparse Gram columns r of f over the
    nonzeros of W.  Where column r is zero, f(A b_r) = 0, so f(b_k W) = 0
    for every W that is b_r or a product b_u b_r; a tuple whose letters all
    have zero columns gives no row and is skipped before any is built.
    """
    d = a.dim
    if not identities[0].modulo_commutators:

        def context(terms, letters):
            sums: dict[int, dict] = {}
            for sign, left, right in terms:
                left, right = _at(letters, left), _at(letters, right)
                for k in range(d):
                    for r, v in _terms(a, left + (k,) + right):
                        _accumulate(sums.setdefault(r, {}), k * d, v if sign > 0 else -v)
            return sums

        yield from _rows(a, identities, d, context, first)
        return
    scale, table = _cleared_sided(a, "left")
    for form, denominator in a.derived(_commutator_forms):
        columns = [[(k * d, g) for k, g in column] for column in form]

        def projected(terms, letters, columns=columns, denominator=denominator * scale):
            word = _combination(
                (sign, table[w[0]][w[1]] if len(w := _at(letters, right + left)) == 2 else ((w[0], scale),))
                for sign, left, right in terms
            )
            context = _combination((c, columns[r]) for r, c in word.items())
            if denominator != 1:
                context = {o: Fraction(v, denominator) for o, v in context.items()}
            return {0: context}

        live = {r for r, column in enumerate(form) if column}
        yield from _rows(a, identities, 1, projected, first, live if len(live) < d else None)


def _rows(a: FinAlgebra, identities, outputs: int, context, first=None, live=None):
    """The rows of each basis tuple in turn, by increasing output coordinate
    r < outputs; with `first`, of a closed identity only the tuples whose
    first letter is among these indices; with `live`, only the tuples
    that hold one of these letters.

    The terms of an identity are grouped by the word M in the map.  What a
    group adds to a tuple's rows, with M left out, depends only on the
    tuple's letters at the group's other positions.  context(terms, letters)
    gives it as {r: {k d: coefficient}}, the sum of sign * L b_k R over the
    terms (sign, L, R), their positions renumbered to index the letters.
    It is cached per letters as its (r, k d, value) entries by increasing r,
    integral values as `int`, shared by the groups whose renumbered terms
    agree.  A tuple adds each entry at k d + t, times M_t, for each nonzero
    M_t, adding up entries that meet.

    Entries cannot meet when there is one output and every M is one letter,
    as in the criterion memberships modulo [A, A], and the tuple's letters
    at those M are distinct: a group's entries sit at k d + t for its own
    letter t < d.  Such a row is built as a list, each group's cached
    entries shifted by t, one comprehension per group.  Adding them up would
    insert the same keys in the same order, so the stream is unchanged.
    """
    d = a.dim
    caches: dict[tuple, dict] = {}
    for identity in identities:
        groups: dict[tuple, list] = {}
        for sign, factors in identity.terms:
            (n,) = [n for n, (mapped, _) in enumerate(factors) if mapped]
            words = [word for _, word in factors]
            groups.setdefault(words[n], []).append((sign, sum(words[:n], ()), sum(words[n + 1 :], ())))
        plans = []
        for word, terms in groups.items():
            rest = sorted({p for _, left, right in terms for p in left + right})
            place = {p: n for n, p in enumerate(rest)}
            shape = tuple(sorted(
                (sign, tuple(place[p] for p in left), tuple(place[p] for p in right))
                for sign, left, right in terms
            ))
            plans.append((word, _letters_at(rest), shape, caches.setdefault(shape, {})))
        # a tuple's letters at the one-letter words M, when rows may be joined
        mapped = _letters_at([word[0] for word in groups])
        joinable = outputs == 1 and all(len(word) == 1 for word in groups)
        tuples = identity.tuples(d, first=first if identity.closed else None)
        for tup in tuples if live is None else itertools.filterfalse(live.isdisjoint, tuples):
            joined = [] if joinable and len(set(mapped(tup))) == len(plans) else None
            rows = [{} for _ in range(outputs)] if joined is None else ()
            for word, rest, shape, cache in plans:
                letters = rest(tup)
                entries = cache.get(letters)
                if entries is None:
                    sums = context(shape, letters)
                    entries = cache[letters] = [(r, o, _exact(v)) for r in sorted(sums) for o, v in sums[r].items()]
                if joined is not None:
                    if entries:
                        t = tup[word[0]]
                        joined += [(o + t, v) for _, o, v in entries]
                    continue
                if len(word) == 1:
                    shifts = ((tup[word[0]], 1),)
                else:
                    shifts = _terms(a, (tup[word[0]], tup[word[1]]))
                for t, m in shifts:
                    for r, o, v in entries:
                        _accumulate(rows[r], o + t, v if m == 1 else m * v)
            if joined:
                yield joined
            for row in rows:
                if row:
                    yield row.items()


def _letters_at(positions):
    """tup -> the tuple of tup's letters at these positions."""
    if len(positions) > 1:
        return operator.itemgetter(*positions)
    # a slice, so that one letter or none still comes as a tuple
    return operator.itemgetter(slice(positions[0], positions[0] + 1) if positions else slice(0))


def _first_violation(a: FinAlgebra, identities, t: Mat, key: str) -> dict | None:
    """The first basis tuple, under `key`, at which the map t fails one of
    the identities, with both evaluated sides, or with the residual lhs - rhs
    for identities modulo [A, A]; None when t satisfies them all.

    A closed identity is first decided at the tuples whose first letter is a
    generator of A, when those are not every index, and the ordered scan
    runs only when one of them fails.

    Terms are sparse, from the product table and the nonzero entries of each
    T(b_j).  Modulo [A, A] the tuples are read per prefix, the tuple without
    its last letter z.  As G_f is symmetric, a cyclic term H L has
    f(H b_z) = (G_f H)_z and f(H T(b_z)) = ((G_f H) T)_z, so for each f of
    `_commutator_forms` the terms add up to one covector over z, built from
    the Gram columns of f and those columns times T; the least z at which
    one is nonzero gives the first failing tuple."""
    d = a.dim
    images = _images(t)
    forms = None
    if identities[0].modulo_commutators:
        rows = [_nonzeros(row) for row in t.data]
        forms = [
            (form, [_combination((g, rows[v]) for v, g in column).items() for column in form])
            for form, _ in a.derived(_commutator_forms)
        ]

    def value(factors):
        """The product of the factors as (index, value) pairs, without zeros."""
        left = None
        for mapped, word in factors:
            vec = images[word[0]] if mapped and len(word) == 1 else _terms(a, word)
            if mapped and len(word) == 2:
                vec = _combination((c, images[s]) for s, c in vec).items()
            if left is not None:
                vec = _combination((x * y, _terms(a, (u, v))) for u, x in left for v, y in vec).items()
            left = vec
        return left

    def sides(identity, tup):
        """The two sides of the identity at tup, as sparse sums."""
        values = [(s, value(tuple((m, _at(tup, p)) for m, p in fs))) for s, fs in identity.terms]
        return [_combination((1, v) for s, v in values if s == side) for side in (1, -1)]

    def failing(identity, first=None):
        """The first tuple at which the identity fails, in `tuples` order,
        with `first`, among those whose first letter is among these indices;
        None when it holds at them all."""
        if not identity.modulo_commutators:
            tuples = identity.tuples(d, first=first)
            return next((tup for tup in tuples if operator.ne(*sides(identity, tup))), None)
        # A symmetric identity at a prefix and a z below its last letter is a
        # reordered earlier tuple, which held, so the covectors vanish there.
        for prefix in identity.tuples(d, identity.arity - 1):
            # (weight, head value) of the terms ending in b_z, then of those ending in T(b_z)
            ends = ([], [])
            for weight, head, mapped in identity.cyclic:
                ends[mapped].append((weight, value(tuple((m, _at(prefix, p)) for m, p in head))))
            least = d
            for form, through in forms:
                covector = _combination(itertools.chain(
                    ((w * x, form[u]) for w, head in ends[0] for u, x in head),
                    ((w * x, through[u]) for w, head in ends[1] for u, x in head),
                ))
                least = min([least, *covector])
            if least < d:
                return prefix + (least,)
        return None

    generators = a.generators
    for identity in identities:
        if identity.closed and len(generators) < d and failing(identity, generators) is None:
            continue
        tup = failing(identity)
        if tup is not None:
            lhs, rhs = (_dense(side.items(), d) for side in sides(identity, tup))
            if forms is not None:
                return {key: tup, "value": tuple(x - y for x, y in zip(lhs, rhs))}
            return {key: tup, "lhs": lhs, "rhs": rhs}
    return None


def _images(t: Mat) -> list:
    """Each column T(b_j) of the map t as its nonzero (k, value) pairs, k
    increasing, integral values as int."""
    return [[(k, _exact(x)) for k, row in enumerate(t.data) if (x := row[j])] for j in range(t.cols)]


def _solve(a: FinAlgebra, *identities: _Identity, floor: MapSpace | None = None) -> MapSpace:
    """The maps that satisfy the identities.  With a floor, a space that
    lies inside the answer whatever the algebra, no row is generated once
    the kernel has shrunk to its dimension; a result of that dimension
    must then equal it, else `InternalError` is raised.

    A floored solve also reads a closed identity, such as the Leibniz rule,
    only at the tuples whose first letter is a generator of A: the x at
    which a map satisfies it for every other letter form a subalgebra, so
    a map that satisfies it at the generators satisfies it everywhere, and
    those rows have the same kernel as the full stream.  Without a floor
    the full stream is read."""
    d = a.dim
    if floor is None:
        return MapSpace(d, kernel_from_constraints(d * d, _constraint_rows(a, identities)))
    kernel = _kernel(d * d, _constraint_rows(a, identities, a.generators), floor.dim)
    if kernel.dim <= floor.dim and kernel != floor.space:
        raise InternalError("internal error: a solve stopped at its floor, which it does not equal")
    return MapSpace(d, kernel)


def _terms(a: FinAlgebra, word: tuple[int, ...]):
    """b_w, or the product b_v b_w, as sparse (index, coefficient) pairs, ints
    where integral, read from the table without `product_terms`' index check:
    the words hold basis indices."""
    return ((word[0], 1),) if len(word) == 1 else _sided(a, "left")[word[0]][word[1]]


def _at(tup: tuple[int, ...], positions: tuple[int, ...]) -> tuple[int, ...]:
    return tuple([tup[p] for p in positions])


def derivation_space(a: FinAlgebra, *, floor: MapSpace | None = None) -> MapSpace:
    """Solutions of D(b_i b_j) = D(b_i) b_j + b_i D(b_j) over all basis
    pairs.  A floor inside them (such as the inner derivations) goes to
    `_solve`, which then reads only the pairs whose first letter is a
    generator of A: the Leibniz rule is closed in its first letter, so
    those rows have the derivations as their kernel too."""
    return _solve(a, _LEIBNIZ, floor=floor)


def inner_derivation_space(a: FinAlgebra) -> MapSpace:
    """The span of the maps ad_{b_k} : x -> [x, b_k] = x b_k - b_k x.  The
    row-major flattening of ad_{b_k} holds (b_j b_k - b_k b_j)_s at s d + j."""
    d = a.dim
    rows = [[(s * d + j, c) for j in range(d) for s, c in _bracket(a, j, k).items()] for k in range(d)]
    return MapSpace(d, _span(d * d, rows))


def jordan_derivation_space(a: FinAlgebra) -> MapSpace:
    """Solutions of the symmetrized identity
    D(b_i b_j + b_j b_i) = D(b_i) b_j + b_i D(b_j) + D(b_j) b_i + b_j D(b_i),
    the polarization of D(x^2) = D(x) x + x D(x) over the infinite field."""
    return _solve(a, _JORDAN_DERIVATION)


def _maps_into(a: FinAlgebra, v: Subspace) -> MapSpace:
    """Hom(A, v): the maps whose every column lies in the subspace v.  Its
    canonical basis is the u (x) e_t, u[k] at k d + t, for u in v's
    canonical basis and t < d, in that order: their leads, d times u's
    pivot plus t, increase, each lead is 1, and no other vector is nonzero
    there, so they are in RREF as built."""
    d = a.dim
    basis = []
    for u in v.basis:
        for t in range(d):
            flat = [_ZERO] * (d * d)
            flat[t::d] = u
            basis.append(tuple(flat))
    return MapSpace(d, Subspace(d * d, tuple(basis)))


def _criterion_floor(a: FinAlgebra, inner: MapSpace, simplicity: SimplicityVerdict) -> MapSpace:
    """Inn + Hom(A, I), for I the largest ideal of A inside [A, A] (the
    `is_commutator_simple` witness, zero when A is commutator-simple): a
    map D into I has D(x) x and D(x) x^2 in I, which lies in [A, A].  The
    inner derivations map into [A, A], so into I when I = [A, A], and the
    floor is then Hom(A, I) as built."""
    if simplicity:
        return inner
    ideal = simplicity.witness.ideal
    into = _maps_into(a, ideal)
    if ideal.dim == simplicity.commutators.dim:
        return into
    return MapSpace(a.dim, inner.space + into.space)


def derivation_criterion_space(a: FinAlgebra, *, floor: MapSpace | None = None) -> MapSpace:
    """Maps D with D(x) x and D(x) x^2 in [A, A] for every x.

    Encoded exactly by polarization: the degree-2 identity becomes
    D(b_i) b_j + D(b_j) b_i in [A,A] for i <= j, the degree-3 identity
    becomes the full symmetrization over triples i <= j <= k.  Each
    membership is a linear constraint modulo the commutator subspace.
    On semiprime commutator-simple algebras these maps are exactly the
    derivations.  A floor inside them (such as the inner derivations)
    goes to `_solve`.
    """
    return _solve(a, *_CRITERION, floor=floor)


@dataclass(frozen=True)
class TheoremCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a hypotheses-then-conclusion verification run.

    ``verdict`` is "verified", "hypotheses-not-met", or "REFUTATION"; a
    refutation always carries a concrete re-checkable witness.
    """

    checks: tuple[TheoremCheck, ...]
    spaces: dict[str, int]
    verdict: str
    witness: dict | None = None


def _simplicity_check(simplicity: SimplicityVerdict) -> TheoremCheck:
    return TheoremCheck(
        "commutator-simple", bool(simplicity), "" if simplicity else simplicity.witness.certificate
    )


def verify_derivation_criterion(a: FinAlgebra) -> VerificationReport:
    """On a semiprime, commutator-simple algebra, the maps with
    D(x)x, D(x)x^2 in [A,A] are exactly the derivations; check that the two
    spaces agree.  A disagreement under the hypotheses is a refutation and
    carries a witness map; one without a witness is a fault of the program
    and raises `InternalError`.  The inner derivations lie in both spaces,
    as [a, x] x = [a x, x] and [a, x] x^2 = [a x^2, x], so the derivation
    solve stops once it has shrunk to them.  It reads the Leibniz rule
    only at the pairs whose first letter is a generator of A, which is
    exact: the x at which a map satisfies the rule for every y form a
    subalgebra (`_solve`).  The criterion solve stops at
    Inn + Hom(A, I) (`_criterion_floor`), for I the largest ideal inside
    [A, A]: a map D into I has D(x) x and D(x) x^2 in I <= [A, A].  When
    A is commutator-simple, I = 0 and that floor is Inn; on T5 it stops
    the criterion solve at row 135 of 150, and on dense copies of T4 at
    rows 115 to 334 of about 1 050."""
    semiprime = is_semiprime(a)
    simplicity = is_commutator_simple(a)
    inner = inner_derivation_space(a)
    derivations = derivation_space(a, floor=inner)
    criterion = derivation_criterion_space(a, floor=_criterion_floor(a, inner, simplicity))
    checks = (
        TheoremCheck("semiprime", semiprime, "radical is zero" if semiprime else "radical is nonzero"),
        _simplicity_check(simplicity),
    )
    spaces = {
        "inner-derivations": inner.dim,
        "derivations": derivations.dim,
        "criterion-maps": criterion.dim,
    }
    if not (semiprime and simplicity):
        return VerificationReport(checks, spaces, VERDICT_HYPOTHESES_NOT_MET)
    if criterion.space == derivations.space:
        return VerificationReport(checks, spaces, VERDICT_VERIFIED)

    def leibniz_violation(m: Mat) -> dict | None:
        return _first_violation(a, (_LEIBNIZ,), m, "pair")

    def membership_violation(m: Mat) -> dict | None:
        violation = _first_violation(a, _CRITERION, m, "tuple")
        return violation and {"violation": {**violation, "degree": len(violation["tuple"])}}

    directions = (
        (criterion, derivations, "criterion map is not a derivation", leibniz_violation),
        (derivations, criterion, "derivation fails a polarized membership", membership_violation),
    )
    for source, target, direction, violation in directions:
        for m in source.basis_maps():
            if not target.contains_map(m):
                found = violation(m)
                if found is None:
                    raise InternalError(f"internal error: {direction}, but breaks no identity")
                witness = {"direction": direction, "map": [list(row) for row in m.data]}
                witness.update(found)
                return VerificationReport(checks, spaces, VERDICT_REFUTATION, witness)
    raise InternalError("internal error: the map spaces differ but no basis map separates them")


def _points(a: FinAlgebra, rng: Random, samples: int):
    """(label, x) for the unit (when present), each basis element, then
    ``samples`` random elements, each drawn from rng when it is reached."""
    if a.unit is not None:
        yield "unit", a.unit_element()
    for i in range(a.dim):
        yield f"basis-{i}", a.basis_element(i)
    for s in range(samples):
        yield f"random-{s}", random_element(a, rng)


@dataclass(frozen=True)
class LocalDerivationResult:
    passed: bool
    counterexample: Element | None
    points_tested: int
    caveat: str = LOCAL_TEST_CAVEAT

    def __bool__(self) -> bool:
        return self.passed


def local_derivation_test(a: FinAlgebra, d_map: Mat, seed: int, samples: int) -> LocalDerivationResult:
    """Sampling test of the local-derivation property: for each tested x,
    is d(x) the value at x of some derivation?

    Tests the unit (when present), every basis element, and ``samples``
    seeded random elements, each drawn when it is reached.  Failures are
    conclusive counterexamples; a pass certifies only the sampled set.
    A derivation, recognized at the generators of A, passes every point
    with no derivation space solved and no point drawn.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    _square_check(a, d_map)
    d = a.dim
    if _first_violation(a, (_LEIBNIZ,), d_map, "pair") is None:
        return LocalDerivationResult(True, None, (a.unit is not None) + d + samples)
    columns = [_images(e) for e in derivation_space(a).basis_maps()]
    images = _images(d_map)
    for tested, (_, x) in enumerate(_points(a, Random(seed), samples), 1):
        # E(x) = sum_t x_t E(b_t) for each derivation E of the basis, and T(x)
        xs = _nonzeros(x.coeffs)
        values = _span(d, [[(s, c * v) for t, c in xs for s, v in e[t]] for e in columns])
        value = _combination((c, images[t]) for t, c in xs)
        if not values.contains_vector(_dense(value.items(), d)):
            return LocalDerivationResult(False, x, tested)
    return LocalDerivationResult(True, None, tested)


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    witness: dict | None = None

    def __bool__(self) -> bool:
        return self.ok


def jordan_homomorphism_check(a: FinAlgebra, t: Mat) -> CheckResult:
    """Polarized exact check of T(x^2) = T(x)^2:
    T(b_i b_j + b_j b_i) = T(b_i)T(b_j) + T(b_j)T(b_i) for all i <= j."""
    _square_check(a, t)
    witness = _first_violation(a, (_JORDAN_HOMOMORPHISM,), t, "pair")
    return CheckResult(witness is None, witness)


def multiplicativity_check(a: FinAlgebra, t: Mat, mode: str) -> CheckResult:
    """T(b_i b_j) = T(b_i)T(b_j) (homomorphism) or T(b_j)T(b_i) (antihomomorphism),
    decided at the pairs whose first letter is a generator of A."""
    if mode not in _MULTIPLICATIVITY:
        raise ValueError("mode must be 'homomorphism' or 'antihomomorphism'")
    _square_check(a, t)
    witness = _first_violation(a, (_MULTIPLICATIVITY[mode],), t, "pair")
    return CheckResult(witness is None, witness)


def cubic_condition_check(a: FinAlgebra, t: Mat) -> CheckResult:
    """Exact polarized check of T(x)^3 - x^3 in [A, A] for every x.

    Over the rationals the quantified statement is equivalent to the full
    symmetrization over basis triples i <= j <= k.
    """
    _square_check(a, t)
    witness = _first_violation(a, (_CUBIC,), t, "triple")
    return CheckResult(witness is None, witness)


def verify_jordan_criterion(a: FinAlgebra, t: Mat) -> VerificationReport:
    """On a commutator-simple unital algebra, a surjective map with T(1) = 1
    and T(x)^3 - x^3 in [A,A] must be a Jordan homomorphism; check it.

    When the hypotheses hold, the report also records whether the map is
    multiplicative or antimultiplicative, both decided first, at the
    generators of A.  Either one gives the Jordan identity, and the cubic
    condition when f(T(b_i)) = f(b_i) for each basis index i and each f of
    `_commutator_covectors`, as T(x)^3 = T(x^3); only other maps are
    checked at every basis pair and triple.
    """
    _square_check(a, t)
    d = a.dim
    unital = a.unit is not None
    simplicity = is_commutator_simple(a)
    images = _images(t)
    rank = _span(d, images).dim
    surjective = rank == d
    unit_preserved = unital and t.apply(a.unit) == a.unit
    homo, anti = (multiplicativity_check(a, t, mode).ok for mode in _MULTIPLICATIVITY)
    if (homo or anti) and all(
        sum((f[k] * x for k, x in images[i]), _ZERO) == f[i]
        for f in a.derived(_commutator_covectors)
        for i in range(d)
    ):
        cubic = CheckResult(True)
    else:
        cubic = cubic_condition_check(a, t)
    checks = [
        TheoremCheck("unital", unital),
        _simplicity_check(simplicity),
        TheoremCheck("surjective", surjective, f"rank {rank} of {d}"),
        TheoremCheck("unit-preserved", unit_preserved),
        TheoremCheck(
            "cubic-condition",
            cubic.ok,
            "" if cubic.ok else f"fails at basis triple {cubic.witness['triple']}",
        ),
    ]
    spaces = {"commutators": simplicity.commutators.dim, "rank": rank}
    if not (unital and simplicity and surjective and unit_preserved and cubic.ok):
        return VerificationReport(tuple(checks), spaces, VERDICT_HYPOTHESES_NOT_MET)
    checks.append(TheoremCheck("homomorphism", homo))
    checks.append(TheoremCheck("antihomomorphism", anti))
    jordan = CheckResult(True) if homo or anti else jordan_homomorphism_check(a, t)
    if jordan.ok:
        return VerificationReport(tuple(checks), spaces, VERDICT_VERIFIED)
    witness = dict(jordan.witness)
    witness["direction"] = "cubic condition held but the Jordan identity fails"
    return VerificationReport(tuple(checks), spaces, VERDICT_REFUTATION, witness)


@dataclass(frozen=True)
class SimilaritySearch:
    status: str  # "witness" | "infeasible" | "inconclusive"
    witness: Element | None = None


def inner_similarity_witness(
    a: FinAlgebra, x: Element, target: Element, rng: Random, trials: int = 20
) -> SimilaritySearch:
    """Search for invertible u with u x u^{-1} = target.

    Solves the linear intertwining system u x = target u, whose sparse
    rows R_x - L_target come from the product table; a zero solution
    space is a definite "infeasible".  Otherwise the unit (when it lies in
    the solution space), the solution basis vectors (one per free column
    of the system's RREF), and ``trials`` seeded random combinations are
    tested for invertibility (left multiplication by u has zero kernel);
    exhausting them is inconclusive.
    """
    if a.unit is None:
        raise ValueError("inner similarity needs a unital algebra")
    a._element_check(x)
    a._element_check(target)
    d = a.dim
    system = zip(_operator_rows(a, x.coeffs, "right"), _operator_rows(a, [-c for c in target.coeffs], "left"))
    solutions = _span(d, [r + l for r, l in system])
    kernel = _null_vectors(solutions.basis, solutions.pivots, d)
    if not kernel:
        return SimilaritySearch("infeasible")

    def invertible(u: Vec) -> bool:
        return any(u) and kernel_from_constraints(d, _operator_rows(a, u, "left")).dim == 0

    # u = 1 solves u x = target u exactly when x = target
    candidates: list[Vec] = [a.unit] if x.coeffs == target.coeffs else []
    candidates.extend(kernel)
    for u in candidates:
        if invertible(u):
            return SimilaritySearch("witness", a.element(u))
    for _ in range(trials):
        weights = [Fraction(rng.randint(-9, 9)) for _ in kernel]
        u = _dense(_combination((w, _nonzeros(v)) for w, v in zip(weights, kernel) if w).items(), d)
        if invertible(u):
            return SimilaritySearch("witness", a.element(u))
    return SimilaritySearch("inconclusive")


@dataclass(frozen=True)
class InnerAutoSample:
    label: str
    point: Element
    status: str
    witness: Element | None


def local_inner_automorphism_test(
    a: FinAlgebra,
    t: Mat,
    seed: int,
    samples: int,
    invertibility_trials: int = 20,
) -> tuple[InnerAutoSample, ...]:
    """Per-point feasibility of t(x) = u x u^{-1} on the unit, the basis, and
    ``samples`` seeded random points.  Statuses are "witness" (with the u
    found), "infeasible" (no intertwiner at all), or "inconclusive" (no
    invertible intertwiner found within the trial budget)."""
    if a.unit is None:
        raise ValueError("local inner-automorphism testing needs a unital algebra")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if invertibility_trials < 0:
        raise ValueError("trials must be nonnegative")
    _square_check(a, t)
    rng = Random(seed)
    # every point is drawn before the first search draws its weights
    points = list(_points(a, rng, samples))
    results = []
    for label, x in points:
        target = apply_map(t, x)
        found = inner_similarity_witness(a, x, target, rng, invertibility_trials)
        results.append(InnerAutoSample(label, x, found.status, found.witness))
    return tuple(results)
