"""Finite-dimensional associative algebras presented by structure constants.

An algebra of dimension d over Q is given by its product table on a fixed
basis b_0..b_{d-1}: for each basis pair, the nonzero (k, c) pairs of
``b_i * b_j = sum_k c b_k``, k increasing.  That table is the only copy of
the products.  It holds each coefficient once, as an ``int`` when it is
integral, and is read through the product API of `FinAlgebra`: `product`,
`product_terms`, `mul` and `mul_basis`.  A reader by side takes the table,
or its transpose for the right side, from `_sided`.  Associativity (and the
unit law, when a unit is declared) is checked at construction; instances
are immutable afterwards, apart from the cache behind `FinAlgebra.derived`.

Associativity is certified on a generating set.  For any bilinear product
the middle nucleus {m : (x m) y = x (m y) for all x, y} is a subalgebra
(R. D. Schafer, An Introduction to Nonassociative Algebras, 1966, ch. II),
so (b_i b_j) b_k = b_i (b_j b_k) need only hold for the middles b_j of a
set that generates A.  That set is a set S of basis indices whose closure
under the single-term products b_u b_v = c b_k reaches every index, and the
scan reads d^2 |S| triples instead of d^3.  Indices that are no
single-term product of two others join S first, so T_n needs 2n - 1
middles.  Where the closure adds no index, as on tables without
single-term products, S is the whole basis and the scan is the full one.
When a triple fails, the scan runs again over every middle, so that the
error names the first failing basis triple (i, j, k) in lexicographic
order, with both evaluated sides.  The scan compares ints: each product of
the denominator-cleared table is packed into one int with a slot of
w = bits(2 L |c|) + 1 bits per coordinate, L the largest sum of |c| over
one product and |c| the largest constant, so every slot of the difference
of two sides is below 2^(w - 1) in absolute value (`_first_failure`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from random import Random
from typing import Iterable, Sequence

from .linalg import _ONE, _ZERO, Mat, Subspace, Vec, _combination, _dense, _exact, _int_rref, _nonzeros
from .linalg import as_vector, kernel_from_constraints


class AssociativityError(ValueError):
    """A product table violating (xy)z = x(yz) on some basis triple."""

    def __init__(self, triple: tuple[int, int, int], left: Vec, right: Vec):
        i, j, k = triple
        super().__init__(
            f"associativity fails at basis triple ({i},{j},{k}): "
            f"(b{i}*b{j})*b{k} = {[str(x) for x in left]} but "
            f"b{i}*(b{j}*b{k}) = {[str(x) for x in right]}"
        )
        self.triple = triple
        self.left = left
        self.right = right


class FinAlgebra:
    """An associative algebra over Q given by its exact product table.

    ``terms[i][j]`` lists the (k, c) pairs of b_i * b_j = sum_k c b_k, k
    strictly increasing, the shape `product_terms` returns, so
    ``FinAlgebra([[a.product_terms(i, j) for j in basis] for i in basis],
    a.unit, a.labels) == a``.  Zero coefficients are dropped, and the others
    are kept once, as ``int`` when integral.  ``generators`` holds the basis
    indices S, increasing, that generate A as an algebra: the middles the
    associativity check reads (`_generating_middles`).
    """

    __slots__ = ("dim", "unit", "labels", "generators", "_pairs", "_derived")

    def __init__(self, terms, unit=None, labels=None):
        dim = len(terms)
        if any(len(row) != dim for row in terms):
            raise ValueError("product table must be dim x dim")
        self.dim = dim
        self._pairs = tuple(tuple(_checked_terms(pairs, dim) for pairs in row) for row in terms)
        self.unit = None if unit is None else as_vector(unit)
        if self.unit is not None and len(self.unit) != dim:
            raise ValueError("unit vector has wrong length")
        self.labels = None if labels is None else tuple(str(s) for s in labels)
        if self.labels is not None and len(self.labels) != dim:
            raise ValueError("label list has wrong length")
        self._derived = {}
        self._validate()

    def _validate(self) -> None:
        # The middle nucleus is a subalgebra: for m, n in it, Teichmueller's
        # identity (wx,y,z) - (w,xy,z) + (w,x,yz) = w(x,y,z) + (w,x,y)z, with
        # (u,v,w) = (uv)w - u(vw), gives (w,mn,z) = 0 at x = m, y = n.  So
        # the middles in S certify the whole table; a failure found there is
        # looked up again in full for the first failing triple.
        d = self.dim
        middles = self.generators = tuple(_generating_middles(self._pairs))
        failure = _first_failure(self._pairs, middles)
        if failure is not None and len(middles) < d:
            failure = _first_failure(self._pairs, range(d))
        if failure is not None:
            raise AssociativityError(*failure)
        if self.unit is not None:
            # u b_i and b_i u, summed over the nonzero terms of u, must be b_i
            unit = _nonzeros(self.unit)
            tables = [_sided(self, side) for side in ("left", "right")]
            for i in range(d):
                if any(_combination((u, table[k][i]) for k, u in unit) != {i: 1} for table in tables):
                    raise ValueError(f"claimed unit fails the unit law on basis element {i}")

    # -- products on coefficient vectors -----------------------------------

    def product_terms(self, i: int, j: int) -> tuple[tuple[int, Fraction | int], ...]:
        """b_i * b_j as its nonzero (k, coefficient) pairs, k increasing,
        integral coefficients as int."""
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise ValueError("basis index out of range")
        return self._pairs[i][j]

    def product(self, i: int, j: int) -> Vec:
        """The coefficient vector of b_i * b_j."""
        return _dense(self.product_terms(i, j), self.dim)

    def mul(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Vec:
        """The product of two coefficient vectors, each of length dim."""
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("coefficient vector has wrong length")
        pairs, ys = self._pairs, _nonzeros(y)
        products = _combination((c * e, pairs[i][j]) for i, c in _nonzeros(x) for j, e in ys)
        return _dense(products.items(), self.dim)

    def mul_basis(self, i: int, v: Sequence[Fraction], side: str = "left") -> Vec:
        """b_i * v (left) or v * b_i (right)."""
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        b = self.basis_element(i).coeffs
        return self.mul(b, v) if side == "left" else self.mul(v, b)

    # -- public interface ----------------------------------------------------

    @property
    def is_unital(self) -> bool:
        return self.unit is not None

    def element(self, coeffs: Sequence) -> "Element":
        v = as_vector(coeffs)
        if len(v) != self.dim:
            raise ValueError("coefficient vector has wrong length")
        return Element(self, v)

    def basis_element(self, i: int) -> "Element":
        if not 0 <= i < self.dim:
            raise ValueError("basis index out of range")
        return Element(self, tuple(_ONE if s == i else _ZERO for s in range(self.dim)))

    def zero(self) -> "Element":
        return Element(self, (_ZERO,) * self.dim)

    def unit_element(self) -> "Element":
        if self.unit is None:
            raise ValueError("algebra has no unit")
        return Element(self, self.unit)

    def mult_operator(self, x, side: str = "left") -> Mat:
        """Matrix of y -> xy (left) or y -> yx (right) on coefficient columns."""
        table = _sided(self, side)
        if isinstance(x, Element):
            self._element_check(x)
            xs = x.coeffs
        else:
            xs = as_vector(x)
        if len(xs) != self.dim:
            raise ValueError("coefficient vector has wrong length")
        d = self.dim
        m = [[_ZERO] * d for _ in range(d)]
        for i, xi in enumerate(xs):
            if not xi:
                continue
            for j, row_pairs in enumerate(table[i]):
                for k, coef in row_pairs:
                    m[k][j] += xi * coef
        return Mat(m)

    def derived(self, build):
        """build(self), computed on the first call with this build function
        and kept on the algebra, so that an invariant which several checks
        of one command need, such as [A, A], is built once."""
        if build not in self._derived:
            self._derived[build] = build(self)
        return self._derived[build]

    def _element_check(self, x: "Element") -> None:
        if x.algebra is not self and x.algebra != self:
            raise ValueError("element belongs to a different algebra")

    def __eq__(self, other) -> bool:
        if not isinstance(other, FinAlgebra):
            return NotImplemented
        return self.dim == other.dim and self._pairs == other._pairs and self.unit == other.unit

    def __hash__(self) -> int:
        return hash((self.dim, self._pairs, self.unit))

    def __repr__(self) -> str:
        return f"FinAlgebra(dim={self.dim}, unital={self.is_unital})"


def _sided(a: FinAlgebra, side: str) -> tuple:
    """The product table read from one side: [u][v] holds the terms of
    b_u b_v for side "left", and of b_v b_u for side "right", the transpose,
    built once per algebra."""
    if side == "left":
        return a._pairs
    if side == "right":
        return a.derived(_transposed)
    raise ValueError("side must be 'left' or 'right'")


def _transposed(a: FinAlgebra) -> tuple:
    """The product table with [u][v] holding the terms of b_v b_u."""
    return tuple(zip(*a._pairs))


def _generating_middles(pairs) -> list[int]:
    """Basis indices S, increasing, such that every b_k lies in the
    subalgebra S generates.

    Indices join S greedily, those that are no single-term product b_u b_v
    of two other indices first (on T_n the e_pp and e_p,p+1), then the rest,
    each in increasing order, and each only when not yet reached.  The
    reached set is closed under the products b_u b_v = c b_k with a single
    term: b_k = (b_u b_v) / c lies in the subalgebra whenever b_u and b_v do.
    """
    d = len(pairs)
    products = [False] * d
    for u, row in enumerate(pairs):
        for v, terms in enumerate(row):
            if len(terms) == 1 and terms[0][0] not in (u, v):
                products[terms[0][0]] = True
    reached = [False] * d
    order, middles = [], []
    for g in sorted(range(d), key=products.__getitem__):
        if reached[g]:
            continue
        middles.append(g)
        reached[g] = True
        queue = [g]
        while queue:
            w = queue.pop()
            order.append(w)
            # each pair of reached indices is read once, when its later one is reached
            for v in order:
                for terms in (pairs[w][v], pairs[v][w]):
                    if len(terms) == 1 and not reached[k := terms[0][0]]:
                        reached[k] = True
                        queue.append(k)
    return sorted(middles)


def _first_failure(pairs, middles) -> tuple | None:
    """The first basis triple (i, j, k), in lexicographic order, with j among
    the middles, at which (b_i b_j) b_k != b_i (b_j b_k), with both sides as
    `Fraction` vectors, or None.

    Both sides are homogeneous of degree 2 in the constants, so they are
    compared on the constants times their common denominator (`_cleared`),
    each product b_t b_k packed once, c_s times 2^(w s) (see the module
    docstring).  For each pair (i, j) the sides at every k are two lists of
    ints, the right one read at the nonzero terms of the b_j b_k alone.
    """
    d = len(pairs)
    table = _cleared(pairs)[1]
    top = max((abs(c) for row in table for terms in row for _, c in terms), default=0)
    widest = max((sum(abs(c) for _, c in terms) for row in table for terms in row), default=0)
    w = (2 * widest * top).bit_length() + 1
    packed = [[sum([c << (w * s) for s, c in terms]) for terms in row] for row in table]
    # the (k, t, b) with b_j b_k holding b b_t, for each middle j
    products = {j: [(k, t, b) for k, terms in enumerate(table[j]) for t, b in terms] for j in middles}
    for i in range(d):
        row_i, packed_i = table[i], packed[i]
        for j in middles:
            # (b_i b_j) b_k and b_i (b_j b_k) for every k
            terms = row_i[j]
            if len(terms) == 1 and terms[0][1] == 1:
                left = packed[terms[0][0]]
            else:
                left = [sum(map(mul, [a for _, a in terms], column)) for column in zip(*[packed[t] for t, _ in terms])] or [0] * d
            right = [0] * d
            for k, t, b in products[j]:
                right[k] += b * packed_i[t]
            if left != right:
                k = next(k for k in range(d) if left[k] != right[k])
                sides = (((a, pairs[t][k]) for t, a in pairs[i][j]), ((b, pairs[i][t]) for t, b in pairs[j][k]))
                return (i, j, k), *(_dense(_combination(side).items(), d) for side in sides)
    return None


def _cleared(table) -> tuple[int, list]:
    """The common denominator L of a product table's constants and the
    table of the constants times L, as ints (the table itself if they are)."""
    scale = lcm(*[c.denominator for row in table for terms in row for _, c in terms])
    if scale == 1 and all(type(c) is int for row in table for terms in row for _, c in terms):
        return 1, table
    return scale, [[[(k, c.numerator * (scale // c.denominator)) for k, c in terms] for terms in row] for row in table]


def _checked_terms(pairs, dim: int) -> tuple:
    """The nonzero (k, c) of one basis product, c exact; k must increase in range(dim)."""
    out = []
    last = -1
    for k, c in pairs:
        if not 0 <= k < dim:
            raise ValueError(f"product index {k} outside range({dim})")
        if k <= last:
            raise ValueError("product indices must be strictly increasing")
        last = k
        c = c if isinstance(c, Fraction) else Fraction(c)
        if c:
            out.append((k, _exact(c)))
    return tuple(out)


@dataclass(frozen=True)
class Element:
    """A coefficient vector over an algebra's basis, with arithmetic."""

    algebra: FinAlgebra
    coeffs: Vec

    def __post_init__(self):
        object.__setattr__(self, "coeffs", as_vector(self.coeffs))
        if len(self.coeffs) != self.algebra.dim:
            raise ValueError("coefficient vector has wrong length")

    def _peer(self, other: "Element") -> None:
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise ValueError("elements of different algebras")

    def __add__(self, other: "Element") -> "Element":
        self._peer(other)
        return Element(self.algebra, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Element") -> "Element":
        self._peer(other)
        return Element(self.algebra, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Element":
        return Element(self.algebra, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, Element):
            self._peer(other)
            return Element(self.algebra, self.algebra.mul(self.coeffs, other.coeffs))
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return Element(self.algebra, tuple(f * a for a in self.coeffs))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __pow__(self, n: int) -> "Element":
        if n < 0:
            raise ValueError("negative powers are not defined")
        if n == 0:
            return self.algebra.unit_element()
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            return False
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        labels = self.algebra.labels
        terms = []
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            name = labels[i] if labels else f"b{i}"
            terms.append(name if a == 1 else f"{a}*{name}")
        return " + ".join(terms) if terms else "0"


def random_element(a: FinAlgebra, rng: Random) -> Element:
    """A seeded random element with coefficients p/q, |p| <= 9 and 1 <= q <= 4."""
    return Element(a, tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(a.dim)))


class FiniteGroup:
    """A finite group given by a Cayley table of 0-based indices.

    Construction checks that every row and column is a permutation, that
    an identity exists and that the table is associative; inverses follow.
    """

    __slots__ = ("order", "cayley", "identity_index", "_inverse")

    def __init__(self, cayley: Iterable[Iterable[int]], identity_index: int | None = None):
        table = tuple(tuple(int(v) for v in row) for row in cayley)
        n = len(table)
        if n == 0:
            raise ValueError("empty Cayley table")
        full = frozenset(range(n))
        for row in table:
            if len(row) != n:
                raise ValueError("Cayley table must be square")
            if frozenset(row) != full:
                raise ValueError("a Cayley row is not a permutation")
        for j in range(n):
            if frozenset(table[i][j] for i in range(n)) != full:
                raise ValueError("a Cayley column is not a permutation")
        identity = None
        for e in range(n):
            if all(table[e][x] == x for x in range(n)) and all(table[x][e] == x for x in range(n)):
                identity = e
                break
        if identity is None:
            raise ValueError("Cayley table has no identity element")
        if identity_index is not None and identity_index != identity:
            raise ValueError(
                f"declared identity index {identity_index} but the table's identity is {identity}"
            )
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if table[table[i][j]][k] != table[i][table[j][k]]:
                        raise ValueError(f"Cayley table is not associative at ({i},{j},{k})")
        self.order = n
        self.cayley = table
        self.identity_index = identity
        # Row i holds the identity once, at j with ij = 1, and column i at k with
        # ki = 1; associativity gives k = k(ij) = (ki)j = j, a two-sided inverse.
        self._inverse = tuple(row.index(identity) for row in table)

    def mul(self, i: int, j: int) -> int:
        return self.cayley[i][j]

    def inverse(self, i: int) -> int:
        return self._inverse[i]

    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        n = self.order
        seen = [False] * n
        classes = []
        for x in range(n):
            if seen[x]:
                continue
            orbit = {self.mul(self.mul(g, x), self.inverse(g)) for g in range(n)}
            for y in orbit:
                seen[y] = True
            classes.append(tuple(sorted(orbit)))
        return tuple(sorted(classes))

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("group order must be at least 1")
    return FiniteGroup([[(i + j) % n for j in range(n)] for i in range(n)])


def symmetric_group(n: int) -> FiniteGroup:
    """S_n on {0..n-1}; elements are permutations in lexicographic order."""
    if n < 1:
        raise ValueError("n must be at least 1")
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[s]] for s in range(n))] for q in perms]
        for p in perms
    ]
    return FiniteGroup(table)


def dihedral_group(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: rotations r^k and reflections r^k s."""
    if n < 1:
        raise ValueError("n must be at least 1")
    order = 2 * n

    def encode(k: int, f: int) -> int:
        return k % n + n * f

    table = []
    for x in range(order):
        a, e = x % n, x // n
        row = []
        for y in range(order):
            b, f = y % n, y // n
            row.append(encode(a + (b if e == 0 else -b), (e + f) % 2))
        table.append(row)
    return FiniteGroup(table)


# -- constructors of the standard families ----------------------------------

def build_matrix_algebra(n: int) -> FinAlgebra:
    """Full matrix algebra M_n with basis e_pq (row-major), e_pq e_rs = [q=r] e_ps."""
    return _matrix_units(n, [(p, q) for p in range(n) for q in range(n)])


def build_upper_triangular(n: int) -> FinAlgebra:
    """Upper-triangular n x n matrices; dim n(n+1)/2, unital."""
    return _matrix_units(n, [(p, q) for p in range(n) for q in range(p, n)])


def _matrix_units(n: int, positions: list) -> FinAlgebra:
    """The span of the matrix units e_pq at these positions, in this order,
    with e_pq e_rs = [q=r] e_ps; the positions hold every diagonal one and
    are closed under that product, and the identity, the sum of the
    diagonal ones, is the unit."""
    if n < 1:
        raise ValueError("matrix size must be at least 1")
    index = {pq: i for i, pq in enumerate(positions)}
    terms = [[((index[p, s], _ONE),) if q == r else () for r, s in positions] for p, q in positions]
    unit = [_ONE if p == q else _ZERO for p, q in positions]
    return FinAlgebra(terms, unit, [f"e{p + 1}{q + 1}" for p, q in positions])


def build_group_algebra(g: FiniteGroup) -> FinAlgebra:
    """Group algebra Q[G]: basis indexed by G, product from the Cayley table."""
    n = g.order
    terms = [[((g.mul(i, j), _ONE),) for j in range(n)] for i in range(n)]
    unit = [_ZERO] * n
    unit[g.identity_index] = _ONE
    return FinAlgebra(terms, unit, [f"g{i}" for i in range(n)])


def direct_product(a: FinAlgebra, b: FinAlgebra) -> FinAlgebra:
    """A x B with componentwise product; unital iff both factors are."""
    da, db = a.dim, b.dim
    terms = [[a.product_terms(i, j) for j in range(da)] + [()] * db for i in range(da)]
    terms += [
        [()] * da + [tuple((da + k, c) for k, c in b.product_terms(i, j)) for j in range(db)]
        for i in range(db)
    ]
    unit = None
    if a.unit is not None and b.unit is not None:
        unit = tuple(a.unit) + tuple(b.unit)
    labels = None
    if a.labels is not None and b.labels is not None:
        labels = [f"l_{s}" for s in a.labels] + [f"r_{s}" for s in b.labels]
    return FinAlgebra(terms, unit, labels)


def tensor_product(a: FinAlgebra, b: FinAlgebra) -> FinAlgebra:
    """A (x) B on the lexicographic basis b_i (x) b_j, (x(x)y)(x'(x)y') = xx'(x)yy'."""
    da, db = a.dim, b.dim
    # k1 * db + k2 increases with (k1, k2), as each factor's k increases
    terms = [[tuple((k1 * db + k2, x * y) for k1, x in a.product_terms(i1, i2)
                    for k2, y in b.product_terms(j1, j2)) for i2 in range(da) for j2 in range(db)]
             for i1 in range(da) for j1 in range(db)]
    unit = None
    if a.unit is not None and b.unit is not None:
        unit = [_ZERO] * (da * db)
        for i, x in enumerate(a.unit):
            if x:
                for j, y in enumerate(b.unit):
                    if y:
                        unit[i * db + j] = x * y
    labels = None
    if a.labels is not None and b.labels is not None:
        labels = [f"{s}*{t}" for s in a.labels for t in b.labels]
    return FinAlgebra(terms, unit, labels)


def adjoin_unit(a: FinAlgebra) -> FinAlgebra:
    """Adjoin a fresh unit at index 0; the original algebra embeds at 1..dim.

    Applies to unital input as well, in which case the old unit becomes a
    non-identity idempotent.
    """
    d = a.dim
    terms = [[((j, _ONE),) for j in range(d + 1)]] + [
        [((i + 1, _ONE),)] + [tuple((k + 1, c) for k, c in a.product_terms(i, j)) for j in range(d)]
        for i in range(d)
    ]
    unit = [_ONE] + [_ZERO] * a.dim
    labels = None if a.labels is None else ["one"] + list(a.labels)
    return FinAlgebra(terms, unit, labels)


def _bracket(a: FinAlgebra, i: int, j: int) -> dict[int, Fraction | int]:
    """[b_i, b_j] = b_i b_j - b_j b_i as its nonzero k -> coefficient."""
    return _combination(((1, a.product_terms(i, j)), (-1, _sided(a, "right")[i][j])))


def center(a: FinAlgebra) -> Subspace:
    """{x : x b_s = b_s x for the generators b_s of A}, computed as a kernel
    of the rows of y -> y b_s - b_s y (`_operator_rows`).  The elements that
    commute with x form a subalgebra, so one that holds the generators is
    A, and this is the center."""

    def rows():
        for s in a.generators:
            b = a.basis_element(s).coeffs
            right, left = _operator_rows(a, b, "right"), _operator_rows(a, [-x for x in b], "left")
            yield from map(list.__add__, right, left)

    return kernel_from_constraints(a.dim, rows())


def _operator_rows(a: FinAlgebra, u, side: str) -> list:
    """The rows of y -> u y (side "left") or y -> y u (side "right"): row k
    as (j, value) pairs, values int or `Fraction`, whose values at one j add
    up to the operator's entry (k, j)."""
    table = _sided(a, side)
    rows: list[list] = [[] for _ in range(a.dim)]
    for i, c in _nonzeros(u):
        for j, pairs in enumerate(table[i]):
            for k, v in pairs:
                rows[k].append((j, c * v))
    return rows


def _with_products(a: FinAlgebra, v: Subspace, side: str) -> Subspace:
    """v + A v (side "left") or v + v A (side "right"), spanned by integer
    rows: each basis vector u of v times the lcm of its denominators, and
    for each i, b_i u (or u b_i) from those integers and the structure
    constants times their common denominator.  Scaling a row keeps the
    span."""
    d = a.dim
    table = _cleared_sided(a, side)[1]
    work = []
    for u in v.basis:
        lifted = lcm(*[x.denominator for x in u])
        u = [x.numerator * (lifted // x.denominator) if x else 0 for x in u]
        work.append(u)
        nonzero = _nonzeros(u)
        for plane in table:
            row = [0] * d
            for j, x in nonzero:
                for k, c in plane[j]:
                    row[k] += x * c
            if any(row):
                work.append(row)
    # dense rows straight to `_int_rref`: through `_span`, `_unclosed_side` took 2-3x as long on dense T4 and T5
    return Subspace._of_reduced(d, _int_rref(work, d)[0])


def _cleared_sided(a: FinAlgebra, side: str) -> tuple[int, tuple]:
    """`_cleared` of the `_sided` table, built once per algebra: the table
    itself when the constants are integral."""
    _sided(a, side)
    return a.derived(_cleared_tables)[side]


def _cleared_tables(a: FinAlgebra) -> dict:
    scale, left = _cleared(a._pairs)
    if left is a._pairs:
        return {side: (1, _sided(a, side)) for side in ("left", "right")}
    return {"left": (scale, left), "right": (scale, tuple(zip(*left)))}


def _unclosed_side(a: FinAlgebra, v: Subspace) -> str | None:
    """The first of "left" and "right" on whose side A moves the subspace v
    out of itself, or None when v is a two-sided ideal: v + A v holds v, so
    it is v exactly when it has v's dimension, and so is v + v A."""
    for side in ("left", "right"):
        if _with_products(a, v, side).dim != v.dim:
            return side
    return None


def quotient_algebra(a: FinAlgebra, ideal: Subspace) -> FinAlgebra:
    """The quotient A / I for a two-sided ideal I, on the non-pivot coordinates.

    Coset representatives are the standard basis vectors at the non-pivot
    columns of the ideal's canonical basis; products are reduced modulo I.
    """
    if ideal.ambient_dim != a.dim:
        raise ValueError("ideal lives in a different ambient space")
    side = _unclosed_side(a, ideal)
    if side is not None:
        raise ValueError(f"subspace is not a {side} ideal")
    pivot_set = set(ideal.pivots)
    keep = [q for q in range(a.dim) if q not in pivot_set]
    terms = [
        [tuple((s, x) for s, q in enumerate(keep) if (x := reduced[q]))
         for reduced in (ideal.reduce_vector(a.product(qi, qj)) for qj in keep)]
        for qi in keep
    ]
    unit = None
    if a.unit is not None and keep:
        reduced = ideal.reduce_vector(a.unit)
        if any(reduced):
            unit = [reduced[q] for q in keep]
    labels = None if a.labels is None else [a.labels[q] for q in keep]
    return FinAlgebra(terms, unit, labels)
