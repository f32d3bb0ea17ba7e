"""Seeded inputs for the finalg benchmark.

The structure constants of every corpus algebra, every dense change-of-basis
copy and every map are computed here, from their textbook definitions, with
plain ``Fraction`` arithmetic.  The files are written only with the
program's own writers (``serialize_document``, ``format_map_file`` and
``format_cayley_table``); the program under test receives nothing but these
files.  The same seed always gives byte-identical files.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from random import Random

from finalg.algebras import FiniteGroup
from finalg.document import AlgebraDocument, format_cayley_table, format_map_file, serialize_document
from finalg.linalg import Mat

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class Algebra:
    """Structure constants as a sparse product table: (i, j) -> {k: coef}."""

    name: str
    dim: int
    products: dict
    unit: tuple
    labels: tuple | None = None

    def mul(self, x, y) -> list:
        out = [_ZERO] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                for k, coef in self.products.get((i, j), {}).items():
                    out[k] += xi * yj * coef
        return out

    def basis(self, i: int) -> list:
        return [_ONE if s == i else _ZERO for s in range(self.dim)]

    def document(self) -> str:
        products = tuple(
            (i, j, tuple(row.get(k, _ZERO) for k in range(self.dim)))
            for (i, j), row in sorted(self.products.items())
            if any(row.values())
        )
        return serialize_document(
            AlgebraDocument(self.name, self.dim, self.unit, self.labels, products)
        )


# -- the monomial corpus -------------------------------------------------------

def matrix_algebra(n: int) -> Algebra:
    """M_n on the row-major matrix units e_pq; e_pq e_qs = e_ps."""
    idx = {(p, q): p * n + q for p in range(n) for q in range(n)}
    products = {
        (idx[p, q], idx[q, s]): {idx[p, s]: _ONE}
        for p in range(n) for q in range(n) for s in range(n)
    }
    unit = tuple(_ONE if p == q else _ZERO for p in range(n) for q in range(n))
    labels = tuple(f"e{p + 1}{q + 1}" for p in range(n) for q in range(n))
    return Algebra(f"M{n}", n * n, products, unit, labels)


def triangular_algebra(n: int) -> Algebra:
    """T_n: upper-triangular matrix units e_pq, p <= q, row-major."""
    positions = [(p, q) for p in range(n) for q in range(p, n)]
    idx = {pq: i for i, pq in enumerate(positions)}
    products = {
        (idx[p, q], idx[q, s]): {idx[p, s]: _ONE}
        for p, q in positions for s in range(q, n)
    }
    unit = tuple(_ONE if p == q else _ZERO for p, q in positions)
    labels = tuple(f"e{p + 1}{q + 1}" for p, q in positions)
    return Algebra(f"T{n}", len(positions), products, unit, labels)


def symmetric_group(n: int) -> FiniteGroup:
    """S_n as permutations in lexicographic order; (p q)(s) = p(q(s))."""
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    return FiniteGroup(
        [[index[tuple(p[q[s]] for s in range(n))] for q in perms] for p in perms]
    )


def dihedral_group(n: int) -> FiniteGroup:
    """D_n of order 2n: r^a s^e with s r s = r^-1."""
    table = []
    for x in range(2 * n):
        a, e = x % n, x // n
        table.append([
            (a + (y % n if e == 0 else -(y % n))) % n + n * ((e + y // n) % 2)
            for y in range(2 * n)
        ])
    return FiniteGroup(table)


def group_algebra(name: str, g: FiniteGroup) -> Algebra:
    products = {(i, j): {g.mul(i, j): _ONE} for i in range(g.order) for j in range(g.order)}
    unit = tuple(_ONE if s == g.identity_index else _ZERO for s in range(g.order))
    return Algebra(name, g.order, products, unit, tuple(f"g{i}" for i in range(g.order)))


def tensor(name: str, a: Algebra, b: Algebra) -> Algebra:
    """A (x) B on the lexicographic basis a_i (x) b_j."""
    products = {}
    for (i1, i2), pa in a.products.items():
        for (j1, j2), pb in b.products.items():
            row = products.setdefault((i1 * b.dim + j1, i2 * b.dim + j2), {})
            for k1, x in pa.items():
                for k2, y in pb.items():
                    row[k1 * b.dim + k2] = row.get(k1 * b.dim + k2, _ZERO) + x * y
    unit = tuple(x * y for x in a.unit for y in b.unit)
    return Algebra(name, a.dim * b.dim, products, unit)


def build_member(name: str) -> Algebra:
    """One member of the corpus: M3-M5, Q[S3], Q[D4], Q[S4], T4, T5, Q[S3](x)M2."""
    if name.startswith("M") and name[1:].isdigit():
        return matrix_algebra(int(name[1:]))
    if name.startswith("T") and name[1:].isdigit():
        return triangular_algebra(int(name[1:]))
    if name in GROUPS:
        return group_algebra(name, GROUPS[name]())
    if name == "QS3M2":
        return tensor(name, group_algebra("QS3", symmetric_group(3)), matrix_algebra(2))
    raise ValueError(f"unknown corpus member {name!r}")


GROUPS = {
    "QS3": lambda: symmetric_group(3),
    "QD4": lambda: dihedral_group(4),
    "QS4": lambda: symmetric_group(4),
}


# -- dense change of basis ---------------------------------------------------------

def _inverse(m: list) -> list:
    """Gauss-Jordan inverse of an invertible rational matrix."""
    d = len(m)
    work = [list(row) + [_ONE if i == j else _ZERO for j in range(d)] for i, row in enumerate(m)]
    for c in range(d):
        r = next(i for i in range(c, d) if work[i][c])
        work[c], work[r] = work[r], work[c]
        lead = work[c][c]
        work[c] = [x / lead for x in work[c]]
        for i in range(d):
            if i != c and work[i][c]:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[c])]
    return [row[d:] for row in work]


def dense_copy(a: Algebra, rng: Random, name: str) -> Algebra:
    """The same algebra on the basis b'_i = sum_k P[k][i] b_k.

    P = L * U * D: L and U are unit triangular with seeded entries +-1 off the
    diagonal, so L * U is dense and unimodular, and D is a seeded
    half-and-half of 1 and 2 on the diagonal.  The structure constants are
    dense rationals with power-of-two denominators, and every seed gives
    factors of the same shape.
    """
    d = a.dim
    lower = [[_ONE if i == j else Fraction(rng.choice((-1, 1))) if j < i else _ZERO
              for j in range(d)] for i in range(d)]
    upper = [[_ONE if i == j else Fraction(rng.choice((-1, 1))) if j > i else _ZERO
              for j in range(d)] for i in range(d)]
    scale = [1 + i % 2 for i in range(d)]
    rng.shuffle(scale)
    p = [[sum((lower[i][k] * upper[k][j] for k in range(d)), _ZERO) * scale[j]
          for j in range(d)] for i in range(d)]
    p_inv = _inverse(p)
    cols = [[p[k][i] for k in range(d)] for i in range(d)]

    def to_new(v):
        return [sum((p_inv[r][k] * v[k] for k in range(d) if v[k]), _ZERO) for r in range(d)]

    products = {}
    for i in range(d):
        for j in range(d):
            new = to_new(a.mul(cols[i], cols[j]))
            if any(new):
                products[(i, j)] = {k: x for k, x in enumerate(new) if x}
    return Algebra(name, d, products, tuple(to_new(a.unit)))


# -- maps --------------------------------------------------------------------------

def _map_from_images(images) -> Mat:
    """Column j of the map file is the image of basis element j."""
    d = len(images)
    return Mat([[images[j][k] for j in range(d)] for k in range(d)])


def inner_derivation_map(a: Algebra, rng: Random) -> Mat:
    """x -> x w - w x for a seeded sparse w: always a derivation."""
    w = [_ZERO] * a.dim
    for k in rng.sample(range(a.dim), min(3, a.dim)):
        w[k] = Fraction(rng.choice((-2, -1, 1, 2)))
    return _map_from_images([
        [x - y for x, y in zip(a.mul(a.basis(j), w), a.mul(w, a.basis(j)))]
        for j in range(a.dim)
    ])


def scaled_identity_map(a: Algebra, factor: int) -> Mat:
    return _map_from_images([[x * factor for x in a.basis(j)] for j in range(a.dim)])


def conjugation_map(a: Algebra, u, u_inv) -> Mat:
    return _map_from_images([a.mul(a.mul(u, a.basis(j)), u_inv) for j in range(a.dim)])


def seeded_unit_conjugation(a: Algebra, rng: Random) -> Mat:
    """x -> u x u^-1 for u = 1 + N with N a seeded combination of matrix units
    e_pq, p < q (nilpotent in M_n and T_n), so u^-1 = sum_k (-N)^k."""
    strict = [i for i, label in enumerate(a.labels) if label[1] < label[2]]
    nil = [_ZERO] * a.dim
    for i in strict:
        nil[i] = Fraction(rng.randint(-2, 2))
    u = [x + y for x, y in zip(a.unit, nil)]
    u_inv, power = list(a.unit), list(a.unit)
    for sign in itertools.islice(itertools.cycle((-1, 1)), a.dim):
        power = a.mul(power, nil)
        if not any(power):
            break
        u_inv = [x + sign * y for x, y in zip(u_inv, power)]
    if a.mul(u, u_inv) != list(a.unit):
        raise RuntimeError("seeded conjugator is not invertible")
    return conjugation_map(a, u, u_inv)


def group_conjugation(a: Algebra, g: FiniteGroup, rng: Random) -> Mat:
    """x -> g x g^-1 for a seeded non-identity group element g."""
    h = rng.choice([x for x in range(g.order) if x != g.identity_index])
    return conjugation_map(a, a.basis(h), a.basis(g.inverse(h)))


def transpose_map(n: int) -> Mat:
    """e_pq -> e_qp on the row-major matrix units of M_n."""
    d = n * n
    return _map_from_images([
        [_ONE if k == (j % n) * n + j // n else _ZERO for k in range(d)] for j in range(d)
    ])


# -- writing ------------------------------------------------------------------------

def write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def write_group_table(out: Path, name: str) -> None:
    write(out / f"{name}.tbl", format_cayley_table(GROUPS[name]()))


def write_map(out: Path, name: str, m: Mat) -> None:
    write(out / f"{name}.map", format_map_file(m))
