"""Exact linear algebra over the rationals.

Scalars, results and verdicts are `fractions.Fraction`; nothing is ever
rounded.  Every elimination clears denominators once and then runs in
exact ``int`` arithmetic, converting back to `Fraction` only for its
results.  Every canonical subspace comes from sparse rows, lists of
(index, coefficient) pairs, through one integer core, `_int_rref`:
`_span` scales each row by the lcm of its denominators and hands it over,
`Subspace.from_rows` reads a dense row once, at its nonzeros, into
`_span`, and so does `kernel_from_constraints` with its integer basis
vectors.  No dense matrix is built on the way.  `Mat.rref`
reaches the same core, but serves only callers that hold a `Mat`.  The
kernel's core `_kernel` can stop pulling rows at a floor dimension, for
callers that know a subspace of that dimension inside the answer.  Once a
run of redundant rows pays for it, `_kernel` packs each column into one
``int`` (Kronecker substitution, a slot of w = bits(max |entry|) + bits(B)
+ 1 bits per vector, B a power of two above the row L1 norms seen), so a
row of integer L1 norm below B is redundant exactly when one sum of ints
is zero: each slot then holds less than 2^(w - 2) in absolute value.

Both eliminations, `_int_rref` and `_kernel`, update a row or vector by
one integer-preserving formula (after Bareiss, Math. Comp. 22, 1968):
against a pivot p, v becomes a v - f p with a > 0 and gcd(a, f) = 1, and
is divided by its content when a != 1.  When the pivot value divides v's,
a = 1 and the update is a plain subtraction.  Rationals serialize as
``p/q`` (or just ``p`` when the denominator is 1) with the sign on the
numerator.

Subspaces of Q^n are stored by their reduced-row-echelon basis.  That
basis is unique, so two equal subspaces have identical representations
and ``==`` decides set equality structurally.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, repeat
from math import gcd, inf
from operator import is_not, itemgetter, length_hint, mul
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)
_RATIONAL_RE = re.compile(r"[+-]?(\d+)(?:/(\d+))?\Z")
# `_kernel` packs its columns only while at most this many vectors are live
_PACK_LIVE = 64


class InternalError(ValueError):
    """A consistency check on the program's own result failed: a fault in
    the program, not in its input."""


def parse_rational(token: str) -> Fraction:
    """Parse ``p`` or ``p/q`` with integer numerator and positive denominator."""
    match = _RATIONAL_RE.match(token)
    if match is None:
        raise ValueError(f"malformed rational literal {_echo(token)}")
    _digit_check(token, *filter(None, match.groups()))
    if match.group(2) is not None and int(match.group(2)) == 0:
        raise ValueError(f"zero denominator in {_echo(token)}")
    return Fraction(token)


def _digit_check(token: str, *digits: str) -> None:
    """Refuse a token with more digits than `sys.get_int_max_str_digits()`
    (absent before Python 3.10.7, which has no limit)."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit and len(token) > limit and (longest := max(map(len, digits))) > limit:
        raise ValueError(f"number {_echo(token)} has {longest} digits, over the limit of {limit}")


def _echo(token: str) -> str:
    """A token as an error message shows it: its repr when it has at most
    40 characters, else the repr of its first 40 and its length."""
    if len(token) <= 40:
        return repr(token)
    return f"{token[:40]!r}... ({len(token)} characters)"


def _exact(x: Fraction) -> Fraction | int:
    """x, as an int when integral: exact, and much cheaper to multiply."""
    return x.numerator if x.denominator == 1 else x


def _nonzeros(v: Iterable) -> list[tuple[int, Fraction | int]]:
    """The nonzero (index, value) pairs of a dense vector, integral values as int."""
    return [(j, _exact(x)) for j, x in enumerate(v) if x]


def _dense(pairs: Iterable, n: int) -> Vec:
    """The `Fraction` vector of length n with these distinct (index, value)
    pairs, every other entry the shared `_ZERO`."""
    v = [_ZERO] * n
    for j, x in pairs:
        v[j] = x if isinstance(x, Fraction) else Fraction(x)
    return tuple(v)


def _combination(scaled) -> dict:
    """The sparse sum of c v over the pairs (c, v), v given by its
    (index, value) pairs, without zeros."""
    total: dict[int, Fraction | int] = {}
    for c, vec in scaled:
        for k, x in vec:
            _accumulate(total, k, c * x)
    return total


def _accumulate(row: dict[int, Fraction], idx: int, value: Fraction) -> None:
    """Add value to row[idx], leaving the entry out when the sum is zero."""
    total = row.get(idx)
    if total is None:
        row[idx] = value
    elif total := total + value:
        row[idx] = total
    else:
        del row[idx]


def as_vector(values: Iterable) -> Vec:
    return tuple(v if isinstance(v, Fraction) else Fraction(v) for v in values)


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise ValueError("dot product of vectors with different lengths")
    total = _ZERO
    for a, b in zip(u, v):
        if a and b:
            total += a * b
    return total


class Mat:
    """Immutable dense matrix of rationals, row-major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Iterable[Iterable], cols: int | None = None):
        rows = tuple(as_vector(r) for r in data)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("rows of unequal length")
            if cols is not None and cols != width:
                raise ValueError("explicit column count disagrees with row width")
        else:
            if cols is None:
                raise ValueError("an empty matrix needs an explicit column count")
            width = cols
        self.data = rows
        self.rows = len(rows)
        self.cols = width

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Mat":
        return cls([[_ZERO] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls(
            [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)], cols=n
        )

    def row(self, i: int) -> Vec:
        return self.data[i]

    def column(self, j: int) -> Vec:
        return tuple(r[j] for r in self.data)

    def transpose(self) -> "Mat":
        return Mat([self.column(j) for j in range(self.cols)], cols=self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self.data == other.data

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.data))

    def __repr__(self) -> str:
        return f"Mat({self.rows}x{self.cols})"

    def __add__(self, other: "Mat") -> "Mat":
        self._shape_check(other)
        return Mat(
            [tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.data, other.data)],
            cols=self.cols,
        )

    def __sub__(self, other: "Mat") -> "Mat":
        self._shape_check(other)
        return Mat(
            [tuple(a - b for a, b in zip(r1, r2)) for r1, r2 in zip(self.data, other.data)],
            cols=self.cols,
        )

    def scaled(self, factor) -> "Mat":
        f = factor if isinstance(factor, Fraction) else Fraction(factor)
        return Mat([tuple(f * a for a in r) for r in self.data], cols=self.cols)

    def __mul__(self, other: "Mat") -> "Mat":
        if not isinstance(other, Mat):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("matrix product shape mismatch")
        out = []
        for r in self.data:
            row = [_ZERO] * other.cols
            for k, a in enumerate(r):
                if a:
                    orow = other.data[k]
                    for j, b in enumerate(orow):
                        if b:
                            row[j] += a * b
            out.append(row)
        return Mat(out, cols=other.cols)

    def apply(self, v: Sequence) -> Vec:
        """Matrix-vector action on a coefficient column, read at its nonzeros."""
        x = as_vector(v)
        if len(x) != self.cols:
            raise ValueError("vector length does not match column count")
        nonzero = _nonzeros(x)
        return tuple(sum([r[j] * c for j, c in nonzero if r[j]], _ZERO) for r in self.data)

    def _shape_check(self, other: "Mat") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("matrix shape mismatch")

    def rref(self) -> tuple["Mat", tuple[int, ...], int]:
        """Reduced row echelon form, pivot columns, and rank.

        The result is the unique RREF of the matrix, every entry a
        `Fraction`, found by `_int_rref` from the nonzero entries of each
        row.  It serves callers that hold a `Mat`; a subspace is built
        from sparse rows by `_span`, with no `Mat`.
        """
        rows = [_nonzeros(row) for row in self.data]
        reduced, pivots = _int_rref(_int_rows(self.cols, rows), self.cols)
        r = len(pivots)
        reduced += [(_ZERO,) * self.cols] * (self.rows - r)
        return Mat(reduced, cols=self.cols), pivots, r

    def rank(self) -> int:
        return self.rref()[2]

    def kernel(self) -> tuple[Vec, ...]:
        """A basis of the null space {x : Mx = 0} (one vector per free column)."""
        reduced, pivots, _ = self.rref()
        return _null_vectors(reduced.data, pivots, self.cols)


def _int_rref(work: list[list[int]], cols: int) -> tuple[list[Vec], tuple[int, ...]]:
    """The nonzero rows of the RREF of the integer rows ``work``, which it
    reduces in place, as `Fraction` vectors, and their pivot columns.

    Gauss-Jordan elimination in exact ``int`` arithmetic (integer-preserving,
    after Bareiss 1968).  At each column the pivot row is a hit row whose
    value p there is smallest in absolute value (the first +-1, if any).
    Every other row v with value f there takes the one update of `_kernel`:
    it becomes (p/g) v - (f/g) prow, for g = gcd(p, f) with the sign of p,
    so that p/g > 0, and is then divided by its content unless p/g = 1,
    which is the case exactly when p divides f.  The update keeps the row
    space, and the division keeps the entries small.  Each pivot row is
    divided by its lead only at the end, at its nonzeros, into `Fraction`s.
    """
    rows = len(work)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        choice, least = -1, 0
        for i in range(r, rows):
            e = work[i][c]
            if e and (choice < 0 or abs(e) < least):
                choice, least = i, abs(e)
                if least == 1:
                    break
        if choice < 0:
            continue
        work[r], work[choice] = work[choice], work[r]
        prow = work[r]
        p = prow[c]
        nonzero = [(j, b) for j, b in enumerate(prow) if b]
        for i in range(rows):
            f = work[i][c]
            if not f or i == r:
                continue
            v = work[i]
            g = gcd(p, f) if p > 0 else -gcd(p, f)
            a, f = p // g, f // g
            if a != 1:
                v = work[i] = [a * x for x in v]
            for j, b in nonzero:
                v[j] -= f * b
            if a != 1 and (content := gcd(*v)) > 1:
                work[i] = [x // content for x in v]
        pivots.append(c)
        r += 1
    out = []
    for row, c in zip(work, pivots):
        lead = row[c]
        v = [_ZERO] * cols
        for j in compress(range(cols), row):
            x = row[j]
            v[j] = _ONE if x == lead else Fraction(x, lead)
        out.append(tuple(v))
    return out, tuple(pivots)


def _int_rows(cols: int, rows: Iterable[Sequence[tuple[int, Fraction | int]]]) -> list[list[int]]:
    """Sparse rows of (index, coefficient) pairs, the coefficients ``int``
    or `Fraction` and an index allowed more than once (its values add up),
    as dense ``int`` rows: each scaled by the lcm of its denominators
    (`_integral`), which keeps the row space.  Rows without a nonzero
    coefficient are left out."""
    work = []
    for row in rows:
        indices, values = _integral(row)
        if indices:
            v = [0] * cols
            for j, p in zip(indices, values):
                v[j] += p
            work.append(v)
    return work


def _span(n: int, rows: Iterable[Sequence[tuple[int, Fraction | int]]]) -> "Subspace":
    """The canonical `Subspace` of Q^n spanned by sparse rows of (index,
    coefficient) pairs (see `_int_rows`), found by `_int_rref`."""
    return Subspace._of_reduced(n, _int_rref(_int_rows(n, rows), n)[0])


def _null_rows(reduced: Sequence[Vec], pivots: Sequence[int], cols: int) -> list[list[tuple[int, Fraction]]]:
    """A basis of {x in Q^cols : R x = 0}, one sparse vector per free column,
    for rows R in reduced row echelon form with these pivot columns: the
    free column's 1, then minus its nonzero entries of R at their pivots."""
    pivot_set = set(pivots)
    return [
        [(free, _ONE), *((p, -row[free]) for row, p in zip(reduced, pivots) if row[free])]
        for free in range(cols)
        if free not in pivot_set
    ]


def _null_vectors(reduced: Sequence[Vec], pivots: Sequence[int], cols: int) -> tuple[Vec, ...]:
    """The vectors of `_null_rows`, dense."""
    return tuple(_dense(pairs, cols) for pairs in _null_rows(reduced, pivots, cols))


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^ambient_dim with a canonical RREF basis.

    Invariants (checked at construction): basis rows are nonzero, each
    leading entry is 1, pivot columns are strictly increasing and are zero
    in every other basis row.  ``pivots`` lists the pivot columns.
    Construct via :meth:`from_rows` unless the rows are already canonical
    ``Fraction`` vectors.
    """

    ambient_dim: int
    basis: tuple[Vec, ...]
    pivots: tuple[int, ...] = field(init=False, compare=False)

    def __post_init__(self):
        n = self.ambient_dim
        pivots: list[int] = []
        for i, row in enumerate(self.basis):
            if len(row) != n:
                raise ValueError("basis row has wrong length")
            # Entries that are the shared `_ZERO`, as the eliminations fill
            # in, are passed over by identity, without a call to
            # `Fraction.__bool__`; any other entry is tested for zero.
            lead = next((j for j in compress(range(n), map(is_not, row, repeat(_ZERO))) if row[j]), None)
            if lead is None:
                raise ValueError("zero basis row")
            if pivots and lead <= pivots[-1]:
                raise ValueError("pivot columns must increase strictly")
            if row[lead] != 1:
                raise ValueError("pivot entries must be 1")
            # Later rows are zero left of their leads, so at the pivots
            # found so far; only the earlier rows remain to check here.
            column = [*map(itemgetter(lead), self.basis[:i])]
            if any(map(is_not, column, repeat(_ZERO))) and any(column):
                raise ValueError("pivot columns must be zero in other rows")
            pivots.append(lead)
        object.__setattr__(self, "pivots", tuple(pivots))

    @classmethod
    def from_rows(cls, ambient_dim: int, rows: Iterable[Sequence]) -> "Subspace":
        """The span of dense rows of ``int`` and `Fraction` entries, each
        read once, at its nonzeros, into `_span`."""
        sparse = []
        for row in rows:
            if len(row) != ambient_dim:
                raise ValueError("row length does not match ambient dimension")
            sparse.append(_nonzeros(row))
        return _span(ambient_dim, sparse)

    @classmethod
    def _of_reduced(cls, ambient_dim: int, rows: Sequence[Vec]) -> "Subspace":
        """The subspace whose canonical basis an elimination returned as rows;
        rows that are not canonical are a fault in the program."""
        try:
            return cls(ambient_dim, tuple(rows))
        except ValueError as exc:
            raise InternalError(f"internal error: reduced rows are not canonical: {exc}") from exc

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Mat.identity(ambient_dim).data)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"

    def _reduce(self, v: Sequence) -> tuple[list[Fraction], list[Fraction]]:
        """The residual of v after eliminating along the basis, and the
        multiple of each basis row taken away."""
        r = list(as_vector(v))
        if len(r) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        coords = []
        for row, p in zip(self.basis, self.pivots):
            c = r[p]
            coords.append(c)
            if c:
                r = [a - c * b if b else a for a, b in zip(r, row)]
        return r, coords

    def reduce_vector(self, v: Sequence) -> Vec:
        """Residual of v after eliminating along the basis; zero iff v is a member."""
        return tuple(self._reduce(v)[0])

    def contains_vector(self, v: Sequence) -> bool:
        return not any(self._reduce(v)[0])

    def coordinates(self, v: Sequence) -> Vec | None:
        """Coordinates of v in the canonical basis, or None when v is outside."""
        residual, coords = self._reduce(v)
        if any(residual):
            return None
        return tuple(coords)

    def contains(self, other: "Subspace") -> bool:
        self._ambient_check(other)
        return all(self.contains_vector(row) for row in other.basis)

    def __le__(self, other: "Subspace") -> bool:
        return other.contains(self)

    def __ge__(self, other: "Subspace") -> bool:
        return self.contains(other)

    def __add__(self, other: "Subspace") -> "Subspace":
        self._ambient_check(other)
        return _span(self.ambient_dim, [_nonzeros(u) for u in self.basis + other.basis])

    def __and__(self, other: "Subspace") -> "Subspace":
        self._ambient_check(other)
        return (self.annihilator() + other.annihilator()).annihilator()

    def annihilator(self) -> "Subspace":
        """Covectors vanishing on this subspace (kernel of the stacked basis)."""
        n = self.ambient_dim
        return _span(n, _null_rows(self.basis, self.pivots, n))

    def _ambient_check(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")


def kernel_from_constraints(
    n: int, rows: Iterable[Iterable[tuple[int, Fraction]]]
) -> Subspace:
    """Common null space of a stream of sparse constraint rows on Q^n.

    Each row is an iterable of (index, coefficient) pairs, the coefficients
    ``int`` or ``Fraction``.  The current null space is kept as an explicit
    basis, shrunk by one vector per independent constraint, and no further
    row is pulled once it is zero; intended for the long, highly redundant
    systems produced by polarized identities.  It is `_kernel` with floor 0.
    """
    return _kernel(n, rows, 0)


def _kernel(n: int, rows: Iterable[Iterable[tuple[int, Fraction]]], floor: int) -> Subspace:
    """The null space of the rows, except that none is pulled once the
    basis has ``floor`` vectors or fewer, which is checked before every
    pull: then it is the null space of the rows read so far.  That holds
    the full answer, so a caller that knows a ``floor``-dimensional
    subspace inside the answer has it whole once the dimensions meet, and
    re-checks that the result equals that subspace.

    The loop runs in exact ``int`` arithmetic.  Each row is scaled by the
    lcm of its denominators, which leaves its kernel unchanged (the lcm
    grows as the row is read, and the values found so far are lifted to
    it), and the basis vectors are integer vectors.  An ``int`` coefficient
    is only multiplied by the lcm so far, with no numerator or denominator
    read; every entry of the monomial streams is one.  The vectors are
    sparse, and a column index lists, for each coordinate, the vectors that
    are nonzero there.  A row's values on the whole basis therefore cost the nonzeros
    of the columns the row touches, which is all a redundant row costs.  An
    independent row takes as pivot p the hit vector with the fewest
    nonzeros, ties broken by the least absolute value pval, as in
    Markowitz's rule (H. M. Markowitz, Management Science 3, 1957): each
    other hit vector gains at most the pivot's nonzeros, so a sparse pivot
    keeps the basis sparse.  Only the other hit vectors are updated, all by
    one formula: v with value val becomes a v - f p, for g = gcd(pval,
    val) with the sign of pval, a = pval/g > 0 and f = val/g, and is then
    divided by its content unless a = 1.  v and its column-index entries
    are rewritten in place.  When pval divides val, a = 1 and the update is
    the subtraction v - (val/pval) p alone, with no gcd of the entries;
    such a vector is not divided, so a basis vector need not be primitive.
    The update keeps the span, and the division keeps the entries of the
    other updates small.  Whatever the pivot, the span after each row is
    the null space of the rows read so far, so the rows pulled do not
    depend on it.  The surviving integer vectors go to `_span` as they are,
    and the result is their canonical `Subspace`, with ``Fraction``
    entries; nothing is ever rounded.

    A redundant run (the rows since the last independent one) may instead
    be tested packed (`_packed`).  Its rows, with e entries in all, have
    read about e z / n column entries, for z the basis's nonzeros, and a
    pack costs about z to build; the columns are packed once e > 4 n (of
    1, 2 and 4 n, 4 n measured best on the corpus streams), while at most
    `_PACK_LIVE` vectors are live, so that a packed sum stays a few machine
    words, and while the columns hold 1.5 nonzeros each on average: a
    packed test costs about as much per row entry as that many column
    reads.  The slots are sized for a bound B on the rows' L1 norms, at
    least 2^(2 bits(N)) for the norm N of the row that completes the run.
    Then a row of ``int`` entries is tested by one sum over its entries,
    and is passed over when the sum is zero and its L1 norm is below B; a
    row that holds a ``Fraction`` goes through `_integral` first, and so
    does every later row.  Any other row takes the column path: a nonzero
    sum means an independent row, which drops the pack, and a zero sum of
    a row of norm N >= B may hide a slot that overflowed, so B becomes
    2^(2 bits(N)) and the run packs again, wider.
    """
    # vectors[k] maps coordinate -> nonzero int; columns[j] maps vector key
    # -> its nonzero value at j.  Keys follow the original order, and
    # deleting keeps the order of the rest.
    vectors: dict[int, dict[int, int]] = {k: {k: 1} for k in range(n)}
    columns: list[dict[int, int]] = [{k: 1} for k in range(n)]
    packed, bound, fractional = None, 1, False
    touched, due = 0, 4 * n
    for row in rows if len(vectors) > floor else ():
        if packed is not None:
            if iter(row) is row:
                row = [*row]
            total = None if fractional else sum([c * packed[j] for j, c in row])
            if type(total) is not int:
                # a Fraction: this row and every later one are read into ints by `_integral`
                fractional = True
                indices, ints = _integral(row)
                total = sum(map(mul, ints, map(packed.__getitem__, indices)))
                row = zip(indices, ints)
            if not total:
                norm = sum(map(abs, ints)) if fractional else sum([abs(c) for _, c in row])
                if norm < bound:
                    continue
                # a slot may have overflowed: the column path decides, and the next pack is wider
                bound, packed, due = 1 << 2 * norm.bit_length(), None, touched
        values: dict[int, int] = {}
        scale = 1
        # read inline, not through `_integral`: that extra pass made the monomial solves 11 % slower
        for j, c in row:
            if type(c) is int:
                # an int needs no denominator lookup and no lcm step
                if not c:
                    continue
                p = c * scale
            else:
                p = c.numerator
                if not p:
                    continue
                q = c.denominator
                if q != 1:
                    if scale % q:
                        # a new factor of the lcm: lift the values found so far
                        m = q // gcd(scale, q)
                        scale *= m
                        for k in values:
                            values[k] *= m
                    p *= scale // q
                elif scale != 1:
                    p *= scale
            for k, x in columns[j].items():
                values[k] = values.get(k, 0) + p * x
        if not any(values.values()):
            touched += length_hint(row)
            if touched > due:
                due = inf
                if len(vectors) <= _PACK_LIVE and 2 * sum(map(len, vectors.values())) >= 3 * n:
                    # a consumed one-shot row has norm 0 here and leaves B as it is
                    norm = int(scale * sum([abs(c) for _, c in row]))
                    bound = max(bound, 1 << 2 * norm.bit_length())
                    packed = _packed(vectors, columns, bound)
            continue
        hits = [k for k, s in values.items() if s]
        pivot = min(hits, key=lambda k: (len(vectors[k]), abs(values[k])))
        pvec = vectors.pop(pivot)
        packed, touched, due = None, 0, 4 * n
        pval = values[pivot]
        for j in pvec:
            del columns[j][pivot]
        for k in hits:
            if k == pivot:
                continue
            val = values[k]
            v = vectors[k]
            g = gcd(pval, val) if pval > 0 else -gcd(pval, val)
            a, f = pval // g, val // g
            if a != 1:
                for j, x in v.items():
                    v[j] = columns[j][k] = a * x
            for j, b in pvec.items():
                x = v.get(j, 0) - f * b
                if x:
                    v[j] = columns[j][k] = x
                else:
                    del v[j], columns[j][k]
            if a != 1 and (content := gcd(*v.values())) > 1:
                for j, x in v.items():
                    v[j] = columns[j][k] = x // content
        if len(vectors) <= floor:
            break
    return _span(n, [v.items() for v in vectors.values()])


def _integral(row) -> tuple[list[int], list[int]]:
    """The indices and int values of the nonzero entries of a sparse row
    times the lcm of its denominators, which keeps its kernel and span."""
    indices, values = [], []
    scale = 1
    for j, c in row:
        p = c.numerator
        if not p:
            continue
        q = c.denominator
        if q != 1:
            if scale % q:
                m = q // gcd(scale, q)
                scale *= m
                values = [x * m for x in values]
            p *= scale // q
        elif scale != 1:
            p *= scale
        indices.append(j)
        values.append(p)
    return indices, values


def _packed(vectors: dict, columns: list, bound: int) -> list[int]:
    """Each column as one int, the s-th live vector's value times 2^(w s),
    w = bits(max |value|) + bits(bound) + 1: for a row of L1 norm below the
    power of two ``bound``, each slot of its packed sum is below 2^(w - 2)
    in absolute value, so the sum is zero iff every slot is."""
    top = max(max(map(abs, v.values())) for v in vectors.values())
    w = top.bit_length() + bound.bit_length() + 1
    packed = [0] * len(columns)
    for s, v in enumerate(vectors.values()):
        shift = w * s
        for j, x in v.items():
            packed[j] += x << shift
    return packed
