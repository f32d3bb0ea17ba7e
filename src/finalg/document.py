"""Plain-text file formats: algebra documents, Cayley tables, map files.

An algebra document is a line-based description with exact rationals as
``p/q`` strings and a sparse product list (omitted basis pairs multiply
to zero)::

    # comment
    algebra M2
    dim 4
    labels e11 e12 e21 e22
    unit 1 0 0 1
    product 0 0 = 1 0 0 0
    product 0 1 = 0 1 0 0
    ...

Canonical serialization orders the header lines as above, sorts products
by (i, j), omits zero products, and uses single spaces, so a document
round-trips byte-identically once canonicalized.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from fractions import Fraction

from .algebras import FinAlgebra, FiniteGroup
from .linalg import Mat, Vec, parse_rational

_TOKEN_RE = re.compile(r"\S+")


class DocumentError(ValueError):
    """A parse or validation failure, with a location when one is known."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None and col is not None:
            message = f"line {line}, column {col}: {message}"
        elif line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class AlgebraDocument:
    """Parsed form of an algebra document; products hold (i, j, coefficients)."""

    name: str
    dim: int
    unit: Vec | None
    labels: tuple[str, ...] | None
    products: tuple[tuple[int, int, Vec], ...]

    def to_algebra(self) -> FinAlgebra:
        terms = [[()] * self.dim for _ in range(self.dim)]
        for i, j, coeffs in self.products:
            if len(coeffs) != self.dim:
                raise DocumentError(f"product ({i},{j}) needs exactly {self.dim} rationals")
            terms[i][j] = [(k, c) for k, c in enumerate(coeffs) if c]
        try:
            return FinAlgebra(terms, self.unit, self.labels)
        except ValueError as exc:
            raise DocumentError(str(exc)) from exc


def _tokens(line: str) -> list[tuple[str, int]]:
    return [(m.group(0), m.start() + 1) for m in _TOKEN_RE.finditer(line)]


def _stream_tokens(text: str):
    """(token, line, column) of a token-stream file, lazily; '#' starts a comment."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        for tok, col in _tokens(raw.split("#", 1)[0]):
            yield tok, lineno, col


def _parse_int(token: str, lineno: int, col: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise DocumentError(f"expected an integer, got {token!r}", lineno, col) from None


def _parse_rat(token: str, lineno: int, col: int, seen: dict[str, Fraction]) -> Fraction:
    """The rational a token spells, remembered in ``seen``, which one parse
    keeps for its file: a file repeats few distinct tokens many times.  A
    bad token is never remembered, so each occurrence raises at its own
    place."""
    value = seen.get(token)
    if value is None:
        try:
            value = seen[token] = parse_rational(token)
        except ValueError as exc:
            raise DocumentError(str(exc), lineno, col) from None
    return value


def _parse_vector(
    toks: list[tuple[str, int]], dim: int, lineno: int, what: str, seen: dict[str, Fraction]
) -> Vec:
    if len(toks) != dim:
        col = toks[0][1] if toks else 1
        raise DocumentError(f"{what} needs exactly {dim} rationals, got {len(toks)}", lineno, col)
    return tuple([_parse_rat(tok, lineno, col, seen) for tok, col in toks])


def parse_document(text: str) -> AlgebraDocument:
    """Parse the document syntax; '#' starts a comment, blank lines are skipped."""
    name: str | None = None
    dim: int | None = None
    labels: tuple[str, ...] | None = None
    unit: Vec | None = None
    products: dict[tuple[int, int], Vec] = {}
    order: list[tuple[int, int]] = []
    seen: dict[str, Fraction] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0]
        toks = _tokens(line)
        if not toks:
            continue
        keyword, col = toks[0]
        body = toks[1:]
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
            dim = _parse_int(body[0][0], lineno, body[0][1])
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
            unit = _parse_vector(body, dim, lineno, "'unit'", seen)
        elif keyword == "product":
            if dim is None:
                raise DocumentError("'product' must come after 'dim'", lineno, col)
            if len(body) < 3 or body[2][0] != "=":
                raise DocumentError("expected 'product i j = ...'", lineno, col)
            i = _parse_int(body[0][0], lineno, body[0][1])
            j = _parse_int(body[1][0], lineno, body[1][1])
            if not (0 <= i < dim and 0 <= j < dim):
                raise DocumentError(f"basis pair ({i},{j}) out of range", lineno, body[0][1])
            if (i, j) in products:
                raise DocumentError(f"duplicate product for basis pair ({i},{j})", lineno, col)
            products[(i, j)] = _parse_vector(body[3:], dim, lineno, "'product'", seen)
            order.append((i, j))
        else:
            raise DocumentError(f"unknown keyword {keyword!r}", lineno, col)
    if name is None:
        raise DocumentError("missing 'algebra' line")
    if dim is None:
        raise DocumentError("missing 'dim' line")
    return AlgebraDocument(
        name, dim, unit, labels, tuple((i, j, products[(i, j)]) for i, j in order)
    )


def parse_algebra_document(text: str) -> FinAlgebra:
    """Parse and validate: returns the algebra or raises DocumentError."""
    return parse_document(text).to_algebra()


def document_from_algebra(name: str, a: FinAlgebra) -> AlgebraDocument:
    if not name or _TOKEN_RE.fullmatch(name) is None:
        raise ValueError("algebra name must be a single non-empty token")
    products = tuple(
        (i, j, a.product(i, j))
        for i in range(a.dim)
        for j in range(a.dim)
        if a.product_terms(i, j)
    )
    return AlgebraDocument(name, a.dim, a.unit, a.labels, products)


def serialize_document(doc: AlgebraDocument) -> str:
    """Canonical text: fixed header order, products sorted, zero products omitted."""
    lines = [f"algebra {doc.name}", f"dim {doc.dim}"]
    if doc.labels is not None:
        lines.append("labels " + " ".join(doc.labels))
    if doc.unit is not None:
        lines.append("unit " + " ".join(str(x) for x in doc.unit))
    for i, j, coeffs in sorted(doc.products, key=lambda entry: (entry[0], entry[1])):
        if any(coeffs):
            lines.append(
                f"product {i} {j} = " + " ".join(str(x) for x in coeffs)
            )
    return "\n".join(lines) + "\n"


def document_fingerprint(doc: AlgebraDocument) -> str:
    return hashlib.sha256(serialize_document(doc).encode("utf-8")).hexdigest()


# -- Cayley table files ------------------------------------------------------
#
# Token stream (comments with '#'): group order, identity index, then
# order*order table entries row-major.

def cayley_order(text: str) -> int:
    """The group order at the head of a Cayley table, read without the body."""
    for tok, lineno, col in _stream_tokens(text):
        return _parse_int(tok, lineno, col)
    raise DocumentError("Cayley table needs an order and an identity index")


def parse_cayley_table(text: str) -> FiniteGroup:
    toks = list(_stream_tokens(text))
    if len(toks) < 2:
        raise DocumentError("Cayley table needs an order and an identity index")
    order = _parse_int(toks[0][0], toks[0][1], toks[0][2])
    identity = _parse_int(toks[1][0], toks[1][1], toks[1][2])
    if order < 1:
        raise DocumentError("group order must be positive", toks[0][1], toks[0][2])
    body = toks[2:]
    if len(body) != order * order:
        raise DocumentError(
            f"expected {order * order} table entries, got {len(body)}"
        )
    entries = [_parse_int(tok, lineno, col) for tok, lineno, col in body]
    rows = [entries[r * order : (r + 1) * order] for r in range(order)]
    try:
        return FiniteGroup(rows, identity)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


def format_cayley_table(g: FiniteGroup) -> str:
    lines = [str(g.order), str(g.identity_index)]
    lines.extend(" ".join(str(v) for v in row) for row in g.cayley)
    return "\n".join(lines) + "\n"


# -- map files ---------------------------------------------------------------
#
# Token stream: the dimension, then dim*dim rationals row-major for the
# matrix acting on coefficient columns.

def parse_map_file(text: str, expected_dim: int | None = None) -> Mat:
    toks = list(_stream_tokens(text))
    if not toks:
        raise DocumentError("empty map file")
    dim = _parse_int(toks[0][0], toks[0][1], toks[0][2])
    if dim < 1:
        raise DocumentError("map dimension must be positive", toks[0][1], toks[0][2])
    if expected_dim is not None and dim != expected_dim:
        raise DocumentError(
            f"map dimension {dim} does not match the algebra dimension {expected_dim}"
        )
    body = toks[1:]
    if len(body) != dim * dim:
        raise DocumentError(f"expected {dim * dim} entries, got {len(body)}")
    seen: dict[str, Fraction] = {}
    values = [_parse_rat(tok, lineno, col, seen) for tok, lineno, col in body]
    return Mat([values[r * dim : (r + 1) * dim] for r in range(dim)])


def format_map_file(t: Mat) -> str:
    if t.rows != t.cols:
        raise ValueError("map files hold square matrices")
    lines = [str(t.rows)]
    lines.extend(" ".join(str(x) for x in row) for row in t.data)
    return "\n".join(lines) + "\n"
