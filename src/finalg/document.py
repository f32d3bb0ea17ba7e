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

All three formats are read by one tokenizer: each line, up to any '#', is
split at whitespace by `str.split`, which splits at exactly the characters
``\\S+`` skips.  A file repeats few distinct tokens many times, so each
distinct token is parsed once per file, every zero token to one shared
zero object, and a token's column is found only when an error names it.
"""

from __future__ import annotations

import hashlib
import re
import sys
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, repeat
from operator import is_not, itemgetter

from .algebras import FinAlgebra, FiniteGroup
from .linalg import _RATIONAL_RE, _ZERO, Mat, Vec, _dense, _digit_check, _echo, parse_rational

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
        nonzero: dict[int, list] = {}  # id of a coefficient vector -> its (k, c)
        for i, j, coeffs in self.products:
            if len(coeffs) != self.dim:
                raise DocumentError(f"product ({i},{j}) needs exactly {self.dim} rationals")
            key = id(coeffs)
            if key not in nonzero:
                # the parser's zeros are one object, passed over by identity;
                # FinAlgebra drops any other zero by its truth value
                nonzero[key] = list(compress(enumerate(coeffs), map(is_not, coeffs, repeat(_ZERO))))
            terms[i][j] = nonzero[key]
        try:
            return FinAlgebra(terms, self.unit, self.labels)
        except ValueError as exc:
            raise DocumentError(str(exc)) from exc


def _lines(text: str):
    """(line number, line up to any '#', its tokens) of each line holding a token."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0]
        toks = line.split()
        if toks:
            yield lineno, line, toks


def _column(line: str, n: int) -> int:
    """The 1-based column of the n-th token of a line, read only for an error."""
    return [match.start() for match in _TOKEN_RE.finditer(line)][n] + 1


def _int_value(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        match = _RATIONAL_RE.match(token)
        if match and match.group(2) is None:
            _digit_check(token, match.group(1))
        raise ValueError(f"expected an integer, got {_echo(token)}") from None


def _rational_value(token: str) -> Fraction:
    value = parse_rational(token)
    return value if value else _ZERO


def _parse(parse, token: str, n: int, at):
    """parse(token), or a DocumentError at at(n), the (line, column) of token n."""
    try:
        return parse(token)
    except ValueError as exc:
        raise DocumentError(str(exc), *at(n)) from None


def _values(toks: list[str], seen: dict, parse, at, first: int = 0) -> tuple:
    """parse of each token, tokens[k] being token first + k for at, with each
    distinct token parsed once into ``seen``, which one parse keeps for its
    file.  A bad token is never remembered, so the leftmost bad token of
    each call raises, at its own place."""
    get = seen.__getitem__
    try:
        return tuple(map(get, toks))
    except KeyError:
        pass
    for tok in sorted(set(toks).difference(seen), key=toks.index):
        seen[tok] = _parse(parse, tok, first + toks.index(tok), at)
    return tuple(map(get, toks))


def _vector(toks: list[str], first: int, dim: int, what: str, seen: dict, at) -> Vec:
    values = toks[first:]
    if len(values) != dim:
        lineno, col = at(first) if values else (at(0)[0], 1)
        raise DocumentError(f"{what} needs exactly {dim} rationals, got {len(values)}", lineno, col)
    return _values(values, seen, _rational_value, at, first)


def parse_document(text: str) -> AlgebraDocument:
    """Parse the document syntax; '#' starts a comment, blank lines are skipped."""
    header: dict[str, object] = {}  # keyword -> value, of the header lines read so far
    products: dict[tuple[int, int], Vec] = {}
    seen: dict[str, Fraction] = {}
    rows: dict[tuple[str, ...], Vec] = {}  # equal product lines share one vector
    lineno, line = 0, ""

    def at(n: int) -> tuple[int, int]:
        return lineno, _column(line, n)

    for lineno, line, toks in _lines(text):
        keyword = toks[0]
        if keyword in ("product", "labels", "unit") and "dim" not in header:
            raise DocumentError(f"'{keyword}' must come after 'dim'", *at(0))
        if keyword in header:
            raise DocumentError(f"duplicate '{keyword}' line", *at(0))
        dim = header.get("dim")
        if keyword == "product":
            if len(toks) < 4 or toks[3] != "=":
                raise DocumentError("expected 'product i j = ...'", *at(0))
            i = _parse(_int_value, toks[1], 1, at)
            j = _parse(_int_value, toks[2], 2, at)
            if not (0 <= i < dim and 0 <= j < dim):
                raise DocumentError(f"basis pair ({i},{j}) out of range", *at(1))
            if (i, j) in products:
                raise DocumentError(f"duplicate product for basis pair ({i},{j})", *at(0))
            key = tuple(toks[4:])
            if key not in rows:
                rows[key] = _vector(toks, 4, dim, "'product'", seen, at)
            products[(i, j)] = rows[key]
        elif keyword == "algebra":
            if len(toks) != 2:
                raise DocumentError("'algebra' takes exactly one name token", *at(0))
            header["algebra"] = toks[1]
        elif keyword == "dim":
            if len(toks) != 2:
                raise DocumentError("'dim' takes exactly one integer", *at(0))
            dim = _parse(_int_value, toks[1], 1, at)
            if dim < 0:
                raise DocumentError("dimension must be nonnegative", *at(1))
            header["dim"] = dim
        elif keyword == "labels":
            if len(toks) - 1 != dim:
                raise DocumentError(f"'labels' needs exactly {dim} tokens", *at(0))
            header["labels"] = tuple(toks[1:])
        elif keyword == "unit":
            header["unit"] = _vector(toks, 1, dim, "'unit'", seen, at)
        else:
            raise DocumentError(f"unknown keyword {_echo(keyword)}", *at(0))
    if "algebra" not in header:
        raise DocumentError("missing 'algebra' line")
    if "dim" not in header:
        raise DocumentError("missing 'dim' line")
    return AlgebraDocument(
        header["algebra"], header["dim"], header.get("unit"), header.get("labels"),
        tuple((i, j, coeffs) for (i, j), coeffs in products.items()),
    )


def parse_algebra_document(text: str) -> FinAlgebra:
    """Parse and validate: returns the algebra or raises DocumentError."""
    return parse_document(text).to_algebra()


def document_from_algebra(name: str, a: FinAlgebra) -> AlgebraDocument:
    """The document of a, refused when its name or a label would not read
    back as itself: each must be one token with no '#', which starts a
    comment."""
    for what, text in (("algebra name", name), *(("label", label) for label in a.labels or ())):
        if _TOKEN_RE.fullmatch(text) is None or "#" in text:
            raise ValueError(f"{what} must be a single non-empty token without '#', got {_echo(text)}")
    vectors: dict[tuple, Vec] = {}  # equal products share one vector, as when parsed
    products = []
    for i in range(a.dim):
        for j in range(a.dim):
            terms = a.product_terms(i, j)
            if terms:
                if terms not in vectors:
                    vectors[terms] = _dense(terms, a.dim)
                products.append((i, j, vectors[terms]))
    return AlgebraDocument(name, a.dim, a.unit, a.labels, tuple(products))


def serialize_document(doc: AlgebraDocument) -> str:
    """Canonical text: fixed header order, products sorted, zero products omitted.

    Each distinct coefficient object, and each distinct coefficient vector
    object, is rendered once per call; a vector is zero when every one of
    its strings is "0"."""
    rendered: dict[int, str] = {}  # id of a coefficient, alive in doc -> str
    texts: dict[int, str] = {}  # id of a coefficient vector -> its text, "" when zero

    def strings(coeffs) -> list[str]:
        ids = list(map(id, coeffs))
        try:
            return list(map(rendered.__getitem__, ids))
        except KeyError:
            objects = dict(zip(ids, coeffs))
            for key in objects.keys() - rendered.keys():
                rendered[key] = _text(objects[key])
            return list(map(rendered.__getitem__, ids))

    lines = [f"algebra {doc.name}", f"dim {doc.dim}"]
    if doc.labels is not None:
        lines.append("labels " + " ".join(doc.labels))
    if doc.unit is not None:
        lines.append("unit " + " ".join(strings(doc.unit)))
    for i, j, coeffs in sorted(doc.products, key=itemgetter(0, 1)):
        key = id(coeffs)
        if key not in texts:
            row = strings(coeffs)
            texts[key] = " ".join(row) if row.count("0") != len(row) else ""
        if texts[key]:
            lines.append(f"product {i} {j} = {texts[key]}")
    return "\n".join(lines) + "\n"


def _text(x: Fraction) -> str:
    """str(x), or, when a part of x has more digits than the interpreter
    converts (`sys.get_int_max_str_digits()`, read, never set), one
    ValueError that names the part, its digits and the limit.  The digits
    are counted a limit's worth at a time, so no conversion meets it."""
    try:
        return str(x)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        part = "numerator" if abs(x.numerator) >= 10**limit else "denominator"
        n, digits = abs(getattr(x, part)), 0
        while n >= 10**limit:
            n, digits = n // 10**limit, digits + limit
        raise ValueError(
            f"a coefficient's {part} has {digits + len(str(n))} digits, over the limit of {limit}"
        ) from None


def document_fingerprint(doc: AlgebraDocument) -> str:
    return hashlib.sha256(serialize_document(doc).encode("utf-8")).hexdigest()


def _stream(text: str):
    """The tokens of a token-stream file in order, and at(n), the (line,
    column) of token n."""
    tokens: list[str] = []
    starts: list[int] = []
    lines: list[tuple[int, str]] = []
    for lineno, line, toks in _lines(text):
        starts.append(len(tokens))
        lines.append((lineno, line))
        tokens += toks

    def at(n: int) -> tuple[int, int]:
        k = bisect_right(starts, n) - 1
        lineno, line = lines[k]
        return lineno, _column(line, n - starts[k])

    return tokens, at


# -- Cayley table files ------------------------------------------------------
#
# Token stream (comments with '#'): group order, identity index, then
# order*order table entries row-major.

def cayley_order(text: str) -> int:
    """The group order at the head of a Cayley table, read without the body."""
    for lineno, line, toks in _lines(text):
        return _parse(_int_value, toks[0], 0, lambda n: (lineno, _column(line, n)))
    raise DocumentError("Cayley table needs an order and an identity index")


def parse_cayley_table(text: str) -> FiniteGroup:
    toks, at = _stream(text)
    if len(toks) < 2:
        raise DocumentError("Cayley table needs an order and an identity index")
    order = _parse(_int_value, toks[0], 0, at)
    identity = _parse(_int_value, toks[1], 1, at)
    if order < 1:
        raise DocumentError("group order must be positive", *at(0))
    body = toks[2:]
    if len(body) != order * order:
        raise DocumentError(
            f"expected {order * order} table entries, got {len(body)}"
        )
    entries = _values(body, {}, _int_value, at, 2)
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
    toks, at = _stream(text)
    if not toks:
        raise DocumentError("empty map file")
    dim = _parse(_int_value, toks[0], 0, at)
    if dim < 1:
        raise DocumentError("map dimension must be positive", *at(0))
    if expected_dim is not None and dim != expected_dim:
        raise DocumentError(
            f"map dimension {dim} does not match the algebra dimension {expected_dim}"
        )
    body = toks[1:]
    if len(body) != dim * dim:
        raise DocumentError(f"expected {dim * dim} entries, got {len(body)}")
    values = _values(body, {}, _rational_value, at, 1)
    return Mat([values[r * dim : (r + 1) * dim] for r in range(dim)])


def format_map_file(t: Mat) -> str:
    if t.rows != t.cols:
        raise ValueError("map files hold square matrices")
    lines = [str(t.rows)]
    lines.extend(" ".join(str(x) for x in row) for row in t.data)
    return "\n".join(lines) + "\n"
