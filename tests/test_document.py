from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import finalg as fa
from finalg.document import (
    _TOKEN_RE,
    AlgebraDocument,
    DocumentError,
    cayley_order,
    document_fingerprint,
    document_from_algebra,
    format_cayley_table,
    format_map_file,
    parse_algebra_document,
    parse_cayley_table,
    parse_document,
    parse_map_file,
    serialize_document,
)
from helpers import (
    corpus,
    non_unital_algebras,
    cayley_order_oracle,
    document_fingerprint_oracle,
    parse_cayley_table_oracle,
    parse_document_oracle,
    parse_map_file_oracle,
    serialize_document_oracle,
)

F = Fraction

M2_TEXT = """\
# the 2x2 matrix algebra on matrix units
algebra M2
dim 4
labels e11 e12 e21 e22
unit 1 0 0 1
product 0 0 = 1 0 0 0
product 0 1 = 0 1 0 0
product 1 2 = 1 0 0 0
product 1 3 = 0 1 0 0
product 2 0 = 0 0 1 0
product 2 1 = 0 0 0 1
product 3 2 = 0 0 1 0
product 3 3 = 0 0 0 1
"""


class TestParsing:
    def test_m2_document_matches_constructor(self):
        assert parse_algebra_document(M2_TEXT) == fa.build_matrix_algebra(2)

    def test_zero_denominator_located(self):
        text = "algebra X\ndim 1\nproduct 0 0 = 1/0\n"
        with pytest.raises(DocumentError, match="zero denominator") as excinfo:
            parse_document(text)
        assert excinfo.value.line == 3
        assert excinfo.value.col == 15

    def test_repeated_tokens(self):
        # Each parse remembers the rationals its tokens spell; a bad token is
        # never remembered, so the first error stays at its first occurrence.
        text = (
            "algebra X\ndim 2\nunit 1/2 1/2\nproduct 0 0 = 1/2 -1\n"
            "product 0 1 = -1 1/0\nproduct 1 0 = 1/0 1/0\n"
        )
        with pytest.raises(DocumentError, match="zero denominator") as excinfo:
            parse_document(text)
        assert (excinfo.value.line, excinfo.value.col) == (5, 18)
        doc = parse_document(text.replace("1/0", "2/4"))
        assert doc.unit == (F(1, 2), F(1, 2))
        assert doc.products == (
            (0, 0, (F(1, 2), F(-1))), (0, 1, (F(-1), F(1, 2))), (1, 0, (F(1, 2), F(1, 2))),
        )
        with pytest.raises(DocumentError, match="malformed") as excinfo:
            parse_map_file("2\n1/2 x\nx 1/2\n")
        assert (excinfo.value.line, excinfo.value.col) == (2, 5)
        assert parse_map_file("2\n1/2 -1\n-1 1/2\n") == fa.Mat([[F(1, 2), F(-1)], [F(-1), F(1, 2)]])

    def test_perturbed_structure_constant_names_a_triple(self):
        bad = M2_TEXT.replace("product 0 1 = 0 1 0 0", "product 0 1 = 1 1 0 0")
        with pytest.raises(DocumentError, match="associativity fails at basis triple"):
            parse_algebra_document(bad)

    def test_duplicate_pair_rejected(self):
        text = "algebra X\ndim 1\nproduct 0 0 = 1\nproduct 0 0 = 1\n"
        with pytest.raises(DocumentError, match="duplicate product"):
            parse_document(text)

    def test_unknown_keyword_located(self):
        with pytest.raises(DocumentError, match="unknown keyword") as excinfo:
            parse_document("algebra X\ndim 1\nfrobnicate 1\n")
        assert excinfo.value.line == 3

    def test_missing_dim_rejected(self):
        with pytest.raises(DocumentError, match="missing 'dim'"):
            parse_document("algebra X\n")

    def test_missing_name_rejected(self):
        with pytest.raises(DocumentError, match="missing 'algebra'"):
            parse_document("dim 1\n")

    def test_out_of_range_pair_rejected(self):
        with pytest.raises(DocumentError, match="out of range"):
            parse_document("algebra X\ndim 2\nproduct 0 2 = 0 0\n")

    def test_vector_length_enforced(self):
        with pytest.raises(DocumentError, match="exactly 2 rationals"):
            parse_document("algebra X\ndim 2\nunit 1\n")

    def test_product_of_the_wrong_length_is_a_document_error(self):
        for coeffs in ((F(1), F(1)), (F(1), F(0)), ()):
            doc = AlgebraDocument("X", 1, None, None, ((0, 0, coeffs),))
            with pytest.raises(DocumentError, match="exactly 1 rationals"):
                doc.to_algebra()

    def test_omitted_pairs_default_to_zero(self):
        a = parse_algebra_document("algebra Z\ndim 2\n")
        x = a.element([1, 2])
        assert (x * x).is_zero()


# every builder: the corpus, the non-unital algebras, adjoin_unit and a
# tensor product with a group algebra
_BUILT = (
    *corpus(), *non_unital_algebras(),
    ("T3_unital", fa.adjoin_unit(fa.build_upper_triangular(3))),
    ("M2tQS3", fa.tensor_product(fa.build_matrix_algebra(2),
                                fa.build_group_algebra(fa.symmetric_group(3)))),
)


class TestCanonicalSerialization:
    def test_round_trip_is_byte_identical_after_canonicalization(self):
        messy = (
            "# comment\n\nproduct lines out of order follow\n".replace(
                "product lines out of order follow", ""
            )
            + "algebra M2\ndim 4\nlabels e11 e12 e21 e22\nunit 1 0 0 1\n"
            + "product 3 3 = 0 0 0 1\nproduct 0 0 = 1 0 0 0\n"
            + "product 0 1 = 0 1 0 0\nproduct 1 2 = 1 0 0 0\n"
            + "product 1 3 = 0 1 0 0\nproduct 2 0 = 0 0 1 0\n"
            + "product 2 1 = 0 0 0 1\nproduct 3 2 = 0 0 1 0\n"
        )
        once = serialize_document(parse_document(messy))
        twice = serialize_document(parse_document(once))
        assert once == twice

    def test_explicit_zero_products_are_dropped(self):
        text = "algebra Z\ndim 2\nproduct 0 0 = 0 0\n"
        doc = parse_document(text)
        assert "product" not in serialize_document(doc)

    def test_fingerprint_tracks_content_not_layout(self):
        doc_a = parse_document(M2_TEXT)
        reordered = M2_TEXT.replace("# the 2x2 matrix algebra on matrix units\n", "")
        doc_b = parse_document(reordered)
        assert document_fingerprint(doc_a) == document_fingerprint(doc_b)

    def test_from_algebra_round_trip(self):
        for algebra in (
            fa.build_matrix_algebra(2),
            fa.build_upper_triangular(3),
            fa.build_group_algebra(fa.symmetric_group(3)),
            fa.tensor_product(
                fa.build_matrix_algebra(2),
                fa.build_group_algebra(fa.cyclic_group(2)),
            ),
        ):
            doc = document_from_algebra("X", algebra)
            text = serialize_document(doc)
            assert parse_algebra_document(text) == algebra

    def test_rationals_serialize_exactly(self):
        a = fa.FinAlgebra([[[(0, F(-3, 4))]]])
        text = serialize_document(document_from_algebra("neg", a))
        assert "product 0 0 = -3/4" in text
        assert parse_algebra_document(text) == a

    def test_name_must_be_a_token(self):
        with pytest.raises(ValueError, match="token"):
            document_from_algebra("two words", fa.build_matrix_algebra(1))

    @pytest.mark.parametrize("name", ["a#b", "#x", ""], ids=["hash-inside", "hash-first", "empty"])
    def test_name_must_not_start_a_comment(self, name):
        with pytest.raises(ValueError, match="token"):
            document_from_algebra(name, fa.build_matrix_algebra(1))

    @pytest.mark.parametrize("label", ["a#", "a b", ""], ids=["hash", "space", "empty"])
    def test_labels_must_be_tokens(self, label):
        # each would write a labels line that does not parse
        m2 = fa.build_matrix_algebra(2)
        terms = [[m2.product_terms(i, j) for j in range(4)] for i in range(4)]
        a = fa.FinAlgebra(terms, m2.unit, ["e11", label, "e21", "e22"])
        with pytest.raises(ValueError, match=f"label must be a single non-empty token without '#', got {label!r}"):
            document_from_algebra("M2", a)

    @pytest.mark.parametrize("name, algebra", _BUILT, ids=[name for name, _ in _BUILT])
    def test_serialized_document_reads_back_as_itself(self, name, algebra):
        doc = document_from_algebra(name, algebra)
        parsed = parse_document(serialize_document(doc))
        assert (parsed.name, parsed.labels) == (name, algebra.labels)
        assert document_fingerprint(parsed) == document_fingerprint(doc)
        assert parsed.to_algebra() == algebra


class TestCayleyTables:
    def test_round_trip_s3(self):
        group = fa.symmetric_group(3)
        text = format_cayley_table(group)
        parsed = parse_cayley_table(text)
        assert parsed.cayley == group.cayley
        assert parsed.identity_index == group.identity_index

    def test_entry_count_enforced(self):
        with pytest.raises(DocumentError, match="table entries"):
            parse_cayley_table("2\n0\n0 1\n")

    def test_invalid_table_rejected(self):
        with pytest.raises(DocumentError, match="permutation"):
            parse_cayley_table("2\n0\n0 1\n0 1\n")

    def test_comments_allowed(self):
        text = "# C2\n2\n0\n0 1\n1 0\n"
        assert parse_cayley_table(text).order == 2


class TestMapFiles:
    def test_round_trip(self):
        t = fa.transpose_map(2)
        assert parse_map_file(format_map_file(t)) == t

    def test_dimension_mismatch_detected(self):
        t = fa.transpose_map(2)
        with pytest.raises(DocumentError, match="does not match"):
            parse_map_file(format_map_file(t), expected_dim=9)

    def test_entry_count_enforced(self):
        with pytest.raises(DocumentError, match="expected 4 entries"):
            parse_map_file("2\n1 0 0\n")

    def test_rational_entries(self):
        m = parse_map_file("1\n-3/4\n")
        assert m == fa.Mat([[F(-3, 4)]])


# -- parity with the regex tokenizer and the per-entry serializer ------------

_SEPARATORS = [" "] * 6 + ["  ", "\t", "\xa0", "\u2003", "\u3000", " \t "] * 2
# str.splitlines breaks lines at these as well, in both readers alike
_BREAKS = ["\x0b", "\x0c"]
_ENDS = ["\n"] * 4 + ["\r\n"] * 3 + ["\r"]
_COMMENTS = [""] * 6 + [" # note", "#product 0 0 = 1", "\t#\t1/0"]
_RATIONALS = ["0", "0", "0", "1", "1", "-1", "+1", "2/4", "-0", "0/7", "3/2", "-5/3", "2/2"]
_BAD = ["1/0", "x", "1.5", "1//2", "+", "/3", "--1", "1/-2", "=", "0/0"]


def _text(draw, lines) -> str:
    """Lines of tokens joined by drawn separators, with drawn comments,
    blank lines and line ends."""
    out = []
    for toks in lines:
        if draw(st.integers(0, 5)) == 0:
            out.append(draw(st.sampled_from(["", "   ", "# a comment", "\t"])) + draw(st.sampled_from(_ENDS)))
        text = draw(st.sampled_from(["", "", " ", "\t"]))
        for n, tok in enumerate(toks):
            if n:
                text += draw(st.sampled_from(_SEPARATORS * 10 + _BREAKS))
            text += tok
        text += draw(st.sampled_from(["", "", " ", "\xa0"])) + draw(st.sampled_from(_COMMENTS))
        out.append(text + draw(st.sampled_from(_ENDS)))
    if out and draw(st.booleans()):
        out[-1] = out[-1].rstrip("\r\n")
    return "".join(out)


@st.composite
def document_texts(draw):
    """Algebra documents of dimension 0 to 3, well-formed or with wrong token
    counts, duplicate or missing lines, out-of-range pairs and bad tokens."""
    d = draw(st.integers(0, 3))
    noisy = draw(st.booleans())
    pool = _RATIONALS * 30 + _BAD if noisy else _RATIONALS

    def count():
        return draw(st.integers(0, d + 2)) if noisy and draw(st.integers(0, 4)) == 0 else d

    def coeffs(n):
        if draw(st.integers(0, 3)) == 0:
            return [draw(st.sampled_from(["0", "-0", "0/7"])) for _ in range(n)]
        return [draw(st.sampled_from(pool)) for _ in range(n)]

    def index(k):
        if noisy and draw(st.integers(0, 9)) == 0:
            return draw(st.sampled_from([str(d), "-1", "a", "+0", "1.0"]))
        return str(k)

    header = [["algebra", "A"], ["dim", str(d)]]
    if draw(st.booleans()):
        header.append(["labels"] + [f"l{k}" for k in range(count())])
    if draw(st.booleans()):
        header.append(["unit"] + coeffs(count()))
    pairs = draw(st.permutations([(i, j) for i in range(d) for j in range(d)]))
    pairs = pairs[:draw(st.integers(0, 6))]
    if noisy and pairs and draw(st.integers(0, 3)) == 0:
        pairs.insert(draw(st.integers(0, len(pairs))), draw(st.sampled_from(pairs)))
    products = []
    for i, j in pairs:
        eq = draw(st.sampled_from(["="] * 9 + [":"])) if noisy else "="
        products.append(["product", index(i), index(j), eq] + coeffs(count()))
    lines = header + products
    if noisy:
        for _ in range(draw(st.integers(0, 2))):
            extra = draw(st.sampled_from([
                ["algebra", "B"], ["algebra"], ["algebra", "B", "C"], ["dim", "x"],
                ["dim", "-1"], ["dim", "2", "3"], ["frob", "1"], ["unit"], ["labels", "z"],
                ["product", "0"], ["dim", str(d)],
            ]))
            lines.insert(draw(st.integers(0, len(lines))), extra)
        if draw(st.integers(0, 3)) == 0:
            lines = draw(st.permutations(lines))
    else:
        lines = header + draw(st.permutations(products))
    return _text(draw, lines)


def _stream_text(draw, tokens) -> str:
    """A token stream laid out on drawn lines."""
    lines, line = [], []
    for tok in tokens:
        line.append(tok)
        if draw(st.integers(0, 3)) == 0:
            lines.append(line)
            line = []
    return _text(draw, lines + [line] if line else lines)


@st.composite
def map_texts(draw):
    d = draw(st.integers(1, 3))
    noisy = draw(st.booleans())
    head = draw(st.sampled_from([str(d)] * 6 + ["0", "-1", "x", "+" + str(d)])) if noisy else str(d)
    n = d * d + (draw(st.sampled_from([0] * 6 + [-1, 1])) if noisy else 0)
    pool = _RATIONALS * 20 + _BAD if noisy else _RATIONALS
    tokens = [head] + [draw(st.sampled_from(pool)) for _ in range(max(n, 0))]
    return _stream_text(draw, tokens), draw(st.sampled_from([None, d, d + 1]))


@st.composite
def cayley_texts(draw):
    group = draw(st.sampled_from([fa.cyclic_group(1), fa.cyclic_group(2), fa.cyclic_group(3),
                                  fa.symmetric_group(3)]))
    tokens = [str(group.order), str(group.identity_index)]
    tokens += [str(v) for row in group.cayley for v in row]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(tokens) - 1))
        change = draw(st.sampled_from(["bad", "drop", "add", "value"]))
        if change == "bad":
            tokens[at] = draw(st.sampled_from(["x", "1.5", "1/2", "", "+1", "-0"])) or "?"
        elif change == "drop":
            del tokens[at]
        elif change == "add":
            tokens.insert(at, draw(st.sampled_from(["0", "1", "7"])))
        else:
            tokens[at] = str(draw(st.integers(-1, group.order)))
    return _stream_text(draw, tokens)


def _outcome(parse, *args):
    try:
        return "ok", parse(*args)
    except DocumentError as exc:
        return "error", str(exc), exc.line, exc.col


class TestTokenizerParity:
    """The one tokenizer against the regex one it replaced: an equal result,
    or a DocumentError with the same message, line and column."""

    def test_split_skips_exactly_what_the_token_regex_skips(self):
        for code in range(0x110000):
            text = f"a{chr(code)}b"
            assert text.split() == _TOKEN_RE.findall(text), hex(code)

    @given(document_texts())
    @settings(max_examples=400, deadline=None)
    def test_documents(self, text):
        found = _outcome(parse_document, text)
        assert found == _outcome(parse_document_oracle, text), repr(text)
        if found[0] == "ok":
            doc, oracle = found[1], parse_document_oracle(text)
            # every zero token parses to one shared object
            vectors = [v for _, _, v in doc.products] + ([doc.unit] if doc.unit else [])
            assert len({id(x) for v in vectors for x in v if x == 0}) <= 1
            assert serialize_document(doc) == serialize_document_oracle(oracle)
            assert document_fingerprint(doc) == document_fingerprint_oracle(oracle)
            # the shared zero is skipped by identity, the oracle's zeros by value
            assert _outcome(doc.to_algebra) == _outcome(oracle.to_algebra)

    @given(map_texts())
    @settings(max_examples=300, deadline=None)
    def test_map_files(self, case):
        text, expected_dim = case
        found = _outcome(parse_map_file, text, expected_dim)
        assert found == _outcome(parse_map_file_oracle, text, expected_dim), repr(text)

    @given(cayley_texts())
    @settings(max_examples=300, deadline=None)
    def test_cayley_tables(self, text):
        def read(parse):
            outcome = _outcome(parse, text)
            if outcome[0] == "ok":
                g = outcome[1]
                return "ok", g.order, g.cayley, g.identity_index
            return outcome

        assert read(parse_cayley_table) == read(parse_cayley_table_oracle), repr(text)
        assert _outcome(cayley_order, text) == _outcome(cayley_order_oracle, text)

    def test_bad_token_at_every_column(self):
        text = "algebra A\ndim 3\nunit 1 0 0\nproduct 0 0 = 1 0 0\nproduct 1 1 = 0 2/4 -1\n"
        lines = text.splitlines()
        for n, line in enumerate(lines):
            toks = line.split()
            for k in range(len(toks)):
                for bad in ("1/0", "x", "-"):
                    broken = toks[:k] + [bad] + toks[k + 1:]
                    changed = "\n".join(lines[:n] + ["\t".join(broken)] + lines[n + 1:])
                    assert _outcome(parse_document, changed) == _outcome(parse_document_oracle, changed)

    def test_serialization_of_equal_but_distinct_fractions(self):
        # equal values held by distinct objects, and int entries, render as
        # the per-entry serializer renders them, zero lines dropped alike
        one, also_one, half = F(1), F(2, 2), F(1, 2)
        zeros = (F(0), F(0, 5), 0)
        doc = AlgebraDocument(
            "X", 3, (one, zeros[0], also_one), ("a", "b", "c"),
            (
                (2, 1, (half, F(1, 2), zeros[1])),
                (0, 0, zeros),
                (1, 0, (also_one, 0, -one)),
                (0, 2, (1, F(-3, 4), F(0))),
            ),
        )
        assert serialize_document(doc) == serialize_document_oracle(doc)
        assert document_fingerprint(doc) == document_fingerprint_oracle(doc)

    def test_from_algebra_documents_match(self):
        for algebra in (fa.build_matrix_algebra(3), fa.build_upper_triangular(3),
                        fa.build_group_algebra(fa.symmetric_group(3)),
                        fa.FinAlgebra([[[(0, F(-3, 4))]]])):
            doc = document_from_algebra("X", algebra)
            assert serialize_document(doc) == serialize_document_oracle(doc)

    def test_non_canonical_tokens_fingerprint_as_canonical(self):
        messy = (
            "# M2 with non-canonical tokens\r\nalgebra M2\r\ndim 4\r\n"
            "labels e11 e12 e21 e22\r\nunit +1 0 0 2/2\r\n"
            "product 3 3 = 0 0 0 +1\r\nproduct 0 0 = 1 0/5 -0 0\r\n"
            "product 0 3 = 0 0 0 0\r\n"
        )
        canonical = "algebra M2\ndim 4\nlabels e11 e12 e21 e22\nunit 1 0 0 1\n"
        canonical += "product 0 0 = 1 0 0 0\nproduct 3 3 = 0 0 0 1\n"
        assert serialize_document(parse_document(messy)) == canonical
        assert document_fingerprint(parse_document(messy)) == document_fingerprint(
            parse_document(canonical))
