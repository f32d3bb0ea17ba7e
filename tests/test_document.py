from fractions import Fraction

import pytest

import finalg as fa
from finalg.document import (
    AlgebraDocument,
    DocumentError,
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
