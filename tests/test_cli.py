import errno
import json
import os
import sys

import pytest
from click.testing import CliRunner

import finalg as fa
from finalg.cli import (
    EXIT_HYPOTHESES,
    EXIT_INCONCLUSIVE,
    EXIT_PARSE,
    EXIT_PROPERTY_FALSE,
    EXIT_REFUTATION,
    EXIT_USAGE,
    main,
)
from finalg.document import format_cayley_table, format_map_file, parse_algebra_document


def invoke(*args, env=None):
    return CliRunner().invoke(main, list(args), env=env, catch_exceptions=False)


@pytest.fixture()
def workdir(tmp_path):
    runner = CliRunner()

    def cli(*args, env=None):
        return runner.invoke(main, [str(a) for a in args], env=env, catch_exceptions=False)

    def gen(*args):
        result = cli(*args)
        assert result.exit_code == 0, result.output
        return result

    gen("gen", "matrix", "--n", "2", "-o", tmp_path / "m2.alg")
    gen("gen", "matrix", "--n", "3", "-o", tmp_path / "m3.alg")
    gen("gen", "triangular", "--n", "2", "-o", tmp_path / "t2.alg")
    (tmp_path / "s3.tbl").write_text(format_cayley_table(fa.symmetric_group(3)))
    gen("gen", "group", "--cayley", tmp_path / "s3.tbl", "--name", "QS3",
        "-o", tmp_path / "qs3.alg")
    return tmp_path, cli


class TestGenerators:
    def test_gen_matches_in_memory_constructors(self, tmp_path):
        runner = CliRunner()
        qc2 = tmp_path / "qc2.alg"
        (tmp_path / "c2.tbl").write_text(format_cayley_table(fa.cyclic_group(2)))
        cases = []
        for n in (1, 2, 3):
            out = tmp_path / f"m{n}.alg"
            runner.invoke(main, ["gen", "matrix", "--n", str(n), "-o", str(out)])
            cases.append((out, fa.build_matrix_algebra(n)))
            out = tmp_path / f"t{n}.alg"
            runner.invoke(main, ["gen", "triangular", "--n", str(n), "-o", str(out)])
            cases.append((out, fa.build_upper_triangular(n)))
        runner.invoke(
            main, ["gen", "group", "--cayley", str(tmp_path / "c2.tbl"), "-o", str(qc2)]
        )
        cases.append((qc2, fa.build_group_algebra(fa.cyclic_group(2))))
        m2 = tmp_path / "m2.alg"
        for family, expected in [
            ("direct", fa.direct_product(cases[2][1], fa.build_group_algebra(fa.cyclic_group(2)))),
            ("tensor", fa.tensor_product(cases[2][1], fa.build_group_algebra(fa.cyclic_group(2)))),
        ]:
            out = tmp_path / f"{family}.alg"
            result = runner.invoke(main, ["gen", family, str(m2), str(qc2), "-o", str(out)])
            assert result.exit_code == 0, result.output
            cases.append((out, expected))
        out = tmp_path / "t2u.alg"
        result = runner.invoke(
            main, ["gen", "adjoin-unit", str(tmp_path / "t2.alg"), "-o", str(out)]
        )
        assert result.exit_code == 0
        cases.append((out, fa.adjoin_unit(fa.build_upper_triangular(2))))
        for path, expected in cases:
            assert parse_algebra_document(path.read_text()) == expected

    @pytest.mark.parametrize("family, args", [
        ("matrix", ["--n", "5"]),
        ("triangular", ["--n", "7"]),
        ("group", ["--cayley", "s5.tbl"]),
        ("direct", ["m4.alg", "t3.alg"]),
        ("tensor", ["m2.alg", "t3.alg"]),
        ("adjoin-unit", ["m4.alg"]),
    ])
    def test_cap_is_checked_before_anything_is_built(self, family, args, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "s5.tbl").write_text(format_cayley_table(fa.symmetric_group(5)))
        for name, algebra in (
            ("m2", fa.build_matrix_algebra(2)),
            ("m4", fa.build_matrix_algebra(4)),
            ("t3", fa.build_upper_triangular(3)),
        ):
            doc = fa.document_from_algebra(name, algebra)
            (tmp_path / f"{name}.alg").write_text(fa.serialize_document(doc))

        def refuse(*args):
            raise AssertionError("an algebra was built before the cap check")

        for builder in ("build_matrix_algebra", "build_upper_triangular", "build_group_algebra",
                        "direct_product", "tensor_product", "adjoin_unit"):
            monkeypatch.setattr(f"finalg.cli.{builder}", refuse)
        monkeypatch.setattr(fa.AlgebraDocument, "to_algebra", refuse)
        result = CliRunner().invoke(
            main, ["gen", family, *args, "-o", "out.alg", "--max-dim", "16"], catch_exceptions=False
        )
        assert result.exit_code == EXIT_PARSE
        assert "exceeds the cap" in result.output
        assert not (tmp_path / "out.alg").exists()

    def test_group_order_is_capped_before_the_table_is_read(self, tmp_path):
        table = tmp_path / "big.tbl"
        table.write_text("25 0\n0 1 x\n")
        result = CliRunner().invoke(
            main, ["gen", "group", "--cayley", str(table), "-o", str(tmp_path / "out.alg")]
        )
        assert result.exit_code == EXIT_PARSE
        assert "dimension 25 exceeds the cap 24" in result.output

    def test_input_documents_are_capped(self, tmp_path):
        m3 = tmp_path / "m3.alg"
        doc = fa.document_from_algebra("M3", fa.build_matrix_algebra(3))
        m3.write_text(fa.serialize_document(doc))
        for args in (["direct", m3, m3], ["tensor", m3, m3], ["adjoin-unit", m3]):
            result = CliRunner().invoke(
                main, ["gen", *map(str, args), "-o", str(tmp_path / "out.alg"), "--max-dim", "8"]
            )
            assert result.exit_code == EXIT_PARSE
            assert "dimension 9 exceeds the cap 8" in result.output

    @pytest.mark.parametrize("name", ["a#b", "#x", "two words"])
    def test_a_name_that_would_not_read_back_is_refused(self, name, tmp_path):
        # '#' starts a comment, so "a#b" would read back as an algebra named
        # "a" and "#x" as a document with no name: nothing is written
        (tmp_path / "c2.tbl").write_text(format_cayley_table(fa.cyclic_group(2)))
        out = tmp_path / "ab.alg"
        result = CliRunner().invoke(
            main, ["gen", "group", "--cayley", str(tmp_path / "c2.tbl"), "--name", name,
                   "-o", str(out)]
        )
        assert result.exit_code == EXIT_PARSE
        assert result.output == (
            f"error: algebra name must be a single non-empty token without '#', got {name!r}\n"
        )
        assert not out.exists()

    def test_nonpositive_size_is_rejected_before_the_cap(self, tmp_path):
        out = str(tmp_path / "x.alg")
        result = CliRunner().invoke(main, ["gen", "matrix", "--n", "-5", "-o", out])
        assert result.exit_code == EXIT_PARSE
        assert "matrix size must be at least 1" in result.output

    def test_dimension_cap(self, tmp_path):
        runner = CliRunner()
        out = tmp_path / "m5.alg"
        result = runner.invoke(main, ["gen", "matrix", "--n", "5", "-o", str(out)])
        assert result.exit_code == EXIT_PARSE
        result = runner.invoke(
            main, ["gen", "matrix", "--n", "5", "-o", str(out), "--max-dim", "30"]
        )
        assert result.exit_code == 0
        result = runner.invoke(
            main,
            ["gen", "matrix", "--n", "5", "-o", str(out)],
            env={"FINALG_MAX_DIM": "30"},
        )
        assert result.exit_code == 0

    def test_derivations_above_the_cap_need_max_dim(self, tmp_path):
        runner = CliRunner()
        m5 = str(tmp_path / "m5.alg")
        result = runner.invoke(main, ["gen", "matrix", "--n", "5", "-o", m5, "--max-dim", "25"])
        assert result.exit_code == 0
        result = runner.invoke(main, ["derivations", m5])
        assert result.exit_code == EXIT_PARSE
        assert "dimension 25 exceeds the cap 24" in result.output
        result = runner.invoke(main, ["derivations", m5, "--max-dim", "25"])
        assert result.exit_code == 0, result.output
        for name in ("inner-derivations", "derivations", "jordan-derivations", "criterion-maps"):
            assert f"\n{name} = 24\n" in result.output


class TestAnalyze:
    def test_m2_report_facts(self, workdir):
        tmp_path, cli = workdir
        result = cli("analyze", tmp_path / "m2.alg")
        assert result.exit_code == 0
        assert "commutator-simple = true" in result.output
        assert "semiprime = true" in result.output
        assert "dim-commutators = 3" in result.output

    def test_t2_property_false_with_witness(self, workdir):
        tmp_path, cli = workdir
        result = cli("analyze", tmp_path / "t2.alg")
        assert result.exit_code == EXIT_PROPERTY_FALSE
        assert "commutator-simple = false" in result.output
        assert "witness-ideal-dim = 1" in result.output

    def test_byte_identical_reruns(self, workdir):
        tmp_path, cli = workdir
        first = cli("analyze", tmp_path / "qs3.alg", "--format", "structured")
        second = cli("analyze", tmp_path / "qs3.alg", "--format", "structured")
        assert first.output == second.output

    def test_structured_output_parses_back(self, workdir):
        tmp_path, cli = workdir
        result = cli("analyze", tmp_path / "m2.alg", "--format", "structured")
        payload = json.loads(result.output)
        assert payload["verdict"] == "ok"
        assert payload["command"] == "analyze"
        sections = {sec["name"]: dict(map(tuple, sec["entries"])) for sec in payload["sections"]}
        assert sections["commutator"]["dim-commutators"] == 3
        assert sections["trace"]["trace-space-dim"] == 1

    def test_fingerprint_is_stable_across_regeneration(self, workdir, tmp_path):
        tmp_path, cli = workdir
        again = tmp_path / "m2-again.alg"
        cli("gen", "matrix", "--n", "2", "-o", again)
        a = cli("analyze", tmp_path / "m2.alg", "--format", "structured")
        b = cli("analyze", again, "--format", "structured")
        assert json.loads(a.output)["fingerprint"] == json.loads(b.output)["fingerprint"]


class TestVerifiers:
    def test_derivation_criterion_on_qs3(self, workdir):
        tmp_path, cli = workdir
        result = cli("verify-derivation-criterion", tmp_path / "qs3.alg")
        assert result.exit_code == 0
        assert "derivations = 3" in result.output
        assert "criterion-maps = 3" in result.output
        assert "verdict: ok" in result.output

    def test_derivation_criterion_on_t2(self, workdir):
        tmp_path, cli = workdir
        result = cli("verify-derivation-criterion", tmp_path / "t2.alg")
        assert result.exit_code == EXIT_HYPOTHESES
        assert "semiprime = false" in result.output

    def test_jordan_criterion_transpose(self, workdir):
        tmp_path, cli = workdir
        result = cli("verify-jordan-criterion", tmp_path / "m3.alg", "--map", "transpose")
        assert result.exit_code == 0
        assert "antihomomorphism = true" in result.output
        assert "homomorphism = false" in result.output

    def test_jordan_criterion_doubling_map(self, workdir):
        tmp_path, cli = workdir
        doubling = fa.scaled_identity_map(4, 2)
        map_path = tmp_path / "double.map"
        map_path.write_text(format_map_file(doubling))
        result = cli("verify-jordan-criterion", tmp_path / "m2.alg", "--map", map_path)
        assert result.exit_code == EXIT_HYPOTHESES
        assert "unit-preserved = false" in result.output

    def test_transpose_rejected_on_non_square_dimension(self, workdir):
        tmp_path, cli = workdir
        result = cli("verify-jordan-criterion", tmp_path / "t2.alg", "--map", "transpose")
        assert result.exit_code == EXIT_PARSE


class TestLocalTests:
    def test_identity_map_is_not_a_local_derivation(self, workdir):
        tmp_path, cli = workdir
        map_path = tmp_path / "id.map"
        map_path.write_text(format_map_file(fa.Mat.identity(4)))
        result = cli(
            "local-test", tmp_path / "m2.alg", "--map", map_path,
            "--kind", "derivation", "--seed", "7", "--samples", "5",
        )
        assert result.exit_code == EXIT_PROPERTY_FALSE
        assert "counterexample" in result.output
        assert "caveat" in result.output

    def test_actual_derivation_passes(self, workdir):
        tmp_path, cli = workdir
        a = fa.build_matrix_algebra(2)
        d = fa.derivation_space(a).basis_maps()[0]
        map_path = tmp_path / "der.map"
        map_path.write_text(format_map_file(d))
        result = cli(
            "local-test", tmp_path / "m2.alg", "--map", map_path,
            "--kind", "derivation", "--seed", "7", "--samples", "10",
        )
        assert result.exit_code == 0
        assert "passed = true" in result.output

    def test_inner_auto_transpose_all_witnesses(self, workdir):
        tmp_path, cli = workdir
        map_path = tmp_path / "tr.map"
        map_path.write_text(format_map_file(fa.transpose_map(2)))
        result = cli(
            "local-test", tmp_path / "m2.alg", "--map", map_path,
            "--kind", "inner-auto", "--seed", "7", "--samples", "3",
        )
        assert result.exit_code == 0
        assert '"status": "witness"' in result.output

    def test_inner_auto_doubling_infeasible(self, workdir):
        tmp_path, cli = workdir
        map_path = tmp_path / "double.map"
        map_path.write_text(format_map_file(fa.scaled_identity_map(4, 2)))
        result = cli(
            "local-test", tmp_path / "m2.alg", "--map", map_path,
            "--kind", "inner-auto", "--seed", "7", "--samples", "2",
        )
        assert result.exit_code == EXIT_PROPERTY_FALSE

    def test_inner_auto_zero_trials_runs_no_random_combination(self, workdir, monkeypatch):
        tmp_path, cli = workdir
        map_path = tmp_path / "tr.map"
        map_path.write_text(format_map_file(fa.transpose_map(2)))
        budgets = []
        search = fa.inner_similarity_witness

        def recording(a, x, target, rng, trials):
            budgets.append(trials)
            return search(a, x, target, rng, trials)

        monkeypatch.setattr("finalg.maps.inner_similarity_witness", recording)
        result = cli(
            "local-test", tmp_path / "m2.alg", "--map", map_path, "--kind", "inner-auto",
            "--seed", "7", "--samples", "2", "--trials", "0", "--format", "structured",
        )
        assert json.loads(result.output)["seeds"]["trials"] == 0
        assert budgets and set(budgets) == {0}

    def test_inner_auto_without_an_invertible_intertwiner_is_inconclusive(self, workdir):
        # Conjugation by the permutation matrix swaps e11 <-> e22 and
        # e12 <-> e21.  At e11 the intertwiners are spanned by e12 and e21,
        # each singular, and --trials 0 tries no combination of them.
        tmp_path, cli = workdir
        map_path = tmp_path / "swap.map"
        map_path.write_text("4\n0 0 0 1\n0 0 1 0\n0 1 0 0\n1 0 0 0\n")
        result = cli(
            "local-test", tmp_path / "m2.alg", "--map", map_path, "--kind", "inner-auto",
            "--seed", "1", "--samples", "1", "--trials", "0",
        )
        assert result.exit_code == EXIT_INCONCLUSIVE
        assert ('basis-0 = {"point": ["1", "0", "0", "0"], "status": "inconclusive", '
                '"witness": null}') in result.output.splitlines()
        assert result.output.endswith("verdict: inconclusive\n")

    def test_inner_auto_negative_trials_exits_3(self, workdir):
        tmp_path, cli = workdir
        result = cli(
            "local-test", tmp_path / "m2.alg", "--map", "transpose", "--kind", "inner-auto",
            "--seed", "7", "--samples", "2", "--trials", "-3",
        )
        assert result.exit_code == EXIT_PARSE
        assert "trials must be nonnegative" in result.output

    def test_seeded_reruns_are_byte_identical(self, workdir):
        tmp_path, cli = workdir
        map_path = tmp_path / "tr.map"
        map_path.write_text(format_map_file(fa.transpose_map(2)))
        args = (
            "local-test", tmp_path / "m2.alg", "--map", map_path,
            "--kind", "inner-auto", "--seed", "13", "--samples", "4",
            "--format", "structured",
        )
        assert cli(*args).output == cli(*args).output


class TestTraceCommand:
    def test_m2_finds_a_witness(self, workdir):
        tmp_path, cli = workdir
        result = cli("trace", tmp_path / "m2.alg", "--seed", "5")
        assert result.exit_code == 0
        assert "found = true" in result.output

    def test_t2_definite_negative(self, workdir):
        tmp_path, cli = workdir
        result = cli("trace", tmp_path / "t2.alg", "--seed", "5")
        assert result.exit_code == EXIT_PROPERTY_FALSE
        assert "definite-negative = true" in result.output

    def test_dimension_zero_finds_the_zero_functional(self, tmp_path):
        # A^2 = 0, so the zero functional has a 0 x 0 Gram matrix, which is
        # nondegenerate: nothing is left to search and the verdict is ok.
        doc = tmp_path / "zero.alg"
        doc.write_text("algebra Z\ndim 0\n")
        result = invoke("trace", str(doc), "--seed", "1", "--format", "structured")
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["verdict"] == "ok"
        sections = {sec["name"]: dict(map(tuple, sec["entries"])) for sec in payload["sections"]}
        assert sections["trace"] == {
            "trace-space-dim": 0,
            "found": True,
            "definite-negative": False,
            "trials-used": 0,
            "functional-coeffs": [],
            "functional-domain-pivots": [],
        }

    def test_an_exhausted_search_is_inconclusive(self, tmp_path):
        # On Q x Q both basis functionals are degenerate and no common
        # radical proves every trace degenerate; the one trial draws a zero
        # weight, so the search ends with no answer.
        q = tmp_path / "q.alg"
        q.write_text("algebra Q\ndim 1\nunit 1\nproduct 0 0 = 1\n")
        qq = tmp_path / "qq.alg"
        assert invoke("gen", "direct", str(q), str(q), "-o", str(qq)).exit_code == 0
        result = invoke("trace", str(qq), "--seed", "17", "--trials", "1")
        assert result.exit_code == EXIT_INCONCLUSIVE
        lines = result.output.splitlines()
        for line in ("trace-space-dim = 2", "found = false", "definite-negative = false",
                     "trials-used = 1", "verdict: inconclusive"):
            assert line in lines

    def test_zero_trials_exits_3(self, workdir):
        tmp_path, cli = workdir
        result = cli("trace", tmp_path / "m2.alg", "--seed", "1", "--trials", "0")
        assert result.exit_code == EXIT_PARSE
        assert "trials must be at least 1" in result.output


class TestUsageAndErrors:
    def test_unknown_cli_command_exits_2(self):
        result = CliRunner().invoke(main, ["frobnicate"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("args", [
        ["analyze", ""],
        ["derivations", ""],
        ["verify-derivation-criterion", ""],
        ["verify-jordan-criterion", "", "--map", "transpose"],
        ["verify-jordan-criterion", "m2.alg", "--map", ""],
        ["local-test", "", "--map", "transpose", "--kind", "derivation",
         "--seed", "1", "--samples", "1"],
        ["local-test", "m2.alg", "--map", "", "--kind", "derivation",
         "--seed", "1", "--samples", "1"],
        ["trace", "", "--seed", "1"],
        ["gen", "matrix", "--n", "2", "-o", ""],
        ["gen", "triangular", "--n", "2", "-o", ""],
        ["gen", "group", "--cayley", "c2.tbl", "-o", ""],
        ["gen", "direct", "", "m2.alg", "-o", "out.alg"],
        ["gen", "direct", "m2.alg", "", "-o", "out.alg"],
        ["gen", "direct", "m2.alg", "m2.alg", "-o", ""],
        ["gen", "tensor", "", "m2.alg", "-o", "out.alg"],
        ["gen", "tensor", "m2.alg", "", "-o", "out.alg"],
        ["gen", "tensor", "m2.alg", "m2.alg", "-o", ""],
        ["gen", "adjoin-unit", "", "-o", "out.alg"],
        ["gen", "adjoin-unit", "m2.alg", "-o", ""],
        ["gen", "group", "--cayley", "", "-o", "out.alg"],
    ])
    def test_empty_file_name_is_a_usage_error(self, args, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c2.tbl").write_text(format_cayley_table(fa.cyclic_group(2)))
        doc = fa.document_from_algebra("M2", fa.build_matrix_algebra(2))
        (tmp_path / "m2.alg").write_text(fa.serialize_document(doc))
        result = CliRunner().invoke(main, args)
        assert result.exit_code == EXIT_USAGE, result.output
        assert "must not be empty" in result.output
        assert not (tmp_path / "out.alg").exists()

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.alg"
        bad.write_text("algebra X\ndim 1\nproduct 0 0 = 1/0\n")
        result = CliRunner().invoke(main, ["analyze", str(bad)])
        assert result.exit_code == EXIT_PARSE

    def test_a_huge_token_is_echoed_bounded(self, tmp_path):
        """A document that is one 3 000 000-character token exits 3 with a
        short message that still names line 1, column 1."""
        doc = tmp_path / "huge.alg"
        doc.write_text("x" * 3_000_000)
        result = CliRunner().invoke(main, ["analyze", str(doc)])
        assert result.exit_code == EXIT_PARSE
        assert len(result.stderr.encode()) < 300
        assert result.stderr == (
            "error: line 1, column 1: unknown keyword " + repr("x" * 40) + "... (3000000 characters)\n"
        )

    @pytest.mark.parametrize("line, column, token", [
        ("dim {}", 5, "1" * 5000),
        ("algebra Z\ndim 1\nproduct 0 0 = {}", 15, "-" + "7" * 5000),
        ("algebra Z\ndim 1\nproduct 0 0 = {}", 15, "1/" + "3" * 5000),
    ])
    def test_integers_over_the_digit_limit_get_one_message(self, tmp_path, line, column, token):
        """A valid integer, or a rational with a part, of more digits than
        `sys.get_int_max_str_digits()` (4300 by default) is refused at its
        line and column with its digit count and the limit."""
        limit = sys.get_int_max_str_digits()
        assert limit == 4300
        doc = tmp_path / "long.alg"
        text = line.format(token)
        doc.write_text(text + "\n")
        result = CliRunner().invoke(main, ["analyze", str(doc)])
        assert result.exit_code == EXIT_PARSE
        assert len(result.stderr.encode()) < 300
        lineno = text.count("\n") + 1
        assert result.stderr == (
            f"error: line {lineno}, column {column}: number {token[:40]!r}... ({len(token)} characters) "
            f"has 5000 digits, over the limit of {limit}\n"
        )

    @pytest.mark.parametrize("part", ["numerator", "denominator"])
    def test_gen_over_the_digit_limit_gets_one_message(self, tmp_path, part):
        """A 2 200-digit coefficient loads, but its square has 4 400 digits,
        more than `sys.get_int_max_str_digits()` (4300 by default) converts:
        `gen tensor` of the document with itself exits 3 with the count and
        the limit, writes no file and leaves the limit as it was."""
        limit = sys.get_int_max_str_digits()
        assert limit == 4300
        token = "7" * 2200 if part == "numerator" else "1/" + "3" * 2200
        doc = tmp_path / "long.alg"
        doc.write_text(f"algebra Z\ndim 1\nproduct 0 0 = {token}\n")
        assert CliRunner().invoke(main, ["analyze", str(doc)]).exit_code == 0
        out = tmp_path / "t.alg"
        result = CliRunner().invoke(main, ["gen", "tensor", str(doc), str(doc), "-o", str(out)])
        assert result.exit_code == EXIT_PARSE
        assert result.stderr == f"error: a coefficient's {part} has 4400 digits, over the limit of {limit}\n"
        assert not out.exists()
        assert sys.get_int_max_str_digits() == limit

    @pytest.mark.parametrize("args", [
        ("local-test", "--map", "transpose", "--kind", "inner-auto", "--seed", "1", "--samples"),
        ("local-test", "--map", "transpose", "--kind", "derivation", "--seed", "1", "--samples", "1", "--trials"),
        ("trace", "--seed", "1", "--trials"),
    ])
    def test_counts_over_the_bound_are_usage_errors(self, tmp_path, args, monkeypatch):
        """--samples and --trials above 10 000 exit 2 before any point is drawn."""
        doc = tmp_path / "m2.alg"
        doc.write_text(fa.serialize_document(fa.document_from_algebra("M2", fa.build_matrix_algebra(2))))
        monkeypatch.setattr("finalg.maps.random_element", None)
        command, *rest = args
        result = CliRunner().invoke(main, [command, str(doc), *rest, "10001"])
        assert result.exit_code == EXIT_USAGE
        assert "10001 is not in the range x<=10000" in result.stderr

    def test_the_count_bound_itself_is_accepted(self, workdir):
        tmp_path, cli = workdir
        assert cli("trace", tmp_path / "m2.alg", "--seed", "1", "--trials", 10000).exit_code == 0

    def test_a_long_max_dim_setting_is_echoed_bounded(self, tmp_path):
        doc = tmp_path / "m2.alg"
        doc.write_text(fa.serialize_document(fa.document_from_algebra("M2", fa.build_matrix_algebra(2))))
        result = CliRunner().invoke(main, ["analyze", str(doc)], env={"FINALG_MAX_DIM": "z" * 10_000})
        assert result.exit_code == EXIT_PARSE
        assert result.stderr == (
            "error: FINALG_MAX_DIM must be an integer, got " + repr("z" * 40) + "... (10000 characters)\n"
        )

    def test_missing_file_exit_code(self, tmp_path):
        result = CliRunner().invoke(main, ["analyze", str(tmp_path / "nope.alg")])
        assert result.exit_code == EXIT_PARSE

    def test_a_file_error_names_the_file_once(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        result = CliRunner().invoke(main, ["analyze", "nope.alg"])
        assert (result.exit_code, result.stderr) == (EXIT_PARSE, "error: 'nope.alg': No such file or directory\n")

    def test_a_failed_write_that_names_no_file_is_a_parse_error(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)

        def full(self, *args, **kwargs):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr("pathlib.Path.write_text", full)
        result = CliRunner().invoke(main, ["gen", "matrix", "--n", "2", "-o", "m2.alg"])
        assert (result.exit_code, result.stderr) == (EXIT_PARSE, "error: No space left on device\n")

    @pytest.mark.parametrize("n, max_dim, shown", [
        ("1" + "0" * 2000, "24", f"({(10 ** 4000).bit_length()} bits) exceeds the cap 24"),
        ("2", "-" + "9" * 60, f"4 exceeds the cap -({(10 ** 60 - 1).bit_length()} bits)"),
        ("3" * 20, "-" + "9" * 39, f"{int('3' * 20) ** 2} exceeds the cap -{'9' * 39}"),
    ], ids=["long-dimension", "long-cap", "40-digit-cap"])
    def test_a_number_of_more_than_40_digits_in_the_cap_message_is_shown_by_its_bits(
        self, tmp_path, n, max_dim, shown
    ):
        result = CliRunner().invoke(main, ["gen", "matrix", "--n", n, "--max-dim", max_dim,
                                           "-o", str(tmp_path / "x.alg")])
        assert (result.exit_code, result.stderr) == (
            EXIT_PARSE, f"error: dimension {shown}; raise --max-dim or FINALG_MAX_DIM\n"
        )
        assert not (tmp_path / "x.alg").exists()

    def test_internal_error_exits_through_the_tripwire_code(self, tmp_path, monkeypatch):
        out = tmp_path / "m2.alg"
        CliRunner().invoke(main, ["gen", "matrix", "--n", "2", "-o", str(out)])
        # e12 spans a subspace of [A, A] that is not an ideal, so the
        # re-verification of the simplicity witness must fail.
        not_an_ideal = fa.Subspace.from_rows(4, [(0, 1, 0, 0)])
        monkeypatch.setattr("finalg.structure.largest_ideal_within", lambda a, v: not_an_ideal)
        result = CliRunner().invoke(main, ["analyze", str(out)])
        assert result.exit_code == EXIT_REFUTATION
        assert result.output.startswith("error: internal ")
        assert "verdict" not in result.output

    def test_witness_outside_the_commutators_exits_through_the_tripwire_code(self, tmp_path, monkeypatch):
        out = tmp_path / "m2.alg"
        CliRunner().invoke(main, ["gen", "matrix", "--n", "2", "-o", str(out)])
        # A itself is an ideal, but it is not inside [A, A] = sl_2
        monkeypatch.setattr("finalg.structure.largest_ideal_within", lambda a, v: fa.Subspace.full(4))
        result = CliRunner().invoke(main, ["analyze", str(out)])
        assert result.exit_code == EXIT_REFUTATION
        assert result.output == "error: internal error: witness escapes the commutator subspace\n"

    @pytest.mark.parametrize("command, option, text, message", [
        (["local-test", "m2.alg", "--kind", "derivation", "--seed", "1", "--samples", "1"], "--map",
         "# no entries\n", "empty map file"),
        (["gen", "group", "-o", "out.alg"], "--cayley", "# no order\n# no identity\n",
         "Cayley table needs an order and an identity index"),
    ])
    def test_an_input_of_comments_only_is_a_parse_error(self, command, option, text, message, tmp_path,
                                                         monkeypatch):
        monkeypatch.chdir(tmp_path)
        m2 = fa.document_from_algebra("M2", fa.build_matrix_algebra(2))
        (tmp_path / "m2.alg").write_text(fa.serialize_document(m2))
        (tmp_path / "comments").write_text(text)
        result = CliRunner().invoke(main, [*command, option, "comments"])
        assert result.exit_code == EXIT_PARSE
        assert message in result.stderr
        assert not (tmp_path / "out.alg").exists()

    def test_non_canonical_rref_exits_through_the_tripwire_code(self, tmp_path, monkeypatch):
        out = tmp_path / "m2.alg"
        CliRunner().invoke(main, ["gen", "matrix", "--n", "2", "-o", str(out)])
        int_rref = fa.linalg._int_rref

        def doubled(work, cols):
            # the right rows, but with every pivot entry 2
            reduced, pivots = int_rref(work, cols)
            return [tuple(2 * x for x in row) for row in reduced], pivots

        # the one elimination core behind every span and kernel
        monkeypatch.setattr("finalg.linalg._int_rref", doubled)
        result = CliRunner().invoke(main, ["analyze", str(out)])
        assert result.exit_code == EXIT_REFUTATION
        assert result.output.startswith("error: internal ")
        assert "verdict" not in result.output

    @pytest.mark.parametrize("criterion", ["full", "zero"])
    def test_refutation_without_a_violation_is_an_internal_error(
        self, tmp_path, monkeypatch, criterion
    ):
        # On M2 the criterion space is replaced by all maps (a map outside
        # the derivations) or by none (a derivation outside it), and the
        # pointwise check finds no violation for that map.
        out = tmp_path / "m2.alg"
        CliRunner().invoke(main, ["gen", "matrix", "--n", "2", "-o", str(out)])
        space = getattr(fa.Subspace, criterion)(16)
        monkeypatch.setattr("finalg.maps.derivation_criterion_space",
                            lambda a, **_: fa.MapSpace(a.dim, space))
        monkeypatch.setattr("finalg.maps._first_violation", lambda *args: None)
        result = CliRunner().invoke(main, ["verify-derivation-criterion", str(out)])
        assert result.exit_code == EXIT_REFUTATION
        assert result.output.startswith("error: internal ")
        assert "verdict" not in result.output

    def test_differing_spaces_without_a_separating_map_are_an_internal_error(
        self, tmp_path, monkeypatch
    ):
        out = tmp_path / "m2.alg"
        CliRunner().invoke(main, ["gen", "matrix", "--n", "2", "-o", str(out)])
        monkeypatch.setattr("finalg.maps.derivation_criterion_space",
                            lambda a, **_: fa.MapSpace.full(a.dim))
        monkeypatch.setattr(fa.MapSpace, "contains_map", lambda self, t: True)
        result = CliRunner().invoke(main, ["verify-derivation-criterion", str(out)])
        assert result.exit_code == EXIT_REFUTATION
        assert result.output.startswith("error: internal ")
        assert "verdict" not in result.output

    def test_maps_on_a_dimension_zero_algebra(self, tmp_path):
        doc = tmp_path / "zero.alg"
        doc.write_text("algebra Z\ndim 0\n")
        result = CliRunner().invoke(
            main, ["verify-jordan-criterion", str(doc), "--map", "transpose"]
        )
        assert result.exit_code == EXIT_HYPOTHESES, result.output
        result = CliRunner().invoke(
            main, ["local-test", str(doc), "--map", "transpose", "--kind", "derivation",
                   "--seed", "1", "--samples", "2"]
        )
        assert result.exit_code == 0, result.output


class TestRefutationReports:
    """A refutation is a report, not an error: exit 6 with the witness in a
    [refutation] section.  Sound inputs never reach it, so one solved space
    or check is replaced."""

    def test_derivation_criterion_refutation(self, workdir, monkeypatch):
        tmp_path, cli = workdir
        monkeypatch.setattr("finalg.maps.derivation_criterion_space",
                            lambda a, **_: fa.MapSpace.full(a.dim))
        result = cli("verify-derivation-criterion", tmp_path / "m2.alg")
        assert result.exit_code == EXIT_REFUTATION
        lines = result.output.splitlines()
        assert lines[lines.index("[refutation]") + 1:] == [
            'witness = {"direction": "criterion map is not a derivation", '
            '"lhs": ["1", "0", "0", "0"], "map": [["1", "0", "0", "0"], ["0", "0", "0", "0"], '
            '["0", "0", "0", "0"], ["0", "0", "0", "0"]], "pair": [0, 0], '
            '"rhs": ["2", "0", "0", "0"]}',
            "verdict: refutation",
        ]

    def test_jordan_criterion_refutation(self, workdir, monkeypatch):
        # the transpose on the first factor of M2 x M2 and the identity on
        # the second passes every hypothesis and is neither multiplicative
        # nor antimultiplicative, so the Jordan check decides
        tmp_path, cli = workdir
        m2xm2 = tmp_path / "m2xm2.alg"
        assert cli("gen", "direct", tmp_path / "m2.alg", tmp_path / "m2.alg",
                   "-o", m2xm2).exit_code == 0
        half = tmp_path / "half.map"
        half.write_text("8\n" + "".join(
            " ".join("1" if c == r else "0" for c in range(8)) + "\n" for r in (0, 2, 1, 3, 4, 5, 6, 7)
        ))
        monkeypatch.setattr("finalg.maps.jordan_homomorphism_check",
                            lambda a, t: fa.CheckResult(False, {"pair": (0, 1)}))
        result = cli("verify-jordan-criterion", m2xm2, "--map", half)
        assert result.exit_code == EXIT_REFUTATION
        lines = result.output.splitlines()
        for line in ("cubic-condition = true", "homomorphism = false", "antihomomorphism = false"):
            assert line in lines
        assert lines[lines.index("[refutation]") + 1:] == [
            'witness = {"direction": "cubic condition held but the Jordan identity fails", '
            '"pair": [0, 1]}',
            "verdict: refutation",
        ]


class TestSharedSubspaces:
    """Each command computes [A, A] and the trace-functional space once;
    every reader of [A, A] reaches it through `structure`, so the counter
    is installed there alone."""

    @pytest.fixture()
    def counted(self, monkeypatch):
        import finalg.structure

        calls = {"commutators": 0, "trace-space": 0}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        commutators = counting("commutators", finalg.structure.commutator_subspace)
        monkeypatch.setattr(finalg.structure, "commutator_subspace", commutators)
        monkeypatch.setattr(
            finalg.structure, "trace_functional_space",
            counting("trace-space", finalg.structure.trace_functional_space),
        )
        return calls

    def test_analyze(self, workdir, counted):
        tmp_path, cli = workdir
        assert cli("analyze", tmp_path / "m3.alg").exit_code == 0
        assert counted == {"commutators": 1, "trace-space": 1}

    def test_verify_jordan_criterion(self, workdir, counted):
        tmp_path, cli = workdir
        assert cli("verify-jordan-criterion", tmp_path / "m3.alg", "--map", "transpose").exit_code == 0
        assert counted["commutators"] == 1

    def test_verify_derivation_criterion(self, workdir, counted):
        tmp_path, cli = workdir
        assert cli("verify-derivation-criterion", tmp_path / "m3.alg").exit_code == 0
        assert counted["commutators"] == 1

    def test_trace(self, workdir, counted):
        tmp_path, cli = workdir
        assert cli("trace", tmp_path / "qs3.alg", "--seed", "5").exit_code == 0
        assert counted["trace-space"] == 1


class TestSharedTraceWork:
    """Each command builds A^2 once and each functional's Gram rows at
    most once, for the common radical and its own verdict alike; Q[S3] has
    three basis functionals and the first one is nondegenerate."""

    @pytest.fixture()
    def counted(self, monkeypatch):
        import finalg.structure

        calls = {"gram": 0, "products": 0}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(finalg.structure, "_gram_rows",
                            counting("gram", finalg.structure._gram_rows))
        monkeypatch.setattr(finalg.structure, "product_span",
                            counting("products", finalg.structure.product_span))
        return calls

    def test_analyze(self, workdir, counted):
        tmp_path, cli = workdir
        assert cli("analyze", tmp_path / "qs3.alg").exit_code == 0
        assert counted == {"gram": 3, "products": 1}

    def test_trace(self, workdir, counted):
        tmp_path, cli = workdir
        assert cli("trace", tmp_path / "qs3.alg", "--seed", "5").exit_code == 0
        assert counted == {"gram": 1, "products": 1}
