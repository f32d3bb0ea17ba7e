"""Batch command-line front end.

Exit status contract (documented, deterministic):

* 0 -- every verdict verified / true / witness found
* 2 -- usage error (unknown command, bad flags)
* 3 -- parse or validation error (documents, tables, maps, dimension cap)
* 4 -- theorem hypotheses not met
* 5 -- a checked property is false, with a witness in the report
* 6 -- refutation tripwire, or an internal consistency check that failed
  (must never fire on sound inputs)
* 7 -- randomized search exhausted without a definite answer

All randomized subcommands take an explicit --seed; nothing reads the
clock.  The dimension guardrail defaults to 24 and can be raised with
--max-dim or the FINALG_MAX_DIM environment variable.
"""

from __future__ import annotations

import math
import os
import sys
from pathlib import Path

import click

from . import maps, structure
from .algebras import FinAlgebra, build_matrix_algebra, build_group_algebra, build_upper_triangular
from .algebras import adjoin_unit, direct_product, tensor_product
from .document import (
    AlgebraDocument,
    DocumentError,
    cayley_order,
    document_fingerprint,
    document_from_algebra,
    parse_cayley_table,
    parse_document,
    parse_map_file,
    serialize_document,
)
from .linalg import InternalError, _echo
from .report import (
    Report,
    VERDICT_HYPOTHESES_NOT_MET,
    VERDICT_INCONCLUSIVE,
    VERDICT_OK,
    VERDICT_PROPERTY_FALSE,
    VERDICT_REFUTATION,
    emit_report,
)
from .version import __version__

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_HYPOTHESES = 4
EXIT_PROPERTY_FALSE = 5
EXIT_REFUTATION = 6
EXIT_INCONCLUSIVE = 7

EXIT_FOR_VERDICT = {
    VERDICT_OK: EXIT_OK,
    VERDICT_HYPOTHESES_NOT_MET: EXIT_HYPOTHESES,
    VERDICT_PROPERTY_FALSE: EXIT_PROPERTY_FALSE,
    VERDICT_REFUTATION: EXIT_REFUTATION,
    VERDICT_INCONCLUSIVE: EXIT_INCONCLUSIVE,
}

DEFAULT_MAX_DIM = 24
MAX_DIM_ENV = "FINALG_MAX_DIM"
# the largest --samples and --trials: click refuses more before any point is drawn
MAX_COUNT = 10_000


def _max_dim(max_dim: int | None) -> int:
    if max_dim is not None:
        return max_dim
    env = os.environ.get(MAX_DIM_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise DocumentError(f"{MAX_DIM_ENV} must be an integer, got {_echo(env)}") from None
    return DEFAULT_MAX_DIM


def _cap_check(dim: int, max_dim: int | None) -> None:
    cap = _max_dim(max_dim)
    if dim > cap:
        raise DocumentError(
            f"dimension {dim} exceeds the cap {cap}; raise --max-dim or {MAX_DIM_ENV}"
        )


def _read_text(path, what: str = "") -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DocumentError(f"cannot read {what}{path}: {exc}") from exc


def _load_document(path: str, max_dim: int | None) -> AlgebraDocument:
    """Parse the document at path and check its dimension against the cap;
    nothing is built yet."""
    doc = parse_document(_read_text(path))
    _cap_check(doc.dim, max_dim)
    return doc


def _load_algebra(path: str, max_dim: int | None) -> tuple[AlgebraDocument, FinAlgebra]:
    doc = _load_document(path, max_dim)
    return doc, doc.to_algebra()


def _load_map(spec: str, algebra: FinAlgebra):
    if spec == "transpose":
        n = math.isqrt(algebra.dim)
        if n * n != algebra.dim:
            raise DocumentError(
                "the transpose map needs a matrix-unit algebra (square dimension)"
            )
        return maps.transpose_map(n)
    return parse_map_file(_read_text(spec, "map file "), expected_dim=algebra.dim)


def _new_report(command: str, doc: AlgebraDocument | None = None) -> Report:
    rep = Report(command)
    if doc is not None:
        rep.algebra_name = doc.name
        rep.fingerprint = document_fingerprint(doc)
    return rep


# -- gen ----------------------------------------------------------------------

def _run_gen(family: str, out: str, build) -> Report:
    """Write the document of build() -> (name, algebra) to out.  Each build
    computes the dimension from its arguments and parsed inputs and checks
    it against the cap before it builds anything.  The text is serialized,
    which refuses a number over the interpreter's digit limit, before out
    is opened."""
    name, algebra = build()
    doc = document_from_algebra(name, algebra)
    Path(out).write_text(serialize_document(doc), encoding="utf-8")
    rep = _new_report("gen", doc)
    sec = rep.section("generated")
    sec.add("family", family)
    sec.add("dim", algebra.dim)
    sec.add("unital", algebra.is_unital)
    sec.add("output", str(out))
    return rep


def _check_size(n: int, dim: int, max_dim: int | None) -> None:
    if n < 1:
        raise DocumentError("matrix size must be at least 1")
    _cap_check(dim, max_dim)


# -- analyze -------------------------------------------------------------------

def _run_analyze(path: str, max_dim: int | None) -> Report:
    doc, algebra = _load_algebra(path, max_dim)
    rep = _new_report("analyze", doc)
    info = rep.section("algebra")
    info.add("dim", algebra.dim)
    info.add("unital", algebra.is_unital)

    simplicity = structure.is_commutator_simple(algebra)
    sec = rep.section("commutator")
    products = algebra.derived(structure.product_span)
    sec.add("dim-products", products.dim)
    sec.add("dim-commutators", simplicity.commutators.dim)
    sec.add("commutator-simple", bool(simplicity))
    if not simplicity:
        sec.add("witness-ideal-dim", simplicity.witness.ideal.dim)
        sec.add("witness-ideal-basis", simplicity.witness.ideal)
        sec.add("witness-certificate", simplicity.witness.certificate)

    rad = structure.radical(algebra)
    sec = rep.section("radical")
    sec.add("dim-radical", rad.dim)
    sec.add("semiprime", rad.dim == 0)

    basis = structure.trace_functional_space(algebra)
    forms = structure._gram_forms(algebra, basis)
    common = structure._common_gram_radical(algebra, forms)
    sec = rep.section("trace")
    sec.add("trace-space-dim", len(basis))
    nondeg = [structure._nondegenerate(algebra, form) for form in forms]
    sec.add("basis-functionals-nondegenerate", nondeg)
    sec.add("definite-negative", common.dim > 0)
    if common.dim > 0:
        sec.add("degenerate-witness", list(common.basis[0]))
    else:
        witness = next((tf for tf, ok in zip(basis, nondeg) if ok), None)
        sec.add(
            "nondegenerate-witness",
            None if witness is None else list(witness.coeffs),
        )

    rep.verdict = VERDICT_OK if simplicity else VERDICT_PROPERTY_FALSE
    return rep


def _run_derivations(path: str, max_dim: int | None) -> Report:
    doc, algebra = _load_algebra(path, max_dim)
    rep = _new_report("derivations", doc)
    sec = rep.section("map-spaces")
    sec.add("inner-derivations", maps.inner_derivation_space(algebra).dim)
    sec.add("derivations", maps.derivation_space(algebra).dim)
    sec.add("jordan-derivations", maps.jordan_derivation_space(algebra).dim)
    sec.add("criterion-maps", maps.derivation_criterion_space(algebra).dim)
    return rep


def _verdict_from_verification(rep: Report, result: maps.VerificationReport) -> None:
    sec = rep.section("checks")
    for check in result.checks:
        sec.add(check.name, check.passed)
        if check.detail:
            sec.add(f"{check.name}-detail", check.detail)
    sec = rep.section("spaces")
    for name, dim in result.spaces.items():
        sec.add(name, dim)
    if result.verdict == maps.VERDICT_VERIFIED:
        rep.verdict = VERDICT_OK
    elif result.verdict == maps.VERDICT_HYPOTHESES_NOT_MET:
        rep.verdict = VERDICT_HYPOTHESES_NOT_MET
    else:
        rep.verdict = VERDICT_REFUTATION
        rep.section("refutation").add("witness", result.witness)


def _run_verify_derivation_criterion(path: str, max_dim: int | None) -> Report:
    doc, algebra = _load_algebra(path, max_dim)
    rep = _new_report("verify-derivation-criterion", doc)
    _verdict_from_verification(rep, maps.verify_derivation_criterion(algebra))
    return rep


def _run_verify_jordan_criterion(path: str, spec: str, max_dim: int | None) -> Report:
    doc, algebra = _load_algebra(path, max_dim)
    t = _load_map(spec, algebra)
    rep = _new_report("verify-jordan-criterion", doc)
    rep.section("map").add("map", spec)
    _verdict_from_verification(rep, maps.verify_jordan_criterion(algebra, t))
    return rep


def _run_local_test(
    path: str, spec: str, kind: str, seed: int, samples: int, trials: int, max_dim: int | None
) -> Report:
    doc, algebra = _load_algebra(path, max_dim)
    t = _load_map(spec, algebra)
    rep = _new_report("local-test", doc)
    rep.seeds = {"seed": seed, "samples": samples}
    rep.caveats.append(maps.LOCAL_TEST_CAVEAT)
    if kind == "derivation":
        result = maps.local_derivation_test(algebra, t, seed, samples)
        sec = rep.section("local-derivation")
        sec.add("passed", result.passed)
        sec.add("points-tested", result.points_tested)
        sec.add("counterexample", result.counterexample)
        rep.verdict = VERDICT_OK if result.passed else VERDICT_PROPERTY_FALSE
        return rep
    rep.seeds["trials"] = trials
    outcomes = maps.local_inner_automorphism_test(algebra, t, seed, samples, trials)
    sec = rep.section("local-inner-automorphism")
    statuses = set()
    for sample in outcomes:
        statuses.add(sample.status)
        sec.add(
            sample.label,
            {"point": sample.point, "status": sample.status, "witness": sample.witness},
        )
    if "infeasible" in statuses:
        rep.verdict = VERDICT_PROPERTY_FALSE
    elif "inconclusive" in statuses:
        rep.verdict = VERDICT_INCONCLUSIVE
    else:
        rep.verdict = VERDICT_OK
    return rep


def _run_trace(path: str, seed: int, trials: int, max_dim: int | None) -> Report:
    doc, algebra = _load_algebra(path, max_dim)
    rep = _new_report("trace", doc)
    rep.seeds = {"seed": seed, "trials": trials}
    result = structure.has_nondegenerate_trace(algebra, seed, trials)
    sec = rep.section("trace")
    sec.add("trace-space-dim", result.space_dim)
    sec.add("found", result.found)
    sec.add("definite-negative", result.definite_negative)
    sec.add("trials-used", result.trials_used)
    if result.functional is not None:
        sec.add("functional-coeffs", list(result.functional.coeffs))
        sec.add("functional-domain-pivots", list(result.functional.domain.pivots))
    if result.degenerate_witness is not None:
        sec.add("degenerate-witness", list(result.degenerate_witness))
    if result.found:
        rep.verdict = VERDICT_OK
    elif result.definite_negative:
        rep.verdict = VERDICT_PROPERTY_FALSE
    else:
        rep.verdict = VERDICT_INCONCLUSIVE
    return rep


# -- click wiring ---------------------------------------------------------------

def _finish(handler, fmt: str, *args) -> None:
    """Run handler(*args), print its Report and exit with its verdict's status."""
    try:
        rep = handler(*args)
    except (InternalError, RuntimeError) as exc:
        # an internal consistency check failed: a program fault, not bad input
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_REFUTATION)
    except (DocumentError, OSError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_PARSE)
    click.echo(emit_report(rep, fmt), nl=False)
    sys.exit(EXIT_FOR_VERDICT[rep.verdict])


def _nonempty(ctx, param, value):
    """An empty file name is a usage error (click.Path accepts it)."""
    if value == "":
        raise click.BadParameter("must not be empty", ctx, param)
    return value


_FILE = {"type": click.Path(dir_okay=False), "callback": _nonempty}


def _max_dim_option(f):
    return click.option(
        "--max-dim", type=int, default=None,
        help=f"Override the dimension cap (default {DEFAULT_MAX_DIM}, env {MAX_DIM_ENV}).",
    )(f)


def _report_options(f):
    f = _max_dim_option(f)
    return click.option(
        "--format", "fmt", type=click.Choice(["text", "structured"]), default="text",
        help="Report rendering.",
    )(f)


def _document_command(name: str):
    """A main command whose argument is the algebra document PATH."""
    return lambda f: main.command(name)(click.argument("path", **_FILE)(f))


@click.group()
@click.version_option(__version__, prog_name="finalg")
def main():
    """Exact analysis of finite-dimensional associative algebras."""


@main.group()
def gen():
    """Write an algebra document for one of the built-in families."""


def _gen_common(f):
    f = click.option("-o", "--out", required=True, **_FILE)(f)
    f = _max_dim_option(f)
    return f


@gen.command("matrix")
@click.option("--n", type=int, required=True)
@_gen_common
def gen_matrix(n, out, max_dim):
    """Full matrix algebra M_n (dimension n^2)."""
    def build():
        _check_size(n, n * n, max_dim)
        return f"M{n}", build_matrix_algebra(n)
    _finish(_run_gen, "text", "matrix", out, build)


@gen.command("triangular")
@click.option("--n", type=int, required=True)
@_gen_common
def gen_triangular(n, out, max_dim):
    """Upper-triangular n x n matrices (dimension n(n+1)/2)."""
    def build():
        _check_size(n, n * (n + 1) // 2, max_dim)
        return f"T{n}", build_upper_triangular(n)
    _finish(_run_gen, "text", "triangular", out, build)


@gen.command("group")
@click.option("--cayley", required=True, **_FILE)
@click.option("--name", default=None, help="Algebra name (default QG<order>).")
@_gen_common
def gen_group(cayley, name, out, max_dim):
    """Rational group algebra from a Cayley table file."""
    def build():
        text = _read_text(cayley, "Cayley table ")
        _cap_check(cayley_order(text), max_dim)
        group = parse_cayley_table(text)
        return name or f"QG{group.order}", build_group_algebra(group)
    _finish(_run_gen, "text", "group", out, build)


@gen.command("direct")
@click.argument("a", **_FILE)
@click.argument("b", **_FILE)
@_gen_common
def gen_direct(a, b, out, max_dim):
    """Direct product of two algebra documents."""
    def build():
        left, right = _load_document(a, max_dim), _load_document(b, max_dim)
        _cap_check(left.dim + right.dim, max_dim)
        return (f"{left.name}_times_{right.name}",
                direct_product(left.to_algebra(), right.to_algebra()))
    _finish(_run_gen, "text", "direct", out, build)


@gen.command("tensor")
@click.argument("a", **_FILE)
@click.argument("b", **_FILE)
@_gen_common
def gen_tensor(a, b, out, max_dim):
    """Tensor product of two algebra documents."""
    def build():
        left, right = _load_document(a, max_dim), _load_document(b, max_dim)
        _cap_check(left.dim * right.dim, max_dim)
        return (f"{left.name}_tensor_{right.name}",
                tensor_product(left.to_algebra(), right.to_algebra()))
    _finish(_run_gen, "text", "tensor", out, build)


@gen.command("adjoin-unit")
@click.argument("a", **_FILE)
@_gen_common
def gen_adjoin_unit(a, out, max_dim):
    """Adjoin a fresh unit to an algebra document."""
    def build():
        base = _load_document(a, max_dim)
        _cap_check(base.dim + 1, max_dim)
        return f"{base.name}_unital", adjoin_unit(base.to_algebra())
    _finish(_run_gen, "text", "adjoin-unit", out, build)


@_document_command("analyze")
@_report_options
def analyze(path, fmt, max_dim):
    """Commutator structure, radical, and trace facts of an algebra."""
    _finish(_run_analyze, fmt, path, max_dim)


@_document_command("derivations")
@_report_options
def derivations(path, fmt, max_dim):
    """Dimensions of the four derivation-type map spaces."""
    _finish(_run_derivations, fmt, path, max_dim)


@_document_command("verify-derivation-criterion")
@_report_options
def verify_derivation_criterion_cmd(path, fmt, max_dim):
    """Check that maps with D(x)x, D(x)x^2 in [A,A] are exactly the derivations."""
    _finish(_run_verify_derivation_criterion, fmt, path, max_dim)


@_document_command("verify-jordan-criterion")
@click.option("--map", "map_spec", required=True, callback=_nonempty,
              help="'transpose' or a map file (dim then dim^2 rationals row-major).")
@_report_options
def verify_jordan_criterion_cmd(path, map_spec, fmt, max_dim):
    """Check the cubic criterion: T(1)=1 and T(x)^3 - x^3 in [A,A] force a
    Jordan homomorphism."""
    _finish(_run_verify_jordan_criterion, fmt, path, map_spec, max_dim)


@_document_command("local-test")
@click.option("--map", "map_spec", required=True, callback=_nonempty)
@click.option("--kind", type=click.Choice(["derivation", "inner-auto"]), required=True)
@click.option("--seed", type=int, required=True)
@click.option("--samples", type=click.IntRange(max=MAX_COUNT), required=True)
@click.option("--trials", type=click.IntRange(max=MAX_COUNT), default=20,
              help="Invertibility trials per point (inner-auto only).")
@_report_options
def local_test(path, map_spec, kind, seed, samples, trials, fmt, max_dim):
    """Sampling tests of local-derivation / local-inner-automorphism behavior."""
    _finish(_run_local_test, fmt, path, map_spec, kind, seed, samples, trials, max_dim)


@_document_command("trace")
@click.option("--seed", type=int, required=True)
@click.option("--trials", type=click.IntRange(max=MAX_COUNT), default=50)
@_report_options
def trace(path, seed, trials, fmt, max_dim):
    """Search for a nondegenerate trace functional on A^2."""
    _finish(_run_trace, fmt, path, seed, trials, max_dim)


if __name__ == "__main__":
    main()
