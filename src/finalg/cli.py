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
    document_fingerprint,
    document_from_algebra,
    parse_cayley_table,
    parse_document,
    parse_map_file,
    serialize_document,
)
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


class PipelineUsageError(ValueError):
    """An unknown pipeline command or malformed option set."""


def _max_dim(options: dict) -> int:
    value = options.get("max_dim")
    if value is not None:
        return int(value)
    env = os.environ.get(MAX_DIM_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise DocumentError(f"{MAX_DIM_ENV} must be an integer, got {env!r}") from None
    return DEFAULT_MAX_DIM


def _cap_check(dim: int, options: dict) -> None:
    cap = _max_dim(options)
    if dim > cap:
        raise DocumentError(
            f"dimension {dim} exceeds the cap {cap}; raise --max-dim or {MAX_DIM_ENV}"
        )


def _read_text(path, what: str = "") -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DocumentError(f"cannot read {what}{path}: {exc}") from exc


def _load_document(options: dict, key: str = "path") -> AlgebraDocument:
    """Parse the document at options[key] and check its dimension against
    the cap; nothing is built yet."""
    path = options.get(key)
    if not path:
        raise PipelineUsageError("this command needs an algebra document path")
    doc = parse_document(_read_text(path))
    _cap_check(doc.dim, options)
    return doc


def _load_algebra(options: dict) -> tuple[AlgebraDocument, FinAlgebra]:
    doc = _load_document(options)
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


def run_pipeline(command: str, options: dict) -> Report:
    """Run one batch command and return its Report.

    Commands: gen, analyze, derivations, verify-derivation-criterion,
    verify-jordan-criterion, local-test, trace.
    """
    handlers = {
        "gen": _run_gen,
        "analyze": _run_analyze,
        "derivations": _run_derivations,
        "verify-derivation-criterion": _run_verify_derivation_criterion,
        "verify-jordan-criterion": _run_verify_jordan_criterion,
        "local-test": _run_local_test,
        "trace": _run_trace,
    }
    handler = handlers.get(command)
    if handler is None:
        raise PipelineUsageError(f"unknown command {command!r}")
    return handler(dict(options))


# -- gen ----------------------------------------------------------------------

def _gen_build(options: dict) -> tuple[str, FinAlgebra]:
    """Name and build the requested algebra.  Its dimension is computed from
    the options and the parsed inputs and checked against the cap first."""
    family = options.get("family")
    if family in ("matrix", "triangular"):
        n = int(options["n"])
        if n < 1:
            raise DocumentError("matrix size must be at least 1")
        if family == "matrix":
            _cap_check(n * n, options)
            return f"M{n}", build_matrix_algebra(n)
        _cap_check(n * (n + 1) // 2, options)
        return f"T{n}", build_upper_triangular(n)
    if family == "group":
        group = parse_cayley_table(_read_text(options["cayley"], "Cayley table "))
        _cap_check(group.order, options)
        name = options.get("name") or f"QG{group.order}"
        return name, build_group_algebra(group)
    if family in ("direct", "tensor"):
        left_doc = _load_document(options, "a")
        right_doc = _load_document(options, "b")
        if family == "direct":
            _cap_check(left_doc.dim + right_doc.dim, options)
            product, name = direct_product, f"{left_doc.name}_times_{right_doc.name}"
        else:
            _cap_check(left_doc.dim * right_doc.dim, options)
            product, name = tensor_product, f"{left_doc.name}_tensor_{right_doc.name}"
        return name, product(left_doc.to_algebra(), right_doc.to_algebra())
    if family == "adjoin-unit":
        base_doc = _load_document(options, "a")
        _cap_check(base_doc.dim + 1, options)
        return f"{base_doc.name}_unital", adjoin_unit(base_doc.to_algebra())
    raise PipelineUsageError(f"unknown generator family {family!r}")


def _run_gen(options: dict) -> Report:
    name, algebra = _gen_build(options)
    doc = document_from_algebra(name, algebra)
    text = serialize_document(doc)
    out = options.get("out")
    if not out:
        raise PipelineUsageError("gen needs an output path")
    Path(out).write_text(text, encoding="utf-8")
    rep = _new_report("gen", doc)
    sec = rep.section("generated")
    sec.add("family", options.get("family"))
    sec.add("dim", algebra.dim)
    sec.add("unital", algebra.is_unital)
    sec.add("output", str(out))
    return rep


# -- analyze -------------------------------------------------------------------

def _run_analyze(options: dict) -> Report:
    doc, algebra = _load_algebra(options)
    rep = _new_report("analyze", doc)
    info = rep.section("algebra")
    info.add("dim", algebra.dim)
    info.add("unital", algebra.is_unital)

    commutators = structure.commutator_subspace(algebra)
    simplicity = structure.is_commutator_simple(algebra)
    sec = rep.section("commutator")
    sec.add("dim-products", structure.product_span(algebra).dim)
    sec.add("dim-commutators", commutators.dim)
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
    common = structure._common_gram_radical(algebra, basis)
    sec = rep.section("trace")
    sec.add("trace-space-dim", len(basis))
    nondeg = [structure.is_nondegenerate_trace(algebra, tf) for tf in basis]
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


def _run_derivations(options: dict) -> Report:
    doc, algebra = _load_algebra(options)
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


def _run_verify_derivation_criterion(options: dict) -> Report:
    doc, algebra = _load_algebra(options)
    rep = _new_report("verify-derivation-criterion", doc)
    _verdict_from_verification(rep, maps.verify_derivation_criterion(algebra))
    return rep


def _run_verify_jordan_criterion(options: dict) -> Report:
    doc, algebra = _load_algebra(options)
    spec = options.get("map")
    if not spec:
        raise PipelineUsageError("verify-jordan-criterion needs --map")
    t = _load_map(spec, algebra)
    rep = _new_report("verify-jordan-criterion", doc)
    rep.section("map").add("map", spec)
    _verdict_from_verification(rep, maps.verify_jordan_criterion(algebra, t))
    return rep


def _run_local_test(options: dict) -> Report:
    doc, algebra = _load_algebra(options)
    spec = options.get("map")
    kind = options.get("kind")
    seed = options.get("seed")
    samples = options.get("samples")
    if not spec or kind not in ("derivation", "inner-auto") or seed is None or samples is None:
        raise PipelineUsageError(
            "local-test needs --map, --kind derivation|inner-auto, --seed, and --samples"
        )
    t = _load_map(spec, algebra)
    rep = _new_report("local-test", doc)
    rep.seeds = {"seed": int(seed), "samples": int(samples)}
    rep.caveats.append(maps.LOCAL_TEST_CAVEAT)
    if kind == "derivation":
        result = maps.local_derivation_test(algebra, t, int(seed), int(samples))
        sec = rep.section("local-derivation")
        sec.add("passed", result.passed)
        sec.add("points-tested", result.points_tested)
        sec.add("counterexample", result.counterexample)
        rep.verdict = VERDICT_OK if result.passed else VERDICT_PROPERTY_FALSE
        return rep
    trials = int(options.get("trials") or 20)
    rep.seeds["trials"] = trials
    outcomes = maps.local_inner_automorphism_test(algebra, t, int(seed), int(samples), trials)
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


def _run_trace(options: dict) -> Report:
    doc, algebra = _load_algebra(options)
    seed = options.get("seed")
    if seed is None:
        raise PipelineUsageError("trace needs --seed")
    trials = int(options.get("trials") or 50)
    rep = _new_report("trace", doc)
    rep.seeds = {"seed": int(seed), "trials": trials}
    basis = structure.trace_functional_space(algebra)
    result = structure.has_nondegenerate_trace(algebra, int(seed), trials)
    sec = rep.section("trace")
    sec.add("trace-space-dim", len(basis))
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

def _finish(command: str, options: dict, fmt: str) -> None:
    try:
        rep = run_pipeline(command, options)
    except PipelineUsageError as exc:
        raise click.UsageError(str(exc)) from exc
    except (DocumentError, OSError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_PARSE)
    except RuntimeError as exc:
        # an internal consistency check failed: a program fault, not bad input
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_REFUTATION)
    click.echo(emit_report(rep, fmt), nl=False)
    sys.exit(EXIT_FOR_VERDICT[rep.verdict])


def _format_option(f):
    return click.option(
        "--format", "fmt", type=click.Choice(["text", "structured"]), default="text",
        help="Report rendering.",
    )(f)


def _max_dim_option(f):
    return click.option(
        "--max-dim", type=int, default=None,
        help=f"Override the dimension cap (default {DEFAULT_MAX_DIM}, env {MAX_DIM_ENV}).",
    )(f)


@click.group()
@click.version_option(__version__, prog_name="finalg")
def main():
    """Exact analysis of finite-dimensional associative algebras."""


@main.group()
def gen():
    """Write an algebra document for one of the built-in families."""


def _gen_common(f):
    f = click.option("-o", "--out", required=True, type=click.Path(dir_okay=False))(f)
    f = _max_dim_option(f)
    return f


@gen.command("matrix")
@click.option("--n", type=int, required=True)
@_gen_common
def gen_matrix(n, out, max_dim):
    """Full matrix algebra M_n (dimension n^2)."""
    _finish("gen", {"family": "matrix", "n": n, "out": out, "max_dim": max_dim}, "text")


@gen.command("triangular")
@click.option("--n", type=int, required=True)
@_gen_common
def gen_triangular(n, out, max_dim):
    """Upper-triangular n x n matrices (dimension n(n+1)/2)."""
    _finish("gen", {"family": "triangular", "n": n, "out": out, "max_dim": max_dim}, "text")


@gen.command("group")
@click.option("--cayley", required=True, type=click.Path(dir_okay=False))
@click.option("--name", default=None, help="Algebra name (default QG<order>).")
@_gen_common
def gen_group(cayley, name, out, max_dim):
    """Rational group algebra from a Cayley table file."""
    _finish(
        "gen",
        {"family": "group", "cayley": cayley, "name": name, "out": out, "max_dim": max_dim},
        "text",
    )


@gen.command("direct")
@click.argument("a", type=click.Path(dir_okay=False))
@click.argument("b", type=click.Path(dir_okay=False))
@_gen_common
def gen_direct(a, b, out, max_dim):
    """Direct product of two algebra documents."""
    _finish("gen", {"family": "direct", "a": a, "b": b, "out": out, "max_dim": max_dim}, "text")


@gen.command("tensor")
@click.argument("a", type=click.Path(dir_okay=False))
@click.argument("b", type=click.Path(dir_okay=False))
@_gen_common
def gen_tensor(a, b, out, max_dim):
    """Tensor product of two algebra documents."""
    _finish("gen", {"family": "tensor", "a": a, "b": b, "out": out, "max_dim": max_dim}, "text")


@gen.command("adjoin-unit")
@click.argument("a", type=click.Path(dir_okay=False))
@_gen_common
def gen_adjoin_unit(a, out, max_dim):
    """Adjoin a fresh unit to an algebra document."""
    _finish("gen", {"family": "adjoin-unit", "a": a, "out": out, "max_dim": max_dim}, "text")


@main.command()
@click.argument("path", type=click.Path(dir_okay=False))
@_format_option
@_max_dim_option
def analyze(path, fmt, max_dim):
    """Commutator structure, radical, and trace facts of an algebra."""
    _finish("analyze", {"path": path, "max_dim": max_dim}, fmt)


@main.command()
@click.argument("path", type=click.Path(dir_okay=False))
@_format_option
@_max_dim_option
def derivations(path, fmt, max_dim):
    """Dimensions of the four derivation-type map spaces."""
    _finish("derivations", {"path": path, "max_dim": max_dim}, fmt)


@main.command("verify-derivation-criterion")
@click.argument("path", type=click.Path(dir_okay=False))
@_format_option
@_max_dim_option
def verify_derivation_criterion_cmd(path, fmt, max_dim):
    """Check that maps with D(x)x, D(x)x^2 in [A,A] are exactly the derivations."""
    _finish("verify-derivation-criterion", {"path": path, "max_dim": max_dim}, fmt)


@main.command("verify-jordan-criterion")
@click.argument("path", type=click.Path(dir_okay=False))
@click.option("--map", "map_spec", required=True,
              help="'transpose' or a map file (dim then dim^2 rationals row-major).")
@_format_option
@_max_dim_option
def verify_jordan_criterion_cmd(path, map_spec, fmt, max_dim):
    """Check the cubic criterion: T(1)=1 and T(x)^3 - x^3 in [A,A] force a
    Jordan homomorphism."""
    _finish(
        "verify-jordan-criterion",
        {"path": path, "map": map_spec, "max_dim": max_dim},
        fmt,
    )


@main.command("local-test")
@click.argument("path", type=click.Path(dir_okay=False))
@click.option("--map", "map_spec", required=True)
@click.option("--kind", type=click.Choice(["derivation", "inner-auto"]), required=True)
@click.option("--seed", type=int, required=True)
@click.option("--samples", type=int, required=True)
@click.option("--trials", type=int, default=20,
              help="Invertibility trials per point (inner-auto only).")
@_format_option
@_max_dim_option
def local_test(path, map_spec, kind, seed, samples, trials, fmt, max_dim):
    """Sampling tests of local-derivation / local-inner-automorphism behavior."""
    _finish(
        "local-test",
        {
            "path": path,
            "map": map_spec,
            "kind": kind,
            "seed": seed,
            "samples": samples,
            "trials": trials,
            "max_dim": max_dim,
        },
        fmt,
    )


@main.command()
@click.argument("path", type=click.Path(dir_okay=False))
@click.option("--seed", type=int, required=True)
@click.option("--trials", type=int, default=50)
@_format_option
@_max_dim_option
def trace(path, seed, trials, fmt, max_dim):
    """Search for a nondegenerate trace functional on A^2."""
    _finish(
        "trace",
        {"path": path, "seed": seed, "trials": trials, "max_dim": max_dim},
        fmt,
    )


if __name__ == "__main__":
    main()
