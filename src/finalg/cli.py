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

Each command is one decorated function.  A document command is declared by
``_document_command(name, *options)`` around ``fill(rep, algebra,
**options)``, which adds its sections and verdict to the report of the
loaded, capped document; a ``gen`` family by ``_gen_command(family,
*options)`` around ``build(max_dim, **options) -> (name, algebra)``.  The
two skeletons alone load, cap, write, report and exit.
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
            f"dimension {_number(dim)} exceeds the cap {_number(cap)}; raise --max-dim or {MAX_DIM_ENV}"
        )


def _number(n: int) -> str:
    """n in decimal when it has at most 40 digits, else its sign and bit
    length, so that a message stays bounded; no decimal of a longer n is
    made, as it may be over the interpreter's digit limit."""
    return str(n) if abs(n) < 10**40 else f"{'-' if n < 0 else ''}({n.bit_length()} bits)"


def _load_document(path: str, max_dim: int | None) -> AlgebraDocument:
    """Parse the document at path and check its dimension against the cap;
    nothing is built yet."""
    doc = parse_document(Path(path).read_text(encoding="utf-8"))
    _cap_check(doc.dim, max_dim)
    return doc


def _load_map(spec: str, algebra: FinAlgebra):
    if spec == "transpose":
        n = math.isqrt(algebra.dim)
        if n * n != algebra.dim:
            raise DocumentError(
                "the transpose map needs a matrix-unit algebra (square dimension)"
            )
        return maps.transpose_map(n)
    return parse_map_file(Path(spec).read_text(encoding="utf-8"), expected_dim=algebra.dim)


def _new_report(command: str, doc: AlgebraDocument) -> Report:
    rep = Report(command)
    rep.algebra_name = doc.name
    rep.fingerprint = document_fingerprint(doc)
    return rep


def _check_size(n: int, dim: int, max_dim: int | None) -> None:
    if n < 1:
        raise DocumentError("matrix size must be at least 1")
    _cap_check(dim, max_dim)


# -- the command skeletons ----------------------------------------------------

def _finish(run, fmt: str) -> None:
    """Run run(), print the Report it returns and exit with its verdict's status."""
    try:
        rep = run()
    except (InternalError, RuntimeError) as exc:
        # an internal consistency check failed: a program fault, not bad input
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_REFUTATION)
    except OSError as exc:
        # a file that cannot be read or written, named once, as `_echo` shows
        # a token; a failed write to an open file names none
        where = "" if exc.filename is None else f"{_echo(str(exc.filename))}: "
        click.echo(f"error: {where}{exc.strerror}", err=True)
        sys.exit(EXIT_PARSE)
    except (DocumentError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_PARSE)
    click.echo(emit_report(rep, fmt), nl=False)
    sys.exit(EXIT_FOR_VERDICT[rep.verdict])


def _nonempty(ctx, param, value):
    """An empty file name is a usage error (click.Path accepts it)."""
    if value == "":
        raise click.BadParameter("must not be empty", ctx, param)
    return value


def _echoed(kind, *args, **kwargs):
    """kind(*args, **kwargs), a click parameter type whose refusal of a
    value of more than 40 characters names it as `_echo` does, by its first
    40 and its length, so that the message stays bounded; a shorter value
    keeps click's own message."""

    class Echoed(kind):
        def convert(self, value, param, ctx):
            try:
                return super().convert(value, param, ctx)
            except click.BadParameter:
                if len(text := str(value)) <= 40:
                    raise
                self.fail(f"{_echo(text)} is not a valid {self.name}.", param, ctx)

    return Echoed(*args, **kwargs)


_INT = _echoed(click.types.IntParamType)
_COUNT = _echoed(click.IntRange, max=MAX_COUNT)
_FILE = {"type": _echoed(click.Path, dir_okay=False), "callback": _nonempty}
_MAX_DIM = click.option(
    "--max-dim", type=_INT, default=None,
    help=f"Override the dimension cap (default {DEFAULT_MAX_DIM}, env {MAX_DIM_ENV}).",
)
_FORMAT = click.option(
    "--format", "fmt", type=_echoed(click.Choice, ["text", "structured"]), default="text",
    help="Report rendering.",
)
_OUT = click.option("-o", "--out", required=True, **_FILE)


@click.group()
@click.version_option(__version__, prog_name="finalg")
def main():
    """Exact analysis of finite-dimensional associative algebras."""


@main.group()
def gen():
    """Write an algebra document for one of the built-in families."""


def _declare(run, command, *params):
    """command(run) with params, in the order listed, as its parameters."""
    for param in reversed(params):
        run = param(run)
    return command(run)


def _document_command(name: str, *options):
    """Declare ``finalg <name> PATH`` with options, --format and --max-dim
    around fill(rep, algebra, **options), which adds the command's sections
    and verdict to the report on the loaded, capped document."""
    def declare(fill):
        def run(path, fmt, max_dim, **values):
            def report() -> Report:
                doc = _load_document(path, max_dim)
                algebra = doc.to_algebra()
                rep = _new_report(name, doc)
                fill(rep, algebra, **values)
                return rep
            _finish(report, fmt)
        return _declare(run, main.command(name, help=fill.__doc__),
                        click.argument("path", **_FILE), *options, _FORMAT, _MAX_DIM)
    return declare


def _gen_command(family: str, *options):
    """Declare ``finalg gen <family>`` with options, --max-dim and -o/--out
    around build(max_dim, **options) -> (name, algebra).  Each build
    computes the dimension from its arguments and parsed inputs and checks
    it against the cap before it builds anything.  The text is serialized,
    which refuses a number over the interpreter's digit limit, before out
    is opened."""
    def declare(build):
        def run(out, max_dim, **values):
            def report() -> Report:
                name, algebra = build(max_dim, **values)
                doc = document_from_algebra(name, algebra)
                Path(out).write_text(serialize_document(doc), encoding="utf-8")
                rep = _new_report("gen", doc)
                sec = rep.section("generated")
                sec.add("family", family)
                sec.add("dim", algebra.dim)
                sec.add("unital", algebra.is_unital)
                sec.add("output", str(out))
                return rep
            _finish(report, "text")
        return _declare(run, gen.command(family, help=build.__doc__), *options, _MAX_DIM, _OUT)
    return declare


# -- gen families ----------------------------------------------------------------

@_gen_command("matrix", click.option("--n", type=_INT, required=True))
def gen_matrix(max_dim, n):
    """Full matrix algebra M_n (dimension n^2)."""
    _check_size(n, n * n, max_dim)
    return f"M{n}", build_matrix_algebra(n)


@_gen_command("triangular", click.option("--n", type=_INT, required=True))
def gen_triangular(max_dim, n):
    """Upper-triangular n x n matrices (dimension n(n+1)/2)."""
    _check_size(n, n * (n + 1) // 2, max_dim)
    return f"T{n}", build_upper_triangular(n)


@_gen_command(
    "group",
    click.option("--cayley", required=True, **_FILE),
    click.option("--name", default=None, help="Algebra name (default QG<order>)."),
)
def gen_group(max_dim, cayley, name):
    """Rational group algebra from a Cayley table file."""
    text = Path(cayley).read_text(encoding="utf-8")
    _cap_check(cayley_order(text), max_dim)
    group = parse_cayley_table(text)
    return name or f"QG{group.order}", build_group_algebra(group)


_TWO_DOCUMENTS = (click.argument("a", **_FILE), click.argument("b", **_FILE))


@_gen_command("direct", *_TWO_DOCUMENTS)
def gen_direct(max_dim, a, b):
    """Direct product of two algebra documents."""
    left, right = _load_document(a, max_dim), _load_document(b, max_dim)
    _cap_check(left.dim + right.dim, max_dim)
    return (f"{left.name}_times_{right.name}",
            direct_product(left.to_algebra(), right.to_algebra()))


@_gen_command("tensor", *_TWO_DOCUMENTS)
def gen_tensor(max_dim, a, b):
    """Tensor product of two algebra documents."""
    left, right = _load_document(a, max_dim), _load_document(b, max_dim)
    _cap_check(left.dim * right.dim, max_dim)
    return (f"{left.name}_tensor_{right.name}",
            tensor_product(left.to_algebra(), right.to_algebra()))


@_gen_command("adjoin-unit", click.argument("a", **_FILE))
def gen_adjoin_unit(max_dim, a):
    """Adjoin a fresh unit to an algebra document."""
    base = _load_document(a, max_dim)
    _cap_check(base.dim + 1, max_dim)
    return f"{base.name}_unital", adjoin_unit(base.to_algebra())


# -- document commands -------------------------------------------------------------

@_document_command("analyze")
def analyze(rep, algebra):
    """Commutator structure, radical, and trace facts of an algebra."""
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


@_document_command("derivations")
def derivations(rep, algebra):
    """Dimensions of the four derivation-type map spaces."""
    sec = rep.section("map-spaces")
    sec.add("inner-derivations", maps.inner_derivation_space(algebra).dim)
    sec.add("derivations", maps.derivation_space(algebra).dim)
    sec.add("jordan-derivations", maps.jordan_derivation_space(algebra).dim)
    sec.add("criterion-maps", maps.derivation_criterion_space(algebra).dim)


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


@_document_command("verify-derivation-criterion")
def verify_derivation_criterion_cmd(rep, algebra):
    """Check that maps with D(x)x, D(x)x^2 in [A,A] are exactly the derivations."""
    _verdict_from_verification(rep, maps.verify_derivation_criterion(algebra))


@_document_command(
    "verify-jordan-criterion",
    click.option("--map", "map_spec", required=True, callback=_nonempty,
                 help="'transpose' or a map file (dim then dim^2 rationals row-major)."),
)
def verify_jordan_criterion_cmd(rep, algebra, map_spec):
    """Check the cubic criterion: T(1)=1 and T(x)^3 - x^3 in [A,A] force a
    Jordan homomorphism."""
    t = _load_map(map_spec, algebra)
    rep.section("map").add("map", map_spec)
    _verdict_from_verification(rep, maps.verify_jordan_criterion(algebra, t))


@_document_command(
    "local-test",
    click.option("--map", "map_spec", required=True, callback=_nonempty),
    click.option("--kind", type=_echoed(click.Choice, ["derivation", "inner-auto"]), required=True),
    click.option("--seed", type=_INT, required=True),
    click.option("--samples", type=_COUNT, required=True),
    click.option("--trials", type=_COUNT, default=20,
                 help="Invertibility trials per point (inner-auto only)."),
)
def local_test(rep, algebra, map_spec, kind, seed, samples, trials):
    """Sampling tests of local-derivation / local-inner-automorphism behavior."""
    t = _load_map(map_spec, algebra)
    rep.seeds = {"seed": seed, "samples": samples}
    rep.caveats.append(maps.LOCAL_TEST_CAVEAT)
    if kind == "derivation":
        result = maps.local_derivation_test(algebra, t, seed, samples)
        sec = rep.section("local-derivation")
        sec.add("passed", result.passed)
        sec.add("points-tested", result.points_tested)
        sec.add("counterexample", result.counterexample)
        rep.verdict = VERDICT_OK if result.passed else VERDICT_PROPERTY_FALSE
        return
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


@_document_command(
    "trace",
    click.option("--seed", type=_INT, required=True),
    click.option("--trials", type=_COUNT, default=50),
)
def trace(rep, algebra, seed, trials):
    """Search for a nondegenerate trace functional on A^2."""
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


if __name__ == "__main__":
    main()
