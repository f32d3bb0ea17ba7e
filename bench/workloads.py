"""The benchmark's three workloads: seeded inputs, job lists and oracles.

Every job carries an expected exit code and expected report facts.  The
facts come from outside the code under test:

* M_n: all four derivation-type spaces have dimension n^2 - 1, and the
  transpose is a Jordan automorphism that is an antihomomorphism.
* semisimple A: inner = derivations = Jordan derivations = d - dim Z(A),
  with dim Z(A) the class count for a group algebra (3 for Q[S3], 5 for
  Q[D4] and Q[S4], 3 for Q[S3](x)M2 = M2 + M2 + M4); [A,A] has dimension
  d - dim Z(A); the radical is zero; and the criterion maps equal the
  derivations (the theorem being verified).
* T_n: inner = derivations = Jordan derivations = n(n+1)/2 - 1, the radical
  and [A,A] are the strictly upper-triangular part, which is also the
  largest ideal inside [A,A]; verify-derivation-criterion exits 4.
* dense copies: every invariant equals the invariant of the monomial
  original.
* maps: x w - w x is a derivation; 2 id and conjugations fail the local
  derivation test at the unit; conjugations and the transpose are
  pointwise inner; 2 id is not (the unit would have to map to itself).

Facts with no independent oracle are recorded at the commit that added the
benchmark and marked RECORDED below.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from random import Random

from corpus import (
    GROUPS,
    build_member,
    dense_copy,
    group_conjugation,
    inner_derivation_map,
    scaled_identity_map,
    seeded_unit_conjugation,
    transpose_map,
    write,
    write_group_table,
    write_map,
)

# RECORDED: criterion-map dimensions of T_n, read from this program.
RECORDED_CRITERION_DIM = {"T4": 60, "T5": 150}

# member -> (d, dim Z(A), n for T_n and 0 otherwise); dim Z(A) is the class
# count of a group algebra and the number of simple blocks of Q[S3](x)M2.
MEMBERS = {
    "M3": (9, 1, 0), "M4": (16, 1, 0), "M5": (25, 1, 0),
    "QS3": (6, 3, 0), "QD4": (8, 5, 0), "QS4": (24, 5, 0),
    "T4": (10, 1, 4), "T5": (15, 1, 5),
    "QS3M2": (24, 3, 0),
}


@dataclass(frozen=True)
class Job:
    """One CLI invocation and what its report must say."""

    name: str
    args: tuple
    exit_code: int
    facts: dict = field(default_factory=dict)
    stderr: str = ""
    output_dim: int | None = None  # gen: the written document's dimension
    group: str = ""  # jobs of one group count as one job in job_p50_s and job_tail_s


def _options(member: str) -> tuple:
    return ("--max-dim", "25") if MEMBERS[member][0] > 24 else ()


def _spaces(member: str) -> dict:
    d, z, tri = MEMBERS[member]
    inner = d - z
    return {
        "inner-derivations": inner,
        "derivations": inner,
        "jordan-derivations": inner,
        "criterion-maps": RECORDED_CRITERION_DIM[member] if tri else inner,
    }


def _commutator_dim(member: str) -> int:
    d, z, tri = MEMBERS[member]
    return tri * (tri - 1) // 2 if tri else d - z


def _fmt(job_index: int) -> tuple:
    return ("--format", "structured" if job_index % 2 else "text")


def _facts(prefix: str, values: dict) -> dict:
    return {f"{prefix}.{key}": value for key, value in values.items()}


def derivations_job(path: Path, member: str, index: int, group: str = "") -> Job:
    return Job(
        f"derivations:{path.stem}",
        ("derivations", str(path), *_fmt(index), *_options(member)),
        0,
        _facts("map-spaces", _spaces(member)),
        group=group,
    )


def verify_criterion_job(path: Path, member: str, index: int, group: str = "") -> Job:
    tri = MEMBERS[member][2]
    spaces = _spaces(member)
    facts = _facts("checks", {"semiprime": not tri, "commutator-simple": not tri})
    facts.update(_facts("spaces", {k: spaces[k] for k in ("inner-derivations", "derivations", "criterion-maps")}))
    return Job(
        f"verify-derivation-criterion:{path.stem}",
        ("verify-derivation-criterion", str(path), *_fmt(index), *_options(member)),
        4 if tri else 0,
        facts,
        group=group,
    )


def analyze_job(path: Path, member: str, index: int) -> Job:
    d, _, tri = MEMBERS[member]
    commutators = _commutator_dim(member)
    facts = _facts("algebra", {"dim": d, "unital": True})
    facts.update(_facts("commutator", {
        "dim-products": d, "dim-commutators": commutators, "commutator-simple": not tri,
    }))
    if tri:
        facts["commutator.witness-ideal-dim"] = commutators
    facts.update(_facts("radical", {"dim-radical": commutators if tri else 0, "semiprime": not tri}))
    facts.update(_facts("trace", {"trace-space-dim": d - commutators, "definite-negative": bool(tri)}))
    return Job(
        f"analyze:{path.stem}",
        ("analyze", str(path), *_fmt(index), *_options(member)),
        5 if tri else 0,
        facts,
    )


def trace_job(path: Path, member: str, index: int, seed: int) -> Job:
    d, _, tri = MEMBERS[member]
    facts = _facts("trace", {
        "trace-space-dim": d - _commutator_dim(member),
        "found": not tri,
        "definite-negative": bool(tri),
    })
    return Job(
        f"trace:{path.stem}",
        ("trace", str(path), "--seed", str(seed), "--trials", "20", *_fmt(index), *_options(member)),
        5 if tri else 0,
        facts,
    )


def jordan_job(path: Path, member: str, map_spec: str, anti: bool, index: int) -> Job:
    d = MEMBERS[member][0]
    facts = _facts("checks", {
        "unital": True, "commutator-simple": True, "surjective": True,
        "unit-preserved": True, "cubic-condition": True,
        "homomorphism": not anti, "antihomomorphism": anti,
    })
    facts.update(_facts("spaces", {"commutators": _commutator_dim(member), "rank": d}))
    return Job(
        f"verify-jordan-criterion:{path.stem}:{Path(map_spec).stem}",
        ("verify-jordan-criterion", str(path), "--map", map_spec, *_fmt(index), *_options(member)),
        0,
        facts,
    )


def local_job(path: Path, member: str, map_path: Path, kind: str, passes: bool,
              seed: int, index: int) -> Job:
    d = MEMBERS[member][0]
    if kind == "derivation":
        samples = 8
        facts = _facts("local-derivation", {
            "passed": passes, "points-tested": 1 + d + samples if passes else 1,
        })
        extra = ()
    else:
        samples = 4
        facts = {}
        extra = ("--trials", "20")
    return Job(
        f"local-test:{kind}:{map_path.stem}",
        ("local-test", str(path), "--map", str(map_path), "--kind", kind,
         "--seed", str(seed), "--samples", str(samples), *extra, *_fmt(index)),
        0 if passes else 5,
        facts,
    )


def gen_job(out: Path, family_args: tuple, dim: int, cap_exceeded: bool = False) -> Job:
    if cap_exceeded:
        return Job(f"gen:{out.stem}", ("gen", *family_args, "-o", str(out)), 3,
                   stderr="exceeds the cap")
    return Job(
        f"gen:{out.stem}",
        ("gen", *family_args, "-o", str(out)),
        0,
        _facts("generated", {"dim": dim, "unital": True}),
        output_dim=dim,
    )


# -- workloads ---------------------------------------------------------------------

def _write_member(work: Path, member: str):
    algebra = build_member(member)
    path = work / f"{member}.alg"
    write(path, algebra.document())
    return algebra, path


def solve_monomial(work: Path, rng: Random) -> list:
    jobs = []
    for member in ("QS4", "QS3M2", "T5"):
        _, path = _write_member(work, member)
        jobs.append(derivations_job(path, member, len(jobs)))
        jobs.append(verify_criterion_job(path, member, len(jobs)))
    return jobs


# The solvers' cost on a dense copy moves by 6-11 % with the seeded basis
# (even with the order of the basis alone).  So each member gets two copies,
# one per command, and a member's two jobs count as one job in the per-job
# statistics: that averages two independent copies at the cost of one.
def solve_dense(work: Path, rng: Random) -> list:
    jobs = []
    for member in ("M3", "QS3", "T4"):
        original = build_member(member)
        for make_job in (derivations_job, verify_criterion_job):
            name = f"dense{len(jobs)}_{member}"
            path = work / f"{name}.alg"
            write(path, dense_copy(original, rng, name).document())
            jobs.append(make_job(path, member, len(jobs), f"dense_{member}"))
    return jobs


def commands_mixed(work: Path, rng: Random) -> list:
    jobs = []
    algebras = {}
    for member in MEMBERS:
        algebras[member] = _write_member(work, member)
    for member, (_, path) in algebras.items():
        jobs.append(analyze_job(path, member, len(jobs)))
        jobs.append(trace_job(path, member, len(jobs), rng.randrange(1 << 16)))

    for member in ("M3", "M4", "M5"):
        jobs.append(jordan_job(algebras[member][1], member, "transpose", True, len(jobs)))
    qs4, qs4_path = algebras["QS4"]
    conj_qs4 = work / "QS4-conj.map"
    write_map(work, conj_qs4.stem, group_conjugation(qs4, GROUPS["QS4"](), rng))
    jobs.append(jordan_job(qs4_path, "QS4", str(conj_qs4), False, len(jobs)))

    # Local derivation tests stay at d <= 16 so the kernel solver is a small share.
    for member in ("M3", "QS3", "QD4", "T4", "M4"):
        algebra, path = algebras[member]
        write_map(work, f"{member}-inner", inner_derivation_map(algebra, rng))
        jobs.append(local_job(path, member, work / f"{member}-inner.map", "derivation",
                              True, rng.randrange(1 << 16), len(jobs)))
    for member in ("QS3", "T5"):
        algebra, path = algebras[member]
        write_map(work, f"{member}-twice", scaled_identity_map(algebra, 2))
        jobs.append(local_job(path, member, work / f"{member}-twice.map", "derivation",
                              False, rng.randrange(1 << 16), len(jobs)))
    m3, m3_path = algebras["M3"]
    write_map(work, "M3-conj", seeded_unit_conjugation(m3, rng))
    jobs.append(local_job(m3_path, "M3", work / "M3-conj.map", "derivation",
                          False, rng.randrange(1 << 16), len(jobs)))

    write_map(work, "M3-transpose", transpose_map(3))
    t4, t4_path = algebras["T4"]
    write_map(work, "T4-conj", seeded_unit_conjugation(t4, rng))
    qs3, qs3_path = algebras["QS3"]
    write_map(work, "QS3-conj", group_conjugation(qs3, GROUPS["QS3"](), rng))
    for member, map_name, passes in (
        ("M3", "M3-conj", True), ("M3", "M3-transpose", True), ("T4", "T4-conj", True),
        ("QS3", "QS3-conj", True), ("QS3", "QS3-twice", False),
    ):
        jobs.append(local_job(algebras[member][1], member, work / f"{map_name}.map",
                              "inner-auto", passes, rng.randrange(1 << 16), len(jobs)))

    for name in ("QS3", "QS4"):
        write_group_table(work, name)
    write(work / "M2.alg", build_member("M2").document())
    gen = work / "gen"
    gen.mkdir(exist_ok=True)
    jobs += [
        gen_job(gen / "M3.alg", ("matrix", "--n", "3"), 9),
        gen_job(gen / "T4.alg", ("triangular", "--n", "4"), 10),
        gen_job(gen / "QS3.alg", ("group", "--cayley", str(work / "QS3.tbl"), "--name", "QS3"), 6),
        gen_job(gen / "QS4.alg", ("group", "--cayley", str(work / "QS4.tbl"), "--name", "QS4"), 24),
        gen_job(gen / "QS3M2.alg", ("tensor", str(qs3_path), str(work / "M2.alg")), 24),
        gen_job(gen / "M3xQS3.alg", ("direct", str(m3_path), str(qs3_path)), 15),
        gen_job(gen / "T4u.alg", ("adjoin-unit", str(t4_path)), 11),
        gen_job(gen / "M7.alg", ("matrix", "--n", "7"), 49, cap_exceeded=True),
    ]
    return jobs


WORKLOADS = {
    "solve-monomial": solve_monomial,
    "solve-dense": solve_dense,
    "commands-mixed": commands_mixed,
}
