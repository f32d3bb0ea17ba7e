"""The CLI's exit-status contract under mutated inputs.

The M2, Q[S3] and T3 documents, the transpose map file of M2 and the
Cayley table of S3 are mutated by token replacements from a pool of
hostile tokens (a 4 301-digit integer, one digit over the interpreter's
limit, ``1/0``, ``#`` and the document keywords) and by dropped, repeated
and swapped lines.  Every document command runs in-process through
``finalg.cli:main`` with fixed seeds, twice, and so does every ``gen``
family with arguments drawn from pools of small, malformed and long
values; the paths and option values of the document commands are also
replaced by long ones.  Each run must exit with a documented status other
than the internal-fault status 6, raise nothing, write less than 1 000
bytes of stderr that name no Python internals, and repeat its stdout byte
for byte.  A ``gen`` run that fails leaves no ``-o`` file.
"""

import os
import re

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import finalg as fa
from finalg.cli import main
from finalg.document import document_from_algebra, format_cayley_table, format_map_file, serialize_document

ALLOWED_EXITS = {0, 2, 3, 4, 5, 7}
INTERNALS = re.compile(
    r"Traceback|File \"|line \d+, in|__\w+__|NoneType|\b\w*(Error|Exception)\b|<\w+ object"
)

BASES = {
    "M2": serialize_document(document_from_algebra("M2", fa.build_matrix_algebra(2))),
    "QS3": serialize_document(
        document_from_algebra("QS3", fa.build_group_algebra(fa.symmetric_group(3)))
    ),
    "T3": serialize_document(document_from_algebra("T3", fa.build_upper_triangular(3))),
}
TRANSPOSE = format_map_file(fa.transpose_map(2))
CAYLEY = format_cayley_table(fa.symmetric_group(3))

POOL = ["7" * 4301, "1/0", "#", "algebra", "dim", "labels", "unit", "product", "=",
        "-1", "0", "2/4", "x"]

# (command arguments after the document path; MAP stands for the map spec)
COMMANDS = [
    ["analyze"],
    ["derivations"],
    ["verify-derivation-criterion"],
    ["verify-jordan-criterion", "--map", "MAP"],
    ["local-test", "--map", "MAP", "--kind", "derivation", "--seed", "1", "--samples", "2"],
    ["local-test", "--map", "MAP", "--kind", "inner-auto", "--seed", "1", "--samples", "2",
     "--trials", "3"],
    ["trace", "--seed", "1", "--trials", "3"],
]


def _mutated(text, edits):
    """text with each edit applied in turn: ("token", i, j, token) replaces
    the j-th token of line i, ("drop", i), ("repeat", i) and ("swap", i, j)
    act on whole lines; indices wrap around."""
    lines = text.splitlines()
    for edit in edits:
        if not lines:
            break
        i = edit[1] % len(lines)
        if edit[0] == "token":
            tokens = lines[i].split() or [""]
            tokens[edit[2] % len(tokens)] = edit[3]
            lines[i] = " ".join(tokens)
        elif edit[0] == "drop":
            del lines[i]
        elif edit[0] == "repeat":
            lines.insert(i, lines[i])
        else:
            j = edit[2] % len(lines)
            lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines) + "\n"


index = st.integers(0, 40)
edits = st.lists(
    st.one_of(
        st.tuples(st.just("token"), index, st.integers(0, 20), st.sampled_from(POOL)),
        st.tuples(st.just("drop"), index),
        st.tuples(st.just("repeat"), index),
        st.tuples(st.just("swap"), index, index),
    ),
    min_size=1,
    max_size=3,
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


def _run(args):
    result = CliRunner().invoke(main, args, catch_exceptions=True)
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        args, repr(result.exception))
    return result


def _keeps_the_contract(args, out=None):
    """Run args twice and check the contract on each run; with out, the
    -o path, which is removed first and must exist exactly after a run
    that exits 0."""
    results = []
    for _ in range(2):
        if out is not None and os.path.isfile(out):
            os.remove(out)
        result = _run(args)
        assert result.exit_code in ALLOWED_EXITS, (args[:2], result.exit_code, result.stderr[:200])
        assert len(result.stderr_bytes) < 1000, (args[:2], result.stderr[:200])
        # click opens a usage error's line with "Error: ", which names no internals
        assert not INTERNALS.search(re.sub(r"(?m)^Error: ", "", result.stderr)), (args[:2], result.stderr[:200])
        if out is not None:
            assert os.path.isfile(out) == (result.exit_code == 0), (args[:2], result.exit_code)
        results.append((result.exit_code, result.stdout_bytes))
    assert results[0] == results[1], args[:2]


@given(
    base=st.sampled_from(sorted(BASES)),
    target=st.sampled_from(["document", "map"]),
    changes=edits,
    map_kind=st.sampled_from(["file", "transpose"]),
)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_every_document_command_keeps_the_contract(workdir, base, target, changes, map_kind):
    document, map_file = BASES[base], TRANSPOSE
    if target == "document":
        document = _mutated(document, changes)
    else:
        map_file = _mutated(map_file, changes)
    doc_path, map_path = workdir / "a.alg", workdir / "t.map"
    doc_path.write_text(document, encoding="utf-8")
    map_path.write_text(map_file, encoding="utf-8")
    spec = str(map_path) if map_kind == "file" else "transpose"
    for command in COMMANDS:
        args = [command[0], str(doc_path)] + [spec if a == "MAP" else a for a in command[1:]]
        first, again = _run(args), _run(args)
        assert first.exit_code in ALLOWED_EXITS, (args, first.exit_code, first.stderr)
        assert len(first.stderr_bytes) < 1000, (args, first.stderr[:200])
        assert not INTERNALS.search(first.stderr), (args, first.stderr)
        assert (again.exit_code, again.stdout_bytes) == (first.exit_code, first.stdout_bytes), args


# Long values: digits past the interpreter's limit, more than 40 digits,
# text, and paths of more than 40 characters (set in `_long_paths`).
LONG = ["7" * 5000, "1" * 41, "-" + "9" * 60, "-" + "3" * 2000, "x" * 5000]
# a matrix size whose dimension has 4 000 digits, under the digit limit
NUMBERS = ["-1", "0", "1", "2", "3", "5", "x", "1/2", " 2", "", "3" * 2000] + LONG
# --max-dim values: every size drawn is at most 5, or has a dimension
# above the largest cap, 41 digits, so that nothing large is built
MAX_DIMS = ["0", "1", "4", "24", "-3", "x"] + LONG
NAMES = ["Q", "a b", "#", "", "x" * 5000, "QS3", "9"]


def _long_paths(workdir):
    """A path of more than the system's limit, a long one inside workdir
    that does not exist, a long one that is workdir itself, and one in a
    directory that does not exist."""
    return [
        "d/" * 2500,
        str(workdir) + "/." * 1000 + "/missing.alg",
        str(workdir) + "/." * 1000,
        str(workdir / "nowhere" / "x.alg"),
    ]


@given(
    family=st.sampled_from(["matrix", "triangular", "group", "direct", "tensor", "adjoin-unit"]),
    number=st.sampled_from(NUMBERS),
    name=st.sampled_from(NAMES + [None]),
    max_dim=st.sampled_from(MAX_DIMS + [None]),
    table_changes=st.one_of(st.just([]), edits),
    base=st.sampled_from(sorted(BASES)),
    out=st.integers(0, 4),
    long_input=st.booleans(),
)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_every_gen_family_keeps_the_contract(
    workdir, family, number, name, max_dim, table_changes, base, out, long_input
):
    table_path, doc_path = workdir / "g.tbl", workdir / "g.alg"
    table_path.write_text(_mutated(CAYLEY, table_changes) if table_changes else CAYLEY, encoding="utf-8")
    doc_path.write_text(BASES[base], encoding="utf-8")
    paths = _long_paths(workdir)
    source = paths[0] if long_input else None
    args = ["gen", family]
    if family in ("matrix", "triangular"):
        args += ["--n", number]
    elif family == "group":
        args += ["--cayley", source or str(table_path)] + ([] if name is None else ["--name", name])
    else:
        args += [source or str(doc_path)] * (1 if family == "adjoin-unit" else 2)
    if max_dim is not None:
        args += ["--max-dim", max_dim]
    out_path = str(workdir / "out.alg") if out == 4 else paths[out]
    _keeps_the_contract(args + ["-o", out_path], out_path)


@given(
    command=st.sampled_from(COMMANDS),
    position=st.integers(0, 10),
    value=st.sampled_from(LONG + list(range(4))),
)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_long_paths_and_option_values_keep_the_contract(workdir, command, position, value):
    """The document path, the map file or one option value of a document
    command replaced by a long path or a long value."""
    doc_path, map_path = workdir / "l.alg", workdir / "l.map"
    doc_path.write_text(BASES["M2"], encoding="utf-8")
    map_path.write_text(TRANSPOSE, encoding="utf-8")
    if isinstance(value, int):
        value = _long_paths(workdir)[value]
    args = [command[0], str(doc_path)] + [str(map_path) if a == "MAP" else a for a in command[1:]]
    args += ["--format", "text", "--max-dim", "24"]
    # a value, never an option name: position 1 is the path, then every second one
    slots = [1] + list(range(3, len(args), 2))
    args[slots[position % len(slots)]] = value
    _keeps_the_contract(args)
