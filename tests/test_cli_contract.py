"""The CLI's exit-status contract under mutated inputs.

The M2, Q[S3] and T3 documents and the transpose map file of M2 are
mutated by token replacements from a pool of hostile tokens (a 4 301-digit
integer, one digit over the interpreter's limit, ``1/0``, ``#`` and the
document keywords) and by dropped, repeated and swapped lines.  Every
document command runs in-process through ``finalg.cli:main`` with fixed
seeds, twice.  Each run must exit with a documented status other than the
internal-fault status 6, raise nothing, write less than 1 000 bytes of
stderr that name no Python internals, and repeat its stdout byte for byte.
"""

import re

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import finalg as fa
from finalg.cli import main
from finalg.document import document_from_algebra, format_map_file, serialize_document

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
