"""Golden reports: byte-exact CLI output for every command on the small corpus.

Each corpus member (dimension at most 10) has one file under ``golden/``
holding, for every job, the command line, the exit code and the exact
standard output, in both report formats.  The generated algebra documents
are recorded too.  Jobs run in a scratch directory with relative paths, so
no report names a machine-specific path.

To rewrite the files after an intended change of report bytes::

    PYTHONPATH=src python tests/test_golden.py
"""

import os
import sys
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner

import finalg as fa
from finalg.cli import main
from finalg.document import format_cayley_table, format_map_file

GOLDEN_DIR = Path(__file__).parent / "golden"

# member -> gen arguments; group members read a Cayley table written first.
MEMBERS = {
    "M2": ["matrix", "--n", "2"],
    "M3": ["matrix", "--n", "3"],
    "QS3": ["group", "--cayley", "S3.tbl", "--name", "QS3"],
    "QD4": ["group", "--cayley", "D4.tbl", "--name", "QD4"],
    "T3": ["triangular", "--n", "3"],
    "T4": ["triangular", "--n", "4"],
    "M2tQC2": ["tensor", "M2.alg", "QC2.alg"],
}


def _write_inputs():
    Path("S3.tbl").write_text(format_cayley_table(fa.symmetric_group(3)))
    Path("D4.tbl").write_text(format_cayley_table(fa.dihedral_group(4)))
    Path("C2.tbl").write_text(format_cayley_table(fa.cyclic_group(2)))
    runner = CliRunner()
    for args in (["matrix", "--n", "2", "-o", "M2.alg"],
                 ["group", "--cayley", "C2.tbl", "--name", "QC2", "-o", "QC2.alg"]):
        result = runner.invoke(main, ["gen", *args], catch_exceptions=False)
        assert result.exit_code == 0, result.output


def _write_maps(a: fa.FinAlgebra) -> None:
    d = a.dim
    w = a.element(range(1, d + 1))
    ad = a.mult_operator(w, "right") - a.mult_operator(w, "left")
    Path("ad.map").write_text(format_map_file(ad))
    Path("id.map").write_text(format_map_file(fa.Mat.identity(d)))
    Path("double.map").write_text(format_map_file(fa.scaled_identity_map(d, 2)))


def _jobs(name: str, path: str):
    maps = ["id.map", "double.map"] + (["transpose"] if name in ("M2", "M3") else [])
    yield ["analyze", path]
    yield ["derivations", path]
    yield ["verify-derivation-criterion", path]
    for spec in maps:
        yield ["verify-jordan-criterion", path, "--map", spec]
    for spec in ("ad.map", "double.map"):
        yield ["local-test", path, "--map", spec, "--kind", "derivation",
               "--seed", "7", "--samples", "3"]
    for spec in maps:
        yield ["local-test", path, "--map", spec, "--kind", "inner-auto",
               "--seed", "7", "--samples", "2"]
    yield ["trace", path, "--seed", "5"]


def _run(args) -> str:
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    return f"==== finalg {' '.join(args)} -> exit {result.exit_code}\n{result.stdout}"


def render_member(name: str) -> str:
    """Every job's record for one member; the current directory is scratch."""
    _write_inputs()
    path = f"{name}.alg"
    out = [_run(["gen", *MEMBERS[name], "-o", path])]
    out.append(f"==== {path}\n{Path(path).read_text()}")
    _write_maps(fa.parse_algebra_document(Path(path).read_text()))
    for args in _jobs(name, path):
        for fmt in ("text", "structured"):
            out.append(_run([*args, "--format", fmt]))
    return "".join(out)


@pytest.mark.parametrize("name", sorted(MEMBERS))
def test_golden_report(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FINALG_MAX_DIM", raising=False)
    expected = (GOLDEN_DIR / f"{name}.golden").read_text(encoding="utf-8")
    assert render_member(name) == expected


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    os.environ.pop("FINALG_MAX_DIM", None)
    for member in sys.argv[1:] or sorted(MEMBERS):
        with tempfile.TemporaryDirectory() as scratch:
            here = os.getcwd()
            os.chdir(scratch)
            try:
                text = render_member(member)
            finally:
                os.chdir(here)
        (GOLDEN_DIR / f"{member}.golden").write_text(text, encoding="utf-8")
        print(f"wrote {member}.golden ({len(text)} bytes)")
