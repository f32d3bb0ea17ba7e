"""Frozen witnesses and constraint-row streams.

The values below were recorded from the program and pin its behaviour
exactly: a change to how an identity is evaluated or turned into rows that
moves a witness, reorders a row stream or alters a row shows here even when
every verdict stays the same.  They are regression pins, not oracles.
"""

from fractions import Fraction
from random import Random

import pytest

import finalg as fa
import finalg.maps as fm
from helpers import corpus_algebra, dense_copy, row_stream_digest

F = Fraction


def _vec(*values):
    return tuple(F(v) for v in values)


def _unit_map(d, row, col):
    return [[F(int((r, c) == (row, col))) for c in range(d)] for r in range(d)]


def _perturbed_identity(d, row, col, value):
    m = [[F(int(r == c)) for c in range(d)] for r in range(d)]
    m[row][col] += value
    return fa.Mat(m)


def _degree2_space(a):
    """Maps with D(x)x in [A,A], solved densely from the degree-2
    polarization alone: they pass every degree-2 constraint, so a map among
    them that is not a criterion map must fail a degree-3 one."""
    d = a.dim
    functionals = fa.commutator_subspace(a).annihilator().basis
    b = [a.basis_element(i) for i in range(d)]
    rows = []
    for i in range(d):
        for j in range(i, d):
            for f in functionals:
                row = [F(0)] * (d * d)
                for k in range(d):
                    row[k * d + i] += fa.dot(f, (b[k] * b[j]).coeffs)
                    row[k * d + j] += fa.dot(f, (b[k] * b[i]).coeffs)
                rows.append(row)
    return fm.MapSpace(d, fa.Subspace.from_rows(d * d, fa.Mat(rows).kernel()))


class TestRefutationWitnesses:
    """Both refutation branches of verify_derivation_criterion, reached by
    replacing one of the two solved spaces."""

    def test_criterion_map_that_is_not_a_derivation(self, monkeypatch):
        monkeypatch.setattr(fm, "derivation_criterion_space", lambda a, **_: fm.MapSpace.full(a.dim))
        report = fa.verify_derivation_criterion(corpus_algebra("M2"))
        assert report.verdict == "REFUTATION"
        assert report.spaces == {"inner-derivations": 3, "derivations": 3, "criterion-maps": 16}
        assert report.witness == {
            "direction": "criterion map is not a derivation",
            "map": _unit_map(4, 0, 0),
            "pair": (0, 0),
            "lhs": _vec(1, 0, 0, 0),
            "rhs": _vec(2, 0, 0, 0),
        }

    def test_derivation_failing_a_degree_2_membership(self, monkeypatch):
        monkeypatch.setattr(fm, "derivation_space", lambda a, **_: fm.MapSpace.full(a.dim))
        report = fa.verify_derivation_criterion(corpus_algebra("QS3"))
        assert report.verdict == "REFUTATION"
        assert report.spaces == {"inner-derivations": 3, "derivations": 36, "criterion-maps": 3}
        assert report.witness == {
            "direction": "derivation fails a polarized membership",
            "map": _unit_map(6, 0, 0),
            "violation": {"degree": 2, "tuple": (0, 0), "value": _vec(2, 0, 0, 0, 0, 0)},
        }

    def test_derivation_failing_a_degree_3_membership(self, monkeypatch):
        a = corpus_algebra("QS3")
        space = _degree2_space(a)
        monkeypatch.setattr(fm, "derivation_space", lambda a, **_: space)
        report = fa.verify_derivation_criterion(a)
        assert report.verdict == "REFUTATION"
        assert report.spaces == {"inner-derivations": 3, "derivations": 6, "criterion-maps": 3}
        expected_map = [
            [0, 1, 0, 0, 0, -1],
            [-1, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, 0],
            [0, -1, 0, 0, 0, 1],
            [0, 0, 0, 0, 0, 0],
            [1, 0, 0, 0, -1, 0],
        ]
        assert report.witness == {
            "direction": "derivation fails a polarized membership",
            "map": [[F(x) for x in row] for row in expected_map],
            "violation": {"degree": 3, "tuple": (0, 0, 1), "value": _vec(-2, 0, 0, -2, 4, 0)},
        }


class TestCheckWitnesses:
    def test_jordan_homomorphism(self):
        m2, qs3, m3 = (corpus_algebra(n) for n in ("M2", "QS3", "M3"))
        cases = [
            (m2, fa.scaled_identity_map(4, 2), (0, 0), _vec(4, 0, 0, 0), _vec(8, 0, 0, 0)),
            (qs3, _perturbed_identity(6, 0, 5, F(1, 2)), (1, 3),
             _vec(F(1, 2), 0, 1, 0, 0, 1), _vec(0, 0, 1, 0, 0, 1)),
            (m3, _perturbed_identity(9, 1, 2, F(-1, 3)), (1, 5),
             _vec(0, F(-1, 3), 1, 0, 0, 0, 0, 0, 0), _vec(0, 0, 1, 0, 0, 0, 0, 0, 0)),
        ]
        for a, t, pair, lhs, rhs in cases:
            result = fa.jordan_homomorphism_check(a, t)
            assert not result.ok
            assert result.witness == {"pair": pair, "lhs": lhs, "rhs": rhs}

    @pytest.mark.parametrize("mode, name, t, pair, lhs, rhs", [
        ("homomorphism", "M2", fa.transpose_map(2), (0, 1),
         _vec(0, 0, 1, 0), _vec(0, 0, 0, 0)),
        ("antihomomorphism", "M2", fa.Mat.identity(4), (0, 1),
         _vec(0, 1, 0, 0), _vec(0, 0, 0, 0)),
        ("homomorphism", "QS3", _perturbed_identity(6, 0, 5, F(1, 2)), (1, 3),
         _vec(F(1, 2), 0, 0, 0, 0, 1), _vec(0, 0, 0, 0, 0, 1)),
        ("antihomomorphism", "QS3", _perturbed_identity(6, 0, 5, F(1, 2)), (1, 2),
         _vec(0, 0, 0, 0, 1, 0), _vec(0, 0, 0, 1, 0, 0)),
        ("homomorphism", "M3", _perturbed_identity(9, 1, 2, F(-1, 3)), (1, 5),
         _vec(0, F(-1, 3), 1, 0, 0, 0, 0, 0, 0), _vec(0, 0, 1, 0, 0, 0, 0, 0, 0)),
    ])
    def test_multiplicativity(self, mode, name, t, pair, lhs, rhs):
        result = fa.multiplicativity_check(corpus_algebra(name), t, mode)
        assert not result.ok
        assert result.witness == {"pair": pair, "lhs": lhs, "rhs": rhs}

    def test_cubic_condition(self):
        m2, qs3, m3 = (corpus_algebra(n) for n in ("M2", "QS3", "M3"))
        cases = [
            (m2, fa.scaled_identity_map(4, 2), (0, 0, 0), _vec(42, 0, 0, 0)),
            (qs3, _perturbed_identity(6, 0, 5, F(1, 2)), (0, 0, 5), _vec(3, 0, 0, 0, 0, 0)),
            (m3, _perturbed_identity(9, 1, 2, F(-1, 3)), (0, 2, 3),
             _vec(F(-2, 3), 0, 0, 0, F(-1, 3), 0, 0, 0, 0)),
        ]
        for a, t, triple, value in cases:
            result = fa.cubic_condition_check(a, t)
            assert not result.ok
            assert result.witness == {"triple": triple, "value": value}


# member -> system -> (rows, rank, sha256 of the rows, entries sorted in each row)
ROW_STREAMS = {
    "M3": {
        "derivation": (477, 73, "fa50e453fd271fbcb466a95ca8313d7f0799225e2b5e3c84d1db3c6d9d0bef6b"),
        "jordan": (324, 73, "874e8296b76c29ccceb7e362023b7214b498088a3dc229d76447efcaa145f693"),
        "criterion": (185, 73, "112f938f7a8b2ae9d6a3ae08df6a32ad974e9d14c64caf6dbd2fbf7a76a3aa46"),
    },
    "QS3": {
        "derivation": (216, 33, "3341b09f446a61908c87e23aaf0c19da618fe31eab34da813a9efb53e9460d4d"),
        "jordan": (126, 33, "3833f97652f5e4ef7a7a02c74cfe626db96c074613fd76383168230b959308ea"),
        "criterion": (231, 33, "2a941b4cf3375e8811a1e18c627a200bbf937d9bbe93926fce579fb1a992e283"),
    },
    "T4": {
        "derivation": (430, 91, "9ba522e75b113fa1d90eb669f0d8e385091350853bed81c1bc6ea36877d012c8"),
        "jordan": (332, 91, "95d4c9554ada327d558255f56b1eed6f16245e8838f4741a6aa6d159ea5f598f"),
        "criterion": (80, 40, "7074efff52799752af5e3f1fdbdeaf29172ccbe9f3e220650a0a91b27a412d7e"),
    },
    "T5": {
        "derivation": (1215, 211, "67d9f30256b381058092c9f91056ad31e81aa3fa65b9f78500b1a580a3936e7f"),
        "jordan": (965, 211, "dcf12e6c71fccfe9d2d4a74f883e205ac75c8f44bb853a477a19d5bf692dd370"),
        "criterion": (150, 75, "2a62b53cd2050df23e3e26e0c902770ac08d5a4d76651ac8c765b4661e3fd527"),
    },
    "QS3tM2": {
        "derivation": (11808, 555, "cd4fa37d9a919379310722a97132b4fffd53adc8c4d2044a6d0784c990b16071"),
        "jordan": (6780, 555, "ddb75d4d8cef92a676044210380812c5ee6344177bb60dd6d602f7d184da752c"),
        "criterion": (8364, 555, "91ea02b7e5fb770d457d49c638b935862512d3bb78cf014e03641e6eb4dadb8c"),
    },
    "T4-dense": {
        "derivation": (1000, 91, "3cad1788d0b6d279f40cf29fde7c5154ecd6ecd37411ad4d49eecb775c9b6a82"),
        "jordan": (550, 91, "ded294f9a87a7479c86d7a2c684d99164859d67ffcfc6574ca7c26678d82da13"),
        "criterion": (1067, 40, "034153b3d74f20b34608e04f62a12351e21f80c9ad834f4b4169b51e6824c624"),
    },
}

SPACES = {
    "derivation": fa.derivation_space,
    "jordan": fa.jordan_derivation_space,
    "criterion": fa.derivation_criterion_space,
}


def _member(name):
    if name in ("T4", "T5"):
        return fa.build_upper_triangular(int(name[1:]))
    if name == "QS3tM2":
        return fa.tensor_product(fa.build_group_algebra(fa.symmetric_group(3)), fa.build_matrix_algebra(2))
    if name == "T4-dense":
        return dense_copy(fa.build_upper_triangular(4), Random(4))
    return corpus_algebra(name)


@pytest.mark.parametrize("name", sorted(ROW_STREAMS))
def test_row_streams(name, monkeypatch):
    a = _member(name)
    solve = fm.kernel_from_constraints
    for system, space in SPACES.items():
        seen = []

        def recording(n, rows):
            rows = [list(row) for row in rows]
            kernel = solve(n, rows)
            seen.append((len(rows), n - kernel.dim, row_stream_digest(rows)))
            return kernel

        monkeypatch.setattr(fm, "kernel_from_constraints", recording)
        space(a)
        assert seen == [ROW_STREAMS[name][system]], (name, system)
