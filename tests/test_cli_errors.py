"""Property tests of the CLI's error paths.

Every command is fed malformed matrix, names and FASTA files, and flag
values it cannot use.  Each run must end in exit 1 (usage), 2 (bad
input) or 3 (budget refusal) with exactly one line on stderr, the
``usage error:``, ``error:`` or ``refused:`` line its exit code names,
and no traceback; a bad matrix or names file is named by its path.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from balancedcover import cli
from balancedcover.cli import main
from balancedcover.formats import names_path_for, write_matrix

PREFIX = {1: "usage error: ", 2: "error: ", 3: "refused: "}
# fixed examples and no example database, so every run checks the same calls
PROPERTY = settings(derandomize=True, database=None, max_examples=60, deadline=None)


def run(argv):
    """Call ``main`` in-process: (exit code, stderr).  An exception escaping ``main`` fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main([str(a) for a in argv])
    return rc, err.getvalue()


def assert_one_error(rc, err, path=None):
    assert rc in PREFIX, (rc, err)
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(PREFIX[rc]), (rc, err)
    if path is not None:
        assert str(path) in lines[0], err


def write_bad(path: Path, content):
    """Put a bad file at ``path``: bytes, text, a directory (``None``) or nothing at all (``...``)."""
    if content is None:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not ...:
        path.write_text(content)


# commands that read a matrix file, as argv with MATRIX, FASTA and OUT in place of paths
MATRIX_COMMANDS = [
    ["solve", "MATRIX", "--s", "1", "--objective", "cmin", "--alg", "rcm", "--seed", "1"],
    ["solve", "MATRIX", "--s", "1", "--objective", "dmax", "--alg", "rdm", "--seed", "1", "--out", "OUT"],
    ["oracle", "MATRIX", "--s", "1", "--objective", "cavg"],
    ["gen", "--kind", "replicate", "--input", "MATRIX", "--r", "2", "--out", "OUT"],
]


def fill_paths(argv, matrix, tmp):
    fasta = tmp / "good.fa"
    fasta.write_text(">s1\nACGTACGT\n>s2\nTTGACA\n")
    return [{"MATRIX": matrix, "FASTA": fasta, "OUT": tmp / "out"}.get(a, a) for a in argv]


@st.composite
def bad_matrices(draw):
    """A matrix file that must be refused: text, bytes, a directory (None) or a missing file (...)."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    header = f"{m} {n}"
    rows = [[draw(st.sampled_from("01")) for _ in range(n)] for _ in range(m)]
    fault = draw(st.sampled_from(["header", "width", "token", "rows", "empty", "bytes", "directory", "missing"]))
    if fault == "directory":
        return None
    if fault == "missing":
        return ...
    if fault == "header":
        header = draw(st.sampled_from([f"{m}", f"{m} {n} 1", f"x {n}", f"0 {n}", f"{m} -{n}", f"{m} {n}.0"]))
    elif fault == "width":
        i = draw(st.integers(0, m - 1))
        rows[i] = rows[i] + ["1"] if n == 1 or draw(st.booleans()) else rows[i][1:]
    elif fault == "token":
        rows[draw(st.integers(0, m - 1))][draw(st.integers(0, n - 1))] = draw(
            st.sampled_from(["2", "-1", "x", "1.0", "10", "0x1", "--"])
        )
    elif fault == "rows":
        rows = rows[1:] if draw(st.booleans()) else rows + [["0"] * n]
    elif fault == "empty":
        return draw(st.sampled_from(["", "\n\n", "# only a comment\n"]))
    text = "\n".join(["# a comment", header, *(" ".join(r) for r in rows)]) + "\n"
    if fault == "bytes":
        return b"# \xff\xfe\n" + text.encode()
    return text


@st.composite
def bad_sidecars(draw):
    """(m, n, names file) for an m x n matrix whose names file must be refused."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    clones, probes = [f"c{i}" for i in range(m)], [f"p{j}" for j in range(n)]
    fault = draw(
        st.sampled_from(["separator", "clones", "probes", "dup_clone", "dup_probe", "empty_clone", "bytes", "directory"])
    )
    if fault == "directory":
        return m, n, None
    if fault == "separator":
        return m, n, "\n".join(clones + probes) + "\n"
    if fault == "clones":
        clones = clones[1:] if draw(st.booleans()) else clones + ["extra"]
    elif fault == "probes":
        probes = probes[1:] if draw(st.booleans()) else probes + ["extra"]
    elif fault == "dup_clone" and m > 1:
        clones[draw(st.integers(1, m - 1))] = clones[0]
    elif fault == "dup_probe" and n > 1:
        probes[draw(st.integers(1, n - 1))] = probes[0]
    elif fault in ("dup_clone", "dup_probe", "empty_clone"):
        # a duplicate needs two names; with one, the fault is an empty clone name
        clones[draw(st.integers(0, m - 1))] = draw(st.sampled_from(["", " ", "\t"]))
    text = "\n".join(clones + [""] + probes) + "\n"
    if fault == "bytes":
        return m, n, text.encode() + b"\xff\n"
    return m, n, text


def bad_fasta():
    return st.sampled_from(
        [
            "",
            "\n",
            ">c1\n",
            ">c1\nACGT\n>c2\n",
            ">\nACGT\n",
            ">c1\nACGT\n>c1\nTTGA\n",
            ">c1\nACXT\n",
            "ACGT\nAC GT\n",
            b">c1\nAC\xffGT\n",
            None,
            ...,
        ]
    )


class TestBadFiles:
    @PROPERTY
    @given(argv=st.sampled_from(MATRIX_COMMANDS), content=bad_matrices())
    def test_bad_matrix_is_named(self, argv, content):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            matrix = tmp / "g.matrix"
            write_bad(matrix, content)
            rc, err = run(fill_paths(argv, matrix, tmp))
        assert rc == 2, err
        assert_one_error(rc, err, matrix)

    @PROPERTY
    @given(argv=st.sampled_from(MATRIX_COMMANDS), case=bad_sidecars())
    def test_bad_names_file_is_named(self, argv, case):
        m, n, content = case
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            matrix = tmp / "g.matrix"
            matrix.write_text(f"{m} {n}\n" + "".join(" ".join("1" * n) + "\n" for _ in range(m)))
            write_bad(names_path_for(matrix), content)
            rc, err = run(fill_paths(argv, matrix, tmp))
        assert rc == 2, err
        assert_one_error(rc, err, names_path_for(matrix))

    @PROPERTY
    @given(content=bad_fasta(), probes_bad=st.booleans())
    def test_bad_fasta_is_input_error(self, content, probes_bad):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            bad = tmp / "bad.fa"
            write_bad(bad, content)
            argv = ["build-matrix", "FASTA", bad, "OUT"] if probes_bad else ["build-matrix", bad, "FASTA", "OUT"]
            rc, err = run(fill_paths(argv, None, tmp))
            assert not (tmp / "out").exists()
        assert rc == 2, err
        assert_one_error(rc, err)


def ints_outside(low, high=None):
    """Integers below ``low`` or above ``high``, and strings no int flag reads."""
    above = st.nothing() if high is None else st.integers(min_value=high + 1, max_value=10**6)
    return st.one_of(st.integers(max_value=low - 1), above, st.sampled_from(["x", "1.5", "", "1e3", "--"]))


def floats_outside_unit():
    return st.one_of(
        st.floats(max_value=-1e-9),
        st.floats(min_value=1 + 1e-9),
        st.sampled_from(["nan", "x", ""]),
    )


BUILD = ["build-matrix", "FASTA", "FASTA", "OUT"]
SOLVE = ["solve", "MATRIX", "--s", "4", "--objective", "cmin", "--alg", "rcm", "--seed", "1"]
ORACLE = ["oracle", "MATRIX", "--s", "4", "--objective", "cmin"]
GEN = {
    "random": ["gen", "--kind", "random", "--m", "4", "--n", "3", "--density", "0.5", "--seed", "1", "--out", "OUT"],
    "x3c": ["gen", "--kind", "x3c", "--universe", "6", "--triples", "4", "--seed", "1", "--out", "OUT"],
    "setcover": ["gen", "--kind", "setcover", "--universe", "5", "--sets", "6", "--target-b", "2", "--seed", "1",
                 "--out", "OUT"],
    "replicate": ["gen", "--kind", "replicate", "--input", "MATRIX", "--r", "2", "--out", "OUT"],
}
BENCH = ["bench", "--size", "6x3", "--density", "0.5", "--s-range", "2:3", "--trials", "1", "--seed", "1",
         "--out", "OUT"]
M = golden.MATRIX.shape[0]

# (argv, flag, values the command must refuse); the golden matrix has M = 8 clones
BAD_FLAGS = [
    (BUILD, "--ambiguity", st.sampled_from(["x", "lenient", ""])),
    (SOLVE, "--s", ints_outside(1, M)),
    (SOLVE, "--restarts", ints_outside(1)),
    (SOLVE, "--objective", st.sampled_from(["davg", "dmax", "cavg", "x"])),
    (SOLVE, "--pad", st.sampled_from(["x", ""])),
    (SOLVE, "--repair", st.sampled_from(["x", "lowest"])),
    (ORACLE, "--s", ints_outside(1, M)),
    # C(8, 4) = 70 subsets, so any smaller budget refuses
    (ORACLE, "--budget", st.one_of(st.integers(max_value=69), st.sampled_from(["x", "1e7"]))),
    (ORACLE, "--objective", st.sampled_from(["x", "min"])),
    (GEN["random"], "--m", ints_outside(1)),
    (GEN["random"], "--n", ints_outside(1)),
    (GEN["random"], "--density", floats_outside_unit()),
    (GEN["random"], "--seed", st.integers(max_value=-1)),
    (GEN["x3c"], "--universe", st.integers(-10, 40).filter(lambda u: u < 6 or u % 3)),
    # universe 6 needs at least 6 // 3 = 2 triples and has C(6, 3) = 20 distinct ones
    (GEN["x3c"], "--triples", ints_outside(2, 20)),
    (GEN["x3c"], "--seed", st.integers(max_value=-1)),
    (GEN["setcover"], "--universe", st.integers(max_value=2)),
    (GEN["setcover"], "--sets", st.integers(max_value=1)),
    (GEN["setcover"], "--max-set-size", ints_outside(1, 5)),
    (GEN["setcover"], "--target-b", ints_outside(1, 6)),
    (GEN["replicate"], "--r", ints_outside(1)),
    (GEN["replicate"], "--kind", st.sampled_from(["x", "REPLICATE"])),
    (BENCH, "--size", st.sampled_from(["0x3", "6x0", "-1x3", "6", "6x3x1", "axb", "x", "6X-3"])),
    (BENCH, "--density", floats_outside_unit()),
    (BENCH, "--s-range", st.sampled_from(["0:2", "3:2", "1:2:0", "1:2:-1", "1:7", "a:b", "2", "1:2:3:4", ":"])),
    (BENCH, "--trials", ints_outside(1)),
    (BENCH, "--alg", st.sampled_from(["x", "RCM"])),
]


class TestBadFlags:
    @settings(PROPERTY, max_examples=150)
    @given(case=st.sampled_from(BAD_FLAGS).flatmap(lambda c: st.tuples(st.just(c), c[2])))
    def test_bad_flag_value_is_one_error_line(self, case):
        (argv, flag, _), value = case
        argv = list(argv)
        if flag in argv:
            argv[argv.index(flag) + 1] = str(value)
        else:
            argv += [flag, str(value)]
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            matrix = tmp / "g.matrix"
            write_matrix(matrix, golden.instance())
            rc, err = run(fill_paths(argv, matrix, tmp))
            assert not (tmp / "out").exists()
        assert_one_error(rc, err)


class TestUnwritableOut:
    """gen and build-matrix refuse an unwritable matrix or names file before they do any work."""

    WORKERS = ("build_instance", "gen_random", "gen_x3c", "gen_set_cover", "replicate_probes")

    @pytest.mark.parametrize("command", ["build-matrix", *GEN])
    @pytest.mark.parametrize("bad", ["out_dir_missing", "sidecar_is_directory"])
    def test_refused_before_the_work(self, tmp_path, monkeypatch, command, bad):
        def no_work(*args, **kwargs):
            raise AssertionError("the matrix was built before its output was checked")

        for name in self.WORKERS:
            monkeypatch.setattr(cli, name, no_work)
        matrix = tmp_path / "g.matrix"
        write_matrix(matrix, golden.instance())
        argv = fill_paths(BUILD if command == "build-matrix" else GEN[command], matrix, tmp_path)
        if bad == "out_dir_missing":
            out = path = tmp_path / "missing" / "x.matrix"
        else:
            out = tmp_path / "x.matrix"
            path = names_path_for(out)
            path.mkdir()
        argv[argv.index(tmp_path / "out")] = out
        rc, err = run(argv)
        assert rc == 2
        assert_one_error(rc, err, path)
        # the check leaves no file behind
        assert not out.exists()
