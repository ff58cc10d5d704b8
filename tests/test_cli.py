"""End-to-end CLI behavior: files in, files/JSON out, exit codes."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import golden
import balancedcover
from balancedcover.cli import main
from balancedcover.formats import format_matrix, names_path_for, parse_matrix, read_matrix, write_matrix
from balancedcover.ingest import matches


@pytest.fixture
def golden_files(tmp_path):
    clones = tmp_path / "clones.fa"
    probes = tmp_path / "probes.fa"
    clones.write_text("".join(f">{name}\n{seq}\n" for name, seq in golden.CLONE_SEQUENCES))
    probes.write_text("".join(f">{name}\n{seq}\n" for name, seq in golden.PROBE_SEQUENCES))
    return clones, probes


@pytest.fixture
def golden_matrix(tmp_path):
    path = tmp_path / "golden.matrix"
    write_matrix(path, golden.instance())
    return path


def strip_wall_time(record):
    record = dict(record)
    record.pop("wallTimeMs")
    return record


class TestBuildMatrix:
    def test_reproduces_golden_matrix(self, tmp_path, golden_files, capsys):
        clones, probes = golden_files
        out = tmp_path / "out.matrix"
        assert main(["build-matrix", str(clones), str(probes), str(out)]) == 0
        assert np.array_equal(parse_matrix(out.read_text()), golden.MATRIX)
        stdout = capsys.readouterr().out
        assert "m=8 n=7 edges=28" in stdout

    def test_names_sidecar(self, tmp_path, golden_files):
        clones, probes = golden_files
        out = tmp_path / "out.matrix"
        main(["build-matrix", str(clones), str(probes), str(out)])
        loaded = read_matrix(out)
        assert loaded.clone_names == tuple(n for n, _ in golden.CLONE_SEQUENCES)
        assert loaded.probe_names == tuple(n for n, _ in golden.PROBE_SEQUENCES)

    def test_plain_line_input(self, tmp_path, capsys):
        clones = tmp_path / "clones.txt"
        probes = tmp_path / "probes.txt"
        clones.write_text("".join(seq + "\n" for _, seq in golden.CLONE_SEQUENCES))
        probes.write_text("".join(seq + "\n" for _, seq in golden.PROBE_SEQUENCES))
        out = tmp_path / "out.matrix"
        assert main(["build-matrix", str(clones), str(probes), str(out)]) == 0
        assert np.array_equal(parse_matrix(out.read_text()), golden.MATRIX)
        loaded = read_matrix(out)
        assert loaded.clone_names[0] == "c1"

    def test_automaton_matcher_agrees(self, tmp_path, golden_files):
        clones, probes = golden_files
        out = tmp_path / "out.matrix"
        assert main(["build-matrix", str(clones), str(probes), str(out)]) == 0
        expect = [[int(matches(c, p)) for _, p in golden.PROBE_SEQUENCES] for _, c in golden.CLONE_SEQUENCES]
        assert parse_matrix(out.read_text()).tolist() == expect

    def test_ambiguous_base_is_input_error(self, tmp_path, golden_files, capsys):
        clones, probes = golden_files
        clones.write_text(">c1\nACNGT\n")
        rc = main(["build-matrix", str(clones), str(probes), str(tmp_path / "o.matrix")])
        assert rc == 2
        assert "position 3" in capsys.readouterr().err

    def test_missing_file_is_input_error(self, tmp_path, golden_files):
        _, probes = golden_files
        rc = main(["build-matrix", str(tmp_path / "absent.fa"), str(probes), str(tmp_path / "o")])
        assert rc == 2


class TestSolve:
    def run_solve(self, matrix, capsys, *extra):
        rc = main(
            ["solve", str(matrix), "--s", "6", "--objective", "cmin", "--alg", "rcm", *extra]
        )
        out = capsys.readouterr().out
        return rc, out

    def test_record_contents(self, golden_matrix, capsys):
        rc, out = self.run_solve(golden_matrix, capsys, "--seed", "5")
        assert rc == 0
        record = json.loads(out)
        assert record["schemaVersion"] == 1
        assert record["algorithm"] == "rcm"
        assert record["objective"] == "cmin"
        assert (record["m"], record["n"], record["s"]) == (8, 7, 6)
        assert record["seed"] == 5
        assert record["lpValue"] == pytest.approx(float(golden.MINLP_OPT))
        assert record["bestValue"] <= record["lpValue"] + 1e-9
        assert len(record["selectedIndices"]) == 6
        assert len(record["degrees"]) == 7
        assert record["epsilonOrLambda"] is None
        assert len(record["violationsRepaired"]) == 1
        assert record["wallTimeMs"] >= 0

    def test_deterministic_modulo_wall_time(self, golden_matrix, capsys):
        _, first = self.run_solve(golden_matrix, capsys, "--seed", "5", "--restarts", "4")
        _, second = self.run_solve(golden_matrix, capsys, "--seed", "5", "--restarts", "4")
        assert strip_wall_time(json.loads(first)) == strip_wall_time(json.loads(second))

    def test_out_file(self, golden_matrix, tmp_path, capsys):
        out = tmp_path / "result.json"
        rc = main(
            [
                "solve",
                str(golden_matrix),
                "--s",
                "6",
                "--objective",
                "dmax",
                "--alg",
                "rdm",
                "--seed",
                "1",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        record = json.loads(out.read_text())
        assert record["algorithm"] == "rdm"
        assert record["lpValue"] == pytest.approx(float(golden.MAXLP_OPT))
        assert f"wrote {out}" in capsys.readouterr().out

    def test_missing_seed_is_drawn_and_reported(self, golden_matrix, capsys):
        rc, out = self.run_solve(golden_matrix, capsys)
        assert rc == 0
        seed_line, record_text = out.split("\n", 1)
        assert seed_line.startswith("seed: ")
        assert json.loads(record_text)["seed"] == int(seed_line.split(":")[1])

    def test_davg_is_usage_error(self, golden_matrix, capsys):
        rc = main(
            ["solve", str(golden_matrix), "--s", "6", "--objective", "davg", "--alg", "rca"]
        )
        assert rc == 1
        assert "cavg" in capsys.readouterr().err

    def test_algorithm_objective_mismatch_is_usage_error(self, golden_matrix, capsys):
        rc = main(
            ["solve", str(golden_matrix), "--s", "6", "--objective", "cmin", "--alg", "rca"]
        )
        assert rc == 1
        assert "targets objective" in capsys.readouterr().err

    def test_infeasible_s_is_input_error(self, golden_matrix, capsys):
        rc = main(
            ["solve", str(golden_matrix), "--s", "9", "--objective", "cmin", "--alg", "rcm"]
        )
        assert rc == 2

    def test_unknown_flag_value_is_usage_error(self, golden_matrix):
        rc = main(
            ["solve", str(golden_matrix), "--s", "6", "--objective", "cmin", "--alg", "simplex"]
        )
        assert rc == 1

    def test_missing_matrix_is_input_error(self, tmp_path):
        rc = main(
            ["solve", str(tmp_path / "no.matrix"), "--s", "2", "--objective", "cmin", "--alg", "rcm"]
        )
        assert rc == 2


class TestOracle:
    def test_golden_cmin(self, golden_matrix, capsys):
        rc = main(["oracle", str(golden_matrix), "--s", "6", "--objective", "cmin"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["optimum"] == 2.0
        assert payload["optimumExactNum"] == 2
        assert payload["optimumExactDen"] == 1
        assert payload["enumerated"] == 28
        assert payload["witnessNames"][0] == "c1"
        assert "optimumAtMostS" in payload

    def test_deviation_objective_has_no_at_most(self, golden_matrix, capsys):
        main(["oracle", str(golden_matrix), "--s", "6", "--objective", "davg"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["optimum"] == pytest.approx(1 / 7)
        assert "optimumAtMostS" not in payload

    def test_budget_refusal_exit_code(self, golden_matrix, capsys):
        rc = main(["oracle", str(golden_matrix), "--s", "6", "--objective", "cmin", "--budget", "3"])
        assert rc == 3
        assert "refused" in capsys.readouterr().err


class TestGen:
    def test_random_provenance_and_determinism(self, tmp_path, capsys):
        a = tmp_path / "a.matrix"
        b = tmp_path / "b.matrix"
        args = ["gen", "--kind", "random", "--m", "10", "--n", "5", "--density", "0.5", "--seed", "3"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_text() == b.read_text()
        assert "# generator: random m=10 n=5 density=0.5 seed=3" in a.read_text()
        inst = read_matrix(a)
        assert (inst.num_clones, inst.num_probes) == (10, 5)

    def test_x3c_ground_truth_comment(self, tmp_path):
        out = tmp_path / "x.matrix"
        rc = main(
            [
                "gen",
                "--kind",
                "x3c",
                "--universe",
                "6",
                "--triples",
                "4",
                "--plant-cover",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        text = out.read_text()
        assert "# generator: x3c universe=6 triples=4 plant-cover=true s=2 seed=3" in text
        assert "# ground-truth: balanced-cover-exists" in text

    def test_setcover_generation(self, tmp_path):
        out = tmp_path / "sc.matrix"
        rc = main(
            [
                "gen",
                "--kind",
                "setcover",
                "--universe",
                "5",
                "--sets",
                "6",
                "--target-b",
                "2",
                "--seed",
                "1",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        text = out.read_text()
        assert "# generator: setcover universe=5 sets=6 max-set-size=3 target-b=2 s=3 seed=1" in text
        assert "# ground-truth:" in text
        inst = read_matrix(out)
        assert inst.clone_names[-1] == "q0"

    def test_replicate(self, tmp_path, golden_matrix):
        out = tmp_path / "rep.matrix"
        rc = main(["gen", "--kind", "replicate", "--input", str(golden_matrix), "--r", "2", "--out", str(out)])
        assert rc == 0
        inst = read_matrix(out)
        assert inst.num_probes == 14
        assert f"# generator: replicate input={golden_matrix} r=2" in out.read_text()

    def test_missing_required_flags_usage_error(self, tmp_path, capsys):
        rc = main(["gen", "--kind", "random", "--m", "10", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "--n" in capsys.readouterr().err

    def test_gen_without_seed_prints_one(self, tmp_path, capsys):
        out = tmp_path / "r.matrix"
        rc = main(["gen", "--kind", "random", "--m", "4", "--n", "3", "--density", "0.5", "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out.startswith("seed: ")


class TestBench:
    def bench_args(self, out):
        return [
            "bench",
            "--size",
            "12x6",
            "--density",
            "0.5",
            "--s-range",
            "4:8:2",
            "--alg",
            "rcm",
            "--alg",
            "rdm",
            "--trials",
            "2",
            "--seed",
            "9",
            "--out",
            str(out),
        ]

    def test_csv_shape(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert main(self.bench_args(out)) == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        # 1 matrix x 3 s values x 2 algorithms x 2 trials
        assert len(rows) == 12
        assert list(rows[0].keys()) == [
            "matrixId",
            "m",
            "n",
            "density",
            "s",
            "objective",
            "algorithm",
            "trial",
            "seed",
            "lpValue",
            "roundedValue",
            "ratio",
            "wallTimeMs",
        ]
        for row in rows:
            assert row["m"] == "12" and row["n"] == "6"
            assert row["algorithm"] in ("rcm", "rdm")
            assert row["objective"] in ("cmin", "dmax")
            assert 0.0 <= float(row["ratio"]) <= 1.0 + 1e-9

    def test_summary_written(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        main(self.bench_args(out))
        summary = out.with_name(out.name + ".summary")
        assert summary.exists()
        with summary.open() as fh:
            rows = list(csv.DictReader(fh))
        # one summary row per (matrix, s, algorithm) cell
        assert len(rows) == 6
        assert list(rows[0].keys()) == [
            "matrixId",
            "m",
            "n",
            "density",
            "s",
            "objective",
            "algorithm",
            "trials",
            "lpValue",
            "meanRoundedValue",
            "meanRatio",
            "bestRoundedValue",
        ]

    def test_deterministic_modulo_wall_time(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(self.bench_args(a))
        main(self.bench_args(b))

        def strip(path):
            with path.open() as fh:
                return [
                    {k: v for k, v in row.items() if k != "wallTimeMs"}
                    for row in csv.DictReader(fh)
                ]

        assert strip(a) == strip(b)
        assert a.with_name("a.csv.summary").read_text() == b.with_name("b.csv.summary").read_text()

    def test_bad_s_range_is_usage_error(self, tmp_path, capsys):
        rc = main(
            [
                "bench",
                "--size",
                "12x6",
                "--density",
                "0.5",
                "--s-range",
                "8:4",
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        assert rc == 1

    def test_s_exceeding_m_is_input_error(self, tmp_path, capsys):
        rc = main(
            [
                "bench",
                "--size",
                "6x4",
                "--density",
                "0.5",
                "--s-range",
                "4:8:2",
                "--seed",
                "1",
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        assert rc == 2


class TestTopLevel:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "build-matrix" in capsys.readouterr().out

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 1


class TestPathErrors:
    """A path that cannot be read or written is bad input: exit 2, no traceback."""

    SOLVE = ["--s", "4", "--objective", "cmin", "--alg", "rcm", "--seed", "1"]

    @staticmethod
    def sidecar_is_directory(tmp_path):
        matrix = tmp_path / "g.matrix"
        write_matrix(matrix, golden.instance())
        names_path_for(matrix).unlink()
        names_path_for(matrix).mkdir()
        return ["solve", matrix, *TestPathErrors.SOLVE], names_path_for(matrix)

    @staticmethod
    def matrix_not_utf8(tmp_path):
        matrix = tmp_path / "g.matrix"
        matrix.write_bytes(b"# \xff\xfe\n1 1\n1\n")
        return ["solve", matrix, *TestPathErrors.SOLVE], matrix

    @staticmethod
    def fasta_not_utf8(tmp_path):
        clones, probes = tmp_path / "c.fa", tmp_path / "p.fa"
        clones.write_bytes(b">c1\nAC\xffGT\n")
        probes.write_text(">p1\nAC\n")
        return ["build-matrix", clones, probes, tmp_path / "o.matrix"], clones

    @staticmethod
    def solve_out_missing_dir(tmp_path):
        matrix = tmp_path / "g.matrix"
        write_matrix(matrix, golden.instance())
        out = tmp_path / "missing" / "r.json"
        return ["solve", matrix, *TestPathErrors.SOLVE, "--out", out], out

    @staticmethod
    def bench_out_missing_dir(tmp_path):
        out = tmp_path / "missing" / "b.csv"
        argv = ["bench", "--size", "6x3", "--density", "0.5", "--s-range", "2:3", "--trials", "1"]
        return [*argv, "--seed", "1", "--out", out], out

    @staticmethod
    def gen_out_missing_dir(tmp_path):
        out = tmp_path / "missing" / "g.matrix"
        argv = ["gen", "--kind", "random", "--m", "4", "--n", "3", "--density", "0.5"]
        return [*argv, "--seed", "1", "--out", out], out

    @pytest.mark.parametrize(
        "case",
        [
            "sidecar_is_directory",
            "matrix_not_utf8",
            "fasta_not_utf8",
            "solve_out_missing_dir",
            "bench_out_missing_dir",
            "gen_out_missing_dir",
        ],
    )
    def test_exit_2_naming_the_path(self, tmp_path, case):
        argv, path = getattr(self, case)(tmp_path)
        env = dict(os.environ, PYTHONPATH=str(Path(balancedcover.__file__).parent.parent))
        proc = subprocess.run(
            [sys.executable, "-m", "balancedcover.cli", *map(str, argv)],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert str(path) in proc.stderr
        assert "Traceback" not in proc.stderr
