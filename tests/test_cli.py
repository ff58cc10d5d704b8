"""End-to-end CLI behavior: files in, files/JSON out, exit codes."""

import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import golden
import balancedcover
from balancedcover import cli, lp, rounding, simplex
from balancedcover.cli import main
from balancedcover.core import ObjectiveKind
from balancedcover.formats import format_matrix, names_path_for, parse_matrix, read_matrix, write_matrix
from balancedcover.generators import gen_random
from balancedcover.ingest import matches
from balancedcover.lp import Formulation, solve_formulation, solve_sweep
from balancedcover.rounding import (
    ALGORITHM_FORMULATION,
    ALGORITHM_OBJECTIVE,
    Algorithm,
    RoundingConfig,
    derive_trial_seed,
    solve_end_to_end,
)


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

    def test_matrix_agrees_with_pairwise_matches(self, tmp_path, golden_files):
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

    def test_unwritable_out_refused_before_the_solve(self, golden_matrix, tmp_path, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("the solve ran before --out was checked")

        monkeypatch.setattr(cli, "solve_end_to_end", no_solve)
        out = tmp_path / "missing" / "r.json"
        rc = main(["solve", str(golden_matrix), "--s", "6", "--objective", "cmin", "--alg", "rcm", "--seed", "5",
                   "--out", str(out)])
        assert rc == 2
        assert f"error: cannot write {out}: " in capsys.readouterr().err
        assert not out.parent.exists()

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

    def test_failed_residual_certificate_exits_4(self, golden_matrix, capsys, monkeypatch):
        real = lp.solve_simplex
        monkeypatch.setattr(
            lp, "solve_simplex", lambda *a, **kw: dataclasses.replace(real(*a, **kw), residual_bound=1.0)
        )
        rc = main(["solve", str(golden_matrix), "--s", "6", "--objective", "cmin", "--alg", "rcm", "--seed", "5"])
        captured = capsys.readouterr()
        assert rc == 4
        assert captured.out == ""
        assert "minlp(m=8, n=7, s=6): bound residual 1.000e+00" in captured.err
        assert "Traceback" not in captured.err

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

    def test_payloads_pinned(self, tmp_path, capsys):
        # Every objective at s = 9 on three seeded 18x10 matrices, keyed
        # "density/seed/objective"; the payloads were recorded from the
        # enumeration that built one table per size, and the printed JSON
        # must match them byte for byte.  On the density-0.8 matrix the
        # at-most witnesses have 5 clones.
        expected = json.loads((Path(__file__).parent / "oracle_golden.json").read_text())
        assert len(expected) == 12
        for key, payload in expected.items():
            density, seed, objective = key.split("/")
            path = tmp_path / f"m{seed}.matrix"
            write_matrix(path, gen_random(18, 10, float(density), int(seed)))
            assert main(["oracle", str(path), "--s", "9", "--objective", objective]) == 0
            assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"
            assert ("enumeratedAtMostS" in payload) == ObjectiveKind(objective).maximize

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
        for given, missing in [
            (["--kind", "random", "--m", "10"], ["--n", "--density"]),
            (["--kind", "x3c", "--triples", "4"], ["--universe"]),
            (["--kind", "setcover"], ["--universe", "--target-b"]),
            (["--kind", "setcover", "--universe", "5"], ["--target-b"]),
            (["--kind", "replicate", "--r", "2"], ["--input"]),
        ]:
            assert main(["gen", *given, "--seed", "1", "--out", str(tmp_path / "o")]) == 1
            err = capsys.readouterr().err
            assert all(flag in err for flag in missing), (given, err)
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize("algs", [["rcm", "rdm", "rca2"], ["rcm", "rcm"]], ids=["distinct", "repeated"])
    def test_summary_recomputed_from_csv(self, tmp_path, capsys, algs):
        out = tmp_path / "bench.csv"
        argv = ["bench", "--size", "12x6", "--size", "10x5", "--density", "0.5", "--s-range", "2:8:3"]
        argv += [flag for alg in algs for flag in ("--alg", alg)]
        assert main([*argv, "--trials", "3", "--seed", "4", "--out", str(out)]) == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        with out.with_name(out.name + ".summary").open() as fh:
            summary = list(csv.DictReader(fh))
        key_columns = ["matrixId", "m", "n", "density", "s", "objective", "algorithm"]
        cells = {}
        for row in rows:
            cells.setdefault(tuple(row[c] for c in key_columns), []).append(row)
        # one summary row per (matrix, s, algorithm) cell, in the order the cells first appear
        assert [tuple(r[c] for c in key_columns) for r in summary] == list(cells)
        assert len(summary) == 2 * 3 * len(set(algs))
        for srow, cell in zip(summary, cells.values()):
            # a repeated --alg merges into one cell
            assert int(srow["trials"]) == len(cell) == 3 * algs.count(srow["algorithm"])
            assert srow["lpValue"] == cell[0]["lpValue"]
            values = [float(r["roundedValue"]) for r in cell]
            ratios = [float(r["ratio"]) for r in cell]
            best = max(values) if ObjectiveKind(srow["objective"]).maximize else min(values)
            assert srow["meanRoundedValue"] == f"{sum(values) / len(values):.10g}"
            assert srow["meanRatio"] == f"{sum(ratios) / len(ratios):.10g}"
            assert srow["bestRoundedValue"] == f"{best:.10g}"

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

    # s = 6 fits the first size, 6x4, and not the second, 5x3
    @pytest.mark.parametrize("s_range, bad, size", [("0:2", 0, "6x4"), ("4:6:2", 6, "5x3")])
    def test_s_outside_one_to_m_refused_before_any_matrix(self, tmp_path, capsys, monkeypatch, s_range, bad, size):
        def no_matrix(*args, **kwargs):
            raise AssertionError("a matrix was generated before the budgets were checked")

        monkeypatch.setattr(cli, "gen_random", no_matrix)
        argv = ["bench", "--size", "6x4", "--size", "5x3", "--density", "0.5", "--s-range", s_range]
        assert main([*argv, "--seed", "1", "--out", str(tmp_path / "x.csv")]) == 2
        assert f"--s-range s={bad} must lie in [1, {size[0]}] for size {size}" in capsys.readouterr().err

    def test_sweep_rows_match_cold_solves_and_derived_seeds(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        argv = ["bench", "--size", "30x8", "--density", "0.5", "--s-range", "1:30"]
        argv += ["--alg", "rcm", "--alg", "rdm", "--alg", "rca", "--trials", "2", "--seed", "5", "--out", str(out)]
        assert main(argv) == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))

        def mixed(*parts):
            acc = 0
            for p in parts:
                acc = derive_trial_seed(acc, p)
            return acc

        # the one matrix, its seed derived from (seed, matrix counter 0)
        inst = gen_random(30, 8, 0.5, mixed(5, 0))
        expected, cold = [], []
        for s in range(1, 31):
            for alg_index, alg in enumerate(("rcm", "rdm", "rca")):
                z = solve_formulation(inst, s, ALGORITHM_FORMULATION[Algorithm(alg)]).z_star
                for trial in range(2):
                    expected.append((str(s), alg, str(trial), str(mixed(5, 0, s, alg_index, trial))))
                    cold.append(z)
        assert [(r["s"], r["algorithm"], r["trial"], r["seed"]) for r in rows] == expected
        # lpValue is the z* of a standalone cold solve, though the bench warm-starts
        assert [row["lpValue"] for row in rows] == [f"{z:.10g}" for z in cold]

    @staticmethod
    def every_alg_argv(out, trials, *densities):
        argv = ["bench", "--size", "20x6", "--s-range", "2:18:4", "--trials", str(trials), "--seed", "11"]
        argv += [flag for d in densities for flag in ("--density", str(d))]
        return argv + [flag for alg in Algorithm for flag in ("--alg", alg.value)] + ["--out", str(out)]

    @staticmethod
    def without_wall_time(path):
        with path.open() as fh:
            return [{k: v for k, v in row.items() if k != "wallTimeMs"} for row in csv.DictReader(fh)]

    def test_rows_match_one_restart_solves_off_the_sweep(self, tmp_path, capsys):
        # a cell's trials round in one block; each row's value is still the best.value of a
        # one-restart solve_end_to_end with the row's seed, off the sweep's LP solution at its s
        out = tmp_path / "bench.csv"
        assert main(self.every_alg_argv(out, 3, 0.3, 0.6)) == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        s_values = list(range(2, 19, 4))
        assert len(rows) == 2 * len(s_values) * len(Algorithm) * 3
        for counter, density in enumerate((0.3, 0.6)):
            inst = gen_random(20, 6, density, cli._mix_seed(11, counter))
            sweeps = {f: solve_sweep(inst, s_values, f) for f in Formulation}
            for row in rows:
                if row["matrixId"] != f"m20n6d{density}i{counter}":
                    continue
                alg, s = Algorithm(row["algorithm"]), int(row["s"])
                lp_solution = sweeps[ALGORITHM_FORMULATION[alg]][s_values.index(s)]
                config = RoundingConfig(alg, seed=int(row["seed"]), restarts=1)
                report = solve_end_to_end(inst, s, config, lp_solution=lp_solution)
                assert row["roundedValue"] == f"{report.best.value(ALGORITHM_OBJECTIVE[alg]):.10g}"

    def test_a_cell_split_into_blocks_writes_the_same_rows(self, tmp_path, capsys, monkeypatch):
        whole, split = tmp_path / "whole.csv", tmp_path / "split.csv"
        assert main(self.every_alg_argv(whole, 7, 0.5)) == 0
        # at most two 20-clone trials per block: each cell of seven trials runs in four blocks
        monkeypatch.setattr(rounding, "_BLOCK_CELLS", 2 * 20)
        sizes = []
        real = rounding._round_block

        def spy(*args):
            sizes.append(len(args[-1]))
            return real(*args)

        monkeypatch.setattr(rounding, "_round_block", spy)
        assert main(self.every_alg_argv(split, 7, 0.5)) == 0
        assert sizes == [2, 2, 2, 1] * (5 * len(Algorithm))
        assert self.without_wall_time(split) == self.without_wall_time(whole)
        assert split.with_name("split.csv.summary").read_text() == whole.with_name("whole.csv.summary").read_text()

    def test_bad_residual_at_a_later_s_exits_4_naming_it(self, tmp_path, capsys, monkeypatch):
        # the third s after the first, s = 14, is certified against its own right-hand side and label
        real = simplex._Engine.resolve
        calls = []

        def resolve(engine, rhs):
            calls.append(rhs)
            res = real(engine, rhs)
            return dataclasses.replace(res, residual_bound=1.0) if len(calls) == 3 else res

        monkeypatch.setattr(simplex._Engine, "resolve", resolve)
        assert main(self.every_alg_argv(tmp_path / "bench.csv", 1, 0.5)) == 4
        err = capsys.readouterr().err
        assert "minlp(m=20, n=6, s=14): bound residual 1.000e+00" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("bad", ["out_dir_missing", "summary_is_directory"])
    def test_unwritable_out_refused_before_any_solve(self, tmp_path, capsys, monkeypatch, bad):
        def no_solve(*args, **kwargs):
            raise AssertionError("an LP was solved before the outputs were checked")

        monkeypatch.setattr(cli, "solve_sweep", no_solve)
        if bad == "out_dir_missing":
            out = path = tmp_path / "missing" / "bench.csv"
        else:
            out = tmp_path / "bench.csv"
            path = tmp_path / "bench.csv.summary"
            path.mkdir()
        assert main(self.bench_args(out)) == 2
        assert str(path) in capsys.readouterr().err
        # the check leaves no file behind
        assert not out.exists()


class TestTopLevel:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "build-matrix" in capsys.readouterr().out

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 1


def run_cli(argv, stdout=subprocess.PIPE, **env):
    """Run the CLI in a fresh interpreter, ``env`` added to its environment: (exit code, stderr)."""
    env = dict(os.environ, PYTHONPATH=str(Path(balancedcover.__file__).parent.parent), **env)
    proc = subprocess.run(
        [sys.executable, "-m", "balancedcover.cli", *map(str, argv)],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        timeout=120,
    )
    return proc.returncode, proc.stderr


class TestBadFlagValues:
    """A flag value the CLI cannot use ends in its exit code, not a traceback."""

    def test_unknown_bench_algorithm_is_usage_error(self, tmp_path):
        out = tmp_path / "b.csv"
        argv = ["bench", "--size", "6x3", "--density", "0.5", "--s-range", "2:3", "--alg", "foo", "--out", out]
        rc, err = run_cli(argv)
        assert rc == 1, err
        assert "--alg" in err and "foo" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--kind", "random", "--m", "4", "--n", "3", "--density", "0.5"],
            ["--kind", "x3c", "--universe", "6"],
            ["--kind", "setcover", "--universe", "5", "--target-b", "2"],
        ],
        ids=["random", "x3c", "setcover"],
    )
    def test_negative_gen_seed_is_input_error(self, tmp_path, flags):
        out = tmp_path / "g.matrix"
        rc, err = run_cli(["gen", *flags, "--seed", "-1", "--out", out])
        assert rc == 2, err
        assert "seed -1" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, stray",
        [
            (["--kind", "random", "--m", "4", "--n", "3", "--density", "0.5", "--universe", "6", "--triples", "9",
              "--plant-cover", "--seed", "1"], ["--universe", "--triples", "--plant-cover"]),
            (["--kind", "x3c", "--universe", "6", "--m", "50", "--seed", "1"], ["--m"]),
            (["--kind", "setcover", "--universe", "5", "--target-b", "2", "--r", "2", "--max-set-size", "4",
              "--seed", "1"], ["--r"]),
            (["--kind", "replicate", "--input", "SOURCE", "--r", "2", "--seed", "5"], ["--seed"]),
        ],
        ids=["random", "x3c", "setcover", "replicate"],
    )
    def test_flag_of_another_kind_is_usage_error(self, tmp_path, flags, stray):
        source = tmp_path / "source.matrix"
        write_matrix(source, golden.instance())
        out = tmp_path / "g.matrix"
        rc, err = run_cli(["gen", *(source if f == "SOURCE" else f for f in flags), "--out", out])
        assert rc == 1, err
        assert all(flag in err for flag in stray), err
        # a flag the kind takes, or one left at its default, is not named
        assert "--max-set-size" not in err
        assert "Traceback" not in err
        assert not out.exists()


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
        rc, err = run_cli(argv)
        assert rc == 2, err
        assert str(path) in err
        assert "Traceback" not in err


class TestClosedStdout:
    """A reader that closes stdout before the output is written ends the run in exit 1, not a traceback."""

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", ["oracle", "solve", "bench", "--help"])
    def test_exit_1_without_traceback(self, tmp_path, command, unbuffered):
        matrix = tmp_path / "g.matrix"
        write_matrix(matrix, golden.instance())
        argv = {
            "oracle": ["oracle", matrix, "--s", "4", "--objective", "cavg"],
            "solve": ["solve", matrix, *TestPathErrors.SOLVE],
            "bench": ["bench", "--size", "6x3", "--density", "0.5", "--s-range", "2:3", "--trials", "1",
                      "--seed", "1", "--out", tmp_path / "b.csv"],
            "--help": ["--help"],
        }[command]
        read_end, write_end = os.pipe()
        # with no reader left, every write to the pipe fails with EPIPE
        os.close(read_end)
        try:
            rc, err = run_cli(argv, stdout=write_end, PYTHONUNBUFFERED=unbuffered)
        finally:
            os.close(write_end)
        assert (rc, err) == (1, "")
