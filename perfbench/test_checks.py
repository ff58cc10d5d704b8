"""The benchmark's checks accept the program's real output and reject planted faults.

    python3 -m pytest perfbench/test_checks.py -q
"""

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from balancedcover import gen_set_cover, gen_x3c, perfect_balance_exists, size_s_cover_exists  # noqa: E402

S = 6


@pytest.fixture
def tiny(tmp_path):
    a = (np.random.default_rng(11).random((12, 7)) < 0.5).astype(np.int64)
    path = tmp_path / "tiny.matrix"
    workloads._write_matrix(path, a)
    return a, path


def solve_record(tmp_path, path, alg):
    out = tmp_path / f"{alg}.json"
    res = workloads.run_cli(["solve", path, "--s", S, "--objective", checks.ALG_OBJECTIVE[alg],
                             "--alg", alg, "--seed", 3, "--restarts", 5, "--out", out])
    assert res.code == 0, res.stderr
    return json.loads(out.read_text())


@pytest.mark.parametrize("alg", ["rcm", "rdm", "rca"])
def test_accepts_real_solve_record(tmp_path, tiny, alg):
    a, path = tiny
    record = solve_record(tmp_path, path, alg)
    z = checks.lp_reference_value(a, S, checks.OBJECTIVE_LP[checks.ALG_OBJECTIVE[alg]])
    verdict = checks.check_solve_record(record, a, S, alg, z)
    assert verdict.problems == [] and verdict.lp_mismatch is None


def test_rejects_degree_off_by_one(tmp_path, tiny):
    a, path = tiny
    record = solve_record(tmp_path, path, "rcm")
    record["degrees"][0] += 1
    z = checks.lp_reference_value(a, S, "minlp")
    assert any("degrees" in p for p in checks.check_solve_record(record, a, S, "rcm", z).problems)


def test_rejects_shifted_lp_value(tmp_path, tiny):
    a, path = tiny
    record = solve_record(tmp_path, path, "rcm")
    record["lpValue"] += 1e-3
    z = checks.lp_reference_value(a, S, "minlp")
    assert checks.check_solve_record(record, a, S, "rcm", z).lp_mismatch is not None


def test_rejects_extra_clone(tmp_path, tiny):
    a, path = tiny
    record = solve_record(tmp_path, path, "rdm")
    extra = next(i for i in range(a.shape[0]) if i not in record["selectedIndices"])
    record["selectedIndices"] = sorted(record["selectedIndices"] + [extra])
    record["degrees"] = [int(d) for d in a[record["selectedIndices"]].sum(axis=0)]
    z = checks.lp_reference_value(a, S, "maxlp")
    problems = checks.check_solve_record(record, a, S, "rdm", z).problems
    assert any(f"{S + 1} clones selected" in p for p in problems)


def test_bench_rows_accepted_and_shifted_lp_rejected(tmp_path):
    out = tmp_path / "b.csv"
    res = workloads.run_cli(["bench", "--size", "14x6", "--density", "0.5", "--s-range", "3:9:3",
                             "--alg", "rcm", "--alg", "rdm", "--trials", 2, "--seed", 9, "--out", out])
    assert res.code == 0, res.stderr
    rows = checks.parse_bench_csv(out.read_text())

    def reference(matrix_id, s, formulation):
        assert matrix_id == "m14n6d0.5i0"
        return checks.lp_reference_value(checks.bench_matrix(9, 0, 14, 6, 0.5), s, formulation)

    verdict = checks.check_bench_rows(rows, 12, reference)
    assert verdict.problems == [] and verdict.lp_mismatch is None
    bad = copy.deepcopy(rows)
    bad[0]["lpValue"] = repr(float(bad[0]["lpValue"]) + 1e-3)
    assert checks.check_bench_rows(bad, 12, reference).lp_mismatch is not None
    assert checks.check_bench_rows(rows[1:], 12, reference).problems


def test_oracle_payload_accepted_and_wrong_optimum_rejected(tiny):
    a, path = tiny
    res = workloads.run_cli(["oracle", path, "--s", S, "--objective", "cmin"])
    assert res.code == 0, res.stderr
    payload = json.loads(res.stdout)
    z = checks.lp_reference_value(a, S, "minlp")
    rng = np.random.default_rng(0)
    assert checks.check_oracle_payload(payload, a, S, "cmin", z, rng) == []
    payload["optimumExactNum"] += 1
    assert checks.check_oracle_payload(payload, a, S, "cmin", z, rng)


def test_decision_answers(tmp_path):
    red = gen_x3c(12, 8, plant_cover=True, seed=2, solve_ground_truth=False)
    answer = perfect_balance_exists(red.instance, red.s)
    assert checks.check_x3c_answer(red.universe_size, red.triples, answer) == []
    assert checks.check_x3c_answer(red.universe_size, red.triples, not answer)
    cover = gen_set_cover(8, 10, 3, 3, seed=4, solve_ground_truth=False)
    answer = size_s_cover_exists(cover.instance, cover.s)
    assert checks.check_set_cover_answer(cover.universe_size, cover.family, cover.target_size, answer) == []
    assert checks.check_set_cover_answer(cover.universe_size, cover.family, cover.target_size, not answer)


def test_matrix_output_against_substring_search(tmp_path):
    clones = ["ACGTACGGTTCA", "TTTTGGGGCCCC", "GATTACAGATTACA"]
    probes = ["ACGG", "CCAA", "TGTA", "GGGG"]
    workloads._write_fasta(tmp_path / "c.fa", "c", clones)
    workloads._write_fasta(tmp_path / "p.fa", "p", probes)
    out = tmp_path / "o.matrix"
    assert workloads.run_cli(["build-matrix", tmp_path / "c.fa", tmp_path / "p.fa", out]).code == 0
    expected = checks.hybridization_matrix(clones, probes)
    assert expected.tolist() == [[1, 0, 0, 0], [0, 1, 0, 1], [0, 0, 1, 0]]
    assert checks.check_matrix_output(out.read_text(), expected) == []
    flipped = expected.copy()
    flipped[1, 2] ^= 1
    assert checks.check_matrix_output(out.read_text(), flipped)


def test_all_objectives_identities():
    a = (np.random.default_rng(5).random((10, 5)) < 0.5).astype(np.int64)
    from balancedcover import Instance, exact_all_objectives

    found = {k.value: (r.optimum_num, r.optimum_den, list(r.witness)) for k, r in exact_all_objectives(Instance(a), 4).items()}
    refs = {obj: checks.lp_reference_value(a, 4, checks.OBJECTIVE_LP[obj]) for obj in ("cmin", "cavg", "dmax")}
    assert checks.check_all_objectives(found, a, 4, refs) == []
    num, den, w = found["dmax"]
    found["dmax"] = (num - 1, den, w)
    assert checks.check_all_objectives(found, a, 4, refs)
