"""The float simplex against scipy's HiGHS on inputs that make it pivot hard.

Clone families of point mutants are massively primal degenerate: a MinLP
started at x = 0 has every probe row's slack basic at 0, and the rows of
clones copied from one template are nearly equal.  On seed 1 a long
degenerate run used to end in a wrong MinLP z*, and on seed 27 in a wrong
MaxLP z*, because the row-updated tableau drifted.  Solves start from a
primal feasible crash basis instead.  The remaining cases are the
pivot stress inputs: replicated, duplicate and complementary probe
columns, constant matrices, the two hardness reductions, and the
extreme budgets s = 1 and s = m.

The same inputs check the warm-started sweep over s against standalone
(crash-started) solves and HiGHS, and small slices of them check the
exact Fraction mode.  HiGHS solves the textbook MaxLP that ``build_lp``
writes, with its `>=` and `=` rows, while the package reads MaxLP off
MinLP; its x* and z* must also meet the textbook rows.  HiGHS also
solves the textbook AvgLP, while the package solves AvgLP as an L1 fit
of n + 2 rows; in exact mode its x* must be an optimal textbook point.
"""

from fractions import Fraction

import numpy as np
import pytest

from balancedcover import (
    Formulation,
    Instance,
    build_lp,
    gen_random,
    solve_formulation,
    solve_lp,
    solve_sweep,
)
from balancedcover.generators import gen_set_cover, gen_x3c, replicate_probes
from balancedcover.ingest import reverse_complement

linprog = pytest.importorskip("scipy.optimize").linprog

_BASES = np.frombuffer(b"ACGT", dtype=np.uint8)


def clone_family(seed, clones=400, templates=40, length=1500, mutations=15, probes=40):
    """Point mutants of random templates against random 6- and 7-mer probes."""
    rng = np.random.default_rng([seed, 1, 0])
    tmpl = rng.integers(0, 4, size=(templates, length))
    seqs = []
    for i in range(clones):
        bases = tmpl[i % templates].copy()
        pos = rng.choice(length, size=mutations, replace=False)
        bases[pos] = (bases[pos] + rng.integers(1, 4, size=mutations)) % 4
        seqs.append(_BASES[bases].tobytes().decode())
    kmers = [_BASES[rng.integers(0, 4, size=6 + j % 2)].tobytes().decode() for j in range(probes)]
    a = [[p in c or reverse_complement(p) in c for p in kmers] for c in seqs]
    return Instance(np.array(a, dtype=np.int8))


def row_violation(problem, x, z):
    """Largest violation of ``problem``'s rows and bounds at (x, z); exact for Fractions."""
    point = np.append(x, z)
    A, rhs = problem.A, problem.rhs
    if point.dtype == object:
        A, rhs = (np.vectorize(Fraction, otypes=[object])(v) for v in (A, rhs))
    lhs = A.dot(point) - rhs
    rel = np.array(problem.relations)
    rows = np.where(rel == "<=", lhs, np.where(rel == ">=", -lhs, abs(lhs)))
    return max(rows.max(), (problem.lower - point).max(), (point - problem.upper).max())


def highs_optimum(problem):
    """The reported optimum of an LpProblem, solved by HiGHS from its rows."""
    rel = np.array(problem.relations)
    sign = np.where(rel == ">=", -1.0, 1.0)
    ub, eq = rel != "=", rel == "="
    res = linprog(
        -problem.c if problem.maximize else problem.c,
        A_ub=(sign[:, None] * problem.A)[ub] if ub.any() else None,
        b_ub=(sign * problem.rhs)[ub] if ub.any() else None,
        A_eq=problem.A[eq] if eq.any() else None,
        b_eq=problem.rhs[eq] if eq.any() else None,
        bounds=list(zip(problem.lower, np.where(np.isinf(problem.upper), None, problem.upper))),
        method="highs",
    )
    assert res.status == 0, res.message
    num, den = problem.objective_scale
    return (-res.fun if problem.maximize else res.fun) * num / den


def _duplicated():
    a = gen_random(40, 8, 0.3, seed=4).adjacency
    return Instance(np.hstack([a, a[:, :4]]))


def _complementary():
    a = gen_random(40, 8, 0.3, seed=5).adjacency
    return Instance(np.hstack([a, 1 - a]))


# case -> (instance, budgets)
CASES = {
    "clone_family_seed1": (lambda: clone_family(1), (40, 100)),
    "clone_family_seed27": (lambda: clone_family(27), (40, 100)),
    "replicate_probes": (lambda: replicate_probes(gen_random(50, 10, 0.5, seed=3), 3), None),
    "all_ones": (lambda: Instance(np.ones((30, 8), dtype=np.int8)), None),
    "all_zeros": (lambda: Instance(np.zeros((30, 8), dtype=np.int8)), None),
    "duplicate_columns": (_duplicated, None),
    "complementary_columns": (_complementary, None),
    "x3c": (lambda: gen_x3c(30, 40, plant_cover=True, seed=1, solve_ground_truth=False).instance, None),
    "set_cover": (lambda: gen_set_cover(20, 30, 5, 6, seed=2, solve_ground_truth=False).instance, None),
}


@pytest.mark.parametrize("case", list(CASES))
def test_float_simplex_agrees_with_highs(case):
    make, budgets = CASES[case]
    instance = make()
    m = instance.num_clones
    wrong = []
    for s in budgets or (1, m // 2, m):
        for formulation in Formulation:
            problem = build_lp(instance, s, formulation)
            sol = solve_formulation(instance, s, formulation)
            # the crash basis is primal feasible: the solve runs no dual pivot
            assert sol.stats.dual_iterations == 0
            ref = highs_optimum(problem)
            if abs(sol.z_star - ref) > 1e-9 * max(1.0, abs(ref)) or sol.stats.residual_bound > 1e-9:
                stats = sol.stats
                wrong.append(
                    f"{problem.label}: z* {sol.z_star!r} vs HiGHS {ref!r} after {stats.iterations} "
                    f"iterations, residual_bound {stats.residual_bound:.3g}"
                )
            # MaxLP is read off MinLP: (x*, z*) must meet the textbook rows HiGHS solved, sum x = s among them
            if formulation is Formulation.MAXLP and (gap := row_violation(problem, sol.x, sol.z_star)) > 1e-9:
                wrong.append(f"{problem.label}: textbook row violation {gap:.3g}")
    assert not wrong, "\n".join(wrong)


@pytest.mark.parametrize("case", list(CASES))
def test_warm_sweep_agrees_with_cold_and_highs(case):
    make, budgets = CASES[case]
    instance = make()
    # s = 1..m, or s = 40..100 step 10 on the 400-clone families
    s_values = list(range(40, 101, 10) if budgets else range(1, instance.num_clones + 1))
    wrong = []
    for formulation in Formulation:
        sweep = solve_sweep(instance, s_values, formulation)
        again = solve_sweep(instance, s_values, formulation)
        assert sweep[0].stats.dual_iterations == 0
        assert all(0 <= sol.stats.dual_iterations <= sol.stats.iterations for sol in sweep)
        for s, sol, rerun in zip(s_values, sweep, again):
            assert (sol.x.tobytes(), sol.z_star, sol.stats.iterations, sol.stats.basis) == (
                rerun.x.tobytes(),
                rerun.z_star,
                rerun.stats.iterations,
                rerun.stats.basis,
            )
            problem = build_lp(instance, s, formulation)
            alone = solve_formulation(instance, s, formulation).z_star
            ref = highs_optimum(problem)
            tol = 1e-9 * max(1.0, abs(ref))
            if abs(sol.z_star - alone) > tol or abs(sol.z_star - ref) > tol or sol.stats.residual_bound > 1e-9:
                wrong.append(
                    f"{problem.label}: sweep z* {sol.z_star!r} vs standalone {alone!r} vs HiGHS {ref!r}, "
                    f"residual_bound {sol.stats.residual_bound:.3g}"
                )
            # the MinLP sweep's x* often sums to less than s here, so MaxLP's x* is raised
            if formulation is Formulation.MAXLP and (gap := row_violation(problem, sol.x, sol.z_star)) > 1e-9:
                wrong.append(f"{problem.label}: sweep textbook row violation {gap:.3g}")
    assert not wrong, "\n".join(wrong)


# small inputs that the exact Fraction mode solves in about a second for s = 1, m/2 and m
EXACT_CASES = {
    "all_ones": CASES["all_ones"][0],
    "all_zeros": CASES["all_zeros"][0],
    # 16 clones, probes 1-4 and their duplicates
    "duplicate_columns_16x8": lambda: Instance(_duplicated().adjacency[:16][:, [0, 1, 2, 3, 8, 9, 10, 11]]),
    "set_cover_20x8": lambda: Instance(CASES["set_cover"][0]().adjacency[:20, :8]),
}


@pytest.mark.parametrize("case", list(EXACT_CASES))
def test_exact_mode_agrees_with_highs_and_float(case):
    instance = EXACT_CASES[case]()
    m = instance.num_clones
    wrong = []
    for s in (1, m // 2, m):
        for formulation in Formulation:
            problem = build_lp(instance, s, formulation)
            exact = solve_formulation(instance, s, formulation, exact=True).z_star
            assert isinstance(exact, Fraction)
            ref = highs_optimum(problem)
            flt = solve_formulation(instance, s, formulation).z_star
            tol = 1e-9 * max(1.0, abs(ref))
            if abs(exact - ref) > tol or abs(exact - flt) > tol:
                wrong.append(f"{problem.label}: exact z* {exact} vs HiGHS {ref!r} vs float {flt!r}")
    assert not wrong, "\n".join(wrong)


@pytest.mark.parametrize("case", list(EXACT_CASES))
def test_exact_minlp_and_maxlp_sum_to_half_the_budget(case):
    instance = EXACT_CASES[case]()
    m = instance.num_clones
    for s in (1, m // 2, m):
        minlp = solve_formulation(instance, s, Formulation.MINLP, exact=True)
        maxlp = solve_formulation(instance, s, Formulation.MAXLP, exact=True)
        assert minlp.z_star + maxlp.z_star == Fraction(s, 2)
        assert row_violation(build_lp(instance, s, Formulation.MAXLP), maxlp.x, maxlp.z_star) <= 0
        assert sum(maxlp.x) == s


@pytest.mark.parametrize("case", list(EXACT_CASES))
def test_exact_l1_avglp_is_the_textbook_avglp(case):
    instance = EXACT_CASES[case]()
    m, n = instance.num_clones, instance.num_probes
    for s in (1, m // 2, m):
        problem = build_lp(instance, s, Formulation.AVGLP)
        avglp = solve_formulation(instance, s, Formulation.AVGLP, exact=True)
        assert avglp.z_star == solve_lp(problem, exact=True).z_star
        # x* with its textbook margins z_j = min(deg_j, s - deg_j) is an optimal textbook point
        deg = instance.adjacency.T.dot(avglp.x)
        z = np.array([min(d, s - d) for d in deg], dtype=object)
        assert row_violation(problem, avglp.x, z) <= 0
        assert sum(z) / n == avglp.z_star
        assert sum(avglp.x) == s
