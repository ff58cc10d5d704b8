"""Bounded-variable simplex engine on `<=` systems, from the slack basis and over a sequence of right-hand sides."""

from fractions import Fraction

import numpy as np
import pytest

import golden
from balancedcover import lp
from balancedcover.errors import SolverError
from balancedcover.generators import gen_random
from balancedcover.lp import Formulation
from balancedcover.simplex import _Engine, solve_simplex, solve_simplex_sweep

scipy_linprog = pytest.importorskip("scipy.optimize").linprog


def solve(c, A, b, lower=None, upper=None, **kw):
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    nvars = A.shape[1]
    if lower is None:
        lower = np.zeros(nvars)
    if upper is None:
        upper = np.full(nvars, np.inf)
    return solve_simplex(c, A, b, np.asarray(lower, float), np.asarray(upper, float), **kw)


def sweep(c, A, rhs_values, upper=None, **kw):
    """The results of ``solve_simplex_sweep`` at each of ``rhs_values`` in turn, with lower bounds 0."""
    A = np.asarray(A, dtype=float)
    upper = np.full(A.shape[1], np.inf) if upper is None else np.asarray(upper, float)
    first, *later = (np.asarray(b, dtype=float) for b in rhs_values)
    engine = solve_simplex_sweep(np.asarray(c, float), A, first, np.zeros(A.shape[1]), upper, **kw)
    return [next(engine)] + [engine.send(b) for b in later]


class TestHandExamples:
    def test_basic_max(self):
        # max x + y subject to x + 2y <= 4, 3x + y <= 6.
        res = solve([1, 1], [[1, 2], [3, 1]], [4, 6], maximize=True)
        assert res.objective == pytest.approx(2.8)
        assert res.x == pytest.approx([1.6, 1.2])

    def test_basic_min(self):
        # min x - 3y subject to -x + y <= 1, x + y <= 5.
        res = solve([1, -3], [[-1, 1], [1, 1]], [1, 5])
        assert res.objective == pytest.approx(-7.0)
        assert res.x == pytest.approx([2.0, 3.0])

    def test_upper_bounded_variables(self):
        # max x + y with x, y <= 1.5 each and x + y <= 2.5.
        res = solve([1, 1], [[1, 1]], [2.5], upper=[1.5, 1.5], maximize=True)
        assert res.objective == pytest.approx(2.5)
        assert max(res.x) <= 1.5 + 1e-9

    def test_bound_flip_only_optimum(self):
        # max x + 2y with 0 <= x,y <= 1 and a slack constraint: the
        # optimum sits at the upper bounds, reached by bound flips.
        res = solve([1, 2], [[1, 1]], [10], upper=[1, 1], maximize=True)
        assert res.objective == pytest.approx(3.0)
        assert res.x == pytest.approx([1.0, 1.0])

    def test_nonzero_lower_bounds(self):
        # max 3x + y with x, y >= 2 and x + y <= 5: the slack starts at 5 - 4.
        res = solve([3, 1], [[1, 1]], [5], lower=[2, 2], maximize=True)
        assert res.objective == pytest.approx(11.0)
        assert res.x == pytest.approx([3.0, 2.0])

    def test_infeasible(self):
        # x <= 1 and x >= 2, the second row as -x <= -2: the slack start x = 0 violates it
        with pytest.raises(SolverError, match=r"slack start violates row 1 \(slack -2\.000e\+00\)"):
            solve([1], [[1], [-1]], [1, -2])

    def test_slack_start_checks_the_columns_at_upper(self):
        # x + y <= 1 holds at x = 0 but not with both columns at their upper bound 1
        with pytest.raises(SolverError, match="slack start violates row 0"):
            solve([1, 1], [[1, 1]], [1], upper=[1, 1], maximize=True, at_upper=(0, 1))

    def test_unbounded(self):
        # max x subject to x - y <= 1
        with pytest.raises(SolverError, match="unbounded"):
            solve([1, 0], [[1, -1]], [1], maximize=True)

    def test_iteration_limit(self):
        with pytest.raises(SolverError, match="iteration"):
            solve([1, 1], [[1, 2], [3, 1]], [4, 6], maximize=True, max_iterations=1)

    def test_degenerate_lp_terminates(self):
        # Multiple constraints active at the optimum vertex; Bland's
        # rule must prevent cycling.
        A = [[1, 1], [1, 1], [1, 1], [2, 1]]
        res = solve([1, 1], A, [2, 2, 2, 3], maximize=True)
        assert res.objective == pytest.approx(2.0)


class TestExactMode:
    def test_exact_fractions(self):
        res = solve([1, 1], [[1, 2], [3, 1]], [4, 6], maximize=True, exact=True)
        assert res.objective == Fraction(14, 5)
        assert list(res.x) == [Fraction(8, 5), Fraction(6, 5)]
        # equality would also pass for an int leaking from the dtype-generic arrays
        assert type(res.objective) is Fraction
        assert all(type(v) is Fraction for v in res.x)

    def test_exact_matches_float(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            nrows, ncols = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            A = rng.integers(-3, 4, size=(nrows, ncols))
            c = rng.integers(-3, 4, size=ncols)
            b = rng.integers(1, 8, size=nrows)
            upper = np.full(ncols, 5.0)
            try:
                exact = solve(c, A, b, upper=upper, maximize=True, exact=True)
            except SolverError:
                continue
            approx = solve(c, A, b, upper=upper, maximize=True)
            assert approx.objective == pytest.approx(float(exact.objective), abs=1e-9)

    @pytest.mark.parametrize("form", [Formulation.MINLP, Formulation.AVGLP], ids=lambda f: f.value)
    @pytest.mark.parametrize("seed", [None, 0, 1, 2, 3], ids=lambda v: "golden" if v is None else f"random{v}")
    def test_float_bland_rule_takes_the_exact_path(self, form, seed):
        # exact mode pivots by Bland's rule throughout; a float solve switched to it from the first
        # pivot must take the same path on these small LPs, crash start included
        if seed is None:
            instance, budgets = golden.instance(), (1, 4, 8)
        else:
            instance, budgets = gen_random(12, 8, 0.5, seed), (2, 5, 9)
        for s in budgets:
            problem = lp._solved_lp(instance, s, form, s)
            args = (problem.c, problem.A, problem.rhs, problem.lower, problem.upper, problem.maximize)
            at_upper = lp._crash_start(problem)
            engine = _Engine(*args, False, None, at_upper)
            engine.degen_limit = 0
            approx = engine.solve()
            exact = _Engine(*args, True, None, at_upper).solve()
            assert (approx.basis, approx.at_upper, approx.iterations) == (exact.basis, exact.at_upper, exact.iterations)

    def test_exact_mode_starts_columns_at_upper(self):
        # max x + y s.t. x + 2y <= 4, 3x + y <= 6, x <= 1, started with x at 1: optimum (1, 3/2)
        res = solve([1, 1], [[1, 2], [3, 1]], [4, 6], upper=[1, 5], maximize=True, exact=True, at_upper=(0,))
        assert res.objective == Fraction(5, 2)
        assert list(res.x) == [Fraction(1), Fraction(3, 2)]
        assert all(type(v) is Fraction for v in res.x)


class TestResidualsAndDeterminism:
    def test_residuals_reported_small(self):
        res = solve([1, -3], [[-1, 1], [1, 1]], [1, 5])
        assert res.residual_primal <= 1e-9
        assert res.residual_bound <= 1e-9
        assert res.residual_dual <= 1e-7

    def test_deterministic(self):
        a = solve([1, 1], [[1, 2], [3, 1]], [4, 6], maximize=True)
        b = solve([1, 1], [[1, 2], [3, 1]], [4, 6], maximize=True)
        assert a.objective == b.objective
        assert np.array_equal(a.x, b.x)
        assert a.basis == b.basis
        assert a.iterations == b.iterations


class TestAgainstScipy:
    def test_random_lps(self):
        rng = np.random.default_rng(20240817)
        solved = unbounded = 0
        for _ in range(300):
            nrows = int(rng.integers(1, 6))
            ncols = int(rng.integers(1, 6))
            A = rng.integers(-4, 5, size=(nrows, ncols)).astype(float)
            c = rng.integers(-4, 5, size=ncols).astype(float)
            # b >= 0, so the slack start x = 0 is feasible
            b = rng.integers(0, 9, size=nrows).astype(float)
            upper = np.where(rng.random(ncols) < 0.5, rng.integers(1, 6, size=ncols), np.inf)
            maximize = bool(rng.random() < 0.5)

            sign = -1.0 if maximize else 1.0
            ref = scipy_linprog(
                sign * c,
                A_ub=A,
                b_ub=b,
                bounds=[(0.0, u if np.isfinite(u) else None) for u in upper],
                method="highs",
                # HiGHS's presolve reports two of these unbounded LPs as infeasible
                options={"presolve": False},
            )

            if ref.status == 3:
                with pytest.raises(SolverError, match="unbounded"):
                    solve(c, A, b, upper=upper, maximize=maximize)
                unbounded += 1
                continue
            assert ref.status == 0
            res = solve(c, A, b, upper=upper, maximize=maximize)
            assert res.objective == pytest.approx(sign * ref.fun, abs=1e-7)
            solved += 1
        # The sweep must actually exercise the solver, not just the
        # unbounded path.
        assert solved >= 80 and unbounded >= 10


class TestWarmStart:
    """A sweep re-solves the same LP with another right-hand side from the last optimal basis."""

    def test_random_rhs_changes_match_cold_and_scipy(self):
        rng = np.random.default_rng(8675309)
        warm_solved = infeasible = 0
        for _ in range(200):
            nrows = int(rng.integers(1, 6))
            ncols = int(rng.integers(1, 7))
            A = rng.integers(-4, 5, size=(nrows, ncols)).astype(float)
            c = rng.integers(-4, 5, size=ncols).astype(float)
            # b >= 0 holds at x = 0, so the first solve starts from the slack basis
            b = rng.integers(0, 9, size=nrows).astype(float)
            upper = rng.integers(1, 6, size=ncols).astype(float)
            maximize = bool(rng.random() < 0.5)
            b2 = b + rng.integers(-4, 5, size=nrows)
            ref = scipy_linprog(
                (-1.0 if maximize else 1.0) * c,
                A_ub=A,
                b_ub=b2,
                bounds=[(0.0, u) for u in upper],
                method="highs",
            )
            if ref.status == 2:
                with pytest.raises(SolverError, match="infeasible"):
                    sweep(c, A, [b, b2], upper=upper, maximize=maximize)
                infeasible += 1
                continue
            assert ref.status == 0
            _, warm = sweep(c, A, [b, b2], upper=upper, maximize=maximize)
            assert 0 <= warm.dual_iterations <= warm.iterations
            assert warm.objective == pytest.approx((-1.0 if maximize else 1.0) * ref.fun, abs=1e-7)
            assert warm.residual_primal <= 1e-9 and warm.residual_bound <= 1e-9
            if (b2 >= 0).all():
                cold = solve(c, A, b2, upper=upper, maximize=maximize)
                assert cold.dual_iterations == 0
                assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
            else:
                with pytest.raises(SolverError, match="slack start violates row"):
                    solve(c, A, b2, upper=upper, maximize=maximize)
            warm_solved += 1
        # both outcomes of the dual phase are exercised
        assert warm_solved >= 100 and infeasible >= 10

    def test_same_rhs_needs_no_pivot(self):
        c, A, b = [1, 1], [[1, 2], [3, 1]], [4, 6]
        first, again = sweep(c, A, [b, b], maximize=True)
        assert again.iterations == 0
        assert again.basis == first.basis
        assert np.array_equal(again.x, first.x)

    def test_dual_pivots_restore_feasibility(self):
        # max x + y s.t. x + 2y <= 4, 3x + y <= 6: optimum (1.6, 1.2); with the
        # first row's rhs at 1 the old basis is infeasible and y leaves
        _, res = sweep([1, 1], [[1, 2], [3, 1]], [[4, 6], [1, 6]], maximize=True)
        assert res.objective == pytest.approx(1.0)
        assert res.x == pytest.approx([1.0, 0.0])
        assert res.dual_iterations == res.iterations == 1

    def test_bad_starts_refused(self):
        args = ([1, 1], [[1, 2], [3, 1]], [4, 6])
        # a slack column cannot sit at its infinite upper bound in the slack start
        with pytest.raises(SolverError, match="start is not a basis"):
            solve(*args, maximize=True, at_upper=(2,))

    def test_exact_mode_solves_the_first_rhs_only(self):
        # solve_simplex is the sweep's first step, in either mode
        args = (np.array([1.0, 1.0]), np.array([[1.0, 2.0], [3.0, 1.0]]), np.array([4.0, 6.0]), np.zeros(2), np.full(2, 5.0))
        engine = solve_simplex_sweep(*args, maximize=True, exact=True)
        first = next(engine)
        assert (first.objective, list(first.x)) == (Fraction(14, 5), [Fraction(8, 5), Fraction(6, 5)])
        with pytest.raises(SolverError, match="no exact mode"):
            engine.send(np.array([1.0, 6.0]))

    def test_dual_perturbation_is_drawn_once_per_engine(self, monkeypatch):
        draws = []
        real = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda *args: draws.append(args) or real(*args))
        results = sweep([1, 1], [[1, 2], [3, 1]], [[4, 6], [1, 6], [4, 6], [1, 6]], maximize=True)
        assert [r.dual_iterations for r in results] == [0, 1, 1, 1]
        assert draws == [(0,)]

    def test_failed_refactorization_is_a_solver_error(self, monkeypatch):
        # only a later right-hand side refactorizes before its first pivot
        monkeypatch.setattr(_Engine, "_refactor", lambda self, inverse=True: False)
        with pytest.raises(SolverError, match="singular"):
            sweep([1, 1], [[1, 2], [3, 1]], [[4, 6], [1, 6]], maximize=True)
