"""Two-phase bounded-variable simplex engine."""

from fractions import Fraction

import numpy as np
import pytest

from balancedcover.errors import SolverError
from balancedcover.simplex import EQ, GE, LE, solve_simplex

scipy_linprog = pytest.importorskip("scipy.optimize").linprog


def solve(c, A, rel, b, lower=None, upper=None, **kw):
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    nvars = A.shape[1]
    if lower is None:
        lower = np.zeros(nvars)
    if upper is None:
        upper = np.full(nvars, np.inf)
    return solve_simplex(c, A, list(rel), b, np.asarray(lower, float), np.asarray(upper, float), **kw)


class TestHandExamples:
    def test_basic_max(self):
        # max x + y subject to x + 2y <= 4, 3x + y <= 6.
        res = solve([1, 1], [[1, 2], [3, 1]], [LE, LE], [4, 6], maximize=True)
        assert res.objective == pytest.approx(2.8)
        assert res.x == pytest.approx([1.6, 1.2])

    def test_basic_min_with_ge(self):
        # min 2x + 3y subject to x + y >= 4, x >= 1.
        res = solve([2, 3], [[1, 1], [1, 0]], [GE, GE], [4, 1])
        assert res.objective == pytest.approx(8.0)
        assert res.x == pytest.approx([4.0, 0.0])

    def test_equality_constraint(self):
        # max x subject to x + y = 5, x <= 3.
        res = solve([1, 0], [[1, 1], [1, 0]], [EQ, LE], [5, 3], maximize=True)
        assert res.objective == pytest.approx(3.0)
        assert res.x == pytest.approx([3.0, 2.0])

    def test_upper_bounded_variables(self):
        # max x + y with x, y <= 1.5 each and x + y <= 2.5.
        res = solve([1, 1], [[1, 1]], [LE], [2.5], upper=[1.5, 1.5], maximize=True)
        assert res.objective == pytest.approx(2.5)
        assert max(res.x) <= 1.5 + 1e-9

    def test_bound_flip_only_optimum(self):
        # max x + 2y with 0 <= x,y <= 1 and a slack constraint: the
        # optimum sits at the upper bounds, reached by bound flips.
        res = solve([1, 2], [[1, 1]], [LE], [10], upper=[1, 1], maximize=True)
        assert res.objective == pytest.approx(3.0)
        assert res.x == pytest.approx([1.0, 1.0])

    def test_nonzero_lower_bounds(self):
        # min x + y with x, y >= 2 and x + y >= 5.
        res = solve([1, 1], [[1, 1]], [GE], [5], lower=[2, 2])
        assert res.objective == pytest.approx(5.0)

    def test_negative_rhs_row_flip(self):
        # x - y <= -1 forces y >= x + 1.
        res = solve([0, 1], [[1, -1]], [LE], [-1])
        assert res.objective == pytest.approx(1.0)
        assert res.x == pytest.approx([0.0, 1.0])

    def test_infeasible(self):
        with pytest.raises(SolverError, match="infeasible"):
            solve([1], [[1], [1]], [LE, GE], [1, 2])

    def test_unbounded(self):
        with pytest.raises(SolverError, match="unbounded"):
            solve([1], [[1]], [GE], [1], maximize=True)

    def test_iteration_limit(self):
        with pytest.raises(SolverError, match="iteration"):
            solve([1, 1], [[1, 2], [3, 1]], [LE, LE], [4, 6], maximize=True, max_iterations=1)

    def test_degenerate_lp_terminates(self):
        # Multiple constraints active at the optimum vertex; Bland's
        # rule must prevent cycling.
        A = [[1, 1], [1, 1], [1, 1], [2, 1]]
        res = solve([1, 1], A, [LE] * 4, [2, 2, 2, 3], maximize=True)
        assert res.objective == pytest.approx(2.0)


class TestExactMode:
    def test_exact_fractions(self):
        res = solve([1, 1], [[1, 2], [3, 1]], [LE, LE], [4, 6], maximize=True, exact=True)
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
                exact = solve(c, A, [LE] * nrows, b, upper=upper, maximize=True, exact=True)
            except SolverError:
                continue
            approx = solve(c, A, [LE] * nrows, b, upper=upper, maximize=True)
            assert approx.objective == pytest.approx(float(exact.objective), abs=1e-9)


class TestRedundantRow:
    # max x1 + 2 x2 + x3 over [0, 1]^3 with x1 + x2 + x3 = 2 written twice and x1 <= 1: the second
    # equality row is redundant, so its artificial column stays basic, pinned at 0
    ARGS = ([1, 2, 1], [[1, 1, 1], [1, 1, 1], [1, 0, 0]], [EQ, EQ, LE], [2, 2, 1], [0, 0, 0], [1, 1, 1])

    @pytest.mark.parametrize("exact", [False, True])
    def test_artificial_stays_basic(self, exact):
        res = solve_simplex(*self.ARGS, maximize=True, exact=exact)
        assert res.objective == 3
        assert type(res.objective) is (Fraction if exact else float)
        # columns 0-2 structural, 3 the slack of the LE row, 4 and 5 the artificials of the EQ rows
        assert res.basis == (3, 5, 0)
        assert list(res.x) == [1, 1, 0]
        assert res.residual_primal == res.residual_bound == 0


class TestResidualsAndDeterminism:
    def test_residuals_reported_small(self):
        res = solve([2, 3], [[1, 1], [1, 0]], [GE, GE], [4, 1])
        assert res.residual_primal <= 1e-9
        assert res.residual_bound <= 1e-9
        assert res.residual_dual <= 1e-7

    def test_deterministic(self):
        a = solve([1, 1], [[1, 2], [3, 1]], [LE, LE], [4, 6], maximize=True)
        b = solve([1, 1], [[1, 2], [3, 1]], [LE, LE], [4, 6], maximize=True)
        assert a.objective == b.objective
        assert np.array_equal(a.x, b.x)
        assert a.basis == b.basis
        assert a.iterations == b.iterations


class TestAgainstScipy:
    def test_random_lps(self):
        rng = np.random.default_rng(20240817)
        rels = np.array([LE, GE, EQ])
        solved = 0
        for _ in range(300):
            nrows = int(rng.integers(1, 6))
            ncols = int(rng.integers(1, 6))
            A = rng.integers(-4, 5, size=(nrows, ncols)).astype(float)
            c = rng.integers(-4, 5, size=ncols).astype(float)
            b = rng.integers(0, 9, size=nrows).astype(float)
            relations = rng.choice(rels, size=nrows, p=[0.5, 0.3, 0.2]).tolist()
            upper = np.where(rng.random(ncols) < 0.5, rng.integers(1, 6, size=ncols), np.inf)
            maximize = bool(rng.random() < 0.5)

            sign = -1.0 if maximize else 1.0
            A_ub, b_ub, A_eq, b_eq = [], [], [], []
            for row, rel, rhs in zip(A, relations, b):
                if rel == LE:
                    A_ub.append(row)
                    b_ub.append(rhs)
                elif rel == GE:
                    A_ub.append(-row)
                    b_ub.append(-rhs)
                else:
                    A_eq.append(row)
                    b_eq.append(rhs)
            ref = scipy_linprog(
                sign * c,
                A_ub=np.array(A_ub) if A_ub else None,
                b_ub=np.array(b_ub) if b_ub else None,
                A_eq=np.array(A_eq) if A_eq else None,
                b_eq=np.array(b_eq) if b_eq else None,
                bounds=[(0.0, u if np.isfinite(u) else None) for u in upper],
                method="highs",
            )

            if ref.status == 2:
                with pytest.raises(SolverError):
                    solve(c, A, relations, b, upper=upper, maximize=maximize)
                continue
            if ref.status == 3:
                with pytest.raises(SolverError):
                    solve(c, A, relations, b, upper=upper, maximize=maximize)
                continue
            assert ref.status == 0
            res = solve(c, A, relations, b, upper=upper, maximize=maximize)
            assert res.objective == pytest.approx(sign * ref.fun, abs=1e-7)
            solved += 1
        # The sweep must actually exercise the solver, not just the
        # infeasible/unbounded paths.
        assert solved >= 80


class TestWarmStart:
    """A solve started from the optimal basis of the same LP with another right-hand side."""

    @staticmethod
    def start_of(res):
        return res.basis, res.at_upper

    def test_random_rhs_changes_match_cold_and_scipy(self):
        rng = np.random.default_rng(8675309)
        warm_solved = infeasible = 0
        for _ in range(200):
            nrows = int(rng.integers(1, 6))
            ncols = int(rng.integers(1, 7))
            A = rng.integers(-4, 5, size=(nrows, ncols)).astype(float)
            c = rng.integers(-4, 5, size=ncols).astype(float)
            relations = rng.choice(np.array([LE, GE]), size=nrows).tolist()
            # a GE row with rhs <= 0 and an LE row with rhs >= 0 hold at x = 0, so no artificial starts basic
            b = np.where(np.array(relations) == LE, 1.0, -1.0) * rng.integers(0, 9, size=nrows)
            upper = rng.integers(1, 6, size=ncols).astype(float)
            maximize = bool(rng.random() < 0.5)
            first = solve(c, A, relations, b, upper=upper, maximize=maximize)
            b2 = b + rng.integers(-4, 5, size=nrows)
            ref = scipy_linprog(
                (-1.0 if maximize else 1.0) * c,
                A_ub=np.where(np.array(relations)[:, None] == GE, -A, A),
                b_ub=np.where(np.array(relations) == GE, -b2, b2),
                bounds=[(0.0, u) for u in upper],
                method="highs",
            )
            if ref.status == 2:
                with pytest.raises(SolverError, match="infeasible"):
                    solve(c, A, relations, b2, upper=upper, maximize=maximize, start=self.start_of(first))
                infeasible += 1
                continue
            assert ref.status == 0
            warm = solve(c, A, relations, b2, upper=upper, maximize=maximize, start=self.start_of(first))
            cold = solve(c, A, relations, b2, upper=upper, maximize=maximize)
            assert cold.dual_iterations == 0 <= warm.dual_iterations <= warm.iterations
            assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
            assert warm.objective == pytest.approx((-1.0 if maximize else 1.0) * ref.fun, abs=1e-7)
            assert warm.residual_primal <= 1e-9 and warm.residual_bound <= 1e-9
            warm_solved += 1
        # both outcomes of the dual phase are exercised
        assert warm_solved >= 100 and infeasible >= 10

    def test_same_rhs_needs_no_pivot(self):
        args = ([1, 1], [[1, 2], [3, 1]], [LE, LE], [4, 6])
        first = solve(*args, maximize=True)
        again = solve(*args, maximize=True, start=self.start_of(first))
        assert again.iterations == 0
        assert again.basis == first.basis
        assert np.array_equal(again.x, first.x)

    def test_dual_pivots_restore_feasibility(self):
        # max x + y s.t. x + 2y <= 4, 3x + y <= 6: optimum (1.6, 1.2); with the
        # first row's rhs at 1 the old basis is infeasible and y leaves
        first = solve([1, 1], [[1, 2], [3, 1]], [LE, LE], [4, 6], maximize=True)
        res = solve([1, 1], [[1, 2], [3, 1]], [LE, LE], [1, 6], maximize=True, start=self.start_of(first))
        assert res.objective == pytest.approx(1.0)
        assert res.x == pytest.approx([1.0, 0.0])
        assert res.dual_iterations == res.iterations == 1

    def test_bad_starts_refused(self):
        args = ([1, 1], [[1, 2], [3, 1]], [LE, LE], [4, 6])
        for start in [((0,), ()), ((0, 0), ()), ((0, 4), ()), ((0, 1), (0,)), ((0, 1), (2,))]:
            with pytest.raises(SolverError, match="start is not a basis"):
                solve(*args, maximize=True, start=start)
        with pytest.raises(SolverError, match="singular"):
            solve([1, 1], [[1, 1], [2, 2]], [LE, LE], [4, 8], maximize=True, start=((0, 1), ()))

    def test_exact_mode_refuses_a_start(self):
        first = solve([1, 1], [[1, 2], [3, 1]], [LE, LE], [4, 6], maximize=True)
        with pytest.raises(SolverError, match="float mode"):
            solve([1, 1], [[1, 2], [3, 1]], [LE, LE], [4, 6], maximize=True, exact=True, start=self.start_of(first))
