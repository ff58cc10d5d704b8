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
