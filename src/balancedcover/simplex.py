"""Dense bounded simplex for `<=` rows, from the slack basis or, over a sweep, a warm basis.

Solves   min/max  c.x   s.t.  A x <= rhs,  lower <= x <= upper

as a revised simplex in dense form: the engine keeps the original
columns T0 and the explicit inverse B^-1 of the current basis, one
square matrix of side the number of rows.  A pivot reads the entering
column as B^-1 T0[:, e] and the pivot row as B^-1[r] T0 (one
matrix-vector product each) and applies its rank-1 update to B^-1
alone; the reduced costs are updated from the pivot row, and priced
from scratch as cost - (cost_B B^-1) T0.  Row i takes a slack in
[0, inf), column (number of structural columns) + i.

Each nonbasic column j carries a direction sign_j: +1 at its lower
bound, -1 at its upper bound (0 marks a basic column).  A column can
improve the objective when sign_j * d_j < 0 for its reduced cost d_j,
and only along sign_j.  Pivoting is deterministic: Dantzig pricing
(the largest such |d_j|, ties to the lowest column index) with the
textbook ratio test including bound flips.  Float comparisons use
absolute tolerances (``TOLERANCE`` = 1e-9 on reduced costs and ratio ties).

Every basis change, whether a primal or a dual pivot, goes through
``_exchange``: the basic values move by the step along the entering
column, the leaving column goes to the bound it reached, and B^-1 takes
the rank-1 update.  Before each pivot both loops call ``_tick``, which
enforces the iteration limit and, every 512 iterations, refactorizes a
float solve (B^-1 and the basic values are rebuilt from the original
columns of the current basis, shedding the drift of the updates) and
prices the reduced costs again.  The final step refactorizes once more
and snaps every value within 1e-9 of a bound onto it.

Degenerate pivots (steps of length 0) can cycle.  A float solve
switches to Bland's rule once a run of 100 + rows of them occurs, and
back once a step makes progress.

One engine body runs in float or in exact arithmetic over
`fractions.Fraction`; every array takes the dtype of T0.  Exact
mode, practical for small systems and used to cross-check the float
path, differs in the Fraction inputs and zero tolerances, in running
Bland's rule throughout, and in having none of the float repairs: no
refactorization and no snap onto the bounds.

A solve starts from the slack basis (B = I, so B^-1 starts as the
identity in either mode), with the structural columns listed in
``at_upper`` at their upper bound and the others at their lower bound.
That start must be primal feasible, every slack nonnegative; a start
that violates a row raises SolverError naming the row.  Only the primal
loop runs from it.

``solve_simplex_sweep`` solves one float LP for a sequence of
right-hand sides on one engine.  The first solve is the one above; for
each later one the engine swaps in the new right-hand side, refactorizes
the optimal basis, which stays dual feasible when only the right-hand
side moves, and runs dual simplex pivots until every basic value lies
within its bounds up to the reduced-cost tolerance, then the primal loop.
The leaving row is the one with the largest infeasibility (ties to the
lowest row); with alpha = B^-1[r] T0 its pivot row, the entering column
minimizes |d_j / alpha_j| over the nonbasic columns whose move restores
that row (ties to the lowest column).  There is no bound flipping.  Most
reduced costs of these LPs are 0, and with the true costs such ties made
the dual simplex cycle until the iteration limit, so the dual phase
prices with each nonbasic cost moved away from 0 on its dual feasible
side by U(1e-7, 1e-6) * (1 + |c_j|), drawn from a fixed-seed generator,
as cost_j + sign_j * delta_j.  Its eligible columns are those with
sign_j * alpha_j on the restoring side.  The primal loop then runs on
the true costs: it confirms optimality, or pivots on the few reduced
costs the perturbation left on the wrong side.  A sweep has no exact
mode: the perturbation is a float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import SolverError

# absolute tolerance of a float solve on reduced costs and ratio ties, and of the snap onto bounds
TOLERANCE = 1e-9


@dataclass(frozen=True)
class SimplexResult:
    """Optimal point over the structural variables plus solve diagnostics.

    ``objective`` is in the caller's sense (max problems report the max).
    Residuals are absolute: constraint violation, bound violation, and
    worst wrong-sign reduced cost at the final basis.  In exact mode
    ``x`` holds Fractions and ``objective`` is a Fraction.  ``basis`` is
    the optimal basis, one column per row, and ``at_upper`` the nonbasic
    columns at their upper bound.
    """

    x: np.ndarray
    objective: float | Fraction
    iterations: int
    basis: tuple[int, ...]
    residual_primal: float
    residual_bound: float
    residual_dual: float
    at_upper: tuple[int, ...]
    dual_iterations: int


def solve_simplex(
    c, A, rhs, lower, upper, *, maximize: bool = False, exact: bool = False, max_iterations: int | None = None, at_upper=()
) -> SimplexResult:
    """Solve ``A x <= rhs`` from the slack basis.

    ``at_upper`` lists the structural columns that start at their upper bound.
    ``iterations`` counts every pivot and bound flip.
    """
    return _Engine(c, A, rhs, lower, upper, maximize, exact, max_iterations, at_upper).solve()


def solve_simplex_sweep(c, A, rhs, lower, upper, *, maximize: bool = False, at_upper=()):
    """Solve one float LP for a sequence of right-hand sides, handed in one at a time.

    ``next`` on the returned generator gives ``solve_simplex``'s result at ``rhs``; each
    ``send(rhs)`` after it gives the result at that right-hand side (``_Engine.resolve``),
    where ``dual_iterations`` counts the dual pivots among ``iterations``.
    """
    engine = _Engine(c, A, rhs, lower, upper, maximize, False, None, at_upper)
    rhs = yield engine.solve()
    while True:
        rhs = yield engine.resolve(rhs)


def _to_exact(arr: np.ndarray) -> np.ndarray:
    """A float array as Fractions, with an infinite bound kept as float inf."""
    out = np.empty(arr.size, dtype=object)
    out[:] = [v if math.isinf(v) else Fraction(v) for v in arr.ravel().tolist()]
    return out.reshape(arr.shape)


class _Engine:
    def __init__(self, c, A, rhs, lower, upper, maximize, exact, max_iterations, at_upper):
        A = np.asarray(A, dtype=float)
        if A.ndim != 2 or A.shape[0] < 1:
            raise SolverError("constraint matrix must be 2-d with at least one row")
        nrows, nstruct = A.shape
        c = np.asarray(c, dtype=float)
        rhs = np.asarray(rhs, dtype=float)
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        if rhs.shape != (nrows,) or not c.shape == lower.shape == upper.shape == (nstruct,):
            raise SolverError("inconsistent LP dimensions")
        if not (np.isfinite(A).all() and np.isfinite(rhs).all() and np.isfinite(c).all()):
            raise SolverError("nonfinite LP data")
        if not np.isfinite(lower).all():
            raise SolverError("lower bounds must be finite")
        if (lower > upper).any():
            raise SolverError("lower bound exceeds upper bound")
        at_upper = np.array(at_upper, dtype=np.intp)
        structural = ((at_upper >= 0) & (at_upper < nstruct)).all() and len(set(at_upper.tolist())) == at_upper.size
        if not (structural and np.isfinite(upper[at_upper]).all()):
            raise SolverError("start is not a basis over this LP's structural and slack columns")

        # float copies for the residuals; the right-hand side is read from self.rhs
        self.orig = (A, lower, upper)
        self.exact = bool(exact)
        self.nrows = nrows
        self.nstruct = nstruct

        ncols = nstruct + nrows
        W = np.concatenate([A, np.eye(nrows)], axis=1)
        lb = np.concatenate([lower, np.zeros(nrows)])
        ub = np.concatenate([upper, np.full(nrows, math.inf)])
        basis = np.arange(nstruct, ncols)
        sense = -1.0 if maximize else 1.0
        cost = np.concatenate([sense * c, np.zeros(nrows)])

        # reduced-cost and ratio-tie, pivot and degenerate-step tolerances
        tols = (TOLERANCE, 1e-10, 1e-11)
        if exact:
            c, W, rhs, lb, ub, cost = (_to_exact(v) for v in (c, W, rhs, lb, ub, cost))
            tols = (0, 0, 0)
        self.tol, self.pivtol, self.degen_tol = tols
        self.c = c

        # every nonbasic column at its lower bound, or at its upper bound if listed in at_upper
        vals = lb.copy()
        sign = np.ones(ncols, dtype=np.int8)
        sign[at_upper] = -1
        vals[at_upper] = ub[at_upper]
        sign[basis] = 0

        self.rhs = rhs
        self.T0 = W
        # B^-1 of the slack basis is the identity
        self.Binv = np.eye(nrows) if not exact else _to_exact(np.eye(nrows))
        self.lb = lb
        self.ub = ub
        # a fixed column (lower = upper) never enters the basis
        self.movable = ub > lb
        self.cost = cost
        self.vals = vals
        self.sign = sign
        self.basis = basis
        # with every slack at 0 in vals these are the slack values
        self.xB = rhs - W.dot(vals)
        self.iterations = self.dual_iterations = 0
        # a float solve switches to Bland's rule after this many degenerate pivots in a row
        self.degen_limit = 100 + nrows
        self.max_iterations = 200 * (nrows + ncols) + 5000 if max_iterations is None else int(max_iterations)
        bad = np.flatnonzero(self.xB < -self.tol)
        if bad.size:
            r = int(bad[0])
            raise SolverError(f"slack start violates row {r} (slack {float(self.xB[r]):.3e})")

    # ------------------------------------------------------------------

    def solve(self) -> SimplexResult:
        return self._finish(self._run(self.cost))

    def resolve(self, rhs) -> SimplexResult:
        """Solve again in float mode with the right-hand side ``rhs``, from the last optimal basis.

        The iteration counts, and with them ``_tick``'s refactorization clock, restart at 0.
        """
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (self.nrows,) or not np.isfinite(rhs).all():
            raise SolverError("right-hand side must hold one finite value per row")
        self.rhs = rhs
        self.iterations = self.dual_iterations = 0
        if not self._refactor():
            raise SolverError("basis is singular at the new right-hand side")
        self._run_dual()
        return self.solve()

    # ------------------------------------------------------------------

    def _run(self, cost):
        d = self._price(cost)
        degen_run = 0
        while True:
            d = self._tick(cost, d)
            bland = self.exact or degen_run >= self.degen_limit
            # -sign_j * d_j is |d_j| on a column that improves the objective, at most tol on any other
            gain = np.where(self.movable, -self.sign * d, 0)
            e = int(np.argmax(gain > self.tol if bland else gain))
            if gain[e] <= self.tol:
                return d
            sigma = int(self.sign[e])
            col = self._column(e)
            w = sigma * col
            # a basic value falling (w > 0) stops at its lower bound, a rising one at its upper
            bound = np.where(w > 0, self.lb[self.basis], self.ub[self.basis])
            ratios = np.full(self.nrows, math.inf, dtype=col.dtype)
            np.divide(self.xB - bound, w, out=ratios, where=abs(w) > self.pivtol)
            ratios = np.maximum(ratios, 0)
            rmin = ratios.min()
            tflip = self.ub[e] - self.lb[e]
            if math.isinf(float(rmin)) and math.isinf(float(tflip)):
                raise SolverError("unbounded objective")
            self.iterations += 1
            if tflip < rmin:
                # entering variable swaps bounds without a basis change
                self.xB = self.xB - (sigma * tflip) * col
                self.sign[e] = -sigma
                self.vals[e] = self.ub[e] if sigma > 0 else self.lb[e]
                degen_run = 0
                continue
            cand = np.flatnonzero(ratios <= rmin + self.tol)
            if not bland:
                # the largest pivot among the tied rows, then the lowest basic column
                mag = np.abs(col[cand])
                cand = cand[mag == mag.max()]
            r = int(cand[np.argmin(self.basis[cand])])
            row = self._row(r)
            self._exchange(r, e, col, sigma * rmin, w[r] > 0)
            d = d - d[e] * (row / row[e])
            degen_run = degen_run + 1 if rmin <= self.degen_tol else 0

    def _run_dual(self):
        """Dual simplex pivots from a dual feasible basis until it is primal feasible."""
        # most reduced costs are 0 (only the z columns carry a cost), and ties at 0 let the dual
        # simplex cycle: move each nonbasic cost away from 0 on its dual feasible side
        delta = np.random.default_rng(0).uniform(1e-7, 1e-6, self.cost.size) * (1.0 + np.abs(self.cost))
        cost = self.cost + self.sign * delta
        d = self._price(cost)
        while True:
            d = self._tick(cost, d)
            below = self.lb[self.basis] - self.xB
            above = self.xB - self.ub[self.basis]
            infeas = np.maximum(below, above)
            r = int(np.argmax(infeas))
            if infeas[r] <= self.tol:
                return
            # x_B[r] = beta_r - alpha_r . x_N with alpha_r = (B^-1 A)[r]: a column at its lower
            # bound moves it against the sign of alpha_r[j], a column at its upper bound along it
            rise = below[r] > 0
            alpha = self._row(r)
            row = alpha if rise else -alpha
            elig = self.movable & (self.sign * row < -self.pivtol)
            if not elig.any():
                raise SolverError(f"infeasible constraint system (basic row {r} cannot reach its bounds)")
            ratios = np.full(alpha.size, math.inf)
            np.divide(np.abs(d), np.abs(row), out=ratios, where=elig)
            e = int(np.argmin(ratios))
            target = self.lb[self.basis[r]] if rise else self.ub[self.basis[r]]
            self._exchange(r, e, self._column(e), (self.xB[r] - target) / alpha[e], rise)
            d = d - d[e] * (alpha / alpha[e])
            self.iterations += 1
            self.dual_iterations += 1

    def _tick(self, cost, d):
        """Enforce the iteration limit; every 512 iterations refactorize (float) and reprice ``d``."""
        if self.iterations > self.max_iterations:
            raise SolverError(f"simplex stalled after {self.iterations} iterations")
        if self.iterations and self.iterations % 512 == 0:
            if not self.exact:
                self._refactor()
            d = self._price(cost)
        return d

    def _exchange(self, r: int, e: int, col, step, to_lower: bool):
        """Column e enters the basis in row r, moving by ``step``; the leaving column goes to a bound.

        ``col`` is B^-1 times column e; the basic values move by -step * col.
        """
        leave = self.basis[r]
        if step != 0:
            self.xB = self.xB - step * col
        self.sign[leave] = 1 if to_lower else -1
        self.vals[leave] = self.lb[leave] if to_lower else self.ub[leave]
        self.sign[e] = 0
        self.basis[r] = e
        self.xB[r] = self.vals[e] + step
        # rank-1 update of B^-1
        pivot_row = self.Binv[r] / col[r]
        self.Binv -= np.outer(col, pivot_row)
        self.Binv[r] = pivot_row

    def _price(self, cost):
        """Reduced costs of every column at the current basis: cost - (cost_B B^-1) T0."""
        return cost - cost[self.basis].dot(self.Binv).dot(self.T0)

    def _row(self, r: int):
        """Row r of B^-1 T0, the tableau row of the basic column in row r."""
        return self.Binv[r].dot(self.T0)

    def _column(self, e: int):
        """B^-1 times column e: how the basic values move as column e moves."""
        return self.Binv.dot(self.T0[:, e])

    # ------------------------------------------------------------------

    def _refactor(self, *, inverse=True):
        """Rebuild xB and, with ``inverse``, B^-1 from the original columns of the basis.

        Returns False, changing nothing, when B is singular.

        This sheds the drift of the rank-1 updates.  xB is solved from B itself, not
        multiplied out of the new inverse, which drifts further: over the 180 LPs of
        the seeded clone families 1-30 the worst |B xB - b| / max(1, |b|) at a
        refactorization was 3.0e-15 for the solve and 1.2e-14 for the inverse.
        """
        B = self.T0[:, self.basis]
        nonbasic = self.sign != 0
        contrib = self.T0[:, nonbasic] @ self.vals[nonbasic] if nonbasic.any() else 0.0
        try:
            xB = np.linalg.solve(B, self.rhs - contrib)
            if inverse:
                self.Binv = np.linalg.inv(B)
        except np.linalg.LinAlgError:
            return False
        self.xB = xB
        return True

    # ------------------------------------------------------------------

    def _finish(self, d) -> SimplexResult:
        if not self.exact:
            # B^-1 is not read again
            self._refactor(inverse=False)
        x_full = self.vals.copy()
        x_full[self.basis] = self.xB

        A0, lower0, upper0 = self.orig
        x = x_full[: self.nstruct]
        if not self.exact:
            # snap drift of at most tol onto the bounds, from either side, so a bound reads
            # exactly (a zero optimum as 0); larger violations stay visible
            x = np.where(np.abs(x - lower0) <= self.tol, lower0, x)
            x = np.where(np.abs(x - upper0) <= self.tol, upper0, x)
        # .item() gives a Python float, or the Fraction itself in exact mode
        objective = np.asarray(np.dot(self.c, x)).item()

        rp = float(max(0, (A0.dot(x) - self.rhs).max()))
        rb = float(max(0, (lower0 - x).max(), (x - upper0).max()))
        wrong = np.where(self.sign == 0, abs(d), -self.sign * d)
        wrong = wrong[self.movable]
        rd = float(max(0, wrong.max())) if wrong.size else 0.0

        return SimplexResult(
            x=x,
            objective=objective,
            iterations=self.iterations,
            basis=tuple(int(b) for b in self.basis),
            residual_primal=rp,
            residual_bound=rb,
            residual_dual=rd,
            at_upper=tuple(int(j) for j in np.flatnonzero(self.sign < 0)),
            dual_iterations=self.dual_iterations,
        )
