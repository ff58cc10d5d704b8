"""Dense two-phase primal simplex with upper-bounded variables.

Solves   min/max  c.x   s.t.  A x {<=,>=,=} rhs,  lower <= x <= upper

via an explicit tableau (T = B^-1 A maintained by row operations).
`>=` rows are negated into `<=` form; each `<=` row gets a slack in
[0, inf).  Rows that are infeasible at the starting point x = lower
(equality rows, or `<=` rows with negative residual) are sign-flipped
if needed and given an artificial variable, and phase 1 minimizes the
artificial sum before the real objective runs.

Pivoting is deterministic: Dantzig pricing (most negative reduced cost,
ties to the lowest column index) with the textbook ratio test including
bound flips, switching to Bland's rule after a run of degenerate pivots
and back once progress resumes.  Reduced costs are recomputed from the
tableau every 512 iterations.  Float comparisons use absolute
tolerances (1e-9 on reduced costs and ratio ties).

One engine body runs in float or in exact arithmetic over
`fractions.Fraction`; every array takes the tableau's dtype.  Exact
mode, practical for small systems and used to cross-check the float
path, differs only in four places: the inputs are converted to
Fractions, every tolerance is zero, Bland's rule runs throughout, and
the final step skips the two float-only repairs (basic values
recomputed from a fresh factorization of the final basis to shed
drift, then drift of at most 1e-9 snapped back onto the bounds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import SolverError

LE = "<="
GE = ">="
EQ = "="

_BASIC, _AT_LOWER, _AT_UPPER = 0, 1, 2


@dataclass(frozen=True)
class SimplexResult:
    """Optimal point over the structural variables plus solve diagnostics.

    ``objective`` is in the caller's sense (max problems report the max).
    Residuals are absolute: constraint violation, bound violation, and
    worst wrong-sign reduced cost at the final basis.  In exact mode
    ``x`` holds Fractions and ``objective`` is a Fraction.
    """

    x: np.ndarray
    objective: float | Fraction
    iterations: int
    basis: tuple[int, ...]
    residual_primal: float
    residual_bound: float
    residual_dual: float


def solve_simplex(
    c,
    A,
    relations,
    rhs,
    lower,
    upper,
    *,
    maximize: bool = False,
    exact: bool = False,
    max_iterations: int | None = None,
) -> SimplexResult:
    engine = _Engine(c, A, relations, rhs, lower, upper, maximize, exact, max_iterations)
    return engine.solve()


def _fraction_or_inf(v):
    f = float(v)
    return f if math.isinf(f) else Fraction(v)


def _to_exact(arr) -> np.ndarray:
    src = np.asarray(arr)
    out = np.empty(src.size, dtype=object)
    out[:] = [_fraction_or_inf(v) for v in src.ravel().tolist()]
    return out.reshape(src.shape)


class _Engine:
    def __init__(self, c, A, relations, rhs, lower, upper, maximize, exact, max_iterations):
        A = np.array(A, dtype=float)
        if A.ndim != 2 or A.shape[0] < 1:
            raise SolverError("constraint matrix must be 2-d with at least one row")
        nrows, nstruct = A.shape
        c = np.asarray(c, dtype=float)
        rhs = np.array(rhs, dtype=float)
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        relations = tuple(relations)
        if (
            len(relations) != nrows
            or rhs.shape != (nrows,)
            or c.shape != (nstruct,)
            or lower.shape != (nstruct,)
            or upper.shape != (nstruct,)
        ):
            raise SolverError("inconsistent LP dimensions")
        if not (np.isfinite(A).all() and np.isfinite(rhs).all() and np.isfinite(c).all()):
            raise SolverError("nonfinite LP data")
        if not np.isfinite(lower).all():
            raise SolverError("lower bounds must be finite")
        if (lower > upper).any():
            raise SolverError("lower bound exceeds upper bound")
        bad = set(relations) - {LE, GE, EQ}
        if bad:
            raise SolverError(f"unknown relation {bad.pop()!r}")

        self.orig = (A.copy(), relations, rhs.copy(), lower, upper)
        self.exact = bool(exact)
        self.nrows = nrows
        self.nstruct = nstruct

        # normalize >= to <= so every inequality takes a slack
        rels = []
        for i, rel in enumerate(relations):
            if rel == GE:
                A[i] *= -1.0
                rhs[i] = -rhs[i]
                rels.append(LE)
            else:
                rels.append(rel)
        le_rows = [i for i, r in enumerate(rels) if r == LE]
        nslack = len(le_rows)
        ncols0 = nstruct + nslack

        W = np.zeros((nrows, ncols0))
        W[:, :nstruct] = A
        for k, i in enumerate(le_rows):
            W[i, nstruct + k] = 1.0
        lb = np.concatenate([lower, np.zeros(nslack)])
        ub = np.concatenate([upper, np.full(nslack, math.inf)])
        sense = -1.0 if maximize else 1.0
        cost = np.concatenate([sense * c, np.zeros(nslack)])

        # reduced-cost and ratio-tie, pivot, degenerate-step and phase-1 feasibility tolerances
        tols = (1e-9, 1e-10, 1e-11, 1e-7 * max(1.0, float(np.abs(rhs).max())))
        if exact:
            c, W, rhs, lb, ub, cost = (_to_exact(v) for v in (c, W, rhs, lb, ub, cost))
            tols = (0, 0, 0, 0)
        self.tol, self.pivtol, self.degen_tol, self.feas_tol = tols
        self.c = c

        # starting point: everything nonbasic at its lower bound
        vals = lb.copy()
        status = np.full(ncols0, _AT_LOWER, dtype=np.int8)
        resid = rhs - W.dot(vals)
        basis = np.full(nrows, -1, dtype=np.intp)
        slack_pos = {row: k for k, row in enumerate(le_rows)}
        art_rows = []
        for i in range(nrows):
            if rels[i] == LE and resid[i] >= 0:
                j = nstruct + slack_pos[i]
                basis[i] = j
                status[j] = _BASIC
            else:
                art_rows.append(i)
        nart = len(art_rows)
        if nart:
            art = np.zeros((nrows, nart), dtype=W.dtype)
            for k, i in enumerate(art_rows):
                if resid[i] < 0:
                    W[i] = -W[i]
                    rhs[i] = -rhs[i]
                    resid[i] = -resid[i]
                art[i, k] = 1
                basis[i] = ncols0 + k
            zeros_art = np.zeros(nart, dtype=W.dtype)
            W = np.concatenate([W, art], axis=1)
            lb = np.concatenate([lb, zeros_art])
            ub = np.concatenate([ub, np.full(nart, math.inf, dtype=ub.dtype)])
            cost = np.concatenate([cost, zeros_art])
            vals = np.concatenate([vals, zeros_art])
            status = np.concatenate([status, np.full(nart, _BASIC, dtype=np.int8)])

        self.ncols0 = ncols0
        self.nart = nart
        self.T = W.copy()
        self.T0 = W
        self.rhs_w = rhs
        self.lb = lb
        self.ub = ub
        self.cost = cost
        self.vals = vals
        self.status = status
        self.basis = basis
        self.xB = resid.copy()
        self.iterations = 0
        ncols = W.shape[1]
        self.max_iterations = (
            int(max_iterations) if max_iterations is not None else 200 * (nrows + ncols) + 5000
        )

    # ------------------------------------------------------------------

    def solve(self) -> SimplexResult:
        if self.nart:
            phase1 = np.zeros(self.T.shape[1], dtype=self.T.dtype)
            phase1[self.ncols0 :] = 1
            self._run(phase1)
            art_sum = sum(
                self.xB[i] for i in range(self.nrows) if self.basis[i] >= self.ncols0
            )
            if art_sum > self.feas_tol:
                raise SolverError(f"infeasible constraint system (phase-1 residual {float(art_sum):.3e})")
            self._drive_out_artificials()
            # freeze artificials at zero so phase 2 can never revive them
            self.ub[self.ncols0 :] = 0
            self.vals[self.ncols0 :] = 0
        d = self._run(self.cost)
        return self._finish(d)

    def _drive_out_artificials(self):
        for r in range(self.nrows):
            if self.basis[r] < self.ncols0:
                continue
            row = self.T[r]
            e = -1
            best = None
            for j in range(self.ncols0):
                if self.status[j] == _BASIC:
                    continue
                mag = abs(row[j])
                if mag > self.pivtol and (best is None or mag > best):
                    best = mag
                    e = j
            if e < 0:
                # row is redundant; keep the artificial basic, pinned at 0
                continue
            leave = self.basis[r]
            self.status[leave] = _AT_LOWER
            self.vals[leave] = 0
            self.status[e] = _BASIC
            self.basis[r] = e
            self.xB[r] = self.vals[e]
            self._pivot(r, e)

    # ------------------------------------------------------------------

    def _run(self, cost):
        T = self.T
        d = cost - cost[self.basis].dot(T)
        degen_run = 0
        degen_limit = 100 + self.nrows
        while True:
            if self.iterations > self.max_iterations:
                raise SolverError(f"simplex stalled after {self.iterations} iterations")
            if self.iterations and self.iterations % 512 == 0:
                d = cost - cost[self.basis].dot(T)
            bland = self.exact or degen_run >= degen_limit
            movable = self.ub > self.lb
            elig = movable & (
                ((self.status == _AT_LOWER) & (d < -self.tol))
                | ((self.status == _AT_UPPER) & (d > self.tol))
            )
            if not elig.any():
                return d
            if bland:
                e = int(np.argmax(elig))
            else:
                score = np.where(elig, np.abs(d), -1)
                e = int(np.argmax(score))
            sigma = 1 if self.status[e] == _AT_LOWER else -1
            col = T[:, e].copy()
            w = sigma * col
            bl = self.lb[self.basis]
            bu = self.ub[self.basis]
            ratios = np.full(self.nrows, math.inf, dtype=T.dtype)
            pos = w > self.pivtol
            neg = w < -self.pivtol
            if pos.any():
                ratios[pos] = (self.xB[pos] - bl[pos]) / w[pos]
            if neg.any():
                ratios[neg] = (self.xB[neg] - bu[neg]) / w[neg]
            ratios = np.maximum(ratios, 0)
            rmin = ratios.min()
            tflip = self.ub[e] - self.lb[e]
            if math.isinf(float(rmin)) and math.isinf(float(tflip)):
                raise SolverError("unbounded objective")
            if tflip < rmin:
                # entering variable swaps bounds without a basis change
                self.xB = self.xB - (sigma * tflip) * col
                self.status[e] = _AT_UPPER if sigma > 0 else _AT_LOWER
                self.vals[e] = self.ub[e] if sigma > 0 else self.lb[e]
                self.iterations += 1
                degen_run = 0
                continue
            cand = np.flatnonzero(ratios <= rmin + self.tol)
            r = -1
            if bland:
                for i in cand.tolist():
                    if r < 0 or self.basis[i] < self.basis[r]:
                        r = i
            else:
                best = None
                for i in cand.tolist():
                    mag = abs(col[i])
                    if best is None or mag > best or (mag == best and self.basis[i] < self.basis[r]):
                        best = mag
                        r = i
            t = rmin
            leave = self.basis[r]
            if t != 0:
                self.xB = self.xB - (sigma * t) * col
            self.status[leave] = _AT_LOWER if w[r] > 0 else _AT_UPPER
            self.vals[leave] = self.lb[leave] if w[r] > 0 else self.ub[leave]
            self.status[e] = _BASIC
            self.basis[r] = e
            self.xB[r] = self.vals[e] + sigma * t
            self._pivot(r, e)
            d = d - d[e] * T[r]
            self.iterations += 1
            degen_run = degen_run + 1 if t <= self.degen_tol else 0

    def _pivot(self, r: int, e: int):
        T = self.T
        T[r] = T[r] / T[r, e]
        colv = T[:, e].copy()
        colv[r] = 0
        T -= colv[:, None] * T[r][None, :]
        T[:, e] = 0
        T[r, e] = 1

    # ------------------------------------------------------------------

    def _finish(self, d) -> SimplexResult:
        nonbasic = self.status != _BASIC
        if not self.exact:
            # refactorize: solve B xB = rhs - N x_N for drift-free basics
            contrib = self.T0[:, nonbasic] @ self.vals[nonbasic] if nonbasic.any() else 0.0
            try:
                xb = np.linalg.solve(self.T0[:, self.basis], self.rhs_w - contrib)
                self.xB = xb
            except np.linalg.LinAlgError:
                pass
        x_full = self.vals.copy()
        x_full[self.basis] = self.xB

        A0, rel0, rhs0, lower0, upper0 = self.orig
        x = x_full[: self.nstruct]
        if not self.exact:
            # snap drift of at most tol back onto the bounds; larger violations stay visible
            x = np.where((x < lower0) & (x >= lower0 - self.tol), lower0, x)
            x = np.where((x > upper0) & (x <= upper0 + self.tol), upper0, x)
        # .item() gives a Python float, or the Fraction itself in exact mode
        objective = np.asarray(np.dot(self.c, x)).item()

        rels = np.array(rel0)
        row = A0.dot(x) - rhs0
        row = np.where(rels == GE, -row, np.where(rels == EQ, abs(row), row))
        rp = float(max(0, row.max()))
        rb = float(max(0, (lower0 - x).max(), (x - upper0).max()))
        wrong = np.where(self.status == _AT_LOWER, -d, np.where(self.status == _AT_UPPER, d, abs(d)))
        wrong = wrong[self.ub > self.lb]
        rd = float(max(0, wrong.max())) if wrong.size else 0.0

        return SimplexResult(
            x=x,
            objective=objective,
            iterations=self.iterations,
            basis=tuple(int(b) for b in self.basis),
            residual_primal=rp,
            residual_bound=rb,
            residual_dual=rd,
        )
