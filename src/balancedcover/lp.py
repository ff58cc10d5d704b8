"""LP relaxations of the balanced covering objectives.

Three formulations over selection variables x_i in [0, 1]:

* MINLP (maximize z):  z <= sum_i a_ij x_i  and  z <= sum_i (1-a_ij) x_i
  for every probe j, with sum_i x_i <= s.  z* bounds the best cmin.
* MAXLP (minimize z):  z >= |sum_i a_ij x_i - s/2| split into two linear
  rows per probe, with sum_i x_i = s exactly.  z* bounds the best dmax.
* AVGLP (maximize (1/n) sum_j z_j):  per-probe margin variables with the
  same pair of rows as MINLP.  z* bounds the best cavg.

AVGLP is stored with raw objective sum_j z_j and a rational scale 1/n
applied when reporting, so the constraint rows hold only integers and
halves and the exact solver mode stays exact.

``build_lp`` writes these textbook LPs (for ``to_lp_text`` and as a
reference for other solvers), but ``solve_formulation`` and
``solve_sweep`` solve only MinLP as written.  MAXLP is read off MinLP at
the same s (``maxlp_from_minlp``).  AVGLP is solved as the equivalent
least-absolute-deviation fit of n + 2 rows in place of 2n + 1
(``_build_l1_avglp``).  So every LP the simplex solves has only ``<=``
rows and starts from the slack basis or, in a sweep, the last optimal basis.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction

import numpy as np

from .core import Instance, _check_budget
from .errors import InputError, SolverError
from .simplex import TOLERANCE, SimplexResult, solve_simplex, solve_simplex_sweep


class Formulation(Enum):
    MINLP = "minlp"
    MAXLP = "maxlp"
    AVGLP = "avglp"


@dataclass(frozen=True)
class LpProblem:
    """A fully materialized LP: objective, rows, bounds, and naming.

    ``num_selection_vars`` counts the leading x_i columns; any further
    columns are auxiliary (z variables).  The reported optimum is the
    raw optimum times ``objective_scale`` (a rational num/den pair).
    """

    formulation: Formulation
    maximize: bool
    c: np.ndarray
    A: np.ndarray
    relations: tuple[str, ...]
    rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    var_names: tuple[str, ...]
    num_selection_vars: int
    objective_scale: tuple[int, int]
    label: str

    def __post_init__(self):
        rows, cols = self.A.shape
        if not (
            self.c.shape == (cols,)
            and self.lower.shape == (cols,)
            and self.upper.shape == (cols,)
            and self.rhs.shape == (rows,)
            and len(self.relations) == rows
            and len(self.var_names) == cols
        ):
            raise InputError(f"{self.label}: inconsistent LP dimensions")
        if not np.isfinite(self.rhs).all():
            raise InputError(f"{self.label}: nonfinite right-hand side")
        if (self.lower > self.upper).any():
            raise InputError(f"{self.label}: lower bound exceeds upper bound")
        for arr in (self.c, self.A, self.rhs, self.lower, self.upper):
            arr.flags.writeable = False

    @property
    def num_rows(self) -> int:
        return self.A.shape[0]

    @property
    def num_vars(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True)
class FractionalSolution:
    """Optimal LP value and the fractional selection vector x*.

    ``z_star`` is a float normally, a Fraction when solved exactly.
    ``stats`` is the simplex's result: its diagnostics and the optimal basis.
    """

    formulation: Formulation
    z_star: float | Fraction
    x: np.ndarray
    stats: SimplexResult


def build_lp(instance: Instance, s: int, formulation: Formulation) -> LpProblem:
    """Materialize one relaxation; probe j owns rows 2j and 2j+1, the budget row is last."""
    s = _check_budget(instance, s)
    a = instance.adjacency.astype(float)
    m, n = a.shape
    avg = formulation is Formulation.AVGLP
    nz = n if avg else 1
    A = np.zeros((2 * n + 1, m + nz))
    probes = np.arange(n)
    zcol = m + (probes if avg else 0)
    if formulation is Formulation.MAXLP:
        # |deg_j - s/2| <= z as deg_j - z <= s/2 and deg_j + z >= s/2
        A[0 : 2 * n : 2, :m] = a.T
        A[1 : 2 * n : 2, :m] = a.T
        A[2 * probes, zcol] = -1.0
        relations = ("<=", ">=") * n + ("=",)
    else:
        # z_j <= deg_j and z_j <= sum_i x_i - deg_j
        A[0 : 2 * n : 2, :m] = -a.T
        A[1 : 2 * n : 2, :m] = a.T - 1.0
        A[2 * probes, zcol] = 1.0
        relations = ("<=",) * (2 * n + 1)
    A[2 * probes + 1, zcol] = 1.0
    A[2 * n, :m] = 1.0
    c = np.zeros(m + nz)
    c[m:] = 1.0
    lower = np.zeros(m + nz)
    upper = np.ones(m + nz)
    upper[m:] = np.inf
    z_names = tuple(f"z{j + 1}" for j in range(n)) if avg else ("z",)
    return LpProblem(
        formulation=formulation,
        maximize=formulation is not Formulation.MAXLP,
        c=c,
        A=A,
        relations=relations,
        rhs=_rhs(formulation, s, n),
        lower=lower,
        upper=upper,
        var_names=tuple(f"x{i + 1}" for i in range(m)) + z_names,
        num_selection_vars=m,
        objective_scale=(1, n) if avg else (1, 1),
        label=_label(formulation, m, n, s),
    )


def _build_l1_avglp(instance: Instance, s: int, crash_s: int) -> LpProblem:
    """AvgLP as it is solved: the least-absolute-deviation fit of every deg_j to s/2.

    Both AvgLP margin terms are non-decreasing in every x_i, so AvgLP has
    an optimum with sum(x) = s, where min(deg_j, s - deg_j) =
    s/2 - |deg_j - s/2|; hence z*_AvgLP = s/2 - (1/n) min sum_j |deg_j - s/2|
    over sum(x) = s, 0 <= x <= 1 (the L1 regression LP of Charnes, Cooper
    and Ferguson, 1955).  Each probe's deviation splits as
    sigma_j (deg_j - s/2) = t_j - k_j with t_j, k_j >= 0; k_j is column
    m + j, and t_j is the slack of probe row j,
    -sigma_j deg_j(x) - k_j <= -sigma_j s/2.  Row n is -sum(x) <= -s and
    the last row sum(x) <= s, which ``_crash_start`` reads s off.

    sigma_j is +1 where the crash clones at budget ``crash_s`` give
    2 deg_j >= s, else -1, so at ``crash_s = s`` the slack start is primal
    feasible.  Any sigma gives the same optimum, and a sweep keeps the
    first s's, so that only the right-hand side moves between its LPs.

    With sum(x) = s the objective s/2 - |deg_j - s/2| = s/2 - t_j - k_j of
    probe j reads s - deg_j - 2 k_j where sigma_j = +1 and deg_j - 2 k_j
    where sigma_j = -1: clone i costs the probes where it adds to that
    side (a miss where sigma_j = +1, a hit where sigma_j = -1), each k_j
    costs -2, and the scale 1/n makes the optimum AvgLP's.
    """
    s = _check_budget(instance, s)
    a = instance.adjacency.astype(float)
    m, n = a.shape
    sigma = _crash_signs(instance, crash_s)
    A = np.zeros((n + 2, m + n))
    A[:n, :m] = -sigma[:, None] * a.T
    A[np.arange(n), m + np.arange(n)] = -1.0
    A[n, :m] = -1.0
    A[n + 1, :m] = 1.0
    c = np.concatenate([np.where(sigma > 0, 1.0 - a, a).sum(axis=1), np.full(n, -2.0)])
    return LpProblem(
        formulation=Formulation.AVGLP,
        maximize=True,
        c=c,
        A=A,
        relations=("<=",) * (n + 2),
        rhs=_rhs(Formulation.AVGLP, s, n, sigma),
        lower=np.zeros(m + n),
        upper=np.concatenate([np.ones(m), np.full(n, np.inf)]),
        var_names=tuple(f"x{i + 1}" for i in range(m)) + tuple(f"k{j + 1}" for j in range(n)),
        num_selection_vars=m,
        objective_scale=(1, n),
        label=_label(Formulation.AVGLP, m, n, s),
    )


def _crash_signs(instance: Instance, crash_s: int) -> np.ndarray:
    """The L1 AvgLP's sigma_j: +1 where the ``_crash_clones`` at budget ``crash_s`` give 2 deg_j >= crash_s, else -1."""
    a = instance.adjacency
    return np.where(2 * a[_crash_clones(a.shape[0], crash_s)].sum(axis=0) >= crash_s, 1.0, -1.0)


def _rhs(formulation: Formulation, s: int, n: int, sigma: np.ndarray | None = None) -> np.ndarray:
    """The right-hand side at budget s, the only place s enters an LP over n probes.

    Without ``sigma`` it is ``build_lp``'s: 2n probe rows at s/2 for MaxLP and
    at 0 otherwise, then the budget row s.  With the probe signs ``sigma`` it
    is the L1 AvgLP's (``_build_l1_avglp``): n probe rows -sigma_j s/2, then
    the budget rows -s and s.
    """
    if sigma is not None:
        return np.concatenate([-sigma * (s / 2.0), [-float(s), float(s)]])
    rhs = np.full(2 * n + 1, s / 2.0 if formulation is Formulation.MAXLP else 0.0)
    rhs[2 * n] = float(s)
    return rhs


def _label(formulation: Formulation, m: int, n: int, s: int) -> str:
    return f"{formulation.value}(m={m}, n={n}, s={s})"


def _crash_clones(m: int, s: int) -> list[int]:
    """The s evenly spaced clones (i*m)//s."""
    return [i * m // s for i in range(s)]


def _crash_start(problem: LpProblem) -> list[int]:
    """The columns a solve of a MinLP or an L1 AvgLP starts at their upper bound 1.

    They are the ``_crash_clones`` at the budget s of the last row.  With
    them at 1, every other column at 0 and every slack basic, each MinLP
    row holds with its slack at deg_j, s - deg_j or 0, and each L1 AvgLP
    probe row with its slack at |deg_j - s/2|, so the slack basis is
    primal feasible; at x = 0 every z_j <= sum_i x_i - deg_j row would be
    tight, a degenerate start.
    """
    return _crash_clones(problem.num_selection_vars, int(problem.rhs[-1]))


def solve_lp(problem: LpProblem, *, exact: bool = False) -> FractionalSolution:
    """Solve an LP of ``<=`` rows and report the scaled optimum and x* slice.

    ``solve_formulation`` passes a built MinLP or the L1 AvgLP
    (``_build_l1_avglp``); a textbook AvgLP from ``build_lp`` solves to the
    same optimum.

    Repeated calls on an equal problem return bit-identical results:
    the solver's pivot rules are deterministic and depend only on the
    problem data.

    A solve starts from the slack basis with the ``_crash_start`` clones at
    1, which is primal feasible, so it runs primal pivots only; exact mode
    takes the same start.  A problem with a row other than ``<=`` (a built
    MaxLP) is refused.

    The returned x* is certified: a constraint or bound violated by more
    than 1e-7 * max(1, max |rhs|) raises SolverError naming the LP and the
    residual, so a drifted solve never reports a wrong optimum.
    """
    if set(problem.relations) != {"<="}:
        raise SolverError(f"{problem.label}: solve_lp solves <= rows only; read MaxLP off MinLP")
    res = solve_simplex(
        problem.c,
        problem.A,
        problem.rhs,
        problem.lower,
        problem.upper,
        maximize=problem.maximize,
        exact=exact,
        at_upper=_crash_start(problem),
    )
    return _certified(problem, res)


def _certified(problem: LpProblem, res: SimplexResult) -> FractionalSolution:
    """The solution of ``problem`` that ``res`` holds, once it passes ``solve_lp``'s certificate."""
    limit = 1e-7 * max(1.0, float(np.abs(problem.rhs).max()))
    for what, value in (("primal", res.residual_primal), ("bound", res.residual_bound)):
        if value > limit:
            raise SolverError(f"{problem.label}: {what} residual {value:.3e} exceeds {limit:.1e}")
    num, den = problem.objective_scale
    # exact for a Fraction; for a float, + 0 turns an IEEE -0.0 into +0.0 for clean reporting
    z = res.objective * num / den + 0
    x = res.x[: problem.num_selection_vars].copy()
    x.setflags(write=False)
    return FractionalSolution(formulation=problem.formulation, z_star=z, x=x, stats=res)


def maxlp_from_minlp(minlp: FractionalSolution, s: int) -> FractionalSolution:
    """MaxLP's optimum at budget s, read off an optimal MinLP solution at the same s.

    Both MinLP margin terms, deg_j(x) and sum(x) - deg_j(x), are
    non-decreasing in every x_i, so raising x* keeps it optimal for MinLP.
    At sum(x) = s, min(deg_j, s - deg_j) = s/2 - |deg_j - s/2|, and every
    MaxLP point has sum(x) = s.  Hence z*_MaxLP = s/2 - z*_MinLP, and x*
    raised to sum(x) = s attains it: the LP form of cmin + dmax = s/2.

    x* is raised clone by clone, lowest index first, each up to 1, only when
    s - sum(x*) exceeds the solver tolerance (0 in exact mode).  A float z*
    at or below that tolerance reads 0.0: s/2 - z*_MinLP cancels there and
    can fall a few ulps below 0.  ``stats`` is the MinLP solve's.
    """
    exact = isinstance(minlp.z_star, Fraction)
    tol = 0 if exact else TOLERANCE
    one = Fraction(1) if exact else 1.0
    x = minlp.x.copy()
    short = s - x.sum()
    for i in range(x.size):
        if short <= tol:
            break
        raised = min(x[i] + short, one)
        short -= raised - x[i]
        x[i] = raised
    x.setflags(write=False)
    z = (Fraction(s, 2) if exact else s / 2.0) - minlp.z_star
    if not exact and z <= TOLERANCE:
        z = 0.0
    return FractionalSolution(formulation=Formulation.MAXLP, z_star=z, x=x, stats=minlp.stats)


def solve_sweep(instance: Instance, s_values, formulation: Formulation) -> list[FractionalSolution]:
    """Solve one relaxation at every s in ``s_values``, in order, in float mode.

    s enters the LP only through the right-hand side (an AvgLP sweep keeps
    the first s's signs, see ``_build_l1_avglp``), so one simplex engine
    solves every s (``solve_simplex_sweep``): the first from the crash
    basis, each later one from the previous optimal basis.  Only the first
    s's LP is built; each later s builds only its right-hand side (``_rhs``)
    and is certified as the first LP with that right-hand side and a label
    that names its s.  Each z* equals a standalone
    ``solve_formulation`` up to float rounding and passes the same residual
    certificate; x* may be another optimal vertex, which depends on the s
    values solved before it.  A MaxLP sweep is read off the MinLP sweep.
    """
    s_values = list(s_values)
    if formulation is Formulation.MAXLP:
        minlp = solve_sweep(instance, s_values, Formulation.MINLP)
        return [maxlp_from_minlp(sol, s) for s, sol in zip(s_values, minlp)]
    if not s_values:
        return []
    first = _solved_lp(instance, s_values[0], formulation, s_values[0])
    engine = solve_simplex_sweep(
        first.c, first.A, first.rhs, first.lower, first.upper, maximize=first.maximize, at_upper=_crash_start(first)
    )
    solutions = [_certified(first, next(engine))]
    m, n = instance.adjacency.shape
    sigma = _crash_signs(instance, s_values[0]) if formulation is Formulation.AVGLP else None
    for s in s_values[1:]:
        s = _check_budget(instance, s)
        problem = replace(first, rhs=_rhs(formulation, s, n, sigma), label=_label(formulation, m, n, s))
        solutions.append(_certified(problem, engine.send(problem.rhs)))
    return solutions


def _solved_lp(instance: Instance, s: int, formulation: Formulation, crash_s: int) -> LpProblem:
    """The LP solved for a MinLP or AvgLP at s: MinLP as built, AvgLP as the L1 fit."""
    if formulation is Formulation.AVGLP:
        return _build_l1_avglp(instance, s, crash_s)
    return build_lp(instance, s, formulation)


def solve_formulation(
    instance: Instance,
    s: int,
    formulation: Formulation,
    *,
    exact: bool = False,
) -> FractionalSolution:
    """Solve one relaxation at budget s.

    MaxLP is read off MinLP (``maxlp_from_minlp``), and AvgLP is solved as
    the L1 fit (``_build_l1_avglp``).
    """
    if formulation is Formulation.MAXLP:
        return maxlp_from_minlp(solve_formulation(instance, s, Formulation.MINLP, exact=exact), s)
    return solve_lp(_solved_lp(instance, s, formulation, s), exact=exact)


def _term(coef: float, name: str) -> str:
    sign = "+" if coef >= 0 else "-"
    return f"{sign} {abs(coef):.12g} {name}"


def to_lp_text(problem: LpProblem) -> str:
    """Serialize to CPLEX LP format for inspection or external solvers.

    When the objective carries a rational scale (AVGLP), the file holds
    the raw objective and a comment states the multiplier to apply.
    """
    lines = [f"\\ {problem.label}"]
    num, den = problem.objective_scale
    if (num, den) != (1, 1):
        lines.append(f"\\ reported optimum = file optimum * {num}/{den}")
    lines.append("Maximize" if problem.maximize else "Minimize")
    terms = [
        _term(c, name) for c, name in zip(problem.c, problem.var_names) if c != 0
    ]
    lines.append(" obj: " + " ".join(terms))
    lines.append("Subject To")
    for i in range(problem.num_rows):
        row = [
            _term(problem.A[i, j], problem.var_names[j])
            for j in range(problem.num_vars)
            if problem.A[i, j] != 0
        ]
        lines.append(f" r{i + 1}: " + " ".join(row) + f" {problem.relations[i]} {problem.rhs[i]:.12g}")
    lines.append("Bounds")
    for j in range(problem.num_vars):
        lo, hi = problem.lower[j], problem.upper[j]
        if np.isinf(hi):
            lines.append(f" {problem.var_names[j]} >= {lo:.12g}")
        else:
            lines.append(f" {lo:.12g} <= {problem.var_names[j]} <= {hi:.12g}")
    lines.append("End")
    return "\n".join(lines) + "\n"
