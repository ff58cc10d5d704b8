"""LP relaxations of the balanced covering objectives.

Three formulations over selection variables x_i in [0, 1]:

* MINLP (maximize z):  z <= sum_i a_ij x_i  and  z <= sum_i (1-a_ij) x_i
  for every probe j, with sum_i x_i <= s.  z* bounds the best cmin.
* MAXLP (minimize z):  z >= |sum_i a_ij x_i - s/2| split into two linear
  rows per probe, with sum_i x_i = s exactly.  z* bounds the best dmax.
* AVGLP (maximize (1/n) sum_j z_j):  per-probe margin variables with the
  same pair of rows as MINLP.  z* bounds the best cavg.

AVGLP is stored with raw objective sum_j z_j and a rational scale 1/n
applied when reporting, so the tableau holds only integers and halves
and the exact solver mode stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .core import Instance, _check_budget
from .errors import InputError
from .simplex import EQ, GE, LE, solve_simplex


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
class SolverStats:
    iterations: int
    basis: tuple[int, ...]
    residual_primal: float
    residual_bound: float
    residual_dual: float


@dataclass(frozen=True)
class FractionalSolution:
    """Optimal LP value and the fractional selection vector x*.

    ``z_star`` is a float normally, a Fraction when solved exactly.
    """

    formulation: Formulation
    z_star: float | Fraction
    x: np.ndarray
    stats: SolverStats


def build_lp(instance: Instance, s: int, formulation: Formulation) -> LpProblem:
    """Materialize one relaxation; probe j owns rows 2j and 2j+1, the budget row is last."""
    s = _check_budget(instance, s)
    a = instance.adjacency.astype(float)
    m, n = a.shape
    avg = formulation is Formulation.AVGLP
    nz = n if avg else 1
    A = np.zeros((2 * n + 1, m + nz))
    rhs = np.zeros(2 * n + 1)
    probes = np.arange(n)
    zcol = m + (probes if avg else 0)
    if formulation is Formulation.MAXLP:
        # |deg_j - s/2| <= z as deg_j - z <= s/2 and deg_j + z >= s/2
        A[0 : 2 * n : 2, :m] = a.T
        A[1 : 2 * n : 2, :m] = a.T
        A[2 * probes, zcol] = -1.0
        rhs[: 2 * n] = s / 2.0
        relations = (LE, GE) * n + (EQ,)
    else:
        # z_j <= deg_j and z_j <= sum_i x_i - deg_j
        A[0 : 2 * n : 2, :m] = -a.T
        A[1 : 2 * n : 2, :m] = a.T - 1.0
        A[2 * probes, zcol] = 1.0
        relations = (LE,) * (2 * n + 1)
    A[2 * probes + 1, zcol] = 1.0
    A[2 * n, :m] = 1.0
    rhs[2 * n] = float(s)
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
        rhs=rhs,
        lower=lower,
        upper=upper,
        var_names=tuple(f"x{i + 1}" for i in range(m)) + z_names,
        num_selection_vars=m,
        objective_scale=(1, n) if avg else (1, 1),
        label=f"{formulation.value}(m={m}, n={n}, s={s})",
    )


def solve_lp(problem: LpProblem, *, exact: bool = False) -> FractionalSolution:
    """Solve a built LP and report the scaled optimum and x* slice.

    Repeated calls on an equal problem return bit-identical results:
    the solver's pivot rules are deterministic and depend only on the
    problem data.
    """
    res = solve_simplex(
        problem.c,
        problem.A,
        problem.relations,
        problem.rhs,
        problem.lower,
        problem.upper,
        maximize=problem.maximize,
        exact=exact,
    )
    num, den = problem.objective_scale
    # exact for a Fraction; for a float, + 0 turns an IEEE -0.0 into +0.0 for clean reporting
    z = res.objective * num / den + 0
    x = res.x[: problem.num_selection_vars].copy()
    x.setflags(write=False)
    stats = SolverStats(
        iterations=res.iterations,
        basis=res.basis,
        residual_primal=res.residual_primal,
        residual_bound=res.residual_bound,
        residual_dual=res.residual_dual,
    )
    return FractionalSolution(formulation=problem.formulation, z_star=z, x=x, stats=stats)


def solve_formulation(
    instance: Instance,
    s: int,
    formulation: Formulation,
    *,
    exact: bool = False,
) -> FractionalSolution:
    return solve_lp(build_lp(instance, s, formulation), exact=exact)


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
