"""Randomized rounding of the LP relaxations.

Five variants, each tied to one relaxation and one objective:

* rcm   -- round MinLP's x* by independent Bernoulli draws, drop excess
           clones when the draw exceeds s; targets cmin.
* rcm2  -- rcm with probabilities shrunk to (1-eps) x* where
           eps = min{2 sqrt(ln(4n+2)/z*), 1}, trading expected size for
           a concentration guarantee.
* rdm   -- round MaxLP's x*, then repair to exactly s clones by
           dropping the excess or filling the shortfall; targets dmax.
* rca   -- rcm applied to AvgLP; targets cavg.
* rca2  -- AvgLP rounding with probabilities x*/(1+lambda),
           lambda = 1/sqrt(z*); targets cavg with an additive
           z* - 10 sqrt(z*) guarantee on the mean.

A run draws ``restarts`` independent trials and keeps the best final
selection under the target objective (ties to the earliest trial).
Trial t always sees the generator seeded from (seed, t), so rerunning
with more restarts reproduces the earlier trials exactly.

Repair never adds clones for the rcm family, so selections can end
below s; the pad policy then optionally tops the selection up to s with
random or greedily chosen clones.  Padding trades the guarantees of the
analysis (which describe the pre-pad selection) for full-size
selections and can move any objective either way, so the report records
the objective both before and after it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    CoverSolution,
    Instance,
    ObjectiveKind,
    compute_degrees,
    evaluate,
    objective_denominator,
    objective_scores,
)
from .errors import InputError
from .lp import Formulation, FractionalSolution, solve_formulation


class Algorithm(Enum):
    RCM = "rcm"
    RCM2 = "rcm2"
    RDM = "rdm"
    RCA = "rca"
    RCA2 = "rca2"


class PadPolicy(Enum):
    NONE = "none"
    RANDOM = "random"
    GREEDY = "greedy"


class RepairPolicy(Enum):
    RANDOM = "random"
    LOWEST_FRACTION = "lowest-fraction"


ALGORITHM_OBJECTIVE = {
    Algorithm.RCM: ObjectiveKind.CMIN,
    Algorithm.RCM2: ObjectiveKind.CMIN,
    Algorithm.RDM: ObjectiveKind.DMAX,
    Algorithm.RCA: ObjectiveKind.CAVG,
    Algorithm.RCA2: ObjectiveKind.CAVG,
}

ALGORITHM_FORMULATION = {
    Algorithm.RCM: Formulation.MINLP,
    Algorithm.RCM2: Formulation.MINLP,
    Algorithm.RDM: Formulation.MAXLP,
    Algorithm.RCA: Formulation.AVGLP,
    Algorithm.RCA2: Formulation.AVGLP,
}


@dataclass(frozen=True)
class RoundingConfig:
    algorithm: Algorithm
    seed: int = 0
    restarts: int = 1
    pad_policy: PadPolicy = PadPolicy.RANDOM
    repair_policy: RepairPolicy = RepairPolicy.RANDOM

    def __post_init__(self):
        if self.restarts < 1:
            raise InputError(f"restarts must be >= 1, got {self.restarts}")


@dataclass(frozen=True)
class RestartOutcome:
    """Diagnostics for one trial.

    ``raw_value`` scores the Bernoulli draw before any repair, with
    margins measured against the draw's own size for cmin/cavg (the
    relaxation's integer objective) and against s/2 for dmax.
    """

    trial: int
    derived_seed: int
    sampled_size: int
    raw_value: float
    violations_repaired: int
    pre_pad_value: float
    value: float
    selected_size: int


@dataclass(frozen=True)
class RoundingReport:
    config: RoundingConfig
    objective: ObjectiveKind
    lp: FractionalSolution
    epsilon_or_lambda: float | None
    outcomes: tuple[RestartOutcome, ...]
    best: CoverSolution
    best_trial: int

    @property
    def per_restart(self) -> tuple[float, ...]:
        return tuple(o.value for o in self.outcomes)

    @property
    def violations_repaired(self) -> tuple[int, ...]:
        return tuple(o.violations_repaired for o in self.outcomes)


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def derive_trial_seed(seed: int, trial: int) -> int:
    """Avalanche (seed, trial) into one 64-bit generator seed.

    splitmix64 finalizer over the trial-th step of the stream starting
    at ``seed``: nearby seeds and trials land far apart, and trial t is
    independent of how many restarts the run asked for.
    """
    z = (int(seed) + (int(trial) + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _trial_rng(seed: int, trial: int) -> tuple[np.random.Generator, int]:
    derived = derive_trial_seed(seed, trial)
    return np.random.Generator(np.random.PCG64(derived)), derived


def shrink_parameter(algorithm: Algorithm, z_star: float, num_probes: int) -> float | None:
    """The eps (rcm2) or lambda (rca2) shrink factor; None where unused."""
    if algorithm is Algorithm.RCM2:
        if z_star <= 0:
            return 1.0
        return min(2.0 * math.sqrt(math.log(4 * num_probes + 2) / z_star), 1.0)
    if algorithm is Algorithm.RCA2:
        if z_star <= 0:
            return None
        return 1.0 / math.sqrt(z_star)
    return None


def _probabilities(algorithm: Algorithm, lp_solution: FractionalSolution, num_probes: int):
    x = np.clip(np.asarray(lp_solution.x, dtype=float), 0.0, 1.0)
    z = float(lp_solution.z_star)
    shrink = shrink_parameter(algorithm, z, num_probes)
    if algorithm is Algorithm.RCM2:
        return (1.0 - shrink) * x, shrink
    if algorithm is Algorithm.RCA2:
        if shrink is None:
            return np.zeros_like(x), None
        return x / (1.0 + shrink), shrink
    return x, None


def _raw_objective(instance: Instance, selected: np.ndarray, s: int, kind: ObjectiveKind) -> float:
    deg = compute_degrees(instance, selected.tolist())
    target = int(selected.size) if kind.maximize else s
    return float(objective_scores(deg, target, kind)) / objective_denominator(kind, instance.num_probes)


def _drop_excess(selected: np.ndarray, count: int, x_star: np.ndarray, rng: np.random.Generator, policy: RepairPolicy) -> np.ndarray:
    if policy is RepairPolicy.RANDOM:
        drop_pos = rng.choice(selected.size, size=count, replace=False)
    else:
        # smallest fractional value first, ties to the lowest clone index
        order = np.lexsort((selected, x_star[selected]))
        drop_pos = order[:count]
    keep = np.ones(selected.size, dtype=bool)
    keep[drop_pos] = False
    return selected[keep]


def _fill_shortfall(selected: np.ndarray, count: int, x_star: np.ndarray, rng: np.random.Generator, policy: RepairPolicy, m: int) -> np.ndarray:
    pool = np.setdiff1d(np.arange(m), selected)
    if policy is RepairPolicy.RANDOM:
        added = rng.choice(pool, size=count, replace=False)
    else:
        # largest fractional value first: nearest to being selected
        order = np.lexsort((pool, -x_star[pool]))
        added = pool[order[:count]]
    return np.sort(np.concatenate([selected, added]))


def _pad(
    instance: Instance,
    selected: np.ndarray,
    s: int,
    kind: ObjectiveKind,
    rng: np.random.Generator,
    policy: PadPolicy,
) -> np.ndarray:
    need = s - selected.size
    if need <= 0 or policy is PadPolicy.NONE:
        return selected
    pool = np.setdiff1d(np.arange(instance.num_clones), selected)
    if policy is PadPolicy.RANDOM:
        added = rng.choice(pool, size=need, replace=False)
        return np.sort(np.concatenate([selected, added]))
    # greedy: repeatedly add the clone that best helps the objective,
    # ties to the lowest clone index
    a = instance.adjacency
    deg = compute_degrees(instance, selected.tolist()).astype(np.int64)
    chosen = list(selected)
    pool = list(pool)
    for _ in range(need):
        cand_rows = a[pool, :].astype(np.int64)
        new_deg = deg[None, :] + cand_rows
        score = objective_scores(new_deg, s, kind)
        best = int(np.argmax(score) if kind.maximize else np.argmin(score))
        deg = new_deg[best]
        chosen.append(pool.pop(best))
    return np.sort(np.array(chosen, dtype=np.intp))


def _single_round(
    instance: Instance,
    s: int,
    probs: np.ndarray,
    x_star: np.ndarray,
    kind: ObjectiveKind,
    algorithm: Algorithm,
    config: RoundingConfig,
    trial: int,
) -> tuple[CoverSolution, RestartOutcome]:
    rng, derived = _trial_rng(config.seed, trial)
    m = instance.num_clones
    draw = rng.random(m) < probs
    selected = np.flatnonzero(draw)
    sampled = int(selected.size)
    raw = _raw_objective(instance, selected, s, kind)

    if algorithm is Algorithm.RDM:
        excess = sampled - s
        if excess > 0:
            selected = _drop_excess(selected, excess, x_star, rng, config.repair_policy)
        elif excess < 0:
            selected = _fill_shortfall(selected, -excess, x_star, rng, config.repair_policy, m)
        repaired = abs(excess)
    else:
        excess = max(sampled - s, 0)
        if excess > 0:
            selected = _drop_excess(selected, excess, x_star, rng, config.repair_policy)
        repaired = excess

    pre_pad = evaluate(instance, selected.tolist(), s)
    if algorithm is not Algorithm.RDM:
        selected = _pad(instance, selected, s, kind, rng, config.pad_policy)
    final = evaluate(instance, selected.tolist(), s)
    outcome = RestartOutcome(
        trial=trial,
        derived_seed=derived,
        sampled_size=sampled,
        raw_value=raw,
        violations_repaired=repaired,
        pre_pad_value=pre_pad.value(kind),
        value=final.value(kind),
        selected_size=len(final.selected),
    )
    return final, outcome


def _lp_for(instance: Instance, s: int, algorithm: Algorithm, lp_solution: FractionalSolution | None) -> FractionalSolution:
    want = ALGORITHM_FORMULATION[algorithm]
    if lp_solution is None:
        return solve_formulation(instance, s, want)
    if lp_solution.formulation is not want:
        raise InputError(
            f"{algorithm.value} rounds {want.value} solutions, got {lp_solution.formulation.value}"
        )
    if len(lp_solution.x) != instance.num_clones:
        raise InputError("LP solution does not match the instance (wrong x* length)")
    return lp_solution


def solve_end_to_end(
    instance: Instance,
    s: int,
    config: RoundingConfig,
    lp_solution: FractionalSolution | None = None,
) -> RoundingReport:
    """LP-solve (unless given one), then round with restarts, keep the best.

    The best selection is judged by the objective the algorithm targets,
    ``ALGORITHM_OBJECTIVE[config.algorithm]``.  davg has no rounding
    algorithm of its own: cavg and davg determine each other
    (davg = s/2 - cavg), so maximize cavg via rca/rca2.
    """
    lp_solution = _lp_for(instance, s, config.algorithm, lp_solution)
    kind = ALGORITHM_OBJECTIVE[config.algorithm]
    x_star = np.clip(np.asarray(lp_solution.x, dtype=float), 0.0, 1.0)
    probs, eps_lambda = _probabilities(config.algorithm, lp_solution, instance.num_probes)

    best: CoverSolution | None = None
    best_trial = -1
    outcomes = []
    for t in range(config.restarts):
        solution, outcome = _single_round(
            instance, s, probs, x_star, kind, config.algorithm, config, trial=t
        )
        outcomes.append(outcome)
        if best is None:
            best, best_trial = solution, t
            continue
        new, old = solution.exact_value(kind), best.exact_value(kind)
        if (kind.maximize and new > old) or (not kind.maximize and new < old):
            best, best_trial = solution, t
    return RoundingReport(
        config=config,
        objective=kind,
        lp=lp_solution,
        epsilon_or_lambda=eps_lambda,
        outcomes=tuple(outcomes),
        best=best,
        best_trial=best_trial,
    )
