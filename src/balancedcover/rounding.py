"""Randomized rounding of the LP relaxations.

Five variants, each tied to one relaxation and one objective:

* rcm   -- round MinLP's x* by independent Bernoulli draws, drop excess
           clones when the draw exceeds s; targets cmin.
* rcm2  -- rcm with probabilities shrunk to (1-eps) x* where
           eps = min{2 sqrt(ln(4n+2)/z*), 1}, trading expected size for
           a concentration guarantee.
* rdm   -- round MaxLP's x* (read off MinLP: its x* raised to sum s),
           then repair to exactly s clones by dropping the excess or
           filling the shortfall; targets dmax.
* rca   -- rcm applied to AvgLP; targets cavg.
* rca2  -- AvgLP rounding with probabilities x*/(1+lambda),
           lambda = 1/sqrt(z*); targets cavg with an additive
           z* - 10 sqrt(z*) guarantee on the mean.

A run draws ``restarts`` independent trials and keeps the best final
selection under the target objective (ties to the earliest trial).
Trial t always sees the generator seeded from (seed, t), so rerunning
with more restarts reproduces the earlier trials exactly.

A repair policy is a ranking of the clones.  ``random`` has none: the
repair draws the clones it drops or adds uniformly.  ``lowest-fraction``
ranks by x*: a drop takes the smallest x* first, a fill the largest
first, ties to the lowest clone index.

Repair never adds clones for the rcm family, so selections can end
below s; the pad policy then optionally tops the selection up to s with
random clones, or greedily: one clone at a time, the clone that most
improves the objective, ties to the lowest clone index.  Padding trades
the guarantees of the analysis (which describe the pre-pad selection)
for full-size selections and can move any objective either way, so the
report records the objective both before and after it.

Trials are scored on integer degree vectors, and compared on the
integer objective score, whose denominator is the same for every
trial.  Only the best trial becomes a ``CoverSolution``, through the
public ``evaluate``.
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
    _check_budget,
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


def _probabilities(algorithm: Algorithm, x_star: np.ndarray, z_star: float, num_probes: int):
    shrink = shrink_parameter(algorithm, z_star, num_probes)
    if algorithm is Algorithm.RCM2:
        return (1.0 - shrink) * x_star, shrink
    if algorithm is Algorithm.RCA2:
        if shrink is None:
            return np.zeros_like(x_star), None
        return x_star / (1.0 + shrink), shrink
    return x_star, None


def _score(adjacency: np.ndarray, selected: np.ndarray, s: int, kind: ObjectiveKind) -> int:
    """Integer objective score of a selection (see ``objective_scores``)."""
    return int(objective_scores(adjacency[selected].sum(axis=0, dtype=np.int64), s, kind))


def _pick(pool: np.ndarray, count: int, rng: np.random.Generator, rank: np.ndarray | None) -> np.ndarray:
    """``count`` positions in ``pool``: a uniform draw without a rank, else lowest rank first, ties to the lowest clone."""
    if rank is None:
        return rng.choice(pool.size, count, replace=False)
    return np.lexsort((pool, rank[pool]))[:count]


def _add(selected: np.ndarray, count: int, rng: np.random.Generator, rank: np.ndarray | None, m: int) -> np.ndarray:
    """``selected`` plus ``count`` clones picked (see ``_pick``) from those outside it, in index order."""
    taken = np.zeros(m, dtype=bool)
    taken[selected] = True
    pool = np.flatnonzero(~taken)
    return np.sort(np.concatenate([selected, pool[_pick(pool, count, rng, rank)]]))


def _pad(
    instance: Instance,
    selected: np.ndarray,
    s: int,
    kind: ObjectiveKind,
    rng: np.random.Generator,
    policy: PadPolicy,
) -> np.ndarray:
    """Top ``selected`` up to s clones.  Only cmin and cavg selections are padded."""
    need = s - selected.size
    if need <= 0 or policy is PadPolicy.NONE:
        return selected
    if policy is PadPolicy.RANDOM:
        return _add(selected, need, rng, None, instance.num_clones)
    # greedy: repeatedly add the clone that best helps the objective, ties
    # to the lowest clone index.  A probe at degree d scores min(d, s - d);
    # a candidate changes the degree of exactly the probes it hits.
    a = instance.adjacency
    if kind is ObjectiveKind.CAVG:
        rows = a.astype(np.float64)
    else:
        hits = a.view(np.bool_)
    deg = a[selected].sum(axis=0, dtype=np.int64)
    taken = np.zeros(instance.num_clones, dtype=bool)
    taken[selected] = True
    for _ in range(need):
        low0 = np.minimum(deg, s - deg)
        low1 = np.minimum(deg + 1, s - deg - 1)
        if kind is ObjectiveKind.CAVG:
            # the candidate's sum is the current sum plus its gains
            score = rows @ (low1 - low0).astype(np.float64)
        else:
            score = np.where(hits, low1, low0).min(axis=1).astype(np.float64)
        score[taken] = -np.inf
        best = int(np.argmax(score))
        taken[best] = True
        deg += a[best]
    return np.flatnonzero(taken)


def _single_round(
    instance: Instance,
    s: int,
    probs: np.ndarray,
    x_star: np.ndarray,
    kind: ObjectiveKind,
    algorithm: Algorithm,
    config: RoundingConfig,
    trial: int,
) -> tuple[np.ndarray, int, RestartOutcome]:
    """One trial: its final selection, integer score and outcome."""
    rng, derived = _trial_rng(config.seed, trial)
    a = instance.adjacency
    m = instance.num_clones
    den = objective_denominator(kind, instance.num_probes)
    draw = rng.random(m) < probs
    selected = np.flatnonzero(draw)
    sampled = int(selected.size)
    raw = _score(a, selected, sampled if kind.maximize else s, kind)

    # every algorithm drops an excess; only rdm fills a shortfall (the others pad).
    # Ranked by x*, a drop takes the smallest first and a fill the largest.
    rank = None if config.repair_policy is RepairPolicy.RANDOM else x_star
    excess = sampled - s
    if excess > 0:
        selected = np.delete(selected, _pick(selected, excess, rng, rank))
    elif excess < 0 and algorithm is Algorithm.RDM:
        selected = _add(selected, -excess, rng, None if rank is None else -rank, m)
    repaired = abs(excess) if algorithm is Algorithm.RDM else max(excess, 0)

    pre_pad = _score(a, selected, s, kind)
    if algorithm is not Algorithm.RDM:
        selected = _pad(instance, selected, s, kind, rng, config.pad_policy)
    final = _score(a, selected, s, kind)
    outcome = RestartOutcome(
        trial=trial,
        derived_seed=derived,
        sampled_size=sampled,
        raw_value=raw / den,
        violations_repaired=repaired,
        pre_pad_value=pre_pad / den,
        value=final / den,
        selected_size=int(selected.size),
    )
    return selected, final, outcome


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
    s = _check_budget(instance, s)
    kind = ALGORITHM_OBJECTIVE[config.algorithm]
    x_star = np.clip(np.asarray(lp_solution.x, dtype=float), 0.0, 1.0)
    probs, eps_lambda = _probabilities(config.algorithm, x_star, float(lp_solution.z_star), instance.num_probes)

    best_selected, best_score, best_trial = None, 0, -1
    outcomes = []
    for t in range(config.restarts):
        selected, score, outcome = _single_round(
            instance, s, probs, x_star, kind, config.algorithm, config, trial=t
        )
        outcomes.append(outcome)
        # every trial's score has the same denominator; ties keep the earliest
        if best_selected is None or (score > best_score if kind.maximize else score < best_score):
            best_selected, best_score, best_trial = selected, score, t
    return RoundingReport(
        config=config,
        objective=kind,
        lp=lp_solution,
        epsilon_or_lambda=eps_lambda,
        outcomes=tuple(outcomes),
        best=evaluate(instance, best_selected.tolist(), s),
        best_trial=best_trial,
    )
