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

The trials run in blocks (at most ``_BLOCK_CELLS`` trial x clone cells
each, and as many trial x probe cells, so memory does not grow with
``restarts``), stage by stage: every
draw of the block, then every drop and fill, then every pad.  Each
trial owns its generator and makes the same calls in the same order as
it would alone (one ``random(m)`` for the draw, then at most one
uniform pick for its drop, fill or random pad), so no trial's stream
depends on the block it runs in.  A block holds its selections as one
0/1 matrix S, and every stage reads all its degree vectors off one
``S @ A`` product.

A repair policy is a ranking of the clones.  ``random`` has none: the
repair draws the clones it drops or adds uniformly.  ``lowest-fraction``
ranks by x*: a drop takes the smallest x* first, a fill the largest
first, ties to the lowest clone index.

Repair never adds clones for the rcm family, so selections can end
below s; the pad policy then optionally tops the selection up to s with
random clones, or greedily: one clone at a time, the clone that most
improves the objective, ties to the lowest clone index.  The greedy pad
steps every short trial of a block together: a cavg step scores every
candidate by one matmul of the probes' gains, and a cmin step by one
matmul with three probe-indicator columns per trial, because a
candidate can move the minimum M0 only to M0 - 1, M0 or M0 + 1.
Padding trades the guarantees of the analysis (which describe the
pre-pad selection) for full-size selections and can move any objective
either way, so the report records the objective both before and after
it.

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


# at most this many trial x clone (or trial x probe) cells per block of trials,
# so a run of any length holds a bounded working set
_BLOCK_CELLS = 1 << 17
# OpenBLAS runs a matrix product of fewer multiply-adds than this on the
# calling thread; a larger one wakes worker threads, which stall for
# milliseconds when other processes hold the cores
_PRODUCT_MACS = 1 << 19

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


def _product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x @ y`` in float64, in row chunks of fewer than ``_PRODUCT_MACS`` multiply-adds each."""
    rows = max(1, (_PRODUCT_MACS - 1) // (x.shape[1] * y.shape[1]))
    if x.shape[0] <= rows:
        return np.matmul(x, y, dtype=np.float64)
    out = np.empty((x.shape[0], y.shape[1]))
    for first in range(0, x.shape[0], rows):
        np.matmul(x[first : first + rows], y, out=out[first : first + rows])
    return out


def _scores(sel: np.ndarray, af: np.ndarray, s, kind: ObjectiveKind) -> np.ndarray:
    """Integer objective scores of the stacked 0/1 selections ``sel``, one per row (see ``objective_scores``)."""
    return objective_scores(_product(sel, af).astype(np.int64), s, kind)


def _pick(pool: np.ndarray, count: int, rng: np.random.Generator, rank: np.ndarray | None) -> np.ndarray:
    """``count`` positions in ``pool``: a uniform draw without a rank, else lowest rank first, ties to the lowest clone."""
    if rank is None:
        return rng.choice(pool.size, count, replace=False)
    return np.lexsort((pool, rank[pool]))[:count]


def _flip(row: np.ndarray, value: bool, count: int, rng: np.random.Generator, rank: np.ndarray | None) -> None:
    """Flip ``count`` entries of the 0/1 ``row`` that read ``value``, picked (see ``_pick``) from those in index order."""
    pool = np.flatnonzero(row == value)
    row[pool[_pick(pool, count, rng, rank)]] = not value


def _pad(
    sel: np.ndarray,
    af: np.ndarray,
    s: int,
    kind: ObjectiveKind,
    rngs: list[np.random.Generator],
    policy: PadPolicy,
) -> None:
    """Top every row of ``sel`` up to s clones, in place; row i draws from ``rngs[i]``.

    The greedy pad runs in lock-step over the rows: each step adds to every
    row still short the clone that best helps the objective, ties to the
    lowest clone index.  A probe at degree d scores min(d, s - d), and a
    candidate moves each probe it hits by gain = min(d + 1, s - d - 1) -
    min(d, s - d), which is -1, 0 or +1.
    """
    need = s - sel.sum(axis=1)
    if policy is PadPolicy.RANDOM:
        for i, count in enumerate(need.tolist()):
            if count > 0:
                _flip(sel[i], False, count, rngs[i], None)
    if policy is not PadPolicy.GREEDY:
        return
    # rows sorted by need, most first, so the rows still short are a prefix
    order = np.argsort(-need, kind="stable")
    need, taken = need[order], sel[order]
    deg = _product(taken, af)
    for step in range(need.max(initial=0)):
        live = int(np.count_nonzero(need > step))
        d = deg[:live]
        low = np.minimum(d, s - d)
        gain = np.minimum(d + 1, s - d - 1) - low
        if kind is ObjectiveKind.CAVG:
            # the candidate's sum is the current sum plus its gains
            score = _product(gain, af.T)
        else:
            # The minimum M0 moves by at most one: to M0 - 1 when the candidate
            # lowers a probe at M0, to M0 + 1 when it raises every probe at M0
            # and lowers none at M0 + 1, else it stays.
            least = low.min(axis=1, keepdims=True)
            floor = low == least
            ind = np.concatenate([floor & (gain < 0), floor & (gain > 0), (low == least + 1) & (gain < 0)])
            lowers, raises, tips = _product(ind, af.T).reshape(3, live, -1)
            rise = (raises == floor.sum(axis=1, keepdims=True)) & (tips == 0)
            score = rise.astype(np.float64) - (lowers > 0)
        score[taken[:live]] = -np.inf
        best = score.argmax(axis=1)
        taken[np.arange(live), best] = True
        d += af[best]
    sel[order] = taken


def _round_block(
    af: np.ndarray,
    s: int,
    probs: np.ndarray,
    x_star: np.ndarray,
    kind: ObjectiveKind,
    config: RoundingConfig,
    trials: range,
) -> tuple[np.ndarray, np.ndarray, list[RestartOutcome]]:
    """Run ``trials`` stage by stage: their final selections (one 0/1 row each), integer scores and outcomes."""
    algorithm = config.algorithm
    rngs, derived = zip(*(_trial_rng(config.seed, t) for t in trials))
    m, n = af.shape
    sel = np.empty((len(trials), m), dtype=bool)
    u = np.empty(m)
    for row, rng in zip(sel, rngs):
        np.less(rng.random(out=u), probs, out=row)
    sampled = sel.sum(axis=1)
    raw = _scores(sel, af, sampled[:, None] if kind.maximize else s, kind)

    # every algorithm drops an excess; only rdm fills a shortfall (the others pad).
    # Ranked by x*, a drop takes the smallest first and a fill the largest.
    rank = None if config.repair_policy is RepairPolicy.RANDOM else x_star
    fill_rank = None if rank is None else -rank
    excess = (sampled - s).tolist()
    for i, count in enumerate(excess):
        if count > 0:
            _flip(sel[i], True, count, rngs[i], rank)
        elif count < 0 and algorithm is Algorithm.RDM:
            _flip(sel[i], False, -count, rngs[i], fill_rank)
    repaired = [abs(c) if algorithm is Algorithm.RDM else max(c, 0) for c in excess]

    # only a padded block is scored again
    final = pre_pad = _scores(sel, af, s, kind)
    if algorithm is not Algorithm.RDM and config.pad_policy is not PadPolicy.NONE and min(excess) < 0:
        _pad(sel, af, s, kind, rngs, config.pad_policy)
        final = _scores(sel, af, s, kind)
    den = objective_denominator(kind, n)
    columns = zip(trials, derived, repaired, *(c.tolist() for c in (sampled, raw, pre_pad, final, sel.sum(axis=1))))
    outcomes = [
        RestartOutcome(
            trial=t,
            derived_seed=seed,
            sampled_size=size,
            raw_value=raw_score / den,
            violations_repaired=fixed,
            pre_pad_value=pre_score / den,
            value=score / den,
            selected_size=final_size,
        )
        for t, seed, fixed, size, raw_score, pre_score, score, final_size in columns
    ]
    return sel, final, outcomes


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

    af = instance.adjacency.astype(np.float64)
    block = max(1, _BLOCK_CELLS // max(af.shape))
    best_row, best_score, best_trial = None, 0, -1
    outcomes = []
    for first in range(0, config.restarts, block):
        trials = range(first, min(first + block, config.restarts))
        sel, scores, block_outcomes = _round_block(af, s, probs, x_star, kind, config, trials)
        outcomes += block_outcomes
        # every trial's score has the same denominator; ties keep the earliest
        i = int(np.argmax(scores) if kind.maximize else np.argmin(scores))
        if best_row is None or (scores[i] > best_score if kind.maximize else scores[i] < best_score):
            best_row, best_score, best_trial = sel[i], scores[i], trials[i]
    return RoundingReport(
        config=config,
        objective=kind,
        lp=lp_solution,
        epsilon_or_lambda=eps_lambda,
        outcomes=tuple(outcomes),
        best=evaluate(instance, np.flatnonzero(best_row).tolist(), s),
        best_trial=best_trial,
    )
