"""Exact references for small instances, plus a Monte-Carlo tail estimator.

Exhaustive enumeration over clone subsets runs through one chunked
scan: a chunk of index combinations becomes a (chunk, k) array, fancy
indexing pulls the clone rows, and one sum gives all degree vectors at
once.  The optimum, all-objectives and decision oracles all consume
that scan; ``exact_all_objectives`` scores every objective on each
chunk's degrees, so it enumerates once.  Enumeration is lexicographic
and improvements must be strict, so the reported witness is the
lexicographically smallest optimal subset.

Everything here refuses to run past a configurable subset budget
(default 1e7) rather than silently grinding; every budget is checked
before the first subset is enumerated, and the refusal carries the
offending count.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .core import Instance, ObjectiveKind, _check_budget, objective_denominator, objective_scores
from .errors import BudgetExceededError, InputError

DEFAULT_BUDGET = 10_000_000

_CHUNK = 32768


@dataclass(frozen=True)
class ExactResult:
    """Optimal objective over subsets, in exact integer-over-denominator form.

    ``optimum_num / optimum_den`` is the optimum over subsets of size
    exactly s; ``witness`` is the lexicographically smallest optimal
    subset.  For the maximization objectives (cmin/cavg) the fields
    ``*_at_most`` additionally give the optimum when subsets of any
    size up to s are allowed; for the deviation objectives that
    relaxation is pointless (fewer clones only drift farther from s/2)
    and the fields stay None.
    """

    objective: ObjectiveKind
    s: int
    optimum_num: int
    optimum_den: int
    witness: tuple[int, ...]
    enumerated: int
    optimum_num_at_most: int | None = None
    witness_at_most: tuple[int, ...] | None = None
    enumerated_at_most: int | None = None

    @property
    def optimum(self) -> Fraction:
        return Fraction(self.optimum_num, self.optimum_den)

    @property
    def optimum_at_most(self) -> Fraction | None:
        if self.optimum_num_at_most is None:
            return None
        return Fraction(self.optimum_num_at_most, self.optimum_den)


def _check_enumeration(m: int, s: int, budget: int) -> int:
    count = math.comb(m, s)
    if count > budget:
        raise BudgetExceededError(
            f"enumerating C({m}, {s}) = {count} subsets exceeds the budget of {budget}",
            count=count,
        )
    return count


def _scan(instance: Instance, k: int):
    """Yield (idx, deg) per chunk of the size-k subsets, in lexicographic order.

    ``idx`` is a (chunk, k) array of clone indices and ``deg`` the
    matching (chunk, n) degree vectors; k = 0 yields the empty subset.
    """
    a = instance.adjacency.astype(np.int64)
    it = itertools.combinations(range(instance.num_clones), k)
    while True:
        chunk = list(itertools.islice(it, _CHUNK))
        if not chunk:
            return
        idx = np.array(chunk, dtype=np.intp)
        yield idx, a[idx, :].sum(axis=1)


def _best(instance: Instance, k: int, s: int, kinds) -> list[tuple[int, tuple[int, ...]]]:
    """Best (score, witness) per kind over subsets of size exactly k; lex-first wins."""
    best = [(None, None)] * len(kinds)
    for idx, deg in _scan(instance, k):
        for i, kind in enumerate(kinds):
            scores = objective_scores(deg, s, kind)
            pos = int(np.argmax(scores) if kind.maximize else np.argmin(scores))
            cand, score = int(scores[pos]), best[i][0]
            if score is None or (cand > score if kind.maximize else cand < score):
                best[i] = (cand, tuple(int(j) for j in idx[pos]))
    return best


def exact_optimum(
    instance: Instance,
    s: int,
    objective: ObjectiveKind,
    *,
    budget: int = DEFAULT_BUDGET,
    include_at_most: bool | None = None,
) -> ExactResult:
    """Brute-force optimum at size exactly s (and optionally size <= s).

    Raises a budget error carrying the subset count when C(m, s), or
    the at-most-s total, exceeds ``budget``; both are checked before
    any subset is enumerated.
    """
    m = instance.num_clones
    s = _check_budget(instance, s)
    count = _check_enumeration(m, s, budget)
    if include_at_most is None:
        include_at_most = objective.maximize
    total = sum(math.comb(m, k) for k in range(s + 1)) if include_at_most else None
    if include_at_most and total > budget:
        raise BudgetExceededError(
            f"enumerating all subsets of size <= {s} means {total} subsets, over the budget of {budget}",
            count=total,
        )
    [(score, witness)] = _best(instance, s, s, [objective])
    result = ExactResult(
        objective=objective,
        s=s,
        optimum_num=score,
        optimum_den=objective_denominator(objective, instance.num_probes),
        witness=witness,
        enumerated=count,
    )
    if not include_at_most:
        return result
    best_score, best_witness = score, witness
    for k in range(s):
        [(cand_score, cand_witness)] = _best(instance, k, s, [objective])
        # across sizes, ties go to the lexicographically smaller tuple
        # (a proper prefix counts as smaller)
        if (objective.maximize and cand_score > best_score) or (
            not objective.maximize and cand_score < best_score
        ):
            best_score, best_witness = cand_score, cand_witness
        elif cand_score == best_score and cand_witness < best_witness:
            best_witness = cand_witness
    return replace(
        result,
        optimum_num_at_most=best_score,
        witness_at_most=best_witness,
        enumerated_at_most=total,
    )


def exact_all_objectives(
    instance: Instance, s: int, *, budget: int = DEFAULT_BUDGET
) -> dict[ObjectiveKind, ExactResult]:
    """Exact optima at size exactly s for all four objectives from one enumeration pass.

    Each chunk's degree vectors are computed once and scored for every
    objective; each objective keeps its own lexicographically smallest
    optimal witness, as ``exact_optimum(..., include_at_most=False)`` would.
    """
    s = _check_budget(instance, s)
    count = _check_enumeration(instance.num_clones, s, budget)
    kinds = list(ObjectiveKind)
    return {
        kind: ExactResult(
            objective=kind,
            s=s,
            optimum_num=score,
            optimum_den=objective_denominator(kind, instance.num_probes),
            witness=witness,
            enumerated=count,
        )
        for kind, (score, witness) in zip(kinds, _best(instance, s, s, kinds))
    }


def perfect_balance_exists(instance: Instance, s: int, *, budget: int = DEFAULT_BUDGET) -> bool:
    """Does some subset of size exactly s give every probe degree s/2?

    Requires even s; a probe degree equal to s/2 is impossible otherwise.
    """
    s = _check_budget(instance, s)
    if s % 2 != 0:
        raise InputError(f"perfect balance needs an even s, got {s}")
    _check_enumeration(instance.num_clones, s, budget)
    return any(bool((deg == s // 2).all(axis=1).any()) for _, deg in _scan(instance, s))


def size_s_cover_exists(instance: Instance, s: int, *, budget: int = DEFAULT_BUDGET) -> bool:
    """Does some subset of size exactly s leave every probe with degree in [1, s-1]?"""
    s = _check_budget(instance, s)
    _check_enumeration(instance.num_clones, s, budget)
    return any(
        bool(((deg >= 1) & (deg <= s - 1)).all(axis=1).any()) for _, deg in _scan(instance, s)
    )


@dataclass(frozen=True)
class ExcessEstimate:
    """Monte-Carlo estimate of Exp[max(0, Y - (1+eps) mu)] with its standard error."""

    estimate: float
    std_error: float
    trials: int
    mu: float


def estimate_excess_expectation(
    probabilities,
    epsilon: float,
    trials: int,
    *,
    seed: int | None = None,
) -> ExcessEstimate:
    """Sample Y = sum of independent Bernoulli(p_i) and average the excess
    of Y over (1+eps)*mu, mu = sum p_i.

    mu = 0 is allowed and gives exactly 0 (Y is identically zero).
    """
    p = np.asarray(probabilities, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise InputError("probabilities must be a nonempty 1-d vector")
    if (p < 0).any() or (p > 1).any():
        raise InputError("probabilities must lie in [0, 1]")
    if not 0 < epsilon <= 1:
        raise InputError(f"epsilon must lie in (0, 1], got {epsilon}")
    trials = int(trials)
    if trials < 1:
        raise InputError(f"trials must be >= 1, got {trials}")
    mu = float(p.sum())
    threshold = (1.0 + epsilon) * mu
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    done = 0
    max_block = max(1, int(2e7) // p.size)
    while done < trials:
        block = min(max_block, trials - done)
        y = (rng.random((block, p.size)) < p).sum(axis=1)
        excess = np.maximum(y - threshold, 0.0)
        total += float(excess.sum())
        total_sq += float((excess * excess).sum())
        done += block
    mean = total / trials
    var = max(total_sq / trials - mean * mean, 0.0)
    std_error = math.sqrt(var / trials)
    return ExcessEstimate(estimate=mean, std_error=std_error, trials=trials, mu=mu)
