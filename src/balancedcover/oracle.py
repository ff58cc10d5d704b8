"""Exact references for small instances, plus a Monte-Carlo tail estimator.

Exhaustive enumeration over clone subsets runs through one scan by head
and tail over one table per call.  The table holds, level by level,
only the degree sums of the j-subsets for j = 0..t, in lexicographic
order, probe-major and in the narrowest signed type that holds 2s, so
every block reduces over contiguous probe columns.  A size-k subset
with k > t is a head of its first k - t clones and a tail of its last
t; the tails that may follow a head are a suffix of level t, so each
head yields one block of degree vectors from a single array addition,
and a size k <= t is level k read as one block.  The at-most-s pass
builds every level whole and reads all sizes up to s from that one
table; an exact-size scan builds only what level t needs.  No subset is
ever a Python tuple until a strict improvement rebuilds its witness
from the block's head and row number (``_unrank``, the combinatorial
number system).  The optimum, all-objectives and decision oracles all
consume that scan; ``exact_all_objectives`` scores every objective on
each block's degrees, so it enumerates once.  Enumeration is
lexicographic and improvements must be strict, so the reported witness
is the lexicographically smallest optimal subset.

Everything here refuses to run past a configurable subset budget
(default 1e7) rather than silently grinding; every budget is checked
before the first subset is enumerated, and the refusal carries the
offending count.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .core import Instance, ObjectiveKind, _check_budget, _seeded_rng, objective_denominator, objective_scores
from .errors import BudgetExceededError, InputError

DEFAULT_BUDGET = 10_000_000

_MAX_TAIL_ROWS = 1 << 15


@dataclass(frozen=True)
class ExactResult:
    """Optimal objective over subsets, in exact integer-over-denominator form.

    ``optimum_num / optimum_den`` is the optimum over subsets of size
    exactly s; ``witness`` is the lexicographically smallest optimal
    subset.  The fields ``*_at_most`` give the optimum when subsets of
    any size up to s are allowed, still scored against s.  That pass
    runs by default only for the maximization objectives (cmin/cavg),
    and for any objective on request; otherwise the fields stay None.
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


def _table(instance: Instance, s: int, full: bool) -> list[np.ndarray]:
    """Degree sums of the j-subsets for j = 0..t, one array per level, in lexicographic order.

    Level j holds the j-subsets of ``range(low, m)``: each first clone i
    joined to every (j - 1)-subset of ``range(i + 1, m)``, which are the
    last C(m - 1 - i, j - 1) rows of level j - 1.  A full table (the
    at-most pass reads every level whole) starts each level at low = 0,
    and t is the largest size up to s with no level over
    ``_MAX_TAIL_ROWS`` rows.  Otherwise only level t is read: low = t - j,
    the lowest first clone a t-subset's last j clones can have, so the
    table holds C(m + 1, t) rows, and t is the largest size up to s
    whose level alone fits.  Level t starts at clone 0 either way.  Each
    level is probe-major (``order="F"``) in the narrowest signed type that
    holds 2s, int8 up to s = 63, so ``2 * deg - s`` cannot wrap.
    """
    a = instance.adjacency
    m, n = a.shape
    fits = [math.comb(m, j) <= _MAX_TAIL_ROWS for j in range(s + 1)]
    if full:
        fits = list(itertools.accumulate(fits, operator.and_))
    t = max(j for j, ok in enumerate(fits) if ok)
    dtype = np.min_scalar_type(-(2 * s + 1))
    levels = [np.zeros((1, n), dtype=dtype, order="F")]
    for j in range(1, t + 1):
        low = 0 if full else t - j
        prev, rows = levels[-1], 0
        level = np.empty((math.comb(m - low, j), n), dtype=dtype, order="F")
        for i in range(low, m - j + 1):
            count = math.comb(m - 1 - i, j - 1)
            np.add(a[i], prev[-count:], out=level[rows : rows + count])
            rows += count
        levels.append(level)
    return levels


def _unrank(rank: int, k: int, m: int) -> tuple[int, ...]:
    """The k-subset of ``range(m)`` at position ``rank`` in lexicographic order.

    C(m - 1 - i, j - 1) subsets put clone i next when j clones remain to
    be chosen, so whole runs of them are skipped until the rank falls
    inside one (the combinatorial number system).
    """
    subset, i = [], 0
    for j in range(k, 0, -1):
        while (count := math.comb(m - 1 - i, j - 1)) <= rank:
            rank -= count
            i += 1
        subset.append(i)
        i += 1
    return tuple(subset)


def _scan(instance: Instance, levels: list[np.ndarray], k: int):
    """Yield (head, row, deg) per block of the size-k subsets, in lexicographic order.

    With t = len(levels) - 1, a size k <= t is one block, level k whole
    with head (); the caller reads k < t only from a full table.  For
    k > t, ``head`` is a tuple of the first k - t clones and ``deg`` the
    degree sums of the head joined to every t-subset after it, which
    are level t from row ``row`` on.  Position p of a block is the subset
    ``head + _unrank(row + p, min(k, t), m)``.
    """
    t = len(levels) - 1
    if k <= t:
        yield (), 0, levels[k]
        return
    a, m, tails = instance.adjacency, instance.num_clones, levels[t]
    for head in itertools.combinations(range(m - t), k - t):
        # the t-subsets of range(p, m) are the last C(m - p, t) rows of level t
        row = len(tails) - math.comb(m - 1 - head[-1], t)
        yield head, row, a[list(head)].sum(axis=0, dtype=tails.dtype) + tails[row:]


def _best(
    instance: Instance, levels: list[np.ndarray], k: int, s: int, kinds
) -> list[tuple[int, tuple[int, ...]]]:
    """Best (score, witness) per kind over subsets of size exactly k; lex-first wins."""
    tail = min(k, len(levels) - 1)
    best = [(None, None)] * len(kinds)
    for head, row, deg in _scan(instance, levels, k):
        for i, kind in enumerate(kinds):
            scores = objective_scores(deg, s, kind)
            pos = int(np.argmax(scores) if kind.maximize else np.argmin(scores))
            cand, score = int(scores[pos]), best[i][0]
            if score is None or (cand > score if kind.maximize else cand < score):
                best[i] = (cand, head + _unrank(row + pos, tail, instance.num_clones))
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
    levels = _table(instance, s, include_at_most)
    [(score, witness)] = _best(instance, levels, s, s, [objective])
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
    # across sizes, a better score wins and ties go to the lexicographically smaller tuple
    # (a proper prefix counts as smaller)
    sign = -1 if objective.maximize else 1
    best_score, best_witness = min(
        [(score, witness)] + [_best(instance, levels, k, s, [objective])[0] for k in range(s)],
        key=lambda pair: (sign * pair[0], pair[1]),
    )
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

    Each head block's degree vectors are computed once and scored for every
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
        for kind, (score, witness) in zip(kinds, _best(instance, _table(instance, s, False), s, s, kinds))
    }


def perfect_balance_exists(instance: Instance, s: int, *, budget: int = DEFAULT_BUDGET) -> bool:
    """Does some subset of size exactly s give every probe degree s/2?

    Requires even s; a probe degree equal to s/2 is impossible otherwise.
    """
    s = _check_budget(instance, s)
    if s % 2 != 0:
        raise InputError(f"perfect balance needs an even s, got {s}")
    _check_enumeration(instance.num_clones, s, budget)
    return any(
        bool((deg == s // 2).all(axis=1).any())
        for _, _, deg in _scan(instance, _table(instance, s, False), s)
    )


def size_s_cover_exists(instance: Instance, s: int, *, budget: int = DEFAULT_BUDGET) -> bool:
    """Does some subset of size exactly s leave every probe with degree in [1, s-1]?"""
    s = _check_budget(instance, s)
    _check_enumeration(instance.num_clones, s, budget)
    return any(
        bool(((deg >= 1) & (deg <= s - 1)).all(axis=1).any())
        for _, _, deg in _scan(instance, _table(instance, s, False), s)
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
    if not ((p >= 0) & (p <= 1)).all():
        raise InputError("probabilities must lie in [0, 1]")
    if not 0 < epsilon <= 1:
        raise InputError(f"epsilon must lie in (0, 1], got {epsilon}")
    trials = int(trials)
    if trials < 1:
        raise InputError(f"trials must be >= 1, got {trials}")
    mu = float(p.sum())
    threshold = (1.0 + epsilon) * mu
    rng = _seeded_rng(seed)
    total = 0.0
    total_sq = 0.0
    done = 0
    max_block = max(1, (1 << 20) // p.size)
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
