"""Instance generators: random matrices, hardness reductions, replication.

The two reductions build balanced-covering instances whose answers are
known from a combinatorial source problem:

* Exact cover by 3-sets (X3C) over a universe of 3m' elements with
  triple collection T.  Probes are the universe, clones are one row per
  triple plus m'-2 "universal" clones adjacent to every probe, and
  s = 2m'-2.  A perfectly balanced cover (every probe at degree s/2)
  exists iff T contains an exact cover: the balanced cover must take
  all universal clones, leaving degree m'-1 - (m'-2) = 1 per probe for
  exactly m' chosen triples, which therefore partition the universe.

* Set cover over universe X with family Q and target size b.  Probes
  are X plus an extra probe x0, clones are one row per family set, each
  also adjacent to x0, plus a clone q0 with no edges at all, and
  s = b+1.  In a size-s cover every probe needs degree <= s-1, and x0
  is adjacent to every clone except q0, so q0 must be selected; the
  other b selected clones are family sets that must hit every universe
  probe at least once, i.e. a set cover of size <= b (padding with
  unused sets gives the converse).

Probe replication repeats every column r times, which leaves all four
objectives and all three relaxations untouched while scaling n.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import Instance
from .errors import InputError


class GeneratorKind(Enum):
    RANDOM = "random"
    X3C = "x3c"
    SETCOVER = "setcover"
    REPLICATE = "replicate"


@dataclass(frozen=True)
class GeneratorSpec:
    """A generator invocation in serializable form (for matrix headers)."""

    kind: GeneratorKind
    seed: int | None
    params: tuple[tuple[str, object], ...]

    def describe(self) -> str:
        parts = [self.kind.value]
        parts += [f"{k}={v}" for k, v in self.params]
        if self.seed is not None:
            parts.append(f"seed={self.seed}")
        return " ".join(parts)


def gen_random(m: int, n: int, density: float, seed: int) -> Instance:
    """Independent Bernoulli(density) entries from a seeded generator."""
    if m < 1 or n < 1:
        raise InputError(f"matrix shape {m}x{n} must be positive")
    if not 0.0 <= density <= 1.0:
        raise InputError(f"density {density} must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    return Instance((rng.random((m, n)) < density).astype(np.int8))


# ----------------------------------------------------------------------
# X3C reduction


def _check_triples(universe_size: int, triples) -> tuple[tuple[int, ...], ...]:
    if universe_size < 3 or universe_size % 3 != 0:
        raise InputError(f"universe size {universe_size} must be a positive multiple of 3")
    m_prime = universe_size // 3
    if m_prime < 2:
        raise InputError("universe must have at least 6 elements (two triples)")
    out = []
    for t in triples:
        tt = tuple(sorted(int(e) for e in t))
        if len(tt) != 3 or len(set(tt)) != 3:
            raise InputError(f"triple {t!r} must have exactly 3 distinct elements")
        if tt[0] < 0 or tt[-1] >= universe_size:
            raise InputError(f"triple {t!r} has elements outside the universe")
        out.append(tt)
    if len(out) < m_prime:
        raise InputError(
            f"need at least {m_prime} triples so that s <= m in the reduction, got {len(out)}"
        )
    return tuple(out)


@dataclass(frozen=True)
class X3cReduction:
    instance: Instance
    s: int
    universe_size: int
    triples: tuple[tuple[int, ...], ...]
    ground_truth: bool | None


def x3c_instance(universe_size: int, triples) -> X3cReduction:
    """Deterministic reduction; ground truth left unset (None)."""
    triples = _check_triples(universe_size, triples)
    m_prime = universe_size // 3
    num_universal = m_prime - 2
    m = len(triples) + num_universal
    a = np.zeros((m, universe_size), dtype=np.int8)
    for i, t in enumerate(triples):
        a[i, list(t)] = 1
    a[len(triples) :, :] = 1
    clone_names = [f"t{i + 1}" for i in range(len(triples))] + [
        f"w{i + 1}" for i in range(num_universal)
    ]
    probe_names = [f"x{j + 1}" for j in range(universe_size)]
    inst = Instance(a, clone_names=clone_names, probe_names=probe_names)
    return X3cReduction(
        instance=inst,
        s=2 * m_prime - 2,
        universe_size=universe_size,
        triples=triples,
        ground_truth=None,
    )


def solve_x3c(universe_size: int, triples) -> bool:
    """Exhaustive exact-cover search (depth-first over bitmasks)."""
    triples = _check_triples(universe_size, triples)
    masks = sorted({sum(1 << e for e in t) for t in triples})
    full = (1 << universe_size) - 1
    by_elem = [[mk for mk in masks if mk >> e & 1] for e in range(universe_size)]

    def cover(used: int) -> bool:
        if used == full:
            return True
        e = (~used & full).bit_length() - 1
        # pick the highest uncovered element; any fixed choice works
        for mk in by_elem[e]:
            if used & mk == 0 and cover(used | mk):
                return True
        return False

    return cover(0)


def gen_x3c(
    universe_size: int,
    num_triples: int,
    *,
    plant_cover: bool = False,
    seed: int = 0,
    solve_ground_truth: bool = True,
) -> X3cReduction:
    """Random X3C instance: uniform distinct triples, optionally seeded
    with a hidden exact cover before the decoys are drawn."""
    if universe_size < 6 or universe_size % 3 != 0:
        raise InputError(f"universe size {universe_size} must be a multiple of 3, at least 6")
    m_prime = universe_size // 3
    if num_triples < m_prime:
        raise InputError(f"need at least {m_prime} triples, got {num_triples}")
    all_triples = list(itertools.combinations(range(universe_size), 3))
    if num_triples > len(all_triples):
        raise InputError(f"only {len(all_triples)} distinct triples exist, asked for {num_triples}")
    rng = np.random.default_rng(seed)
    chosen: list[tuple[int, ...]] = []
    if plant_cover:
        perm = rng.permutation(universe_size)
        chosen = [tuple(sorted(int(e) for e in perm[3 * i : 3 * i + 3])) for i in range(m_prime)]
    planted = set(chosen)
    pool = [t for t in all_triples if t not in planted]
    extra = num_triples - len(chosen)
    picks = rng.choice(len(pool), size=extra, replace=False)
    chosen += [pool[int(i)] for i in picks]
    order = rng.permutation(len(chosen))
    triples = tuple(chosen[int(i)] for i in order)
    red = x3c_instance(universe_size, triples)
    if plant_cover:
        truth: bool | None = True
    elif solve_ground_truth:
        truth = solve_x3c(universe_size, triples)
    else:
        truth = None
    return X3cReduction(
        instance=red.instance,
        s=red.s,
        universe_size=universe_size,
        triples=red.triples,
        ground_truth=truth,
    )


# ----------------------------------------------------------------------
# Set cover reduction


def _check_family(universe_size: int, family) -> tuple[tuple[int, ...], ...]:
    if universe_size < 1:
        raise InputError("universe must be nonempty")
    out = []
    for fs in family:
        t = tuple(sorted(set(int(e) for e in fs)))
        if t and (t[0] < 0 or t[-1] >= universe_size):
            raise InputError(f"set {fs!r} has elements outside the universe")
        out.append(t)
    if not out:
        raise InputError("family must be nonempty")
    return tuple(out)


@dataclass(frozen=True)
class SetCoverReduction:
    instance: Instance
    s: int
    universe_size: int
    family: tuple[tuple[int, ...], ...]
    target_size: int
    ground_truth: bool | None


def set_cover_instance(universe_size: int, family, target_size: int) -> SetCoverReduction:
    """Deterministic reduction from (universe, family, b) with s = b + 1."""
    family = _check_family(universe_size, family)
    b = int(target_size)
    if not 1 <= b <= len(family):
        raise InputError(f"target size b={b} must lie in [1, {len(family)}]")
    m = len(family) + 1
    n = universe_size + 1
    a = np.zeros((m, n), dtype=np.int8)
    for i, fs in enumerate(family):
        a[i, list(fs)] = 1
        a[i, universe_size] = 1
    # final row is q0: no edges anywhere
    clone_names = [f"q{i + 1}" for i in range(len(family))] + ["q0"]
    probe_names = [f"x{j + 1}" for j in range(universe_size)] + ["x0"]
    inst = Instance(a, clone_names=clone_names, probe_names=probe_names)
    return SetCoverReduction(
        instance=inst,
        s=b + 1,
        universe_size=universe_size,
        family=family,
        target_size=b,
        ground_truth=None,
    )


def min_set_cover_size(universe_size: int, family) -> int | None:
    """Size of the smallest subfamily covering the universe, or None."""
    family = _check_family(universe_size, family)
    masks = [sum(1 << e for e in fs) for fs in family]
    full = (1 << universe_size) - 1
    union = 0
    for mk in masks:
        union |= mk
    if union != full:
        return None
    for k in range(1, len(masks) + 1):
        for combo in itertools.combinations(masks, k):
            acc = 0
            for mk in combo:
                acc |= mk
            if acc == full:
                return k
    return None


def gen_set_cover(
    universe_size: int,
    family_size: int,
    max_set_size: int,
    target_size: int,
    *,
    seed: int = 0,
    solve_ground_truth: bool = True,
) -> SetCoverReduction:
    """Random set-cover instance: each set gets a uniform size in
    [1, max_set_size] and uniformly drawn elements."""
    if family_size < 1:
        raise InputError("family must have at least one set")
    if not 1 <= max_set_size <= universe_size:
        raise InputError(f"max set size {max_set_size} must lie in [1, {universe_size}]")
    rng = np.random.default_rng(seed)
    family = []
    for _ in range(family_size):
        size = int(rng.integers(1, max_set_size + 1))
        family.append(tuple(sorted(int(e) for e in rng.choice(universe_size, size=size, replace=False))))
    red = set_cover_instance(universe_size, family, target_size)
    truth: bool | None = None
    if solve_ground_truth:
        best = min_set_cover_size(universe_size, family)
        truth = best is not None and best <= red.target_size
    return SetCoverReduction(
        instance=red.instance,
        s=red.s,
        universe_size=universe_size,
        family=red.family,
        target_size=red.target_size,
        ground_truth=truth,
    )


# ----------------------------------------------------------------------


def replicate_probes(instance: Instance, r: int) -> Instance:
    """Repeat every probe column r times (r = 1 returns the instance as is).

    Copy k of probe "p" is named "p_k".  Objectives are invariant: each
    original probe contributes r identical degree terms, scaling both
    sides of every average by r and leaving min/max untouched.
    """
    r = int(r)
    if r < 1:
        raise InputError(f"replication factor must be >= 1, got {r}")
    if r == 1:
        return instance
    a = np.repeat(instance.adjacency, r, axis=1)
    probe_names = [f"{name}_{k + 1}" for name in instance.probe_names for k in range(r)]
    return Instance(a, clone_names=instance.clone_names, probe_names=probe_names)
