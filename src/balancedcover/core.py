"""Domain model for the balanced covering problem.

An instance is a bipartite hybridization graph between m clones and n
probes, stored as a dense 0/1 adjacency matrix.  Given a selection D of
at most s clones, each probe j sees ``deg_D(j)`` selected neighbours and
we score how close every degree sits to s/2.  Four objectives:

* cmin  = min_j min(deg_D(j), s - deg_D(j))      -- maximize
* cavg  = (1/n) * sum_j min(deg_D(j), s - deg_D(j))  -- maximize
* dmax  = max_j |deg_D(j) - s/2|                 -- minimize
* davg  = (1/n) * sum_j |deg_D(j) - s/2|         -- minimize

The max/min pairs determine each other: dmax = s/2 - cmin and
davg = s/2 - cavg.  To keep arithmetic exact we store cavg as an integer
numerator over n, and the deviation objectives doubled (|2*deg - s| is
always an integer), so the identities become

    2*cmin + dmax_x2 = s          and
    2*cavg_num + davg_num_x2 = s * n.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError


class ObjectiveKind(Enum):
    CMIN = "cmin"
    CAVG = "cavg"
    DMAX = "dmax"
    DAVG = "davg"

    @property
    def maximize(self) -> bool:
        return self in (ObjectiveKind.CMIN, ObjectiveKind.CAVG)


class Instance:
    """Immutable clone-probe adjacency matrix with optional names.

    ``adjacency[i, j] == 1`` means clone i hybridizes with probe j.
    Rows are clones, columns are probes; both dimensions must be
    positive and every entry must be 0 or 1.
    """

    __slots__ = ("adjacency", "clone_names", "probe_names")

    def __init__(
        self,
        adjacency,
        clone_names: Sequence[str] | None = None,
        probe_names: Sequence[str] | None = None,
    ):
        a = np.asarray(adjacency)
        if a.ndim != 2:
            raise InputError(f"adjacency must be a 2-d matrix, got shape {a.shape}")
        m, n = a.shape
        if m < 1:
            raise InputError("instance needs at least one clone")
        if n < 1:
            raise InputError("instance needs at least one probe")
        if not np.isin(a, (0, 1)).all():
            raise InputError("adjacency entries must be 0 or 1")
        a = a.astype(np.int8)
        a.setflags(write=False)
        object.__setattr__(self, "adjacency", a)
        object.__setattr__(self, "clone_names", _check_names(clone_names, m, "c", "clone"))
        object.__setattr__(self, "probe_names", _check_names(probe_names, n, "p", "probe"))

    def __setattr__(self, name, value):
        raise AttributeError("Instance is immutable")

    @property
    def num_clones(self) -> int:
        return self.adjacency.shape[0]

    @property
    def num_probes(self) -> int:
        return self.adjacency.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return (
            np.array_equal(self.adjacency, other.adjacency)
            and self.clone_names == other.clone_names
            and self.probe_names == other.probe_names
        )

    def __hash__(self):
        return hash((self.adjacency.tobytes(), self.clone_names, self.probe_names))

    def __repr__(self) -> str:
        return f"Instance(m={self.num_clones}, n={self.num_probes})"


def _check_names(names: Sequence[str] | None, count: int, prefix: str, what: str) -> tuple[str, ...]:
    if names is None:
        return tuple(f"{prefix}{i + 1}" for i in range(count))
    names = tuple(names)
    if len(names) != count:
        raise InputError(f"expected {count} {what} names, got {len(names)}")
    counts = Counter(names)
    if len(counts) != len(names):
        dup = next(x for x in names if counts[x] > 1)
        raise InputError(f"duplicate {what} name {dup!r}")
    if any(not n for n in names):
        raise InputError(f"empty {what} name")
    return names


@dataclass(frozen=True)
class CoverSolution:
    """A selection of clones together with its exact objective values.

    ``selected`` holds sorted 0-based clone indices with
    ``len(selected) <= budget``.  The four objectives are stored in
    integer form (see module docstring); ``degrees`` is the per-probe
    selected-neighbour count.
    """

    selected: tuple[int, ...]
    budget: int
    degrees: tuple[int, ...]
    cmin: int
    cavg_num: int
    dmax_x2: int
    davg_num_x2: int

    @property
    def num_probes(self) -> int:
        return len(self.degrees)

    @property
    def cavg(self) -> float:
        return self.cavg_num / self.num_probes

    @property
    def dmax(self) -> float:
        return self.dmax_x2 / 2.0

    @property
    def davg(self) -> float:
        return self.davg_num_x2 / (2.0 * self.num_probes)

    def value(self, kind: ObjectiveKind) -> float:
        return float(self.exact_value(kind))

    def exact_value(self, kind: ObjectiveKind) -> Fraction:
        num = getattr(self, _SCORE_FIELD[kind])
        return Fraction(num, objective_denominator(kind, self.num_probes))


def objective_denominator(kind: ObjectiveKind, num_probes: int) -> int:
    """Denominator that turns the integer objective field into the true value."""
    if kind is ObjectiveKind.CMIN:
        return 1
    if kind is ObjectiveKind.CAVG:
        return num_probes
    if kind is ObjectiveKind.DMAX:
        return 2
    return 2 * num_probes


_SCORE_FIELD = {
    ObjectiveKind.CMIN: "cmin",
    ObjectiveKind.CAVG: "cavg_num",
    ObjectiveKind.DMAX: "dmax_x2",
    ObjectiveKind.DAVG: "davg_num_x2",
}


def objective_scores(deg: np.ndarray, s: int, kind: ObjectiveKind) -> np.ndarray:
    """Integer objective scores of integer degree arrays, reduced along the last axis.

    The scores follow the stored conventions: cmin, cavg_num, dmax_x2
    and davg_num_x2.  Divide by ``objective_denominator`` for the value.
    A narrow ``deg`` must hold 2 * deg - s (cavg/davg sum in int64), and a
    probe-major (Fortran-ordered) block reduces fastest.
    """
    if kind.maximize:
        low = np.minimum(deg, s - deg)
        return low.min(axis=-1) if kind is ObjectiveKind.CMIN else low.sum(axis=-1, dtype=np.int64)
    dev = np.abs(2 * deg - s)
    return dev.max(axis=-1) if kind is ObjectiveKind.DMAX else dev.sum(axis=-1, dtype=np.int64)


def _normalize_selection(instance: Instance, selected: Iterable[int]) -> np.ndarray:
    m = instance.num_clones
    try:
        sel = np.sort(np.fromiter(selected, dtype=np.int64))
    except OverflowError:
        raise InputError(f"clone index out of range [0, {m})") from None
    # sorted, so only the ends can lie outside; name the first index that does
    if sel.size and not 0 <= sel[0] <= sel[-1] < m:
        bad = sel[0] if sel[0] < 0 else sel[sel >= m][0]
        raise InputError(f"clone index {bad} out of range [0, {m})")
    if (sel[1:] == sel[:-1]).any():
        raise InputError("duplicate clone index in selection")
    return sel


def _check_budget(instance: Instance, s) -> int:
    s = int(s)
    if not 1 <= s <= instance.num_clones:
        raise InputError(f"budget s={s} must lie in [1, {instance.num_clones}]")
    return s


def _seeded_rng(seed: int | None) -> np.random.Generator:
    """numpy's generator for a seed that must be >= 0 (None draws one from entropy)."""
    if seed is not None and seed < 0:
        raise InputError(f"seed {seed} must be >= 0")
    return np.random.default_rng(seed)


def compute_degrees(instance: Instance, selected: Iterable[int]) -> np.ndarray:
    """Per-probe count of selected neighbouring clones, as an int vector."""
    return _degrees(instance, _normalize_selection(instance, selected))


def _degrees(instance: Instance, sel: np.ndarray) -> np.ndarray:
    return instance.adjacency[sel].sum(axis=0, dtype=np.int64)


def evaluate(instance: Instance, selected: Iterable[int], budget: int) -> CoverSolution:
    """Score a selection against all four objectives at the given budget s.

    The selection may be smaller than s (the deviation objectives still
    measure distance from s/2).  Larger selections are rejected.
    """
    sel = _normalize_selection(instance, selected)
    s = _check_budget(instance, budget)
    if sel.size > s:
        raise InputError(f"selection has {sel.size} clones, exceeds budget s={s}")
    deg = _degrees(instance, sel)
    cmin, cavg_num = (int(objective_scores(deg, s, kind)) for kind in (ObjectiveKind.CMIN, ObjectiveKind.CAVG))
    # every degree lies in [0, s], so the deviations follow from the margins
    # by the identities in the module docstring
    return CoverSolution(
        selected=tuple(sel.tolist()),
        budget=s,
        degrees=tuple(deg.tolist()),
        cmin=cmin,
        cavg_num=cavg_num,
        dmax_x2=s - 2 * cmin,
        davg_num_x2=s * deg.size - 2 * cavg_num,
    )


def complement_identity_check(solution: CoverSolution) -> bool:
    """Verify 2*cmin + dmax_x2 = s and 2*cavg_num + davg_num_x2 = s*n.

    min(d, s-d) + |d - s/2| = s/2 holds per probe, but cmin pairs with
    the max-deviation probe and cavg with the sum, so this only works
    because minimizing one term maximizes the other.  Any evaluate()
    output must satisfy both exactly.
    """
    s = solution.budget
    n = solution.num_probes
    return (
        2 * solution.cmin + solution.dmax_x2 == s
        and 2 * solution.cavg_num + solution.davg_num_x2 == s * n
    )
