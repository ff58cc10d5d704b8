"""Reference computations made apart from the program, and the output checks.

Nothing here imports ``balancedcover``.  Every value the program reports
is recomputed from first principles:

* hybridization by plain substring and reverse-complement search;
* probe degrees and the four objectives from the adjacency matrix
  (cmin = min_j min(d_j, s - d_j), cavg = mean_j min(d_j, s - d_j),
  dmax = max_j |d_j - s/2|, davg = mean_j |d_j - s/2|);
* the three LP relaxations written down from their definitions
  (MinLP, MaxLP, AvgLP) and solved by scipy's HiGHS;
* exact cover by 3-sets and minimum set cover by exhaustive search.

Each ``check_*`` function returns a list of problems (empty when the
output is right).  An LP value that disagrees with HiGHS is reported
apart from the other problems, because the benchmark counts it as a
failed operation rather than a wrong check.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

LP_REL_TOL = 1e-6
MAXIMIZE = {"cmin": True, "cavg": True, "dmax": False, "davg": False}
ALG_OBJECTIVE = {"rcm": "cmin", "rcm2": "cmin", "rdm": "dmax", "rca": "cavg", "rca2": "cavg"}
OBJECTIVE_LP = {"cmin": "minlp", "dmax": "maxlp", "cavg": "avglp"}

_COMPLEMENT = str.maketrans("ACGT", "TGCA")


def reverse_complement(seq: str) -> str:
    return seq.translate(_COMPLEMENT)[::-1]


def hybridization_matrix(clones: list[str], probes: list[str]) -> np.ndarray:
    """a[i, j] = 1 when probe j or its reverse complement occurs in clone i."""
    a = np.zeros((len(clones), len(probes)), dtype=np.int64)
    for j, probe in enumerate(probes):
        rc = reverse_complement(probe)
        for i, clone in enumerate(clones):
            if probe in clone or rc in clone:
                a[i, j] = 1
    return a


def parse_matrix_text(text: str) -> np.ndarray:
    """The matrix file: '#' comments, a header 'm n', then m rows of 0/1."""
    rows = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    m, n = (int(v) for v in rows[0])
    a = np.array([[int(v) for v in r] for r in rows[1:]], dtype=np.int64)
    if a.shape != (m, n):
        raise ValueError(f"matrix header says {m}x{n}, body is {a.shape}")
    return a


def splitmix_seed(seed: int, index: int) -> int:
    """splitmix64 of the index-th step from ``seed`` (the documented trial seed)."""
    mask = (1 << 64) - 1
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def bench_matrix(bench_seed: int, counter: int, m: int, n: int, density: float) -> np.ndarray:
    """The iid matrix the bench sweep generates for its counter-th (size, density)."""
    matrix_seed = splitmix_seed(splitmix_seed(0, bench_seed), counter)
    return (np.random.default_rng(matrix_seed).random((m, n)) < density).astype(np.int64)


# ----------------------------------------------------------------------
# objectives


def objective_values(a: np.ndarray, selection, s: int) -> dict[str, Fraction]:
    """Exact values of the four objectives for a selection scored at budget s."""
    deg = a[list(selection), :].sum(axis=0) if len(selection) else np.zeros(a.shape[1], dtype=np.int64)
    return objectives_from_degrees(deg, s)


def objectives_from_degrees(deg, s: int) -> dict[str, Fraction]:
    deg = [int(d) for d in deg]
    n = len(deg)
    low = [min(d, s - d) for d in deg]
    dev2 = [abs(2 * d - s) for d in deg]
    return {
        "cmin": Fraction(min(low)),
        "cavg": Fraction(sum(low), n),
        "dmax": Fraction(max(dev2), 2),
        "davg": Fraction(sum(dev2), 2 * n),
    }


def better(objective: str, new, old) -> bool:
    return new > old if MAXIMIZE[objective] else new < old


def ratio(lp_value: float, rounded: float, maximize: bool) -> float:
    """Rounded/LP when maximizing, LP/rounded when minimizing; 0/0 reads 1."""
    if maximize:
        if lp_value <= 1e-9:
            return 1.0 if rounded <= 0 else 0.0
        return rounded / lp_value
    if rounded <= 0:
        return 1.0
    return lp_value / rounded


# ----------------------------------------------------------------------
# LP relaxations, solved by HiGHS


def lp_reference_value(a: np.ndarray, s: int, formulation: str) -> float:
    """z* of MinLP, MaxLP or AvgLP (AvgLP reported as the mean margin).

    MinLP: max z  s.t. z <= sum_i a_ij x_i, z <= sum_i (1 - a_ij) x_i, sum x <= s.
    MaxLP: min z  s.t. z >= sum_i a_ij x_i - s/2, z >= s/2 - sum_i a_ij x_i, sum x = s.
    AvgLP: max (1/n) sum_j z_j  s.t. the MinLP pair of rows per probe, sum x <= s.
    Every x_i lies in [0, 1]; the z variables are free.
    """
    from scipy.optimize import linprog

    m, n = a.shape
    at = a.T.astype(float)
    if formulation == "avglp":
        nz, zcols = n, np.eye(n)
    else:
        nz, zcols = 1, np.ones((n, 1))
    bounds = [(0.0, 1.0)] * m + [(None, None)] * nz
    cost = np.zeros(m + nz)
    budget_row = np.concatenate([np.ones(m), np.zeros(nz)])[None, :]
    if formulation == "maxlp":
        cost[m] = 1.0
        A_ub = np.vstack([np.hstack([at, -zcols]), np.hstack([-at, -zcols])])
        b_ub = np.concatenate([np.full(n, s / 2.0), np.full(n, -s / 2.0)])
        res = linprog(cost, A_ub=A_ub, b_ub=b_ub, A_eq=budget_row, b_eq=[float(s)], bounds=bounds, method="highs")
        sign, scale = 1.0, 1.0
    else:
        cost[m:] = -1.0
        A_ub = np.vstack([np.hstack([-at, zcols]), np.hstack([at - 1.0, zcols]), budget_row])
        b_ub = np.concatenate([np.zeros(2 * n), [float(s)]])
        res = linprog(cost, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
        sign, scale = -1.0, (1.0 / n if formulation == "avglp" else 1.0)
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed on {formulation} s={s}: {res.message}")
    return sign * res.fun * scale


class LpReference:
    """HiGHS optima cached by (matrix key, s, formulation)."""

    def __init__(self):
        self._cache: dict[tuple, float] = {}

    def value(self, key, a: np.ndarray, s: int, formulation: str) -> float:
        k = (key, s, formulation)
        if k not in self._cache:
            self._cache[k] = lp_reference_value(a, s, formulation)
        return self._cache[k]


def lp_agrees(program_value: float, reference: float) -> bool:
    return abs(program_value - reference) <= LP_REL_TOL * max(1.0, abs(reference))


def lp_bound_holds(objective: str, value: float, z_ref: float) -> bool:
    """Any size-s selection satisfies cmin, cavg <= z* and dmax >= z*."""
    slack = LP_REL_TOL * max(1.0, abs(z_ref))
    return value <= z_ref + slack if MAXIMIZE[objective] else value >= z_ref - slack


# ----------------------------------------------------------------------
# checks on CLI outputs


@dataclass
class Verdict:
    """Outcome of checking one operation's output."""

    lp_mismatch: str | None = None
    problems: list[str] = field(default_factory=list)
    ratios: list[float] = field(default_factory=list)


def check_matrix_output(text: str, expected: np.ndarray) -> list[str]:
    try:
        got = parse_matrix_text(text)
    except ValueError as err:
        return [f"unreadable matrix: {err}"]
    if got.shape != expected.shape:
        return [f"matrix shape {got.shape}, expected {expected.shape}"]
    diff = np.argwhere(got != expected)
    if diff.size:
        i, j = diff[0]
        return [f"{len(diff)} matrix entries differ from substring search, first at clone {i} probe {j}"]
    return []


def check_solve_record(record: dict, a: np.ndarray, s: int, alg: str, z_ref: float) -> Verdict:
    """A CLI solve record against the adjacency it was solved on and HiGHS's z*."""
    v = Verdict()
    objective = ALG_OBJECTIVE[alg]
    m, n = a.shape
    expect = {"algorithm": alg, "objective": objective, "m": m, "n": n, "s": s}
    for key, want in expect.items():
        if record.get(key) != want:
            v.problems.append(f"record {key}={record.get(key)!r}, expected {want!r}")
    sel = record["selectedIndices"]
    if len(sel) != s:
        v.problems.append(f"{len(sel)} clones selected, expected s={s}")
    if len(set(sel)) != len(sel):
        v.problems.append("selection repeats a clone")
    if any(not (isinstance(i, int) and 0 <= i < m) for i in sel):
        v.problems.append("selection index out of range")
        return v
    deg = a[sel, :].sum(axis=0)
    if [int(d) for d in deg] != list(record["degrees"]):
        v.problems.append("reported degrees differ from the adjacency")
    value = objectives_from_degrees(deg, s)[objective]
    reported = Fraction(record["bestValueExactNum"], record["bestValueExactDen"])
    if reported != value:
        v.problems.append(f"reported {objective}={reported}, recomputed {value}")
    if abs(record["bestValue"] - float(value)) > 1e-12 * max(1.0, abs(float(value))):
        v.problems.append(f"bestValue {record['bestValue']} != {float(value)}")
    if len(sel) == s and not lp_bound_holds(objective, float(value), z_ref):
        v.problems.append(f"{objective}={float(value)} beats the LP bound z*={z_ref}")
    if not lp_agrees(record["lpValue"], z_ref):
        v.lp_mismatch = f"lpValue {record['lpValue']!r} vs HiGHS {z_ref!r} ({alg} s={s})"
    v.ratios.append(ratio(z_ref, float(value), MAXIMIZE[objective]))
    return v


def parse_bench_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def check_bench_rows(rows: list[dict], expected_rows: int, reference) -> Verdict:
    """Bench CSV rows; ``reference(matrix_id, s, formulation)`` gives HiGHS's z*."""
    v = Verdict()
    if len(rows) != expected_rows:
        v.problems.append(f"{len(rows)} CSV rows, expected {expected_rows}")
    mismatched = []
    for row in rows:
        objective = row["objective"]
        s = int(row["s"])
        lp_value = float(row["lpValue"])
        rounded = float(row["roundedValue"])
        r = float(row["ratio"])
        z_ref = reference(row["matrixId"], s, OBJECTIVE_LP[objective])
        # lpValue is right to within LP_REL_TOL, and so is a ratio made from it
        if not -LP_REL_TOL <= r <= 1.0 + LP_REL_TOL:
            v.problems.append(f"ratio {r} outside [0, 1] ({row['matrixId']} s={s} {row['algorithm']})")
        if abs(r - ratio(lp_value, rounded, MAXIMIZE[objective])) > 1e-8:
            v.problems.append(f"ratio {r} does not match its lpValue and roundedValue")
        if not lp_bound_holds(objective, rounded, z_ref):
            v.problems.append(f"rounded {objective}={rounded} beats the LP bound z*={z_ref}")
        if not lp_agrees(lp_value, z_ref):
            mismatched.append(f"{row['matrixId']} s={s} {objective}: {lp_value} vs HiGHS {z_ref}")
        v.ratios.append(ratio(z_ref, rounded, MAXIMIZE[objective]))
    if mismatched:
        v.lp_mismatch = f"{len(mismatched)} lpValue cells disagree with HiGHS, first {mismatched[0]}"
    return v


# ----------------------------------------------------------------------
# exact optima and decision answers


def check_oracle_payload(payload: dict, a: np.ndarray, s: int, objective: str, z_ref: float, rng) -> list[str]:
    """CLI oracle output: witness value, LP bound, at-most dominance, random sample."""
    problems = []
    m, n = a.shape
    opt = Fraction(payload["optimumExactNum"], payload["optimumExactDen"])
    witness = payload["witness"]
    if len(witness) != s or len(set(witness)) != s:
        problems.append(f"witness has {len(set(witness))} distinct clones, expected {s}")
    if objective_values(a, witness, s)[objective] != opt:
        problems.append(f"witness scores {objective_values(a, witness, s)[objective]}, reported optimum {opt}")
    if payload["enumerated"] != math.comb(m, s):
        problems.append(f"enumerated {payload['enumerated']}, expected C({m}, {s})")
    if objective == "davg":
        z_ref = s / 2.0 - z_ref  # davg = s/2 - cavg, so it is bounded below by s/2 - AvgLP
        if float(opt) < z_ref - LP_REL_TOL * max(1.0, z_ref):
            problems.append(f"davg optimum {opt} below the LP bound {z_ref}")
    elif not lp_bound_holds(objective, float(opt), z_ref):
        problems.append(f"{objective} optimum {opt} beats the LP bound z*={z_ref}")
    for _ in range(400):
        sample = rng.choice(m, size=s, replace=False)
        if better(objective, objective_values(a, sample, s)[objective], opt):
            problems.append(f"random subset {sorted(sample.tolist())} beats the optimum")
            break
    if MAXIMIZE[objective]:
        at_most = Fraction(payload["optimumAtMostSExactNum"], payload["optimumExactDen"])
        w = payload["witnessAtMostS"]
        if len(w) > s or objective_values(a, w, s)[objective] != at_most:
            problems.append("at-most-s witness does not score the reported at-most optimum")
        if at_most < opt:
            problems.append(f"at-most-s optimum {at_most} below the size-s optimum {opt}")
        if payload["enumeratedAtMostS"] != sum(math.comb(m, k) for k in range(s + 1)):
            problems.append("enumeratedAtMostS is not the sum of C(m, k) for k <= s")
        for _ in range(400):
            k = int(rng.integers(1, s + 1))
            sample = rng.choice(m, size=k, replace=False)
            if objective_values(a, sample, s)[objective] > at_most:
                problems.append(f"random subset of size {k} beats the at-most-s optimum")
                break
    return problems


def check_all_objectives(results: dict, a: np.ndarray, s: int, z_ref: dict[str, float]) -> list[str]:
    """``exact_all_objectives`` output: witnesses, complement identities, LP bounds.

    ``results`` maps objective name to (numerator, denominator, witness).
    """
    problems = []
    n = a.shape[1]
    exact = {}
    for objective, (num, den, witness) in results.items():
        exact[objective] = Fraction(num, den)
        if len(witness) != s or objective_values(a, witness, s)[objective] != exact[objective]:
            problems.append(f"{objective} witness does not score the reported optimum")
    cmin, cavg, dmax, davg = (exact[k] for k in ("cmin", "cavg", "dmax", "davg"))
    if 2 * cmin + 2 * dmax != s:
        problems.append(f"2*cmin + dmax_x2 = {2 * cmin + 2 * dmax}, expected s={s}")
    if 2 * cavg * n + 2 * davg * n != s * n:
        problems.append(f"2*cavg_num + davg_x2 = {2 * (cavg + davg) * n}, expected s*n={s * n}")
    for objective in ("cmin", "cavg", "dmax"):
        if not lp_bound_holds(objective, float(exact[objective]), z_ref[objective]):
            problems.append(f"{objective} optimum {exact[objective]} beats the LP bound")
    return problems


def exact_cover_exists(universe_size: int, triples) -> bool:
    """Can some of the triples partition {0, ..., universe_size - 1}?"""
    triples = [frozenset(t) for t in triples]

    def search(uncovered: frozenset) -> bool:
        if not uncovered:
            return True
        e = min(uncovered)
        return any(t <= uncovered and search(uncovered - t) for t in triples if e in t)

    return search(frozenset(range(universe_size)))


def min_set_cover(universe_size: int, family) -> int | None:
    """Fewest sets of the family whose union is the universe, or None."""
    universe = set(range(universe_size))
    family = [set(f) for f in family]
    for k in range(1, len(family) + 1):
        for combo in itertools.combinations(family, k):
            if set().union(*combo) == universe:
                return k
    return None


def check_x3c_answer(universe_size: int, triples, answer: bool) -> list[str]:
    """perfect_balance_exists on an X3C reduction must say whether an exact cover exists."""
    truth = exact_cover_exists(universe_size, triples)
    if answer != truth:
        return [f"perfect_balance_exists said {answer}, exact-cover search says {truth}"]
    return []


def check_set_cover_answer(universe_size: int, family, target: int, answer: bool) -> list[str]:
    """size_s_cover_exists on a set-cover reduction must say whether a cover of size <= b exists."""
    best = min_set_cover(universe_size, family)
    truth = best is not None and best <= target
    if answer != truth:
        return [f"size_s_cover_exists said {answer}, minimum set cover is {best} against b={target}"]
    return []
