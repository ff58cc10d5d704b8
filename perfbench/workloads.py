"""The benchmark's workloads: inputs made from the seed, one round of operations, checks.

Each workload makes its inputs in ``prepare`` (repeatable, part of set-up),
runs a few cheap commands in ``warm_up``, lists the operations of one round
in ``round_ops`` and checks every result in ``check``.  A round is the
same list of operations every time, so a run attempts whole rounds and its
share of failed operations does not depend on the run's length.

Operations drive the program through ``balancedcover.cli.main`` in-process,
or through the library where the CLI has no command.  Both are looked up on
their module at call time, so the tracer's wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from balancedcover import cli, core, generators, oracle

import checks

_BASES = np.frombuffer(b"ACGT", dtype=np.uint8)


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str


def run_cli(argv) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return CliResult(code, out.getvalue(), err.getvalue())


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    params: dict = field(default_factory=dict)


@dataclass
class CheckReport:
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    ratios: list[float] = field(default_factory=list)

    @property
    def quality_ratio(self) -> float:
        return sum(self.ratios) / len(self.ratios)

    def fail(self, label: str, reason) -> None:
        self.failed += 1
        self.failures.append(f"{label}: {reason}")

    def add(self, label: str, verdict: checks.Verdict) -> None:
        self.problems += [f"{label}: {p}" for p in verdict.problems]
        self.ratios += verdict.ratios
        if verdict.lp_mismatch:
            self.fail(label, verdict.lp_mismatch)


def _derived_seeds(seed: int, stream: int, count: int) -> list[int]:
    return [int(v) for v in np.random.default_rng([seed, stream]).integers(0, 2**62, size=count)]


def _write_fasta(path: Path, prefix: str, seqs: list[str]) -> None:
    lines = []
    for i, seq in enumerate(seqs):
        lines.append(f">{prefix}{i + 1}")
        lines.extend(seq[k : k + 60] for k in range(0, len(seq), 60))
    path.write_text("\n".join(lines) + "\n")


def _write_matrix(path: Path, a: np.ndarray) -> None:
    rows = [f"{a.shape[0]} {a.shape[1]}"] + [" ".join(str(int(v)) for v in row) for row in a]
    path.write_text("\n".join(rows) + "\n")


# ----------------------------------------------------------------------
# solve


@dataclass(frozen=True)
class FamilySpec:
    clones: int
    templates: int
    length: int
    mutations: int
    probes: int


@dataclass
class Family:
    key: str
    spec: FamilySpec
    rng_seed: list[int]
    clones: list[str] = field(default_factory=list)
    probes: list[str] = field(default_factory=list)

    def make(self, workdir: Path) -> None:
        """Point mutants of random templates, and random 6- and 7-mer probes."""
        spec = self.spec
        rng = np.random.default_rng(self.rng_seed)
        templates = rng.integers(0, 4, size=(spec.templates, spec.length))
        self.clones = []
        for i in range(spec.clones):
            bases = templates[i % spec.templates].copy()
            pos = rng.choice(spec.length, size=spec.mutations, replace=False)
            bases[pos] = (bases[pos] + rng.integers(1, 4, size=spec.mutations)) % 4
            self.clones.append(_BASES[bases].tobytes().decode())
        self.probes = [_BASES[rng.integers(0, 4, size=6 + j % 2)].tobytes().decode() for j in range(spec.probes)]
        _write_fasta(self.clone_path(workdir), f"{self.key}_c", self.clones)
        _write_fasta(self.probe_path(workdir), f"{self.key}_p", self.probes)

    def clone_path(self, workdir: Path) -> Path:
        return workdir / f"{self.key}.clones.fa"

    def probe_path(self, workdir: Path) -> Path:
        return workdir / f"{self.key}.probes.fa"


class SolveWorkload:
    """build-matrix on clone families, then CLI solve with every algorithm.

    The solves run on four families fixed here, not drawn from the seed:
    the float simplex returns a wrong z* on some clone-family matrices,
    so on seeded families an operation would fail on some seeds and not
    on others.  On fixed matrices the failing set is the same in every
    run.  The seed draws the rounding seed of every solve and two more
    families that go through build-matrix only.
    """

    FIXED_FAMILY_SEEDS = (0, 1, 2, 3)
    FIXED = FamilySpec(clones=800, templates=60, length=1500, mutations=15, probes=40)
    SEEDED = FamilySpec(clones=400, templates=40, length=1500, mutations=15, probes=40)
    SEEDED_FAMILIES = 2
    RESTARTS = 100
    # (algorithm, s, pad, repair), each formulation at both budgets
    SOLVES = (
        ("rcm", 40, "greedy", "random"),
        ("rcm2", 100, "random", "random"),
        ("rdm", 40, "random", "random"),
        ("rdm", 100, "random", "lowest-fraction"),
        ("rca", 40, "random", "random"),
        ("rca2", 100, "greedy", "random"),
    )

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        fixed = [Family(f"fixed{k}", self.FIXED, [k]) for k in self.FIXED_FAMILY_SEEDS]
        seeded = [Family(f"fam{k}", self.SEEDED, [seed, 1, k]) for k in range(self.SEEDED_FAMILIES)]
        self.families = fixed + seeded
        plan = [(fam, *solve) for fam in fixed for solve in self.SOLVES]
        self.plan = [entry + (solve_seed,) for entry, solve_seed in zip(plan, _derived_seeds(seed, 2, len(plan)))]

    def prepare(self) -> None:
        for fam in self.families:
            fam.make(self.workdir)

    def warm_up(self) -> None:
        tiny = self.workdir / "warm"
        tiny.mkdir(exist_ok=True)
        _write_fasta(tiny / "c.fa", "c", [fam.clones[0] for fam in self.families] * 4)
        _write_fasta(tiny / "p.fa", "p", self.families[0].probes[:6])
        run_cli(["build-matrix", tiny / "c.fa", tiny / "p.fa", tiny / "w.matrix"])
        for alg in ("rcm", "rcm2", "rdm", "rca", "rca2"):
            run_cli(["solve", tiny / "w.matrix", "--s", 4, "--objective", checks.ALG_OBJECTIVE[alg],
                     "--alg", alg, "--seed", 1, "--restarts", 2, "--pad", "greedy", "--out", tiny / "w.json"])

    def round_ops(self, r: int) -> list[Op]:
        rdir = self.workdir / f"r{r}"
        rdir.mkdir()
        ops = []
        for fam in self.families:
            out = rdir / f"{fam.key}.matrix"
            argv = ["build-matrix", fam.clone_path(self.workdir), fam.probe_path(self.workdir), out]
            ops.append(Op(f"build-matrix {fam.key}", lambda argv=argv: run_cli(argv), {"family": fam, "out": out}))
        for fam, alg, s, pad, repair, seed in self.plan:
            out = rdir / f"{fam.key}-{alg}-s{s}.json"
            argv = ["solve", rdir / f"{fam.key}.matrix", "--s", s, "--objective", checks.ALG_OBJECTIVE[alg],
                    "--alg", alg, "--seed", seed, "--restarts", self.RESTARTS, "--pad", pad,
                    "--repair", repair, "--out", out]
            params = {"family": fam, "alg": alg, "s": s, "seed": seed, "out": out}
            ops.append(Op(f"solve {fam.key} {alg} s={s}", lambda argv=argv: run_cli(argv), params))
        return ops

    def check(self, results) -> CheckReport:
        report = CheckReport()
        lp_ref = checks.LpReference()
        adjacency = {fam.key: checks.hybridization_matrix(fam.clones, fam.probes) for fam in self.families}
        for op, res in results:
            fam = op.params["family"]
            a = adjacency[fam.key]
            if not isinstance(res, CliResult) or res.code != 0:
                report.fail(op.label, res)
                continue
            if op.label.startswith("build-matrix"):
                report.problems += [f"{op.label}: {p}" for p in checks.check_matrix_output(op.params["out"].read_text(), a)]
                continue
            record = json.loads(op.params["out"].read_text())
            alg, s = op.params["alg"], op.params["s"]
            z_ref = lp_ref.value(fam.key, a, s, checks.OBJECTIVE_LP[checks.ALG_OBJECTIVE[alg]])
            verdict = checks.check_solve_record(record, a, s, alg, z_ref)
            if record.get("seed") != op.params["seed"] or record.get("restarts") != self.RESTARTS:
                verdict.problems.append("record does not echo the seed and restarts it was given")
            report.add(op.label, verdict)
        return report


# ----------------------------------------------------------------------
# sweep


class SweepWorkload:
    """CLI bench sweeps over iid random matrices; one sweep is one operation."""

    SIZE = (100, 30)
    DENSITIES = (0.1, 0.5)
    S_RANGE = (5, 95, 5)
    ALGS = ("rcm", "rdm", "rca")
    TRIALS = 2
    SWEEPS = 8

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.bench_seeds = _derived_seeds(seed, 3, self.SWEEPS)

    def prepare(self) -> None:
        pass

    def _argv(self, bench_seed: int, out: Path, size=None, s_range=None) -> list:
        m, n = size or self.SIZE
        lo, hi, step = s_range or self.S_RANGE
        argv = ["bench", "--size", f"{m}x{n}"]
        for d in self.DENSITIES:
            argv += ["--density", d]
        argv += ["--s-range", f"{lo}:{hi}:{step}"]
        for alg in self.ALGS:
            argv += ["--alg", alg]
        return argv + ["--trials", self.TRIALS, "--seed", bench_seed, "--out", out]

    def warm_up(self) -> None:
        run_cli(self._argv(1, self.workdir / "warm.csv", size=(12, 6), s_range=(2, 6, 2)))

    def round_ops(self, r: int) -> list[Op]:
        rdir = self.workdir / f"r{r}"
        rdir.mkdir()
        ops = []
        for k, bench_seed in enumerate(self.bench_seeds):
            out = rdir / f"sweep{k}.csv"
            argv = self._argv(bench_seed, out)
            ops.append(Op(f"bench sweep{k}", lambda argv=argv: run_cli(argv), {"seed": bench_seed, "out": out}))
        return ops

    def check(self, results) -> CheckReport:
        report = CheckReport()
        lp_ref = checks.LpReference()
        m, n = self.SIZE
        lo, hi, step = self.S_RANGE
        expected_rows = len(self.DENSITIES) * len(range(lo, hi + 1, step)) * len(self.ALGS) * self.TRIALS
        for op, res in results:
            if not isinstance(res, CliResult) or res.code != 0:
                report.fail(op.label, res)
                continue
            bench_seed = op.params["seed"]
            matrices = {
                f"m{m}n{n}d{d}i{counter}": (counter, d) for counter, d in enumerate(self.DENSITIES)
            }

            def reference(matrix_id, s, formulation, bench_seed=bench_seed, matrices=matrices):
                counter, d = matrices[matrix_id]
                a = checks.bench_matrix(bench_seed, counter, m, n, d)
                return lp_ref.value((bench_seed, counter), a, s, formulation)

            try:
                verdict = checks.check_bench_rows(
                    checks.parse_bench_csv(op.params["out"].read_text()), expected_rows, reference
                )
            except KeyError as err:
                report.problems.append(f"{op.label}: unexpected matrixId {err}")
                continue
            report.add(op.label, verdict)
        return report


# ----------------------------------------------------------------------
# exact


class ExactWorkload:
    """Exhaustive oracles: CLI oracle, exact_all_objectives, the decision oracles, a refusal."""

    M, N, DENSITY, S = 18, 10, 0.5, 9
    MATRICES = 5
    X3C = (15, 15)  # universe size, triples
    SET_COVER = (10, 20, 3, 5)  # universe size, sets, largest set, target b

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.seed = seed
        self.gen_seeds = _derived_seeds(seed, 4, 3 * self.MATRICES)
        self.matrices: list[np.ndarray] = []
        self.instances = []

    def path(self, k: int) -> Path:
        return self.workdir / f"rand{k}.matrix"

    def prepare(self) -> None:
        self.matrices, self.instances = [], []
        for k in range(self.MATRICES):
            rng = np.random.default_rng([self.seed, 5, k])
            a = (rng.random((self.M, self.N)) < self.DENSITY).astype(np.int64)
            _write_matrix(self.path(k), a)
            self.matrices.append(a)
            self.instances.append(core.Instance(a))

    def warm_up(self) -> None:
        small = self.workdir / "warm.matrix"
        _write_matrix(small, self.matrices[0][:8])
        for objective in checks.MAXIMIZE:
            run_cli(["oracle", small, "--s", 4, "--objective", objective])
        oracle.exact_all_objectives(core.Instance(self.matrices[0][:8]), 4)

    def round_ops(self, r: int) -> list[Op]:
        ops = []
        s = self.S
        for k in range(self.MATRICES):
            path = self.path(k)
            for objective in checks.MAXIMIZE:
                argv = ["oracle", path, "--s", s, "--objective", objective]
                ops.append(Op(f"oracle rand{k} {objective}", lambda argv=argv: run_cli(argv),
                              {"kind": "oracle", "k": k, "objective": objective}))
            inst = self.instances[k]
            ops.append(Op(f"exact_all_objectives rand{k}", lambda inst=inst: oracle.exact_all_objectives(inst, s),
                          {"kind": "all", "k": k}))
            universe, triples = self.X3C
            for planted, gen_seed in ((True, self.gen_seeds[3 * k]), (False, self.gen_seeds[3 * k + 1])):
                def decide_x3c(planted=planted, gen_seed=gen_seed):
                    red = generators.gen_x3c(universe, triples, plant_cover=planted, seed=gen_seed,
                                             solve_ground_truth=False)
                    return red, oracle.perfect_balance_exists(red.instance, red.s)
                ops.append(Op(f"x3c k={k} planted={planted}", decide_x3c, {"kind": "x3c", "planted": planted}))

            def decide_cover(gen_seed=self.gen_seeds[3 * k + 2]):
                red = generators.gen_set_cover(*self.SET_COVER, seed=gen_seed, solve_ground_truth=False)
                return red, oracle.size_s_cover_exists(red.instance, red.s)
            ops.append(Op(f"setcover k={k}", decide_cover, {"kind": "setcover"}))
        # the size-s scan fits the budget, the at-most-s total does not
        argv = ["oracle", self.path(0), "--s", s, "--objective", "cmin", "--budget", math.comb(self.M, s)]
        ops.append(Op("oracle refusal", lambda: run_cli(argv), {"kind": "refusal"}))
        return ops

    def check(self, results) -> CheckReport:
        report = CheckReport()
        lp_ref = checks.LpReference()
        s = self.S
        rng = np.random.default_rng([self.seed, 6])
        verified: set = set()

        def z(k, formulation):
            return lp_ref.value(k, self.matrices[k], s, formulation)

        for op, res in results:
            kind = op.params["kind"]
            problems = []
            expected_code = 3 if kind == "refusal" else 0
            if isinstance(res, BaseException) or (isinstance(res, CliResult) and res.code != expected_code):
                report.fail(op.label, res)
                continue
            if kind == "refusal":
                total = sum(math.comb(self.M, j) for j in range(s + 1))
                if str(total) not in res.stderr:
                    problems.append(f"refusal does not name the at-most-s count {total}: {res.stderr.strip()}")
            elif kind == "oracle":
                k, objective = op.params["k"], op.params["objective"]
                payload = json.loads(res.stdout)
                key = ("oracle", k, objective, res.stdout)
                if key not in verified:
                    verified.add(key)
                    problems += checks.check_oracle_payload(
                        payload, self.matrices[k], s, objective, z(k, checks.OBJECTIVE_LP.get(objective, "avglp")), rng
                    )
                if objective == "cavg":
                    # the LP's integrality gap; cmin and dmax optima take a handful of
                    # small values at this size, so their ratios measure the draw
                    optimum = Fraction(payload["optimumExactNum"], payload["optimumExactDen"])
                    report.ratios.append(checks.ratio(z(k, "avglp"), float(optimum), True))
            elif kind == "all":
                k = op.params["k"]
                found = {kind_.value: (r.optimum_num, r.optimum_den, list(r.witness)) for kind_, r in res.items()}
                key = ("all", k, repr(sorted(found.items())))
                if key not in verified:
                    verified.add(key)
                    refs = {obj: z(k, checks.OBJECTIVE_LP[obj]) for obj in ("cmin", "cavg", "dmax")}
                    problems += checks.check_all_objectives(found, self.matrices[k], s, refs)
            else:
                red, answer = res
                if kind == "x3c":
                    problems += checks.check_x3c_answer(red.universe_size, red.triples, answer)
                    if op.params["planted"] and not answer:
                        problems.append("no perfect balance found on an X3C instance with a planted cover")
                else:
                    problems += checks.check_set_cover_answer(red.universe_size, red.family, red.target_size, answer)
            report.problems += [f"{op.label}: {p}" for p in problems]
        return report


WORKLOADS = {"solve": SolveWorkload, "sweep": SweepWorkload, "exact": ExactWorkload}
