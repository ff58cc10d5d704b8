"""Command-line front end.

Subcommands: build-matrix (FASTA -> matrix file), solve (LP + rounding),
oracle (exhaustive optimum), gen (instance generators), bench (sweep to
CSV).  Exit codes: 0 success, 1 usage or stdout closed before the output
was written (no traceback), 2 bad input data, 3 enumeration budget
refusal, 4 solver failure.

Every random action takes --seed; without it a seed is drawn from
system entropy and printed so the run can be reproduced.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time
from pathlib import Path

from .core import ObjectiveKind
from .errors import BudgetExceededError, InputError, SolverError
from .formats import (
    BENCH_COLUMNS,
    SUMMARY_COLUMNS,
    check_writable,
    dump_result,
    names_path_for,
    read_matrix,
    read_text,
    result_record,
    write_csv,
    write_matrix,
    write_text,
)
from .generators import (
    GeneratorKind,
    GeneratorSpec,
    gen_random,
    gen_set_cover,
    gen_x3c,
    replicate_probes,
)
from .ingest import AmbiguityPolicy, build_instance, parse_sequences
from .lp import Formulation, maxlp_from_minlp, solve_sweep
from .oracle import DEFAULT_BUDGET, exact_optimum
from .rounding import (
    ALGORITHM_FORMULATION,
    ALGORITHM_OBJECTIVE,
    Algorithm,
    PadPolicy,
    RepairPolicy,
    RoundingConfig,
    derive_trial_seed,
    solve_end_to_end,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")

    def print_help(self, file=None):
        # argparse's own drops a failed write; --help into a closed stdout then exits 1 like a command
        (file or sys.stdout).write(self.format_help())


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    drawn = int.from_bytes(os.urandom(8), "big")
    print(f"seed: {drawn}")
    return drawn


# ----------------------------------------------------------------------


def _check_matrix_out(path) -> None:
    """Learn of an unwritable matrix file or names sidecar before the work that fills them."""
    for out in (path, names_path_for(path)):
        check_writable(out)


def cmd_build_matrix(args) -> int:
    clones = parse_sequences(read_text(args.clones, "clone file"), prefix="c", label=args.clones)
    probes = parse_sequences(read_text(args.probes, "probe file"), prefix="p", label=args.probes)
    policy = AmbiguityPolicy(args.ambiguity)
    _check_matrix_out(args.out)
    inst = build_instance(clones, probes, ambiguity=policy)
    write_matrix(
        args.out,
        inst,
        comments=(f"built from clones {args.clones} and probes {args.probes}",),
    )
    edges = int(inst.adjacency.sum())
    print(f"m={inst.num_clones} n={inst.num_probes} edges={edges}")
    print(f"wrote {args.out} and {names_path_for(args.out)}")
    return 0


def cmd_solve(args) -> int:
    inst = read_matrix(args.matrix)
    objective = ObjectiveKind(args.objective)
    algorithm = Algorithm(args.alg)
    if objective is ObjectiveKind.DAVG:
        raise _UsageError(
            "no algorithm rounds davg directly; use --objective cavg with rca/rca2 "
            "(davg = s/2 - cavg)"
        )
    if ALGORITHM_OBJECTIVE[algorithm] is not objective:
        raise _UsageError(
            f"--alg {algorithm.value} targets objective "
            f"{ALGORITHM_OBJECTIVE[algorithm].value}, not {objective.value}"
        )
    seed = _resolve_seed(args.seed)
    config = RoundingConfig(
        algorithm=algorithm,
        seed=seed,
        restarts=args.restarts,
        pad_policy=PadPolicy(args.pad),
        repair_policy=RepairPolicy(args.repair),
    )
    # learn of an unwritable output before the solve, not after it
    if args.out:
        check_writable(args.out)
    t0 = time.perf_counter()
    report = solve_end_to_end(inst, args.s, config)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    exact = report.best.exact_value(objective)
    record = result_record(
        algorithm=algorithm.value,
        objective=objective.value,
        m=inst.num_clones,
        n=inst.num_probes,
        s=args.s,
        seed=seed,
        restarts=args.restarts,
        lp_value=float(report.lp.z_star),
        best_value=report.best.value(objective),
        best_value_exact_num=exact.numerator,
        best_value_exact_den=exact.denominator,
        selected_indices=list(report.best.selected),
        degrees=list(report.best.degrees),
        epsilon_or_lambda=report.epsilon_or_lambda,
        violations_repaired=list(report.violations_repaired),
        wall_time_ms=round(wall_ms, 3),
    )
    text = dump_result(record)
    if args.out:
        write_text(args.out, text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_oracle(args) -> int:
    inst = read_matrix(args.matrix)
    objective = ObjectiveKind(args.objective)
    res = exact_optimum(inst, args.s, objective, budget=args.budget)
    payload = {
        "objective": objective.value,
        "s": args.s,
        "optimum": float(res.optimum),
        "optimumExactNum": res.optimum_num,
        "optimumExactDen": res.optimum_den,
        "witness": list(res.witness),
        "witnessNames": [inst.clone_names[i] for i in res.witness],
        "enumerated": res.enumerated,
    }
    if res.optimum_num_at_most is not None:
        payload["optimumAtMostS"] = float(res.optimum_at_most)
        payload["optimumAtMostSExactNum"] = res.optimum_num_at_most
        payload["witnessAtMostS"] = list(res.witness_at_most)
        payload["enumeratedAtMostS"] = res.enumerated_at_most
    print(json.dumps(payload, indent=2))
    return 0


def _ground_truth_comment(kind: GeneratorKind, truth: bool | None) -> str:
    if truth is None:
        return "ground-truth: unknown"
    if kind is GeneratorKind.X3C:
        return "ground-truth: balanced-cover-exists" if truth else "ground-truth: no-balanced-cover"
    return "ground-truth: size-s-cover-exists" if truth else "ground-truth: no-size-s-cover"


# per generator kind: its flags (argparse dests) in the order its header lists them
_GEN_FLAGS = {
    GeneratorKind.RANDOM: ("m", "n", "density"),
    GeneratorKind.X3C: ("universe", "triples", "plant_cover"),
    GeneratorKind.SETCOVER: ("universe", "sets", "max_set_size", "target_b"),
    GeneratorKind.REPLICATE: ("input", "r"),
}
# the flags a kind cannot do without; --seed is drawn when missing
_GEN_REQUIRED = frozenset(("m", "n", "density", "universe", "target_b", "input", "r"))
_GEN_DESTS = tuple(dict.fromkeys(itertools.chain(*_GEN_FLAGS.values(), ["seed"])))


def _flag_names(dests) -> str:
    return " ".join("--" + f.replace("_", "-") for f in dests)


def cmd_gen(args) -> int:
    kind = GeneratorKind(args.kind)
    flags = _GEN_FLAGS[kind]
    takes = flags if kind is GeneratorKind.REPLICATE else flags + ("seed",)
    missing = [f for f in flags if f in _GEN_REQUIRED and getattr(args, f) is None]
    if missing:
        raise _UsageError(f"--kind {kind.value} requires {_flag_names(missing)}")
    # a flag of another kind is an error once it differs from its default
    stray = [f for f in _GEN_DESTS if f not in takes and getattr(args, f) != args.gen_defaults[f]]
    if stray:
        raise _UsageError(f"--kind {kind.value} does not take {_flag_names(stray)}")
    seed = _resolve_seed(args.seed) if "seed" in takes else None
    _check_matrix_out(args.out)
    if kind is GeneratorKind.X3C and args.triples is None:
        args.triples = 2 * (args.universe // 3)
    if kind is GeneratorKind.SETCOVER and args.sets is None:
        args.sets = args.universe
    red = None
    if kind is GeneratorKind.RANDOM:
        inst = gen_random(args.m, args.n, args.density, seed)
    elif kind is GeneratorKind.X3C:
        red = gen_x3c(args.universe, args.triples, plant_cover=args.plant_cover, seed=seed,
                      solve_ground_truth=args.universe <= 12)
    elif kind is GeneratorKind.SETCOVER:
        red = gen_set_cover(args.universe, args.sets, args.max_set_size, args.target_b, seed=seed,
                            solve_ground_truth=args.sets <= 12)
    else:
        inst = replicate_probes(read_matrix(args.input), args.r)
    # the header's pairs: each flag of the kind as written on the command line, a bool as JSON
    params = tuple(
        (f.replace("_", "-"), json.dumps(v) if isinstance(v, bool) else v)
        for f, v in zip(flags, map(vars(args).get, flags))
    )
    if red is not None:
        inst = red.instance
        params += (("s", red.s),)
    comments = [f"generator: {GeneratorSpec(kind, seed, params).describe()}"]
    if red is not None:
        comments.append(_ground_truth_comment(kind, red.ground_truth))
    write_matrix(args.out, inst, comments=tuple(comments))
    print(f"wrote {args.out}: m={inst.num_clones} n={inst.num_probes}")
    return 0


# ----------------------------------------------------------------------


def _parse_size(text: str) -> tuple[int, int]:
    try:
        m, n = map(int, text.lower().split("x"))
    except ValueError:
        raise _UsageError(f"--size must look like MxN, got {text!r}") from None
    if m < 1 or n < 1:
        raise _UsageError(f"--size dimensions must be positive, got {text!r}")
    return m, n


def _parse_s_range(text: str) -> list[int]:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise _UsageError(f"--s-range must look like start:stop[:step], got {text!r}")
    try:
        start, stop = int(parts[0]), int(parts[1])
        step = int(parts[2]) if len(parts) == 3 else 1
    except ValueError:
        raise _UsageError(f"--s-range must hold integers, got {text!r}") from None
    if step < 1 or stop < start:
        raise _UsageError(f"--s-range must be nondecreasing with positive step, got {text!r}")
    return list(range(start, stop + 1, step))


def _mix_seed(*parts: int) -> int:
    acc = 0
    for p in parts:
        acc = derive_trial_seed(acc, p)
    return acc


def _ratio(lp_value: float, rounded: float, maximize: bool) -> float:
    if maximize:
        if lp_value <= 0:
            return 1.0 if rounded <= 0 else 0.0
        return rounded / lp_value
    if rounded <= 0:
        return 1.0
    return lp_value / rounded


def cmd_bench(args) -> int:
    sizes, densities, s_values = args.size, args.density, args.s_range
    for d in densities:
        if not 0.0 <= d <= 1.0:
            raise _UsageError(f"--density {d} must lie in [0, 1]")
    algorithms = [Algorithm(a) for a in (args.alg or ["rcm"])]
    if args.trials < 1:
        raise _UsageError(f"--trials must be >= 1, got {args.trials}")
    seed = _resolve_seed(args.seed)
    for m, n in sizes:
        bad = [s for s in s_values if not 1 <= s <= m]
        if bad:
            raise InputError(f"--s-range s={bad[0]} must lie in [1, {m}] for size {m}x{n}")
    summary_path = Path(str(args.out) + ".summary")
    # learn of an unwritable output before the sweep, not after it
    for path in (args.out, summary_path):
        check_writable(path)

    rows = []
    # the rows of each (matrix, s, algorithm) cell, keyed by their first seven columns
    cells: dict[tuple, list[tuple]] = {}
    for matrix_counter, ((m, n), dens) in enumerate(itertools.product(sizes, densities)):
        matrix_seed = _mix_seed(seed, matrix_counter)
        inst = gen_random(m, n, dens, matrix_seed)
        matrix_id = f"m{m}n{n}d{dens}i{matrix_counter}"
        # one warm-started sweep over s per LP the algorithms need; MaxLP is read off
        # the MinLP sweep, so rcm and rdm share it
        wanted = dict.fromkeys(ALGORITHM_FORMULATION[alg] for alg in algorithms)
        solved = dict.fromkeys(Formulation.MINLP if f is Formulation.MAXLP else f for f in wanted)
        sweeps = {f: solve_sweep(inst, s_values, f) for f in solved}
        if Formulation.MAXLP in wanted:
            sweeps[Formulation.MAXLP] = [
                maxlp_from_minlp(sol, s) for s, sol in zip(s_values, sweeps[Formulation.MINLP])
            ]
        for k, s in enumerate(s_values):
            for alg_index, alg in enumerate(algorithms):
                lp_sol = sweeps[ALGORITHM_FORMULATION[alg]][k]
                kind = ALGORITHM_OBJECTIVE[alg]
                lp_value = float(lp_sol.z_star)
                key = (matrix_id, m, n, dens, s, kind.value, alg.value)
                cell = cells.setdefault(key, [])
                for trial in range(args.trials):
                    run_seed = _mix_seed(seed, matrix_counter, s, alg_index, trial)
                    config = RoundingConfig(algorithm=alg, seed=run_seed, restarts=1)
                    t0 = time.perf_counter()
                    report = solve_end_to_end(inst, s, config, lp_solution=lp_sol)
                    wall_ms = (time.perf_counter() - t0) * 1000.0
                    value = report.best.value(kind)
                    ratio = _ratio(lp_value, value, kind.maximize)
                    reported = tuple(f"{v:.10g}" for v in (lp_value, value, ratio))
                    rows.append(key + (trial, run_seed, *reported, f"{wall_ms:.3f}"))
                    cell.append(rows[-1])

    # the summary reads lpValue, roundedValue and ratio as the CSV reports them
    lp_col, value_col, ratio_col = map(BENCH_COLUMNS.index, ("lpValue", "roundedValue", "ratio"))
    summary = []
    for key, cell in cells.items():
        values = [float(row[value_col]) for row in cell]
        ratios = [float(row[ratio_col]) for row in cell]
        best = max(values) if ObjectiveKind(key[5]).maximize else min(values)
        means = (f"{sum(values) / len(values):.10g}", f"{sum(ratios) / len(ratios):.10g}")
        summary.append(key + (len(cell), cell[0][lp_col], *means, f"{best:.10g}"))
    write_csv(args.out, BENCH_COLUMNS, rows)
    write_csv(summary_path, SUMMARY_COLUMNS, summary)
    print(f"wrote {args.out} ({len(rows)} rows) and {summary_path}")
    return 0


# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="balancedcover", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-matrix", help="build an adjacency matrix from sequence files")
    p.add_argument("clones", help="FASTA (or one-per-line) clone sequences")
    p.add_argument("probes", help="FASTA (or one-per-line) probe sequences")
    p.add_argument("out", help="output matrix file (names sidecar written alongside)")
    p.add_argument("--ambiguity", choices=[a.value for a in AmbiguityPolicy], default="reject")
    p.set_defaults(func=cmd_build_matrix)

    p = sub.add_parser("solve", help="LP relaxation plus randomized rounding")
    p.add_argument("matrix", help="matrix file")
    p.add_argument("--s", type=int, required=True, help="selection budget")
    p.add_argument("--objective", choices=[k.value for k in ObjectiveKind], required=True)
    p.add_argument("--alg", choices=[a.value for a in Algorithm], required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--restarts", type=int, default=1)
    p.add_argument("--pad", choices=[p_.value for p_ in PadPolicy], default="random")
    p.add_argument("--repair", choices=[r.value for r in RepairPolicy], default="random")
    p.add_argument("--out", default=None, help="result file (default: stdout)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", help="exhaustive exact optimum (budget-limited)")
    p.add_argument("matrix", help="matrix file")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--objective", choices=[k.value for k in ObjectiveKind], required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gen", help="generate instances")
    p.add_argument("--kind", choices=[k.value for k in GeneratorKind], required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--m", type=int, default=None, help="clones (random kind)")
    p.add_argument("--n", type=int, default=None, help="probes (random kind)")
    p.add_argument("--density", type=float, default=None, help="ones fraction (random kind)")
    p.add_argument("--universe", type=int, default=None, help="universe size (x3c/setcover)")
    p.add_argument("--triples", type=int, default=None, help="triple count (x3c)")
    p.add_argument("--plant-cover", action="store_true", help="plant an exact cover (x3c)")
    p.add_argument("--sets", type=int, default=None, help="family size (setcover)")
    p.add_argument("--max-set-size", type=int, default=3, help="largest set size (setcover)")
    p.add_argument("--target-b", type=int, default=None, help="cover size target b (setcover)")
    p.add_argument("--input", default=None, help="source matrix (replicate)")
    p.add_argument("--r", type=int, default=None, help="replication factor (replicate)")
    p.set_defaults(func=cmd_gen, gen_defaults={f: p.get_default(f) for f in _GEN_DESTS})

    p = sub.add_parser("bench", help="sweep algorithms over generated matrices into CSV")
    p.add_argument(
        "--size", action="append", type=_parse_size, required=True, help="matrix size MxN (repeatable)"
    )
    p.add_argument("--density", action="append", type=float, required=True, help="repeatable")
    p.add_argument("--s-range", type=_parse_s_range, required=True, help="start:stop[:step], inclusive")
    p.add_argument(
        "--alg", action="append", choices=[a.value for a in Algorithm], help="repeatable (default rcm)"
    )
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="CSV path (summary written to <out>.summary)")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
            code = args.func(args)
        except SystemExit as err:
            # argparse exits directly for --help
            code = int(err.code or 0)
        # a stdout closed by its reader raises here, not in the interpreter's flush at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # fd 1 on devnull, so the flush at exit cannot raise again (Python signal docs, "Note on SIGPIPE")
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except BudgetExceededError as err:
        print(f"refused: {err}", file=sys.stderr)
        return 3
    except SolverError as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
