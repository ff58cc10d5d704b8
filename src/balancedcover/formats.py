"""On-disk formats: the matrix file, its names sidecar, result records.

Matrix file: optional '#' comment lines, then a header "m n", then m
rows of n space-separated 0/1 entries.  Serializing a parsed file
reproduces it byte for byte up to the stripped comments.

Names sidecar (<matrix path> + ".names"): m clone-name lines, one blank
line, n probe-name lines.

Result record: a JSON object with a schemaVersion field, documenting
one solve end to end (inputs, seed, per-restart diagnostics, best
selection found).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .core import Instance
from .errors import InputError

RESULT_SCHEMA_VERSION = 1

BENCH_COLUMNS = (
    "matrixId",
    "m",
    "n",
    "density",
    "s",
    "objective",
    "algorithm",
    "trial",
    "seed",
    "lpValue",
    "roundedValue",
    "ratio",
    "wallTimeMs",
)


def format_matrix(instance: Instance, comments: tuple[str, ...] = ()) -> str:
    m, n = instance.num_clones, instance.num_probes
    lines = [f"# {c}" for c in comments]
    lines.append(f"{m} {n}")
    for i in range(m):
        lines.append(" ".join(str(int(v)) for v in instance.adjacency[i]))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str, label: str = "matrix") -> np.ndarray:
    rows = []
    header: tuple[int, int] | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if header is None:
            if len(tokens) != 2:
                raise InputError(f"{label}: line {lineno}: header must be 'm n'")
            try:
                header = (int(tokens[0]), int(tokens[1]))
            except ValueError:
                raise InputError(f"{label}: line {lineno}: header must be two integers") from None
            if header[0] < 1 or header[1] < 1:
                raise InputError(f"{label}: line {lineno}: dimensions must be positive")
            continue
        if len(tokens) != header[1]:
            raise InputError(
                f"{label}: line {lineno}: expected {header[1]} entries, got {len(tokens)}"
            )
        try:
            row = [int(t) for t in tokens]
        except ValueError:
            raise InputError(f"{label}: line {lineno}: entries must be integers") from None
        if any(v not in (0, 1) for v in row):
            raise InputError(f"{label}: line {lineno}: entries must be 0 or 1")
        rows.append(row)
        if len(rows) > header[0]:
            raise InputError(f"{label}: more than {header[0]} matrix rows")
    if header is None:
        raise InputError(f"{label}: empty matrix file")
    if len(rows) != header[0]:
        raise InputError(f"{label}: expected {header[0]} rows, found {len(rows)}")
    return np.array(rows, dtype=np.int8)


def format_names(instance: Instance) -> str:
    return "\n".join(list(instance.clone_names) + [""] + list(instance.probe_names)) + "\n"


def parse_names(text: str, m: int, n: int, label: str = "names") -> tuple[tuple[str, ...], tuple[str, ...]]:
    lines = text.splitlines()
    try:
        split = lines.index("")
    except ValueError:
        raise InputError(f"{label}: missing blank separator line") from None
    clones = [ln.strip() for ln in lines[:split]]
    probes = [ln.strip() for ln in lines[split + 1 :] if ln.strip()]
    if len(clones) != m:
        raise InputError(f"{label}: expected {m} clone names, got {len(clones)}")
    if len(probes) != n:
        raise InputError(f"{label}: expected {n} probe names, got {len(probes)}")
    return tuple(clones), tuple(probes)


def names_path_for(matrix_path: str | Path) -> Path:
    return Path(str(matrix_path) + ".names")


def read_text(path: str | Path, what: str) -> str:
    """Read a text file; an unreadable or undecodable file is an InputError naming the path."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as err:
        raise InputError(f"cannot read {what} {path}: {err}") from err


def write_text(path: str | Path, text: str) -> None:
    """Write a text file; a failed write is an InputError naming the path."""
    try:
        Path(path).write_text(text)
    except OSError as err:
        raise InputError(f"cannot write {path}: {err}") from err


def write_matrix(path: str | Path, instance: Instance, comments: tuple[str, ...] = ()) -> None:
    write_text(path, format_matrix(instance, comments))
    write_text(names_path_for(path), format_names(instance))


def read_matrix(path: str | Path) -> Instance:
    """Load a matrix file, picking up the names sidecar when present."""
    a = parse_matrix(read_text(path, "matrix file"), label=str(path))
    clone_names = probe_names = None
    sidecar = names_path_for(path)
    if sidecar.exists():
        clone_names, probe_names = parse_names(
            read_text(sidecar, "names file"), a.shape[0], a.shape[1], label=str(sidecar)
        )
    return Instance(a, clone_names=clone_names, probe_names=probe_names)


def result_record(
    *,
    algorithm: str,
    objective: str,
    m: int,
    n: int,
    s: int,
    seed: int,
    restarts: int,
    lp_value: float,
    best_value: float,
    best_value_exact_num: int,
    best_value_exact_den: int,
    selected_indices: list[int],
    degrees: list[int],
    epsilon_or_lambda: float | None,
    violations_repaired: list[int],
    wall_time_ms: float,
) -> dict:
    return {
        "schemaVersion": RESULT_SCHEMA_VERSION,
        "algorithm": algorithm,
        "objective": objective,
        "m": m,
        "n": n,
        "s": s,
        "seed": seed,
        "restarts": restarts,
        "lpValue": lp_value,
        "bestValue": best_value,
        "bestValueExactNum": best_value_exact_num,
        "bestValueExactDen": best_value_exact_den,
        "selectedIndices": selected_indices,
        "degrees": degrees,
        "epsilonOrLambda": epsilon_or_lambda,
        "violationsRepaired": violations_repaired,
        "wallTimeMs": wall_time_ms,
    }


_REQUIRED_RESULT_KEYS = (
    "schemaVersion",
    "algorithm",
    "objective",
    "m",
    "n",
    "s",
    "seed",
    "restarts",
    "lpValue",
    "bestValue",
    "bestValueExactNum",
    "bestValueExactDen",
    "selectedIndices",
    "degrees",
    "epsilonOrLambda",
    "violationsRepaired",
    "wallTimeMs",
)


def dump_result(record: dict) -> str:
    return json.dumps(record, indent=2) + "\n"


def load_result(text: str) -> dict:
    try:
        record = json.loads(text)
    except json.JSONDecodeError as err:
        raise InputError(f"bad result record: {err}") from err
    if not isinstance(record, dict):
        raise InputError("result record must be a JSON object")
    missing = [k for k in _REQUIRED_RESULT_KEYS if k not in record]
    if missing:
        raise InputError(f"result record missing keys: {', '.join(missing)}")
    if record["schemaVersion"] != RESULT_SCHEMA_VERSION:
        raise InputError(f"unsupported result schema version {record['schemaVersion']!r}")
    return record
