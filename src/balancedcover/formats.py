"""On-disk formats: the matrix file, its names sidecar, result records, bench CSVs.

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

import csv
import inspect
import io
import json
from pathlib import Path

import numpy as np

from .core import Instance
from .errors import InputError

RESULT_SCHEMA_VERSION = 1

_BINARY_TOKENS = frozenset("01")

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
# one row per (matrix, s, algorithm) cell of the bench CSV
SUMMARY_COLUMNS = BENCH_COLUMNS[:7] + ("trials", "lpValue", "meanRoundedValue", "meanRatio", "bestRoundedValue")


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
        if not _BINARY_TOKENS.issuperset(tokens):
            # a token such as "01" or "+1" still reads as the integer it spells
            try:
                values = [int(t) for t in tokens]
            except ValueError:
                raise InputError(f"{label}: line {lineno}: entries must be integers") from None
            if any(v not in (0, 1) for v in values):
                raise InputError(f"{label}: line {lineno}: entries must be 0 or 1")
            tokens = [str(v) for v in values]
        rows.append("".join(tokens))
        if len(rows) > header[0]:
            raise InputError(f"{label}: more than {header[0]} matrix rows")
    if header is None:
        raise InputError(f"{label}: empty matrix file")
    if len(rows) != header[0]:
        raise InputError(f"{label}: expected {header[0]} rows, found {len(rows)}")
    digits = np.frombuffer("".join(rows).encode("ascii"), dtype=np.uint8)
    return (digits - ord("0")).astype(np.int8).reshape(header)


def format_names(instance: Instance) -> str:
    return "\n".join(list(instance.clone_names) + [""] + list(instance.probe_names)) + "\n"


def parse_names(text: str, m: int, n: int, label: str = "names") -> tuple[tuple[str, ...], tuple[str, ...]]:
    lines = text.splitlines()
    try:
        split = lines.index("")
    except ValueError:
        raise InputError(f"{label}: missing blank separator line") from None
    # (line number, name) pairs; blank lines after the separator are skipped
    clones = [(k, ln.strip()) for k, ln in enumerate(lines[:split], start=1)]
    probes = [(k, ln.strip()) for k, ln in enumerate(lines[split + 1 :], start=split + 2) if ln.strip()]
    if len(clones) != m:
        raise InputError(f"{label}: expected {m} clone names, got {len(clones)}")
    if len(probes) != n:
        raise InputError(f"{label}: expected {n} probe names, got {len(probes)}")
    for what, block in (("clone", clones), ("probe", probes)):
        seen = set()
        for k, name in block:
            if not name:
                raise InputError(f"{label}: line {k}: empty {what} name")
            if name in seen:
                raise InputError(f"{label}: line {k}: duplicate {what} name {name!r}")
            seen.add(name)
    return tuple(name for _, name in clones), tuple(name for _, name in probes)


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


def write_csv(path: str | Path, columns: tuple[str, ...], rows) -> None:
    """Write a header of columns, then one line per row tuple; a failed write is an InputError."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    write_text(path, buf.getvalue())


def check_writable(path: str | Path) -> None:
    """Raise the InputError a later write_text(path) would raise, before any work is done.

    An existing file is left as it was; a file the check creates is removed again.
    """
    existed = Path(path).exists()
    try:
        with Path(path).open("a"):
            pass
    except OSError as err:
        raise InputError(f"cannot write {path}: {err}") from err
    if not existed:
        Path(path).unlink()


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


# the keys result_record writes, read off a record built from placeholder values
_REQUIRED_RESULT_KEYS = tuple(result_record(**dict.fromkeys(inspect.signature(result_record).parameters)))


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
