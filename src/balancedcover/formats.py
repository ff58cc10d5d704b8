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
    head = "".join(f"# {c}\n" for c in comments) + f"{m} {n}\n"
    # each row is n digits, each followed by a space or, last, a newline
    cells = np.full((m, 2 * n), ord(" "), dtype=np.uint8)
    cells[:, ::2] = instance.adjacency + ord("0")
    cells[:, -1] = ord("\n")
    return head + cells.tobytes().decode("ascii")


def parse_matrix(text: str, label: str = "matrix") -> np.ndarray:
    lines = text.splitlines()
    # the header is the first line that is neither blank nor a '#' comment
    first = next((k for k, line in enumerate(lines) if line.strip() and not line.strip().startswith("#")), None)
    if first is None:
        raise InputError(f"{label}: empty matrix file")
    tokens = lines[first].split()
    if len(tokens) != 2:
        raise InputError(f"{label}: line {first + 1}: header must be 'm n'")
    try:
        m, n = int(tokens[0]), int(tokens[1])
    except ValueError:
        raise InputError(f"{label}: line {first + 1}: header must be two integers") from None
    if m < 1 or n < 1:
        raise InputError(f"{label}: line {first + 1}: dimensions must be positive")
    body = lines[first + 1 :]
    # rows laid out as format_matrix writes them read in one pass
    cells = np.frombuffer(("\n".join(body) + "\n").encode(), dtype=np.uint8)
    if cells.size == m * 2 * n:
        cells = cells.reshape(m, 2 * n)
        digits = cells[:, ::2] - np.uint8(ord("0"))
        if (digits <= 1).all() and (cells[:, 1:-1:2] == ord(" ")).all() and (cells[:, -1] == ord("\n")).all():
            return digits.astype(np.int8)
    # anything else goes row by row, so a bad row is named by its line
    rows = []
    for lineno, line in enumerate(body, start=first + 2):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if len(tokens) != n:
            raise InputError(f"{label}: line {lineno}: expected {n} entries, got {len(tokens)}")
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
        if len(rows) > m:
            raise InputError(f"{label}: more than {m} matrix rows")
    if len(rows) != m:
        raise InputError(f"{label}: expected {m} rows, found {len(rows)}")
    digits = np.frombuffer("".join(rows).encode("ascii"), dtype=np.uint8)
    return (digits - ord("0")).astype(np.int8).reshape(m, n)


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
