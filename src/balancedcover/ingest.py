"""DNA sequence handling: parsing, reverse complements, and matrix building.

A probe hybridizes with a clone when the probe or its reverse complement
occurs as a contiguous substring of the clone sequence.  Sequences are
normalized to uppercase on ingest.  Characters outside A/C/G/T are
rejected by default; the lenient policy maps them to 'N', which never
matches anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .core import Instance
from .errors import InputError

_COMPLEMENT = {"A": "T", "C": "G", "G": "C", "T": "A"}
# 'N' stands for an unknown base and complements to itself.
_COMPLEMENT_N = dict(_COMPLEMENT, N="N")


class AmbiguityPolicy(Enum):
    REJECT = "reject"
    NEVER_MATCH = "never-match"


@dataclass(frozen=True)
class SequenceRecord:
    """A named, normalized DNA sequence."""

    name: str
    bases: str


def normalize_bases(raw: str, policy: AmbiguityPolicy = AmbiguityPolicy.REJECT, label: str = "sequence") -> str:
    """Uppercase a raw sequence and apply the ambiguity policy.

    Under REJECT, any character outside ACGT raises an input error that
    names the offending position (1-based).  Under NEVER_MATCH the
    character becomes 'N'.
    """
    bases = raw.upper()
    out = []
    for pos, ch in enumerate(bases, start=1):
        if ch in _COMPLEMENT:
            out.append(ch)
        elif policy is AmbiguityPolicy.NEVER_MATCH:
            out.append("N")
        else:
            raise InputError(f"{label}: invalid base {ch!r} at position {pos}")
    return "".join(out)


def reverse_complement(seq: str) -> str:
    """Reverse complement of an A/C/G/T string (e.g. ACGT -> ACGT, AAC -> GTT)."""
    out = []
    for pos, ch in enumerate(seq.upper(), start=1):
        if ch not in _COMPLEMENT:
            raise InputError(f"invalid base {ch!r} at position {pos}")
        out.append(_COMPLEMENT[ch])
    return "".join(reversed(out))


def _reverse_complement_lenient(seq: str) -> str:
    return "".join(_COMPLEMENT_N[ch] for ch in reversed(seq))


def matches(clone: str, probe: str) -> bool:
    """True when probe or its reverse complement is a substring of clone.

    Both arguments must be nonempty A/C/G/T strings (case-insensitive).
    """
    c = normalize_bases(clone, label="clone")
    p = normalize_bases(probe, label="probe")
    if not c or not p:
        raise InputError("empty sequence")
    return _matches_normalized(c, p)


def _matches_normalized(clone: str, probe: str) -> bool:
    # 'N' never equals a probe base, so substring search is still correct
    # on lenient clones; a probe containing 'N' can never match at all.
    if "N" in probe:
        return False
    return probe in clone or _reverse_complement_lenient(probe) in clone


class _AhoCorasick:
    """Multi-pattern substring scanner over the ACGT(N) alphabet.

    Transitions are plain dicts; characters absent from every pattern
    (such as 'N') fall back to the root via failure links, which is
    exactly the never-match behaviour we need.
    """

    def __init__(self, patterns: Iterable[tuple[str, int]]):
        self._goto: list[dict[str, int]] = [{}]
        self._fail = [0]
        self._out: list[set[int]] = [set()]
        for pattern, tag in patterns:
            self._add(pattern, tag)
        self._build_failures()

    def _add(self, pattern: str, tag: int) -> None:
        state = 0
        for ch in pattern:
            nxt = self._goto[state].get(ch)
            if nxt is None:
                nxt = len(self._goto)
                self._goto[state][ch] = nxt
                self._goto.append({})
                self._fail.append(0)
                self._out.append(set())
            state = nxt
        self._out[state].add(tag)

    def _build_failures(self) -> None:
        from collections import deque

        queue = deque(self._goto[0].values())
        while queue:
            state = queue.popleft()
            for ch, nxt in self._goto[state].items():
                queue.append(nxt)
                f = self._fail[state]
                while f and ch not in self._goto[f]:
                    f = self._fail[f]
                # nxt sits at depth >= 2, goto[f][ch] strictly shallower,
                # so this can never point a node at itself.
                self._fail[nxt] = self._goto[f].get(ch, 0)
                self._out[nxt] |= self._out[self._fail[nxt]]

    def scan(self, text: str) -> set[int]:
        found: set[int] = set()
        state = 0
        for ch in text:
            while state and ch not in self._goto[state]:
                state = self._fail[state]
            state = self._goto[state].get(ch, 0)
            if self._out[state]:
                found |= self._out[state]
        return found


def build_instance(
    clones: Sequence[SequenceRecord],
    probes: Sequence[SequenceRecord],
    ambiguity: AmbiguityPolicy = AmbiguityPolicy.REJECT,
) -> Instance:
    """Build the clone-probe adjacency matrix from sequence records.

    One multi-pattern automaton over all probes and their reverse
    complements scans each clone once; entry (i, j) is 1 exactly when
    ``matches`` holds for clone i and probe j.
    """
    if not clones:
        raise InputError("no clones")
    if not probes:
        raise InputError("no probes")
    norm_clones = [
        SequenceRecord(r.name, normalize_bases(r.bases, ambiguity, f"clone {r.name}")) for r in clones
    ]
    norm_probes = [
        SequenceRecord(r.name, normalize_bases(r.bases, ambiguity, f"probe {r.name}")) for r in probes
    ]
    for rec in norm_clones + norm_probes:
        if not rec.bases:
            raise InputError(f"sequence {rec.name!r} is empty")
    m, n = len(norm_clones), len(norm_probes)
    matrix = np.zeros((m, n), dtype=np.int8)
    patterns = []
    for j, probe in enumerate(norm_probes):
        # a probe containing 'N' never matches, so it gets no pattern
        if "N" in probe.bases:
            continue
        patterns.append((probe.bases, j))
        rc = _reverse_complement_lenient(probe.bases)
        if rc != probe.bases:
            patterns.append((rc, j))
    automaton = _AhoCorasick(patterns)
    for i, clone in enumerate(norm_clones):
        for j in automaton.scan(clone.bases):
            matrix[i, j] = 1
    return Instance(
        matrix,
        clone_names=[r.name for r in norm_clones],
        probe_names=[r.name for r in norm_probes],
    )


def parse_fasta(text: str, label: str = "input") -> list[SequenceRecord]:
    """Parse FASTA text into records; sequences stay raw (not normalized)."""
    records: list[SequenceRecord] = []
    name: str | None = None
    chunks: list[str] = []

    def flush():
        if name is None:
            return
        seq = "".join(chunks)
        if not seq:
            raise InputError(f"{label}: record {name!r} has no sequence")
        records.append(SequenceRecord(name, seq))

    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith(">"):
            flush()
            name = line[1:].strip()
            if not name:
                raise InputError(f"{label}: empty record name at line {lineno}")
            chunks = []
        else:
            if name is None:
                raise InputError(f"{label}: sequence data before first '>' header at line {lineno}")
            chunks.append(line)
    flush()
    if not records:
        raise InputError(f"{label}: no FASTA records found")
    names = [r.name for r in records]
    if len(set(names)) != len(names):
        dup = next(x for x in names if names.count(x) > 1)
        raise InputError(f"{label}: duplicate record name {dup!r}")
    return records


def parse_sequences(text: str, prefix: str, label: str = "input") -> list[SequenceRecord]:
    """Parse FASTA or plain one-sequence-per-line text.

    Plain lines are auto-named prefix1, prefix2, ... in file order.
    """
    stripped = text.lstrip()
    if stripped.startswith(">"):
        return parse_fasta(text, label)
    records = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        records.append(SequenceRecord(f"{prefix}{len(records) + 1}", line))
    if not records:
        raise InputError(f"{label}: no sequences found")
    return records
