"""DNA sequence handling: parsing, reverse complements, and matrix building.

A probe hybridizes with a clone when the probe or its reverse complement
occurs as a contiguous substring of the clone sequence.  Sequences are
normalized to uppercase on ingest.  Characters outside A/C/G/T are
rejected by default; the lenient policy maps them to 'N', which never
matches anything.

The matrix is built block by block: the clones of a block are joined
with 'N' separators, every window of each probe length is packed into a
2-bit ``uint64`` code, and the codes are looked up among the sorted codes
of the probes and their reverse complements.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .core import Instance
from .errors import InputError

_NON_ACGT = re.compile("[^ACGT]")
# the ASCII line breaks str.splitlines knows besides "\n", and the ASCII
# whitespace that is no line break
_OTHER_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e"
_BLANKS = " \t\x1f"
# 'N' stands for an unknown base and complements to itself.
_COMPLEMENT = str.maketrans("ACGTN", "TGCAN")

# Base codes: A, C, G, T -> 0..3 (so the complement of b is 3 - b); N -> 4.
_N_CODE = 4
_BASE_CODE = np.full(256, _N_CODE, dtype=np.uint8)
_BASE_CODE[np.frombuffer(b"ACGT", dtype=np.uint8)] = np.arange(4, dtype=np.uint8)
# A uint64 holds 32 two-bit bases; longer windows are keyed by their last 32.
_MAX_CODE_BASES = 32
# Clones are joined into blocks of about this many bases, so every
# temporary is bounded by the block rather than by the whole input.
_BLOCK_BASES = 1 << 15
_FILTER_BITS = 16
_FILTER_MASK = np.uint64((1 << _FILTER_BITS) - 1)


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
    if policy is AmbiguityPolicy.NEVER_MATCH:
        return _NON_ACGT.sub("N", bases)
    bad = _NON_ACGT.search(bases)
    if bad:
        raise InputError(f"{label}: invalid base {bad.group()!r} at position {bad.start() + 1}")
    return bases


def reverse_complement(seq: str) -> str:
    """Reverse complement of an A/C/G/T string (e.g. ACGT -> ACGT, AAC -> GTT)."""
    return _reverse_complement_lenient(normalize_bases(seq))


def _reverse_complement_lenient(seq: str) -> str:
    return seq.translate(_COMPLEMENT)[::-1]


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


def _base_codes(text: str) -> np.ndarray:
    """Base codes 0..4 of a normalized (ACGTN) string."""
    return _BASE_CODE[np.frombuffer(text.encode("ascii"), dtype=np.uint8)]


def _pack(rows: np.ndarray) -> np.ndarray:
    """2-bit codes of the rows of a (count, k) base-code array, k <= 32."""
    codes = np.zeros(rows.shape[0], dtype=np.uint64)
    for col in rows.T:
        codes = (codes << np.uint64(2)) | col
    return codes


@dataclass(frozen=True)
class _ProbeTable:
    """The probes of one length L (and their reverse complements), sorted by code.

    ``patterns`` holds the bases of each entry; the code of a pattern
    longer than 32 bases covers its last 32 bases only, so a code match
    is confirmed against ``patterns``.  ``seen`` marks the low
    ``_FILTER_BITS`` of every code, so most windows are dismissed by one
    table read before the binary search.
    """

    length: int
    codes: np.ndarray
    probes: np.ndarray
    patterns: np.ndarray
    seen: np.ndarray

    @classmethod
    def build(cls, length: int, probes: list[int], bases: list[str]) -> _ProbeTable:
        fwd = np.stack([_base_codes(bases[j]) for j in probes])
        patterns = np.concatenate([fwd, 3 - fwd[:, ::-1]])
        codes = _pack(patterns[:, max(0, length - _MAX_CODE_BASES) :])
        order = np.argsort(codes, kind="stable")
        seen = np.zeros(1 << _FILTER_BITS, dtype=bool)
        seen[codes & _FILTER_MASK] = True
        return cls(length, codes[order], np.array(probes + probes)[order], patterns[order], seen)

    def hits(self, keys: np.ndarray, block: np.ndarray, n_before: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(window start, probe) for every probe whose code equals a window's.

        ``keys[p]`` is the code of the window of this length that starts
        at ``block[p]``; ``n_before[p]`` counts the N's in ``block[:p]``.
        """
        start = np.flatnonzero(self.seen[keys & _FILTER_MASK])
        # a window holding an N (such as a clone separator) never matches
        start = start[n_before[start + self.length] == n_before[start]]
        keys = keys[start]
        lo = np.searchsorted(self.codes, keys)
        found = self.codes[np.minimum(lo, self.codes.size - 1)] == keys
        start, lo = start[found], lo[found]
        count = np.searchsorted(self.codes, keys[found], side="right") - lo
        # one row per (window, table entry) sharing its code
        entry = np.repeat(lo - np.cumsum(count) + count, count) + np.arange(count.sum())
        start = np.repeat(start, count)
        if self.length > _MAX_CODE_BASES:
            same = (block[start[:, None] + np.arange(self.length)] == self.patterns[entry]).all(axis=1)
            start, entry = start[same], entry[same]
        return start, self.probes[entry]


def _blocks(bases: list[str]) -> list[tuple[int, int]]:
    """[first, stop) clone ranges of about _BLOCK_BASES bases each, never empty."""
    blocks, first, size = [], 0, 0
    for i, seq in enumerate(bases):
        if size and size + len(seq) > _BLOCK_BASES:
            blocks.append((first, i))
            first, size = i, 0
        size += len(seq) + 1
    blocks.append((first, len(bases)))
    return blocks


def build_instance(
    clones: Sequence[SequenceRecord],
    probes: Sequence[SequenceRecord],
    ambiguity: AmbiguityPolicy = AmbiguityPolicy.REJECT,
) -> Instance:
    """Build the clone-probe adjacency matrix from sequence records.

    Entry (i, j) is 1 exactly when ``matches`` holds for clone i and
    probe j.  Clones are taken in blocks of about 2^15 bases joined by
    'N'; for each probe length L, every window of L bases that holds no
    'N' (so none spans two clones) is packed into a 2-bit code and looked
    up among the sorted codes of the probes of length L and their
    reverse complements.  A code keeps at most 32 bases, so for L > 32 a
    code match is confirmed by comparing the window's bases.
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
    probe_bases = [r.bases for r in norm_probes]
    by_length: dict[int, list[int]] = {}
    for j, seq in enumerate(probe_bases):
        # a probe containing 'N' never matches, so it gets no entry
        if "N" not in seq:
            by_length.setdefault(len(seq), []).append(j)
    tables = [_ProbeTable.build(length, js, probe_bases) for length, js in sorted(by_length.items())]
    clone_bases = [r.bases for r in norm_clones]
    for first, stop in _blocks(clone_bases):
        block = _base_codes("N".join(clone_bases[first:stop]))
        starts = np.cumsum([0] + [len(seq) + 1 for seq in clone_bases[first : stop - 1]])
        n_before = np.concatenate([[0], np.cumsum(block == _N_CODE)])
        codes = block.astype(np.uint64)
        k = 1
        for table in tables:
            count = block.size - table.length + 1
            if count <= 0:
                break
            key_bases = min(table.length, _MAX_CODE_BASES)
            while k < key_bases:
                # codes[p] packs block[p : p + k]; an N (code 4) garbles
                # only the codes of windows that hold it, and hits() rejects those
                codes = (codes[:-1] << np.uint64(2)) | block[k:]
                k += 1
            offset = table.length - key_bases
            start, probe = table.hits(codes[offset : offset + count], block, n_before)
            clone = np.searchsorted(starts, start, side="right") - 1
            matrix[first + clone, probe] = 1
    return Instance(
        matrix,
        clone_names=[r.name for r in norm_clones],
        probe_names=[r.name for r in norm_probes],
    )


def _plain_fasta(text: str) -> list[SequenceRecord] | None:
    """The records of ASCII FASTA whose lines end in a bare newline, split on the headers in one pass.

    None when a line would need the line-by-line reader: another line
    break, whitespace around a sequence line, data before the first
    header, an empty name or a record without a sequence.
    """
    if not text.isascii() or any(c in text for c in _OTHER_BREAKS):
        return None
    head, *parts = ("\n" + text).split("\n>")
    if head.strip() or not parts:
        return None
    records = []
    for part in parts:
        name, _, body = part.partition("\n")
        name, seq = name.strip(), body.replace("\n", "")
        if not name or not seq or any(c in seq for c in _BLANKS):
            return None
        records.append(SequenceRecord(name, seq))
    return records


def parse_fasta(text: str, label: str = "input") -> list[SequenceRecord]:
    """Parse FASTA text into records; sequences stay raw (not normalized)."""
    records = _plain_fasta(text)
    if records is None:
        records = _fasta_lines(text, label)
    counts = Counter(r.name for r in records)
    if len(counts) != len(records):
        dup = next(r.name for r in records if counts[r.name] > 1)
        raise InputError(f"{label}: duplicate record name {dup!r}")
    return records


def _fasta_lines(text: str, label: str) -> list[SequenceRecord]:
    """The records of any FASTA text, read line by line so that an error names its line."""
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
