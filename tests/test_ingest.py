"""Sequence parsing, reverse-complement matching, and matrix building."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from balancedcover import (
    AmbiguityPolicy,
    InputError,
    SequenceRecord,
    build_instance,
    matches,
    parse_fasta,
    parse_sequences,
    reverse_complement,
)
from balancedcover import ingest
from balancedcover.ingest import _matches_normalized, _reverse_complement_lenient, normalize_bases

dna = st.text(alphabet="ACGT", min_size=1, max_size=40)


class TestNormalize:
    def test_uppercases(self):
        assert normalize_bases("acgt") == "ACGT"

    def test_reject_position_is_one_based(self):
        with pytest.raises(InputError, match="position 3"):
            normalize_bases("ACNGT", policy=AmbiguityPolicy.REJECT, label="clone c9")

    def test_reject_names_offending_sequence(self):
        with pytest.raises(InputError, match="clone c9"):
            normalize_bases("ACNGT", policy=AmbiguityPolicy.REJECT, label="clone c9")

    def test_whitespace_is_not_a_base(self):
        with pytest.raises(InputError, match="position 5"):
            normalize_bases("ACGT GT")

    def test_never_match_replaces_with_n(self):
        assert normalize_bases("ACXGT", policy=AmbiguityPolicy.NEVER_MATCH) == "ACNGT"

    @staticmethod
    def regex_reference(raw, policy, label):
        """normalize_bases as one [^ACGT] regex over every record."""
        bases = raw.upper()
        if policy is AmbiguityPolicy.NEVER_MATCH:
            return re.sub("[^ACGT]", "N", bases)
        bad = re.search("[^ACGT]", bases)
        if bad:
            raise InputError(f"{label}: invalid base {bad.group()!r} at position {bad.start() + 1}")
        return bases

    # "ß" upper-cases to the two characters "SS", so positions count the upper-cased text
    @settings(max_examples=300, deadline=None)
    @given(
        raw=st.one_of(st.text(alphabet="ACGTacgt", max_size=30), st.text(alphabet="ACGTacgtNX \t\néß", max_size=30)),
        policy=st.sampled_from(AmbiguityPolicy),
    )
    def test_agrees_with_the_regex_reference(self, raw, policy):
        try:
            expect = self.regex_reference(raw, policy, "clone c1")
        except InputError as err:
            with pytest.raises(InputError) as got:
                normalize_bases(raw, policy, "clone c1")
            assert str(got.value) == str(err)
        else:
            assert normalize_bases(raw, policy, "clone c1") == expect


class TestReverseComplement:
    @pytest.mark.parametrize(
        "seq,expect",
        [("A", "T"), ("ACGT", "ACGT"), ("GCCTA", "TAGGC"), ("AAAC", "GTTT")],
    )
    def test_examples(self, seq, expect):
        assert reverse_complement(seq) == expect

    @settings(max_examples=200, deadline=None)
    @given(seq=dna)
    def test_involution(self, seq):
        assert reverse_complement(reverse_complement(seq)) == seq

    def test_rejects_ambiguous(self):
        with pytest.raises(InputError):
            reverse_complement("ACN")


class TestMatches:
    def test_direct_substring(self):
        clones = dict(golden.CLONE_SEQUENCES)
        assert matches(clones["c1"], "CTGGC")

    def test_reverse_complement_match(self):
        # c2 contains GCCAG (= reverse complement of CTGGC) but not
        # CTGGC itself; the edge still exists.
        c2 = dict(golden.CLONE_SEQUENCES)["c2"]
        assert "CTGGC" not in c2
        assert "GCCAG" in c2
        assert matches(c2, "CTGGC")

    def test_reverse_complement_match_second_example(self):
        c6 = dict(golden.CLONE_SEQUENCES)["c6"]
        assert "GCCTA" not in c6
        assert "TAGGC" in c6
        assert matches(c6, "GCCTA")

    def test_no_match(self):
        c4 = dict(golden.CLONE_SEQUENCES)["c4"]
        assert not matches(c4, "CTGGC")
        assert not matches("AAAA", "CG")

    def test_probe_longer_than_clone(self):
        assert not matches("AC", "ACGT")

    def test_invalid_alphabet_rejected(self):
        with pytest.raises(InputError):
            matches("ANA", "AA")
        with pytest.raises(InputError):
            matches("AAA", "N")

    def test_normalized_n_semantics(self):
        # Under NEVER_MATCH, 'N' in a clone blocks only the windows that
        # cross it, and a probe containing 'N' matches nothing.
        assert not _matches_normalized("ANA", "AA")
        assert _matches_normalized("ANAA", "AA")
        assert not _matches_normalized("ANA", "N")
        assert not _matches_normalized("NNNN", "N")

    @settings(max_examples=200, deadline=None)
    @given(clone=dna, probe=st.text(alphabet="ACGT", min_size=1, max_size=6))
    def test_matches_definition(self, clone, probe):
        expect = probe in clone or reverse_complement(probe) in clone
        assert matches(clone, probe) == expect


def per_pair_reference(clones, probes, policy=AmbiguityPolicy.REJECT):
    """The adjacency matrix from the per-pair predicate, one pair at a time.

    Under REJECT this is the public ``matches``; ``matches`` refuses 'N',
    so under NEVER_MATCH the predicate it wraps runs on the normalized bases.
    """
    if policy is AmbiguityPolicy.REJECT:
        return np.array([[matches(c.bases, p.bases) for p in probes] for c in clones], dtype=np.int8)
    norm_clones = [normalize_bases(c.bases, policy) for c in clones]
    norm_probes = [normalize_bases(p.bases, policy) for p in probes]
    return np.array([[_matches_normalized(c, p) for p in norm_probes] for c in norm_clones], dtype=np.int8)


def _random_bases(rng, size, alphabet="ACGT"):
    return "".join(rng.choice(list(alphabet), size=size))


def _mixed_probes(rng, clones, count):
    """Probes of 1-70 bases: clone substrings in either orientation, decoys
    that share only the last 32 bases of a clone window, duplicates,
    reverse-complement palindromes, probes longer than every clone, and
    random probes, some with an ambiguous base."""
    probes = []
    longest = max(len(c) for c in clones)
    for _ in range(count):
        clone = normalize_bases(clones[rng.integers(len(clones))], AmbiguityPolicy.NEVER_MATCH)
        length = int(rng.integers(1, 71))
        at = int(rng.integers(0, max(1, len(clone) - length)))
        kind = rng.integers(0, 8)
        if kind == 0:
            probe = clone[at : at + length]
        elif kind == 1:
            probe = _reverse_complement_lenient(clone[at : at + length])
        elif kind == 2 and len(clone) > 33:
            # differs from a clone window only in its first base
            window = clone[at : at + max(length, 33)]
            probe = "ACGT"[("ACGTN".index(window[0]) + 1) % 4] + window[1:]
        elif kind == 3 and probes:
            probe = probes[rng.integers(len(probes))]
        elif kind == 4:
            half = _random_bases(rng, max(1, length // 2))
            probe = half + _reverse_complement_lenient(half)
        elif kind == 5:
            probe = _random_bases(rng, longest + 1)
        elif kind == 6:
            probe = _random_bases(rng, length, "ACGTN")
        else:
            probe = _random_bases(rng, length)
        probe = probe or "A"
        probes.append(probe.lower() if rng.random() < 0.2 else probe)
    return probes


class TestBuildInstance:
    def test_golden_matrix_reproduced(self, golden_clones, golden_probes):
        inst = build_instance(golden_clones, golden_probes)
        assert np.array_equal(inst.adjacency, golden.MATRIX)
        assert inst.clone_names == tuple(name for name, _ in golden.CLONE_SEQUENCES)
        assert inst.probe_names == tuple(name for name, _ in golden.PROBE_SEQUENCES)
        assert int(inst.adjacency.sum()) == golden.EDGE_COUNT

    def test_matcher_equivalence_on_golden(self, golden_clones, golden_probes):
        inst = build_instance(golden_clones, golden_probes)
        assert np.array_equal(inst.adjacency, per_pair_reference(golden_clones, golden_probes))

    def test_matcher_equivalence_random(self):
        rng = np.random.default_rng(97)
        bases = np.array(list("ACGT"))
        for _ in range(25):
            clones = [
                SequenceRecord(f"c{i + 1}", "".join(rng.choice(bases, size=rng.integers(5, 40))))
                for i in range(rng.integers(1, 8))
            ]
            probes = [
                SequenceRecord(f"p{j + 1}", "".join(rng.choice(bases, size=rng.integers(1, 5))))
                for j in range(rng.integers(1, 8))
            ]
            inst = build_instance(clones, probes)
            assert np.array_equal(inst.adjacency, per_pair_reference(clones, probes))

    def test_reject_policy_raises(self, golden_probes):
        clones = [SequenceRecord("c1", "ACNGT")]
        with pytest.raises(InputError, match="position 3"):
            build_instance(clones, golden_probes)

    def test_never_match_policy(self):
        clones = [SequenceRecord("c1", "AXAA")]
        probes = [SequenceRecord("p1", "AA"), SequenceRecord("p2", "XA")]
        inst = build_instance(clones, probes, ambiguity=AmbiguityPolicy.NEVER_MATCH)
        # The X blocks its windows in the clone; a probe containing X
        # matches nothing at all.
        assert inst.adjacency.tolist() == [[1, 0]]

    def test_never_match_policy_automaton_agrees(self):
        # matches() rejects 'N', so the reference runs on the normalized
        # bases through the predicate it wraps
        clones = [SequenceRecord("c1", "AXAA"), SequenceRecord("c2", "TTNTT")]
        probes = [SequenceRecord("p1", "AA"), SequenceRecord("p2", "XA"), SequenceRecord("p3", "TT")]
        policy = AmbiguityPolicy.NEVER_MATCH
        inst = build_instance(clones, probes, ambiguity=policy)
        norm_clones = [normalize_bases(c.bases, policy) for c in clones]
        norm_probes = [normalize_bases(p.bases, policy) for p in probes]
        expect = [[int(_matches_normalized(c, p)) for p in norm_probes] for c in norm_clones]
        assert inst.adjacency.tolist() == expect == [[1, 0, 1], [1, 0, 1]]

    def test_duplicate_clone_names_rejected(self, golden_probes):
        clones = [SequenceRecord("c1", "ACGT"), SequenceRecord("c1", "TTTT")]
        with pytest.raises(InputError):
            build_instance(clones, golden_probes)

    def test_empty_lists_rejected(self, golden_clones, golden_probes):
        with pytest.raises(InputError):
            build_instance([], golden_probes)
        with pytest.raises(InputError):
            build_instance(golden_clones, [])


class TestBuildInstanceDifferential:
    """build_instance against the per-pair predicate on inputs that reach
    every part of the block-wise code lookup."""

    @pytest.mark.parametrize("policy", list(AmbiguityPolicy))
    def test_agrees_with_per_pair_reference(self, policy):
        rng = np.random.default_rng(2024)
        alphabet = "ACGTacgt" if policy is AmbiguityPolicy.REJECT else "ACGTacgtNX"
        for _ in range(30):
            clones = [_random_bases(rng, rng.integers(1, 300), alphabet) for _ in range(rng.integers(1, 12))]
            probes = _mixed_probes(rng, clones, rng.integers(1, 16))
            if policy is AmbiguityPolicy.REJECT:
                probes = [p.replace("N", "A").replace("n", "a") for p in probes]
            self._check(clones, probes, policy)

    def test_clones_spanning_several_blocks(self):
        # about 3 blocks; the 40k clone is longer than a block, so it
        # fills one block on its own
        rng = np.random.default_rng(7)
        clones = [_random_bases(rng, rng.integers(500, 4000), "ACGTN") for _ in range(30)]
        clones.insert(12, _random_bases(rng, ingest._BLOCK_BASES + 7000, "ACGTN"))
        probes = _mixed_probes(rng, clones, 60)
        blocks = ingest._blocks(clones)
        assert len(blocks) >= 3
        assert (12, 13) in blocks
        self._check(clones, probes, AmbiguityPolicy.NEVER_MATCH)

    def test_many_block_boundaries(self, monkeypatch):
        monkeypatch.setattr(ingest, "_BLOCK_BASES", 50)
        rng = np.random.default_rng(11)
        for _ in range(10):
            clones = [_random_bases(rng, rng.integers(1, 80), "ACGTN") for _ in range(rng.integers(1, 20))]
            self._check(clones, _mixed_probes(rng, clones, 20), AmbiguityPolicy.NEVER_MATCH)

    def test_duplicates_and_palindromes(self):
        clones = [SequenceRecord("c1", "TTACGTAA"), SequenceRecord("c2", "GGGG")]
        probes = [SequenceRecord(f"p{j}", seq) for j, seq in enumerate(["ACGT", "acgt", "CCCC", "GGGG", "ACGTA"])]
        inst = build_instance(clones, probes)
        assert inst.adjacency.tolist() == [[1, 1, 0, 0, 1], [0, 0, 1, 1, 0]]

    @staticmethod
    def _check(clones, probes, policy):
        clones = [SequenceRecord(f"c{i}", seq) for i, seq in enumerate(clones)]
        probes = [SequenceRecord(f"p{j}", seq) for j, seq in enumerate(probes)]
        inst = build_instance(clones, probes, ambiguity=policy)
        assert np.array_equal(inst.adjacency, per_pair_reference(clones, probes, policy))


class TestParsers:
    def test_fasta_multiline_records(self):
        text = ">c1\nACGT\nACGT\n\n>c2\nTT\n"
        records = parse_fasta(text)
        assert records == [SequenceRecord("c1", "ACGTACGT"), SequenceRecord("c2", "TT")]

    @pytest.mark.parametrize(
        "layout", ["wrapped", "unwrapped", "crlf", "blank_lines", "padded_lines", "indented_header", "tab_in_name"]
    )
    def test_fasta_every_layout_reads_the_same_records(self, layout):
        # plain FASTA splits on its headers in one pass, any other layout goes line by line
        records = [SequenceRecord("c1", "ACGTACGTAC"), SequenceRecord("c 2", "TTGA"), SequenceRecord("c3", "GA" * 65)]
        def fasta(wrap=60, header=">{}", line="{}", sep="\n"):
            lines = []
            for r in records:
                lines.append(header.format(r.name))
                lines += [line.format(r.bases[k : k + wrap]) for k in range(0, len(r.bases), wrap)]
            return sep.join(lines) + sep
        text = {
            "wrapped": fasta(),
            "unwrapped": fasta(wrap=1000),
            "crlf": fasta(sep="\r\n"),
            "blank_lines": "\n\n" + fasta().replace("\n>", "\n\n>"),
            "padded_lines": fasta(line="{}  "),
            "indented_header": fasta(header="  > {} "),
            "tab_in_name": fasta(header=">{}\t"),
        }[layout]
        assert parse_fasta(text) == records

    def test_fasta_missing_header(self):
        with pytest.raises(InputError):
            parse_fasta("ACGT\n")

    def test_fasta_empty_record(self):
        with pytest.raises(InputError):
            parse_fasta(">c1\n>c2\nACGT\n")

    def test_fasta_duplicate_names(self):
        with pytest.raises(InputError):
            parse_fasta(">c1\nAC\n>c1\nGT\n")

    def test_fasta_duplicate_reported_first_in_input_order(self):
        with pytest.raises(InputError, match="duplicate record name 'a'"):
            parse_fasta(">a\nAC\n>b\nGT\n>b\nGT\n>a\nAC\n")

    def test_plain_lines_autonamed(self):
        records = parse_sequences("ACGT\n\nTTAA\n", "p")
        assert records == [SequenceRecord("p1", "ACGT"), SequenceRecord("p2", "TTAA")]

    def test_plain_lines_stripped(self):
        records = parse_sequences("  ACGT  \n", "p")
        assert records == [SequenceRecord("p1", "ACGT")]

    def test_fasta_detected_automatically(self):
        records = parse_sequences(">x\nACGT\n", "p")
        assert records == [SequenceRecord("x", "ACGT")]

    def test_empty_input(self):
        with pytest.raises(InputError):
            parse_sequences("\n\n", "p")
