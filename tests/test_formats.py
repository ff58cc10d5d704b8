"""On-disk text formats: matrices, name sidecars, result records."""

import json
import re

import numpy as np
import pytest

import golden
from balancedcover import InputError, Instance
from balancedcover.formats import (
    BENCH_COLUMNS,
    RESULT_SCHEMA_VERSION,
    dump_result,
    format_matrix,
    format_names,
    load_result,
    names_path_for,
    parse_matrix,
    parse_names,
    read_matrix,
    result_record,
    write_matrix,
)


def sample_record(**overrides):
    base = dict(
        algorithm="rcm",
        objective="cmin",
        m=8,
        n=7,
        s=6,
        seed=1,
        restarts=10,
        lp_value=2.0,
        best_value=2.0,
        best_value_exact_num=2,
        best_value_exact_den=1,
        selected_indices=[0, 1, 2],
        degrees=[1] * 7,
        epsilon_or_lambda=None,
        violations_repaired=[0, 1],
        wall_time_ms=1.25,
    )
    base.update(overrides)
    return result_record(**base)


class TestMatrixFormat:
    def test_round_trip(self, golden_instance):
        text = format_matrix(golden_instance)
        parsed = parse_matrix(text)
        assert np.array_equal(parsed, golden_instance.adjacency)

    def test_header_line(self, golden_instance):
        lines = format_matrix(golden_instance).splitlines()
        assert lines[0] == "8 7"
        assert lines[1] == "1 0 0 1 0 1 0"

    def test_comments_written_and_skipped(self, golden_instance):
        text = format_matrix(golden_instance, comments=("generator: random", "note"))
        assert text.startswith("# generator: random\n# note\n8 7\n")
        assert np.array_equal(parse_matrix(text), golden_instance.adjacency)

    def test_blank_lines_tolerated(self):
        assert parse_matrix("\n2 2\n\n1 0\n# mid comment\n0 1\n\n").tolist() == [[1, 0], [0, 1]]

    def test_wrong_row_count(self):
        with pytest.raises(InputError):
            parse_matrix("2 2\n1 0\n")

    def test_wrong_column_count(self):
        with pytest.raises(InputError):
            parse_matrix("2 2\n1 0 1\n0 1\n")

    def test_non_binary_entry(self):
        with pytest.raises(InputError):
            parse_matrix("1 2\n1 2\n")

    @pytest.mark.parametrize("token", ["01", "+1"])
    def test_integer_spellings_of_one_accepted(self, token):
        assert parse_matrix(f"2 2\n1 0\n0 {token}\n").tolist() == [[1, 0], [0, 1]]

    @pytest.mark.parametrize(
        "token,message", [("2", "line 3: entries must be 0 or 1"), ("x", "line 3: entries must be integers")]
    )
    def test_bad_token_names_its_line(self, token, message):
        with pytest.raises(InputError, match=message):
            parse_matrix(f"2 2\n1 0\n0 {token}\n")

    def test_garbage_header(self):
        with pytest.raises(InputError):
            parse_matrix("two seven\n")
        with pytest.raises(InputError):
            parse_matrix("")

    def test_trailing_junk(self):
        with pytest.raises(InputError):
            parse_matrix("1 1\n1\n0\n")


class TestNamesFormat:
    def test_round_trip(self, golden_instance):
        text = format_names(golden_instance)
        clones, probes = parse_names(text, 8, 7)
        assert clones == golden_instance.clone_names
        assert probes == golden_instance.probe_names

    def test_blank_line_separates_blocks(self, golden_instance):
        blocks = format_names(golden_instance).split("\n\n")
        assert len(blocks) == 2
        assert blocks[0].splitlines() == list(golden_instance.clone_names)

    def test_wrong_counts(self):
        with pytest.raises(InputError):
            parse_names("a\nb\n\np1\n", 3, 1)
        with pytest.raises(InputError):
            parse_names("a\nb\n\np1\n", 2, 2)

    def test_missing_separator(self):
        with pytest.raises(InputError):
            parse_names("a\nb\np1\n", 2, 1)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a\na\n\np\nq\n", "names: line 2: duplicate clone name 'a'"),
            ("a\n  \n\np\nq\n", "names: line 2: empty clone name"),
            ("\t\na\n\np\nq\n", "names: line 1: empty clone name"),
            ("a\nb\n\np\nq\np\n", "names: line 6: duplicate probe name 'p'"),
            # blank lines among the probes are skipped but still counted
            ("a\nb\n\nq\n\n\n q \nr\n", "names: line 7: duplicate probe name 'q'"),
        ],
        ids=["duplicate_clone", "spaces_clone", "tab_clone", "duplicate_probe", "duplicate_probe_after_blanks"],
    )
    def test_bad_name_names_its_line(self, text, message):
        clones, probes = text.split("\n\n", 1)
        m, n = len(clones.split("\n")), len([ln for ln in probes.splitlines() if ln.strip()])
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            parse_names(text, m, n)


class TestMatrixFiles:
    def test_write_read_with_names(self, tmp_path, golden_instance):
        path = tmp_path / "example.matrix"
        write_matrix(path, golden_instance, comments=("demo",))
        assert (tmp_path / "example.matrix.names").exists()
        loaded = read_matrix(path)
        assert np.array_equal(loaded.adjacency, golden_instance.adjacency)
        assert loaded.clone_names == golden_instance.clone_names
        assert loaded.probe_names == golden_instance.probe_names

    def test_read_without_names_uses_defaults(self, tmp_path):
        inst = Instance(np.eye(2, dtype=np.int8), clone_names=["left", "right"])
        path = tmp_path / "bare.matrix"
        path.write_text(format_matrix(inst))
        assert not (tmp_path / "bare.matrix.names").exists()
        loaded = read_matrix(path)
        assert loaded.clone_names == ("c1", "c2")

    def test_names_path_convention(self):
        assert str(names_path_for("/tmp/x.matrix")) == "/tmp/x.matrix.names"

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            read_matrix(tmp_path / "absent.matrix")

    @pytest.mark.parametrize(
        "names, message",
        [("a\na\n\np\nq\n", "line 2: duplicate clone name 'a'"), ("a\n \n\np\nq\n", "line 2: empty clone name")],
        ids=["duplicate", "empty"],
    )
    def test_bad_sidecar_names_its_path_and_line(self, tmp_path, names, message):
        path = tmp_path / "g.matrix"
        path.write_text("2 2\n1 0\n0 1\n")
        names_path_for(path).write_text(names)
        with pytest.raises(InputError, match=f"^{re.escape(f'{names_path_for(path)}: {message}')}$"):
            read_matrix(path)


class TestResultRecords:
    def test_key_order_is_stable(self):
        assert list(sample_record().keys()) == [
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
        ]

    def test_schema_version_pinned(self):
        assert sample_record()["schemaVersion"] == RESULT_SCHEMA_VERSION == 1

    def test_dump_load_round_trip(self):
        record = sample_record(epsilon_or_lambda=0.25)
        text = dump_result(record)
        assert load_result(text) == record
        # and the serialization is plain JSON
        assert json.loads(text)["bestValue"] == 2.0

    def test_load_rejects_wrong_schema(self):
        record = dict(sample_record())
        record["schemaVersion"] = 99
        with pytest.raises(InputError):
            load_result(json.dumps(record))

    @pytest.mark.parametrize("key", list(sample_record()))
    def test_load_rejects_missing_key(self, key):
        record = dict(sample_record())
        del record[key]
        with pytest.raises(InputError, match=f"missing keys: {key}$"):
            load_result(json.dumps(record))

    def test_load_rejects_non_object(self):
        with pytest.raises(InputError):
            load_result("[1, 2]")
        with pytest.raises(InputError):
            load_result("not json")


class TestBenchColumns:
    def test_column_contract(self):
        assert BENCH_COLUMNS == (
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
