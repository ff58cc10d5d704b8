"""Domain types, degree computation, and objective evaluation."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from balancedcover import (
    CoverSolution,
    InputError,
    Instance,
    ObjectiveKind,
    complement_identity_check,
    compute_degrees,
    evaluate,
)
from balancedcover.core import objective_denominator
from conftest import random_instance


def reference_evaluate(adjacency, selected, s):
    """Straight-from-the-definitions evaluator, no numpy, no sharing."""
    m = len(adjacency)
    n = len(adjacency[0])
    degrees = [sum(adjacency[i][j] for i in selected) for j in range(n)]
    margins = [min(d, s - d) for d in degrees]
    deviations = [abs(2 * d - s) for d in degrees]
    return {
        "degrees": tuple(degrees),
        "cmin": min(margins),
        "cavg_num": sum(margins),
        "dmax_x2": max(deviations),
        "davg_num_x2": sum(deviations),
    }


class TestComputeDegrees:
    def test_worked_example_d1(self, golden_instance):
        assert tuple(compute_degrees(golden_instance, golden.D1)) == golden.D1_DEGREES

    def test_worked_example_d2(self, golden_instance):
        assert tuple(compute_degrees(golden_instance, golden.D2)) == golden.D2_DEGREES

    def test_empty_selection(self, golden_instance):
        assert tuple(compute_degrees(golden_instance, [])) == (0,) * 7

    def test_full_selection_is_column_sums(self, golden_instance):
        expect = tuple(int(v) for v in golden.MATRIX.sum(axis=0))
        assert tuple(compute_degrees(golden_instance, range(8))) == expect

    def test_index_out_of_range(self, golden_instance):
        with pytest.raises(InputError):
            compute_degrees(golden_instance, [0, 8])
        with pytest.raises(InputError):
            compute_degrees(golden_instance, [-1])

    def test_duplicate_index_rejected(self, golden_instance):
        with pytest.raises(InputError):
            compute_degrees(golden_instance, [0, 0])


class TestEvaluate:
    def test_worked_example_d2(self, golden_instance):
        sol = evaluate(golden_instance, golden.D2, golden.S)
        assert sol.degrees == golden.D2_DEGREES
        assert sol.cmin == golden.D2_OBJECTIVES["cmin"]
        assert sol.cavg_num == golden.D2_OBJECTIVES["cavg_num"]
        assert sol.dmax_x2 == golden.D2_OBJECTIVES["dmax_x2"]
        assert sol.davg_num_x2 == golden.D2_OBJECTIVES["davg_num_x2"]
        assert sol.exact_value(ObjectiveKind.DAVG) == Fraction(3, 7)
        assert sol.dmax == 1.0

    def test_worked_example_d1(self, golden_instance):
        sol = evaluate(golden_instance, golden.D1, golden.S)
        assert sol.degrees == golden.D1_DEGREES
        assert sol.cmin == 0
        assert sol.dmax_x2 == 6

    def test_selected_normalized_sorted_tuple(self, golden_instance):
        sol = evaluate(golden_instance, (7, 1, 4, 3, 6, 5), golden.S)
        assert sol.selected == golden.D2

    def test_smaller_than_budget_allowed(self, golden_instance):
        sol = evaluate(golden_instance, [0], golden.S)
        assert sol.selected == (0,)
        assert sol.budget == golden.S

    def test_size_exceeds_budget(self, golden_instance):
        with pytest.raises(InputError):
            evaluate(golden_instance, golden.D1, 5)

    def test_budget_bounds(self, golden_instance):
        with pytest.raises(InputError):
            evaluate(golden_instance, [], 0)
        with pytest.raises(InputError):
            evaluate(golden_instance, [], 9)

    def test_matches_reference_evaluator(self):
        rng = np.random.default_rng(314159)
        listing = golden.MATRIX.tolist()
        for _ in range(1000):
            inst = random_instance(rng)
            rows = inst.adjacency.tolist()
            s = int(rng.integers(1, inst.num_clones + 1))
            size = int(rng.integers(0, s + 1))
            selected = sorted(rng.choice(inst.num_clones, size=size, replace=False).tolist())
            sol = evaluate(inst, selected, s)
            ref = reference_evaluate(rows, selected, s)
            assert sol.degrees == ref["degrees"]
            assert sol.cmin == ref["cmin"]
            assert sol.cavg_num == ref["cavg_num"]
            assert sol.dmax_x2 == ref["dmax_x2"]
            assert sol.davg_num_x2 == ref["davg_num_x2"]
        # Sanity: the hand example agrees with the reference too.
        ref = reference_evaluate(listing, golden.D2, golden.S)
        assert ref["cmin"] == golden.D2_OBJECTIVES["cmin"]

    def test_value_and_exact_value_agree(self, golden_instance):
        sol = evaluate(golden_instance, golden.D2, golden.S)
        for kind in ObjectiveKind:
            exact = sol.exact_value(kind)
            assert sol.value(kind) == pytest.approx(float(exact), abs=0)

    def test_objective_denominators(self):
        assert objective_denominator(ObjectiveKind.CMIN, 7) == 1
        assert objective_denominator(ObjectiveKind.CAVG, 7) == 7
        assert objective_denominator(ObjectiveKind.DMAX, 7) == 2
        assert objective_denominator(ObjectiveKind.DAVG, 7) == 14


class TestIdentities:
    def test_worked_examples(self, golden_instance):
        for subset in (golden.D1, golden.D2):
            assert complement_identity_check(evaluate(golden_instance, subset, golden.S))

    def test_empty_selection(self, golden_instance):
        assert complement_identity_check(evaluate(golden_instance, [], 4))

    def test_random_triples(self):
        rng = np.random.default_rng(2718281828)
        for _ in range(1000):
            inst = random_instance(rng)
            s = int(rng.integers(1, inst.num_clones + 1))
            size = int(rng.integers(0, s + 1))
            selected = rng.choice(inst.num_clones, size=size, replace=False)
            sol = evaluate(inst, selected.tolist(), s)
            assert 2 * sol.cmin + sol.dmax_x2 == s
            assert 2 * sol.cavg_num + sol.davg_num_x2 == s * inst.num_probes
            assert complement_identity_check(sol)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_identities_property(self, data):
        m = data.draw(st.integers(1, 10), label="m")
        n = data.draw(st.integers(1, 6), label="n")
        bits = data.draw(
            st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=m, max_size=m),
            label="adjacency",
        )
        s = data.draw(st.integers(1, m), label="s")
        size = data.draw(st.integers(0, s), label="size")
        selected = data.draw(
            st.lists(st.integers(0, m - 1), min_size=size, max_size=size, unique=True),
            label="selected",
        )
        sol = evaluate(Instance(np.array(bits, dtype=np.int8)), selected, s)
        assert 2 * sol.cmin + sol.dmax_x2 == s
        assert 2 * sol.cavg_num + sol.davg_num_x2 == s * n


class TestObjectiveKind:
    def test_direction(self):
        assert ObjectiveKind.CMIN.maximize
        assert ObjectiveKind.CAVG.maximize
        assert not ObjectiveKind.DMAX.maximize
        assert not ObjectiveKind.DAVG.maximize

    def test_values_are_stable_strings(self):
        assert [k.value for k in ObjectiveKind] == ["cmin", "cavg", "dmax", "davg"]


class TestInstanceValidation:
    def test_default_names(self, golden_instance):
        assert golden_instance.clone_names == ("c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8")
        assert golden_instance.probe_names == ("p1", "p2", "p3", "p4", "p5", "p6", "p7")

    def test_shape_properties(self, golden_instance):
        assert golden_instance.num_clones == 8
        assert golden_instance.num_probes == 7

    def test_adjacency_read_only(self, golden_instance):
        with pytest.raises(ValueError):
            golden_instance.adjacency[0, 0] = 0

    def test_adjacency_copy_insulates_caller(self):
        source = np.eye(3, dtype=np.int8)
        inst = Instance(source)
        source[0, 0] = 0
        assert inst.adjacency[0, 0] == 1

    def test_non_binary_entries(self):
        with pytest.raises(InputError):
            Instance(np.array([[0, 2]], dtype=np.int8))

    def test_wrong_rank(self):
        with pytest.raises(InputError):
            Instance(np.zeros(4, dtype=np.int8))

    def test_empty_dimensions(self):
        with pytest.raises(InputError):
            Instance(np.zeros((0, 3), dtype=np.int8))
        with pytest.raises(InputError):
            Instance(np.zeros((3, 0), dtype=np.int8))

    def test_name_length_mismatch(self):
        with pytest.raises(InputError):
            Instance(np.eye(2, dtype=np.int8), clone_names=["a"])

    def test_duplicate_names(self):
        with pytest.raises(InputError):
            Instance(np.eye(2, dtype=np.int8), clone_names=["a", "a"])

    def test_duplicate_reported_first_in_input_order(self):
        with pytest.raises(InputError, match="duplicate clone name 'a'"):
            Instance(np.zeros((4, 1), dtype=np.int8), clone_names=["a", "b", "b", "a"])

    def test_empty_name(self):
        with pytest.raises(InputError):
            Instance(np.eye(2, dtype=np.int8), probe_names=["p1", ""])

    def test_solution_frozen(self, golden_instance):
        sol = evaluate(golden_instance, golden.D2, golden.S)
        with pytest.raises(AttributeError):
            sol.cmin = 5
        assert isinstance(sol, CoverSolution)
