"""Exhaustive oracles and the Monte-Carlo excess estimator."""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import golden
from balancedcover import (
    BudgetExceededError,
    InputError,
    Instance,
    ObjectiveKind,
    estimate_excess_expectation,
    evaluate,
    exact_all_objectives,
    exact_optimum,
    gen_random,
    perfect_balance_exists,
    size_s_cover_exists,
    x3c_instance,
)
from balancedcover import oracle
from conftest import random_instance


def brute_force_exact(instance, s, kind):
    """Reference enumeration, independent of the oracle's chunked path."""
    best_value = None
    best_witness = None
    for subset in combinations(range(instance.num_clones), s):
        value = evaluate(instance, subset, s).exact_value(kind)
        better = best_value is None or (value > best_value if kind.maximize else value < best_value)
        if better:
            best_value, best_witness = value, subset
    return best_value, best_witness


class TestExactOptimum:
    def test_golden_all_objectives(self, golden_instance):
        results = exact_all_objectives(golden_instance, golden.S)
        assert results[ObjectiveKind.CMIN].optimum == golden.CMIN_OPT
        assert results[ObjectiveKind.CAVG].optimum == Fraction(golden.CAVG_NUM_OPT, 7)
        assert results[ObjectiveKind.DMAX].optimum == Fraction(golden.DMAX_X2_OPT, 2)
        assert results[ObjectiveKind.DAVG].optimum == Fraction(golden.DAVG_NUM_X2_OPT, 14)
        for res in results.values():
            assert res.enumerated == math.comb(8, 6)
            assert res.s == golden.S

    def test_golden_d2_achieves_cmin_optimum(self, golden_instance):
        # The well-balanced hand example is optimal for cmin.
        res = exact_optimum(golden_instance, golden.S, ObjectiveKind.CMIN)
        d2 = evaluate(golden_instance, golden.D2, golden.S)
        assert Fraction(d2.cmin) == res.optimum == 2

    def test_witness_evaluates_to_optimum(self, golden_instance):
        for kind in ObjectiveKind:
            res = exact_optimum(golden_instance, golden.S, kind)
            witness_value = evaluate(golden_instance, res.witness, golden.S).exact_value(kind)
            assert witness_value == res.optimum

    def test_witness_is_lexicographically_smallest(self):
        rng = np.random.default_rng(8128)
        for _ in range(40):
            inst = random_instance(rng, max_m=9, max_n=5)
            s = int(rng.integers(1, inst.num_clones + 1))
            for kind in ObjectiveKind:
                res = exact_optimum(inst, s, kind, include_at_most=False)
                # combinations() yields subsets in lexicographic order,
                # so the first one attaining the optimum is the
                # lex-smallest witness.
                expect = next(
                    subset
                    for subset in combinations(range(inst.num_clones), s)
                    if evaluate(inst, subset, s).exact_value(kind) == res.optimum
                )
                assert res.witness == expect

    def test_matches_reference_enumeration(self):
        rng = np.random.default_rng(65537)
        for _ in range(60):
            inst = random_instance(rng, max_m=10, max_n=6)
            s = int(rng.integers(1, inst.num_clones + 1))
            for kind in ObjectiveKind:
                res = exact_optimum(inst, s, kind, include_at_most=False)
                value, _ = brute_force_exact(inst, s, kind)
                assert res.optimum == value

    def test_optima_satisfy_identities(self):
        rng = np.random.default_rng(424242)
        for _ in range(40):
            inst = random_instance(rng, max_m=10, max_n=6)
            s = int(rng.integers(1, inst.num_clones + 1))
            results = exact_all_objectives(inst, s)
            n = inst.num_probes
            cmin = results[ObjectiveKind.CMIN].optimum
            dmax = results[ObjectiveKind.DMAX].optimum
            cavg = results[ObjectiveKind.CAVG].optimum
            davg = results[ObjectiveKind.DAVG].optimum
            assert 2 * cmin + 2 * dmax == s
            assert 2 * cavg + 2 * davg == s

    def test_s_equals_m_single_subset(self, golden_instance):
        res = exact_optimum(golden_instance, 8, ObjectiveKind.CMIN, include_at_most=False)
        assert res.enumerated == 1
        assert res.witness == tuple(range(8))
        full = evaluate(golden_instance, range(8), 8)
        assert res.optimum == full.cmin

    def test_row_order_invariance(self, golden_instance):
        reversed_inst = Instance(golden_instance.adjacency[::-1].copy())
        for kind in ObjectiveKind:
            a = exact_optimum(golden_instance, 6, kind, include_at_most=False)
            b = exact_optimum(reversed_inst, 6, kind, include_at_most=False)
            assert a.optimum == b.optimum

    def test_at_most_convention_can_beat_exact_size(self):
        # Single all-ones probe: any size-2 selection has degree 2 = s,
        # margin 0, while selecting just one clone leaves margin 1.
        inst = Instance(np.ones((3, 1), dtype=np.int8))
        res = exact_optimum(inst, 2, ObjectiveKind.CMIN)
        assert res.optimum == 0
        assert res.optimum_at_most == 1
        assert len(res.witness_at_most) == 1
        assert res.enumerated_at_most == 1 + 3 + 3

    def test_at_most_skipped_for_deviation_objectives(self, golden_instance):
        res = exact_optimum(golden_instance, 6, ObjectiveKind.DMAX)
        assert res.optimum_num_at_most is None
        assert res.witness_at_most is None

    def test_at_most_witness_never_worse(self):
        rng = np.random.default_rng(1000003)
        for _ in range(25):
            inst = random_instance(rng, max_m=9, max_n=5)
            s = int(rng.integers(1, inst.num_clones + 1))
            for kind in (ObjectiveKind.CMIN, ObjectiveKind.CAVG):
                res = exact_optimum(inst, s, kind)
                assert res.optimum_at_most >= res.optimum
                witness_value = evaluate(inst, res.witness_at_most, s).exact_value(kind)
                assert witness_value == res.optimum_at_most

    def test_budget_refusal_carries_count(self, golden_instance):
        with pytest.raises(BudgetExceededError) as err:
            exact_optimum(golden_instance, 6, ObjectiveKind.CMIN, budget=10)
        assert err.value.count == math.comb(8, 6)

    def test_budget_refusal_large_instance(self):
        inst = Instance(np.zeros((30, 2), dtype=np.int8) + np.int8(1))
        with pytest.raises(BudgetExceededError) as err:
            exact_optimum(inst, 15, ObjectiveKind.CMIN)
        assert err.value.count == math.comb(30, 15) == 155117520

    def test_budget_refusal_at_most_total(self):
        # C(25,12) fits the default budget but the cumulative size-<=12
        # count does not, so the at-most pass must refuse up front.
        inst = Instance(np.ones((25, 2), dtype=np.int8))
        cumulative = sum(math.comb(25, k) for k in range(13))
        assert math.comb(25, 12) <= 10_000_000 < cumulative
        with pytest.raises(BudgetExceededError) as err:
            exact_optimum(inst, 12, ObjectiveKind.CMIN)
        assert err.value.count == cumulative
        # Opting out of the at-most pass makes the same call feasible.
        res = exact_optimum(inst, 12, ObjectiveKind.CMIN, include_at_most=False)
        assert res.optimum == 0

    def test_refusals_enumerate_nothing(self, monkeypatch):
        # Every budget is checked before the first chunk: with a scan
        # that fails when started, each refusal must still come back.
        def no_scan(*args):
            raise AssertionError("enumeration started before the budget check")

        monkeypatch.setattr(oracle, "_scan", no_scan)
        inst = Instance(np.ones((25, 2), dtype=np.int8))
        with pytest.raises(BudgetExceededError) as err:
            exact_optimum(inst, 12, ObjectiveKind.CMIN)
        assert err.value.count == sum(math.comb(25, k) for k in range(13))
        for refuse in (exact_all_objectives, perfect_balance_exists, size_s_cover_exists):
            with pytest.raises(BudgetExceededError) as err:
                refuse(inst, 12, budget=1000)
            assert err.value.count == math.comb(25, 12)

    def test_one_pass_matches_per_objective_scans(self):
        # C(18, 9) = 48620 subsets fill two chunks.  On the first matrix
        # every optimum sits in chunk one and chunk two only ties it; on
        # the second the cavg/davg optima sit in chunk two while the
        # cmin/dmax ones stay in chunk one.
        assert oracle._CHUNK < math.comb(18, 9) <= 2 * oracle._CHUNK
        subsets = np.array(list(combinations(range(18), 9)))
        for inst in (gen_random(18, 10, 0.5, 1), gen_random(18, 10, 0.2, 7)):
            results = exact_all_objectives(inst, 9)
            # unchunked reference: argmax/argmin return the first, i.e.
            # lexicographically smallest, optimal subset
            deg = inst.adjacency[subsets].sum(axis=1, dtype=np.int64)
            margin, dev = np.minimum(deg, 9 - deg), np.abs(2 * deg - 9)
            reference = {
                ObjectiveKind.CMIN: margin.min(axis=1).argmax(),
                ObjectiveKind.CAVG: margin.sum(axis=1).argmax(),
                ObjectiveKind.DMAX: dev.max(axis=1).argmin(),
                ObjectiveKind.DAVG: dev.sum(axis=1).argmin(),
            }
            for kind in ObjectiveKind:
                assert results[kind] == exact_optimum(inst, 9, kind, include_at_most=False)
                assert results[kind].witness == tuple(subsets[reference[kind]])

    def test_s_validation(self, golden_instance):
        with pytest.raises(InputError):
            exact_optimum(golden_instance, 0, ObjectiveKind.CMIN)
        with pytest.raises(InputError):
            exact_optimum(golden_instance, 9, ObjectiveKind.CMIN)


class TestDecisionOracles:
    def test_all_zeros_no_perfect_balance(self):
        inst = Instance(np.zeros((4, 3), dtype=np.int8))
        assert not perfect_balance_exists(inst, 2)

    def test_symmetric_construction_has_perfect_balance(self):
        # Two clones adjacent to every probe, two adjacent to none:
        # one of each gives every probe degree 1 = s/2.
        adjacency = np.array([[1, 1], [1, 1], [0, 0], [0, 0]], dtype=np.int8)
        assert perfect_balance_exists(Instance(adjacency), 2)

    def test_x3c_with_exact_cover_balances(self):
        triples = [(0, 1, 2), (3, 4, 5), (0, 1, 3)]
        red = x3c_instance(6, triples)
        assert perfect_balance_exists(red.instance, red.s)

    def test_odd_s_rejected(self, golden_instance):
        with pytest.raises(InputError):
            perfect_balance_exists(golden_instance, 3)

    def test_identity_matrix_has_size_s_cover(self):
        inst = Instance(np.eye(2, dtype=np.int8))
        assert size_s_cover_exists(inst, 2)

    def test_saturated_probe_blocks_cover(self):
        inst = Instance(np.ones((2, 1), dtype=np.int8))
        assert not size_s_cover_exists(inst, 2)

    def test_decision_oracles_match_exact_optimum(self):
        rng = np.random.default_rng(31337)
        for _ in range(30):
            inst = random_instance(rng, max_m=8, max_n=5)
            s = int(rng.integers(1, inst.num_clones + 1))
            results = exact_all_objectives(inst, s)
            if s % 2 == 0:
                assert perfect_balance_exists(inst, s) == (
                    results[ObjectiveKind.DMAX].optimum == 0
                )
            assert size_s_cover_exists(inst, s) == (results[ObjectiveKind.CMIN].optimum >= 1)


class TestExcessEstimate:
    def test_all_zero_probabilities(self):
        est = estimate_excess_expectation(np.zeros(10), 0.5, 100, seed=1)
        assert est.estimate == 0.0
        assert est.std_error == 0.0
        assert est.mu == 0.0

    def test_deterministic_sum_never_exceeds(self):
        est = estimate_excess_expectation(np.ones(10), 0.5, 1000, seed=1)
        assert est.estimate == 0.0

    def test_reference_bound_case(self):
        # 100 coins at p = 1/2, mu = 50, eps = 1/2: the tail-expectation
        # bound is 2 e^{-mu eps^2 / 4} / ln(1 + eps).
        est = estimate_excess_expectation(np.full(100, 0.5), 0.5, 100_000, seed=7)
        bound = 2 * math.exp(-50 * 0.25 / 4) / math.log(1.5)
        assert bound == pytest.approx(0.217, abs=5e-3)
        assert est.estimate <= bound + 3 * est.std_error

    def test_matches_exact_expectation_small_case(self):
        # Four coins at p = 1/2: E[max(0, Y - (1+eps) mu)] is computable
        # by direct enumeration of the binomial distribution.
        p, eps, mu = 0.5, 0.5, 2.0
        exact = sum(
            math.comb(4, k) * p**k * (1 - p) ** (4 - k) * max(0.0, k - (1 + eps) * mu)
            for k in range(5)
        )
        est = estimate_excess_expectation(np.full(4, p), eps, 200_000, seed=11)
        assert est.estimate == pytest.approx(exact, abs=5 * max(est.std_error, 1e-4))

    def test_seeded_determinism(self):
        a = estimate_excess_expectation(np.full(20, 0.3), 0.8, 5000, seed=99)
        b = estimate_excess_expectation(np.full(20, 0.3), 0.8, 5000, seed=99)
        assert a.estimate == b.estimate
        assert a.std_error == b.std_error

    def test_validation(self):
        with pytest.raises(InputError):
            estimate_excess_expectation(np.full(5, 0.5), 0.0, 100)
        with pytest.raises(InputError):
            estimate_excess_expectation(np.full(5, 0.5), 1.5, 100)
        with pytest.raises(InputError):
            estimate_excess_expectation(np.full(5, 0.5), 0.5, 0)
        with pytest.raises(InputError):
            estimate_excess_expectation(np.array([0.5, 1.2]), 0.5, 100)
