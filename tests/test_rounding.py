"""Randomized rounding: seed plumbing, repair, padding, and reports."""

import math

import numpy as np
import pytest

import golden
from balancedcover import (
    Algorithm,
    Formulation,
    InputError,
    Instance,
    ObjectiveKind,
    PadPolicy,
    RepairPolicy,
    RoundingConfig,
    derive_trial_seed,
    solve_end_to_end,
    solve_formulation,
)
from balancedcover.lp import FractionalSolution, SolverStats
from balancedcover.rounding import (
    ALGORITHM_FORMULATION,
    ALGORITHM_OBJECTIVE,
    _drop_excess,
    _fill_shortfall,
    _pad,
    _probabilities,
    shrink_parameter,
)
from conftest import random_instance


def fake_lp(formulation, z_star, x):
    stats = SolverStats(iterations=0, basis=(), residual_primal=0.0, residual_bound=0.0, residual_dual=0.0)
    return FractionalSolution(formulation, z_star, np.asarray(x, dtype=float), stats)


def reference_splitmix64(seed, trial):
    mask = (1 << 64) - 1
    z = (seed + (trial + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


class TestSeedDerivation:
    def test_matches_reference_mix(self):
        for seed in (0, 1, 42, 2**63, 2**64 - 1):
            for trial in (0, 1, 2, 99):
                assert derive_trial_seed(seed, trial) == reference_splitmix64(seed, trial)

    def test_stays_in_64_bits(self):
        for trial in range(50):
            derived = derive_trial_seed(123456789, trial)
            assert 0 <= derived < 2**64

    def test_trials_land_apart(self):
        seeds = {derive_trial_seed(7, t) for t in range(1000)}
        assert len(seeds) == 1000

    def test_nearby_base_seeds_land_apart(self):
        assert derive_trial_seed(1, 0) != derive_trial_seed(2, 0)


class TestShrinkParameter:
    def test_rcm2_formula(self):
        # z* = 25, n = 100: eps = 2 sqrt(ln(4n + 2) / z*).
        expect = 2.0 * math.sqrt(math.log(402) / 25.0)
        assert shrink_parameter(Algorithm.RCM2, 25.0, 100) == pytest.approx(expect, abs=0)
        assert expect == pytest.approx(0.9795061685252643, abs=1e-15)

    def test_rcm2_caps_at_one(self):
        assert shrink_parameter(Algorithm.RCM2, 2.0, 7) == 1.0

    def test_rcm2_degenerate_z(self):
        assert shrink_parameter(Algorithm.RCM2, 0.0, 10) == 1.0
        assert shrink_parameter(Algorithm.RCM2, -1.0, 10) == 1.0

    def test_rca2_formula(self):
        assert shrink_parameter(Algorithm.RCA2, 25.0, 100) == pytest.approx(0.2, abs=0)
        assert shrink_parameter(Algorithm.RCA2, 4.0, 3) == pytest.approx(0.5, abs=0)

    def test_rca2_degenerate_z(self):
        assert shrink_parameter(Algorithm.RCA2, 0.0, 10) is None

    def test_unshrunk_algorithms(self):
        for algorithm in (Algorithm.RCM, Algorithm.RDM, Algorithm.RCA):
            assert shrink_parameter(algorithm, 25.0, 100) is None

    def test_probability_shapes(self):
        sol = fake_lp(Formulation.MINLP, 25.0, np.full(100, 0.5))
        probs, eps = _probabilities(Algorithm.RCM2, sol, 100)
        assert eps == pytest.approx(2.0 * math.sqrt(math.log(402) / 25.0))
        assert probs == pytest.approx((1.0 - eps) * 0.5)
        sol = fake_lp(Formulation.AVGLP, 25.0, np.full(100, 0.5))
        probs, lam = _probabilities(Algorithm.RCA2, sol, 100)
        assert lam == pytest.approx(0.2)
        assert probs == pytest.approx(0.5 / 1.2)


class TestAlgorithmWiring:
    def test_objective_map(self):
        assert ALGORITHM_OBJECTIVE[Algorithm.RCM] is ObjectiveKind.CMIN
        assert ALGORITHM_OBJECTIVE[Algorithm.RCM2] is ObjectiveKind.CMIN
        assert ALGORITHM_OBJECTIVE[Algorithm.RDM] is ObjectiveKind.DMAX
        assert ALGORITHM_OBJECTIVE[Algorithm.RCA] is ObjectiveKind.CAVG
        assert ALGORITHM_OBJECTIVE[Algorithm.RCA2] is ObjectiveKind.CAVG

    def test_formulation_map(self):
        assert ALGORITHM_FORMULATION[Algorithm.RCM] is Formulation.MINLP
        assert ALGORITHM_FORMULATION[Algorithm.RDM] is Formulation.MAXLP
        assert ALGORITHM_FORMULATION[Algorithm.RCA2] is Formulation.AVGLP


class TestFeasibility:
    def test_rcm_without_padding_at_most_s(self, golden_instance):
        config = RoundingConfig(Algorithm.RCM, seed=5, restarts=40, pad_policy=PadPolicy.NONE)
        report = solve_end_to_end(golden_instance, 6, config)
        for outcome in report.outcomes:
            assert outcome.selected_size <= 6

    def test_default_padding_reaches_s(self, golden_instance):
        config = RoundingConfig(Algorithm.RCM, seed=5, restarts=40)
        report = solve_end_to_end(golden_instance, 6, config)
        for outcome in report.outcomes:
            assert outcome.selected_size == 6
        assert len(report.best.selected) == 6

    def test_rdm_always_exactly_s(self, golden_instance):
        # RDM repairs to exactly s in both directions and ignores the
        # pad policy entirely.
        for pad in PadPolicy:
            config = RoundingConfig(Algorithm.RDM, seed=5, restarts=40, pad_policy=pad)
            report = solve_end_to_end(golden_instance, 6, config)
            assert all(outcome.selected_size == 6 for outcome in report.outcomes)

    def test_selected_indices_valid(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            inst = random_instance(rng, max_m=10, max_n=6)
            s = int(rng.integers(1, inst.num_clones + 1))
            config = RoundingConfig(Algorithm.RCA, seed=int(rng.integers(1 << 30)), restarts=5)
            report = solve_end_to_end(inst, s, config)
            sel = report.best.selected
            assert sel == tuple(sorted(set(sel)))
            assert all(0 <= i < inst.num_clones for i in sel)


class TestMonotoneRepair:
    def test_margin_objectives(self):
        # Dropping L clones lowers each per-probe min-term by at most 1
        # apiece, so the repaired objective is within L of the raw one.
        rng = np.random.default_rng(777)
        for _ in range(15):
            inst = random_instance(rng, max_m=12, max_n=6)
            s = int(rng.integers(1, inst.num_clones + 1))
            for algorithm in (Algorithm.RCM, Algorithm.RCM2, Algorithm.RCA, Algorithm.RCA2):
                config = RoundingConfig(algorithm, seed=int(rng.integers(1 << 30)), restarts=8)
                report = solve_end_to_end(inst, s, config)
                for outcome in report.outcomes:
                    slack = outcome.raw_value - outcome.violations_repaired
                    assert outcome.pre_pad_value >= slack - 1e-9

    def test_deviation_objective(self):
        rng = np.random.default_rng(778)
        for _ in range(15):
            inst = random_instance(rng, max_m=12, max_n=6)
            s = int(rng.integers(1, inst.num_clones + 1))
            config = RoundingConfig(Algorithm.RDM, seed=int(rng.integers(1 << 30)), restarts=8)
            report = solve_end_to_end(inst, s, config)
            for outcome in report.outcomes:
                assert outcome.value <= outcome.raw_value + outcome.violations_repaired + 1e-9


class TestDeterminism:
    def test_identical_runs(self, golden_instance):
        config = RoundingConfig(Algorithm.RCM, seed=17, restarts=6)
        a = solve_end_to_end(golden_instance, 6, config)
        b = solve_end_to_end(golden_instance, 6, config)
        assert a.outcomes == b.outcomes
        assert a.best == b.best
        assert a.best_trial == b.best_trial

    def test_restart_prefix_property(self, golden_instance):
        # Trial t depends only on (seed, t): asking for more restarts
        # reproduces the earlier trials bit for bit.
        short = solve_end_to_end(
            golden_instance, 6, RoundingConfig(Algorithm.RCM, seed=17, restarts=2)
        )
        long = solve_end_to_end(
            golden_instance, 6, RoundingConfig(Algorithm.RCM, seed=17, restarts=7)
        )
        assert long.outcomes[:2] == short.outcomes

    def test_more_restarts_never_worse(self, golden_instance):
        for restarts in (1, 3, 10):
            few = solve_end_to_end(
                golden_instance,
                6,
                RoundingConfig(Algorithm.RCM, seed=3, restarts=restarts),
            )
            more = solve_end_to_end(
                golden_instance,
                6,
                RoundingConfig(Algorithm.RCM, seed=3, restarts=restarts + 5),
            )
            assert more.best.cmin >= few.best.cmin


class TestLpDominance:
    def test_golden_bounds(self, golden_instance):
        rcm = solve_end_to_end(
            golden_instance, 6, RoundingConfig(Algorithm.RCM, seed=1, restarts=50)
        )
        assert rcm.best.cmin <= float(golden.MINLP_OPT) + 1e-9
        rca = solve_end_to_end(
            golden_instance, 6, RoundingConfig(Algorithm.RCA, seed=1, restarts=50)
        )
        assert rca.best.cavg <= float(golden.AVGLP_OPT) + 1e-9
        rdm = solve_end_to_end(
            golden_instance, 6, RoundingConfig(Algorithm.RDM, seed=1, restarts=50)
        )
        assert rdm.best.dmax >= float(golden.MAXLP_OPT) - 1e-9

    def test_rca_reaches_good_average(self, golden_instance):
        # With enough restarts the rounded average should match the
        # well-balanced hand selection (cavg >= 18/7).
        report = solve_end_to_end(
            golden_instance, 6, RoundingConfig(Algorithm.RCA, seed=2, restarts=50)
        )
        assert report.best.cavg >= 18 / 7 - 1e-9

    def test_random_instances(self):
        # Full-size selections can never beat the LP relaxation.
        rng = np.random.default_rng(999)
        for _ in range(10):
            inst = random_instance(rng, max_m=10, max_n=6)
            s = int(rng.integers(1, inst.num_clones + 1))
            for algorithm, kind in (
                (Algorithm.RCM, ObjectiveKind.CMIN),
                (Algorithm.RCA, ObjectiveKind.CAVG),
                (Algorithm.RDM, ObjectiveKind.DMAX),
            ):
                config = RoundingConfig(algorithm, seed=int(rng.integers(1 << 30)), restarts=6)
                report = solve_end_to_end(inst, s, config)
                z = float(report.lp.z_star)
                value = report.best.value(kind)
                if kind.maximize:
                    assert value <= z + 1e-7
                else:
                    assert value >= z - 1e-7


class TestRepairPolicies:
    def test_drop_excess_lowest_fraction(self):
        selected = np.array([0, 1, 2, 3])
        x_star = np.array([0.9, 0.1, 0.5, 0.1])
        rng = np.random.default_rng(0)
        kept = _drop_excess(selected, 2, x_star, rng, RepairPolicy.LOWEST_FRACTION)
        assert kept.tolist() == [0, 2]

    def test_drop_excess_tie_breaks_by_index(self):
        selected = np.array([3, 5, 7])
        x_star = np.zeros(8)
        rng = np.random.default_rng(0)
        kept = _drop_excess(selected, 1, x_star, rng, RepairPolicy.LOWEST_FRACTION)
        assert kept.tolist() == [5, 7]

    def test_fill_shortfall_highest_fraction(self):
        selected = np.array([0])
        x_star = np.array([1.0, 0.2, 0.9, 0.4])
        rng = np.random.default_rng(0)
        filled = _fill_shortfall(selected, 2, x_star, rng, RepairPolicy.LOWEST_FRACTION, 4)
        assert filled.tolist() == [0, 2, 3]

    def test_random_drop_count(self):
        selected = np.arange(10)
        rng = np.random.default_rng(4)
        kept = _drop_excess(selected, 3, np.zeros(10), rng, RepairPolicy.RANDOM)
        assert kept.size == 7
        assert set(kept.tolist()) <= set(range(10))


class TestPadPolicies:
    def test_greedy_picks_objective_best(self):
        # selected = {0} covers only probe 1; adding clone 2 balances
        # both probes while clone 1 saturates the first.
        inst = Instance(np.array([[1, 0], [1, 0], [0, 1]], dtype=np.int8))
        rng = np.random.default_rng(0)
        out = _pad(inst, np.array([0]), 2, ObjectiveKind.CMIN, rng, PadPolicy.GREEDY)
        assert out.tolist() == [0, 2]

    def test_greedy_tie_breaks_by_index(self):
        inst = Instance(np.ones((3, 1), dtype=np.int8))
        rng = np.random.default_rng(0)
        out = _pad(inst, np.array([], dtype=np.intp), 1, ObjectiveKind.CMIN, rng, PadPolicy.GREEDY)
        assert out.tolist() == [0]

    def test_none_leaves_selection(self):
        inst = Instance(np.ones((3, 1), dtype=np.int8))
        rng = np.random.default_rng(0)
        out = _pad(inst, np.array([1]), 3, ObjectiveKind.CMIN, rng, PadPolicy.NONE)
        assert out.tolist() == [1]

    def test_random_pad_fills_to_s(self):
        inst = Instance(np.ones((5, 2), dtype=np.int8))
        rng = np.random.default_rng(0)
        out = _pad(inst, np.array([4]), 3, ObjectiveKind.CMIN, rng, PadPolicy.RANDOM)
        assert out.size == 3
        assert 4 in out.tolist()


class TestDegenerateCases:
    def test_rcm2_epsilon_capped_empties_draws(self, golden_instance):
        # Small z* drives eps to its cap of 1, zeroing every selection
        # probability; padding then fills the quota.
        config = RoundingConfig(Algorithm.RCM2, seed=9, restarts=5)
        report = solve_end_to_end(golden_instance, 6, config)
        assert report.epsilon_or_lambda == 1.0
        assert all(outcome.sampled_size == 0 for outcome in report.outcomes)
        assert all(outcome.selected_size == 6 for outcome in report.outcomes)

    def test_rca2_zero_z_star(self):
        # All-ones matrix: AvgLP z* = 0, lambda undefined; the draw is
        # empty and padding supplies the selection.
        inst = Instance(np.ones((5, 3), dtype=np.int8))
        config = RoundingConfig(Algorithm.RCA2, seed=9, restarts=3)
        report = solve_end_to_end(inst, 2, config)
        assert report.lp.z_star == pytest.approx(0.0, abs=1e-9)
        assert report.epsilon_or_lambda is None
        assert all(outcome.sampled_size == 0 for outcome in report.outcomes)
        assert len(report.best.selected) == 2

    def test_single_clone_instance(self):
        inst = Instance(np.array([[1]], dtype=np.int8))
        config = RoundingConfig(Algorithm.RDM, seed=1, restarts=3)
        report = solve_end_to_end(inst, 1, config)
        assert report.best.selected == (0,)


class TestValidation:
    def test_wrong_formulation_rejected(self, golden_instance):
        lp = solve_formulation(golden_instance, 6, Formulation.MAXLP)
        config = RoundingConfig(Algorithm.RCM, seed=0)
        with pytest.raises(InputError, match="minlp"):
            solve_end_to_end(golden_instance, 6, config, lp_solution=lp)

    def test_wrong_x_length_rejected(self, golden_instance):
        lp = fake_lp(Formulation.MAXLP, 1.0, np.full(5, 0.5))
        config = RoundingConfig(Algorithm.RDM, seed=0)
        with pytest.raises(InputError, match="length"):
            solve_end_to_end(golden_instance, 6, config, lp_solution=lp)

    def test_restarts_validated(self):
        with pytest.raises(InputError):
            RoundingConfig(Algorithm.RCM, restarts=0)

    def test_s_validated(self, golden_instance):
        config = RoundingConfig(Algorithm.RCM, seed=0)
        with pytest.raises(InputError):
            solve_end_to_end(golden_instance, 0, config)


class TestReport:
    def test_shape_and_passthrough(self, golden_instance):
        lp = solve_formulation(golden_instance, 6, Formulation.MINLP)
        config = RoundingConfig(Algorithm.RCM, seed=31, restarts=4)
        report = solve_end_to_end(golden_instance, 6, config, lp_solution=lp)
        assert report.lp is lp
        assert report.objective is ObjectiveKind.CMIN
        assert len(report.outcomes) == 4
        assert report.per_restart == tuple(o.value for o in report.outcomes)
        assert 0 <= report.best_trial < 4
        assert report.violations_repaired == tuple(o.violations_repaired for o in report.outcomes)
        assert [o.trial for o in report.outcomes] == [0, 1, 2, 3]

    def test_best_matches_outcome_value(self, golden_instance):
        config = RoundingConfig(Algorithm.RCA, seed=31, restarts=6)
        report = solve_end_to_end(golden_instance, 6, config)
        best_outcome = report.outcomes[report.best_trial]
        assert report.best.cavg == pytest.approx(best_outcome.value)
        assert best_outcome.value == max(o.value for o in report.outcomes)

    def test_ties_go_to_earliest_trial(self, golden_instance):
        config = RoundingConfig(Algorithm.RCM, seed=31, restarts=10)
        report = solve_end_to_end(golden_instance, 6, config)
        best_value = report.best.value(ObjectiveKind.CMIN)
        first = next(i for i, o in enumerate(report.outcomes) if o.value == best_value)
        assert report.best_trial == first
