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
    evaluate,
    objective_scores,
    solve_end_to_end,
    solve_formulation,
)
from balancedcover.lp import FractionalSolution
from balancedcover.simplex import SimplexResult
from balancedcover.rounding import (
    ALGORITHM_FORMULATION,
    ALGORITHM_OBJECTIVE,
    _add,
    _pad,
    _pick,
    _probabilities,
    shrink_parameter,
)
from conftest import random_instance


def fake_lp(formulation, z_star, x):
    x = np.asarray(x, dtype=float)
    stats = SimplexResult(
        x=x,
        objective=z_star,
        iterations=0,
        basis=(),
        residual_primal=0.0,
        residual_bound=0.0,
        residual_dual=0.0,
        at_upper=(),
        dual_iterations=0,
    )
    return FractionalSolution(formulation, z_star, x, stats)


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
        x_star = np.full(100, 0.5)
        probs, eps = _probabilities(Algorithm.RCM2, x_star, 25.0, 100)
        assert eps == pytest.approx(2.0 * math.sqrt(math.log(402) / 25.0))
        assert probs == pytest.approx((1.0 - eps) * 0.5)
        probs, lam = _probabilities(Algorithm.RCA2, x_star, 25.0, 100)
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
    """A drop deletes the picked positions with rank x*; a fill adds the picked clones with rank -x*."""

    def test_drop_excess_lowest_fraction(self):
        selected = np.array([0, 1, 2, 3])
        x_star = np.array([0.9, 0.1, 0.5, 0.1])
        rng = np.random.default_rng(0)
        kept = np.delete(selected, _pick(selected, 2, rng, x_star))
        assert kept.tolist() == [0, 2]

    def test_drop_excess_tie_breaks_by_index(self):
        selected = np.array([3, 5, 7])
        x_star = np.zeros(8)
        rng = np.random.default_rng(0)
        kept = np.delete(selected, _pick(selected, 1, rng, x_star))
        assert kept.tolist() == [5, 7]

    def test_fill_shortfall_highest_fraction(self):
        selected = np.array([0])
        x_star = np.array([1.0, 0.2, 0.9, 0.4])
        rng = np.random.default_rng(0)
        filled = _add(selected, 2, rng, -x_star, 4)
        assert filled.tolist() == [0, 2, 3]

    def test_random_drop_count(self):
        selected = np.arange(10)
        rng = np.random.default_rng(4)
        kept = np.delete(selected, _pick(selected, 3, rng, None))
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


# Rounding pinned on one seeded instance, recorded before trials were
# scored on integer degree vectors.  The LP is a fixed x* and z*, so only
# the rounding can move these numbers: a change in generator call order,
# tie-breaking or scoring fails the test.
GOLDEN_ROWS = (
    "0110000110", "0011100110", "1111101011", "0110000000",
    "1101011000", "0010000010", "1000100001", "1011101001",
    "0001100001", "0010101010", "1000011001", "1100100011",
    "0110011100", "1011011001", "1100010001", "0001110100",
    "1000111010", "1111101011", "1001101001", "0111111000",
    "1110101011", "0010101110", "0111000100", "0111011000",
)
GOLDEN_X = (0, 1, 0.5, 0.25, 0.75, 0.5, 0, 1, 0.5, 0.25, 0.5, 0.25,
            0.25, 0.5, 1, 0, 0.5, 0.25, 0.5, 0.25, 0.25, 0.5, 0, 0.25)
GOLDEN_Z = {Formulation.MINLP: 30.0, Formulation.MAXLP: 1.5, Formulation.AVGLP: 4.0}
GOLDEN_S = 9
GOLDEN_SEED = 77
GOLDEN_DERIVED = (
    7086638178683056257,
    9103081651828072020,
    10109092562820482796,
    3633191138996939195,
    14645540625834893577,
)
# (algorithm, pad, repair) -> (best_trial, best.selected, one row per trial of
#   (sampled_size, raw_value, violations_repaired, pre_pad_value, value, selected_size))
GOLDEN_ROUNDING = {
    ("rcm", "none", "random"): (0, (4, 5, 7, 8, 13, 14, 19, 20, 21), (
        (10, 2.0, 1, 1.0, 1.0, 9),
        (12, 1.0, 3, 1.0, 1.0, 9),
        (9, 1.0, 0, 1.0, 1.0, 9),
        (7, 1.0, 0, 1.0, 1.0, 7),
        (13, 1.0, 4, 0.0, 0.0, 9),
    )),
    ("rcm", "none", "lowest-fraction"): (0, (1, 4, 5, 7, 8, 13, 14, 20, 21), (
        (10, 2.0, 1, 2.0, 2.0, 9),
        (12, 1.0, 3, 1.0, 1.0, 9),
        (9, 1.0, 0, 1.0, 1.0, 9),
        (7, 1.0, 0, 1.0, 1.0, 7),
        (13, 1.0, 4, 1.0, 1.0, 9),
    )),
    ("rcm", "random", "random"): (3, (1, 3, 6, 7, 9, 12, 13, 14, 23), (
        (10, 2.0, 1, 1.0, 1.0, 9),
        (12, 1.0, 3, 1.0, 1.0, 9),
        (9, 1.0, 0, 1.0, 1.0, 9),
        (7, 1.0, 0, 1.0, 2.0, 9),
        (13, 1.0, 4, 0.0, 0.0, 9),
    )),
    ("rcm", "random", "lowest-fraction"): (0, (1, 4, 5, 7, 8, 13, 14, 20, 21), (
        (10, 2.0, 1, 2.0, 2.0, 9),
        (12, 1.0, 3, 1.0, 1.0, 9),
        (9, 1.0, 0, 1.0, 1.0, 9),
        (7, 1.0, 0, 1.0, 2.0, 9),
        (13, 1.0, 4, 1.0, 1.0, 9),
    )),
    ("rcm", "greedy", "random"): (3, (0, 1, 3, 4, 7, 9, 13, 14, 23), (
        (10, 2.0, 1, 1.0, 1.0, 9),
        (12, 1.0, 3, 1.0, 1.0, 9),
        (9, 1.0, 0, 1.0, 1.0, 9),
        (7, 1.0, 0, 1.0, 2.0, 9),
        (13, 1.0, 4, 0.0, 0.0, 9),
    )),
    ("rcm", "greedy", "lowest-fraction"): (0, (1, 4, 5, 7, 8, 13, 14, 20, 21), (
        (10, 2.0, 1, 2.0, 2.0, 9),
        (12, 1.0, 3, 1.0, 1.0, 9),
        (9, 1.0, 0, 1.0, 1.0, 9),
        (7, 1.0, 0, 1.0, 2.0, 9),
        (13, 1.0, 4, 1.0, 1.0, 9),
    )),
    ("rcm2", "none", "random"): (4, (1, 3, 8, 11, 23), (
        (1, 0.0, 0, 0.0, 0.0, 1),
        (2, 0.0, 0, 0.0, 0.0, 2),
        (1, 0.0, 0, 0.0, 0.0, 1),
        (1, 0.0, 0, 0.0, 0.0, 1),
        (5, 1.0, 0, 1.0, 1.0, 5),
    )),
    ("rcm2", "none", "lowest-fraction"): (4, (1, 3, 8, 11, 23), (
        (1, 0.0, 0, 0.0, 0.0, 1),
        (2, 0.0, 0, 0.0, 0.0, 2),
        (1, 0.0, 0, 0.0, 0.0, 1),
        (1, 0.0, 0, 0.0, 0.0, 1),
        (5, 1.0, 0, 1.0, 1.0, 5),
    )),
    ("rcm2", "random", "random"): (0, (0, 1, 2, 3, 7, 10, 15, 22, 23), (
        (1, 0.0, 0, 0.0, 2.0, 9),
        (2, 0.0, 0, 0.0, 2.0, 9),
        (1, 0.0, 0, 0.0, 2.0, 9),
        (1, 0.0, 0, 0.0, 0.0, 9),
        (5, 1.0, 0, 1.0, 2.0, 9),
    )),
    ("rcm2", "random", "lowest-fraction"): (0, (0, 1, 2, 3, 7, 10, 15, 22, 23), (
        (1, 0.0, 0, 0.0, 2.0, 9),
        (2, 0.0, 0, 0.0, 2.0, 9),
        (1, 0.0, 0, 0.0, 2.0, 9),
        (1, 0.0, 0, 0.0, 0.0, 9),
        (5, 1.0, 0, 1.0, 2.0, 9),
    )),
    ("rcm2", "greedy", "random"): (0, (0, 1, 2, 3, 4, 5, 6, 10, 12), (
        (1, 0.0, 0, 0.0, 3.0, 9),
        (2, 0.0, 0, 0.0, 3.0, 9),
        (1, 0.0, 0, 0.0, 3.0, 9),
        (1, 0.0, 0, 0.0, 3.0, 9),
        (5, 1.0, 0, 1.0, 3.0, 9),
    )),
    ("rcm2", "greedy", "lowest-fraction"): (0, (0, 1, 2, 3, 4, 5, 6, 10, 12), (
        (1, 0.0, 0, 0.0, 3.0, 9),
        (2, 0.0, 0, 0.0, 3.0, 9),
        (1, 0.0, 0, 0.0, 3.0, 9),
        (1, 0.0, 0, 0.0, 3.0, 9),
        (5, 1.0, 0, 1.0, 3.0, 9),
    )),
    ("rdm", "none", "random"): (3, (1, 3, 6, 7, 9, 12, 13, 14, 23), (
        (10, 2.5, 1, 3.5, 3.5, 9),
        (12, 3.5, 3, 3.5, 3.5, 9),
        (9, 3.5, 0, 3.5, 3.5, 9),
        (7, 3.5, 2, 2.5, 2.5, 9),
        (13, 3.5, 4, 4.5, 4.5, 9),
    )),
    ("rdm", "none", "lowest-fraction"): (0, (1, 4, 5, 7, 8, 13, 14, 20, 21), (
        (10, 2.5, 1, 2.5, 2.5, 9),
        (12, 3.5, 3, 3.5, 3.5, 9),
        (9, 3.5, 0, 3.5, 3.5, 9),
        (7, 3.5, 2, 3.5, 3.5, 9),
        (13, 3.5, 4, 3.5, 3.5, 9),
    )),
    ("rdm", "random", "random"): (3, (1, 3, 6, 7, 9, 12, 13, 14, 23), (
        (10, 2.5, 1, 3.5, 3.5, 9),
        (12, 3.5, 3, 3.5, 3.5, 9),
        (9, 3.5, 0, 3.5, 3.5, 9),
        (7, 3.5, 2, 2.5, 2.5, 9),
        (13, 3.5, 4, 4.5, 4.5, 9),
    )),
    ("rdm", "random", "lowest-fraction"): (0, (1, 4, 5, 7, 8, 13, 14, 20, 21), (
        (10, 2.5, 1, 2.5, 2.5, 9),
        (12, 3.5, 3, 3.5, 3.5, 9),
        (9, 3.5, 0, 3.5, 3.5, 9),
        (7, 3.5, 2, 3.5, 3.5, 9),
        (13, 3.5, 4, 3.5, 3.5, 9),
    )),
    ("rdm", "greedy", "random"): (3, (1, 3, 6, 7, 9, 12, 13, 14, 23), (
        (10, 2.5, 1, 3.5, 3.5, 9),
        (12, 3.5, 3, 3.5, 3.5, 9),
        (9, 3.5, 0, 3.5, 3.5, 9),
        (7, 3.5, 2, 2.5, 2.5, 9),
        (13, 3.5, 4, 4.5, 4.5, 9),
    )),
    ("rdm", "greedy", "lowest-fraction"): (0, (1, 4, 5, 7, 8, 13, 14, 20, 21), (
        (10, 2.5, 1, 2.5, 2.5, 9),
        (12, 3.5, 3, 3.5, 3.5, 9),
        (9, 3.5, 0, 3.5, 3.5, 9),
        (7, 3.5, 2, 3.5, 3.5, 9),
        (13, 3.5, 4, 3.5, 3.5, 9),
    )),
    ("rca", "none", "random"): (2, (1, 2, 3, 4, 5, 7, 8, 14, 16), (
        (10, 3.9, 1, 3.4, 3.4, 9),
        (12, 4.7, 3, 3.5, 3.5, 9),
        (9, 3.6, 0, 3.6, 3.6, 9),
        (7, 2.5, 0, 2.9, 2.9, 7),
        (13, 5.2, 4, 3.3, 3.3, 9),
    )),
    ("rca", "none", "lowest-fraction"): (2, (1, 2, 3, 4, 5, 7, 8, 14, 16), (
        (10, 3.9, 1, 3.5, 3.5, 9),
        (12, 4.7, 3, 3.2, 3.2, 9),
        (9, 3.6, 0, 3.6, 3.6, 9),
        (7, 2.5, 0, 2.9, 2.9, 7),
        (13, 5.2, 4, 3.2, 3.2, 9),
    )),
    ("rca", "random", "random"): (2, (1, 2, 3, 4, 5, 7, 8, 14, 16), (
        (10, 3.9, 1, 3.4, 3.4, 9),
        (12, 4.7, 3, 3.5, 3.5, 9),
        (9, 3.6, 0, 3.6, 3.6, 9),
        (7, 2.5, 0, 2.9, 3.4, 9),
        (13, 5.2, 4, 3.3, 3.3, 9),
    )),
    ("rca", "random", "lowest-fraction"): (2, (1, 2, 3, 4, 5, 7, 8, 14, 16), (
        (10, 3.9, 1, 3.5, 3.5, 9),
        (12, 4.7, 3, 3.2, 3.2, 9),
        (9, 3.6, 0, 3.6, 3.6, 9),
        (7, 2.5, 0, 2.9, 3.4, 9),
        (13, 5.2, 4, 3.2, 3.2, 9),
    )),
    ("rca", "greedy", "random"): (2, (1, 2, 3, 4, 5, 7, 8, 14, 16), (
        (10, 3.9, 1, 3.4, 3.4, 9),
        (12, 4.7, 3, 3.5, 3.5, 9),
        (9, 3.6, 0, 3.6, 3.6, 9),
        (7, 2.5, 0, 2.9, 3.6, 9),
        (13, 5.2, 4, 3.3, 3.3, 9),
    )),
    ("rca", "greedy", "lowest-fraction"): (2, (1, 2, 3, 4, 5, 7, 8, 14, 16), (
        (10, 3.9, 1, 3.5, 3.5, 9),
        (12, 4.7, 3, 3.2, 3.2, 9),
        (9, 3.6, 0, 3.6, 3.6, 9),
        (7, 2.5, 0, 2.9, 3.6, 9),
        (13, 5.2, 4, 3.2, 3.2, 9),
    )),
    ("rca2", "none", "random"): (4, (1, 3, 4, 5, 8, 9, 11, 18, 23), (
        (7, 2.7, 0, 3.2, 3.2, 7),
        (6, 1.9, 0, 2.9, 2.9, 6),
        (4, 1.4, 0, 2.0, 2.0, 4),
        (5, 1.5, 0, 2.1, 2.1, 5),
        (10, 4.0, 1, 3.3, 3.3, 9),
    )),
    ("rca2", "none", "lowest-fraction"): (4, (1, 4, 5, 8, 9, 11, 14, 18, 23), (
        (7, 2.7, 0, 3.2, 3.2, 7),
        (6, 1.9, 0, 2.9, 2.9, 6),
        (4, 1.4, 0, 2.0, 2.0, 4),
        (5, 1.5, 0, 2.1, 2.1, 5),
        (10, 4.0, 1, 3.6, 3.6, 9),
    )),
    ("rca2", "random", "random"): (0, (0, 1, 2, 4, 5, 7, 14, 19, 21), (
        (7, 2.7, 0, 3.2, 3.5, 9),
        (6, 1.9, 0, 2.9, 2.9, 9),
        (4, 1.4, 0, 2.0, 3.3, 9),
        (5, 1.5, 0, 2.1, 3.2, 9),
        (10, 4.0, 1, 3.3, 3.3, 9),
    )),
    ("rca2", "random", "lowest-fraction"): (4, (1, 4, 5, 8, 9, 11, 14, 18, 23), (
        (7, 2.7, 0, 3.2, 3.5, 9),
        (6, 1.9, 0, 2.9, 2.9, 9),
        (4, 1.4, 0, 2.0, 3.3, 9),
        (5, 1.5, 0, 2.1, 3.2, 9),
        (10, 4.0, 1, 3.6, 3.6, 9),
    )),
    ("rca2", "greedy", "random"): (2, (0, 1, 2, 8, 10, 12, 14, 16, 17), (
        (7, 2.7, 0, 3.2, 3.8, 9),
        (6, 1.9, 0, 2.9, 3.8, 9),
        (4, 1.4, 0, 2.0, 3.9, 9),
        (5, 1.5, 0, 2.1, 3.7, 9),
        (10, 4.0, 1, 3.3, 3.3, 9),
    )),
    ("rca2", "greedy", "lowest-fraction"): (2, (0, 1, 2, 8, 10, 12, 14, 16, 17), (
        (7, 2.7, 0, 3.2, 3.8, 9),
        (6, 1.9, 0, 2.9, 3.8, 9),
        (4, 1.4, 0, 2.0, 3.9, 9),
        (5, 1.5, 0, 2.1, 3.7, 9),
        (10, 4.0, 1, 3.6, 3.6, 9),
    )),
}


def golden_rounding_lp(algorithm):
    formulation = ALGORITHM_FORMULATION[algorithm]
    return fake_lp(formulation, GOLDEN_Z[formulation], GOLDEN_X)


class TestGoldenRounding:
    @pytest.mark.parametrize("key", sorted(GOLDEN_ROUNDING))
    def test_pinned_report(self, key):
        algorithm, pad, repair = Algorithm(key[0]), PadPolicy(key[1]), RepairPolicy(key[2])
        inst = Instance(np.array([[int(c) for c in row] for row in GOLDEN_ROWS], dtype=np.int8))
        config = RoundingConfig(algorithm, seed=GOLDEN_SEED, restarts=5, pad_policy=pad, repair_policy=repair)
        report = solve_end_to_end(inst, GOLDEN_S, config, lp_solution=golden_rounding_lp(algorithm))
        best_trial, best_selected, trials = GOLDEN_ROUNDING[key]
        assert tuple(o.derived_seed for o in report.outcomes) == GOLDEN_DERIVED
        got = tuple(
            (o.sampled_size, o.raw_value, o.violations_repaired, o.pre_pad_value, o.value, o.selected_size)
            for o in report.outcomes
        )
        assert got == trials
        assert report.best.selected == best_selected
        assert report.best_trial == best_trial


def reference_greedy_pad(adjacency, selected, s, kind):
    """The greedy pad as first written: each step rebuilds every candidate's
    degree vector and scores it, ties to the lowest clone index."""
    a = np.asarray(adjacency)
    deg = a[list(selected)].sum(axis=0, dtype=np.int64)
    chosen = list(selected)
    pool = [i for i in range(a.shape[0]) if i not in set(chosen)]
    for _ in range(s - len(chosen)):
        new_deg = deg[None, :] + a[pool].astype(np.int64)
        best = int(np.argmax(objective_scores(new_deg, s, kind)))
        deg = new_deg[best]
        chosen.append(pool.pop(best))
    return sorted(chosen)


def tie_heavy_matrix(rng, m, n):
    """Random 0/1 matrix with duplicate rows and all-zero and all-one columns."""
    a = (rng.random((m, n)) < rng.uniform(0.2, 0.8)).astype(np.int8)
    for _ in range(m // 3):
        a[rng.integers(m)] = a[rng.integers(m)]
    a[:, rng.integers(n)] = 0
    a[:, rng.integers(n)] = 1
    return a


class TestGreedyPadReference:
    @pytest.mark.parametrize("kind", [ObjectiveKind.CMIN, ObjectiveKind.CAVG])
    @pytest.mark.parametrize("tie_heavy", [False, True])
    def test_matches_rebuild_every_step(self, kind, tie_heavy):
        rng = np.random.default_rng(4242 + tie_heavy)
        cases = 0
        for _ in range(60):
            m, n = int(rng.integers(2, 30)), int(rng.integers(1, 12))
            if tie_heavy:
                a = tie_heavy_matrix(rng, m, n)
            else:
                a = (rng.random((m, n)) < rng.uniform(0.1, 0.9)).astype(np.int8)
            inst = Instance(a)
            for s in sorted({1, 2, m // 2 | 1, m // 2 + (m // 2) % 2, m}):
                start = np.sort(rng.choice(m, size=int(rng.integers(0, s)), replace=False)).astype(np.intp)
                pad_rng = np.random.default_rng(0)
                state = pad_rng.bit_generator.state
                out = _pad(inst, start, s, kind, pad_rng, PadPolicy.GREEDY)
                assert out.tolist() == reference_greedy_pad(a, start.tolist(), s, kind)
                assert pad_rng.bit_generator.state == state
                cases += 1
        assert cases > 100


class TestScoringAgreement:
    """The best trial's integer score and the public evaluate agree."""

    @pytest.mark.parametrize("algorithm", list(Algorithm))
    @pytest.mark.parametrize("pad", list(PadPolicy))
    def test_best_is_evaluate(self, algorithm, pad):
        rng = np.random.default_rng([7, list(Algorithm).index(algorithm), list(PadPolicy).index(pad)])
        kind = ALGORITHM_OBJECTIVE[algorithm]
        for _ in range(4):
            inst = random_instance(rng, max_m=14, max_n=7)
            s = int(rng.integers(1, inst.num_clones + 1))
            config = RoundingConfig(algorithm, seed=int(rng.integers(1 << 30)), restarts=6, pad_policy=pad)
            report = solve_end_to_end(inst, s, config)
            assert report.best == evaluate(inst, report.best.selected, s)
            assert report.outcomes[report.best_trial].value == report.best.value(kind)
            assert report.outcomes[report.best_trial].selected_size == len(report.best.selected)
