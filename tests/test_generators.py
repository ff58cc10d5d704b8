"""Random instances, hardness-reduction generators, probe replication."""

import itertools

import numpy as np
import pytest

import golden
from balancedcover import (
    Formulation,
    GeneratorKind,
    GeneratorSpec,
    InputError,
    Instance,
    ObjectiveKind,
    exact_all_objectives,
    gen_random,
    gen_set_cover,
    gen_x3c,
    min_set_cover_size,
    perfect_balance_exists,
    replicate_probes,
    set_cover_instance,
    size_s_cover_exists,
    solve_formulation,
    solve_x3c,
    x3c_instance,
)


def reference_exact_cover(universe_size, triples):
    """Tiny independent X3C check: try every m'-subset of triples."""
    m_prime = universe_size // 3
    for combo in itertools.combinations(triples, m_prime):
        covered = set()
        for t in combo:
            covered.update(t)
        if len(covered) == universe_size:
            return True
    return False


class TestGenRandom:
    def test_deterministic(self):
        a = gen_random(20, 10, 0.5, seed=42)
        b = gen_random(20, 10, 0.5, seed=42)
        assert np.array_equal(a.adjacency, b.adjacency)

    def test_seed_changes_matrix(self):
        a = gen_random(20, 10, 0.5, seed=42)
        b = gen_random(20, 10, 0.5, seed=43)
        assert not np.array_equal(a.adjacency, b.adjacency)

    def test_density_one_is_all_ones(self):
        inst = gen_random(5, 4, 1.0, seed=0)
        assert inst.adjacency.sum() == 20

    def test_empirical_density_within_3_sigma(self):
        m, n, density = 200, 100, 0.25
        inst = gen_random(m, n, density, seed=7)
        ones = int(inst.adjacency.sum())
        sigma = (m * n * density * (1 - density)) ** 0.5
        assert abs(ones - m * n * density) <= 3 * sigma

    def test_shape_and_names(self):
        inst = gen_random(3, 2, 0.5, seed=1)
        assert inst.num_clones == 3
        assert inst.num_probes == 2
        assert inst.clone_names == ("c1", "c2", "c3")

    def test_validation(self):
        with pytest.raises(InputError):
            gen_random(0, 5, 0.5, seed=1)
        with pytest.raises(InputError):
            gen_random(5, 5, 1.5, seed=1)


class TestX3cReduction:
    def test_structure(self):
        triples = [(0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 3, 6)]
        red = x3c_instance(9, triples)
        m_prime = 3
        assert red.s == 2 * m_prime - 2 == 4
        assert red.instance.num_probes == 9
        assert red.instance.num_clones == len(triples) + (m_prime - 2)
        # Triple rows have degree 3; the universal row is all ones.
        assert red.instance.adjacency[:4].sum(axis=1).tolist() == [3, 3, 3, 3]
        assert red.instance.adjacency[4].tolist() == [1] * 9
        assert red.instance.clone_names[-1] == "w1"

    def test_edge_count_formula(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            m_prime = int(rng.integers(2, 5))
            universe = 3 * m_prime
            all_triples = list(itertools.combinations(range(universe), 3))
            count = int(rng.integers(m_prime, min(len(all_triples), 3 * m_prime) + 1))
            picks = rng.choice(len(all_triples), size=count, replace=False)
            triples = [all_triples[int(i)] for i in picks]
            red = x3c_instance(universe, triples)
            expect = 3 * len(triples) + 3 * m_prime * (m_prime - 2)
            assert int(red.instance.adjacency.sum()) == expect

    def test_planted_partition_balances(self):
        triples = [(0, 1, 2), (3, 4, 5), (0, 1, 3)]
        red = x3c_instance(6, triples)
        assert red.s == 2
        assert perfect_balance_exists(red.instance, red.s)

    def test_overlapping_triples_cannot_balance(self):
        # Every pair of triples shares element 0, so no exact cover.
        triples = [(0, 1, 2), (0, 3, 4), (0, 1, 5)]
        red = x3c_instance(6, triples)
        assert not solve_x3c(6, triples)
        assert not perfect_balance_exists(red.instance, red.s)

    def test_validation(self):
        with pytest.raises(InputError):
            x3c_instance(7, [(0, 1, 2), (3, 4, 5)])
        with pytest.raises(InputError):
            x3c_instance(6, [(0, 1, 2)])
        with pytest.raises(InputError):
            x3c_instance(6, [(0, 1, 1), (2, 3, 4)])
        with pytest.raises(InputError):
            x3c_instance(6, [(0, 1, 6), (2, 3, 4)])

    def test_solve_x3c_reference(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            m_prime = int(rng.integers(2, 4))
            universe = 3 * m_prime
            all_triples = list(itertools.combinations(range(universe), 3))
            count = int(rng.integers(m_prime, 8))
            count = min(count, len(all_triples))
            picks = rng.choice(len(all_triples), size=count, replace=False)
            triples = [all_triples[int(i)] for i in picks]
            assert solve_x3c(universe, triples) == reference_exact_cover(universe, triples)


class TestGenX3c:
    def test_planted_cover_is_yes_instance(self):
        for seed in range(10):
            red = gen_x3c(9, 7, plant_cover=True, seed=seed)
            assert red.ground_truth is True
            assert solve_x3c(9, red.triples)

    def test_ground_truth_matches_solver(self):
        for seed in range(15):
            red = gen_x3c(6, 4, seed=seed)
            assert red.ground_truth == solve_x3c(6, red.triples)

    def test_ground_truth_skippable(self):
        red = gen_x3c(6, 4, seed=3, solve_ground_truth=False)
        assert red.ground_truth is None

    def test_deterministic(self):
        a = gen_x3c(9, 6, plant_cover=True, seed=11)
        b = gen_x3c(9, 6, plant_cover=True, seed=11)
        assert a.triples == b.triples
        assert np.array_equal(a.instance.adjacency, b.instance.adjacency)

    def test_triples_distinct(self):
        red = gen_x3c(9, 10, plant_cover=True, seed=2)
        assert len(set(red.triples)) == len(red.triples) == 10

    def test_equivalence_sweep(self):
        # The reduction's promise: exact cover exists iff the reduced
        # instance has a perfectly balanced cover.
        agree = 0
        for seed in range(40):
            plant = seed % 2 == 0
            red = gen_x3c(6, 5, plant_cover=plant, seed=seed)
            truth = solve_x3c(6, red.triples)
            assert perfect_balance_exists(red.instance, red.s) == truth
            agree += 1
        assert agree == 40


class TestSetCoverReduction:
    def test_structure(self):
        red = set_cover_instance(3, [(0, 1), (2,), (0,)], 2)
        assert red.s == 3
        inst = red.instance
        assert inst.num_clones == 4
        assert inst.num_probes == 4
        assert inst.probe_names[-1] == "x0"
        assert inst.clone_names[-1] == "q0"
        # Every family clone also hits x0; q0 hits nothing.
        assert inst.adjacency[:, -1].tolist() == [1, 1, 1, 0]
        assert inst.adjacency[-1].tolist() == [0, 0, 0, 0]

    def test_coverable_at_b_plus_one(self):
        red = set_cover_instance(2, [(0,), (1,)], 2)
        assert size_s_cover_exists(red.instance, red.s)

    def test_uncoverable_universe(self):
        red = set_cover_instance(2, [(0,)], 1)
        assert not size_s_cover_exists(red.instance, red.s)

    def test_target_size_validation(self):
        with pytest.raises(InputError):
            set_cover_instance(2, [(0,), (1,)], 0)
        with pytest.raises(InputError):
            set_cover_instance(2, [(0,), (1,)], 3)
        with pytest.raises(InputError):
            set_cover_instance(2, [(0, 5)], 1)

    def test_min_set_cover_size_reference(self):
        assert min_set_cover_size(3, [(0, 1), (2,), (0, 2)]) == 2
        assert min_set_cover_size(3, [(0, 1, 2)]) == 1
        assert min_set_cover_size(3, [(0, 1)]) is None

    def test_equivalence_sweep(self):
        # The reduction's defining iff: a size-(b+1) balanced selection
        # exists in the reduced instance exactly when a set cover of
        # size <= b exists.
        for seed in range(40):
            red = gen_set_cover(5, 6, 3, 1 + seed % 4, seed=seed)
            best = min_set_cover_size(red.universe_size, red.family)
            expect = best is not None and best <= red.target_size
            assert red.ground_truth == expect
            assert size_s_cover_exists(red.instance, red.s) == expect

    def test_gen_deterministic(self):
        a = gen_set_cover(5, 6, 3, 2, seed=9)
        b = gen_set_cover(5, 6, 3, 2, seed=9)
        assert a.family == b.family


class TestReplicateProbes:
    def test_identity_at_r_1(self, golden_instance):
        assert replicate_probes(golden_instance, 1) is golden_instance

    def test_columns_tripled(self, golden_instance):
        rep = replicate_probes(golden_instance, 3)
        assert rep.num_probes == 21
        assert rep.num_clones == 8
        for j in range(7):
            for k in range(3):
                assert np.array_equal(rep.adjacency[:, 3 * j + k], golden_instance.adjacency[:, j])
        assert rep.probe_names[:3] == ("p1_1", "p1_2", "p1_3")

    def test_lp_optima_preserved(self, golden_instance):
        rep = replicate_probes(golden_instance, 4)
        for form in Formulation:
            original = solve_formulation(golden_instance, 6, form, exact=True)
            replicated = solve_formulation(rep, 6, form, exact=True)
            assert original.z_star == replicated.z_star

    def test_exact_optima_preserved(self):
        rng = np.random.default_rng(55)
        for _ in range(8):
            m = int(rng.integers(2, 8))
            n = int(rng.integers(1, 5))
            inst = Instance((rng.random((m, n)) < 0.5).astype(np.int8))
            s = int(rng.integers(1, m + 1))
            r = int(rng.integers(2, 4))
            rep = replicate_probes(inst, r)
            a = exact_all_objectives(inst, s)
            b = exact_all_objectives(rep, s)
            for kind in ObjectiveKind:
                assert a[kind].optimum == b[kind].optimum

    def test_validation(self, golden_instance):
        with pytest.raises(InputError):
            replicate_probes(golden_instance, 0)


@pytest.mark.parametrize(
    "generate",
    [
        lambda seed: gen_random(4, 3, 0.5, seed),
        lambda seed: gen_x3c(6, 4, seed=seed),
        lambda seed: gen_set_cover(5, 6, 3, 2, seed=seed),
    ],
    ids=["random", "x3c", "setcover"],
)
def test_negative_seed_is_input_error(generate):
    with pytest.raises(InputError, match="seed -1"):
        generate(-1)


class TestGeneratorSpec:
    def test_describe_format(self):
        spec = GeneratorSpec(
            GeneratorKind.X3C,
            seed=3,
            params=(("universe", 6), ("triples", 4), ("plant-cover", "true"), ("s", 2)),
        )
        assert spec.describe() == "x3c universe=6 triples=4 plant-cover=true s=2 seed=3"

    def test_describe_without_seed(self):
        spec = GeneratorSpec(GeneratorKind.REPLICATE, seed=None, params=(("r", 3),))
        assert spec.describe() == "replicate r=3"
